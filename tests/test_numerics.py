"""Linear solves, derivative probes, seeded streams."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrefine.errors import (
    DimensionMismatchError,
    NonFiniteError,
    SingularMatrixError,
)
from diffrefine.numerics import (
    Rng,
    derive_seed,
    finite_diff_grad,
    finite_diff_jacobian,
    require_finite,
    solve_linear,
)


class TestSolveLinear:
    def test_identity(self):
        b = np.array([3.0, -1.0, 2.5])
        x = solve_linear(np.eye(3), b)
        assert np.allclose(x, b, atol=1e-14)

    def test_diagonal(self):
        x = solve_linear(np.diag([2.0, 4.0]), np.array([2.0, 8.0]))
        assert np.allclose(x, [1.0, 2.0], atol=1e-14)

    def test_requires_pivoting(self):
        # Zero in the leading position forces a row swap.
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = solve_linear(a, np.array([5.0, 7.0]))
        assert np.allclose(x, [7.0, 5.0], atol=1e-14)

    def test_singular_raises(self):
        a = np.array([[1.0, 2.0], [2.0, 4.0]])
        with pytest.raises(SingularMatrixError):
            solve_linear(a, np.array([1.0, 1.0]))

    def test_zero_matrix_raises(self):
        with pytest.raises(SingularMatrixError):
            solve_linear(np.zeros((3, 3)), np.ones(3))

    def test_non_square_raises(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.ones((2, 3)), np.ones(2))

    def test_length_mismatch_raises(self):
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.eye(3), np.ones(2))

    def test_non_finite_raises(self):
        a = np.eye(2)
        a[0, 0] = np.nan
        with pytest.raises(NonFiniteError):
            solve_linear(a, np.ones(2))

    def test_residual_bound_seeded_systems(self):
        # Well-conditioned random systems keep a tight residual.
        rng = Rng(123)
        for _ in range(200):
            n = int(rng.integers(1, 9))
            a = rng.normal((n, n)) + n * np.eye(n)
            b = rng.normal(n)
            x = solve_linear(a, b)
            residual = np.abs(a @ x - b).max()
            assert residual <= 1e-9 * max(1.0, np.abs(b).max())

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=40)
    def test_random_spd_systems(self, seed):
        rng = Rng(seed)
        n = int(rng.integers(1, 7))
        q = rng.normal((n, n))
        a = q @ q.T + n * np.eye(n)
        x_true = rng.normal(n)
        x = solve_linear(a, a @ x_true)
        assert np.allclose(x, x_true, atol=1e-8, rtol=1e-8)


class TestRequireFinite:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("shape", [(7,), (3, 4)])
    def test_any_non_finite_entry_raises(self, bad, shape):
        for pos in range(int(np.prod(shape))):
            a = np.arange(np.prod(shape), dtype=float).reshape(shape)
            a.flat[pos] = bad
            with pytest.raises(NonFiniteError, match="probe contains a non-finite entry"):
                require_finite(a, "probe")

    @pytest.mark.parametrize("a", [np.zeros(0), np.zeros((0, 3)), np.array(2.5), np.array(-0.0)])
    def test_empty_and_finite_scalar_arrays_pass(self, a):
        assert require_finite(a) is a


class TestFiniteDiff:
    def test_quadratic(self):
        g = finite_diff_grad(lambda x: float(x @ x), np.array([3.0]))
        assert abs(g[0] - 6.0) < 1e-6

    def test_multivariate(self):
        f = lambda x: float(x[0] ** 2 + 3.0 * x[0] * x[1])
        g = finite_diff_grad(f, np.array([1.0, 2.0]))
        assert np.allclose(g, [8.0, 3.0], atol=1e-6)

    def test_jacobian_linear(self):
        a = np.array([[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]])
        jac = finite_diff_jacobian(lambda x: a @ x, np.array([0.3, -0.7]))
        assert np.allclose(jac, a, atol=1e-7)

    def test_non_finite_probe_raises(self):
        with pytest.raises(NonFiniteError):
            finite_diff_grad(lambda x: float("nan"), np.array([1.0]))


class TestRng:
    def test_identical_streams(self):
        a = Rng(42).random(1_000_000)
        b = Rng(42).random(1_000_000)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        assert not np.array_equal(Rng(1).random(100), Rng(2).random(100))

    def test_fork_is_deterministic_and_independent(self):
        r = Rng(9)
        a = r.fork("alpha").normal(50)
        b = Rng(9).fork("alpha").normal(50)
        c = Rng(9).fork("beta").normal(50)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_derive_seed_stable(self):
        assert derive_seed(5, "track") == derive_seed(5, "track")
        assert derive_seed(5, "track") != derive_seed(5, "other")
        assert derive_seed(5, "track") != derive_seed(6, "track")

    def test_normal_moments(self):
        z = Rng(3).normal(200_000)
        assert abs(z.mean()) < 0.01
        assert abs(z.std() - 1.0) < 0.01
