"""Linear solves, derivative probes, seeded streams."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrefine import baselines
from diffrefine.errors import (
    DimensionMismatchError,
    NonFiniteError,
    SingularMatrixError,
)
from diffrefine.numerics import (
    PIVOT_RTOL,
    Rng,
    as_matrix,
    as_vector,
    derive_seed,
    finite_diff_grad,
    finite_diff_jacobian,
    require_finite,
    solve_linear,
)
from diffrefine.potentials import muller_brown_potential
from diffrefine.powerflow import load_case, newton_raphson, solver
from diffrefine.powerflow.solver import load_injections


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


def reference_solve_linear(a, b, swaps=None) -> np.ndarray:
    """The textbook LU that `solve_linear` replaced: the right-hand side
    kept apart and updated by its own loop, the trailing block updated
    by `np.outer`.  `swaps`, if given, collects the steps that swap rows."""
    a = as_matrix(a, "a")
    b = as_vector(b, "b")
    n = a.shape[0]
    u = a.copy()
    x = b.copy()
    norm_a = float(np.abs(u).sum(axis=1).max())
    threshold = PIVOT_RTOL * max(norm_a, np.finfo(float).tiny)
    for k in range(n):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if abs(u[p, k]) < threshold:
            raise SingularMatrixError(
                f"pivot {abs(u[p, k]):.3e} below threshold {threshold:.3e} in column {k}"
            )
        if p != k:
            if swaps is not None:
                swaps.append(k)
            u[[k, p]] = u[[p, k]]
            x[[k, p]] = x[[p, k]]
        if k + 1 < n:
            mult = u[k + 1 :, k] / u[k, k]
            u[k + 1 :, k + 1 :] -= np.outer(mult, u[k, k + 1 :])
            x[k + 1 :] -= mult * x[k]
            u[k + 1 :, k] = 0.0
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - u[k, k + 1 :] @ x[k + 1 :]) / u[k, k]
    require_finite(x, "solution")
    return x


def assert_same_solve(a, b):
    """`solve_linear` and the reference give the same bytes, or raise
    SingularMatrixError with the same text."""
    try:
        want = reference_solve_linear(a, b)
    except SingularMatrixError as err:
        with pytest.raises(SingularMatrixError) as got:
            solve_linear(a, b)
        assert str(got.value) == str(err)
        return str(err)
    got = solve_linear(a, b)
    assert np.array_equal(got, want)
    assert got.tobytes() == want.tobytes()  # the sign of zero too
    return None


def recorded_solves(monkeypatch, module, run) -> list:
    """The (a, b) of every `solve_linear` call that `run()` makes
    through `module`."""
    calls = []

    def spy(a, b):
        calls.append((np.array(a, dtype=float), np.array(b, dtype=float)))
        return solve_linear(a, b)

    monkeypatch.setattr(module, "solve_linear", spy)
    run()
    monkeypatch.undo()
    return calls


class TestSolveLinearMatchesReference:
    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    def test_newton_jacobians(self, monkeypatch, name):
        case = load_case(name)
        rng = Rng(19)

        def run():
            for _ in range(4):
                pd = case.pd * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=case.n))
                qd = case.qd * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=case.n))
                pg = case.pg * float(pd.sum()) / float(case.pd.sum())
                newton_raphson(case, injections=load_injections(case, pd, qd, pg))

        calls = recorded_solves(monkeypatch, solver, run)
        assert len(calls) >= 4 * 3
        for a, b in calls:
            assert a.shape == (case.n_unknowns, case.n_unknowns)
            assert assert_same_solve(a, b) is None

    def test_scalar_newton_hessians(self, monkeypatch):
        demo = baselines.load_toy_demo()
        pot = muller_brown_potential(margin=float(demo["model"]["margin"]))
        starts = [s for group in demo["starts"].values() for s in group]
        starts += [a.point + 0.05 for a in baselines.stationary_anchors()]

        def run():
            for s in starts:
                baselines.newton_raphson_scalar(pot, np.array(s), iters=20)

        calls = recorded_solves(monkeypatch, baselines, run)
        assert len(calls) >= 20
        for a, b in calls:
            assert a.shape == (2, 2)
            assert assert_same_solve(a, b) is None

    def test_seeded_systems_with_row_swaps(self):
        rng = Rng(2024)
        for n in range(1, 61):
            # Rows grow with their index, so the pivot of most columns
            # sits below the diagonal.
            a = rng.normal((n, n)) * np.arange(1.0, n + 1.0)[:, None]
            b = rng.normal(n) * 1e3
            swaps = []
            reference_solve_linear(a, b, swaps)
            if n >= 4:
                assert len(swaps) > (n - 1) / 2
            assert assert_same_solve(a, b) is None

    def test_zeros_and_negative_zeros(self):
        rng = Rng(7)
        for n in (1, 2, 3, 5, 8, 13):
            for _ in range(4):
                a = rng.normal((n, n))
                a[rng.uniform(size=(n, n)) < 0.4] = 0.0
                a[rng.uniform(size=(n, n)) < 0.2] = -0.0
                # adding a diagonal matrix would turn every -0.0 into +0.0
                a[np.diag_indices(n)] += np.where(rng.uniform(size=n) < 0.5, 3.0, -3.0)
                b = rng.normal(n)
                b[rng.uniform(size=n) < 0.4] = 0.0
                b[rng.uniform(size=n) < 0.3] = -0.0
                for rhs in (b, np.zeros(n), -np.zeros(n)):
                    assert assert_same_solve(a, rhs) is None
        # 0.0 * -0.0 is -0.0, but a dot sums from +0.0: the first entry
        # is (-0.0 - 0.0) / -2.0 = +0.0.
        x = solve_linear(np.array([[-2.0, 0.0], [0.0, 3.0]]), -np.zeros(2))
        assert np.signbit(x).tolist() == [False, True]

    @pytest.mark.parametrize("n", [1, 2, 5, 9])
    def test_singular_at_first_middle_and_last_column(self, n):
        rng = Rng(31 + n)
        b = rng.normal(n)
        columns = sorted({0, n // 2, n - 1})
        for col in columns:
            a = rng.normal((n, n)) + n * np.eye(n)
            if col == 0:
                a[:, 0] = 0.0
            else:
                # a column that repeats an earlier one
                a[:, col] = a[:, col - 1]
            msg = assert_same_solve(a, b)
            assert msg is not None and msg.endswith(f"in column {col}")


def assert_stack_matches_2d(a, b):
    """Each system of a stacked solve gets the bytes of its 2-D solve."""
    x = solve_linear(a, b)
    assert x.shape == np.shape(b)
    for j in range(len(a)):
        assert x[j].tobytes() == solve_linear(a[j], b[j]).tobytes()


def assert_rows_match_2d(a, b):
    """Each right-hand side of a many-right-hand-side solve gets the
    bytes of its own 2-D solve."""
    x = solve_linear(a, b)
    assert x.shape == np.shape(b)
    for j in range(len(b)):
        assert x[j].tobytes() == solve_linear(a, b[j]).tobytes()


def draw_specs(case, m):
    """The spec rows of m seeded load draws, as data.py draws them."""
    rng = Rng(23)
    specs = []
    for _ in range(m):
        pd = case.pd * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=case.n))
        qd = case.qd * (1.0 + 0.2 * rng.uniform(-1.0, 1.0, size=case.n))
        pg = case.pg * float(pd.sum()) / float(case.pd.sum())
        specs.append(solver.injection_features(case, load_injections(case, pd, qd, pg)))
    return np.array(specs)


def block_stacks(monkeypatch, name, m):
    """The solves of a newton_block call on max(m, 2) scenario draws (a
    block of one would take the 2-D solve): iteration 0's (a, b) as
    passed, and the (a, b) stacks of later iterations cut to their
    first m systems."""
    case = load_case(name)
    calls = []

    def spy(a, b):
        calls.append((a, b))
        return solve_linear(a, b)

    monkeypatch.setattr(solver, "solve_linear", spy)
    solver.newton_block(case, solver.build_ybus(case), draw_specs(case, max(m, 2)))
    monkeypatch.undo()
    first, *rest = calls
    return first, [(a[:m], b[:m]) for a, b in rest]


def column_dominant(rng, m, n):
    """m systems whose diagonal entry outweighs the rest of its column,
    so that partial pivoting never swaps a row."""
    a = rng.normal((m, n, n))
    a[:, np.arange(n), np.arange(n)] = np.abs(a).sum(axis=1) + 1.0
    return a


def solve_swaps(a, b) -> list:
    """The columns at which the 2-D solve of one system swaps rows."""
    swaps = []
    reference_solve_linear(a, b, swaps)
    return swaps


class TestSolveStack:
    """solve_linear on (m, n, n) and (m, n) stacks against its 2-D path."""

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    @pytest.mark.parametrize("m", [1, 5, 64])
    def test_newton_jacobian_stacks(self, monkeypatch, name, m):
        (a0, b0), stacks = block_stacks(monkeypatch, name, m)
        # iteration 0: one flat-start Jacobian, every draw's mismatch
        assert a0.ndim == 2 and b0.shape == (max(m, 2), len(a0))
        assert_rows_match_2d(a0, b0)
        assert len(stacks) >= 2
        for a, b in stacks:
            assert a.ndim == 3 and len(a) == m
            # no system swaps a row, so the stack skips every swap
            assert all(solve_swaps(a[s], b[s]) == [] for s in range(m))
            assert_stack_matches_2d(a, b)

    def test_systems_with_row_swaps(self):
        rng = Rng(2025)
        for n in (4, 9, 30, 53):
            a = rng.normal((6, n, n)) * np.arange(1.0, n + 1.0)[:, None]
            b = rng.normal((6, n)) * 1e3
            swapped = []
            for j in range(6):
                swaps = solve_swaps(a[j], b[j])
                assert swaps
                swapped.append(set(swaps))
            # some column swaps rows in one system and not in another
            assert set.union(*swapped) != set.intersection(*swapped)
            assert_stack_matches_2d(a, b)

    def test_swaps_only_where_a_pivot_moved(self):
        a = column_dominant(Rng(77), 6, 7)
        b = Rng(78).normal((6, 7))
        # rows k and j trade places: the solve swaps them back at
        # column k, and the other systems do not swap there
        for s, (k, j) in {1: (0, 3), 2: (2, 6), 4: (0, 5), 5: (2, 3)}.items():
            a[s, [k, j]] = a[s, [j, k]]
        assert [solve_swaps(a[s], b[s]) for s in range(6)] == [[], [0], [2], [], [0], [2]]
        assert_stack_matches_2d(a, b)

    def test_singular_column_after_a_skipped_swap(self):
        a = column_dominant(Rng(81), 4, 6)
        b = Rng(82).normal((4, 6))
        a[1, [0, 4]] = a[1, [4, 0]]  # system 1 swaps at column 0, the rest do not
        a[2, :, 3] = a[2, :, 2]  # singular in column 3
        assert solve_swaps(a[1], b[1]) == [0]
        swaps = []
        with pytest.raises(SingularMatrixError):
            reference_solve_linear(a[2], b[2], swaps)
        assert swaps == []
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(a, b)
        assert err.value.systems == [2]
        want = assert_same_solve(a[2], b[2])
        assert want.endswith("in column 3")
        assert str(err.value) == f"{want} of system 2"
        assert_stack_matches_2d(a[[0, 1, 3]], b[[0, 1, 3]])

    def test_zeros_and_negative_zeros(self):
        rng = Rng(8)
        for n in (1, 2, 3, 5, 8):
            a = rng.normal((12, n, n))
            a[rng.uniform(size=a.shape) < 0.4] = 0.0
            a[rng.uniform(size=a.shape) < 0.2] = -0.0
            a[:, np.arange(n), np.arange(n)] += np.where(rng.uniform(size=(12, n)) < 0.5, 3.0, -3.0)
            b = rng.normal((12, n))
            b[rng.uniform(size=b.shape) < 0.4] = 0.0
            b[rng.uniform(size=b.shape) < 0.3] = -0.0
            assert_stack_matches_2d(a, b)
        # the one-entry dot of the first row sums from +0.0, as in 2-D
        x = solve_linear(np.array([[[-2.0, 0.0], [0.0, 3.0]]] * 3), -np.zeros((3, 2)))
        assert np.signbit(x).tolist() == [[False, True]] * 3

    def test_singular_systems_are_named_at_their_column(self):
        rng = Rng(41)
        n = 5
        a = rng.normal((6, n, n)) + n * np.eye(n)
        b = rng.normal((6, n))
        for j in (1, 4):
            a[j, :, 2] = a[j, :, 1]  # singular in column 2
        a[3, :, 4] = a[3, :, 3]  # singular in column 4
        with pytest.raises(SingularMatrixError) as first:
            solve_linear(a, b)
        assert first.value.systems == [1, 4]
        want = assert_same_solve(a[1], b[1])
        assert str(first.value) == f"{want} of system 1"
        assert assert_same_solve(a[4], b[4]).endswith("in column 2")
        rest = [0, 2, 3, 5]
        with pytest.raises(SingularMatrixError) as second:
            solve_linear(a[rest], b[rest])
        assert second.value.systems == [2]
        assert str(second.value) == f"{assert_same_solve(a[3], b[3])} of system 2"
        assert_stack_matches_2d(a[[0, 2, 5]], b[[0, 2, 5]])

    def test_pivots_are_checked_after_elimination(self):
        """Systems singular at two columns: only the earlier column is
        named, with the systems short there, the 2-D text and its pivot.
        The singular systems' arithmetic after their short column (0/0
        among it) warns nothing."""
        rng = Rng(43)
        n = 7
        a = rng.normal((8, n, n)) * np.arange(1.0, n + 1.0)[:, None]
        b = rng.normal((8, n))
        a[0, :, 5] = 0.0  # singular in column 5
        a[2, :, 5] = a[2, :, 4]  # and in column 5
        a[4, :, 2] = 3.0 * a[4, :, 1]  # singular in column 2
        a[6, :, 2] = 0.0  # and in column 2
        texts = {s: assert_same_solve(a[s], b[s]) for s in range(8)}
        assert {s: t.rsplit(" ", 1)[1] for s, t in texts.items() if t} == {
            0: "5", 2: "5", 4: "2", 6: "2"
        }
        assert any(solve_swaps(a[s], b[s]) for s in (1, 3, 5, 7))
        assert float(texts[4].split()[1]) > 0.0  # a rounded pivot, not an exact zero
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SingularMatrixError) as first:
                solve_linear(a, b)
            assert first.value.systems == [4, 6]
            assert str(first.value) == f"{texts[4]} of system 4"
            rest = [0, 1, 2, 3, 5, 7]
            with pytest.raises(SingularMatrixError) as second:
                solve_linear(a[rest], b[rest])
            assert second.value.systems == [0, 2]
            assert str(second.value) == f"{texts[0]} of system 0"
            assert_stack_matches_2d(a[[1, 3, 5, 7]], b[[1, 3, 5, 7]])

    def test_shapes_non_finite_and_empty_stacks(self):
        a = np.stack([np.eye(3)] * 2)
        for bad_a, bad_b in ((a, np.ones((2, 4))), (a, np.ones(3)), (np.ones((2, 3, 4)), np.ones((2, 3)))):
            with pytest.raises(DimensionMismatchError):
                solve_linear(bad_a, bad_b)
        nan = a.copy()
        nan[1, 2, 0] = np.nan
        with pytest.raises(NonFiniteError):
            solve_linear(nan, np.ones((2, 3)))
        with pytest.raises(NonFiniteError):
            solve_linear(a, np.array([[1.0, 2.0, 3.0], [np.inf, 0.0, 0.0]]))
        assert solve_linear(np.zeros((0, 3, 3)), np.zeros((0, 3))).shape == (0, 3)
        assert solve_linear(np.zeros((2, 0, 0)), np.zeros((2, 0))).shape == (2, 0)


class TestManyRightHandSides:
    """solve_linear on one (n, n) matrix and (m, n) right-hand sides
    against its 2-D path, one right-hand side at a time."""

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    @pytest.mark.parametrize("m", [2, 5, 64])
    def test_flat_start_jacobians(self, name, m):
        case = load_case(name)
        ybus = solver.build_ybus(case)
        start = solver.flat_start(case)
        jac = solver.power_jacobian(case, ybus, start)
        xs = np.tile(solver.pack_state(case, start), (m, 1))
        assert_rows_match_2d(jac, solver.grid_residual(case, ybus, xs, draw_specs(case, m)))

    def test_systems_with_row_swaps(self):
        rng = Rng(2026)
        for n in (4, 9, 30, 53):
            a = rng.normal((n, n)) * np.arange(1.0, n + 1.0)[:, None]
            b = rng.normal((7, n)) * 1e3
            # rows swap at some columns and not at others
            assert 0 < len(solve_swaps(a, b[0])) < n - 1
            assert_rows_match_2d(a, b)

    def test_zeros_and_negative_zeros(self):
        rng = Rng(9)
        for n in (1, 2, 3, 5, 8):
            a = rng.normal((n, n))
            a[rng.uniform(size=(n, n)) < 0.4] = 0.0
            a[rng.uniform(size=(n, n)) < 0.2] = -0.0
            a[np.diag_indices(n)] += np.where(rng.uniform(size=n) < 0.5, 3.0, -3.0)
            b = rng.normal((12, n))
            b[rng.uniform(size=b.shape) < 0.4] = 0.0
            b[rng.uniform(size=b.shape) < 0.3] = -0.0
            assert_rows_match_2d(a, np.vstack([b, np.zeros(n), -np.zeros(n)]))
        # the one-entry dot of the first row sums from +0.0, as in 2-D
        x = solve_linear(np.array([[-2.0, 0.0], [0.0, 3.0]]), -np.zeros((3, 2)))
        assert np.signbit(x).tolist() == [[False, True]] * 3

    def test_shapes_non_finite_and_no_right_hand_sides(self):
        a = np.eye(3)
        for bad_b in (np.ones((2, 4)), np.ones((3, 2)), np.ones((2, 3, 3)), np.float64(1.0)):
            with pytest.raises(DimensionMismatchError):
                solve_linear(a, bad_b)
        with pytest.raises(DimensionMismatchError):
            solve_linear(np.ones((2, 3)), np.ones((4, 2)))
        with pytest.raises(NonFiniteError):
            solve_linear(a, np.array([[1.0, 2.0, 3.0], [np.inf, 0.0, 0.0]]))
        nan = a.copy()
        nan[2, 0] = np.nan
        with pytest.raises(NonFiniteError):
            solve_linear(nan, np.ones((2, 3)))
        assert solve_linear(a, np.zeros((0, 3))).shape == (0, 3)
        assert solve_linear(np.zeros((0, 0)), np.zeros((4, 0))).shape == (4, 0)

    def test_singular_matrix_raises_the_2d_text(self):
        a = Rng(5).normal((6, 6)) + 6.0 * np.eye(6)
        a[:, 3] = a[:, 2]
        b = Rng(6).normal((4, 6))
        with pytest.raises(SingularMatrixError) as err:
            solve_linear(a, b)
        want = assert_same_solve(a, b[0])
        assert want.endswith("in column 3")
        assert str(err.value) == want
        assert err.value.systems == []


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
