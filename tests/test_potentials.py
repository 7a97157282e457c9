"""Surface landmarks, relational constraints, manifold samplers."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrefine.errors import (
    SamplerStalledError,
    SingularMatrixError,
    ValidationError,
)
from diffrefine.numerics import Rng, fd_hessian, finite_diff_jacobian, solve_linear
from diffrefine import potentials
from diffrefine.adversarial import load_schema, sample_feasible
from diffrefine.powerflow import load_case, solver
from diffrefine.powerflow.solver import flat_start, kirchhoff_potential, pack_state
from diffrefine.potentials import (
    WORKING_BOX,
    CallablePotential,
    ConstraintPotential,
    LinearSumTerm,
    MullerBrown,
    MullerBrownPotential,
    NormalizedPotential,
    OrderTerm,
    ProductTerm,
    RangeTerm,
    RelationalConstraintSet,
    StationaryPoint,
    ZeroPotential,
    finite_difference_conformance,
    global_minimum,
    locate_stationary_points,
    muller_brown_potential,
    sample_manifold_dataset,
)

# Published landmark table for the canonical surface parameters;
# locations to about three decimals, energies to the same source.
LANDMARKS = {
    "global_min": ((-0.558, 1.442), -146.700),
    "min_b": ((0.623, 0.028), -108.167),
    "min_c": ((-0.050, 0.467), -80.768),
    "saddle_ab": ((-0.822, 0.624), -40.665),
    "saddle_bc": ((0.212, 0.293), -72.249),
}


class TestStationaryOracle:
    def test_finds_three_minima_and_two_saddles(self):
        pts = locate_stationary_points()
        kinds = [p.kind for p in pts]
        assert kinds.count("minimum") == 3
        assert kinds.count("saddle") == 2

    @pytest.mark.parametrize("name", list(LANDMARKS))
    def test_landmarks(self, name):
        loc, energy = LANDMARKS[name]
        pts = locate_stationary_points()
        best = min(pts, key=lambda p: np.linalg.norm(p.point - np.array(loc)))
        assert np.linalg.norm(best.point - np.array(loc)) < 0.01
        assert abs(best.value - energy) < 0.5

    def test_global_minimum_is_deepest(self):
        pts = locate_stationary_points()
        gm = global_minimum()
        assert gm.value == min(p.value for p in pts)
        assert gm.kind == "minimum"

    def test_gradient_small_at_stationary_points(self):
        mb = MullerBrown()
        for p in locate_stationary_points():
            assert np.abs(mb.surface_grad(p.point)).max() < 1e-8


# The grid-seeded Newton search that found the stationary points which
# locate_stationary_points returns as constants.

# Nodes per axis of the grid that seeds the stationary-point search.
SEED_GRID_N = 61


def _polish(mb: MullerBrown, seed_point: np.ndarray, box: np.ndarray):
    """Newton iteration on the gradient from one seed; None if it escapes."""
    p = seed_point.astype(float).copy()
    lo = box[:, 0] - 0.5
    hi = box[:, 1] + 0.5
    for _ in range(80):
        g = mb.surface_grad(p)
        if float(np.abs(g).max()) < 1e-11:
            return p
        try:
            step = solve_linear(fd_hessian(mb.surface_grad, p, 1e-5), g)
        except SingularMatrixError:
            return None
        norm = float(np.abs(step).max())
        if norm > 0.25:
            step *= 0.25 / norm
        p = p - step
        if np.any(p < lo) or np.any(p > hi):
            return None
    return None


def _search_stationary_points() -> tuple:
    """Grid-seeded Newton search for all stationary points in the box.

    Seeds are the grid nodes with the smallest gradient norms plus the
    deepest surface values; converged points are deduplicated and
    classified by the eigenvalues of the local Hessian.  Minima come
    first, sorted deepest first, then saddles, then maxima.
    """
    mb = MullerBrown()
    xs = np.linspace(WORKING_BOX[0, 0], WORKING_BOX[0, 1], SEED_GRID_N)
    ys = np.linspace(WORKING_BOX[1, 0], WORKING_BOX[1, 1], SEED_GRID_N)
    gx, gy = np.meshgrid(xs, ys, indexing="ij")
    pts = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vals = mb.surface_value_batch(pts)
    grads = mb.surface_grad_batch(pts)
    gnorm = np.abs(grads).max(axis=1)

    def grid_local_minima(field_flat):
        # Nodes not exceeded by any of their eight neighbors.
        field = field_flat.reshape(SEED_GRID_N, SEED_GRID_N)
        padded = np.pad(field, 1, constant_values=np.inf)
        is_min = np.ones_like(field, dtype=bool)
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                if di == 0 and dj == 0:
                    continue
                neigh = padded[1 + di : 1 + di + SEED_GRID_N, 1 + dj : 1 + dj + SEED_GRID_N]
                is_min &= field <= neigh
        return np.flatnonzero(is_min.ravel())

    seed_idx = set(np.argsort(gnorm)[:200].tolist())
    seed_idx.update(np.argsort(vals)[:80].tolist())
    seed_idx.update(grid_local_minima(vals).tolist())
    seed_idx.update(grid_local_minima(gnorm).tolist())

    found: list[StationaryPoint] = []
    for idx in sorted(seed_idx):
        p = _polish(mb, pts[idx], WORKING_BOX)
        if p is None:
            continue
        if np.any(p < WORKING_BOX[:, 0]) or np.any(p > WORKING_BOX[:, 1]):
            continue
        if any(np.linalg.norm(p - s.point) < 1e-4 for s in found):
            continue
        eig = np.linalg.eigvalsh(fd_hessian(mb.surface_grad, p, 1e-5))
        if np.all(eig > 0):
            kind = "minimum"
        elif np.all(eig < 0):
            kind = "maximum"
        else:
            kind = "saddle"
        found.append(
            StationaryPoint(
                location=(float(p[0]), float(p[1])),
                value=mb.surface_value(p),
                kind=kind,
            )
        )

    order = {"minimum": 0, "saddle": 1, "maximum": 2}
    found.sort(key=lambda s: (order[s.kind], s.value))
    return tuple(found)


def test_search_reproduces_the_stationary_point_constants():
    def exact(points):
        return [(p.kind, [v.hex() for v in (*p.location, p.value)]) for p in points]

    assert exact(_search_stationary_points()) == exact(locate_stationary_points())


class TestMullerBrownPotential:
    def test_non_negative_on_grid(self):
        pot = muller_brown_potential()
        xs = np.linspace(WORKING_BOX[0, 0], WORKING_BOX[0, 1], 200)
        ys = np.linspace(WORKING_BOX[1, 0], WORKING_BOX[1, 1], 200)
        gx, gy = np.meshgrid(xs, ys, indexing="ij")
        vals = pot.value_batch(np.stack([gx.ravel(), gy.ravel()], axis=1))
        assert np.all(vals >= 0.0)

    def test_value_near_zero_at_minimizer(self):
        pot = muller_brown_potential()
        assert pot.value(global_minimum().point) < 0.5

    def test_margin_creates_flat_pocket(self):
        pot = muller_brown_potential(margin=2.0)
        gm = global_minimum().point
        assert pot.value(gm) == 0.0
        assert np.allclose(pot.grad(gm), 0.0)
        # Slightly off the minimum but still inside the pocket.
        assert pot.value(gm + np.array([5e-3, 0.0])) == 0.0

    def test_gradient_conformance(self):
        pot = muller_brown_potential()
        rng = Rng(11)
        probes = np.stack(
            [
                rng.uniform(WORKING_BOX[0, 0], WORKING_BOX[0, 1], 100),
                rng.uniform(WORKING_BOX[1, 0], WORKING_BOX[1, 1], 100),
            ],
            axis=1,
        )
        assert finite_difference_conformance(pot, probes) < 1e-4

    def test_batch_matches_scalar(self):
        pot = muller_brown_potential()
        rng = Rng(5)
        pts = np.stack(
            [rng.uniform(-1.5, 1.0, 20), rng.uniform(-0.3, 2.0, 20)], axis=1
        )
        vb = pot.value_batch(pts)
        gb = pot.grad_batch(pts)
        for i, p in enumerate(pts):
            assert np.isclose(vb[i], pot.value(p), atol=1e-12)
            assert np.allclose(gb[i], pot.grad(p), atol=1e-12)

    def test_exponent_clamp_warns(self):
        mb = MullerBrown()
        with pytest.warns(RuntimeWarning):
            # Far field, positive-curvature term explodes.
            mb.surface_value(np.array([60.0, -60.0]))


def small_constraint_set():
    names = ["a", "b", "c", "d"]
    bounds = [[0.0, 10.0]] * 4
    terms = [
        LinearSumTerm(features=("a", "b"), weights=(1.0, -2.0), offset=0.5),
        ProductTerm(result="c", left="a", right="b"),
        OrderTerm(smaller="a", larger="d"),
        RangeTerm(feature="d", lower=1.0, upper=4.0),
    ]
    return RelationalConstraintSet(names, bounds, terms)


class TestRelationalConstraintSet:
    def test_feasible_point_is_zero(self):
        pot = small_constraint_set()
        # a - 2b = 0.5, c = a*b, a <= d, 1 <= d <= 4
        x = np.array([2.5, 1.0, 2.5, 3.0])
        assert pot.value(x) == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(pot.grad(x), 0.0, atol=1e-12)

    def test_linear_violation(self):
        pot = small_constraint_set()
        x = np.array([3.5, 1.0, 3.5, 3.5])  # a - 2b - 0.5 = 1
        assert pot.residuals_batch(x[None, :])[0, 0] ** 2 == pytest.approx(1.0)

    def test_product_violation(self):
        pot = small_constraint_set()
        x = np.array([2.5, 1.0, 4.5, 3.0])  # c - a*b = 2
        assert pot.residuals_batch(x[None, :])[0, 1] ** 2 == pytest.approx(4.0)

    def test_order_hinge_one_sided(self):
        pot = small_constraint_set()
        ok = np.array([2.5, 1.0, 2.5, 3.0])
        bad = ok.copy()
        bad[3] = 1.5  # d below a: order violated by 1
        assert pot.residuals_batch(ok[None, :])[0, 2] ** 2 == 0.0
        assert pot.residuals_batch(bad[None, :])[0, 2] ** 2 == pytest.approx(1.0)

    def test_range_both_sides(self):
        pot = small_constraint_set()
        low = np.array([0.25, -0.125, -0.03125, 0.5])
        # 0.5 below lower 1
        assert pot.residuals_batch(low[None, :])[0, 3] ** 2 == pytest.approx(0.25)
        high = np.array([2.5, 1.0, 2.5, 6.0])
        # 6 above upper 4
        assert pot.residuals_batch(high[None, :])[0, 3] ** 2 == pytest.approx(4.0)

    def test_breakdown_sums_to_value(self):
        pot = small_constraint_set()
        rng = Rng(3)
        for _ in range(20):
            x = rng.uniform(0.0, 5.0, 4)
            breakdown = pot.residuals_batch(x[None, :])[0] ** 2
            assert pot.value(x) == pytest.approx(float(breakdown.sum()), rel=1e-12)

    def test_gradient_conformance_away_from_kinks(self):
        pot = small_constraint_set()
        rng = Rng(17)
        probes = []
        while len(probes) < 100:
            x = rng.uniform(0.0, 5.0, 4)
            # Keep hinge arguments clear of their kinks.
            if abs(x[0] - x[3]) < 1e-3 or abs(x[3] - 1.0) < 1e-3 or abs(x[3] - 4.0) < 1e-3:
                continue
            probes.append(x)
        assert finite_difference_conformance(pot, np.array(probes)) < 1e-4

    def test_config_round_trip(self):
        pot = small_constraint_set()
        clone = RelationalConstraintSet.from_config(pot.to_config())
        rng = Rng(23)
        for _ in range(10):
            x = rng.uniform(0.0, 5.0, 4)
            assert clone.value(x) == pytest.approx(pot.value(x), rel=1e-14)

    def test_unknown_feature_rejected(self):
        with pytest.raises(ValidationError):
            RelationalConstraintSet(
                ["a"], [[0.0, 1.0]], [OrderTerm(smaller="a", larger="zz")]
            )

    def test_bad_bounds_rejected(self):
        with pytest.raises(ValidationError):
            RelationalConstraintSet(["a"], [[1.0, 1.0]], [])


class TestSamplers:
    def test_metropolis_concentrates_in_wells(self):
        pot = muller_brown_potential()
        s = sample_manifold_dataset(pot, WORKING_BOX, 5000, kT=10.0, seed=8)
        frac = float(np.mean(pot.value_batch(s) < 60.0))
        assert frac > 0.8

    def test_same_seed_same_samples(self):
        pot = muller_brown_potential()
        a = sample_manifold_dataset(pot, WORKING_BOX, 500, kT=10.0, seed=12)
        b = sample_manifold_dataset(pot, WORKING_BOX, 500, kT=10.0, seed=12)
        assert np.array_equal(a, b)

    def test_samples_inside_box(self):
        pot = muller_brown_potential()
        s = sample_manifold_dataset(pot, WORKING_BOX, 1000, kT=10.0, seed=2)
        assert np.all(s >= WORKING_BOX[:, 0][None, :])
        assert np.all(s <= WORKING_BOX[:, 1][None, :])

    def test_metropolis_stall_raises(self):
        # An infinite potential rejects every proposal; n = 14,000 runs
        # the 64 chains past the 100,000-proposal window.
        wall = CallablePotential(1, lambda x: np.inf, lambda x: np.zeros(1))
        with np.errstate(invalid="ignore"), pytest.raises(
            SamplerStalledError, match="metropolis acceptance 0.00e[+]00 over 100032 proposals"
        ):
            sample_manifold_dataset(wall, np.array([[0.0, 1.0]]), 14_000, kT=1.0, seed=1)


# ---------------------------------------------------------------------------
# The fused value-and-gradient kernels against the per-term formulas they
# replaced, byte for byte, on the batch path and on the single-row path.
# ---------------------------------------------------------------------------

def reference_residuals(pot, xs):
    """Per-term residuals, one numpy expression per term."""
    cols = []
    for term in pot.terms:
        if isinstance(term, LinearSumTerm):
            c = sum(
                w * xs[:, pot.idx(f)] for f, w in zip(term.features, term.weights)
            ) - term.offset
        elif isinstance(term, ProductTerm):
            c = xs[:, pot.idx(term.result)] - xs[:, pot.idx(term.left)] * xs[:, pot.idx(term.right)]
        elif isinstance(term, OrderTerm):
            c = np.maximum(xs[:, pot.idx(term.smaller)] - xs[:, pot.idx(term.larger)], 0.0)
        else:
            v = xs[:, pot.idx(term.feature)]
            c = np.maximum(v - term.upper, 0.0) + np.maximum(term.lower - v, 0.0)
        cols.append(np.asarray(c, dtype=float))
    return np.stack(cols, axis=1) if cols else np.zeros((xs.shape[0], 0))


def reference_grad(pot, xs):
    """Gradient of the squared residual sum, accumulated term by term."""
    g = np.zeros((xs.shape[0], pot.dim))
    for term in pot.terms:
        if isinstance(term, LinearSumTerm):
            c = sum(
                w * xs[:, pot.idx(f)] for f, w in zip(term.features, term.weights)
            ) - term.offset
            for f, w in zip(term.features, term.weights):
                g[:, pot.idx(f)] += 2.0 * c * w
        elif isinstance(term, ProductTerm):
            ir, il, iright = pot.idx(term.result), pot.idx(term.left), pot.idx(term.right)
            c = xs[:, ir] - xs[:, il] * xs[:, iright]
            g[:, ir] += 2.0 * c
            g[:, il] += -2.0 * c * xs[:, iright]
            g[:, iright] += -2.0 * c * xs[:, il]
        elif isinstance(term, OrderTerm):
            i_s, i_l = pot.idx(term.smaller), pot.idx(term.larger)
            z = xs[:, i_s] - xs[:, i_l]
            c = np.maximum(z, 0.0)
            active = (z > 0.0).astype(float)
            g[:, i_s] += 2.0 * c * active
            g[:, i_l] += -2.0 * c * active
        else:
            i_f = pot.idx(term.feature)
            v = xs[:, i_f]
            c = np.maximum(v - term.upper, 0.0) + np.maximum(term.lower - v, 0.0)
            slope = (v > term.upper).astype(float) - (v < term.lower).astype(float)
            g[:, i_f] += 2.0 * c * slope
    return g


def _same_bytes(got, want):
    """Same shape and bytes, signed zeros included, except that any NaN
    matches any NaN: where two NaNs of opposite sign meet (0 * inf gives
    a negative one on x86-64), the one that survives depends on the
    operand order of numpy's vector loops, which Python floats need not
    share, and no output shows a NaN's sign."""
    got = np.asarray(got, dtype=float)
    assert got.shape == want.shape
    nan = np.isnan(want)
    assert np.array_equal(np.isnan(got), nan)
    assert got[~nan].tobytes() == want[~nan].tobytes()


@np.errstate(invalid="ignore", over="ignore")
def assert_relational_matches_reference(pot, xs):
    r_ref = reference_residuals(pot, xs)
    phi_ref = np.sum(r_ref ** 2, axis=1)
    g_ref = reference_grad(pot, xs)
    # Batch path: array columns, whatever the row count.
    res, g = pot._terms_at(list(xs.T), potentials._relu_array, potentials._indicator_array, True)
    if res:
        _same_bytes(np.stack(res, axis=1), r_ref)
    for i, gi in enumerate(g):
        _same_bytes(np.broadcast_to(gi, xs.shape[:1]), g_ref[:, i])
    # Public entry points: the batch path from two rows up, floats at one.
    _same_bytes(pot.residuals_batch(xs), r_ref)
    _same_bytes(pot.value_batch(xs), phi_ref)
    _same_bytes(pot.grad_batch(xs), g_ref)
    phi, g = pot.value_and_grad_batch(xs)
    _same_bytes(phi, phi_ref)
    _same_bytes(g, g_ref)
    # Float row path, one row at a time.
    for i in range(xs.shape[0]):
        row = xs[i : i + 1]
        _same_bytes(pot.residuals_batch(row), r_ref[i : i + 1])
        phi, g = pot.value_and_grad_batch(row)
        _same_bytes(phi, phi_ref[i : i + 1])
        _same_bytes(g, g_ref[i : i + 1])
        _same_bytes(pot.grad(xs[i]), g_ref[i])
        _same_bytes([pot.value(xs[i])], phi_ref[i : i + 1])


SPECIAL_ENTRIES = np.array([0.0, -0.0, np.inf, -np.inf, np.nan])


def _rows_with_kinks(pot, n, rng, special_frac=0.1):
    """Rows that straddle every range bound and order tie, with a share
    of entries replaced by 0.0, -0.0, +-inf or NaN."""
    xs = 3.0 * rng.normal((n, pot.dim))
    for term in pot.terms:
        pick = rng.random(n) < 0.2
        zeros = rng.random(n) < 0.1  # -0.0 - 0.0 and 0.0 - 0.0 hinge arguments
        if isinstance(term, RangeTerm):
            edge = np.where(rng.random(n) < 0.5, term.lower, term.upper)
            xs[pick, pot.idx(term.feature)] = edge[pick]
            xs[zeros, pot.idx(term.feature)] = np.where(rng.random(n) < 0.5, -0.0, 0.0)[zeros]
        elif isinstance(term, OrderTerm):
            xs[pick, pot.idx(term.smaller)] = xs[pick, pot.idx(term.larger)]
            xs[zeros, pot.idx(term.smaller)] = -0.0
            xs[zeros, pot.idx(term.larger)] = np.where(rng.random(n) < 0.5, -0.0, 0.0)[zeros]
    special = rng.random((n, pot.dim)) < special_frac
    which = np.floor(rng.random((n, pot.dim)) * len(SPECIAL_ENTRIES)).astype(int)
    xs[special] = SPECIAL_ENTRIES[which[special]]
    return xs


def kink_schema():
    """Every case the kernel must mirror: a repeated feature in a linear
    sum, a square (left == right), order terms, and range terms with
    signed-zero bounds."""
    names = ["a", "b", "c", "d"]
    terms = [
        LinearSumTerm(features=("a", "b", "a"), weights=(1.0, -2.0, 0.5), offset=0.25),
        ProductTerm(result="c", left="b", right="b"),
        ProductTerm(result="a", left="c", right="d"),
        OrderTerm(smaller="a", larger="d"),
        RangeTerm(feature="d", lower=-1.0, upper=2.0),
        RangeTerm(feature="b", lower=-0.0, upper=1.0),
        RangeTerm(feature="c", lower=-0.5, upper=0.0),
        LinearSumTerm(features=("d",), weights=(-0.0,), offset=-0.0),
    ]
    return RelationalConstraintSet(names, [[-5.0, 5.0]] * 4, terms)


_WEIGHTS = st.sampled_from([1.0, -1.0, 2.0, -0.5, 0.0, -0.0, 3.25])


@st.composite
def relational_schemas(draw):
    dim = draw(st.integers(1, 5))
    names = [f"f{i}" for i in range(dim)]
    feature = st.sampled_from(names)
    terms = []
    for _ in range(draw(st.integers(0, 7))):
        kind = draw(st.sampled_from(["linear", "product", "order", "range"]))
        if kind == "linear":
            feats = tuple(draw(st.lists(feature, min_size=1, max_size=4)))
            weights = tuple(draw(_WEIGHTS) for _ in feats)
            terms.append(LinearSumTerm(feats, weights, draw(_WEIGHTS)))
        elif kind == "product":
            terms.append(ProductTerm(draw(feature), draw(feature), draw(feature)))
        elif kind == "order":
            terms.append(OrderTerm(draw(feature), draw(feature)))
        else:
            lower = draw(st.sampled_from([-3.0, -0.5, -0.0, 0.0, 1.0]))
            terms.append(RangeTerm(draw(feature), lower, lower + draw(st.sampled_from([0.5, 3.0]))))
    return RelationalConstraintSet(names, [[-1.0, 1.0]] * dim, terms)


class TestRelationalKernel:
    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_kink_schema_matches_reference(self, n):
        pot = kink_schema()
        assert_relational_matches_reference(pot, _rows_with_kinks(pot, n, Rng(n)))

    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_bundled_schema_matches_reference(self, n):
        pot = load_schema()
        assert_relational_matches_reference(pot, _rows_with_kinks(pot, n, Rng(n + 1), 0.02))

    @settings(max_examples=60)
    @given(pot=relational_schemas(), n=st.sampled_from([1, 20, 1000]), seed=st.integers(0, 2**16))
    def test_random_schema_matches_reference(self, pot, n, seed):
        assert_relational_matches_reference(pot, _rows_with_kinks(pot, n, Rng(seed)))

    def test_value_only_callers_skip_the_gradient(self, monkeypatch):
        # Built first: locating the surface minimum takes gradients.
        mb = muller_brown_potential(margin=2.0)
        schema = load_schema()
        case = load_case("ieee14")
        grid = kirchhoff_potential(case)
        states = pack_state(case, flat_start(case)) + 0.05 * Rng(6).normal((20, case.n_unknowns))

        # A gradient request anywhere in these calls raises.
        def no_gradient(*args, **kwargs):
            raise AssertionError("a value-only caller computed a gradient")

        terms_at = RelationalConstraintSet._terms_at
        evaluate = MullerBrown.evaluate

        def terms_value_only(self, cols, relu, indicator, grad):
            if grad:
                no_gradient()
            return terms_at(self, cols, relu, indicator, grad)

        def evaluate_value_only(self, x, y, exp=potentials._exp_point, grad=True):
            if grad:
                no_gradient()
            return evaluate(self, x, y, exp, grad)

        monkeypatch.setattr(RelationalConstraintSet, "_terms_at", terms_value_only)
        monkeypatch.setattr(MullerBrown, "evaluate", evaluate_value_only)
        for cls in (RelationalConstraintSet, MullerBrownPotential):
            monkeypatch.setattr(cls, "grad_batch", no_gradient)
            monkeypatch.setattr(cls, "value_and_grad_batch", no_gradient)
        monkeypatch.setattr(MullerBrownPotential, "grad", no_gradient)
        monkeypatch.setattr(MullerBrownPotential, "value_and_grad", no_gradient)
        # The Kirchhoff gradient is the Newton Jacobian contracted with F.
        monkeypatch.setattr(solver, "mismatch_jacobian_batch", no_gradient)

        pts = sample_manifold_dataset(mb, WORKING_BOX, 200, kT=10.0, seed=3)
        assert mb.value_batch(pts).shape == (200,)
        rows = sample_feasible(schema, 50, Rng(4))
        assert float(schema.value_batch(rows).max()) == 0.0
        assert schema.value_batch(rows[:1]).shape == (1,)
        assert schema.residuals_batch(rows[:1]).shape == (1, len(schema.terms))
        s = sample_manifold_dataset(schema, schema.bounds, 100, kT=10.0, seed=5)
        assert s.shape == (100, schema.dim)
        assert grid.value_batch(states).shape == (20,)
        assert grid.value(states[0]) > 0.0
        for base, xs in ((mb, pts), (schema, rows), (grid, states)):
            view = NormalizedPotential(base, xs[0], np.full(base.dim, 0.5))
            assert view.value_batch(xs).shape == (xs.shape[0],)
            assert view.value(xs[1]) >= 0.0


class TestFusedMullerBrown:
    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_matches_separate_evaluations(self, n):
        pot = muller_brown_potential(margin=2.0)
        lo, hi = WORKING_BOX[:, 0], WORKING_BOX[:, 1]
        xs = lo + (hi - lo) * Rng(n).random((n, 2))
        xs[: n // 4] = np.array([-0.558, 1.442]) + 0.02 * Rng(n + 1).normal((n // 4, 2))
        # The batch formula, from one array evaluation of the surface.
        v, gx, gy = pot.surface.evaluate(xs[:, 0], xs[:, 1], potentials._exp_batch)
        phi_ref = np.maximum(v - pot.zero_level, 0.0)
        g_ref = np.stack([gx, gy], axis=-1) * (v - pot.zero_level > 0.0)[:, None]
        _same_bytes(pot.value_batch(xs), phi_ref)
        _same_bytes(pot.grad_batch(xs), g_ref)
        phi, g = pot.value_and_grad_batch(xs)
        _same_bytes(phi, phi_ref)
        _same_bytes(g, g_ref)
        # One row runs the float kernel, as the point entry points do.
        # Its flat-pocket gradient is +0.0 where the batch's masked one
        # may be -0.0, so against the batch it is equal, not the same bytes.
        for i in range(min(n, 20)):
            phi, g = pot.value_and_grad_batch(xs[i : i + 1])
            _same_bytes(phi, np.array([pot.value(xs[i])]))
            _same_bytes(g, pot.grad(xs[i])[None, :])
            _same_bytes(phi, phi_ref[i : i + 1])
            assert np.array_equal(g, g_ref[i : i + 1])


# ---------------------------------------------------------------------------
# Two kernels per potential: the point entry points and grad_batch derived
# from value_batch and value_and_grad_batch, against the formulas that the
# removed per-class copies computed, byte for byte.
# ---------------------------------------------------------------------------

def _normalized_cases():
    """(base potential, mean, scale, rows in normalized coordinates)."""
    mb = muller_brown_potential(margin=2.0)
    zs = Rng(31).normal((20, 2))
    zs[:5] = 0.01 * zs[:5] + (global_minimum().point - [-0.3, 0.8]) / [0.6, 0.5]  # in the pocket
    schema = load_schema()
    case = load_case("ieee14")
    grid = kirchhoff_potential(case)
    bounds = schema.bounds
    return [
        (mb, np.array([-0.3, 0.8]), np.array([0.6, 0.5]), zs),
        (schema, bounds.mean(axis=1), 0.3 * (bounds[:, 1] - bounds[:, 0]),
         Rng(32).normal((20, schema.dim))),
        (grid, pack_state(case, flat_start(case)), np.full(grid.dim, 0.05),
         Rng(33).normal((20, grid.dim))),
    ]


class TestTwoKernels:
    def test_normalized_matches_the_removed_formulas(self):
        for base, mean, scale, zs in _normalized_cases():
            view = NormalizedPotential(base, mean, scale)
            for z in zs:
                _same_bytes(np.array(view.value(z)), np.array(base.value(mean + scale * z)))
                _same_bytes(view.grad(z), scale * base.grad(mean + scale * z))
            want = scale[None, :] * base.grad_batch(mean[None, :] + scale[None, :] * zs)
            _same_bytes(view.grad_batch(zs), want)
            for z in zs:
                got = view.grad_batch(z[None, :])
                want = scale[None, :] * base.grad_batch(mean[None, :] + scale[None, :] * z[None, :])
                if np.any(got) or np.any(want):
                    _same_bytes(got, want)
                else:
                    # Flat Müller–Brown pocket: one derived row takes the
                    # float kernel, +0.0 where the array path may give -0.0.
                    assert np.array_equal(got, want) and not np.signbit(got).any()

    def test_relational_value_matches_the_removed_formula(self):
        schema = load_schema()
        for x in Rng(34).uniform(schema.bounds[:, 0], schema.bounds[:, 1], (20, schema.dim)):
            want = float(np.sum(schema.residuals_batch(x[None, :])[0] ** 2))
            _same_bytes(np.array(schema.value(x)), np.array(want))

    def test_zero_matches_the_removed_formulas(self):
        pot = ZeroPotential(3)
        xs = Rng(35).normal((4, 3))
        for x in xs:
            assert type(pot.value(x)) is float and pot.value(x) == 0.0
            _same_bytes(pot.grad(x), np.zeros(3))
        _same_bytes(pot.grad_batch(xs), np.stack([np.zeros(3) for _ in xs]))
        _same_bytes(pot.grad_batch(np.zeros((0, 3))), np.zeros((0, 3)))

    def test_callable_matches_the_removed_formulas(self):
        def value_fn(x):
            return np.float64(x @ x) + np.sin(x[0])

        def grad_fn(x):
            return list(2.0 * x + [np.cos(x[0]), 0.0])

        pot = CallablePotential(2, value_fn, grad_fn)
        xs = Rng(36).normal((6, 2))
        for x in xs:
            _same_bytes(np.array(pot.value(x)), np.array(float(value_fn(x))))
            _same_bytes(pot.grad(x), np.asarray(grad_fn(x), dtype=float))
        rows = [np.asarray(grad_fn(x), dtype=float) for x in xs]
        _same_bytes(pot.grad_batch(xs), np.stack(rows))
        _same_bytes(pot.value_batch(xs), np.array([float(value_fn(x)) for x in xs]))
        _same_bytes(pot.grad_batch(np.zeros((0, 2))), np.zeros((0, 2)))

    def test_only_muller_brown_defines_point_entry_points(self):
        def subclasses(cls):
            for sub in cls.__subclasses__():
                yield sub
                yield from subclasses(sub)

        own = [
            sub for sub in subclasses(ConstraintPotential) if sub.__module__.startswith("diffrefine")
        ]
        assert {"KirchhoffPotential", "RelationalConstraintSet", "NormalizedPotential"} <= {
            sub.__name__ for sub in own
        }
        # MullerBrownPotential's point methods run on Python floats.
        assert [sub.__name__ for sub in own if {"value", "grad"} & vars(sub).keys()] == [
            "MullerBrownPotential"
        ]


def _surface_hessian_before(mb, point, h=1e-5):
    cols = []
    for i in range(2):
        e = np.zeros(2)
        e[i] = h
        cols.append((mb.surface_grad(point + e) - mb.surface_grad(point - e)) / (2.0 * h))
    hess = np.stack(cols, axis=1)
    return 0.5 * (hess + hess.T)


def _potential_hessian_before(pot, x):
    jac = finite_diff_jacobian(pot.grad, x, h=1e-4)
    return 0.5 * (jac + jac.T)


def test_fd_hessian_matches_both_replaced_copies():
    mb = MullerBrown()
    pot = muller_brown_potential(margin=2.0)
    lo, hi = WORKING_BOX[:, 0], WORKING_BOX[:, 1]
    points = lo + (hi - lo) * Rng(37).random((40, 2))
    points = np.concatenate([points, [s.point for s in locate_stationary_points()]])
    for p in points:
        _same_bytes(fd_hessian(mb.surface_grad, p, 1e-5), _surface_hessian_before(mb, p))
        _same_bytes(fd_hessian(pot.grad, p, 1e-4), _potential_hessian_before(pot, p))
