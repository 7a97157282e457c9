"""Surface landmarks, relational constraints, manifold samplers."""

import numpy as np
import pytest
import scipy.stats

from diffrefine.errors import (
    ConfigError,
    SamplerStalledError,
    ValidationError,
)
from diffrefine.numerics import Rng
from diffrefine.potentials import (
    WORKING_BOX,
    CallablePotential,
    LinearSumTerm,
    MullerBrown,
    OrderTerm,
    ProductTerm,
    RangeTerm,
    RelationalConstraintSet,
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
        assert pot.breakdown(x)[0] == pytest.approx(1.0)

    def test_product_violation(self):
        pot = small_constraint_set()
        x = np.array([2.5, 1.0, 4.5, 3.0])  # c - a*b = 2
        assert pot.breakdown(x)[1] == pytest.approx(4.0)

    def test_order_hinge_one_sided(self):
        pot = small_constraint_set()
        ok = np.array([2.5, 1.0, 2.5, 3.0])
        bad = ok.copy()
        bad[3] = 1.5  # d below a: order violated by 1
        assert pot.breakdown(ok)[2] == 0.0
        assert pot.breakdown(bad)[2] == pytest.approx(1.0)

    def test_range_both_sides(self):
        pot = small_constraint_set()
        low = np.array([0.25, -0.125, -0.03125, 0.5])
        assert pot.breakdown(low)[3] == pytest.approx(0.25)  # 0.5 below lower 1
        high = np.array([2.5, 1.0, 2.5, 6.0])
        assert pot.breakdown(high)[3] == pytest.approx(4.0)  # 6 above upper 4

    def test_breakdown_sums_to_value(self):
        pot = small_constraint_set()
        rng = Rng(3)
        for _ in range(20):
            x = rng.uniform(0.0, 5.0, 4)
            assert pot.value(x) == pytest.approx(float(pot.breakdown(x).sum()), rel=1e-12)

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
    def test_zero_potential_rejection_is_uniform(self):
        box = np.array([[0.0, 2.0], [-1.0, 1.0]])
        s = sample_manifold_dataset(ZeroPotential(2), box, 4000, sampler="rejection", kT=1.0, seed=4)
        assert s.shape == (4000, 2)
        for d in range(2):
            u = (s[:, d] - box[d, 0]) / (box[d, 1] - box[d, 0])
            assert scipy.stats.kstest(u, "uniform").pvalue > 1e-3

    def test_metropolis_concentrates_in_wells(self):
        pot = muller_brown_potential()
        s = sample_manifold_dataset(
            pot, WORKING_BOX, 5000, sampler="metropolis", kT=10.0, seed=8
        )
        frac = float(np.mean(pot.value_batch(s) < 60.0))
        assert frac > 0.8

    def test_same_seed_same_samples(self):
        pot = muller_brown_potential()
        a = sample_manifold_dataset(pot, WORKING_BOX, 500, sampler="metropolis", kT=10.0, seed=12)
        b = sample_manifold_dataset(pot, WORKING_BOX, 500, sampler="metropolis", kT=10.0, seed=12)
        assert np.array_equal(a, b)

    def test_samples_inside_box(self):
        pot = muller_brown_potential()
        s = sample_manifold_dataset(pot, WORKING_BOX, 1000, sampler="metropolis", kT=10.0, seed=2)
        assert np.all(s >= WORKING_BOX[:, 0][None, :])
        assert np.all(s <= WORKING_BOX[:, 1][None, :])

    def test_rejection_stall_raises(self):
        wall = CallablePotential(1, lambda x: 1e9, lambda x: np.zeros(1))
        with pytest.raises(SamplerStalledError):
            sample_manifold_dataset(
                wall, np.array([[0.0, 1.0]]), 10, sampler="rejection", kT=1.0, seed=1
            )

    def test_unknown_sampler_rejected(self):
        with pytest.raises(ConfigError):
            sample_manifold_dataset(ZeroPotential(1), np.array([[0.0, 1.0]]), 5, sampler="magic")
