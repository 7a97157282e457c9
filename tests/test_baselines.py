"""Gradient descent, Newton iteration, and the trajectory comparison."""

import numpy as np
import pytest

from diffrefine.baselines import (
    power_track_report,
    refine_power_batch,
    scenario_penalty,
    train_power_estimator,
    train_power_pinn,
    gradient_descent,
    label_point,
    load_toy_demo,
    newton_raphson_scalar,
    stationary_anchors,
    trajectory_comparison,
)
from diffrefine.errors import ConfigError, SingularHessianError
from diffrefine.guidance import RefineConfig
from diffrefine.potentials import ConstraintPotential, muller_brown_potential


class Bowl(ConstraintPotential):
    """Quadratic bowl centered off the origin."""

    dim = 2
    center = np.array([1.5, -0.5])

    def value(self, x) -> float:
        d = np.asarray(x, dtype=float) - self.center
        return float(d @ d)

    def grad(self, x) -> np.ndarray:
        return 2.0 * (np.asarray(x, dtype=float) - self.center)


class Ramp(ConstraintPotential):
    """Constant-slope potential; its Hessian is identically zero."""

    dim = 2

    def value(self, x) -> float:
        return float(np.asarray(x, dtype=float) @ np.array([1.0, 2.0]))

    def grad(self, x) -> np.ndarray:
        return np.array([1.0, 2.0])


class Wall(ConstraintPotential):
    """Finite inside the unit disk, infinite outside."""

    dim = 2

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        r = float(x @ x)
        return r if r < 1.0 else float("inf")

    def grad(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        if float(x @ x) < 1.0:
            return 2.0 * x
        return np.full(2, np.nan)


@pytest.fixture(scope="module")
def anchors():
    return stationary_anchors()


class TestGradientDescent:
    def test_bowl_converges(self):
        res = gradient_descent(Bowl(), np.zeros(2), step=0.1, iters=500, tol=1e-7)
        assert res.converged
        assert np.abs(res.x - Bowl.center).max() < 1e-6

    def test_zero_step_is_identity(self):
        res = gradient_descent(Bowl(), np.array([3.0, 3.0]), step=0.0)
        assert np.array_equal(res.x, np.array([3.0, 3.0]))
        assert res.iterations == 0

    def test_negative_step_rejected(self):
        with pytest.raises(ConfigError):
            gradient_descent(Bowl(), np.zeros(2), step=-0.1)

    def test_descent_is_monotone(self):
        pot = muller_brown_potential(margin=2.0)
        res = gradient_descent(pot, np.array([0.3, 0.25]), step=1e-4, iters=5000)
        assert np.all(np.diff(res.phis) <= 0.0)

    def test_lands_in_starting_basin(self, anchors):
        pot = muller_brown_potential(margin=2.0)
        res = gradient_descent(pot, np.array([0.55, 0.05]), step=1e-4, iters=30000)
        local_1 = next(a for a in anchors if a.label == "local-1")
        assert np.linalg.norm(res.x - local_1.point) < 0.05
        assert label_point(res.x, anchors) == "local-1"

    def test_backtracking_tames_large_steps(self):
        res = gradient_descent(Bowl(), np.zeros(2), step=10.0, iters=200, tol=1e-7)
        assert res.backtracks > 0
        assert np.all(np.diff(res.phis) <= 0.0)

    def test_non_finite_region_aborts_with_partial_run(self):
        # walking uphill is impossible, and the wall is non-finite:
        # the run must stop and return what it has
        res = gradient_descent(Wall(), np.array([0.9, 0.0]), step=1.0, iters=50)
        assert not res.converged
        assert np.all(np.isfinite(res.points))
        assert res.points.shape[0] == res.iterations + 1

    def test_trajectory_lines_shape(self):
        res = gradient_descent(Bowl(), np.zeros(2), step=0.1, iters=20, tol=0.0)
        lines = res.to_lines()
        assert lines[0].split("\t") == ["t", "phi", "gamma", "cos_angle", "dist"]
        assert len(lines) == res.iterations + 1


class TestNewtonRaphsonScalar:
    def test_bowl_single_step(self):
        res = newton_raphson_scalar(Bowl(), np.array([4.0, 4.0]), tol=1e-10)
        assert res.converged
        assert res.iterations <= 2
        assert np.abs(res.x - Bowl.center).max() < 1e-6
        assert not res.saddle

    def test_stationary_start_returns_immediately(self):
        res = newton_raphson_scalar(Bowl(), Bowl.center.copy())
        assert res.converged
        assert res.iterations == 0

    def test_near_saddle_start_flags_saddle(self, anchors):
        pot = muller_brown_potential(margin=2.0)
        res = newton_raphson_scalar(pot, np.array([0.25, 0.3]), tol=1e-8)
        assert res.converged
        assert res.saddle
        assert label_point(res.x, anchors) == "saddle"

    def test_zero_hessian_raises(self):
        with pytest.raises(SingularHessianError):
            newton_raphson_scalar(Ramp(), np.array([1.0, 1.0]))


class TestBasinLabels:
    def test_each_anchor_labels_itself(self, anchors):
        for a in anchors:
            assert label_point(a.point, anchors) == a.label

    def test_radius_is_respected(self, anchors):
        g = next(a for a in anchors if a.label == "global")
        assert label_point(g.point + np.array([0.19, 0.0]), anchors) == "global"
        far = g.point + np.array([5.0, 5.0])
        assert label_point(far, anchors) == "diverged"

    def test_non_finite_is_diverged(self, anchors):
        assert label_point(np.array([np.nan, 0.0]), anchors) == "diverged"

    def test_anchor_set_contents(self, anchors):
        labels = [a.label for a in anchors]
        assert labels.count("global") == 1
        assert "local-1" in labels and "local-2" in labels
        assert labels.count("saddle") == 2


class TestTrajectoryComparison:
    def test_unknown_method_rejected(self, toy_setup):
        pot, model, cfg, starts = toy_setup
        with pytest.raises(ConfigError):
            trajectory_comparison(pot, starts["figure_like"], methods=("gd", "mystery"))

    def test_refine_requires_model(self):
        pot = muller_brown_potential(margin=2.0)
        with pytest.raises(ConfigError):
            trajectory_comparison(pot, np.zeros((1, 2)), methods=("refine",))

    def test_figure_behaviors_on_shipped_starts(self, toy_setup, anchors):
        # At least one shipped start must show all three personalities:
        # descent trapped in a side basin, Newton drawn to a saddle,
        # refinement landing at the deepest well.
        pot, model, cfg, starts = toy_setup
        table = trajectory_comparison(
            pot, starts["figure_like"], model=model, refine_cfg=cfg
        )
        by_start = {}
        for row in table.rows:
            by_start.setdefault(tuple(row.start), {})[row.method] = row
        g = next(a for a in anchors if a.label == "global")
        full_story = 0
        for rows in by_start.values():
            gd_trapped = rows["gd"].label.startswith("local")
            nr_saddled = rows["nr"].saddle and rows["nr"].label == "saddle"
            close = float(np.linalg.norm(rows["refine"].x_final - g.point)) < 0.1
            refined_home = rows["refine"].label == "global" and close
            if gd_trapped and nr_saddled and refined_home:
                full_story += 1
        assert full_story >= 1

    def test_far_field_start_fails_into_side_basin(self, toy_setup):
        pot, model, cfg, starts = toy_setup
        table = trajectory_comparison(
            pot, starts["far_field"], methods=("refine",), model=model, refine_cfg=cfg
        )
        assert any(r.label.startswith("local") for r in table.rows)

    def test_global_start_stays_global(self, toy_setup, anchors):
        from diffrefine.potentials import global_minimum

        pot, model, cfg, _ = toy_setup
        start = np.array(global_minimum().location)
        table = trajectory_comparison(pot, start[None, :], model=model, refine_cfg=cfg)
        for row in table.rows:
            assert row.label == "global"

    def test_table_and_trajectory_formats(self, toy_setup):
        pot, model, cfg, starts = toy_setup
        table = trajectory_comparison(
            pot, starts["figure_like"][:1], model=model, refine_cfg=cfg
        )
        lines = table.to_lines()
        assert lines[0].startswith("start_x\tstart_y\tmethod")
        assert len(lines) == 1 + len(table.rows)
        for row in table.rows:
            assert row.trajectory.to_lines()[0].split("\t") == [
                "t", "phi", "gamma", "cos_angle", "dist",
            ]

    def test_shipped_demo_recipe_shape(self):
        demo = load_toy_demo()
        assert {"starts", "refine", "model"} <= set(demo)
        assert len(demo["starts"]["figure_like"]) >= 1
        assert len(demo["starts"]["far_field"]) >= 1


class TestPowerEstimators:
    def test_base_improves_on_flat_start(self, acpf_task):
        from diffrefine.powerflow import evaluate, flat_start, pack_state

        case, ds, base, _, _ = acpf_task
        flat = np.tile(pack_state(case, flat_start(case)), (ds.test.features.shape[0], 1))
        rep_flat = evaluate(case, flat, ds.test.targets, ds.test.features, norm=base.y_norm)
        rep = evaluate(
            case, base.predict(ds.test.features), ds.test.targets, ds.test.features,
            norm=base.y_norm,
        )
        assert rep.mean_mapm < 0.25 * rep_flat.mean_mapm

    def test_pinn_lowers_peak_mismatch(self, acpf_task):
        from diffrefine.powerflow import evaluate

        case, ds, base, pinn, _ = acpf_task
        rep_base = evaluate(
            case, base.predict(ds.test.features), ds.test.targets, ds.test.features,
            norm=base.y_norm,
        )
        rep_pinn = evaluate(
            case, pinn.predict(ds.test.features), ds.test.targets, ds.test.features,
            norm=base.y_norm,
        )
        assert rep_pinn.mean_mapm < rep_base.mean_mapm
        assert pinn.kind == "pinn"

    def test_loss_kind_enforced(self, acpf_task):
        from diffrefine.training import TrainConfig

        case, ds, _, _, _ = acpf_task
        with pytest.raises(ConfigError):
            train_power_estimator(case, ds, cfg=TrainConfig(epochs=1, loss="pinn"))
        with pytest.raises(ConfigError):
            train_power_pinn(case, ds, cfg=TrainConfig(epochs=1, loss="mse"))

    def test_penalty_hook_gradient_conformance(self, acpf_task):
        from diffrefine.numerics import Rng, finite_diff_jacobian

        case, ds, base, _, _ = acpf_task
        hook = scenario_penalty(case, ds.train.features, base.y_norm)
        rng = Rng(40)
        ids = np.array([3, 17, 59])
        z = base.y_norm.encode(ds.train.targets[ids]) + 0.3 * rng.normal((3, case.n_unknowns))
        phi, grad = hook(z, ids)
        assert phi.shape == (3,) and grad.shape == z.shape
        for j, row_id in enumerate(ids):
            fd = finite_diff_jacobian(
                lambda v: np.array([hook(v[None, :], np.array([row_id]))[0][0]]),
                z[j],
                h=1e-6,
            )[0]
            denom = max(1.0, float(np.abs(fd).max()))
            assert float(np.abs(grad[j] - fd).max()) / denom < 1e-4


class TestPowerRefinement:
    def test_beats_base_on_most_samples(self, acpf_task):
        from diffrefine.powerflow import evaluate

        case, ds, base, _, prior = acpf_task
        pred = base.predict(ds.test.features)
        refined = refine_power_batch(case, prior, pred, ds.test.features)
        rep_base = evaluate(case, pred, ds.test.targets, ds.test.features, norm=base.y_norm)
        rep = evaluate(case, refined, ds.test.targets, ds.test.features, norm=base.y_norm)
        assert ds.test.features.shape[0] == 200
        assert float(np.mean(rep.mapm < rep_base.mapm)) >= 0.9

    def test_zero_steps_returns_predictions(self, acpf_task):
        case, ds, base, _, prior = acpf_task
        pred = base.predict(ds.test.features[:10])
        out = refine_power_batch(
            case, prior, pred, ds.test.features[:10], cfg=RefineConfig(steps=0)
        )
        assert np.array_equal(out, pred)

    def test_workers_match_reference(self, acpf_task):
        case, ds, base, _, prior = acpf_task
        pred = base.predict(ds.test.features[:30])
        one = refine_power_batch(case, prior, pred, ds.test.features[:30], workers=1)
        many = refine_power_batch(case, prior, pred, ds.test.features[:30], workers=3)
        assert np.array_equal(one, many)

    def test_bad_worker_count(self, acpf_task):
        case, ds, base, _, prior = acpf_task
        with pytest.raises(ConfigError):
            refine_power_batch(
                case, prior, base.predict(ds.test.features[:2]),
                ds.test.features[:2], workers=0,
            )

    def test_report_rows_and_lines(self, acpf_task):
        case, ds, base, pinn, prior = acpf_task
        rep = power_track_report(case, ds, base, prior, pinn=pinn, split="val")
        assert [r.method for r in rep.rows] == ["base", "pinn", "refined"]
        lines = rep.to_lines()
        assert lines[0] == "method\tmse\tmapm_mw\tmrpm_mvar"
        assert len(lines) == 4
        parsed = [float(tok) for tok in lines[1].split("\t")[1:]]
        assert all(np.isfinite(parsed))
        with pytest.raises(KeyError):
            rep.row("other")
