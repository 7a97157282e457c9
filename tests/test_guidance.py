"""Correction length closed form, guided transitions, refinement loop."""

import dataclasses
import math
import time

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from diffrefine.diffusion import NoiseSchedule, ddim_step, make_schedule
from diffrefine.errors import ConfigError, NonFiniteError, NonFiniteGradientError
from diffrefine.guidance import (
    RefineConfig,
    _gamma_and_dot,
    descent_direction,
    guided_step,
    refine,
    step_subsequence,
)
from diffrefine.network import FeedForwardNet, TimeEmbedding
from diffrefine.numerics import Rng, as_vector
from diffrefine.potentials import muller_brown_potential

from support import CallablePotential, ZeroPotential


def compute_gamma(r, delta, phi, grad_norm, lam=0.0, clip=None):
    """The guided step's closed-form correction length (gamma, clipped),
    for vectors of one shape."""
    r = as_vector(r, "r")
    delta = as_vector(delta, "delta")
    if r.shape != delta.shape:
        raise ConfigError("r and delta must have matching shapes")
    return _gamma_and_dot(r, delta, phi, grad_norm, lam, clip)[:2]


def golden_section_gamma(r, delta, phi, grad_norm, lam, lo, hi, tol=1e-10):
    # Independent 1-d minimizer of the proximal objective
    #   ||gamma*delta - r||^2 + lam*(phi - gamma*grad_norm)^2
    # used as the oracle for the closed form.
    inv = (np.sqrt(5.0) - 1.0) / 2.0

    def obj(g):
        lin = phi - g * grad_norm
        d = g * delta - r
        return float(d @ d) + lam * lin * lin

    a, b = lo, hi
    c = b - inv * (b - a)
    d = a + inv * (b - a)
    fc, fd = obj(c), obj(d)
    while b - a > tol:
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv * (b - a)
            fc = obj(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv * (b - a)
            fd = obj(d)
    return 0.5 * (a + b)


class TestComputeGamma:
    def test_worked_example(self):
        # r=(1,0), delta=(1,0), lam=1, phi=2, grad_norm=4 -> 9/17.
        gamma, clipped = compute_gamma(
            np.array([1.0, 0.0]), np.array([1.0, 0.0]), phi=2.0, grad_norm=4.0, lam=1.0
        )
        assert gamma == pytest.approx(9.0 / 17.0, abs=1e-12)
        assert not clipped

    def test_unpenalized_reduces_to_projection(self):
        rng = Rng(40)
        for _ in range(50):
            dim = int(rng.integers(1, 6))
            r = rng.normal(dim)
            g = rng.normal(dim)
            g /= np.linalg.norm(g)
            gamma, _ = compute_gamma(r, g, phi=3.0, grad_norm=7.0, lam=0.0)
            assert gamma == pytest.approx(float(r @ g), abs=1e-14)

    def test_matches_line_search_oracle(self):
        rng = Rng(41)
        t0 = time.perf_counter()
        worst = 0.0
        for _ in range(1000):
            dim = int(rng.integers(1, 9))
            r = rng.normal(dim) * float(rng.uniform(0.1, 3.0))
            d = rng.normal(dim)
            d /= np.linalg.norm(d)
            phi = float(rng.uniform(0.0, 5.0))
            gn = float(rng.uniform(0.01, 10.0))
            lam = float(rng.uniform(0.0, 10.0))
            closed, _ = compute_gamma(r, d, phi, gn, lam)
            span = abs(closed) + 1.0
            oracle = golden_section_gamma(r, d, phi, gn, lam, closed - span, closed + span)
            worst = max(worst, abs(closed - oracle))
        assert worst < 1e-6
        assert time.perf_counter() - t0 < 1.0

    def test_clip_flag(self):
        gamma, clipped = compute_gamma(
            np.array([5.0]), np.array([1.0]), phi=0.0, grad_norm=1.0, lam=0.0, clip=0.5
        )
        assert gamma == 0.5 and clipped
        gamma, clipped = compute_gamma(
            np.array([-5.0]), np.array([1.0]), phi=0.0, grad_norm=1.0, lam=0.0, clip=0.5
        )
        assert gamma == -0.5 and clipped

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ConfigError):
            compute_gamma(np.zeros(2), np.zeros(3), 0.0, 1.0)

    def test_sign_follows_alignment(self):
        # With lam=0 the step length is d*cos(theta): positive exactly
        # when the residual points along the descent direction, and
        # larger in magnitude the better they agree.
        delta = np.array([1.0, 0.0])
        d = 1.7
        for theta in np.linspace(0.01, np.pi - 0.01, 41):
            r = d * np.array([np.cos(theta), np.sin(theta)])
            gamma, _ = compute_gamma(r, delta, phi=3.0, grad_norm=2.0, lam=0.0)
            assert (gamma > 0) == (np.cos(theta) > 0)
            assert gamma == pytest.approx(d * np.cos(theta), abs=1e-12)
        # |gamma| grows strictly with |cos(theta)| at fixed distance,
        # on either side of orthogonality
        descending = np.linspace(np.pi / 2 - 0.01, 0.01, 20)
        for flip in (1.0, -1.0):
            mags = []
            for theta in descending:
                r = d * np.array([flip * np.cos(theta), np.sin(theta)])
                gamma, _ = compute_gamma(r, delta, phi=3.0, grad_norm=2.0, lam=0.0)
                mags.append(abs(gamma))
            assert np.all(np.diff(mags) > 0)

    def test_lambda_influence_monotone_toward_asymptote(self):
        # Orthogonal residual: only the constraint term drives gamma,
        # which grows with lam and saturates at phi / grad_norm.
        r = np.array([0.0, 2.0])
        delta = np.array([1.0, 0.0])
        phi, grad_norm = 1.5, 3.0
        lams = np.logspace(-3, 3, 25)
        gammas = np.array(
            [compute_gamma(r, delta, phi, grad_norm, lam=l)[0] for l in lams]
        )
        assert np.all(np.diff(gammas) > 0)
        limit = phi / grad_norm
        assert np.all(gammas < limit)
        huge, _ = compute_gamma(r, delta, phi, grad_norm, lam=1e12)
        assert huge == pytest.approx(limit, rel=1e-9)


class TestDescentDirection:
    def test_unit_norm(self):
        pot = CallablePotential(2, lambda x: float(x @ x), lambda x: 2.0 * x)
        d, gn, phi = descent_direction(pot, np.array([3.0, 4.0]))
        assert phi == 25.0
        assert np.linalg.norm(d) == pytest.approx(1.0)
        assert gn == pytest.approx(10.0)
        assert np.allclose(d, np.array([-0.6, -0.8]))

    def test_floor_returns_none(self):
        pot = ZeroPotential(2)
        d, gn, phi = descent_direction(pot, np.array([1.0, 1.0]))
        assert d is None and gn == 0.0 and phi == 0.0

    def test_non_finite_raises(self):
        pot = CallablePotential(1, lambda x: 0.0, lambda x: np.array([np.nan]))
        with pytest.raises(NonFiniteGradientError):
            descent_direction(pot, np.array([1.0]))

    @pytest.mark.parametrize("pos", [0, 2, 4])
    def test_nan_entry_anywhere_raises(self, pos):
        def grad(x):
            g = 2.0 * x
            g[pos] = np.nan
            return g

        pot = CallablePotential(5, lambda x: float(x @ x), grad)
        with pytest.raises(NonFiniteGradientError):
            descent_direction(pot, np.arange(1.0, 6.0))


def two_level_schedule():
    # alpha_bars = [1, 0.5, 0.25]
    return NoiseSchedule.from_betas(np.array([0.5, 0.5]))


class TestGuidedStep:
    def test_one_dimensional_worked_example(self):
        # x_t=1 at the top level, zero predicted noise, quadratic
        # potential, no penalty weight: the correction moves the plain
        # transition output sqrt(2) the full distance back to x0_hat=2.
        s = two_level_schedule()
        pot = CallablePotential(1, lambda x: float(x[0] ** 2), lambda x: 2.0 * x)
        cfg = RefineConfig(steps=2, lam=0.0)
        x_next, rec = guided_step(np.array([1.0]), 2, np.array([0.0]), pot, s, cfg)
        assert rec.x0_hat[0] == pytest.approx(2.0, abs=1e-12)
        assert rec.x_prev[0] == pytest.approx(np.sqrt(2.0), abs=1e-12)
        assert rec.gamma == pytest.approx(np.sqrt(2.0) - 2.0, abs=1e-12)
        assert x_next[0] == pytest.approx(2.0, abs=1e-12)
        assert rec.cos_angle == pytest.approx(-1.0, abs=1e-12)

    def test_zero_potential_matches_plain_step(self):
        s = make_schedule(30)
        rng = Rng(5)
        x = rng.normal(3)
        e = rng.normal(3)
        cfg = RefineConfig(steps=30)
        guided, rec = guided_step(x, 12, e, ZeroPotential(3), s, cfg)
        plain = ddim_step(x, 12, e, s)
        assert np.array_equal(guided, plain)
        assert rec.gamma == 0.0

    def test_non_finite_step_raises(self):
        # A finite gradient and an infinite violation: gamma, and so the
        # corrected step, is infinite.
        s = make_schedule(30)
        pot = CallablePotential(2, lambda x: np.inf, lambda x: np.array([3.0, 4.0]))
        cfg = RefineConfig(steps=30, lam=1.0)
        with pytest.raises(NonFiniteError, match="guided step"):
            guided_step(np.array([0.1, 0.2]), 12, np.array([0.3, -0.1]), pot, s, cfg)

    def test_non_finite_transition_raises(self):
        s = make_schedule(30)
        cfg = RefineConfig(steps=30)
        with pytest.raises(NonFiniteError, match="ddim step"):
            guided_step(np.array([0.1, np.inf]), 12, np.zeros(2), ZeroPotential(2), s, cfg)

    def test_cos_angle_range(self):
        s = make_schedule(30)
        rng = Rng(6)
        pot = muller_brown_potential()
        cfg = RefineConfig(steps=30, lam=0.1)
        for _ in range(20):
            x = rng.normal(2)
            e = rng.normal(2)
            _, rec = guided_step(x, 15, e, pot, s, cfg)
            assert -1.0 - 1e-12 <= rec.cos_angle <= 1.0 + 1e-12


class TestStepSubsequence:
    def test_full_walk(self):
        assert step_subsequence(5, 5) == [5, 4, 3, 2, 1]

    def test_subsampled(self):
        levels = step_subsequence(100, 10)
        assert levels[0] == 100 and levels[-1] == 1
        assert all(a > b for a, b in zip(levels, levels[1:]))
        assert len(levels) == 10

    def test_zero_steps_empty(self):
        assert step_subsequence(10, 0) == []

    def test_too_many_steps_rejected(self):
        with pytest.raises(ConfigError):
            step_subsequence(4, 5)

    def test_short_ranges_stay_unique(self):
        for start in range(1, 30):
            for steps in range(1, start + 1):
                levels = step_subsequence(start, steps)
                assert len(set(levels)) == len(levels)
                assert levels[0] == start
                assert all(a > b for a, b in zip(levels, levels[1:]))
                if steps >= 2:
                    # A single transition jumps straight to level 0.
                    assert levels[-1] == 1


class TestRefineConfig:
    def test_round_trip(self):
        cfg = RefineConfig(steps=20, start_step=40, lam=0.5)
        assert RefineConfig.from_config(cfg.to_config()) == cfg

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            RefineConfig(steps=-1)
        with pytest.raises(ConfigError):
            RefineConfig(steps=5, start_step=0)
        with pytest.raises(ConfigError):
            RefineConfig(steps=5, lam=-0.5)
        with pytest.raises(ConfigError):
            RefineConfig.from_config({"steps": 5, "bogus": 1})


@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), max_size=24))
@example([1e200, -3.0])  # the square overflows: both read inf
@example([-0.0, 0.0])
def test_dot_norm_is_the_linalg_norm(values):
    # guidance takes norms as math.sqrt(v.dot(v)) in place of np.linalg.norm
    v = np.array(values, dtype=float)
    with np.errstate(over="ignore"):
        assert math.sqrt(v.dot(v)).hex() == float(np.linalg.norm(v)).hex()


class TestRefine:
    def test_refines_sharing_a_model_embed_each_level_once(self, toy_noise_model, monkeypatch):
        net = FeedForwardNet(toy_noise_model.net.spec, toy_noise_model.net.params.copy())
        model = dataclasses.replace(toy_noise_model, net=net)
        embedded = []
        batch = TimeEmbedding.batch

        def recording(self, ts):
            embedded.extend(np.asarray(ts, dtype=float).tolist())
            return batch(self, ts)

        monkeypatch.setattr(TimeEmbedding, "batch", recording)
        cfg = RefineConfig(steps=12, start_step=30, lam=0.1)
        for x in ([0.0, 1.0], [0.5, 0.5]):
            refine(np.array(x), muller_brown_potential(), model, cfg)
        assert sorted(embedded) == sorted(set(step_subsequence(30, 12)))

    def test_zero_steps_is_identity(self, toy_noise_model):
        x = np.array([0.3, 0.9])
        pot = muller_brown_potential()
        out = refine(x, pot, toy_noise_model, RefineConfig(steps=0))
        assert np.array_equal(out.x, x)
        assert out.trajectory.steps == []

    def test_records_one_entry_per_level(self, toy_noise_model):
        pot = muller_brown_potential()
        cfg = RefineConfig(steps=12, start_step=30, lam=0.1)
        out = refine(np.array([0.0, 1.0]), pot, toy_noise_model, cfg)
        assert len(out.trajectory.steps) == 12
        assert out.trajectory.steps[0].t == 30
        assert out.trajectory.steps[-1].t_prev == 0

    def test_trajectory_lines(self, toy_noise_model):
        pot = muller_brown_potential()
        cfg = RefineConfig(steps=5, start_step=20, lam=0.1)
        out = refine(np.array([0.5, 0.5]), pot, toy_noise_model, cfg)
        lines = out.trajectory.to_lines()
        assert lines[0].startswith("t\t")
        assert len(lines) == 6

    def test_on_manifold_starts_never_degrade(self, pocket_model):
        # Unpenalized refinement of feasible points near the global
        # minimum must not push them off the flat pocket.
        from diffrefine.potentials import global_minimum

        pot, data, model = pocket_model
        center = np.array(global_minimum().location)
        order = np.argsort(np.linalg.norm(data - center, axis=1))
        starts = data[order[:50]]
        before = pot.value_batch(starts)
        assert before.max() < 1e-10
        cfg = RefineConfig(steps=10, start_step=10, lam=0.0)
        for start, phi0 in zip(starts, before):
            refined = refine(start, pot, model, cfg).x
            assert pot.value(refined) <= phi0 + 1e-6

    def test_near_feasible_points_stay_feasible(self, pocket_model):
        # Points perturbed slightly off the feasible pocket come back
        # with no residual violation after refinement.
        pot, data, model = pocket_model
        rng = Rng(88)
        idx = rng.integers(0, data.shape[0], size=40)
        starts = data[idx] + 0.03 * rng.normal((40, 2))
        cfg = RefineConfig(steps=10, start_step=10, lam=1.0)
        before = np.array([pot.value(s) for s in starts])
        after = np.array([pot.value(refine(s, pot, model, cfg).x) for s in starts])
        assert float(np.mean(after)) <= float(np.mean(before)) + 1e-6
        assert float(np.median(after)) == 0.0

    def test_missing_condition_rejected(self, toy_noise_model):
        pot = muller_brown_potential()
        cfg = RefineConfig(steps=2, start_step=5)
        # Unconditional model: passing a condition is fine (ignored),
        # but a conditional net without one must fail loudly.  Build a
        # tiny conditional model artifact by hand.
        from diffrefine.model_store import TrainedModel
        from diffrefine.network import FeedForwardNet, NetSpec
        from diffrefine.training import Normalizer

        spec = NetSpec(x_dim=2, hidden=(4,), out_dim=2, time_dim=8, cond_dim=3)
        model = TrainedModel(
            kind="noise",
            net=FeedForwardNet.init(spec, Rng(0)),
            x_norm=Normalizer.identity(3),
            y_norm=Normalizer.identity(2),
            seed=0,
            extra={"schedule_betas": make_schedule(10).betas},
        )
        with pytest.raises(ConfigError):
            refine(np.zeros(2), pot, model, cfg)

    def test_same_seed_deterministic(self, toy_noise_model):
        pot = muller_brown_potential()
        cfg = RefineConfig(steps=8, start_step=40, lam=0.2)
        a = refine(np.array([0.2, 0.8]), pot, toy_noise_model, cfg).x
        b = refine(np.array([0.2, 0.8]), pot, toy_noise_model, cfg).x
        assert np.array_equal(a, b)
