"""The one-row guided step and the PGD step against the per-step code
they replaced, kept here as the reference, byte for byte; and the
per-model schedule cache against the saved model and the process pool;
and the per-row corruption of training against the formula it replaced.

The reference builds the schedule from the model on every call, takes
math.sqrt of alpha_bar at every step, clips with np.clip, computes the
sigmoid's numerator with np.where, assembles fresh net input rows at
every call, and evaluates the potential through the array path of
NormalizedPotential.
"""

import dataclasses
import math
import pickle
import statistics

import numpy as np
import pytest

from diffrefine import adversarial, network
from diffrefine.adversarial import AttackConfig, cyclic_attack, pgd_attack
from diffrefine.baselines import (
    POWER_REFINE,
    kirchhoff_potentials,
    refine_power_batch,
    train_power_prior,
)
from diffrefine.diffusion import NoiseSchedule, forward_noise, make_schedule, model_schedule
from diffrefine.guidance import GRAD_FLOOR, RefineConfig, refine, refine_batch, step_subsequence
from diffrefine.model_store import save_model
from diffrefine.network import FeedForwardNet
from diffrefine.errors import ConfigError, DimensionMismatchError, NonFiniteGradientError
from diffrefine.numerics import Rng, as_vector, require_finite
from diffrefine.potentials import RelationalConstraintSet, muller_brown_potential
from diffrefine.powerflow import (
    KirchhoffPotential,
    build_ybus,
    generate_dataset,
    injections_from_features,
    load_case,
)
from diffrefine.training import TrainConfig


def _where_sigmoid(z):
    e = np.exp(-np.abs(z))
    return np.where(z >= 0, 1.0, e) / (1.0 + e)


def _base_value_and_grad(pot, ys):
    # The one-row kernels as they ran before: the relational float path
    # summed by np.add.reduce over a one-row matrix; the others unchanged.
    if isinstance(pot, RelationalConstraintSet):
        r, g = pot._evaluate(ys, grad=True)
        return np.add.reduce(r * r, axis=1), g
    return pot.value_and_grad_batch(ys)


def _ref_descent(pot, mean, scale, x):
    phi, g = _base_value_and_grad(pot, mean + scale * np.asarray(x, dtype=float)[None, :])
    g = (scale * g)[0]
    if not np.isfinite(g).all():
        raise AssertionError("non-finite gradient")
    norm = math.sqrt(g.dot(g))
    phi = float(phi[0])
    if norm <= GRAD_FLOOR:
        return None, norm, phi
    return g / -norm, norm, phi


def _ref_guided_step(x_t, t, eps_hat, pot, mean, scale, schedule, lam, t_prev, clip):
    x_t = as_vector(x_t)
    ab = schedule.alpha_bar(t)
    x0_hat = (x_t - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)
    ab_p = schedule.alpha_bar(t_prev)
    x_prev = math.sqrt(ab_p) * x0_hat + math.sqrt(max(1.0 - ab_p, 0.0)) * eps_hat
    require_finite(x_prev)
    r = x0_hat - x_prev
    dist = math.sqrt(r.dot(r))
    delta, grad_norm, phi = _ref_descent(pot, mean, scale, x_prev)
    rec = dict(gamma=0.0, cos_angle=0.0, dist=dist, phi=phi, grad_norm=grad_norm,
               clipped=False, x_prev=x_prev, x0_hat=x0_hat, delta=delta)
    if delta is None:
        return x_prev, rec
    r_delta = float(r.dot(delta))
    gamma = (r_delta + lam * phi * grad_norm) / (1.0 + lam * grad_norm * grad_norm)
    if clip is not None and abs(gamma) > clip:
        gamma = float(np.sign(gamma)) * clip
        rec["clipped"] = True
    rec.update(gamma=gamma, cos_angle=r_delta / dist if dist > 0.0 else 0.0)
    return require_finite(x_prev + gamma * delta), rec


def _ref_refine(x_init, pot, model, cfg, condition=None):
    x_init = as_vector(x_init)
    schedule = NoiseSchedule.from_betas(np.asarray(model.extra["schedule_betas"], dtype=float))
    levels = step_subsequence(cfg.start_step or schedule.T, cfg.steps)
    z = np.asarray(model.y_norm.encode(x_init), dtype=float)
    cond = None if condition is None else np.asarray(model.x_norm.encode(condition), dtype=float)
    mean, scale = model.y_norm.mean, model.y_norm.std
    records = []
    dists = []
    for i, t in enumerate(levels):
        t_prev = levels[i + 1] if i + 1 < len(levels) else 0
        eps_hat = model.net.forward(z, t=t, cond=cond)
        clip = 10.0 * statistics.median(dists) if len(dists) >= 3 else None
        z, rec = _ref_guided_step(z, t, eps_hat, pot, mean, scale, schedule, cfg.lam, t_prev, clip)
        dists.append(rec["dist"])
        records.append(rec)
    return np.asarray(model.y_norm.decode(z), dtype=float), records


def _bits(value):
    if value is None or isinstance(value, bool):
        return value
    return np.asarray(value, dtype=float).tobytes()


def assert_refine_matches_reference(x, pot, model, cfg, reference_patch, condition=None):
    out = refine(x, pot, model, cfg, condition=condition)
    with pytest.MonkeyPatch.context() as mp:
        reference_patch(mp)
        want_x, want_steps = _ref_refine(x, pot, model, cfg, condition)
    assert out.x.tobytes() == want_x.tobytes()
    assert len(out.trajectory.steps) == len(want_steps)
    for got, want in zip(out.trajectory.steps, want_steps):
        for name, value in want.items():
            assert _bits(getattr(got, name)) == _bits(value), name


@pytest.fixture
def reference_patch():
    """Puts the net back as it ran before on a MonkeyPatch: the np.where
    sigmoid, and input rows that are a fresh copy at every call."""

    def apply(mp):
        assemble = FeedForwardNet._assemble_input

        def copying(self, x, t, cond, keep=False):
            return np.concatenate([assemble(self, x, t, cond)], axis=1)

        mp.setattr(network, "_sigmoid", _where_sigmoid)
        mp.setattr(adversarial, "_sigmoid", _where_sigmoid)
        mp.setattr(FeedForwardNet, "_assemble_input", copying)

    return apply


class TestRefineMatchesReference:
    def test_tabular_rows(self, tabular_task, reference_patch):
        pot, ds, _, prior = tabular_task
        cfg = RefineConfig(steps=20, start_step=20, lam=1.0)
        for x in ds.test.features[:4]:
            assert_refine_matches_reference(x, pot, prior, cfg, reference_patch)

    def test_toy_starts(self, toy_noise_model, pocket_model, reference_patch):
        cfg = RefineConfig(steps=12, start_step=30, lam=0.1)
        for start in ([0.3, 0.25], [-0.8, 0.6], [0.55, 0.05]):
            assert_refine_matches_reference(
                np.array(start), muller_brown_potential(), toy_noise_model, cfg, reference_patch
            )
        # Flat pocket: floor-skipped steps record no direction.
        pot, data, model = pocket_model
        cfg = RefineConfig(steps=10, start_step=10, lam=1.0)
        for start in data[:3]:
            assert_refine_matches_reference(start, pot, model, cfg, reference_patch)

    def test_ieee14_rows_with_condition(self, acpf_task, reference_patch):
        case, ds, base, _, prior = acpf_task
        ybus = build_ybus(case)
        preds = base.predict(ds.test.features[:3])
        for pred, feat in zip(preds, ds.test.features[:3]):
            pot = KirchhoffPotential(case, ybus, injections_from_features(case, feat))
            assert_refine_matches_reference(
                pred, pot, prior, POWER_REFINE, reference_patch, condition=feat
            )


def assert_block_matches_reference(xs, pots, model, cfg, reference_patch, conditions=None):
    """refine_batch on the rows of xs against the reference, one row at a
    time, byte for byte; returns the block's trajectories."""
    got_x, trajectories = refine_batch(xs, pots, model, cfg, condition=conditions)
    assert got_x.shape == np.shape(xs) and len(trajectories) == len(xs)
    with pytest.MonkeyPatch.context() as mp:
        reference_patch(mp)
        want = [
            _ref_refine(x, pot, model, cfg, None if conditions is None else conditions[k])
            for k, (x, pot) in enumerate(zip(xs, pots))
        ]
    for k, (want_x, want_steps) in enumerate(want):
        assert got_x[k].tobytes() == want_x.tobytes(), k
        assert len(trajectories[k].steps) == len(want_steps)
        for got, step in zip(trajectories[k].steps, want_steps):
            for name, value in step.items():
                assert _bits(getattr(got, name)) == _bits(value), (k, name)
    return trajectories


def _steps(trajectories, flag):
    return sum(flag(s) for trajectory in trajectories for s in trajectory.steps)


def _record_bytes(trajectories):
    fields = ("t", "t_prev", "gamma", "cos_angle", "dist", "phi", "grad_norm", "clipped",
              "x_prev", "x0_hat", "delta")
    return [[tuple(_bits(getattr(s, f)) for f in fields) for s in tr.steps] for tr in trajectories]


@pytest.fixture(scope="module")
def ieee30_task():
    """A small IEEE 30 scenario set, its conditional prior, and starts a
    few hundredths off the solved states."""
    case = load_case("ieee30")
    ds = generate_dataset(case, 150, 0, 20, seed=4)
    prior = train_power_prior(
        case, ds, cfg=TrainConfig(epochs=20, batch_size=64, lr=1e-3, seed=77, loss="eps")
    )
    starts = ds.test.targets + 0.01 * Rng(9).normal(ds.test.targets.shape)
    return case, ds, prior, starts


class TestRefineBatchMatchesReference:
    """A block refined in lockstep gives every row the bytes of the
    per-row reference, whatever the block size and split."""

    def test_ieee14_rows(self, acpf_task, reference_patch):
        case, ds, base, _, prior = acpf_task
        feats = ds.test.features[:6]
        pots = kirchhoff_potentials(case, build_ybus(case), feats)
        assert_block_matches_reference(
            base.predict(feats), pots, prior, POWER_REFINE, reference_patch, conditions=feats
        )

    def test_ieee30_rows_with_binding_clip(self, ieee30_task, reference_patch):
        # The short-trained prior overshoots, so the adaptive clip binds
        # in some rows and not in others.
        case, ds, prior, starts = ieee30_task
        feats = ds.test.features[:5]
        pots = kirchhoff_potentials(case, build_ybus(case), feats)
        trajectories = assert_block_matches_reference(
            starts[:5], pots, prior, POWER_REFINE, reference_patch, conditions=feats
        )
        clipped = [_steps([tr], lambda s: s.clipped) for tr in trajectories]
        assert max(clipped) > 0 and min(clipped) < max(clipped)

    @pytest.mark.parametrize("lam", [1.0, 0.0])
    def test_tabular_rows(self, tabular_task, reference_patch, lam):
        pot, ds, _, prior = tabular_task
        cfg = RefineConfig(steps=20, start_step=20, lam=lam)
        xs = ds.test.features[:5]
        assert_block_matches_reference(xs, [pot] * len(xs), prior, cfg, reference_patch)

    def test_toy_starts_and_flat_pocket(self, toy_noise_model, pocket_model, reference_patch):
        starts = np.array([[0.3, 0.25], [-0.8, 0.6], [0.55, 0.05]])
        pot = muller_brown_potential()
        cfg = RefineConfig(steps=12, start_step=30, lam=0.1)
        assert_block_matches_reference(starts, [pot] * 3, toy_noise_model, cfg, reference_patch)
        # Rows inside the flat pocket skip their steps below the floor,
        # next to rows that do not.
        pot, data, model = pocket_model
        cfg = RefineConfig(steps=10, start_step=10, lam=1.0)
        block = np.vstack([data[:3], [[0.3, 0.25]]])
        trajectories = assert_block_matches_reference(
            block, [pot] * 4, model, cfg, reference_patch
        )
        assert _steps(trajectories[:3], lambda s: s.delta is None) > 0
        assert _steps(trajectories[3:], lambda s: s.delta is not None) > 0

    @pytest.mark.parametrize("split", [(7,), (1, 6), (3, 4), (1,) * 7])
    def test_any_split_of_seven_rows(self, acpf_task, split):
        case, ds, base, _, prior = acpf_task
        feats = ds.test.features[10:17]
        preds = base.predict(feats)
        pots = kirchhoff_potentials(case, build_ybus(case), feats)
        whole_x, whole = refine_batch(preds, pots, prior, POWER_REFINE, condition=feats)
        parts_x, parts = [], []
        edges = np.cumsum((0,) + split)
        for lo, hi in zip(edges, edges[1:]):
            x, trajectories = refine_batch(
                preds[lo:hi], pots[lo:hi], prior, POWER_REFINE, condition=feats[lo:hi]
            )
            parts_x.append(x)
            parts += trajectories
        assert np.vstack(parts_x).tobytes() == whole_x.tobytes()
        assert _record_bytes(parts) == _record_bytes(whole)
        for k in range(7):
            one = refine(preds[k], pots[k], prior, POWER_REFINE, condition=feats[k])
            assert one.x.tobytes() == whole_x[k].tobytes()
            assert one.trajectory.to_lines() == whole[k].to_lines()


class TestRefineBatchErrors:
    def test_one_non_finite_gradient_raises_for_the_block(self, acpf_task):
        # A load some 250 orders of magnitude too large in row 3 carries
        # its prediction to where the calculated power overflows.
        case, ds, base, _, prior = acpf_task
        feats = ds.test.features[:6].copy()
        feats[3, 0] = 1e250
        preds = base.predict(feats)
        pots = kirchhoff_potentials(case, build_ybus(case), feats)
        with np.errstate(all="ignore"):
            with pytest.raises(NonFiniteGradientError):
                refine(preds[3], pots[3], prior, POWER_REFINE, condition=feats[3])
            with pytest.raises(NonFiniteGradientError):
                refine_batch(preds, pots, prior, POWER_REFINE, condition=feats)
            out, _ = refine_batch(
                np.delete(preds, 3, axis=0), pots[:3] + pots[4:], prior, POWER_REFINE,
                condition=np.delete(feats, 3, axis=0),
            )
        assert np.isfinite(out).all()

    def test_rejects_a_potential_count_that_is_not_the_row_count(self, tabular_task):
        pot, ds, _, prior = tabular_task
        with pytest.raises(DimensionMismatchError):
            refine_batch(ds.test.features[:3], [pot] * 2, prior, RefineConfig(steps=2))


class _SchemaWithoutPoints(RelationalConstraintSet):
    def value_and_grad(self, x):
        raise AssertionError("the guided step read a point kernel")


def test_guided_step_reads_only_the_batch_kernel(tabular_task):
    # A one-row batch runs the schema's float path inside
    # value_and_grad_batch; no point entry point stands beside it.
    pot, ds, _, prior = tabular_task
    pointless = _SchemaWithoutPoints.from_config(pot.to_config())
    cfg = RefineConfig(steps=20, start_step=20, lam=1.0)
    xs = ds.test.features[:4]
    want_x, want = refine_batch(xs, [pot] * 4, prior, cfg)
    got_x, got = refine_batch(xs, [pointless] * 4, prior, cfg)
    assert got_x.tobytes() == want_x.tobytes()
    assert _record_bytes(got) == _record_bytes(want)
    one = refine(xs[0], pointless, prior, cfg)
    assert one.x.tobytes() == want_x[0].tobytes()
    assert _record_bytes([one.trajectory]) == _record_bytes(want[:1])

def _ref_project(z, z0, eps, lo, hi):
    z = np.clip(z, z0 - eps, z0 + eps)
    return np.clip(z, lo[None, :], hi[None, :])


def _ref_signed_steps(model, z, z0, y, cfg, lo, hi, steps):
    for _ in range(steps):
        out, cache = model.net.forward_batch(z, want_cache=True)
        d_out = (_where_sigmoid(out[:, 0]) - y.astype(float))[:, None]
        g = model.net.backward_batch(cache, d_out)[1][:, : model.net.spec.x_dim]
        z = _ref_project(z + cfg.step * np.sign(g), z0, cfg.eps, lo, hi)
    return z


def _ref_frame(model, x0, pot):
    lo = model.x_norm.encode(pot.bounds[:, 0][None, :])[0]
    hi = model.x_norm.encode(pot.bounds[:, 1][None, :])[0]
    return model.x_norm.encode(np.atleast_2d(x0)), lo, hi


def _ref_pgd(model, x0, y, cfg, pot):
    z0, lo, hi = _ref_frame(model, x0, pot)
    return model.x_norm.decode(_ref_signed_steps(model, z0, z0, y, cfg, lo, hi, cfg.k * cfg.cycles))


def _ref_cyclic(model, x0, y, cfg, pot, prior):
    z0, lo, hi = _ref_frame(model, x0, pot)
    z = z0
    refine_cfg = RefineConfig(steps=cfg.tau, start_step=cfg.start_step or max(cfg.tau, 1), lam=cfg.lam)
    for _ in range(cfg.cycles):
        z = _ref_signed_steps(model, z, z0, y, cfg, lo, hi, cfg.k)
        x = model.x_norm.decode(z)
        refined = np.stack([_ref_refine(row, pot, prior, refine_cfg)[0] for row in x])
        z = _ref_project(model.x_norm.encode(refined), z0, cfg.eps, lo, hi)
    return model.x_norm.decode(z)


class TestAttacksMatchReference:
    def test_pgd(self, tabular_task, reference_patch):
        pot, ds, model, _ = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=3)
        x0, y = ds.test.features[:5], ds.test.labels[:5]
        got = pgd_attack(model, x0, y, cfg, pot)
        with pytest.MonkeyPatch.context() as mp:
            reference_patch(mp)
            want = _ref_pgd(model, x0, y, cfg, pot)
        assert got.tobytes() == want.tobytes()

    def test_cyclic(self, tabular_task, reference_patch):
        pot, ds, model, prior = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=5, cycles=2, tau=10)
        x0, y = ds.test.features[:3], ds.test.labels[:3]
        got, _ = cyclic_attack(model, x0, y, cfg, pot, prior)
        with pytest.MonkeyPatch.context() as mp:
            reference_patch(mp)
            want = _ref_cyclic(model, x0, y, cfg, pot, prior)
        assert got.tobytes() == want.tobytes()


class TestScheduleCache:
    def test_saved_model_unchanged_by_refine(self, tabular_task, tmp_path):
        pot, ds, _, prior = tabular_task
        model = dataclasses.replace(prior)
        assert model.schedule_cache is None
        save_model(tmp_path / "before.npz", model)
        refine(ds.test.features[0], pot, model, RefineConfig(steps=5, start_step=10, lam=1.0))
        assert model.schedule_cache is not None
        save_model(tmp_path / "after.npz", model)
        assert (tmp_path / "before.npz").read_bytes() == (tmp_path / "after.npz").read_bytes()

    def test_reused_until_the_betas_are_replaced(self, toy_noise_model):
        model = dataclasses.replace(toy_noise_model, extra=dict(toy_noise_model.extra))
        first = model_schedule(model)
        assert model_schedule(model) is first
        model.extra["schedule_betas"] = make_schedule(10).betas
        fresh = model_schedule(model)
        assert fresh is not first and fresh.T == 10
        assert np.array_equal(fresh.alpha_bars, make_schedule(10).alpha_bars)

    def test_used_model_pickles_for_workers(self, acpf_task):
        case, ds, base, _, prior = acpf_task
        model = dataclasses.replace(prior)
        preds = base.predict(ds.test.features[:4])
        one = refine_power_batch(case, model, preds, ds.test.features[:4])
        assert model.schedule_cache is not None
        copy = pickle.loads(pickle.dumps(model))
        assert copy.schedule_cache[1].sqrt_alpha_bars == model.schedule_cache[1].sqrt_alpha_bars
        two = refine_power_batch(case, model, preds, ds.test.features[:4], workers=2)
        assert one.tobytes() == two.tobytes()


class TestForwardNoisePerRow:
    """Training corrupts its batches through `forward_noise` with one
    step per row; the formula it spelled out before is the reference."""

    def test_matches_training_formula_and_scalar_steps(self):
        s = make_schedule(60, 1e-4, 0.03)
        rng = Rng(41)
        z = rng.normal((9, 3))
        eps = rng.normal((9, 3))
        ts = rng.integers(1, s.T + 1, size=9)
        ab = s.alpha_bars[ts]
        want = np.sqrt(ab)[:, None] * z + np.sqrt(1.0 - ab)[:, None] * eps
        got = forward_noise(z, ts, eps, s)
        assert got.tobytes() == want.tobytes()
        for i, t in enumerate(ts.tolist()):
            assert forward_noise(z[i], t, eps[i], s).tobytes() == want[i].tobytes()

    def test_rejects_bad_steps(self):
        s = make_schedule(10)
        z = np.zeros((3, 2))
        with pytest.raises(ConfigError, match=r"step 11 outside \[1, 10\]"):
            forward_noise(z, np.array([1, 11, 0]), z, s)
        with pytest.raises(ConfigError, match=r"step 0 outside \[1, 10\]"):
            forward_noise(z, 0, z, s)
        with pytest.raises(DimensionMismatchError):
            forward_noise(z, np.array([1, 2]), z, s)
        with pytest.raises(DimensionMismatchError):
            forward_noise(z[0], np.array([1, 2]), z[0], s)
