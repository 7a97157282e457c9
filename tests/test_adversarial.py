"""Synthetic tabular task, classifier, and constrained attacks."""

import itertools
import json

import numpy as np
import pytest

from diffrefine.adversarial import (
    AttackConfig,
    classifier_accuracy,
    cyclic_attack,
    evaluate_attacks,
    generate_tabular_dataset,
    load_schema,
    load_tabular_dataset,
    make_ground_truth,
    penalty_pgd_attack,
    pgd_attack,
    report_table_lines,
    sample_feasible,
    save_tabular_dataset,
    train_tabular_classifier,
    write_attack_artifacts,
)
from diffrefine.errors import ConfigError, DataError
from diffrefine.model_store import TrainedModel
from diffrefine import network
from diffrefine.network import FeedForwardNet, NetSpec
from diffrefine.numerics import Rng
from diffrefine.potentials import RelationalConstraintSet
from diffrefine.training import Normalizer, TrainConfig


def refinement_non_increase_fraction(log) -> float:
    """Fraction of per-sample refinement blocks of a CycleLog that did
    not raise phi."""
    total = 0
    ok = 0
    for before, after in zip(log.phi_after_pgd, log.phi_after_refine):
        total += before.size
        ok += int(np.sum(after <= before + 1e-9))
    return 1.0 if total == 0 else ok / total


def read_attack_samples(path):
    """Parse samples.jsonl back into {attack: list of row dicts}."""
    grouped = {}
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            rec = json.loads(line)
            grouped.setdefault(rec["attack"], []).append(rec)
    return grouped


class TestSchema:
    def test_bundled_schema_shape(self):
        pot = load_schema()
        assert pot.dim == 12
        assert len(pot.terms) == 6
        kinds = [type(t).__name__ for t in pot.terms]
        assert kinds.count("LinearSumTerm") == 2
        assert kinds.count("ProductTerm") == 2
        assert kinds.count("OrderTerm") == 1
        assert kinds.count("RangeTerm") == 1

    def test_feasible_sampler_satisfies_everything(self):
        pot = load_schema()
        x = sample_feasible(pot, 500, Rng(3))
        assert x.shape == (500, 12)
        assert float(pot.value_batch(x).max()) == 0.0
        assert np.all(x >= pot.bounds[:, 0] - 1e-12)
        assert np.all(x <= pot.bounds[:, 1] + 1e-12)

    def test_feasible_sampler_deterministic(self):
        pot = load_schema()
        a = sample_feasible(pot, 50, Rng(9))
        b = sample_feasible(pot, 50, Rng(9))
        assert np.array_equal(a, b)


class TestGroundTruth:
    def test_labels_are_balanced(self):
        pot = load_schema()
        labeler = make_ground_truth(pot)
        x = sample_feasible(pot, 2000, Rng(10))
        frac = float(labeler.labels(x).mean())
        assert 0.35 < frac < 0.65

    def test_labeler_is_frozen(self):
        pot = load_schema()
        a = make_ground_truth(pot)
        b = make_ground_truth(pot)
        x = sample_feasible(pot, 100, Rng(2))
        assert a.threshold == b.threshold
        assert np.array_equal(a.labels(x), b.labels(x))


class TestDataset:
    def test_shapes_and_feasibility(self, tabular_task):
        pot, ds, _, _ = tabular_task
        assert ds.train.features.shape == (4000, 12)
        assert ds.val.features.shape == (1000, 12)
        assert ds.test.features.shape == (2000, 12)
        for split in (ds.train, ds.val, ds.test):
            assert float(pot.value_batch(split.features).max()) == 0.0
            assert set(np.unique(split.labels)) <= {0, 1}

    def test_label_noise_rate(self, tabular_task):
        pot, ds, _, _ = tabular_task
        labeler = make_ground_truth(pot, ds.ground_truth_seed)
        clean = labeler.labels(ds.train.features)
        flip = float(np.mean(clean != ds.train.labels))
        assert 0.03 < flip < 0.07

    def test_reproducible(self):
        pot = load_schema()
        a = generate_tabular_dataset(pot, 100, 50, 50, seed=12)
        b = generate_tabular_dataset(pot, 100, 50, 50, seed=12)
        assert np.array_equal(a.test.features, b.test.features)
        assert np.array_equal(a.test.labels, b.test.labels)
        c = generate_tabular_dataset(pot, 100, 50, 50, seed=13)
        assert not np.array_equal(a.test.features, c.test.features)

    def test_bad_noise_rejected(self):
        with pytest.raises(ConfigError):
            generate_tabular_dataset(load_schema(), 10, 5, 5, seed=0, label_noise=1.5)

    def test_save_load_round_trip(self, tabular_task, tmp_path):
        _, ds, _, _ = tabular_task
        save_tabular_dataset(ds, tmp_path)
        back = load_tabular_dataset(tmp_path)
        assert back.seed == ds.seed
        assert back.feature_names == ds.feature_names
        assert np.array_equal(back.train.features, ds.train.features)
        assert np.array_equal(back.test.labels, ds.test.labels)

    def test_load_rejects_wrong_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text('{"kind": "other"}')
        with pytest.raises(DataError):
            load_tabular_dataset(tmp_path)


class TestClassifier:
    def test_learns_the_task(self, tabular_task):
        _, ds, model, _ = tabular_task
        acc = classifier_accuracy(model, ds.test.features, ds.test.labels)
        assert acc > 0.85

    def test_rejects_non_bce_config(self, tabular_task):
        _, ds, _, _ = tabular_task
        with pytest.raises(ConfigError):
            train_tabular_classifier(ds, TrainConfig(epochs=1, loss="mse"))


def linear_logit_model(w: float = 2.0) -> TrainedModel:
    """Single-feature linear classifier logit = w * z, by hand."""
    spec = NetSpec(x_dim=1, hidden=(), out_dim=1)
    net = FeedForwardNet.init(spec, Rng(0))
    net.weights[0][:] = w
    net.biases[0][:] = 0.0
    return TrainedModel(
        kind="classifier",
        net=net,
        x_norm=Normalizer.identity(1),
        y_norm=Normalizer.identity(1),
        seed=0,
    )


def unbounded_line() -> RelationalConstraintSet:
    return RelationalConstraintSet(["a"], [[-100.0, 100.0]], [])


class TestPgdAttack:
    def test_constant_model_is_noop(self):
        model = linear_logit_model(w=0.0)
        pot = unbounded_line()
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=2)
        x0 = np.array([[1.0], [-2.0]])
        x_adv = pgd_attack(model, x0, np.array([0, 1]), cfg, pot)
        assert np.array_equal(x_adv, x0)

    def test_linear_logit_hits_ball_boundary(self):
        # positive weight, true label 0: ascent pushes straight up
        # until the budget clamps at x0 + eps
        model = linear_logit_model(w=2.0)
        pot = unbounded_line()
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=2)
        x_adv = pgd_attack(model, np.array([[0.5]]), np.array([0]), cfg, pot)
        assert x_adv[0, 0] == pytest.approx(0.8, abs=1e-12)
        x_adv = pgd_attack(model, np.array([[0.5]]), np.array([1]), cfg, pot)
        assert x_adv[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_budget_and_bounds_hold(self, tabular_task):
        pot, ds, model, _ = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=3, seed=0)
        x0 = ds.test.features[:64]
        x_adv = pgd_attack(model, x0, ds.test.labels[:64], cfg, pot)
        dz = np.abs(model.x_norm.encode(x_adv) - model.x_norm.encode(x0))
        assert float(dz.max()) <= cfg.eps + 1e-12
        assert np.all(x_adv >= pot.bounds[:, 0] - 1e-9)
        assert np.all(x_adv <= pot.bounds[:, 1] + 1e-9)

    def test_attacks_reduce_accuracy(self, tabular_task):
        pot, ds, model, _ = tabular_task
        x0, y = ds.test.features[:128], ds.test.labels[:128]
        clean = classifier_accuracy(model, x0, y)
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=3)
        attacked = classifier_accuracy(model, pgd_attack(model, x0, y, cfg, pot), y)
        assert attacked < clean

    def test_computes_no_parameter_gradient(self, tabular_task, monkeypatch):
        # the signed steps need only the input gradient; the layer views
        # of a flat buffer are where a parameter gradient would be written
        pot, ds, model, _ = tabular_task

        def refuse(*args):
            raise AssertionError("a parameter gradient was computed")

        monkeypatch.setattr(network, "_layer_views", refuse)
        cfg = AttackConfig(eps=0.3, step=0.075, k=3, cycles=2)
        x_adv = pgd_attack(model, ds.test.features[:4], ds.test.labels[:4], cfg, pot)
        assert x_adv.shape == (4, pot.dim)


def test_project_gives_the_bytes_of_clip():
    # Every combination of value, ball bounds and feature bounds drawn
    # from signed zeros, ones, infinities and NaN, in the array shapes
    # the attacks pass.  (np.clip with scalar bounds keeps a -0.0 that
    # np.maximum turns into 0.0; _project never gets scalar bounds.)
    from diffrefine.adversarial import _project

    vals = [0.0, -0.0, 1.0, -1.0, np.inf, -np.inf, np.nan]
    grid = np.array(list(itertools.product(vals, repeat=3)))
    z, ball_lo, ball_hi = grid[:, 0][None, :], grid[:, 1][None, :], grid[:, 2][None, :]
    z = np.vstack([z, z[:, ::-1]])
    ball = (np.vstack([ball_lo, ball_lo]), np.vstack([ball_hi, ball_hi]))
    for lo, hi in itertools.product(vals, repeat=2):
        lo_row = np.full(grid.shape[0], lo)
        hi_row = np.full(grid.shape[0], hi)
        want = np.clip(np.clip(z, ball[0], ball[1]), lo_row[None, :], hi_row[None, :])
        assert _project(z, ball, lo_row, hi_row).tobytes() == want.tobytes()


class TestPenaltyPgdAttack:
    def test_mu_zero_matches_plain(self, tabular_task):
        pot, ds, model, _ = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=5, cycles=2)
        x0, y = ds.test.features[:32], ds.test.labels[:32]
        a = pgd_attack(model, x0, y, cfg, pot)
        b = penalty_pgd_attack(model, x0, y, cfg, pot, mu=0.0)
        assert np.array_equal(a, b)

    def test_negative_mu_rejected(self, tabular_task):
        pot, ds, model, _ = tabular_task
        with pytest.raises(ConfigError):
            penalty_pgd_attack(
                model, ds.test.features[:2], ds.test.labels[:2],
                AttackConfig(), pot, mu=-1.0,
            )

    def test_large_mu_cuts_violation(self, tabular_task):
        pot, ds, model, _ = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=3)
        x0, y = ds.test.features[:100], ds.test.labels[:100]
        plain_phi = pot.value_batch(pgd_attack(model, x0, y, cfg, pot))
        pen_phi = pot.value_batch(penalty_pgd_attack(model, x0, y, cfg, pot, mu=10.0))
        assert float(np.mean(pen_phi <= plain_phi)) >= 0.9

    def test_tiny_budget_keeps_point_in_place(self, tabular_task):
        pot, ds, model, _ = tabular_task
        cfg = AttackConfig(eps=1e-4, step=0.075, k=5, cycles=2)
        x0 = ds.test.features[:16]
        x_adv = penalty_pgd_attack(model, x0, ds.test.labels[:16], cfg, pot, mu=100.0)
        dz = np.abs(model.x_norm.encode(x_adv) - model.x_norm.encode(x0))
        assert float(dz.max()) <= 1e-4 + 1e-12


class TestCyclicAttack:
    def test_degenerate_config_is_noop(self, tabular_task):
        pot, ds, model, prior = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=0, cycles=1, tau=0)
        x0 = ds.test.features[:8]
        x_adv, log = cyclic_attack(model, x0, ds.test.labels[:8], cfg, pot, prior)
        assert np.allclose(x_adv, x0, atol=1e-12)
        assert len(log.phi_after_refine) == 1

    def test_needs_prior(self, tabular_task):
        pot, ds, model, _ = tabular_task
        with pytest.raises(ConfigError):
            cyclic_attack(
                model, ds.test.features[:2], ds.test.labels[:2],
                AttackConfig(), pot, None,
            )

    def test_budget_survives_refinement(self, tabular_task):
        pot, ds, model, prior = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=2, tau=10, seed=0)
        x0 = ds.test.features[:32]
        x_adv, _ = cyclic_attack(model, x0, ds.test.labels[:32], cfg, pot, prior)
        dz = np.abs(model.x_norm.encode(x_adv) - model.x_norm.encode(x0))
        assert float(dz.max()) <= cfg.eps + 1e-12
        assert np.all(x_adv >= pot.bounds[:, 0] - 1e-9)
        assert np.all(x_adv <= pot.bounds[:, 1] + 1e-9)

    def test_cuts_violation_while_keeping_bite(self, tabular_task):
        pot, ds, model, prior = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=10, cycles=3, tau=15, seed=0)
        x0, y = ds.test.features[:100], ds.test.labels[:100]
        plain = pgd_attack(model, x0, y, cfg, pot)
        cyc, log = cyclic_attack(model, x0, y, cfg, pot, prior)
        assert float(pot.value_batch(cyc).mean()) <= float(pot.value_batch(plain).mean())
        plain_flips = float(np.mean((model.predict_logits(plain) > 0).astype(int) != y))
        cyc_flips = float(np.mean((model.predict_logits(cyc) > 0).astype(int) != y))
        assert cyc_flips >= 0.5 * plain_flips
        assert len(log.phi_after_pgd) == cfg.cycles
        assert len(log.phi_after_refine) == cfg.cycles
        assert refinement_non_increase_fraction(log) > 0.95


class TestEvaluation:
    def test_identity_attack_scores_clean(self, tabular_task):
        pot, ds, model, _ = tabular_task
        reports = evaluate_attacks(
            model, ds.test.features[:200], ds.test.labels[:200],
            {"identity": lambda x, y: x}, pot,
        )
        r = reports[0]
        assert r.robust_accuracy == 100.0
        assert r.success_rate == 0.0
        assert r.mean_phi == 0.0

    def test_only_correct_rows_attacked(self, tabular_task):
        pot, ds, model, _ = tabular_task
        x, y = ds.test.features[:200], ds.test.labels[:200]
        reports = evaluate_attacks(model, x, y, {"identity": lambda a, b: a}, pot)
        r = reports[0]
        pred = (model.predict_logits(x) > 0).astype(int)
        assert r.n_attacked == int(np.sum(pred == y))
        assert np.all(pred[r.indices] == y[r.indices])

    def test_max_samples_cap(self, tabular_task):
        pot, ds, model, _ = tabular_task
        reports = evaluate_attacks(
            model, ds.test.features[:200], ds.test.labels[:200],
            {"identity": lambda a, b: a}, pot, max_samples=50,
        )
        assert reports[0].n_attacked == 50

    def test_artifacts_replay_to_same_aggregates(self, tabular_task, tmp_path):
        pot, ds, model, _ = tabular_task
        cfg = AttackConfig(eps=0.3, step=0.075, k=5, cycles=2)
        reports = evaluate_attacks(
            model, ds.test.features[:150], ds.test.labels[:150],
            {
                "plain": lambda a, b: pgd_attack(model, a, b, cfg, pot),
                "identity": lambda a, b: a,
            },
            pot,
        )
        write_attack_artifacts(tmp_path, reports)
        grouped = read_attack_samples(tmp_path / "samples.jsonl")
        for r in reports:
            rows = grouped[r.name]
            assert len(rows) == r.n_attacked
            phi = np.array([row["phi"] for row in rows])
            success = np.array([row["success"] for row in rows])
            assert float(phi.mean()) == pytest.approx(r.mean_phi, rel=1e-12)
            assert 100.0 * float(success.mean()) == pytest.approx(r.success_rate, rel=1e-12)
            back = np.array([row["breakdown"] for row in rows])
            assert np.allclose(back.mean(axis=0), r.per_constraint, rtol=1e-12)
        table = (tmp_path / "report.tsv").read_text().splitlines()
        assert table[0].startswith("attack\tn_attacked")
        assert len(table) == 3

    def test_report_lines_layout(self, tabular_task):
        pot, ds, model, _ = tabular_task
        reports = evaluate_attacks(
            model, ds.test.features[:50], ds.test.labels[:50],
            {"identity": lambda a, b: a}, pot,
        )
        lines = report_table_lines(reports)
        assert "c6_mean_sq" in lines[0]


class TestAttackConfig:
    def test_round_trip(self):
        cfg = AttackConfig(eps=0.2, step=0.05, k=3, cycles=2, tau=4, lam=0.5, seed=9)
        assert AttackConfig.from_config(cfg.to_config()) == cfg

    def test_invalid_rejected(self):
        with pytest.raises(ConfigError):
            AttackConfig(eps=0.0)
        with pytest.raises(ConfigError):
            AttackConfig(cycles=0)
        with pytest.raises(ConfigError):
            AttackConfig.from_config({"eps": 0.1, "mystery": 2})
