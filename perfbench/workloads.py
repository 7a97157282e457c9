"""The benchmark's four workloads.

Each workload turns the benchmark seed into inputs, prepares untimed
state from them (``setup``), and then runs a pool of operations
(``run``), each of which calls the same public functions a CLI stage
calls, with the CLI's default knobs and ``workers=1``, and no file I/O.
``check`` verifies one operation's outputs after the timed part, and
``summary`` turns the pool's items into the workload's own figures.

Inputs are derived here, from the seed alone, so that two versions of
the program always receive the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from time import perf_counter as _clock

import numpy as np

NEWTON = "powerflow.solver.newton_raphson"

# CLI defaults (``diffrefine gen-data``, ``train``, ``attack``).
PF_TRAIN_SPREAD = 0.10
PF_TEST_SPREAD = 0.20
PF_TOL = 1e-8
BASE_TRAIN = dict(epochs=60, batch_size=64, lr=1e-3, loss="mse")
BASE_HIDDEN = (64, 64)
PF_PRIOR_TRAIN = dict(epochs=200, batch_size=64, lr=1e-3, loss="eps")
PF_PRIOR_HIDDEN = (128, 128)
PF_PRIOR_SCHEDULE = (100, 1e-4, 0.02)
TAB_LABEL_NOISE = 0.05
CLASSIFIER_TRAIN = dict(epochs=150, batch_size=128, lr=1e-3, loss="bce")
CLASSIFIER_HIDDEN = (32, 32)
TAB_PRIOR_TRAIN = dict(epochs=40, batch_size=256, lr=1e-3, loss="eps")
TAB_PRIOR_HIDDEN = (64, 64)
TAB_PRIOR_SCHEDULE = (60, 1e-4, 0.03)
TAB_PRIOR_TIME_DIM = 16

# Seeded toy starts are drawn in a disc around the upper local minimum of
# the Müller-Brown surface, where gradient descent is trapped and runs to
# its iteration cap, so every start costs about the same descent work.
# Around the other local minimum, (0.6235, 0.0280), the cost of a start
# varies from 2x to 4.6x of this one's with its position.
TOY_START_CENTER = (-0.0500, 0.4667)
TOY_START_RADIUS = 0.25


@dataclass(frozen=True)
class Sizes:
    """Input sizes.  The defaults are the benchmark's; tests shrink them."""

    pf30_blocks: int = 16
    pf30_block: int = 5
    pf30_warmup: int = 40
    pf14_train: int = 64
    pf14_test: int = 100
    pf14_block: int = 5
    tab_train: int = 1000
    tab_val: int = 200
    tab_test: int = 60
    tab_attacked: int = 20
    tab_block: int = 1
    toy_seeded: int = 8
    # trajectory_comparison's default is 20000; at that cap one start
    # takes about 8 s, far longer than the gaps in the host's load.
    toy_gd_iters: int = 500
    toy_model: dict = field(default_factory=dict)  # overrides of the demo's model recipe


TINY = Sizes(
    pf30_blocks=2, pf30_block=3, pf30_warmup=1,
    pf14_train=40, pf14_test=4, pf14_block=2,
    tab_train=200, tab_val=40, tab_test=12, tab_attacked=6, tab_block=3,
    toy_seeded=1, toy_gd_iters=30,
    toy_model={"n_samples": 200, "train": {"epochs": 2, "batch_size": 128, "lr": 0.001,
                                           "seed": 41, "loss": "eps"}},
)


def derive(seed: int, purpose: str) -> int:
    """Per-purpose 32-bit seed, like the CLI derives its stream seeds."""
    digest = hashlib.sha256(f"{seed}:{purpose}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


@dataclass
class Op:
    """What one operation produced.  ``rows`` counts the headline units
    (scenarios, refined rows, attacked rows, starts); ``stages`` holds
    wall seconds per stage, the headline stage under ``"main"``."""

    outputs: dict
    rows: int
    stages: dict
    extra: dict = field(default_factory=dict)


@dataclass
class Item:
    """One pool item: its first result, and per stage (plus ``"wall"``
    for the whole operation) its time in each complete pass of the run."""

    op: Op
    times: dict


def _blocks(n: int, size: int) -> list:
    return [np.arange(lo, min(lo + size, n)) for lo in range(0, n, size)]


def fastest_costs(times) -> np.ndarray:
    """Each item's seconds at the fastest host speed the run saw.

    ``times`` has one row per complete pass over the pool and one column
    per item.  A neighbour on the shared host slows this one 1.5-2x in
    spells from a second to minutes, and leaves it alone in gaps from
    tens of milliseconds up; how much of a run the spells cover changes
    from run to run, and moves a median, a quartile or a mean with it.
    Items run in turn, so within one pass they see nearly the same speed,
    and an item's median share of its pass time is its share of the work.
    Each operation divided by its item's share then estimates the time of
    a whole pass at the speed of that moment; the smallest estimate, over
    a run of many short operations, is the pass time at the host's
    unloaded speed.
    """
    times = np.asarray(times, dtype=float)
    share = np.median(times / times.sum(axis=1, keepdims=True), axis=0)
    share /= share.sum()
    return share * float(np.min(times / share))


def cost(items: list, stage: str) -> float:
    """Seconds one pass of ``stage`` over the items that have it takes."""
    timed = [it.times[stage] for it in items if stage in it.times]
    return float(fastest_costs(np.transpose(timed)).sum())


def rate(items: list, stage: str = "main", amount: str | None = None) -> float:
    """Headline rows (or ``extra[amount]``) per second of ``stage``."""
    timed = [it for it in items if stage in it.times]
    done = sum(it.op.extra[amount] if amount else it.op.rows for it in timed)
    return done / cost(timed, stage)


def _train_config(seed: int, knobs: dict):
    from diffrefine.training import TrainConfig

    return TrainConfig(seed=seed, **knobs)


# ---------------------------------------------------------------------------
# pf30-scenarios: the ``gen-data pf`` path on IEEE 30.
# ---------------------------------------------------------------------------

class Pf30Scenarios:
    name = "pf30-scenarios"
    counted = (NEWTON,)

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {
            "warmup": derive(seed, "pf30-warmup"),
            "blocks": [derive(seed, f"pf30-block-{i}") for i in range(sizes.pf30_blocks)],
            "block": sizes.pf30_block,
            "warmup_n": sizes.pf30_warmup,
        }

    def setup(self, inputs: dict) -> dict:
        from diffrefine import powerflow

        case = powerflow.load_case("ieee30")
        self._generate(case, inputs["warmup_n"], inputs["warmup"])
        return {"case": case, "ybus": powerflow.build_ybus(case), **inputs}

    @staticmethod
    def _generate(case, n: int, seed: int):
        from diffrefine.powerflow import data

        return data.generate_dataset(
            case, 0, 0, n, train_spread=PF_TRAIN_SPREAD, test_spread=PF_TEST_SPREAD,
            seed=seed, tol=PF_TOL,
        )

    def pool(self, state) -> int:
        return len(state["blocks"])

    def op_rows(self, state, i: int) -> int:
        return state["block"]

    def run(self, state, i: int) -> Op:
        t0 = _clock()
        ds = self._generate(state["case"], state["block"], state["blocks"][i])
        wall = _clock() - t0
        return Op(
            outputs={"features": ds.test.features, "targets": ds.test.targets},
            rows=ds.test.features.shape[0],
            stages={"main": wall},
        )

    def check(self, state, op: Op, counts: dict):
        from diffrefine import powerflow

        case, ybus = state["case"], state["ybus"]
        bad = 0
        for f, t in zip(op.outputs["features"], op.outputs["targets"]):
            dp, dq = powerflow.mismatch(
                case, ybus, powerflow.unpack_state(case, t),
                powerflow.injections_from_features(case, f),
            )
            worst = float(np.abs(np.concatenate([dp, dq])).max())
            bad += not worst < PF_TOL
        nonconverged = counts.get(NEWTON, {}).get("nonconverged", 0)
        return op.rows + nonconverged, bad + nonconverged

    def summary(self, state, items: list) -> dict:
        return {"scenarios_per_s": rate(items)}


# ---------------------------------------------------------------------------
# pf14-refine: ``train base``, ``train eps``, then ``refine`` on IEEE 14.
# ---------------------------------------------------------------------------

class Pf14Refine:
    """Pool item 0 trains the estimator and item 1 the prior; items 2..
    refine and score one block of test rows each with the nets items 0
    and 1 last trained."""

    name = "pf14-refine"
    counted = ()

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {
            "data": derive(seed, "gen-data-pf"),
            "base": derive(seed, "train-base"),
            "eps": derive(seed, "train-eps"),
            "n_train": sizes.pf14_train,
            "n_test": sizes.pf14_test,
            "block": sizes.pf14_block,
        }

    def setup(self, inputs: dict) -> dict:
        from diffrefine import powerflow

        case = powerflow.load_case("ieee14")
        ds = powerflow.generate_dataset(
            case, inputs["n_train"], 0, inputs["n_test"], train_spread=PF_TRAIN_SPREAD,
            test_spread=PF_TEST_SPREAD, seed=inputs["data"], tol=PF_TOL,
        )
        return {"case": case, "ybus": powerflow.build_ybus(case), "ds": ds,
                "blocks": _blocks(inputs["n_test"], inputs["block"]), **inputs}

    def pool(self, state) -> int:
        return 2 + len(state["blocks"])

    def op_rows(self, state, i: int) -> int:
        return len(state["blocks"][i - 2]) if i >= 2 else 1  # a training run is one operation

    def run(self, state, i: int) -> Op:
        if i >= 2:
            return self._refine(state, state["blocks"][i - 2])
        return self._train_prior(state) if i else self._train_base(state)

    @staticmethod
    def _train_base(state) -> Op:
        from diffrefine import baselines

        t0 = _clock()
        base = baselines.train_power_estimator(
            state["case"], state["ds"], cfg=_train_config(state["base"], BASE_TRAIN),
            hidden=BASE_HIDDEN,
        )
        wall = _clock() - t0
        state["estimator"] = base
        return Op(
            outputs={"params": base.net.get_params()},
            rows=0,
            stages={"train": wall},
            extra={"train_samples": BASE_TRAIN["epochs"] * state["n_train"]},
        )

    @staticmethod
    def _train_prior(state) -> Op:
        from diffrefine import baselines
        from diffrefine.diffusion import make_schedule

        t0 = _clock()
        prior = baselines.train_power_prior(
            state["case"], state["ds"], schedule=make_schedule(*PF_PRIOR_SCHEDULE),
            cfg=_train_config(state["eps"], PF_PRIOR_TRAIN), hidden=PF_PRIOR_HIDDEN,
        )
        wall = _clock() - t0
        state["prior"] = prior
        n_train = state["n_train"]
        return Op(
            outputs={"params": prior.net.get_params()},
            rows=0,
            stages={"train": wall},
            # train_noise_model holds out a tenth of the rows for validation
            extra={"train_samples": PF_PRIOR_TRAIN["epochs"] * (n_train - round(n_train * 0.1))},
        )

    @staticmethod
    def _refine(state, rows) -> Op:
        from diffrefine import baselines, powerflow

        case, ybus = state["case"], state["ybus"]
        base, prior = state["estimator"], state["prior"]
        feats, targs = state["ds"].test.features[rows], state["ds"].test.targets[rows]
        t0 = _clock()
        pred = base.predict(feats)
        refined = baselines.refine_power_batch(
            case, prior, pred, feats, cfg=baselines.POWER_REFINE, ybus=ybus, workers=1
        )
        rep_base = powerflow.evaluate(case, pred, targs, feats, ybus=ybus, norm=base.y_norm)
        rep_ref = powerflow.evaluate(case, refined, targs, feats, ybus=ybus, norm=base.y_norm)
        wall = _clock() - t0
        return Op(
            outputs={
                "refined": refined,
                "base_report": np.stack([rep_base.mse, rep_base.mapm, rep_base.mrpm]),
                "refined_report": np.stack([rep_ref.mse, rep_ref.mapm, rep_ref.mrpm]),
            },
            rows=refined.shape[0],
            stages={"main": wall},
        )

    def check(self, state, op: Op, counts: dict):
        if "refined" not in op.outputs:  # a training item
            return 1, int(not np.all(np.isfinite(op.outputs["params"])))
        refined = op.outputs["refined"]
        bad = int(np.sum(~np.all(np.isfinite(refined), axis=1)))
        base_mapm = op.outputs["base_report"][1].mean()
        if not op.outputs["refined_report"][1].mean() < base_mapm:
            bad = op.rows
        return op.rows, bad

    def summary(self, state, items: list) -> dict:
        blocks = items[2:]
        refined = np.hstack([it.op.outputs["refined_report"] for it in blocks])
        base = np.hstack([it.op.outputs["base_report"] for it in blocks])
        return {
            "train_samples_per_s": rate(items, "train", "train_samples"),
            "refine_rows_per_s": rate(blocks),
            "refined_mse": float(refined[0].mean()),
            "refined_mapm_mw": float(refined[1].mean()),
            "refined_mrpm_mvar": float(refined[2].mean()),
            "base_mapm_mw": float(base[1].mean()),
        }


# ---------------------------------------------------------------------------
# tabular-cyclic: ``attack --kind cyclic`` on the tabular schema.
# ---------------------------------------------------------------------------

class TabularCyclic:
    name = "tabular-cyclic"
    counted = ()

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        return {
            "data": derive(seed, "gen-data-tabular"),
            "classifier": derive(seed, "train-classifier"),
            "eps": derive(seed, "train-eps"),
            "attack": derive(seed, "attack"),
            "n": (sizes.tab_train, sizes.tab_val, sizes.tab_test),
            "attacked": sizes.tab_attacked,
            "block": sizes.tab_block,
        }

    def setup(self, inputs: dict) -> dict:
        from diffrefine import adversarial
        from diffrefine.diffusion import make_schedule

        pot = adversarial.load_schema()
        ds = adversarial.generate_tabular_dataset(
            pot, *inputs["n"], seed=inputs["data"], label_noise=TAB_LABEL_NOISE
        )
        model = adversarial.train_tabular_classifier(
            ds, cfg=_train_config(inputs["classifier"], CLASSIFIER_TRAIN),
            hidden=CLASSIFIER_HIDDEN,
        )
        prior = adversarial.train_feasible_prior(
            ds, make_schedule(*TAB_PRIOR_SCHEDULE),
            cfg=_train_config(inputs["eps"], TAB_PRIOR_TRAIN),
            hidden=TAB_PRIOR_HIDDEN, time_dim=TAB_PRIOR_TIME_DIM,
        )
        # Blocks of equal size hold only rows the classifier gets right,
        # the rows evaluate_attacks attacks, so every block costs the same.
        x, y = ds.test.features, ds.test.labels
        correct = np.nonzero((model.predict_logits(x) > 0.0).astype(int) == y)[0]
        correct = correct[: inputs["attacked"]]
        return {
            "pot": pot, "ds": ds, "model": model, "prior": prior,
            "blocks": [correct[b] for b in _blocks(len(correct), inputs["block"])],
            "cfg": adversarial.AttackConfig(seed=inputs["attack"]),
        }

    def pool(self, state) -> int:
        return len(state["blocks"])

    def op_rows(self, state, i: int) -> int:
        return len(state["blocks"][i])

    def run(self, state, i: int) -> Op:
        from diffrefine import adversarial

        pot, model, prior, cfg = state["pot"], state["model"], state["prior"], state["cfg"]
        rows = state["blocks"][i]
        x, y = state["ds"].test.features[rows], state["ds"].test.labels[rows]
        adv = {}

        def cyclic(x0, y0):
            adv["x"], _ = adversarial.cyclic_attack(model, x0, y0, cfg, pot, prior)
            return adv["x"]

        t0 = _clock()
        (report,) = adversarial.evaluate_attacks(model, x, y, {"cyclic": cyclic}, pot=pot)
        wall = _clock() - t0
        return Op(
            outputs={"x_adv": adv["x"], "indices": report.indices, "success": report.success,
                     "phi": report.phi, "linf": report.linf},
            rows=report.n_attacked,
            stages={"main": wall},
        )

    def check(self, state, op: Op, counts: dict):
        lo, hi = state["pot"].bounds[:, 0], state["pot"].bounds[:, 1]
        slack = 1e-9 * np.maximum(1.0, np.maximum(np.abs(lo), np.abs(hi)))
        x = op.outputs["x_adv"]
        inside = np.all((x >= lo - slack) & (x <= hi + slack), axis=1)
        within = op.outputs["linf"] <= state["cfg"].eps + 1e-9
        return op.rows, int(np.sum(~(inside & within)))

    def summary(self, state, items: list) -> dict:
        success = np.concatenate([it.op.outputs["success"] for it in items])
        phi = np.concatenate([it.op.outputs["phi"] for it in items])
        return {
            "attack_rows_per_s": rate(items),
            "attack_success_pct": 100.0 * float(np.mean(success)),
            "attack_mean_phi": float(np.mean(phi)),
        }


# ---------------------------------------------------------------------------
# toy-basins: ``toy`` (GD, scalar NR, refine) on the Müller-Brown surface.
# ---------------------------------------------------------------------------

class ToyBasins:
    name = "toy-basins"
    counted = ()
    labels = ("global", "local-1", "local-2", "saddle", "diverged")

    def inputs(self, seed: int, sizes: Sizes) -> dict:
        from diffrefine.baselines import load_toy_demo

        demo = load_toy_demo()
        demo["model"] = {**demo["model"], **sizes.toy_model}
        shipped = [row for name in sorted(demo["starts"]) for row in demo["starts"][name]]
        rng = np.random.default_rng(derive(seed, "toy-starts"))
        drawn = []
        center = np.asarray(TOY_START_CENTER)
        for _ in range(sizes.toy_seeded):
            radius = TOY_START_RADIUS * np.sqrt(rng.random())
            angle = 2.0 * np.pi * rng.random()
            drawn.append(center + radius * np.array([np.cos(angle), np.sin(angle)]))
        starts = np.vstack([np.asarray(shipped, dtype=float), np.asarray(drawn).reshape(-1, 2)])
        return {"demo": demo, "starts": starts, "gd_iters": sizes.toy_gd_iters}

    def setup(self, inputs: dict) -> dict:
        from diffrefine import baselines

        pot, model, refine_cfg, _ = baselines.build_toy_setup(inputs["demo"])
        return {"pot": pot, "model": model, "refine_cfg": refine_cfg, **inputs}

    def pool(self, state) -> int:
        return state["starts"].shape[0]

    def op_rows(self, state, i: int) -> int:
        return 1

    def run(self, state, i: int) -> Op:
        from diffrefine import baselines

        t0 = _clock()
        table = baselines.trajectory_comparison(
            state["pot"], state["starts"][i : i + 1], model=state["model"],
            refine_cfg=state["refine_cfg"], gd_iters=state["gd_iters"],
        )
        wall = _clock() - t0
        rows = table.rows
        return Op(
            outputs={
                "x_final": np.array([r.x_final for r in rows]),
                "phi_final": np.array([r.phi_final for r in rows]),
                "steps": np.array([r.steps for r in rows]),
                "label": np.array([self.labels.index(r.label) for r in rows]),
                "refine_global": np.array(
                    [r.label == "global" for r in rows if r.method == "refine"]
                ),
            },
            rows=1,
            stages={"main": wall},
        )

    def check(self, state, op: Op, counts: dict):
        return 1, int(not np.all(np.isfinite(op.outputs["x_final"])))

    def summary(self, state, items: list) -> dict:
        hits = np.concatenate([it.op.outputs["refine_global"] for it in items])
        return {"toy_starts_per_s": rate(items), "toy_refine_global_frac": float(np.mean(hits))}


WORKLOADS = {w.name: w for w in (Pf30Scenarios(), Pf14Refine(), TabularCyclic(), ToyBasins())}

# Workload-level figures, reported with the per-layer metrics of a traced
# run: (name, unit, better).
WORKLOAD_FIGURES = (
    ("scenarios_per_s", "1/s", "higher"),
    ("train_samples_per_s", "1/s", "higher"),
    ("refine_rows_per_s", "1/s", "higher"),
    ("refined_mapm_mw", "MW", "lower"),
    ("refined_mrpm_mvar", "MVAr", "lower"),
    ("refined_mse", "pu2", "lower"),
    ("attack_rows_per_s", "1/s", "higher"),
    ("attack_success_pct", "%", "higher"),
    ("attack_mean_phi", "1", "lower"),
    ("toy_starts_per_s", "1/s", "higher"),
    ("toy_refine_global_frac", "ratio", "higher"),
    ("failed_frac", "ratio", "lower"),
)
