"""Constrained adversarial attacks on a synthetic tabular task.

The task ships as a declarative constraint schema (12 credit-style
features, 6 relational constraints).  Records are generated feasible
by construction, labeled by a frozen seeded network, and attacked
three ways: plain projected signed-gradient ascent, a penalty variant
that subtracts a constraint term from the attack objective, and a
cyclic attack that alternates gradient blocks with diffusion
refinement back toward the feasible manifold.

All attack arithmetic runs in the classifier's normalized input
space; the budget ball and feature bounds are enforced there after
every step, and reported perturbation norms are normalized-space
infinity norms.
"""

from __future__ import annotations

import importlib.resources
import json
from dataclasses import asdict, dataclass, field
from pathlib import Path

import numpy as np

from .diffusion import train_noise_model
from .errors import ConfigError, DataError, NumericError, dataclass_from_config
from .guidance import RefineConfig, refine
from .model_store import (
    MANIFEST_VERSION,
    TrainedModel,
    read_manifest,
    read_table,
    write_manifest,
    write_table,
)
from .network import FeedForwardNet, NetSpec, _sigmoid
from .numerics import Rng
from .potentials import (
    LinearSumTerm,
    OrderTerm,
    ProductTerm,
    RangeTerm,
    RelationalConstraintSet,
)
from .training import Normalizer, TrainConfig, train_network

GROUND_TRUTH_SEED = 7041
LABEL_NOISE = 0.05


def load_schema(path=None) -> RelationalConstraintSet:
    """Bundled tabular constraint schema, or one from an explicit path."""
    if path is not None:
        return RelationalConstraintSet.from_json(path)
    ref = importlib.resources.files("diffrefine") / "data" / "tabular_schema.json"
    return RelationalConstraintSet.from_config(json.loads(ref.read_text(encoding="utf-8")))


def sample_feasible(pot: RelationalConstraintSet, n: int, rng: Rng) -> np.ndarray:
    """Draw n records satisfying every constraint by construction.

    Free features start uniform inside their bounds, then each term is
    enforced in schema order: products overwrite their result feature,
    linear sums are solved for their last feature, order terms pull
    the smaller feature down, range terms clip.  Terms must therefore
    be listed so later ones only depend on already-settled features.
    """
    lo = pot.bounds[:, 0]
    span = pot.bounds[:, 1] - pot.bounds[:, 0]
    x = lo[None, :] + span[None, :] * rng.random((n, pot.dim))
    for term in pot.terms:
        if isinstance(term, ProductTerm):
            x[:, pot.idx(term.result)] = (
                x[:, pot.idx(term.left)] * x[:, pot.idx(term.right)]
            )
        elif isinstance(term, LinearSumTerm):
            w_last = term.weights[-1]
            if abs(w_last) < 1e-12:
                raise DataError(
                    f"cannot solve linear constraint for {term.features[-1]!r}: zero weight"
                )
            acc = np.full(n, term.offset)
            for f, w in zip(term.features[:-1], term.weights[:-1]):
                acc -= w * x[:, pot.idx(f)]
            x[:, pot.idx(term.features[-1])] = acc / w_last
        elif isinstance(term, OrderTerm):
            i_s, i_l = pot.idx(term.smaller), pot.idx(term.larger)
            x[:, i_s] = np.minimum(x[:, i_s], x[:, i_l])
        elif isinstance(term, RangeTerm):
            i_f = pot.idx(term.feature)
            x[:, i_f] = np.clip(x[:, i_f], term.lower, term.upper)
    if float(pot.value_batch(x).max(initial=0.0)) > 0.0:
        raise DataError("feasible generation left residual violations; check term order")
    if np.any(x < pot.bounds[:, 0] - 1e-12) or np.any(x > pot.bounds[:, 1] + 1e-12):
        raise DataError("derived feature left its declared bounds; widen the schema bounds")
    return x


@dataclass
class GroundTruthLabeler:
    """Frozen network that assigns the dataset's binary labels.

    Inputs are mapped to [-1, 1] using the schema bounds alone, so the
    labeler is a pure function of the schema and its seed.  The logit
    threshold is calibrated to the median over a fixed feasible batch,
    which balances the classes.
    """

    net: FeedForwardNet
    center: np.ndarray
    halfspan: np.ndarray
    threshold: float

    def logits(self, x) -> np.ndarray:
        x = np.atleast_2d(np.asarray(x, dtype=float))
        z = (x - self.center[None, :]) / self.halfspan[None, :]
        return self.net.forward(z)[:, 0]

    def labels(self, x) -> np.ndarray:
        return (self.logits(x) > self.threshold).astype(int)


def make_ground_truth(
    pot: RelationalConstraintSet, seed: int = GROUND_TRUTH_SEED
) -> GroundTruthLabeler:
    spec = NetSpec(x_dim=pot.dim, hidden=(16,), out_dim=1)
    net = FeedForwardNet.init(spec, Rng(seed))
    center = pot.bounds.mean(axis=1)
    halfspan = 0.5 * (pot.bounds[:, 1] - pot.bounds[:, 0])
    labeler = GroundTruthLabeler(net, center, halfspan, threshold=0.0)
    calib = sample_feasible(pot, 4096, Rng(seed).fork("calibration"))
    labeler.threshold = float(np.median(labeler.logits(calib)))
    return labeler


@dataclass
class TabularSplit:
    features: np.ndarray
    labels: np.ndarray


@dataclass
class TabularDataset:
    schema: RelationalConstraintSet
    train: TabularSplit
    val: TabularSplit
    test: TabularSplit
    seed: int
    label_noise: float
    ground_truth_seed: int

    @property
    def feature_names(self) -> tuple:
        return self.schema.feature_names


def generate_tabular_dataset(
    pot: RelationalConstraintSet | None = None,
    n_train: int = 10000,
    n_val: int = 2000,
    n_test: int = 5000,
    seed: int = 0,
    label_noise: float = LABEL_NOISE,
    ground_truth_seed: int = GROUND_TRUTH_SEED,
) -> TabularDataset:
    """Feasible features, frozen-network labels, a few percent flipped."""
    if min(n_train, n_val, n_test) < 0:
        raise DataError("split sizes must be non-negative")
    if pot is None:
        pot = load_schema()
    if not 0.0 <= label_noise < 1.0:
        raise ConfigError(f"label_noise must be in [0, 1), got {label_noise}")
    labeler = make_ground_truth(pot, ground_truth_seed)
    rng = Rng(seed)
    splits = {}
    for name, n in (("train", n_train), ("val", n_val), ("test", n_test)):
        r = rng.fork(name)
        x = sample_feasible(pot, n, r)
        y = labeler.labels(x)
        flips = r.random(n) < label_noise
        y = np.where(flips, 1 - y, y)
        splits[name] = TabularSplit(features=x, labels=y.astype(int))
    return TabularDataset(
        schema=pot,
        train=splits["train"],
        val=splits["val"],
        test=splits["test"],
        seed=seed,
        label_noise=label_noise,
        ground_truth_seed=ground_truth_seed,
    )


def save_tabular_dataset(ds: TabularDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    for name in ("train", "val", "test"):
        split = getattr(ds, name)
        write_table(out / f"{name}.tsv", ds.feature_names, split.features, split.labels)
    manifest = {
        "format_version": MANIFEST_VERSION,
        "kind": "tabular-dataset",
        "schema": ds.schema.to_config(),
        "seed": ds.seed,
        "label_noise": ds.label_noise,
        "ground_truth_seed": ds.ground_truth_seed,
        "counts": {
            "train": int(ds.train.labels.size),
            "val": int(ds.val.labels.size),
            "test": int(ds.test.labels.size),
        },
    }
    write_manifest(out / "manifest.json", manifest)


def load_tabular_dataset(in_dir) -> TabularDataset:
    src = Path(in_dir)
    manifest = read_manifest(
        src, "tabular-dataset",
        {"schema": dict, "seed": int, "label_noise": (int, float), "ground_truth_seed": int},
    )
    try:
        schema = RelationalConstraintSet.from_config(manifest["schema"])
    except (ConfigError, NumericError) as exc:
        raise DataError(f"{src / 'manifest.json'}: malformed schema: {exc}") from exc
    splits = {}
    for name in ("train", "val", "test"):
        features, labels = read_table(src / f"{name}.tsv", schema.feature_names, labels=True)
        splits[name] = TabularSplit(features=features, labels=labels)
    return TabularDataset(
        schema=schema,
        train=splits["train"],
        val=splits["val"],
        test=splits["test"],
        seed=int(manifest["seed"]),
        label_noise=float(manifest["label_noise"]),
        ground_truth_seed=int(manifest["ground_truth_seed"]),
    )


# ---------------------------------------------------------------------------
# Classifier.
# ---------------------------------------------------------------------------


def train_tabular_classifier(
    ds: TabularDataset,
    cfg: TrainConfig | None = None,
    hidden=(32, 32),
) -> TrainedModel:
    """Binary classifier on standardized features with a single logit."""
    if cfg is None:
        cfg = TrainConfig(epochs=150, batch_size=128, lr=1e-3, seed=11, loss="bce")
    if cfg.loss != "bce":
        raise ConfigError("the tabular classifier trains with the bce loss")
    x_norm = Normalizer.fit(ds.train.features)
    z = x_norm.encode(ds.train.features)
    y = ds.train.labels.astype(float)[:, None]
    spec = NetSpec(x_dim=z.shape[1], hidden=tuple(hidden), out_dim=1)
    net = FeedForwardNet.init(spec, Rng(cfg.seed))
    result = train_network(net, z, y, cfg)
    model = TrainedModel(
        kind="classifier",
        net=result.net,
        x_norm=x_norm,
        y_norm=Normalizer.identity(1),
        seed=cfg.seed,
        train_config=cfg.to_config(),
        loss_history=result.history,
        extra={},
    )
    if len(ds.val.labels):
        model.extra["val_accuracy"] = classifier_accuracy(model, ds.val.features, ds.val.labels)
    return model


def classifier_accuracy(model: TrainedModel, x, y) -> float:
    pred = (model.predict_logits(x) > 0.0).astype(int)
    return float(np.mean(pred == np.asarray(y)))


def train_feasible_prior(
    ds: TabularDataset, schedule, cfg: TrainConfig | None = None, hidden=(64, 64), time_dim=16
) -> TrainedModel:
    """Noise model over feasible training features, for cyclic attacks."""
    if cfg is None:
        cfg = TrainConfig(epochs=40, batch_size=256, lr=1e-3, seed=17, loss="eps")
    return train_noise_model(ds.train.features, schedule, cfg, hidden=hidden, time_dim=time_dim)


# ---------------------------------------------------------------------------
# Attacks.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class AttackConfig:
    """Shared attack knobs; the budget and step are normalized units.

    ``k`` gradient steps per cycle, ``cycles`` cycles, ``tau`` reverse
    steps per refinement block.  Degenerate zero values are allowed so
    the no-op attack stays expressible.
    """

    eps: float = 0.3
    step: float = 0.075
    k: int = 10
    cycles: int = 5
    tau: int = 20
    start_step: int | None = None
    lam: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.eps <= 0:
            raise ConfigError(f"eps must be positive, got {self.eps}")
        if self.step <= 0:
            raise ConfigError(f"step must be positive, got {self.step}")
        if self.k < 0 or self.cycles < 1 or self.tau < 0:
            raise ConfigError("need k >= 0, cycles >= 1, tau >= 0")

    def to_config(self) -> dict:
        return asdict(self)

    @classmethod
    def from_config(cls, cfg: dict) -> "AttackConfig":
        return dataclass_from_config(cls, cfg, "attack")


def _attack_frame(model: TrainedModel, x0, pot: RelationalConstraintSet | None):
    """The schema (the bundled one by default), the clean rows in the
    classifier's normalized space, and the feature bounds there."""
    if pot is None:
        pot = load_schema()
    lo = model.x_norm.encode(pot.bounds[:, 0][None, :])[0]
    hi = model.x_norm.encode(pot.bounds[:, 1][None, :])[0]
    return pot, model.x_norm.encode(np.atleast_2d(np.asarray(x0, dtype=float))), lo, hi


def _project(z, ball, lo, hi):
    """z clipped to the budget ball ``(z0 - eps, z0 + eps)``, then to the
    feature bounds.  np.minimum(np.maximum(...)) gives np.clip's bytes
    with array bounds, at less cost per call."""
    z = np.minimum(np.maximum(z, ball[0]), ball[1])
    return np.minimum(np.maximum(z, lo), hi)


def _ce_input_grad(model: TrainedModel, z: np.ndarray, y: np.ndarray) -> np.ndarray:
    """d(cross-entropy)/dz for a single-logit classifier, per row."""
    out, cache = model.net.forward_batch(z, want_cache=True)
    d_out = (_sigmoid(out[:, 0]) - y.astype(float))[:, None]
    _, d_full = model.net.backward_batch(cache, d_out)
    return d_full[:, : model.net.spec.x_dim]


def _signed_gradient_steps(model, z, ball, y, cfg, lo, hi, steps, pot=None, mu=0.0):
    """``steps`` signed-gradient ascent steps on the classification loss
    minus mu * phi, each projected onto the budget ball intersected with
    the feature bounds."""
    std = np.asarray(model.x_norm.std, dtype=float)
    for _ in range(steps):
        g = _ce_input_grad(model, z, y)
        if mu > 0.0:
            # chain rule: phi is defined on raw features
            g = g - mu * pot.grad_batch(model.x_norm.decode(z)) * std[None, :]
        z = _project(z + cfg.step * np.sign(g), ball, lo, hi)
    return z


def pgd_attack(
    model: TrainedModel, x0, y, cfg: AttackConfig, pot: RelationalConstraintSet | None = None
) -> np.ndarray:
    """Signed-gradient ascent on the classification loss: the penalty
    attack with mu = 0."""
    return penalty_pgd_attack(model, x0, y, cfg, pot, mu=0.0)


def penalty_pgd_attack(
    model: TrainedModel,
    x0,
    y,
    cfg: AttackConfig,
    pot: RelationalConstraintSet | None = None,
    mu: float = 1.0,
) -> np.ndarray:
    """k * cycles projected signed-gradient steps on the objective
    loss - mu * phi."""
    if mu < 0:
        raise ConfigError(f"mu must be >= 0, got {mu}")
    pot, z0, lo, hi = _attack_frame(model, x0, pot)
    ball = (z0 - cfg.eps, z0 + cfg.eps)
    z = _signed_gradient_steps(model, z0, ball, np.asarray(y), cfg, lo, hi, cfg.k * cfg.cycles, pot, mu)
    return model.x_norm.decode(z)


@dataclass
class CycleLog:
    """Per-block diagnostics of the cyclic attack.

    Each list entry is one cycle; arrays hold the mean potential over
    the batch after the gradient block and after the refinement block,
    and how many rows the post-refinement projection moved.
    """

    phi_after_pgd: list = field(default_factory=list)
    phi_after_refine: list = field(default_factory=list)
    projection_binding: list = field(default_factory=list)


def cyclic_attack(
    model: TrainedModel,
    x0,
    y,
    cfg: AttackConfig,
    pot: RelationalConstraintSet | None = None,
    prior: TrainedModel | None = None,
) -> tuple:
    """Alternate gradient blocks with diffusion refinement.

    Each cycle runs k projected ascent steps, then pulls every row
    back toward the feasible manifold with tau guided reverse steps,
    then re-projects onto the budget ball so the perturbation bound
    survives refinement.  The sequence ends on a refinement block.
    Returns (x_adv, CycleLog).
    """
    if prior is None:
        raise ConfigError("cyclic attack needs a diffusion prior over feasible rows")
    pot, z0, lo, hi = _attack_frame(model, x0, pot)
    ball = (z0 - cfg.eps, z0 + cfg.eps)
    y = np.asarray(y)
    z = z0
    log = CycleLog()
    # inject at level tau unless told otherwise, so the refinement
    # walks the full tau-step ladder down to the data level
    start = cfg.start_step if cfg.start_step is not None else max(cfg.tau, 1)
    refine_cfg = RefineConfig(steps=cfg.tau, start_step=start, lam=cfg.lam)
    for _ in range(cfg.cycles):
        z = _signed_gradient_steps(model, z, ball, y, cfg, lo, hi, cfg.k)
        x = model.x_norm.decode(z)
        log.phi_after_pgd.append(pot.value_batch(x))
        refined = np.stack([refine(row, pot, prior, refine_cfg).x for row in x])
        z_ref = model.x_norm.encode(refined)
        z = _project(z_ref, ball, lo, hi)
        moved = np.abs(z - z_ref).max(axis=1) > 1e-12
        log.projection_binding.append(int(moved.sum()))
        log.phi_after_refine.append(pot.value_batch(model.x_norm.decode(z)))
    return model.x_norm.decode(z), log


# ---------------------------------------------------------------------------
# Evaluation and artifacts.
# ---------------------------------------------------------------------------


@dataclass
class AttackReport:
    """Aggregates plus per-sample artifacts for one attack."""

    name: str
    n_attacked: int
    robust_accuracy: float
    success_rate: float
    mean_phi: float
    per_constraint: np.ndarray
    indices: np.ndarray
    success: np.ndarray
    phi: np.ndarray
    breakdown: np.ndarray
    linf: np.ndarray


def evaluate_attacks(
    model: TrainedModel,
    x,
    y,
    attacks,
    pot: RelationalConstraintSet | None = None,
    max_samples: int | None = None,
) -> list:
    """Attack the originally-correct subset and score each attack.

    ``attacks`` maps attack name to a callable (x0, y) -> x_adv.  Only
    rows the classifier gets right on clean data are attacked; robust
    accuracy is the share of those still classified correctly.
    ``max_samples`` caps the attacked rows; None attacks all of them.
    """
    if max_samples is not None and max_samples < 1:
        raise ConfigError(f"max_samples must be at least 1, got {max_samples}")
    if pot is None:
        pot = load_schema()
    x = np.atleast_2d(np.asarray(x, dtype=float))
    y = np.asarray(y)
    clean_pred = (model.predict_logits(x) > 0.0).astype(int)
    correct = np.nonzero(clean_pred == y)[0]
    if max_samples is not None:
        correct = correct[:max_samples]
    if correct.size == 0:
        raise DataError("no correctly-classified rows to attack")
    x_att, y_att = x[correct], y[correct]
    z_clean = model.x_norm.encode(x_att)

    reports = []
    for name, fn in attacks.items():
        x_adv = np.atleast_2d(np.asarray(fn(x_att, y_att), dtype=float))
        if x_adv.shape != x_att.shape:
            raise DataError(f"attack {name!r} changed the batch shape")
        adv_pred = (model.predict_logits(x_adv) > 0.0).astype(int)
        still = adv_pred == y_att
        residuals = pot.residuals_batch(x_adv)
        breakdown = residuals**2
        phi = breakdown.sum(axis=1)
        linf = np.abs(model.x_norm.encode(x_adv) - z_clean).max(axis=1)
        reports.append(
            AttackReport(
                name=name,
                n_attacked=int(correct.size),
                robust_accuracy=100.0 * float(np.mean(still)),
                success_rate=100.0 * float(np.mean(~still)),
                mean_phi=float(np.mean(phi)),
                per_constraint=breakdown.mean(axis=0),
                indices=correct.copy(),
                success=~still,
                phi=phi,
                breakdown=breakdown,
                linf=linf,
            )
        )
    return reports


def report_table_lines(reports) -> list:
    n_terms = reports[0].per_constraint.size if reports else 0
    cols = ["attack", "n_attacked", "robust_accuracy", "success_rate", "mean_phi"]
    cols += [f"c{i + 1}_mean_sq" for i in range(n_terms)]
    lines = ["\t".join(cols)]
    for r in reports:
        row = [
            r.name,
            str(r.n_attacked),
            repr(r.robust_accuracy),
            repr(r.success_rate),
            repr(r.mean_phi),
        ]
        row += [repr(float(v)) for v in r.per_constraint]
        lines.append("\t".join(row))
    return lines


def write_attack_artifacts(out_dir, reports) -> None:
    """report.tsv with aggregates; samples.jsonl with per-sample rows."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    with open(out / "report.tsv", "w", encoding="utf-8") as fh:
        fh.write("\n".join(report_table_lines(reports)) + "\n")
    with open(out / "samples.jsonl", "w", encoding="utf-8") as fh:
        for r in reports:
            for j in range(r.n_attacked):
                rec = {
                    "attack": r.name,
                    "row": int(r.indices[j]),
                    "success": bool(r.success[j]),
                    "phi": float(r.phi[j]),
                    "linf": float(r.linf[j]),
                    "breakdown": [float(v) for v in r.breakdown[j]],
                }
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
