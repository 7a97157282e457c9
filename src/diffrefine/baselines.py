"""Classical optimizers on scalar potentials, plus a side-by-side
trajectory study against guided refinement.

Gradient descent and Newton iteration serve as reference methods on
the toy landscape: the first gets trapped by whichever basin contains
the start, the second walks to the nearest stationary point with no
regard for its type.  ``trajectory_comparison`` runs a set of starts
through both plus the diffusion refiner and labels where each run
ends up.
"""

from __future__ import annotations

import functools
import importlib.resources
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, SingularHessianError, SingularMatrixError
from .guidance import RefineConfig, Trajectory, refine
from .model_store import TrainedModel
from .numerics import as_vector, fd_hessian, map_row_chunks, require_finite, solve_linear
from .potentials import ConstraintPotential, locate_stationary_points

COMPARISON_METHODS = ("gd", "nr", "refine")
MAX_BACKTRACKS = 40
COMPARISON_TOL = 1e-6


@dataclass
class DescentResult:
    """Terminal state of a classical optimizer run.

    ``points`` holds every visited iterate, start first, so the row
    count is ``iterations + 1``.  ``saddle`` is set by the Newton
    variant when the terminal Hessian is indefinite.
    """

    x: np.ndarray
    points: np.ndarray
    phis: np.ndarray
    converged: bool
    iterations: int
    backtracks: int = 0
    saddle: bool = False

    def to_lines(self) -> list:
        """Same tab-separated layout as guided trajectories; the step
        length fills the dist column and the guidance-only columns
        hold nan."""
        lines = ["t\tphi\tgamma\tcos_angle\tdist"]
        for k in range(1, self.points.shape[0]):
            dist = float(np.linalg.norm(self.points[k] - self.points[k - 1]))
            lines.append(f"{k}\t{float(self.phis[k])!r}\tnan\tnan\t{dist!r}")
        return lines


@np.errstate(over="ignore")  # entered once per run: once per iteration cost 10% of toy speed
def gradient_descent(
    pot: ConstraintPotential,
    x0,
    step: float = 1e-4,
    iters: int = 10000,
    tol: float = 1e-6,
) -> DescentResult:
    """Fixed-step steepest descent with halving on any uphill move.

    Stops when the gradient norm drops below ``tol``, the iteration
    budget runs out, or MAX_BACKTRACKS halvings produce no descent.  A
    non-finite gradient or value ends the run with the trajectory
    collected so far instead of raising.  Overflow raises no numpy
    warning: a huge gradient's norm reads inf and fails the ``tol`` test.

    The loop runs on Python floats.  A potential with ``value_and_grad``
    yields the value and gradient of each trial point from one
    evaluation; any other is asked for values at trial points and for
    the gradient once a point is accepted.
    """
    if step < 0:
        raise ConfigError(f"step must be >= 0, got {step}")
    x = as_vector(x0, "x0")
    require_finite(x, "x0")
    evaluate = getattr(pot, "value_and_grad", None) or _value_only(pot)
    x = x.tolist()
    phi, g = evaluate(x)
    points = [x]
    phis = [phi]
    converged = False
    backtracks = 0
    if step == 0:
        iters = 0
    while True:
        if g is None or not _all_finite(g):
            # pot.grad decides at a non-finite point, raising where it raises
            g = np.asarray(pot.grad(np.array(x)), dtype=float).tolist()
            if not _all_finite(g):
                break
        ga = np.array(g)
        if math.sqrt(ga.dot(ga)) < tol:  # the same bits as np.linalg.norm
            converged = True
            break
        if len(points) > iters:
            break
        s = step
        for halvings in range(MAX_BACKTRACKS + 1):
            trial = [xi - s * gi for xi, gi in zip(x, g)]
            phi_trial, g_trial = evaluate(trial)
            if math.isfinite(phi_trial) and not phi_trial > phi:
                break
            s *= 0.5
        else:
            backtracks += MAX_BACKTRACKS
            break  # no descent available at any step size
        backtracks += halvings
        x, phi, g = trial, phi_trial, g_trial
        points.append(x)
        phis.append(phi)
    return DescentResult(
        x=np.array(x),
        points=np.array(points),
        phis=np.array(phis),
        converged=converged,
        iterations=len(points) - 1,
        backtracks=backtracks,
    )


def _value_only(pot: ConstraintPotential):
    def evaluate(x):
        with np.errstate(over="ignore", invalid="ignore"):
            return float(pot.value(np.array(x))), None

    return evaluate


def _all_finite(g: list) -> bool:
    return all(map(math.isfinite, g))


def _is_indefinite(hessian: np.ndarray) -> bool:
    eigs = np.linalg.eigvalsh(hessian)
    floor = 1e-8 * max(1.0, float(np.abs(eigs).max()))
    return bool(eigs.min() < -floor and eigs.max() > floor)


@np.errstate(over="ignore")  # once per run, as in gradient_descent
def newton_raphson_scalar(
    pot: ConstraintPotential,
    x0,
    iters: int = 100,
    tol: float = 1e-8,
) -> DescentResult:
    """Newton iteration on the gradient field of a scalar potential.

    The Hessian comes from central differences of the analytic
    gradient.  The iteration walks to whichever stationary point is
    nearby; ``saddle`` reports an indefinite terminal Hessian.  Overflow
    raises no numpy warning: a huge gradient's norm reads inf and fails
    the ``tol`` test.
    """
    x = as_vector(x0, "x0")
    require_finite(x, "x0")
    points = [x.copy()]
    phis = [float(pot.value(x))]
    converged = False
    for _ in range(iters):
        g = np.asarray(pot.grad(x), dtype=float)
        if not np.all(np.isfinite(g)):
            break
        if float(np.linalg.norm(g)) < tol:
            converged = True
            break
        hessian = fd_hessian(pot.grad, x, 1e-4)
        try:
            direction = solve_linear(hessian, g)
        except SingularMatrixError as err:
            raise SingularHessianError(str(err)) from err
        x = x - direction
        if not np.all(np.isfinite(x)):
            x = points[-1].copy()
            break
        points.append(x.copy())
        phis.append(float(pot.value(x)))
    else:
        g = np.asarray(pot.grad(x), dtype=float)
        converged = bool(np.all(np.isfinite(g)) and np.linalg.norm(g) < tol)
    try:
        saddle = _is_indefinite(fd_hessian(pot.grad, x, 1e-4))
    except Exception:  # terminal point in a non-finite region
        saddle = False
    return DescentResult(
        x=x,
        points=np.array(points),
        phis=np.array(phis),
        converged=converged,
        iterations=len(points) - 1,
        saddle=saddle,
    )


def load_toy_demo(path=None) -> dict:
    """Shipped demo recipe: start points, refinement knobs, model spec."""
    if path is not None:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    ref = importlib.resources.files("diffrefine") / "data" / "toy_demo.json"
    return json.loads(ref.read_text(encoding="utf-8"))


def build_toy_setup(demo: dict | None = None):
    """Train the toy landscape prior described by a demo recipe.

    Returns (pot, model, refine_cfg, starts) where starts maps the
    demo's start groups to float arrays.  The prior trains on warm
    in-box samples so its denoiser is informative across all basins.
    """
    from .diffusion import make_schedule, train_noise_model
    from .potentials import WORKING_BOX, muller_brown_potential, sample_manifold_dataset
    from .training import TrainConfig

    if demo is None:
        demo = load_toy_demo()
    try:
        m = demo["model"]
        pot = muller_brown_potential(margin=float(m["margin"]))
        data = sample_manifold_dataset(
            pot,
            WORKING_BOX,
            n=int(m["n_samples"]),
            kT=float(m["kT"]),
            seed=int(m["sample_seed"]),
        )
        schedule = make_schedule(
            int(m["schedule"]["T"]),
            float(m["schedule"]["beta_min"]),
            float(m["schedule"]["beta_max"]),
        )
        model = train_noise_model(
            data,
            schedule,
            TrainConfig.from_config(m["train"]),
            hidden=tuple(m["hidden"]),
            time_dim=int(m["time_dim"]),
        )
        refine_cfg = RefineConfig(**demo["refine"])
        starts = {k: np.asarray(v, dtype=float) for k, v in demo["starts"].items()}
    except (KeyError, TypeError) as exc:
        raise ConfigError(f"malformed toy demo recipe: {exc}") from exc
    return pot, model, refine_cfg, starts


@dataclass(frozen=True)
class BasinAnchor:
    label: str
    point: np.ndarray
    value: float


def stationary_anchors() -> tuple:
    """Labeled stationary points of the toy landscape.

    Minima get ``global`` / ``local-1`` / ``local-2`` in ascending
    value order; every saddle is labeled ``saddle``.
    """
    points = locate_stationary_points()
    minima = [s for s in points if s.kind == "minimum"]
    saddles = [s for s in points if s.kind == "saddle"]
    anchors = []
    for i, m in enumerate(minima):
        label = "global" if i == 0 else f"local-{i}"
        anchors.append(BasinAnchor(label, np.array(m.location), m.value))
    for s in saddles:
        anchors.append(BasinAnchor("saddle", np.array(s.location), s.value))
    return tuple(anchors)


def label_point(x, anchors) -> str:
    """Nearest-anchor label within 0.2, else ``diverged``."""
    x = as_vector(x, "x")
    if not np.all(np.isfinite(x)):
        return "diverged"
    best = None
    best_dist = np.inf
    for anchor in anchors:
        dist = float(np.linalg.norm(x - anchor.point))
        if dist < best_dist:
            best, best_dist = anchor, dist
    if best is None or best_dist > 0.2:
        return "diverged"
    return best.label


@dataclass
class ComparisonRow:
    start: np.ndarray
    method: str
    x_final: np.ndarray
    phi_final: float
    label: str
    steps: int
    saddle: bool
    trajectory: DescentResult | Trajectory = field(repr=False)


@dataclass
class ComparisonTable:
    rows: list = field(default_factory=list)

    def to_lines(self) -> list:
        lines = ["start_x\tstart_y\tmethod\tend_x\tend_y\tphi\tlabel\tsteps\tsaddle"]
        for r in self.rows:
            lines.append(
                f"{float(r.start[0])!r}\t{float(r.start[1])!r}\t{r.method}\t"
                f"{float(r.x_final[0])!r}\t{float(r.x_final[1])!r}\t{r.phi_final!r}\t"
                f"{r.label}\t{r.steps}\t{int(r.saddle)}"
            )
        return lines


def trajectory_comparison(
    pot: ConstraintPotential,
    starts,
    methods=COMPARISON_METHODS,
    model: TrainedModel | None = None,
    refine_cfg: RefineConfig | None = None,
    gd_iters: int = 20000,
) -> ComparisonTable:
    """Run each start through the selected methods and label outcomes.

    ``refine`` needs a trained noise model and a refinement config; the
    classical methods run on the potential alone and stop at a gradient
    norm of COMPARISON_TOL.  ``label_point`` names where each run ends.
    """
    starts = np.atleast_2d(np.asarray(starts, dtype=float))
    for m in methods:
        if m not in COMPARISON_METHODS:
            raise ConfigError(
                f"unknown method {m!r}; choose from {COMPARISON_METHODS}"
            )
    if "refine" in methods and (model is None or refine_cfg is None):
        raise ConfigError("the refine method needs a trained model and a config")
    anchors = stationary_anchors()

    table = ComparisonTable()
    for start in starts:
        for method in methods:
            saddle = False
            if method == "gd":
                run = gradient_descent(pot, start, iters=gd_iters, tol=COMPARISON_TOL)
                x_final, steps = run.x, run.iterations
            elif method == "nr":
                run = newton_raphson_scalar(pot, start, tol=COMPARISON_TOL)
                x_final, steps, saddle = run.x, run.iterations, run.saddle
            else:
                out = refine(start, pot, model, refine_cfg)
                run = out.trajectory
                x_final, steps = out.x, len(run.steps)
            phi_final = float(pot.value(x_final)) if np.all(np.isfinite(x_final)) else float("inf")
            table.rows.append(
                ComparisonRow(
                    start=start.copy(),
                    method=method,
                    x_final=np.asarray(x_final, dtype=float),
                    phi_final=phi_final,
                    label=label_point(x_final, anchors),
                    steps=steps,
                    saddle=saddle,
                    trajectory=run,
                )
            )
    return table


# ---------------------------------------------------------------------------
# Power-flow predictors: supervised estimator, physics-penalized
# variant, conditional prior, and batch refinement.
# ---------------------------------------------------------------------------

ESTIMATOR_TRAIN = dict(epochs=60, batch_size=64, lr=1e-3, seed=101)
PINN_WEIGHT = 1.0
PRIOR_TRAIN = dict(epochs=200, batch_size=64, lr=1e-3, seed=77, loss="eps")
PRIOR_SCHEDULE = dict(T=100, beta_min=1e-4, beta_max=0.02)
POWER_REFINE = RefineConfig(steps=12, start_step=12, lam=1e6)


def scenario_penalty(case, features, y_norm, ybus=None):
    """Physics-penalty hook for the pinn loss kind.

    Maps a batch of normalized predictions plus their dataset row ids
    to the per-row mismatch residual norm and its gradient, expressed
    in normalized output coordinates.  Each row is scored under its
    own injection spec (the matching feature row).  The trainer
    squares the attached scalar, so the effective penalty is the plain
    mean sum of squared mismatches; attaching the sum of squares
    itself would make the penalty quartic in the residuals, which
    trains far worse on the larger case.
    """
    from .powerflow import build_ybus
    from .powerflow.solver import grid_residual_grad

    features = np.asarray(features, dtype=float)
    if ybus is None:
        ybus = build_ybus(case)

    def penalty(y_pred_norm, row_ids):
        x = y_norm.decode(y_pred_norm)
        rows = features[row_ids]
        f, grad_phi = grid_residual_grad(case, ybus, x, rows)
        nrm = np.sqrt(np.sum(f * f, axis=1))
        dnrm = grad_phi / (2.0 * np.maximum(nrm, 1e-12)[:, None])
        return nrm, dnrm * y_norm.std[None, :]

    return penalty


def _fit_estimator(case, ds, cfg, hidden, pinn: bool):
    from .network import FeedForwardNet, NetSpec
    from .numerics import Rng
    from .training import Normalizer, TrainConfig, train_network

    if cfg is None:
        cfg = TrainConfig(
            loss="pinn" if pinn else "mse",
            pinn_weight=PINN_WEIGHT if pinn else 0.0,
            **ESTIMATOR_TRAIN,
        )
    want = "pinn" if pinn else "mse"
    if cfg.loss != want:
        raise ConfigError(f"estimator training needs the {want!r} loss, got {cfg.loss!r}")
    x_norm = Normalizer.fit(ds.train.features)
    y_norm = Normalizer.fit(ds.train.targets)
    spec = NetSpec(x_dim=case.n_unknowns, hidden=tuple(hidden), out_dim=case.n_unknowns)
    net = FeedForwardNet.init(spec, Rng(cfg.seed).fork("init"))
    penalty = scenario_penalty(case, ds.train.features, y_norm) if pinn else None
    result = train_network(
        net,
        x_norm.encode(ds.train.features),
        y_norm.encode(ds.train.targets),
        cfg,
        pinn_penalty=penalty,
    )
    return TrainedModel(
        kind="pinn" if pinn else "estimator",
        net=net,
        x_norm=x_norm,
        y_norm=y_norm,
        seed=cfg.seed,
        train_config=cfg.to_config(),
        loss_history=result.history,
    )


def train_power_estimator(case, ds, cfg=None, hidden=(64, 64)) -> TrainedModel:
    """Supervised injections-to-state regressor."""
    return _fit_estimator(case, ds, cfg, hidden, pinn=False)


def train_power_pinn(case, ds, cfg=None, hidden=(64, 64)) -> TrainedModel:
    """Same regressor trained with the squared-potential penalty."""
    return _fit_estimator(case, ds, cfg, hidden, pinn=True)


def train_power_prior(
    case, ds, schedule=None, cfg=None, hidden=(128, 128), time_dim=16
) -> TrainedModel:
    """Noise model over solved states, conditioned on the injections."""
    from .diffusion import make_schedule, train_noise_model
    from .training import TrainConfig

    if schedule is None:
        schedule = make_schedule(**PRIOR_SCHEDULE)
    if cfg is None:
        cfg = TrainConfig(**PRIOR_TRAIN)
    return train_noise_model(
        ds.train.targets,
        schedule,
        cfg,
        conditions=ds.train.features,
        hidden=tuple(hidden),
        time_dim=time_dim,
    )


def _refine_power_chunk(case, ybus, prior, cfg, predictions, features) -> np.ndarray:
    from .powerflow import KirchhoffPotential, injections_from_features

    out = np.empty_like(predictions)
    for i in range(predictions.shape[0]):
        pot = KirchhoffPotential(case, ybus, injections_from_features(case, features[i]))
        out[i] = refine(predictions[i], pot, prior, cfg, condition=features[i]).x
    return out


def refine_power_batch(
    case, prior: TrainedModel, predictions, features, cfg: RefineConfig | None = None,
    ybus=None, workers: int = 1,
) -> np.ndarray:
    """Guided refinement of a prediction batch, one scenario per row."""
    from .powerflow import build_ybus

    predictions = np.asarray(predictions, dtype=float)
    features = np.asarray(features, dtype=float)
    if predictions.shape[0] != features.shape[0]:
        raise ConfigError("predictions and features row counts differ")
    if cfg is None:
        cfg = POWER_REFINE
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    if ybus is None:
        ybus = build_ybus(case)
    chunk = functools.partial(_refine_power_chunk, case, ybus, prior, cfg)
    return map_row_chunks(chunk, (predictions, features), workers)


@dataclass
class PowerTrackRow:
    method: str
    mse: float
    mapm_mw: float
    mrpm_mvar: float


@dataclass
class PowerTrackReport:
    """Side-by-side test metrics for the grid prediction methods."""

    case_name: str
    rows: list
    improved_fraction: float  # rows where refinement lowered the peak P mismatch

    def row(self, method: str) -> PowerTrackRow:
        for r in self.rows:
            if r.method == method:
                return r
        raise KeyError(method)

    def to_lines(self) -> list:
        out = ["method\tmse\tmapm_mw\tmrpm_mvar"]
        for r in self.rows:
            out.append(f"{r.method}\t{r.mse!r}\t{r.mapm_mw!r}\t{r.mrpm_mvar!r}")
        return out


def power_track_report(
    case, ds, base: TrainedModel, prior: TrainedModel,
    pinn: TrainedModel | None = None, cfg: RefineConfig | None = None,
    workers: int = 1, split: str = "test",
) -> PowerTrackReport:
    """Score base, optional pinn, and refined predictions on one split."""
    from .powerflow import build_ybus, evaluate

    use = getattr(ds, split)
    ybus = build_ybus(case)
    rows = []
    pred_base = base.predict(use.features)
    rep_base = evaluate(case, pred_base, use.targets, use.features, ybus=ybus, norm=base.y_norm)
    rows.append(PowerTrackRow("base", rep_base.mean_mse, rep_base.mean_mapm, rep_base.mean_mrpm))
    if pinn is not None:
        rep_pinn = evaluate(
            case, pinn.predict(use.features), use.targets, use.features, ybus=ybus, norm=base.y_norm
        )
        rows.append(PowerTrackRow("pinn", rep_pinn.mean_mse, rep_pinn.mean_mapm, rep_pinn.mean_mrpm))
    refined = refine_power_batch(case, prior, pred_base, use.features, cfg=cfg, ybus=ybus, workers=workers)
    rep_ref = evaluate(case, refined, use.targets, use.features, ybus=ybus, norm=base.y_norm)
    rows.append(PowerTrackRow("refined", rep_ref.mean_mse, rep_ref.mean_mapm, rep_ref.mean_mrpm))
    improved = float(np.mean(rep_ref.mapm < rep_base.mapm))
    return PowerTrackReport(case_name=case.name, rows=rows, improved_fraction=improved)
