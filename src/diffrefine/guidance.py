"""Constraint-guided refinement of predictions along denoising paths.

Each reverse transition is corrected along the constraint descent
direction delta = -grad/||grad||.  The correction length gamma has a
closed form: it minimizes the proximal objective

    L(gamma) = || x' + gamma delta - x0_hat ||^2
               + lam * (phi + gamma grad . delta)^2

whose solution, using grad . delta = -||grad||, is

    gamma = (<r, delta> + lam * phi * ||grad||) / (1 + lam * ||grad||^2)

with r = x0_hat - x'.  With lam = 0 this reduces to the projection of
the denoising residual onto the descent direction, d * cos(theta).
The refinement loop runs the corrected deterministic transitions over
a decreasing subsequence of schedule steps, starting from the injected
prediction itself, and operates in normalized sample coordinates; the
potential is evaluated in physical coordinates through the chain rule.

There is one loop, ``refine_batch``, which refines a block of rows in
lockstep: one noise-model forward and one DDIM transition per level for
the whole block, and the potential, gamma, clip and step record per
row.  Each row keeps the bytes of its own refinement (the row-bit rule,
see ``refine_batch``).  ``refine`` is the loop on a block of one, and
``guided_step`` its step on one row.
"""

from __future__ import annotations

import math
import statistics
from dataclasses import asdict, dataclass, field

import numpy as np

from .diffusion import NoiseSchedule, ddim_transition, model_schedule
from .errors import (
    ConfigError,
    DimensionMismatchError,
    NonFiniteGradientError,
    dataclass_from_config,
)
from .model_store import TrainedModel
from .numerics import as_matrix, as_vector, require_finite
from .potentials import ConstraintPotential, NormalizedPotential

# Gradient norms at or below this skip the correction (flat or critical
# regions, where the descent direction is undefined).
GRAD_FLOOR = 1e-10


@dataclass(frozen=True)
class RefineConfig:
    """Knobs of the guided refinement loop.

    steps is the number of reverse transitions (0 means no-op);
    start_step the schedule index where the prediction is injected
    (None means the top of the chain); lam the weight of the
    constraint term in the correction length.
    """

    steps: int
    start_step: int | None = None
    lam: float = 0.0

    def __post_init__(self):
        if self.steps < 0:
            raise ConfigError("steps must be non-negative")
        if self.start_step is not None and self.start_step < 1:
            raise ConfigError("start_step must be at least 1")
        if self.lam < 0.0:
            raise ConfigError("lam must be non-negative")

    def to_config(self) -> dict:
        return asdict(self)

    @classmethod
    def from_config(cls, cfg: dict) -> "RefineConfig":
        return dataclass_from_config(cls, cfg, "refine")


@dataclass
class StepRecord:
    """Everything observable about one guided transition."""

    t: int
    t_prev: int
    gamma: float
    cos_angle: float
    dist: float
    phi: float
    grad_norm: float
    clipped: bool
    x_prev: np.ndarray
    x0_hat: np.ndarray
    delta: np.ndarray | None


@dataclass
class Trajectory:
    steps: list = field(default_factory=list)

    def to_lines(self) -> list:
        """One tab-separated line per step: t, phi, gamma, cos, dist."""
        lines = ["t\tphi\tgamma\tcos_angle\tdist"]
        for s in self.steps:
            lines.append(
                f"{s.t}\t{s.phi!r}\t{s.gamma!r}\t{s.cos_angle!r}\t{s.dist!r}"
            )
        return lines


def descent_direction(pot: ConstraintPotential, x):
    """Unit steepest-descent direction, or None at or below GRAD_FLOOR.

    Returns (delta, grad_norm, phi) from one evaluation of the
    potential's value and gradient at x: through its point protocol
    ``value_and_grad`` when it has one, else as a one-row batch.
    Raises NonFiniteGradientError when the gradient has non-finite
    entries.
    """
    x = np.asarray(x, dtype=float)
    point = getattr(pot, "value_and_grad", None)
    if point is not None:
        phi, g = point(x.tolist())
        g = np.array(g, dtype=float)
    else:
        phi, g = pot.value_and_grad_batch(x[None, :])
        phi, g = phi[0], g[0]
    if np.count_nonzero(np.isfinite(g)) != g.size:
        raise NonFiniteGradientError(f"potential gradient non-finite at {x}")
    norm = math.sqrt(g.dot(g))  # the bits of np.linalg.norm on a real vector
    phi = float(phi)
    if norm <= GRAD_FLOOR:
        return None, norm, phi
    return g / -norm, norm, phi  # the bits of -g / norm, one array operation fewer


def _gamma_and_dot(r, delta, phi, grad_norm, lam, clip):
    """Closed-form correction length (gamma, clipped), and <r, delta>,
    for vectors r and delta of one shape.

    Minimizes the proximal objective described in the module
    docstring.  The denominator 1 + lam * ||grad||^2 is at least one,
    so the expression is always well defined.
    """
    r_delta = float(r.dot(delta))
    gamma = (r_delta + lam * phi * grad_norm) / (1.0 + lam * grad_norm * grad_norm)
    clipped = False
    if clip is not None and abs(gamma) > clip:
        gamma = float(np.sign(gamma)) * clip
        clipped = True
    return gamma, clipped, r_delta


def guided_step(
    x_t,
    t: int,
    eps_hat,
    pot: ConstraintPotential,
    schedule: NoiseSchedule,
    cfg: RefineConfig,
    t_prev: int | None = None,
    clip: float | None = None,
):
    """One corrected reverse transition; returns (x_next, StepRecord).

    The plain transition runs first; the correction then moves the
    result along the descent direction of the potential evaluated at
    the transition output.  Below the gradient floor (flat or critical
    regions) the correction is skipped entirely.  This is the block
    step of ``refine_batch`` on a block of one row.
    """
    if t_prev is None:
        t_prev = t - 1
    x_t = as_vector(x_t, "x_t")
    x_next, (rec,) = _guided_rows(
        x_t[None, :], t, np.asarray(eps_hat, dtype=float)[None, :], [pot], schedule, cfg.lam,
        t_prev, [clip],
    )
    return x_next[0], rec


def _guided_rows(z, t, eps_hat, pots, schedule, lam, t_prev, clips):
    """The guided transition of every row of z (n, d); returns (x_next
    (n, d), one StepRecord per row).  One DDIM transition for the block,
    then, row by row, the one-row step against ``pots[k]`` with cap
    ``clips[k]``."""
    x0_hat, x_prev = ddim_transition(z, t, eps_hat, schedule, t_prev)
    r = x0_hat - x_prev
    x_next = x_prev.copy()  # a floor-skipped row keeps its transition output
    records = []
    for pot, r_k, xp_k, x0_k, row, clip in zip(pots, r, x_prev, x0_hat, x_next, clips):
        dist = math.sqrt(r_k.dot(r_k))
        delta, grad_norm, phi = descent_direction(pot, xp_k)
        if delta is None:
            records.append(StepRecord(
                t=t, t_prev=t_prev, gamma=0.0, cos_angle=0.0, dist=dist, phi=phi,
                grad_norm=grad_norm, clipped=False, x_prev=xp_k, x0_hat=x0_k, delta=None,
            ))
            continue
        gamma, clipped, r_delta = _gamma_and_dot(r_k, delta, phi, grad_norm, lam, clip)
        cos_angle = r_delta / dist if dist > 0.0 else 0.0
        row += gamma * delta
        require_finite(row, "guided step")
        records.append(StepRecord(
            t=t, t_prev=t_prev, gamma=gamma, cos_angle=cos_angle, dist=dist, phi=phi,
            grad_norm=grad_norm, clipped=clipped, x_prev=xp_k, x0_hat=x0_k, delta=delta,
        ))
    return x_next, records


def step_subsequence(start_step: int, steps: int) -> list:
    """Strictly decreasing schedule levels visited by the refinement.

    steps == start_step walks every level; fewer steps spread evenly
    from start_step down to 1.  The final transition always lands on
    level 0.
    """
    if steps > start_step:
        raise ConfigError(f"steps ({steps}) must not exceed start_step ({start_step})")
    if steps == 0:
        return []
    if steps == start_step:
        return list(range(start_step, 0, -1))
    levels = np.unique(np.round(np.linspace(start_step, 1, steps)).astype(int))[::-1]
    return [int(t) for t in levels]


@dataclass
class RefineResult:
    x: np.ndarray
    trajectory: Trajectory


def refine(
    x_init,
    pot: ConstraintPotential,
    model: TrainedModel,
    cfg: RefineConfig,
    condition=None,
) -> RefineResult:
    """Pull one prediction toward the constraint manifold: ``refine_batch``
    on a block of one row.

    x_init and the potential live in physical coordinates; the loop
    operates in the model's normalized sample space and the potential
    is viewed through the normalization chain rule.  The trajectory
    records per-step diagnostics in the normalized frame.  From the
    fourth step on, |gamma| is capped at ten times the running median
    of the earlier steps' distances to the clean estimate.
    """
    x_init = as_vector(x_init, "x_init")
    if condition is not None:
        condition = np.asarray(condition, dtype=float)[None, :]
    x, (trajectory,) = refine_batch(x_init[None, :], [pot], model, cfg, condition)
    return RefineResult(x=x[0], trajectory=trajectory)


def refine_batch(x_init, pots, model: TrainedModel, cfg: RefineConfig, condition=None):
    """Refine a block of predictions x_init (n, d) in lockstep; returns
    (x (n, d), one Trajectory per row).

    Row k is refined against ``pots[k]`` (pass ``[pot] * n`` for a
    shared potential) under ``condition[k]`` when the model is
    conditional, and gets the bytes of ``refine`` on that row alone,
    whatever n is and however a caller splits its rows.  At each level
    the block makes one forward of the noise model, whose layer products
    are ``numerics.row_products`` (a stack of one-row products; a
    many-row GEMM would round a row by its batch), and one DDIM
    transition on the (n, d) block, which is elementwise.  Everything
    that reads one row's state stays per row, in row order, with the
    one-row arithmetic: the potential through ``descent_direction``,
    gamma, the adaptive clip (a running median of that row's
    distances), the floor skip and the StepRecord.  A potential stays
    per row because the one-row Kirchhoff kernel is the one whose bytes
    the power-flow outputs keep; its many-row kernel sums in another
    order.  A row whose gradient turns non-finite raises
    NonFiniteGradientError for the block, as a loop over rows would.
    """
    x_init = as_matrix(x_init, "x_init")
    require_finite(x_init, "x_init")
    n = x_init.shape[0]
    if len(pots) != n:
        raise DimensionMismatchError(f"{len(pots)} potentials for {n} rows")
    trajectories = [Trajectory() for _ in range(n)]
    if cfg.steps == 0:
        return x_init.copy(), trajectories

    schedule = model_schedule(model)
    start = cfg.start_step if cfg.start_step is not None else schedule.T
    if start > schedule.T:
        raise ConfigError(f"start_step {start} exceeds schedule length {schedule.T}")
    levels = step_subsequence(start, cfg.steps)

    z = np.asarray(model.y_norm.encode(x_init), dtype=float)
    cond_norm = None
    if model.net.spec.cond_dim:
        if condition is None:
            raise ConfigError("model is conditional but no condition was given")
        cond_norm = np.asarray(model.x_norm.encode(condition), dtype=float)
    views = {}  # one normalized view per distinct potential
    for pot in pots:
        if id(pot) not in views:
            views[id(pot)] = NormalizedPotential(pot, model.y_norm.mean, model.y_norm.std)
    pots_norm = [views[id(pot)] for pot in pots]

    dists = [[] for _ in range(n)]
    for i, t in enumerate(levels):
        t_prev = levels[i + 1] if i + 1 < len(levels) else 0
        eps_hat = model.net.forward_batch(z, t=t, cond=cond_norm, rowbit=True)[0]
        # statistics.median takes the same (a + b) / 2 as np.median, at a
        # fraction of its per-call cost on a dozen floats.
        clips = [10.0 * statistics.median(d) for d in dists] if i >= 3 else [None] * n
        z, records = _guided_rows(z, t, eps_hat, pots_norm, schedule, cfg.lam, t_prev, clips)
        for d, trajectory, rec in zip(dists, trajectories, records):
            d.append(rec.dist)
            trajectory.steps.append(rec)

    return np.asarray(model.y_norm.decode(z), dtype=float), trajectories
