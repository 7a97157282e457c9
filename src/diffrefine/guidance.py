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
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass, field

import numpy as np

from .diffusion import NoiseSchedule, ddim_step, estimate_x0, model_schedule
from .errors import ConfigError, NonFiniteGradientError
from .model_store import TrainedModel
from .numerics import as_vector, require_finite
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
        return {"steps": self.steps, "start_step": self.start_step, "lam": self.lam}

    @classmethod
    def from_config(cls, cfg: dict) -> "RefineConfig":
        known = {f for f in cls.__dataclass_fields__}
        extra = set(cfg) - known
        if extra:
            raise ConfigError(f"unknown refine config keys: {sorted(extra)}")
        return cls(**cfg)


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
    potential's value and gradient at x.  Raises NonFiniteGradientError
    when the gradient has non-finite entries.
    """
    phi, g = pot.value_and_grad_batch(np.asarray(x, dtype=float)[None, :])
    g = g[0]
    if not np.isfinite(g).all():
        raise NonFiniteGradientError(f"potential gradient non-finite at {x}")
    norm = math.sqrt(g.dot(g))  # the bits of np.linalg.norm on a real vector
    phi = float(phi[0])
    if norm <= GRAD_FLOOR:
        return None, norm, phi
    return g / -norm, norm, phi  # the bits of -g / norm, one array operation fewer


def compute_gamma(
    r,
    delta,
    phi: float,
    grad_norm: float,
    lam: float = 0.0,
    clip: float | None = None,
):
    """Closed-form correction length; returns (gamma, clipped).

    Minimizes the proximal objective described in the module
    docstring.  The denominator 1 + lam * ||grad||^2 is at least one,
    so the expression is always well defined.
    """
    return _gamma_and_dot(r, delta, phi, grad_norm, lam, clip)[:2]


def _gamma_and_dot(r, delta, phi, grad_norm, lam, clip):
    """``compute_gamma``'s (gamma, clipped), and <r, delta>."""
    r = as_vector(r, "r")
    delta = as_vector(delta, "delta")
    if r.shape != delta.shape:
        raise ConfigError("r and delta must have matching shapes")
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
    regions) the correction is skipped entirely.
    """
    if t_prev is None:
        t_prev = t - 1
    x_t = as_vector(x_t, "x_t")
    x0_hat = estimate_x0(x_t, t, eps_hat, schedule)
    x_prev = ddim_step(x_t, t, eps_hat, schedule, t_prev=t_prev, x0_hat=x0_hat)
    r = x0_hat - x_prev
    dist = math.sqrt(r.dot(r))
    delta, grad_norm, phi = descent_direction(pot, x_prev)
    if delta is None:
        rec = StepRecord(
            t=t, t_prev=t_prev, gamma=0.0, cos_angle=0.0, dist=dist, phi=phi,
            grad_norm=grad_norm, clipped=False, x_prev=x_prev, x0_hat=x0_hat, delta=None,
        )
        return x_prev, rec
    gamma, clipped, r_delta = _gamma_and_dot(r, delta, phi, grad_norm, cfg.lam, clip)
    cos_angle = r_delta / dist if dist > 0.0 else 0.0
    x_next = x_prev + gamma * delta
    require_finite(x_next, "guided step")
    rec = StepRecord(
        t=t, t_prev=t_prev, gamma=gamma, cos_angle=cos_angle, dist=dist, phi=phi,
        grad_norm=grad_norm, clipped=clipped, x_prev=x_prev, x0_hat=x0_hat, delta=delta,
    )
    return x_next, rec


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
    """Pull a prediction toward the constraint manifold.

    x_init and the potential live in physical coordinates; the loop
    operates in the model's normalized sample space and the potential
    is viewed through the normalization chain rule.  The trajectory
    records per-step diagnostics in the normalized frame.  From the
    fourth step on, |gamma| is capped at ten times the running median
    of the earlier steps' distances to the clean estimate.
    """
    x_init = as_vector(x_init, "x_init")
    require_finite(x_init, "x_init")
    trajectory = Trajectory()
    if cfg.steps == 0:
        return RefineResult(x=x_init.copy(), trajectory=trajectory)

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
    pot_norm = NormalizedPotential(pot, model.y_norm.mean, model.y_norm.std)

    dists: list = []
    for i, t in enumerate(levels):
        t_prev = levels[i + 1] if i + 1 < len(levels) else 0
        eps_hat = model.net.forward(z, t=t, cond=cond_norm)
        # statistics.median takes the same (a + b) / 2 as np.median, at a
        # fraction of its per-call cost on a dozen floats.
        clip = 10.0 * statistics.median(dists) if len(dists) >= 3 else None
        z, rec = guided_step(z, t, eps_hat, pot_norm, schedule, cfg, t_prev=t_prev, clip=clip)
        dists.append(rec.dist)
        trajectory.steps.append(rec)

    return RefineResult(x=np.asarray(model.y_norm.decode(z), dtype=float), trajectory=trajectory)
