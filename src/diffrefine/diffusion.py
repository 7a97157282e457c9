"""Noise schedules, corruption, and deterministic denoising steps.

The forward process mixes a clean vector with Gaussian noise,
x_t = sqrt(abar_t) x0 + sqrt(1 - abar_t) eps, where abar is the
running product of per-step retention factors.  The reverse step is
the deterministic non-Markovian (DDIM) update driven by a noise
estimate: it carries the estimated noise through the direction term,
so with the true noise it inverts the forward map exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, DegenerateAlphaError, DimensionMismatchError
from .model_store import TrainedModel
from .network import FeedForwardNet, NetSpec
from .numerics import Rng, require_finite
from .training import Adam, Normalizer, TrainConfig, train_epoch

ALPHA_BAR_FLOOR = 1e-12


@dataclass(frozen=True)
class NoiseSchedule:
    """Per-step noise rates and their cumulative products.

    betas has length T; alpha_bars has length T + 1 with the index-0
    entry pinned to one, so alpha_bar(t) is meaningful for t in
    [0, T] and the t = 1 -> 0 transition needs no special casing.
    """

    betas: np.ndarray
    alphas: np.ndarray
    alpha_bars: np.ndarray

    @classmethod
    def from_betas(cls, betas) -> "NoiseSchedule":
        betas = np.asarray(betas, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ConfigError("betas must be a non-empty one-dimensional array")
        if (betas <= 0.0).any() or (betas >= 1.0).any():
            raise ConfigError("every beta must lie strictly inside (0, 1)")
        alphas = 1.0 - betas
        alpha_bars = np.concatenate([[1.0], np.cumprod(alphas)])
        return cls(betas=betas, alphas=alphas, alpha_bars=alpha_bars)

    @property
    def T(self) -> int:
        return int(self.betas.size)

    def alpha_bar(self, t: int) -> float:
        if not 0 <= t <= self.T:
            raise ConfigError(f"step {t} outside [0, {self.T}]")
        return float(self.alpha_bars[t])


def make_schedule(T: int, beta_min: float = 1e-4, beta_max: float = 0.02) -> NoiseSchedule:
    """Build a T-step schedule with betas rising linearly from beta_min
    to beta_max."""
    if T < 1:
        raise ConfigError("T must be at least 1")
    if not (0.0 < beta_min <= beta_max < 1.0):
        raise ConfigError("need 0 < beta_min <= beta_max < 1")
    return NoiseSchedule.from_betas(np.linspace(beta_min, beta_max, T))


def forward_noise(x0, t: int, eps, schedule: NoiseSchedule) -> np.ndarray:
    """Corrupt x0 to step t with the provided noise draw."""
    x0 = np.asarray(x0, dtype=float)
    eps = np.asarray(eps, dtype=float)
    if x0.shape != eps.shape:
        raise DimensionMismatchError("x0 and eps must have identical shapes")
    if not 1 <= t <= schedule.T:
        raise ConfigError(f"step {t} outside [1, {schedule.T}]")
    ab = schedule.alpha_bar(t)
    return np.sqrt(ab) * x0 + np.sqrt(1.0 - ab) * eps


def estimate_x0(x_t, t: int, eps_hat, schedule: NoiseSchedule) -> np.ndarray:
    """Invert the forward mixing under a noise estimate."""
    x_t = np.asarray(x_t, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)
    if x_t.shape != eps_hat.shape:
        raise DimensionMismatchError("x_t and eps_hat must have identical shapes")
    ab = schedule.alpha_bar(t)
    if ab < ALPHA_BAR_FLOOR:
        raise DegenerateAlphaError(f"alpha_bar({t}) = {ab:.3e} too small to invert")
    # math.sqrt is correctly rounded, like np.sqrt, at less cost per call
    return (x_t - math.sqrt(1.0 - ab) * eps_hat) / math.sqrt(ab)


def ddim_step(
    x_t,
    t: int,
    eps_hat,
    schedule: NoiseSchedule,
    t_prev: int | None = None,
    x0_hat=None,
) -> np.ndarray:
    """One deterministic reverse transition t -> t_prev (default t - 1).

    t_prev may skip levels, which is how a short trajectory covers the
    whole schedule.  A caller that already holds
    ``estimate_x0(x_t, t, eps_hat, schedule)`` passes it as ``x0_hat``.
    """
    if t_prev is None:
        t_prev = t - 1
    if not 0 <= t_prev < t <= schedule.T:
        raise ConfigError(f"invalid transition {t} -> {t_prev}")
    x_t = np.asarray(x_t, dtype=float)
    eps_hat = np.asarray(eps_hat, dtype=float)
    if x0_hat is None:
        x0_hat = estimate_x0(x_t, t, eps_hat, schedule)
    ab_p = schedule.alpha_bar(t_prev)
    out = math.sqrt(ab_p) * x0_hat + math.sqrt(max(1.0 - ab_p, 0.0)) * eps_hat
    require_finite(out, "ddim step")
    return out


# ---------------------------------------------------------------------------
# Noise-estimator training.
# ---------------------------------------------------------------------------

def _noised_draws(rng: Rng, z: np.ndarray, schedule: NoiseSchedule):
    """One (step, noise) draw per row of z, and the rows corrupted by it."""
    ts = rng.integers(1, schedule.T + 1, size=z.shape[0])
    eps = rng.normal(z.shape)
    ab = schedule.alpha_bars[ts]
    return ts, eps, np.sqrt(ab)[:, None] * z + np.sqrt(1.0 - ab)[:, None] * eps


def train_noise_model(
    data: np.ndarray,
    schedule: NoiseSchedule,
    cfg: TrainConfig,
    conditions: np.ndarray | None = None,
    hidden: tuple = (128, 128),
    time_dim: int = 16,
) -> TrainedModel:
    """Fit a noise estimator to samples (optionally conditioned).

    Data and conditions are z-scored internally and the statistics are
    stored on the artifact.  Each epoch draws one fresh (step, noise)
    pair per example.  Validation uses a held-out tenth of the rows
    with a frozen set of draws; the final value lands in
    extra["val_eps_mse"].
    """
    data = np.asarray(data, dtype=float)
    if data.ndim != 2:
        raise DimensionMismatchError("data must be (n, dim)")
    n, dim = data.shape
    y_norm = Normalizer.fit(data)
    z = y_norm.encode(data)
    cond_dim = 0
    c_all = None
    x_norm = Normalizer.identity(0)
    if conditions is not None:
        conditions = np.asarray(conditions, dtype=float)
        if conditions.shape[0] != n:
            raise DimensionMismatchError("conditions must match data rows")
        cond_dim = conditions.shape[1]
        x_norm = Normalizer.fit(conditions)
        c_all = x_norm.encode(conditions)

    rng = Rng(cfg.seed)
    n_val = int(round(n * 0.1))
    perm = rng.fork("split").permutation(n)
    val_idx = perm[:n_val]
    trn_idx = perm[n_val:]
    z_trn = z[trn_idx]
    c_trn = c_all[trn_idx] if c_all is not None else None
    n_trn = z_trn.shape[0]

    spec = NetSpec(
        x_dim=dim,
        hidden=tuple(hidden),
        out_dim=dim,
        time_dim=time_dim,
        cond_dim=cond_dim,
        skips=True,
        final_zero=True,
    )
    net = FeedForwardNet.init(spec, rng.fork("init"))
    opt = Adam(net.param_count(), cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    grads = np.empty_like(net.params)
    draw = rng.fork("draws")
    shuffle = rng.fork("shuffle")
    history = []
    for epoch in range(cfg.epochs):
        order = shuffle.permutation(n_trn)
        ts, eps, x_noised = _noised_draws(draw, z_trn, schedule)
        history.append(
            train_epoch(net, opt, grads, order, x_noised, eps, cfg.batch_size, "eps", epoch,
                        t=ts, cond=c_trn)
        )

    extra = {"schedule_betas": schedule.betas}
    if n_val:
        ts, eps, x_noised = _noised_draws(Rng(cfg.seed).fork("val-draws"), z[val_idx], schedule)
        batch_cond = c_all[val_idx] if c_all is not None else None
        pred = net.forward(x_noised, t=ts, cond=batch_cond)
        extra["val_eps_mse"] = float(np.mean((pred - eps) ** 2))

    return TrainedModel(
        kind="noise",
        net=net,
        x_norm=x_norm,
        y_norm=y_norm,
        seed=cfg.seed,
        train_config=cfg.to_config(),
        loss_history=np.array(history),
        extra=extra,
    )


def model_schedule(model: TrainedModel) -> NoiseSchedule:
    if "schedule_betas" not in model.extra:
        raise ConfigError("model carries no noise schedule")
    return NoiseSchedule.from_betas(np.asarray(model.extra["schedule_betas"], dtype=float))


def generate(
    model: TrainedModel,
    n: int,
    rng: Rng,
    conditions: np.ndarray | None = None,
) -> np.ndarray:
    """Sample by running the full reverse chain from standard noise.

    Used by sanity tests; refinement starts from a prediction instead
    and lives in the guidance module.
    """
    schedule = model_schedule(model)
    dim = model.net.spec.x_dim
    z = rng.normal((n, dim))
    c = None
    if conditions is not None:
        c = model.x_norm.encode(np.asarray(conditions, dtype=float))
    for t in range(schedule.T, 0, -1):
        eps_hat = model.net.forward(z, t=np.full(n, t), cond=c)
        z = ddim_step(z, t, eps_hat, schedule)
    return model.y_norm.decode(z)
