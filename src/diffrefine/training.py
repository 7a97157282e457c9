"""Optimization of feed-forward nets: losses, Adam, training loops.

Loss kinds
    mse    mean squared error per output entry
    eps    identical arithmetic to mse, tagged for noise-prediction
    pinn   mse plus a squared-potential penalty on denormalized outputs
    bce    sigmoid + binary cross-entropy on a single logit column

Gradients flow through the hand-written backward pass of the network;
training is deterministic given the config seed.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .errors import ConfigError, DimensionMismatchError, NonFiniteLossError, dataclass_from_config
from .network import FeedForwardNet, _sigmoid
from .numerics import Rng


@dataclass(frozen=True)
class TrainConfig:
    epochs: int = 100
    batch_size: int = 64
    lr: float = 1e-3
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    seed: int = 0
    loss: str = "mse"
    pinn_weight: float = 0.0

    def __post_init__(self):
        if self.epochs < 1 or self.batch_size < 1:
            raise ConfigError("epochs and batch_size must be positive")
        if self.lr <= 0:
            raise ConfigError("lr must be positive")
        if self.loss not in ("mse", "eps", "pinn", "bce"):
            raise ConfigError(f"unknown loss {self.loss!r}")
        if self.loss == "pinn" and self.pinn_weight < 0:
            raise ConfigError("pinn_weight must be non-negative")

    def to_config(self) -> dict:
        return asdict(self)

    @classmethod
    def from_config(cls, cfg: dict) -> "TrainConfig":
        return dataclass_from_config(cls, cfg, "train")


@dataclass(frozen=True)
class Normalizer:
    """Per-coordinate affine map to zero mean and unit scale."""

    mean: np.ndarray
    std: np.ndarray

    @classmethod
    def fit(cls, data: np.ndarray) -> "Normalizer":
        data = np.asarray(data, dtype=float)
        mean = data.mean(axis=0)
        std = data.std(axis=0)
        std = np.where(std < 1e-8, 1.0, std)
        return cls(mean=mean, std=std)

    @classmethod
    def identity(cls, dim: int) -> "Normalizer":
        return cls(mean=np.zeros(dim), std=np.ones(dim))

    def encode(self, x):
        return (np.asarray(x, dtype=float) - self.mean) / self.std

    def decode(self, z):
        return self.mean + self.std * np.asarray(z, dtype=float)


class Adam:
    """Standard Adam over a flat parameter vector, updated in place."""

    def __init__(self, n_params: int, lr: float, beta1: float = 0.9, beta2: float = 0.999, eps: float = 1e-8):
        self.lr = lr
        self.beta1 = beta1
        self.beta2 = beta2
        self.eps = eps
        self.m = np.zeros(n_params)
        self.v = np.zeros(n_params)
        self.t = 0
        self._step = np.empty(n_params)
        self._denom = np.empty(n_params)

    def step(self, params: np.ndarray, grads: np.ndarray) -> None:
        """params -= lr * m_hat / (sqrt(v_hat) + eps), with each product
        and sum evaluated in the order of that formula."""
        self.t += 1
        step, denom = self._step, self._denom
        self.m *= self.beta1
        np.multiply(grads, 1.0 - self.beta1, out=step)
        self.m += step
        self.v *= self.beta2
        np.multiply(grads, 1.0 - self.beta2, out=denom)
        denom *= grads
        self.v += denom
        np.divide(self.v, 1.0 - self.beta2**self.t, out=denom)
        np.sqrt(denom, out=denom)
        denom += self.eps
        np.divide(self.m, 1.0 - self.beta1**self.t, out=step)
        step *= self.lr
        step /= denom
        params -= step


def loss_and_output_grad(kind, y_pred, y_true, pinn_penalty=None, pinn_weight=0.0, row_ids=None):
    """Scalar loss and d(loss)/d(output) for one batch.

    For "pinn", ``pinn_penalty`` maps (decoded predictions, row ids)
    to per-row potential values and gradients in normalized output
    coordinates; the penalty term is the squared potential averaged
    over the batch.
    """
    n = y_pred.shape[0]
    if y_true.shape != y_pred.shape:
        raise DimensionMismatchError(
            f"targets shape {y_true.shape} does not match outputs {y_pred.shape}"
        )
    if kind in ("mse", "eps", "pinn"):
        diff = y_pred - y_true
        loss = float(np.mean(diff * diff))
        d_out = 2.0 * diff / diff.size
        if kind == "pinn" and pinn_penalty is not None and pinn_weight > 0.0:
            phi, phi_grad_norm = pinn_penalty(y_pred, row_ids)
            loss += pinn_weight * float(np.mean(phi * phi))
            d_out = d_out + pinn_weight * (2.0 * phi[:, None] * phi_grad_norm) / n
        return loss, d_out
    if kind == "bce":
        if y_pred.shape[1] != 1:
            raise DimensionMismatchError("bce expects a single logit column")
        z = y_pred[:, 0]
        y = y_true[:, 0]
        # log(1 + exp(-|z|)) keeps the loss finite for large logits
        loss = float(np.mean(np.maximum(z, 0.0) - z * y + np.log1p(np.exp(-np.abs(z)))))
        d_out = ((_sigmoid(z) - y) / n)[:, None]
        return loss, d_out
    raise ConfigError(f"unknown loss {kind!r}")


def backprop_grads(
    net, x, y, kind="mse", t=None, cond=None, pinn_penalty=None, pinn_weight=0.0, row_ids=None,
    grads=None, input_grad=True,
):
    """Loss, flat parameter gradient and input gradient for one batch.

    ``grads`` and ``input_grad`` are passed on to ``net.backward_batch``;
    without ``grads`` a new buffer is allocated for the gradient.
    """
    if grads is None:
        grads = np.empty_like(net.params)
    out, cache = net.forward_batch(x, t, cond, want_cache=True)
    loss, d_out = loss_and_output_grad(
        kind, out, np.asarray(y, dtype=float), pinn_penalty, pinn_weight, row_ids
    )
    grads, d_input = net.backward_batch(cache, d_out, grads, input_grad)
    return loss, grads, d_input


@dataclass
class TrainResult:
    net: FeedForwardNet
    history: np.ndarray  # mean training loss per epoch


def train_network(
    net: FeedForwardNet,
    x: np.ndarray,
    y: np.ndarray,
    cfg: TrainConfig,
    cond: np.ndarray | None = None,
    pinn_penalty=None,
) -> TrainResult:
    """Mini-batch Adam on (x, y); deterministic given cfg.seed.

    All arrays are expected pre-normalized by the caller.  Aborts with
    NonFiniteLossError (carrying the epoch) if the loss leaves the
    reals.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape[0] != y.shape[0]:
        raise DimensionMismatchError("x and y must have matching row counts")
    rng = Rng(cfg.seed).fork("shuffle")
    opt = Adam(net.param_count(), cfg.lr, cfg.beta1, cfg.beta2, cfg.adam_eps)
    grads = np.empty_like(net.params)
    history = []
    for epoch in range(cfg.epochs):
        history.append(
            train_epoch(
                net, opt, grads, rng.permutation(x.shape[0]), x, y, cfg.batch_size, cfg.loss,
                epoch, cond=cond, pinn_penalty=pinn_penalty, pinn_weight=cfg.pinn_weight,
            )
        )
    return TrainResult(net=net, history=np.array(history))


def train_epoch(
    net, opt, grads, order, x, y, batch_size, kind, epoch, t=None, cond=None,
    pinn_penalty=None, pinn_weight=0.0,
) -> float:
    """One Adam step per mini-batch of ``order``; returns the mean loss.

    ``t`` and ``cond`` are per-row like ``x``; ``grads`` is the flat
    gradient buffer.  Raises NonFiniteLossError (carrying ``epoch``) if
    a batch loss leaves the reals.
    """
    losses = []
    for lo in range(0, order.size, batch_size):
        idx = order[lo : lo + batch_size]
        loss, _, _ = backprop_grads(
            net, x[idx], y[idx], kind, t=None if t is None else t[idx],
            cond=None if cond is None else cond[idx], pinn_penalty=pinn_penalty,
            pinn_weight=pinn_weight, row_ids=idx, grads=grads, input_grad=False,
        )
        if not np.isfinite(loss):
            raise NonFiniteLossError("training loss became non-finite", epoch=epoch)
        opt.step(net.params, grads)
        losses.append(loss)
    return float(np.mean(losses))

