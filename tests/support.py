"""Helpers that only the tests use.

Two potentials with trivial kernels, for driving guidance and the
derived ``ConstraintPotential`` methods in isolation, and full-chain
sampling from a noise model, which refinement never runs (it starts
from a prediction).
"""

from typing import Callable

import numpy as np

from diffrefine.diffusion import ddim_step, model_schedule
from diffrefine.model_store import TrainedModel
from diffrefine.numerics import Rng
from diffrefine.potentials import ConstraintPotential


class ZeroPotential(ConstraintPotential):
    """Identically zero; useful as a guidance no-op."""

    def __init__(self, dim: int):
        self.dim = dim

    def value_batch(self, xs) -> np.ndarray:
        return np.zeros(len(xs))

    def value_and_grad_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        return np.zeros(xs.shape[0]), np.zeros_like(xs)


class CallablePotential(ConstraintPotential):
    """Adapter wrapping plain value/grad callables, called once per row."""

    def __init__(self, dim: int, value_fn: Callable, grad_fn: Callable):
        self.dim = dim
        self._value = value_fn
        self._grad = grad_fn

    def value_batch(self, xs) -> np.ndarray:
        return np.array([float(self._value(row)) for row in np.asarray(xs, dtype=float)])

    def value_and_grad_batch(self, xs):
        xs = np.asarray(xs, dtype=float)
        g = [np.asarray(self._grad(row), dtype=float) for row in xs]
        return self.value_batch(xs), np.stack(g) if g else np.zeros_like(xs)


def generate(
    model: TrainedModel,
    n: int,
    rng: Rng,
    conditions: np.ndarray | None = None,
) -> np.ndarray:
    """Sample by running the full reverse chain from standard noise."""
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
