"""Dense linear algebra, derivative probes, seeded randomness, and the
process pool.

Everything numeric downstream funnels through here so the error
contracts (finiteness checks, singularity thresholds, seed handling)
live in one place.  Vectors and matrices are plain float64 numpy
arrays; public entry points validate shapes and reject non-finite
values instead of letting NaNs propagate silently.
"""

from __future__ import annotations

import hashlib
from functools import partial
from typing import Callable

import numpy as np

from .errors import (
    DimensionMismatchError,
    NonFiniteError,
    SingularMatrixError,
)

# Relative pivot threshold for the LU solve, scaled by the row-sum norm.
PIVOT_RTOL = 1e-12

_MASK64 = (1 << 64) - 1


def as_vector(x, name: str = "x") -> np.ndarray:
    arr = np.asarray(x, dtype=float)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def as_matrix(a, name: str = "a") -> np.ndarray:
    arr = np.asarray(a, dtype=float)
    if arr.ndim != 2:
        raise DimensionMismatchError(f"{name} must be two-dimensional, got shape {arr.shape}")
    return arr


def require_finite(arr, name: str = "value") -> np.ndarray:
    arr = np.asarray(arr)
    if not np.isfinite(arr).all():
        raise NonFiniteError(f"{name} contains a non-finite entry")
    return arr


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls
    below PIVOT_RTOL times the infinity norm of ``a``.  Written out
    rather than delegated so the singularity contract is explicit.
    """
    a = as_matrix(a, "a")
    b = as_vector(b, "b")
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"a must be square, got {a.shape}")
    if b.shape[0] != n:
        raise DimensionMismatchError(f"b has length {b.shape[0]}, expected {n}")
    require_finite(a, "a")
    require_finite(b, "b")
    if n == 0:
        return np.zeros(0)

    u = a.copy()
    x = b.copy()
    norm_a = float(np.abs(u).sum(axis=1).max())
    threshold = PIVOT_RTOL * max(norm_a, np.finfo(float).tiny)
    for k in range(n):
        p = k + int(np.argmax(np.abs(u[k:, k])))
        if abs(u[p, k]) < threshold:
            raise SingularMatrixError(
                f"pivot {abs(u[p, k]):.3e} below threshold {threshold:.3e} in column {k}"
            )
        if p != k:
            u[[k, p]] = u[[p, k]]
            x[[k, p]] = x[[p, k]]
        if k + 1 < n:
            mult = u[k + 1 :, k] / u[k, k]
            u[k + 1 :, k + 1 :] -= np.outer(mult, u[k, k + 1 :])
            x[k + 1 :] -= mult * x[k]
            u[k + 1 :, k] = 0.0
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - u[k, k + 1 :] @ x[k + 1 :]) / u[k, k]
    require_finite(x, "solution")
    return x


def finite_diff_grad(f: Callable, x, h: float | None = None) -> np.ndarray:
    """Central-difference gradient of a scalar function: its one-row
    ``finite_diff_jacobian``, flattened."""
    return finite_diff_jacobian(lambda y: [float(f(y))], x, h).ravel()


def finite_diff_jacobian(f: Callable, x, h: float | None = None) -> np.ndarray:
    """Central-difference Jacobian of a vector-valued function; raises
    NonFiniteError on a non-finite entry.  The default step is 1e-5
    scaled by max(1, ||x||_inf), between truncation and roundoff."""
    x = as_vector(x, "x")
    require_finite(x, "x")
    if h is None:
        scale = float(np.abs(x).max()) if x.size else 1.0
        h = 1e-5 * max(1.0, scale)
    cols = []
    for i in range(x.size):
        e = np.zeros_like(x)
        e[i] = h
        fp = np.asarray(f(x + e), dtype=float)
        fm = np.asarray(f(x - e), dtype=float)
        cols.append((fp - fm) / (2.0 * h))
    jac = np.stack(cols, axis=1) if cols else np.zeros((0, 0))
    require_finite(jac, "jacobian")
    return jac


def fd_hessian(grad: Callable, x, h: float) -> np.ndarray:
    """Symmetrized central-difference Hessian from a gradient at step ``h``."""
    jac = finite_diff_jacobian(grad, x, h)
    return 0.5 * (jac + jac.T)


def derive_seed(seed: int, label: str) -> int:
    """Derive a child seed from a parent seed and a text label.

    Stable across platforms and sessions: the child is the first eight
    bytes of sha256(f"{seed}/{label}") read big-endian.
    """
    digest = hashlib.sha256(f"{int(seed)}/{label}".encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


class Rng:
    """Deterministic random stream with explicit seed handling.

    Backed by numpy's PCG64 bit generator; normal deviates come from
    numpy's ziggurat implementation.  For a fixed numpy version the
    stream is a pure function of the seed, identical across runs and
    platforms.  ``fork`` derives an independent child stream from a
    text label so concurrent consumers never share state.
    """

    __slots__ = ("seed", "_gen")

    def __init__(self, seed: int):
        self.seed = int(seed) & _MASK64
        self._gen = np.random.Generator(np.random.PCG64(np.random.SeedSequence(self.seed)))

    def fork(self, label: str) -> "Rng":
        return Rng(derive_seed(self.seed, label))

    def random(self, size=None):
        return self._gen.random(size)

    def normal(self, size=None):
        return self._gen.standard_normal(size)

    def uniform(self, low: float = 0.0, high: float = 1.0, size=None):
        return self._gen.uniform(low, high, size)

    def integers(self, low: int, high: int, size=None):
        """Integers drawn from [low, high), matching range semantics."""
        return self._gen.integers(low, high, size=size)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed})"


def run_in_processes(calls, workers: int) -> list:
    """The results of ``calls`` (picklable callables taking no
    arguments) in order, run in at most ``workers`` worker processes,
    or here one after another when workers is 1."""
    if workers == 1:
        return [call() for call in calls]
    import concurrent.futures

    with concurrent.futures.ProcessPoolExecutor(max_workers=min(workers, len(calls))) as pool:
        futures = [pool.submit(call) for call in calls]
        return [fut.result() for fut in futures]


def map_row_chunks(fn, arrays, workers: int) -> np.ndarray:
    """``fn(*arrays)`` with the rows split into ``workers`` contiguous
    chunks, one worker process each; the results are stacked in row
    order.  Runs in this process when workers is 1 or there are fewer
    than two rows per worker.  ``fn`` must be picklable."""
    n = arrays[0].shape[0]
    if workers == 1 or n < 2 * workers:
        return fn(*arrays)
    chunks = np.array_split(np.arange(n), workers)
    parts = run_in_processes([partial(fn, *(a[c] for a in arrays)) for c in chunks], workers)
    out = np.empty_like(arrays[0])
    for c, part in zip(chunks, parts):
        out[c] = part
    return out
