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
    # the same test as isfinite(arr).all(), at about half its cost per call
    if np.count_nonzero(np.isfinite(arr)) != arr.size:
        raise NonFiniteError(f"{name} contains a non-finite entry")
    return arr


def row_products(a, b) -> np.ndarray:
    """``a @ b`` for a of shape (n, k), each row computed as its own
    one-row product.

    A many-row GEMM may round a row differently from a one-row GEMM,
    since BLAS blocks its sums by the shape of the call; a stack of
    (1, k) @ (k, m) products does not, so row i of the result has the
    bytes of ``a[i:i+1].dot(b)`` whatever n is.
    """
    return np.matmul(a[:, None, :], b)[:, 0, :]


def solve_linear(a, b) -> np.ndarray:
    """Solve ``a @ x = b`` by LU factorization with partial pivoting.

    Raises SingularMatrixError when the best available pivot falls
    below PIVOT_RTOL times the infinity norm of ``a``.  Written out
    rather than delegated so the singularity contract is explicit.

    Elimination runs on one augmented array ``[a | b]``: each step
    swaps whole rows and applies one rank-1 update to the trailing
    block, right-hand side included.  Each entry still gets exactly
    the textbook ``u[i, j] - (u[i, k] / u[k, k]) * u[k, j]``, so the
    pivots, the solution bytes and the error text are those of a loop
    that keeps ``b`` apart.  Back-substitution dots contiguous slices,
    as that loop's ``@`` does, since a strided dot may sum in another
    order.

    ``b`` of shape (m, n) holds m right-hand sides of the one matrix
    ``a`` (Newton's first iteration, where every scenario sits at the
    flat start): the same elimination carries them as m columns of
    ``[a | bᵀ]``, and back-substitution takes, per row, the (1, L) @
    (L, 1) dot of ``_solve_stack``, so row j of the result has the
    bytes of ``solve_linear(a, b[j])``.

    A stack, ``a`` of shape (m, n, n) and ``b`` of shape (m, n), is
    solved by one elimination over all m systems, and each system gets
    the bytes of its own 2-D solve (``_solve_stack``).  The stack has
    the loop's two economies: it swaps rows only where a pivot moved,
    and it reuses one scratch buffer for the rank-1 product.  A 2-D call
    keeps the loop below, which solves one system about twice as fast.
    """
    if np.ndim(a) == 3:
        return _solve_stack(a, b)
    a = as_matrix(a, "a")
    n, m = a.shape
    if n != m:
        raise DimensionMismatchError(f"a must be square, got {a.shape}")
    b = np.asarray(b, dtype=float)
    if b.ndim == 1 and b.shape[0] != n:
        raise DimensionMismatchError(f"b has length {b.shape[0]}, expected {n}")
    if b.ndim not in (1, 2) or b.shape[-1] != n:
        raise DimensionMismatchError(f"b needs shape ({n},) or (m, {n}), got {b.shape}")
    require_finite(a, "a")
    require_finite(b, "b")
    r = 1 if b.ndim == 1 else b.shape[0]
    if n == 0 or r == 0:
        return np.zeros(b.shape)

    u = np.empty((n, n + r))
    u[:, :n] = a
    u[:, n:] = b.reshape(r, n).T
    norm_a = float(np.abs(u[:, :n]).sum(axis=1).max())
    threshold = PIVOT_RTOL * max(norm_a, np.finfo(float).tiny)
    scratch = np.empty((n - 1) * (n - 1 + r))
    for k in range(n):
        p = k + int(np.abs(u[k:, k]).argmax())
        if abs(u[p, k]) < threshold:
            raise SingularMatrixError(
                f"pivot {abs(u[p, k]):.3e} below threshold {threshold:.3e} in column {k}"
            )
        if p != k:
            u[[k, p]] = u[[p, k]]
        if k + 1 < n:
            mult = u[k + 1 :, k] / u[k, k]
            t = scratch[: (n - k - 1) * (n - k - 1 + r)].reshape(n - k - 1, n - k - 1 + r)
            np.multiply(mult[:, None], u[k, k + 1 :], out=t)
            u[k + 1 :, k + 1 :] -= t
    if b.ndim == 2:
        x = u[:, n:].T.copy()
        diag = u.diagonal()
        for k in range(n - 1, -1, -1):
            dot = np.matmul(u[k, None, k + 1 : n], x[:, k + 1 :, None])[:, 0, 0]
            x[:, k] = (x[:, k] - dot) / diag[k]
        require_finite(x, "solution")
        return x
    x = u[:, n].copy()
    diag = u.diagonal().tolist()
    for k in range(n - 1, -1, -1):
        # A BLAS dot sums from +0.0; `.dot` of a one-entry slice returns
        # the bare product instead, so a -0.0 product needs the 0.0 +.
        dot = 0.0 + float(u[k, k + 1 : n].dot(x[k + 1 :]))
        x[k] = (float(x[k]) - dot) / diag[k]
    require_finite(x, "solution")
    return x


def _solve_stack(a, b) -> np.ndarray:
    """solve_linear on a stack of m systems: the 2-D loop with every step
    taken for all systems at once.  Pivot search, row swap, rank-1
    update and division are elementwise, and each back-substitution dot
    is a (1, L) @ (L, 1) matmul, which numpy hands to the BLAS dot that
    the 2-D loop calls and adds to +0.0, as the 2-D loop does by hand;
    so every system gets the bytes of its 2-D solve.  As in the 2-D
    loop, a column swaps rows only in the systems whose pivot row is not
    k (no Newton Jacobian of the bundled cases swaps any), and the
    rank-1 product goes into one scratch buffer before it is subtracted.

    Pivots are tested once, after elimination: ``|u[s, k, k]|`` is
    system s's pivot of column k, final once that column is done, and
    a system's columns before its first short pivot are those of its
    2-D solve.  The first column at which any pivot falls short raises
    SingularMatrixError with the 2-D text plus " of system s", and the
    indices of the systems short there in ``systems``.  A singular
    system's arithmetic after its short column is discarded, and runs
    with numpy's warnings off."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    m, n = a.shape[:2]
    if a.shape != (m, n, n) or b.shape != (m, n):
        raise DimensionMismatchError(
            f"a stack needs a (m, n, n) and b (m, n), got {a.shape} and {b.shape}"
        )
    require_finite(a, "a")
    require_finite(b, "b")
    if m == 0 or n == 0:
        return np.zeros((m, n))

    u = np.empty((m, n, n + 1))
    u[:, :, :n] = a
    u[:, :, n] = b
    norm_a = np.abs(u[:, :, :n]).sum(axis=2).max(axis=1)
    threshold = PIVOT_RTOL * np.maximum(norm_a, np.finfo(float).tiny)
    scratch = np.empty(m * (n - 1) * n)
    with np.errstate(all="ignore"):
        for k in range(n):
            p = np.abs(u[:, k:, k]).argmax(axis=1)
            if np.count_nonzero(p):
                moved = np.flatnonzero(p)
                rows = p[moved] + k
                row_k = u[moved, k]
                u[moved, k] = u[moved, rows]
                u[moved, rows] = row_k
            if k + 1 < n:
                mult = u[:, k + 1 :, k] / u[:, k, k, None]
                t = scratch[: m * (n - k - 1) * (n - k)].reshape(m, n - k - 1, n - k)
                np.multiply(mult[:, :, None], u[:, k, None, k + 1 :], out=t)
                u[:, k + 1 :, k + 1 :] -= t
    diag = u.diagonal(axis1=1, axis2=2)
    pivots = np.abs(diag)
    short = pivots < threshold[:, None]
    if np.count_nonzero(short):
        k = int(short.any(axis=0).argmax())
        failed = np.flatnonzero(short[:, k])
        s = failed[0]
        raise SingularMatrixError(
            f"pivot {pivots[s, k]:.3e} below threshold {threshold[s]:.3e} in column {k}"
            f" of system {s}",
            systems=failed.tolist(),
        )
    x = u[:, :, n].copy()
    for k in range(n - 1, -1, -1):
        dot = np.matmul(u[:, k, None, k + 1 : n], x[:, k + 1 :, None])[:, 0, 0]
        x[:, k] = (x[:, k] - dot) / diag[:, k]
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
