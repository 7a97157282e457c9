"""Feed-forward nets with mirrored additive skips and explicit backprop.

No autograd framework: the forward pass caches pre-activations and
their sigmoids, and the backward pass replays them in reverse, writing
the parameter gradient, when asked for, into a flat buffer laid out like
the parameters.  The architecture is a plain multilayer perceptron whose
hidden halves can be tied by additive skip connections (output of hidden
layer i is added to the pre-activation of its mirror), which requires a
width-symmetric hidden stack.  Step inputs enter through a fixed
sinusoidal embedding concatenated to the feature vector, condition
vectors are concatenated the same way.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .errors import ConfigError, DimensionMismatchError
from .numerics import Rng


def _sigmoid(z):
    """Logistic function, exp(min(z, 0)) / (1 + exp(-|z|)); neither exp
    can overflow.

    The numerator has the bits of np.where(z >= 0, 1.0, exp(-|z|)), at
    less cost: for z < 0 it is exp of the same -|z|, exp(0) is exactly
    1, and NaN stays NaN.
    """
    return np.exp(np.minimum(z, 0.0)) / (1.0 + np.exp(-np.abs(z)))


_ACTIVATIONS = ("silu",)


class TimeEmbedding:
    """Sinusoidal embedding of an integer step index.

    Even slots carry sin, odd slots cos, at geometrically spaced
    frequencies; entries are bounded by one and the map is injective
    over practical step ranges for dim >= 8.
    """

    def __init__(self, dim: int):
        if dim <= 0 or dim % 2 != 0:
            raise ConfigError(f"embedding dim must be positive and even, got {dim}")
        self.dim = dim
        half = dim // 2
        self.freqs = 10000.0 ** (-np.arange(half) / half)

    def batch(self, ts) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        ang = ts[:, None] * self.freqs[None, :]
        out = np.empty((ts.shape[0], self.dim))
        out[:, 0::2] = np.sin(ang)
        out[:, 1::2] = np.cos(ang)
        return out


@dataclass(frozen=True)
class NetSpec:
    """Architecture description; the parameter layout is derived from it."""

    x_dim: int
    hidden: tuple
    out_dim: int
    time_dim: int = 0
    cond_dim: int = 0
    skips: bool = False
    activation: str = "silu"
    final_zero: bool = False

    def __post_init__(self):
        if self.x_dim <= 0 or self.out_dim <= 0:
            raise ConfigError("x_dim and out_dim must be positive")
        if any(h <= 0 for h in self.hidden):
            raise ConfigError("hidden widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ConfigError(f"unknown activation {self.activation!r}")
        if self.time_dim and (self.time_dim % 2 != 0):
            raise ConfigError("time_dim must be even")
        if self.skips:
            for src, dst in self.skip_pairs():
                if self.hidden[src - 1] != self.hidden[dst - 1]:
                    raise ConfigError(
                        "additive skips require mirror-symmetric hidden widths"
                    )

    @property
    def in_dim(self) -> int:
        return self.x_dim + self.time_dim + self.cond_dim

    def widths(self) -> list:
        return [self.in_dim, *self.hidden, self.out_dim]

    def skip_pairs(self):
        """(src, dst) pairs of 1-indexed hidden layers, src < dst."""
        if not self.skips:
            return []
        m = len(self.hidden)
        return [(i, m + 1 - i) for i in range(1, m // 2 + 1) if i < m + 1 - i]

    def to_config(self) -> dict:
        return {**asdict(self), "hidden": list(self.hidden)}

    @classmethod
    def from_config(cls, cfg: dict) -> "NetSpec":
        return cls(
            x_dim=int(cfg["x_dim"]),
            hidden=tuple(int(h) for h in cfg["hidden"]),
            out_dim=int(cfg["out_dim"]),
            time_dim=int(cfg.get("time_dim", 0)),
            cond_dim=int(cfg.get("cond_dim", 0)),
            skips=bool(cfg.get("skips", False)),
            activation=str(cfg.get("activation", "silu")),
            final_zero=bool(cfg.get("final_zero", False)),
        )


@dataclass
class ForwardCache:
    inputs: np.ndarray
    activations: list = field(default_factory=list)
    pre_activations: list = field(default_factory=list)
    sigmoids: list = field(default_factory=list)


class _Views(list):
    """Layer arrays that stay views of the flat buffer: assigning an entry
    copies the values into the view instead of rebinding it."""

    def __setitem__(self, index, value):
        self[index][...] = value


def _layer_views(spec: NetSpec, flat: np.ndarray):
    """Per-layer (weights, biases) views into a flat parameter-layout buffer:
    W0 row-major, b0, W1, b1, ... up to the linear head."""
    widths = spec.widths()
    weights = _Views()
    biases = _Views()
    pos = 0
    for fan_in, fan_out in zip(widths, widths[1:]):
        weights.append(flat[pos : pos + fan_out * fan_in].reshape(fan_out, fan_in))
        pos += fan_out * fan_in
        biases.append(flat[pos : pos + fan_out])
        pos += fan_out
    return weights, biases


class FeedForwardNet:
    """MLP with optional mirrored additive skips and a linear head.

    Every weight and bias is a view into the one flat buffer ``params``,
    so an optimizer that updates ``params`` in place updates the layers.
    """

    def __init__(self, spec: NetSpec, params: np.ndarray):
        self.spec = spec
        self.params = params
        self.weights, self.biases = _layer_views(spec, params)
        self._embed = TimeEmbedding(spec.time_dim) if spec.time_dim else None
        # (t, rows) -> input rows holding the embedding of one scalar step t
        self._step_rows = {}
        self._skip_into = {dst: src for src, dst in spec.skip_pairs()}

    @classmethod
    def init(cls, spec: NetSpec, rng: Rng) -> "FeedForwardNet":
        """Scaled-normal initialization; final layer optionally zeroed."""
        widths = spec.widths()
        size = sum(fan_out * (fan_in + 1) for fan_in, fan_out in zip(widths, widths[1:]))
        net = cls(spec, np.zeros(size))
        last = len(widths) - 2
        for j, w in enumerate(net.weights):
            if not (spec.final_zero and j == last):
                fan_out, fan_in = w.shape
                w[...] = rng.normal((fan_out, fan_in)) * np.sqrt(2.0 / (fan_in + fan_out))
        return net

    def param_count(self) -> int:
        return self.params.size

    def get_params(self) -> np.ndarray:
        return self.params.copy()

    def set_params(self, flat: np.ndarray) -> None:
        flat = np.asarray(flat, dtype=float)
        if flat.size != self.param_count():
            raise DimensionMismatchError(
                f"expected {self.param_count()} parameters, got {flat.size}"
            )
        self.params[...] = flat

    def _assemble_input(self, x, t, cond, keep: bool = False) -> np.ndarray:
        """The net's input rows: x, then the step embedding, then the
        condition.

        A lone C-contiguous x is returned as it is.  For a scalar step t
        the rows are written into a block memoized per (t, row count),
        which holds that step's embedding already; the block itself is
        returned, to be used before the next call, unless ``keep`` asks
        for a copy the caller may hold.
        """
        x = np.asarray(x, dtype=float)
        if x.ndim == 1:
            x = x[None, :]
        if x.shape[1] != self.spec.x_dim:
            raise DimensionMismatchError(
                f"x has width {x.shape[1]}, expected {self.spec.x_dim}"
            )
        parts = [x]
        step = None  # a scalar step t, as a float
        if self.spec.time_dim:
            if t is None:
                raise DimensionMismatchError("net expects a step input t")
            # isinstance first: np.ndim costs about a microsecond on a Python number
            if isinstance(t, (int, float)) or np.ndim(t) == 0:
                step = float(t)
            else:
                parts.append(self._embed.batch(np.asarray(t, dtype=float)))
        if self.spec.cond_dim:
            if cond is None:
                raise DimensionMismatchError("net expects a condition vector")
            c = np.asarray(cond, dtype=float)
            if c.shape[-1] != self.spec.cond_dim:
                raise DimensionMismatchError(
                    f"condition has width {c.shape[-1]}, expected {self.spec.cond_dim}"
                )
            if c.ndim == 1 and step is None:
                # the step block's slice assignment broadcasts on its own
                c = np.broadcast_to(c, (x.shape[0], c.shape[0]))
            parts.append(c)
        if step is not None:
            x_dim, t_end = self.spec.x_dim, self.spec.x_dim + self.spec.time_dim
            block = self._step_rows.get((step, x.shape[0]))
            if block is None:
                block = np.empty((x.shape[0], self.spec.in_dim))
                block[:, x_dim:t_end] = self._embed.batch(np.full(x.shape[0], step))
                self._step_rows[step, x.shape[0]] = block
            block[:, :x_dim] = x
            if self.spec.cond_dim:
                block[:, t_end:] = c
            return block.copy() if keep else block
        if len(parts) == 1 and x.flags.c_contiguous:
            return x  # what concatenate would copy
        return np.concatenate(parts, axis=1)

    def forward(self, x, t=None, cond=None) -> np.ndarray:
        """Outputs for one row or a batch of rows."""
        y, _ = self.forward_batch(x, t, cond)
        return y[0] if np.ndim(x) == 1 else y

    def forward_batch(self, x, t=None, cond=None, want_cache: bool = False):
        """Batched forward pass; returns (outputs, cache or None)."""
        inp = self._assemble_input(x, t, cond, keep=want_cache)
        m = len(self.spec.hidden)
        cache = ForwardCache(inputs=inp) if want_cache else None
        a = inp
        acts = [inp]
        # ndarray.dot makes the BLAS call that @ makes, at less cost per call
        for j in range(1, m + 1):
            z = a.dot(self.weights[j - 1].T)
            z += self.biases[j - 1]
            src = self._skip_into.get(j)
            if src is not None:
                z += acts[src]
            s = _sigmoid(z)
            a = z * s
            acts.append(a)
            if want_cache:
                cache.pre_activations.append(z)
                cache.sigmoids.append(s)
        out = a.dot(self.weights[m].T)
        out += self.biases[m]
        if want_cache:
            cache.activations = acts
        return out, cache

    def backward_batch(self, cache: ForwardCache, d_out: np.ndarray, grads=None, input_grad=True):
        """Backpropagate d_loss/d_output; returns (gradient, d_input).

        The parameter gradient is computed only when the caller passes
        ``grads``, a flat buffer in the layout of ``params``: it is
        written there and returned.  Without a buffer the gradient is
        None and none of it is computed.  d_input covers the assembled
        input row (x, step embedding, condition); slice the first x_dim
        columns for the gradient with respect to x alone.  It is None,
        and not computed, when ``input_grad`` is false.
        """
        m = len(self.spec.hidden)
        acts = cache.activations
        if grads is not None:
            d_w, d_b = _layer_views(self.spec, grads)
            np.matmul(d_out.T, acts[m], out=d_w[m])
            np.sum(d_out, axis=0, out=d_b[m])
        # d_a[j]: gradient at hidden layer j's output, summed over the next
        # layer and any skip it feeds.
        d_a = [None] * (m + 1)
        d_a[m] = d_out.dot(self.weights[m])
        for j in range(m, 0, -1):
            s = cache.sigmoids[j - 1]
            d_z = d_a[j] * (s * (1.0 + cache.pre_activations[j - 1] * (1.0 - s)))
            if grads is not None:
                np.matmul(d_z.T, acts[j - 1], out=d_w[j - 1])
                np.sum(d_z, axis=0, out=d_b[j - 1])
            if j > 1 or input_grad:
                d_in = d_z.dot(self.weights[j - 1])
                d_a[j - 1] = d_in if d_a[j - 1] is None else d_a[j - 1] + d_in
            src = self._skip_into.get(j)
            if src is not None:
                d_a[src] = d_z if d_a[src] is None else d_a[src] + d_z
        return grads, d_a[0]

    def __reduce__(self):
        # Pickle rebuilds the layer views into the unpickled buffer and
        # leaves the step-row memo behind.
        return FeedForwardNet, (self.spec, self.params)
