"""Constraint potentials: non-negative scalar fields with gradients.

A potential measures violation of a constraint set; its zero level set
is the feasible manifold.  Each implementation supplies two batch
kernels, ``value_batch`` and the fused ``value_and_grad_batch``; the
base class derives ``value``, ``grad`` and ``grad_batch`` from them,
and every potential's gradient is held to a finite-difference
conformance check in the test suite.  The guided step reads only
``value_and_grad_batch``, on a one-row batch; where the formula allows,
that one row runs on Python floats inside the kernel.
"""

from __future__ import annotations

import json
import warnings
from dataclasses import asdict, dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigError,
    DataError,
    DimensionMismatchError,
    NonFiniteGradientError,
    SamplerStalledError,
    ValidationError,
)
from .numerics import Rng, as_vector, finite_diff_grad, require_finite

# Exponent magnitude above which the surface evaluation saturates
# instead of overflowing.
EXP_CLAMP = 500.0


class ConstraintPotential:
    """Interface for scalar constraint potentials.

    Subclasses set ``dim`` and implement two kernels on a batch of rows
    ``xs (n, d)``:

    - ``value_batch(xs) -> phi (n,)``, which computes no gradient, so
      value-only callers (the Metropolis sampler, the attack's phi
      logs) never pay for one;
    - ``value_and_grad_batch(xs) -> (phi (n,), grad (n, d))``, what a
      guided step calls, once per step.  Where the formula allows, a
      single row runs on Python floats rather than one-element arrays,
      since numpy's per-call overhead dominates at one row.  It returns
      a non-finite gradient rather than raising; the caller decides.

    ``value``, ``grad`` and ``grad_batch`` derive from these two.
    ``MullerBrownPotential`` alone adds ``value_and_grad(x) -> (value,
    gradient as a list of floats)`` on Python floats: the kernel of its
    one-row ``value_and_grad_batch``, and the one that
    ``gradient_descent`` calls at every trial point.
    """

    dim: int = 0

    def value_batch(self, xs) -> np.ndarray:
        raise NotImplementedError

    def value_and_grad_batch(self, xs):
        raise NotImplementedError

    def value(self, x) -> float:
        return float(self.value_batch(np.asarray(x, dtype=float)[None, :])[0])

    def grad(self, x) -> np.ndarray:
        return self.value_and_grad_batch(np.asarray(x, dtype=float)[None, :])[1][0]

    def grad_batch(self, xs) -> np.ndarray:
        return self.value_and_grad_batch(xs)[1]


class NormalizedPotential(ConstraintPotential):
    """View of a potential in affinely rescaled coordinates.

    The wrapped potential lives in physical coordinates y; this view
    evaluates at z with y = mean + scale * z, so gradients pick up a
    factor of ``scale`` by the chain rule.  A one-row batch reaches the
    base's one-row kernel, which runs on Python floats where the base's
    does.
    """

    def __init__(self, base: ConstraintPotential, mean, scale):
        self.base = base
        self.mean = np.asarray(mean, dtype=float)
        self.scale = np.asarray(scale, dtype=float)
        self.dim = base.dim

    def value_batch(self, zs) -> np.ndarray:
        zs = np.asarray(zs, dtype=float)
        return self.base.value_batch(self.mean[None, :] + self.scale[None, :] * zs)

    def value_and_grad_batch(self, zs):
        zs = np.asarray(zs, dtype=float)
        phi, g = self.base.value_and_grad_batch(self.mean + self.scale * zs)
        return phi, self.scale * g


# ---------------------------------------------------------------------------
# Two-dimensional four-term exponential test surface.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MullerBrownParams:
    """Canonical parameters of the four-Gaussian test surface."""

    depths: tuple = (-200.0, -100.0, -170.0, 15.0)
    curv_a: tuple = (-1.0, -1.0, -6.5, 0.7)
    curv_b: tuple = (0.0, 0.0, 11.0, 0.6)
    curv_c: tuple = (-10.0, -10.0, -6.5, 0.7)
    centers_x: tuple = (1.0, 0.0, -0.5, -1.0)
    centers_y: tuple = (0.0, 0.5, 1.5, 1.0)


# Region of interest containing all five stationary points.
WORKING_BOX = np.array([[-1.8, 1.2], [-0.5, 2.2]])


def _exp_point(arg: float) -> float:
    if abs(arg) > EXP_CLAMP:
        # Attributed to the caller of surface_value or value_and_grad.
        warnings.warn("surface exponent clamped", RuntimeWarning, stacklevel=4)
        arg = EXP_CLAMP if arg > 0.0 else -EXP_CLAMP
    return float(np.exp(arg))


def _exp_batch(arg: np.ndarray) -> np.ndarray:
    return np.exp(np.clip(arg, -EXP_CLAMP, EXP_CLAMP))


class MullerBrown:
    """Raw surface evaluation: four exponential terms over the plane.

    One kernel, ``evaluate``, serves every entry point: each term's
    exponential is computed once and feeds the value and both gradient
    components.  A single point runs on Python floats
    (``float(np.exp(arg))`` rounds exactly as the array path does;
    ``math.exp`` does not) and warns when it clamps an exponent; the
    batch path clamps silently.
    """

    def __init__(self):
        self.params = p = MullerBrownParams()
        # Doubling is exact, so 2a and 2c round as 2.0 * a and 2.0 * c.
        self._terms = tuple(
            (depth, a, b, c, 2.0 * a, 2.0 * c, cx, cy)
            for depth, a, b, c, cx, cy in zip(
                p.depths, p.curv_a, p.curv_b, p.curv_c, p.centers_x, p.centers_y
            )
        )

    def evaluate(self, x, y, exp=_exp_point, grad: bool = True):
        """(value, d/dx, d/dy) at Python floats x, y, or at arrays with
        ``exp=_exp_batch``.  A non-finite gradient is returned, not
        raised; the gradient components stay 0.0 with ``grad`` off."""
        v = gx = gy = 0.0
        for depth, a, b, c, a2, c2, cx, cy in self._terms:
            dx = x - cx
            dy = y - cy
            e = depth * exp(a * dx * dx + b * dx * dy + c * dy * dy)
            v += e
            if grad:
                gx += e * (a2 * dx + b * dy)
                gy += e * (b * dx + c2 * dy)
        return v, gx, gy

    def surface_value(self, point) -> float:
        point = as_vector(point, "point")
        return self.evaluate(float(point[0]), float(point[1]))[0]

    def surface_value_batch(self, points) -> np.ndarray:
        pts = np.asarray(points, dtype=float)
        return self.evaluate(pts[..., 0], pts[..., 1], _exp_batch, grad=False)[0]


@dataclass(frozen=True)
class StationaryPoint:
    location: tuple
    value: float
    kind: str  # "minimum" | "saddle" | "maximum"

    @property
    def point(self) -> np.ndarray:
        return np.array(self.location)


# The stationary points of the surface inside WORKING_BOX, each written
# so that it reads back to the same float: minima deepest first, then
# saddles.  tests/test_potentials.py keeps the grid-seeded Newton search
# that found them and checks that it reproduces these bytes.
_STATIONARY_POINTS = (
    StationaryPoint((-0.5582236346330243, 1.4417258418046686), -146.699517209954, "minimum"),
    StationaryPoint((0.6234994049308765, 0.028037758528685668), -108.16672411685236, "minimum"),
    StationaryPoint((-0.05001082299820605, 0.4666941048719721), -80.76781812965903, "minimum"),
    StationaryPoint((0.212486582000662, 0.2929883251073678), -72.24894011232522, "saddle"),
    StationaryPoint((-0.8220015587327321, 0.6243128028148713), -40.6648435086574, "saddle"),
)


def locate_stationary_points() -> tuple:
    """All stationary points of the surface in WORKING_BOX: minima
    first, sorted deepest first, then saddles (there is no maximum)."""
    return _STATIONARY_POINTS


def global_minimum() -> StationaryPoint:
    return _STATIONARY_POINTS[0]


class MullerBrownPotential(ConstraintPotential):
    """Non-negative shift of the surface: value = max(V - zero_level, 0).

    With ``zero_level`` at the located global minimum value the
    potential vanishes only at the minimizer; a higher level carves out
    a flat feasible neighborhood around the minimum, where the gradient
    is identically zero.
    """

    dim = 2

    def __init__(self, zero_level: float):
        self.surface = MullerBrown()
        self.zero_level = float(zero_level)

    def value(self, x) -> float:
        return max(self.surface.surface_value(x) - self.zero_level, 0.0)

    def grad(self, x) -> np.ndarray:
        x = as_vector(x, "point")
        g = np.array(self.value_and_grad(x)[1])
        if not np.all(np.isfinite(g)):
            raise NonFiniteGradientError(f"surface gradient non-finite at {x}")
        return g

    def value_and_grad(self, x):
        """(value, gradient as a list of floats) from one surface evaluation.

        The gradient is zero wherever the value is clamped at zero.
        Unlike ``grad``, a non-finite gradient is returned, not raised,
        so a caller may probe points it then rejects.
        """
        v, gx, gy = self.surface.evaluate(float(x[0]), float(x[1]))
        v -= self.zero_level
        if v <= 0.0:
            return max(v, 0.0), [0.0, 0.0]
        return v, [gx, gy]

    def value_batch(self, xs) -> np.ndarray:
        return np.maximum(self.surface.surface_value_batch(xs) - self.zero_level, 0.0)

    def value_and_grad_batch(self, xs):
        """One surface evaluation; a single row takes ``value_and_grad``."""
        xs = np.asarray(xs, dtype=float)
        if xs.shape[0] == 1:
            v, g = self.value_and_grad(xs[0])
            return np.array([v]), np.array([g])
        return self._evaluate_batch(xs)

    def _evaluate_batch(self, xs):
        pts = np.asarray(xs, dtype=float)
        v, gx, gy = self.surface.evaluate(pts[..., 0], pts[..., 1], _exp_batch)
        v = v - self.zero_level
        return np.maximum(v, 0.0), np.stack([gx, gy], axis=-1) * (v > 0.0)[:, None]


def muller_brown_potential(margin: float = 0.0) -> MullerBrownPotential:
    """Build the shifted non-negative surface potential.

    ``margin`` lifts the zero level above the located global minimum,
    producing a flat feasible pocket of that energy width.
    """
    return MullerBrownPotential(global_minimum().value + margin)


# ---------------------------------------------------------------------------
# Relational constraint sets over named tabular features.
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearSumTerm:
    """c = sum_j weights[j] * x[features[j]] - offset"""

    features: tuple
    weights: tuple
    offset: float = 0.0


@dataclass(frozen=True)
class ProductTerm:
    """c = x[result] - x[left] * x[right]"""

    result: str
    left: str
    right: str


@dataclass(frozen=True)
class OrderTerm:
    """c = max(0, x[smaller] - x[larger]); feasible when smaller <= larger."""

    smaller: str
    larger: str


@dataclass(frozen=True)
class RangeTerm:
    """c = max(0, x[feature] - upper) + max(0, lower - x[feature])"""

    feature: str
    lower: float
    upper: float


def _relu_float(z: float) -> float:
    """np.maximum(z, 0.0) on a Python float: NaN stays NaN, -0.0 gives 0.0."""
    return z if z > 0.0 or z != z else 0.0


def _relu_array(z: np.ndarray) -> np.ndarray:
    return np.maximum(z, 0.0)


def _indicator_array(mask: np.ndarray) -> np.ndarray:
    return mask.astype(float)


class RelationalConstraintSet(ConstraintPotential):
    """Sum of squared relational violations over named features.

    The potential is sum_r c_r(x)^2 with c_r one of the four term
    kinds above.  Feature bounds are carried alongside the terms so
    consumers (attack projection, data generation) share one source
    of truth.
    """

    def __init__(self, feature_names: Sequence[str], bounds, terms: Sequence):
        self.feature_names = tuple(feature_names)
        self.dim = len(self.feature_names)
        bounds = np.asarray(bounds, dtype=float)
        if bounds.shape != (self.dim, 2):
            raise DimensionMismatchError(f"bounds must have shape ({self.dim}, 2)")
        if np.any(bounds[:, 0] >= bounds[:, 1]):
            raise ValidationError("every feature bound must satisfy lower < upper")
        self.bounds = bounds
        self.terms = tuple(terms)
        self._index = {name: i for i, name in enumerate(self.feature_names)}
        if len(self._index) != self.dim:
            raise ValidationError("feature names must be unique")
        self._resolved = tuple(self._resolve(term) for term in self.terms)

    def _resolve(self, term) -> tuple:
        """(kind, columns, constants) of a term, its feature names resolved
        to column indices once; ValidationError on an unknown kind or name."""
        if isinstance(term, LinearSumTerm):
            kind, names, const = "linear_sum", term.features, term.offset
        elif isinstance(term, ProductTerm):
            kind, names, const = "product", (term.result, term.left, term.right), None
        elif isinstance(term, OrderTerm):
            kind, names, const = "order", (term.smaller, term.larger), None
        elif isinstance(term, RangeTerm):
            kind, names, const = "range", (term.feature,), (term.lower, term.upper)
        else:
            raise ValidationError(f"unknown constraint term {term!r}")
        for name in names:
            if name not in self._index:
                raise ValidationError(f"constraint references unknown feature {name!r}")
        cols = tuple(self._index[name] for name in names)
        if kind == "linear_sum":
            cols = tuple(zip(cols, term.weights))
        return kind, cols, const

    def idx(self, name: str) -> int:
        return self._index[name]

    def _terms_at(self, cols, relu, indicator, grad: bool):
        """Per-term residuals c_r and, with ``grad``, the gradient of
        sum_r c_r^2 per feature, at feature columns ``cols``.

        One column per feature: Python floats for a single row, or (n,)
        arrays with ``relu``/``indicator`` acting on arrays.  Without
        ``grad`` the gradient is None and none of it is computed.
        """
        res = []
        g = [0.0] * self.dim if grad else None
        for kind, idx, const in self._resolved:
            if kind == "linear_sum":
                # Left to right from 0.0, as builtin sum adds before
                # Python 3.12 (which compensates float sums, not array sums).
                c = 0.0
                for i, w in idx:
                    c = c + w * cols[i]
                c = c - const
                if grad:
                    for i, w in idx:
                        g[i] += 2.0 * c * w
            elif kind == "product":
                ir, il, iright = idx
                c = cols[ir] - cols[il] * cols[iright]
                if grad:
                    g[ir] += 2.0 * c
                    g[il] += -2.0 * c * cols[iright]
                    g[iright] += -2.0 * c * cols[il]
            elif kind == "order":
                i_s, i_l = idx
                z = cols[i_s] - cols[i_l]
                c = relu(z)
                if grad:
                    active = indicator(z > 0.0)
                    g[i_s] += 2.0 * c * active
                    g[i_l] += -2.0 * c * active
            else:  # range
                (i_f,) = idx
                lower, upper = const
                v = cols[i_f]
                c = relu(v - upper) + relu(lower - v)
                if grad:
                    slope = indicator(v > upper) - indicator(v < lower)
                    g[i_f] += 2.0 * c * slope
            res.append(c)
        return res, g

    def _evaluate(self, xs, grad: bool):
        """(residuals (n, n_terms), gradient (n, dim) or None)."""
        xs = np.asarray(xs, dtype=float)
        if xs.ndim == 1:
            xs = xs[None, :]
        n = xs.shape[0]
        if n == 1:
            res, g = self._terms_at(xs[0].tolist(), _relu_float, float, grad)
            return np.array([res]), None if g is None else np.array([g])
        res, g = self._terms_at(list(xs.T), _relu_array, _indicator_array, grad)
        r = np.stack(res, axis=1) if res else np.zeros((n, 0))
        if g is None:
            return r, None
        out = np.zeros((n, self.dim))
        for i, gi in enumerate(g):
            out[:, i] = gi
        return r, out

    def residuals_batch(self, xs) -> np.ndarray:
        """Per-term residuals c_r for a batch, shape (n, n_terms)."""
        return self._evaluate(xs, grad=False)[0]

    def value_batch(self, xs) -> np.ndarray:
        return np.sum(self.residuals_batch(xs) ** 2, axis=1)

    def grad_batch(self, xs) -> np.ndarray:
        return self._evaluate(xs, grad=True)[1]

    def value_and_grad_batch(self, xs):
        r, g = self._evaluate(xs, grad=True)
        return np.add.reduce(r * r, axis=1), g

    # -- declarative schema -------------------------------------------------

    def to_config(self) -> dict:
        feats = [
            {"name": n, "lower": float(self.bounds[i, 0]), "upper": float(self.bounds[i, 1])}
            for i, n in enumerate(self.feature_names)
        ]
        terms = [{"kind": kind, **asdict(term)} for term, (kind, _, _) in zip(self.terms, self._resolved)]
        return {"features": feats, "constraints": terms}

    @classmethod
    def from_config(cls, cfg: dict) -> "RelationalConstraintSet":
        try:
            names = [f["name"] for f in cfg["features"]]
            bounds = [[f["lower"], f["upper"]] for f in cfg["features"]]
            terms = []
            for t in cfg["constraints"]:
                kind = t["kind"]
                if kind == "linear_sum":
                    terms.append(
                        LinearSumTerm(
                            features=tuple(t["features"]),
                            weights=tuple(float(w) for w in t["weights"]),
                            offset=float(t.get("offset", 0.0)),
                        )
                    )
                elif kind == "product":
                    terms.append(ProductTerm(result=t["result"], left=t["left"], right=t["right"]))
                elif kind == "order":
                    terms.append(OrderTerm(smaller=t["smaller"], larger=t["larger"]))
                elif kind == "range":
                    terms.append(
                        RangeTerm(feature=t["feature"], lower=float(t["lower"]), upper=float(t["upper"]))
                    )
                else:
                    raise ConfigError(f"unknown constraint kind {kind!r}")
            return cls(names, bounds, terms)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed constraint schema: {exc}") from exc

    @classmethod
    def from_json(cls, path) -> "RelationalConstraintSet":
        try:
            with open(path, "r", encoding="utf-8") as fh:
                cfg = json.load(fh)
        except OSError as exc:
            raise DataError(f"cannot read schema file {path}: {exc}") from exc
        except ValueError as exc:  # not UTF-8, or not JSON
            raise DataError(f"schema file {path} is not valid JSON: {exc}") from exc
        return cls.from_config(cfg)


# ---------------------------------------------------------------------------
# Low-potential dataset sampler.
# ---------------------------------------------------------------------------

STALL_WINDOW = 100_000
STALL_RATE = 1e-3
CHAINS = 64
BURN_IN = 500
THIN = 5


def sample_manifold_dataset(
    pot: ConstraintPotential,
    box,
    n: int,
    kT: float = 1.0,
    seed: int = 0,
) -> np.ndarray:
    """Draw n points with density proportional to exp(-value/kT) on a box.

    Up to CHAINS vectorized random-walk Metropolis chains run in
    parallel; each discards its first BURN_IN moves and then keeps
    every THIN-th.  Raises SamplerStalledError when acceptance
    collapses below 0.1% over a 100k-proposal window.
    """
    box = np.asarray(box, dtype=float)
    if box.ndim != 2 or box.shape[1] != 2:
        raise DimensionMismatchError("box must have shape (dim, 2)")
    if np.any(box[:, 0] >= box[:, 1]):
        raise ValidationError("box must satisfy lower < upper in every coordinate")
    if kT <= 0:
        raise ConfigError("kT must be positive")
    if n <= 0:
        raise ConfigError("n must be positive")
    dim = box.shape[0]
    rng = Rng(seed)
    lo = box[:, 0]
    span = box[:, 1] - box[:, 0]

    chains = max(1, min(CHAINS, n))
    per_chain = -(-n // chains)  # ceil
    proposal_scale = 0.15 * float(span.min())
    x = lo[None, :] + span[None, :] * rng.random((chains, dim))
    v = pot.value_batch(x)
    kept = []
    proposed = 0
    accepted = 0
    total_steps = BURN_IN + per_chain * THIN
    for step in range(total_steps):
        prop = x + proposal_scale * rng.normal((chains, dim))
        inside = np.all((prop >= lo[None, :]) & (prop <= lo[None, :] + span[None, :]), axis=1)
        pv = np.where(inside, pot.value_batch(prop), np.inf)
        logu = np.log(rng.random(chains))
        accept = inside & (logu < (v - pv) / kT)
        x = np.where(accept[:, None], prop, x)
        v = np.where(accept, pv, v)
        proposed += chains
        accepted += int(accept.sum())
        if proposed >= STALL_WINDOW:
            if accepted / proposed < STALL_RATE:
                raise SamplerStalledError(
                    f"metropolis acceptance {accepted / proposed:.2e} over {proposed} proposals"
                )
            proposed = 0
            accepted = 0
        if step >= BURN_IN and (step - BURN_IN) % THIN == 0:
            kept.append(x.copy())
    samples = np.concatenate(kept, axis=0)
    return samples[:n]


def finite_difference_conformance(pot: ConstraintPotential, probes, h: float | None = None) -> float:
    """Worst relative disagreement between grad() and a central difference.

    Returns the maximum relative error over the probe points; the
    caller asserts it against the tolerance.  Probes should avoid
    kinks of hinge terms, where the two-sided difference straddles a
    derivative jump.
    """
    worst = 0.0
    for x in np.asarray(probes, dtype=float):
        g = pot.grad(x)
        g_fd = finite_diff_grad(pot.value, x, h=h)
        require_finite(g, "grad")
        scale = max(float(np.abs(g_fd).max()), 1e-6)
        err = float(np.abs(g - g_fd).max()) / scale
        worst = max(worst, err)
    return worst
