"""Spans and counts around the public functions of each layer.

The benchmark wraps a fixed list of ``diffrefine`` functions and methods
at every name callers resolve them by, records one span per call (name,
start, end, parent span) and per-call counts read from return values,
and restores every original attribute when the block ends.  Spans stay
in memory; ``Recorder.save`` writes them out once the run is over.
"""

from __future__ import annotations

import contextlib
import importlib
import pkgutil
import sys
import time
from dataclasses import dataclass, field

import numpy as np

PACKAGE = "diffrefine"


# ---------------------------------------------------------------------------
# Per-call counters.  Each takes (args, kwargs, result) and returns the
# counts to add under the span's name; ``on_error`` maps a raised
# exception to counts.
# ---------------------------------------------------------------------------

def _rows(x) -> int:
    x = np.asarray(x)
    return 1 if x.ndim < 2 else int(x.shape[0])


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_newton(args, kwargs, res) -> dict:
    return {"iterations": res.iterations}


def _count_forward(args, kwargs, res) -> dict:
    net = args[0]
    rows = _rows(_arg(args, kwargs, 1, "x"))
    macs = sum(w.size for w in net.weights)
    return {"rows": rows, "flops": 2.0 * rows * macs}


def _count_backward(args, kwargs, res) -> dict:
    return {"rows": _rows(_arg(args, kwargs, 2, "d_out"))}


def _count_guided(args, kwargs, res) -> dict:
    rec = res[1]
    return {"clipped": int(rec.clipped), "floor_skip": int(rec.delta is None)}


def _count_descent(args, kwargs, res) -> dict:
    return {"iterations": res.iterations, "backtracks": res.backtracks}


def _count_rows_arg1(args, kwargs, res) -> dict:
    return {"rows": _rows(_arg(args, kwargs, 1, "xs"))}


def _count_refine(args, kwargs, res) -> dict:
    return {"rows": 1}


def _count_attack(args, kwargs, res) -> dict:
    return {"rows": _rows(_arg(args, kwargs, 1, "x0"))}


def _error_newton(exc) -> dict:
    return {"nonconverged": 1} if type(exc).__name__ == "NoConvergenceError" else {}


def _error_nonfinite(exc) -> dict:
    from diffrefine.errors import NonFiniteError

    return {"nonfinite": 1} if isinstance(exc, NonFiniteError) else {}


@dataclass(frozen=True)
class Target:
    """One traced function: ``module`` plus a qualified name inside it,
    the statistics reported for it, and its per-call counters."""

    module: str
    qualname: str
    stats: tuple = ("calls", "self_s")
    count: object = None
    on_error: object = None

    @property
    def span_name(self) -> str:
        return f"{self.module}.{self.qualname}"


CALLS_ROWS_SELF = ("calls", "rows", "self_s")
SELF = ("self_s",)

TARGETS = (
    Target("powerflow.solver", "newton_raphson",
           ("calls", "self_s", "iters_mean", "nonconverged_frac"), _count_newton, _error_newton),
    Target("powerflow.solver", "power_jacobian", SELF),
    Target("numerics", "solve_linear"),
    Target("powerflow.solver", "KirchhoffPotential.grad_batch", CALLS_ROWS_SELF, _count_rows_arg1),
    Target("powerflow.solver", "KirchhoffPotential.value_batch", ("rows", "self_s"),
           _count_rows_arg1),
    Target("powerflow.data", "generate_dataset", SELF),
    Target("powerflow.data", "injections_from_features", ("calls",)),
    Target("powerflow.metrics", "evaluate", SELF),
    Target("network", "FeedForwardNet.forward_batch", CALLS_ROWS_SELF + ("gflop_computed",),
           _count_forward),
    Target("network", "FeedForwardNet.backward_batch", CALLS_ROWS_SELF, _count_backward),
    Target("training", "train_network", SELF),
    Target("training", "backprop_grads", SELF),
    Target("training", "Adam.step"),
    Target("diffusion", "train_noise_model", SELF),
    Target("diffusion", "ddim_step", SELF),
    Target("diffusion", "estimate_x0", SELF),
    Target("guidance", "refine", CALLS_ROWS_SELF, _count_refine),
    Target("guidance", "guided_step",
           ("calls", "self_s", "clipped_frac", "floor_skip_frac", "nonfinite"),
           _count_guided, _error_nonfinite),
    Target("guidance", "descent_direction", SELF),
    Target("potentials", "RelationalConstraintSet.value_batch", SELF),
    Target("potentials", "RelationalConstraintSet.grad_batch", SELF),
    Target("potentials", "MullerBrownPotential.value"),
    Target("potentials", "MullerBrownPotential.grad"),
    Target("adversarial", "cyclic_attack", CALLS_ROWS_SELF, _count_attack),
    Target("adversarial", "evaluate_attacks", SELF),
    Target("baselines", "refine_power_batch", SELF),
    Target("baselines", "gradient_descent", ("calls", "self_s", "iterations", "backtracks"),
           _count_descent),
    Target("baselines", "newton_raphson_scalar"),
    Target("baselines", "trajectory_comparison", SELF),
)

def targets_named(names, targets=TARGETS) -> tuple:
    return tuple(t for t in targets if t.span_name in names)


STAT_UNITS = {
    "calls": "count", "rows": "count", "self_s": "s", "iters_mean": "count",
    "nonconverged_frac": "ratio", "gflop_computed": "GFLOP", "clipped_frac": "ratio",
    "floor_skip_frac": "ratio", "nonfinite": "count", "iterations": "count",
    "backtracks": "count",
}


def layer_metrics(recorder: "Recorder", targets=TARGETS) -> dict:
    """``<span name>.<stat>`` for every target; 0 where it never ran."""
    self_s = recorder.self_seconds()
    out = {}
    for target in targets:
        counts = recorder.counts.get(target.span_name, {})
        calls = counts.get("calls", 0)
        for stat in target.stats:
            if stat == "self_s":
                value = self_s.get(target.span_name, 0.0)
            elif stat == "iters_mean":
                converged = calls - counts.get("nonconverged", 0)
                value = counts.get("iterations", 0) / converged if converged else 0.0
            elif stat.endswith("_frac"):
                value = counts.get(stat[: -len("_frac")], 0) / calls if calls else 0.0
            elif stat == "gflop_computed":
                value = counts.get("flops", 0.0) / 1e9
            else:
                value = counts.get(stat, 0)
            out[f"{target.span_name}.{stat}"] = value
    return out


@dataclass
class Recorder:
    """Spans in parallel lists plus summed counts per span name.

    With ``keep_spans`` off only calls and counts are kept: cheap
    enough for an untraced run that needs a count, such as failed
    Newton attempts.
    """

    keep_spans: bool = True
    names: list = field(default_factory=list)
    starts: list = field(default_factory=list)
    ends: list = field(default_factory=list)
    parents: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _ids: dict = field(default_factory=dict)
    _stack: list = field(default_factory=list)

    def _add(self, name: str, extra: dict) -> None:
        bucket = self.counts.setdefault(name, {"calls": 0})
        bucket["calls"] += 1
        for key, value in extra.items():
            bucket[key] = bucket.get(key, 0) + value

    def call(self, target: Target, fn, args, kwargs):
        name = target.span_name
        index = -1
        if self.keep_spans:
            index = len(self.names)
            self.names.append(self._ids.setdefault(name, len(self._ids)))
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(time.perf_counter())
        try:
            result = fn(*args, **kwargs)
        except Exception as exc:
            self._close(index)
            self._add(name, target.on_error(exc) if target.on_error else {})
            raise
        self._close(index)
        self._add(name, target.count(args, kwargs, result) if target.count else {})
        return result

    def _close(self, index: int) -> None:
        if index >= 0:
            self.ends[index] = time.perf_counter()
            self._stack.pop()

    def span_arrays(self):
        """(name ids, starts, ends, parents) as arrays, plus id -> name."""
        return (
            np.asarray(self.names, dtype=np.int32),
            np.asarray(self.starts, dtype=float),
            np.asarray(self.ends, dtype=float),
            np.asarray(self.parents, dtype=np.int64),
            {i: n for n, i in self._ids.items()},
        )

    def self_seconds(self) -> dict:
        ids, starts, ends, parents, names = self.span_arrays()
        per_span = self_times(starts, ends, parents)
        totals = np.zeros(len(names))
        np.add.at(totals, ids, per_span)
        return {names[i]: float(totals[i]) for i in range(len(names))}

    def save(self, path) -> None:
        ids, starts, ends, parents, names = self.span_arrays()
        np.savez_compressed(
            path,
            name_id=ids,
            start=starts,
            end=ends,
            parent=parents,
            names=np.array([names[i] for i in range(len(names))], dtype=str),
        )


def self_times(starts, ends, parents) -> np.ndarray:
    """Each span's duration minus the durations of its direct children.

    Children run inside their parent's interval on one thread, so the
    part of the parent they cover is the sum of their durations.
    """
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    duration = ends - starts
    covered = np.zeros_like(duration)
    has_parent = parents >= 0
    np.add.at(covered, parents[has_parent], duration[has_parent])
    return duration - covered


# ---------------------------------------------------------------------------
# Installing and removing the wrappers.
# ---------------------------------------------------------------------------

def _package_modules() -> list:
    """Every module of the package, imported now: a module first imported
    inside an instrumented block would keep a wrapper after it ends."""
    package = importlib.import_module(PACKAGE)
    names = [info.name for info in pkgutil.walk_packages(package.__path__, PACKAGE + ".")]
    return [package] + [importlib.import_module(name) for name in sorted(names)]


def binding_sites(targets=TARGETS) -> list:
    """Every (owner, attribute, original, target) the wrappers replace.

    A method is replaced on its class.  A module-level function is
    replaced under every module of the package that holds it, so a
    ``from .x import f`` copy and a package re-export are both covered.
    """
    modules = _package_modules()
    sites = []
    for target in targets:
        home = sys.modules[f"{PACKAGE}.{target.module}"]
        owner_path, _, attr = target.qualname.rpartition(".")
        if owner_path:
            cls = getattr(home, owner_path)
            if attr not in vars(cls):
                raise AttributeError(f"{target.span_name} is not defined on its class")
            sites.append((cls, attr, vars(cls)[attr], target))
            continue
        original = getattr(home, attr)
        for mod in modules:
            if vars(mod).get(attr) is original:
                sites.append((mod, attr, original, target))
    return sites


def _wrapper(recorder: Recorder, target: Target, fn):
    def traced(*args, **kwargs):
        return recorder.call(target, fn, args, kwargs)

    traced.__wrapped__ = fn
    traced.__name__ = getattr(fn, "__name__", target.qualname)
    return traced


@contextlib.contextmanager
def instrumented(recorder: Recorder, targets=TARGETS):
    """Route every call of ``targets`` through ``recorder`` inside the block."""
    sites = binding_sites(targets)
    try:
        for owner, attr, original, target in sites:
            setattr(owner, attr, _wrapper(recorder, target, original))
        yield sites
    finally:
        for owner, attr, original, _ in sites:
            setattr(owner, attr, original)
