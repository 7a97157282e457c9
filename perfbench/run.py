"""Benchmark runner for diffrefine.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload pf14-refine --seed 1 --seconds 10 --trace 0

``--trace 0`` times the workload with tracing off and prints the
end-to-end metrics.  ``--trace 1`` runs one untraced pass and one traced
pass over the same inputs, checks that both produce the same outputs,
and prints the per-layer metrics.  The last line of standard output is
the result as one JSON object; the full record, with the run
environment, goes to ``perfbench/results/``.

Everything runs in this one process: no pools and ``workers=1``, with
BLAS held to one thread.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

SETUP_REPEATS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

# name -> (unit, better); printed by every untraced run of every workload.
END_TO_END = {
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MiB", "lower"),
    "rows_per_s": ("1/s", "higher"),
    "pass_s": ("s", "lower"),
}


def metric_specs() -> tuple:
    """(end-to-end, per-layer) metric lists as BENCHMARK.json names them,
    without bounds."""
    from tracer import STAT_UNITS, TARGETS
    from workloads import WORKLOAD_FIGURES

    e2e = [{"name": n, "unit": u, "better": b} for n, (u, b) in END_TO_END.items()]
    layer = [{"name": n, "unit": u, "better": b} for n, u, b in WORKLOAD_FIGURES]
    layer += [
        {"name": f"{t.span_name}.{stat}", "unit": STAT_UNITS[stat], "better": "lower"}
        for t in TARGETS for stat in t.stats
    ]
    layer.append({"name": "trace.overhead_frac", "unit": "ratio", "better": "lower"})
    return e2e, layer


@dataclass
class Record:
    """One operation of a pass: pool index, result (None if it raised),
    count deltas seen while it ran, and its wall time."""

    index: int
    op: object
    counts: dict
    wall: float


def _counts_delta(after: dict, before: dict) -> dict:
    out = {}
    for name, bucket in after.items():
        old = before.get(name, {})
        diff = {k: v - old.get(k, 0) for k, v in bucket.items() if v != old.get(k, 0)}
        if diff:
            out[name] = diff
    return out


def _snapshot(counts: dict) -> dict:
    return {name: dict(bucket) for name, bucket in counts.items()}


def run_pass(workload, state, recorder, passes: int = 1, budget: float = 0.0) -> list:
    """Cycle through the workload's pool until ``passes`` full passes are
    done and the operations have taken ``budget`` seconds in total."""
    n = workload.pool(state)
    records = []
    spent = 0.0
    i = 0
    while i < n * passes or spent < budget:
        before = _snapshot(recorder.counts)
        t0 = time.perf_counter()
        try:
            op = workload.run(state, i % n)
        except Exception:  # an operation that raises is counted as failed
            traceback.print_exc(file=sys.stderr)
            op = None
        wall = time.perf_counter() - t0
        records.append(Record(i % n, op, _counts_delta(recorder.counts, before), wall))
        spent += wall
        i += 1
    return records


def check_pass(workload, state, records: list):
    """(attempted, failed, pass digest or None if outputs differ between
    repeats of one pool item or an item raised)."""
    attempted = failed = 0
    digests = {}
    consistent = True
    for rec in records:
        if rec.op is None:
            rows = workload.op_rows(state, rec.index)
            attempted += rows
            failed += rows
            consistent = False
            continue
        a, f = workload.check(state, rec.op, rec.counts)
        attempted += a
        failed += f
        digest = output_digest(rec.op.outputs)
        if digests.setdefault(rec.index, digest) != digest:
            print(f"outputs of pool item {rec.index} differ between repeats", file=sys.stderr)
            consistent = False
    if not consistent or len(digests) < workload.pool(state):
        return attempted, failed, None
    joined = "".join(digests[i] for i in range(workload.pool(state)))
    return attempted, failed, hashlib.sha256(joined.encode()).hexdigest()


def output_digest(outputs: dict) -> str:
    import numpy as np

    h = hashlib.sha256()
    for key in sorted(outputs):
        arr = np.ascontiguousarray(outputs[key])
        h.update(f"{key}|{arr.dtype.str}|{arr.shape}|".encode())
        h.update(arr.tobytes())
    return h.hexdigest()


def pool_items(workload, state, records: list) -> list:
    """One Item per pool index, with the times of every complete pass in
    which no operation raised; empty when there is no such pass."""
    from workloads import Item

    n = workload.pool(state)
    passes = [records[k : k + n] for k in range(0, len(records) - n + 1)
              if records[k].index == 0]
    passes = [p for p in passes if [r.index for r in p] == list(range(n))
              and all(r.op is not None for r in p)]
    if not passes:
        return []
    items = []
    for i in range(n):
        stages = [dict(p[i].op.stages, wall=p[i].wall) for p in passes]
        items.append(Item(passes[0][i].op, {k: [st[k] for st in stages] for k in stages[0]}))
    return items


def peak_rss_mib() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# The two kinds of run.
# ---------------------------------------------------------------------------

def run_untraced(workload, seed: int, seconds: float, sizes) -> dict:
    from tracer import Recorder, instrumented, targets_named
    from workloads import cost, rate

    inputs = workload.inputs(seed, sizes)
    setup_times = []
    records = []
    recorder = Recorder(keep_spans=False)
    # One pass after each set-up; the passes show that each set-up gives
    # the same outputs.
    with instrumented(recorder, targets_named(workload.counted)):
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            state = workload.setup(inputs)
            setup_times.append(time.perf_counter() - t0)
            records += run_pass(workload, state, recorder)
        spent = sum(rec.wall for rec in records)
        records += run_pass(workload, state, recorder, passes=0, budget=seconds - spent)
    attempted, failed, digest = check_pass(workload, state, records)
    items = pool_items(workload, state, records)
    figures = workload.summary(state, items) if items else {}
    metrics = {
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_mib(),
        "rows_per_s": rate(items) if items else 0.0,
        "pass_s": cost(items, "wall") if items else 0.0,
    }
    return {
        "metrics": {k: {"value": v, "unit": END_TO_END[k][0]} for k, v in metrics.items()},
        "attempted": attempted,
        "failed": failed,
        "digest": digest,
        "figures": figures,
        "detail": {"setup_s": setup_times, "op_walls": [rec.wall for rec in records],
                   "op_index": [rec.index for rec in records]},
    }


def run_traced(workload, seed: int, sizes, spans_path=None) -> dict:
    from tracer import STAT_UNITS, Recorder, instrumented, layer_metrics, targets_named
    from workloads import WORKLOAD_FIGURES

    inputs = workload.inputs(seed, sizes)
    state = workload.setup(inputs)
    counter = Recorder(keep_spans=False)
    t0 = time.perf_counter()
    with instrumented(counter, targets_named(workload.counted)):
        plain = run_pass(workload, state, counter)
    pass_plain = time.perf_counter() - t0

    # The traced set-up runs second, after one-time costs that the program
    # caches in-process, so only the two passes are compared for overhead.
    recorder = Recorder()
    with instrumented(recorder):
        traced_state = workload.setup(inputs)
        t0 = time.perf_counter()
        traced = run_pass(workload, traced_state, recorder)
        pass_traced = time.perf_counter() - t0

    attempted, failed, digest = check_pass(workload, state, plain)
    t_attempted, t_failed, t_digest = check_pass(workload, traced_state, traced)
    same = digest is not None and digest == t_digest
    if not same:
        print("traced outputs differ from untraced outputs", file=sys.stderr)
    items = pool_items(workload, state, plain)
    figures = workload.summary(state, items) if items else {}
    figures["failed_frac"] = failed / attempted if attempted else 1.0
    metrics = {}
    for name, unit, _ in WORKLOAD_FIGURES:
        metrics[name] = {"value": figures.get(name, 0.0), "unit": unit}
    for name, value in layer_metrics(recorder).items():
        metrics[name] = {"value": value, "unit": STAT_UNITS[name.rsplit(".", 1)[1]]}
    metrics["trace.overhead_frac"] = {
        "value": pass_traced / pass_plain - 1.0, "unit": "ratio"
    }
    if spans_path is not None:
        recorder.save(spans_path)
    return {
        "metrics": metrics,
        "attempted": attempted + t_attempted,
        "failed": failed + t_failed,
        "digest": digest if same else None,
        "figures": figures,
        "detail": {"spans": len(recorder.names), "untraced_pass_s": pass_plain,
                   "traced_pass_s": pass_traced},
    }


# ---------------------------------------------------------------------------
# Run environment, code identity and the digest record.
# ---------------------------------------------------------------------------

def git_sha(root: Path):
    """HEAD's commit from the ``.git`` directory, or None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def code_id(root: Path) -> str:
    """sha256 over the program's sources and the benchmark's code."""
    h = hashlib.sha256()
    files = [p for p in sorted((root / "src").rglob("*")) if p.is_file()
             and "__pycache__" not in p.parts]
    files += sorted(HERE.glob("*.py"))
    for path in files:
        h.update(str(path.relative_to(root)).encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def environment(root: Path) -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (KeyError, TypeError):
        blas = "unknown"
    return {
        "git_sha": git_sha(root),
        "code_sha256": code_id(root),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in BLAS_THREAD_VARS},
        "cpu_count": os.cpu_count(),
        "loadavg_start": list(os.getloadavg()),
    }


def check_digest_record(path: Path, key: str, digest) -> bool:
    """False when an earlier run of the same code and seed recorded other outputs."""
    if digest is None:
        return False
    try:
        known = json.loads(path.read_text())
    except (OSError, ValueError):
        known = {}
    if known.setdefault(key, digest) != digest:
        print(f"outputs differ from an earlier run of the same code ({key})", file=sys.stderr)
        return False
    tmp = path.with_suffix(".tmp")
    tmp.write_text(json.dumps(known, indent=1, sort_keys=True))
    os.replace(tmp, path)
    return True


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diffrefine" / "__init__.py").is_file():
        print(f"error: no diffrefine sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import diffrefine

    if Path(diffrefine.__file__).resolve().parent != SRC / "diffrefine":
        print(f"error: imported diffrefine from {diffrefine.__file__}", file=sys.stderr)
        return 2
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    workload = workloads.WORKLOADS[args.workload]
    header = environment(ROOT)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}"
    if args.trace:
        out = run_traced(workload, args.seed, workloads.Sizes(), RESULTS / f"{stem}-spans.npz")
    else:
        out = run_untraced(workload, args.seed, args.seconds, workloads.Sizes())
    header["loadavg_end"] = list(os.getloadavg())
    recorded = check_digest_record(
        RESULTS / "digests.json", f"{args.workload}|seed={args.seed}|code={header['code_sha256']}",
        out["digest"],
    )
    result = {
        "correct": recorded and out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }
    (RESULTS / f"{stem}-trace{args.trace}.json").write_text(
        json.dumps({"environment": header, "result": result, "digest": out["digest"],
                    "figures": out["figures"], "detail": out["detail"]}, indent=1)
        + "\n"
    )
    print("environment " + json.dumps(header, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
