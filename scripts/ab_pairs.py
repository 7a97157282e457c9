#!/usr/bin/env python3
"""Alternating benchmark pairs of two source trees.

Runs ``perfbench/run.py --trace 0`` of a parent tree and of a change
tree in N pairs per workload.  Both sides of a pair get the same seed,
each pair a fresh one, and the side that runs first swaps from pair to
pair.  For every end-to-end metric that BENCHMARK.json names, it prints
the value of each side in each pair, each side's median and quartiles,
how many pairs the change won (ties count for neither), and one verdict:

  unresolved  the parent's own quartile spread, relative to its median,
              exceeds the metric's bound
  worse       the change's median is worse than the parent's by more
              than the bound
  ok          neither

It also reports, per pair, each side's attempted and failed operations
(a run that attempts more operations keeps more outputs, which lifts
peak_rss_mb) and whether both sides produced the same output digest.
Per side, it fits peak_rss_mb to the attempted count across the pairs
by least squares: the slope, in MiB per 1,000 attempted operations, is
what the harness's retained outputs add, and the intercept the memory
of the program itself.
After the summaries it exits 1, naming the pairs, if any pair's digests
differ or any run failed an operation, so that a bit-for-bit claim
cannot pass unnoticed.  Each run writes its record under its own tree's
``perfbench/results/``, as run.py always does.  A run lasts
BENCHMARK.json's ``run_seconds`` unless ``--seconds`` says otherwise.

    python3 scripts/ab_pairs.py --parent ../parent --change . \\
        --workload tabular-cyclic --pairs 10 --seed 9100
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """The result line of one untraced run, plus its output digest."""
    proc = subprocess.run(
        [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{tree}: run.py exited {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = tree / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    result["digest"] = json.loads(record.read_text())["digest"]
    return result


def quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def summarize(name: str, better: str, bound: float, parent: list, change: list) -> str:
    p_q1, p_med, p_q3 = quartiles(parent)
    c_q1, c_med, c_q3 = quartiles(change)
    sign = 1.0 if better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0.0)
    spread = (p_q3 - p_q1) / abs(p_med) if p_med else float("inf")
    worse = sign * (p_med - c_med) / abs(p_med) if p_med else 0.0
    if spread > bound:
        verdict = "unresolved"
    elif worse > bound:
        verdict = "worse"
    else:
        verdict = "ok"
    ratio = c_med / p_med if p_med else float("nan")
    return (
        f"  {name:12s} parent {p_med:.4g} [{p_q1:.4g}, {p_q3:.4g}]  "
        f"change {c_med:.4g} [{c_q1:.4g}, {c_q3:.4g}]  change/parent {ratio:.3f}  "
        f"wins {wins}/{len(parent)}  parent spread {spread:.3f} (bound {bound})  {verdict}"
    )


def rss_fit(runs: list) -> str:
    """The least-squares line of peak_rss_mb against attempted operations
    over one side's runs, as "slope per 1,000 attempted, intercept"."""
    attempted = [r["attempted"] / 1000.0 for r in runs]
    rss = [r["metrics"]["peak_rss_mb"]["value"] for r in runs]
    if len(set(attempted)) < 2:
        return "n/a (fewer than two distinct attempted counts)"
    slope, intercept = statistics.linear_regression(attempted, rss)
    return f"{slope:.4g} MiB per 1,000 attempted, {intercept:.4g} MiB at none"


def pair_faults(workload: str, seeds: list, parent: list, change: list) -> list:
    """One line per pair whose output digests differ or whose runs
    failed operations; empty when every pair is clean."""
    faults = []
    for seed, p, c in zip(seeds, parent, change):
        what = []
        if p["digest"] != c["digest"]:
            what.append("output digests differ")
        if p["failed"] or c["failed"]:
            what.append(f"failed operations {p['failed']}/{c['failed']} (parent/change)")
        if what:
            faults.append(f"{workload} pair seed {seed}: {', '.join(what)}")
    return faults


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", type=Path, required=True, help="source tree of the parent")
    ap.add_argument("--change", type=Path, required=True, help="source tree of the change")
    ap.add_argument("--workload", action="append", required=True,
                    help="workload name; repeat for several")
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seed", type=int, required=True, help="seed of the first pair")
    ap.add_argument("--seconds", type=float, default=float(spec["run_seconds"]),
                    help="length of each run (default: BENCHMARK.json's run_seconds)")
    args = ap.parse_args(argv)
    if args.pairs < 1:
        ap.error("--pairs must be at least 1")

    metrics = [(m["name"], m["better"], float(m["bound"])) for m in spec["end_to_end"]]
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    faults = []
    for workload in args.workload:
        runs = {"parent": [], "change": []}
        print(f"{workload}: {args.pairs} pairs, seeds {args.seed}..{args.seed + args.pairs - 1}, "
              f"{args.seconds} s runs")
        for i in range(args.pairs):
            seed = args.seed + i
            order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
            for side in order:
                runs[side].append(run_once(trees[side], workload, seed, args.seconds))
            p, c = runs["parent"][-1], runs["change"][-1]
            values = "  ".join(
                f"{name} {p['metrics'][name]['value']:.4g}/{c['metrics'][name]['value']:.4g}"
                for name, _, _ in metrics
            )
            print(f" pair {i + 1} seed {seed} first {order[0]}: (parent/change) {values}  "
                  f"attempted {p['attempted']}/{c['attempted']}  failed {p['failed']}/{c['failed']}  "
                  f"digest {'equal' if p['digest'] == c['digest'] else 'DIFFERENT'}", flush=True)
        for name, better, bound in metrics:
            print(summarize(
                name, better, bound,
                [r["metrics"][name]["value"] for r in runs["parent"]],
                [r["metrics"][name]["value"] for r in runs["change"]],
            ))
        for side in ("parent", "change"):
            print(f"  peak_rss_mb fit, {side}: {rss_fit(runs[side])}")
        seeds = [args.seed + i for i in range(args.pairs)]
        faults += pair_faults(workload, seeds, runs["parent"], runs["change"])
    for line in faults:
        print(f"FAIL {line}", file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
