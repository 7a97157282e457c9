"""Smoke runs of the experiment scripts at small sizes.

The scripts call the public entry points of each track directly, so an
API change that breaks them shows here rather than at the next full
experiment run.
"""

import importlib.util
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

from diffrefine.baselines import load_toy_demo

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _run(script: str, *args) -> str:
    proc = subprocess.run(
        [sys.executable, str(SCRIPTS / script), *args],
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_power_track():
    out = _run("run_power_track.py", "--n-train", "60", "--n-val", "10", "--n-test", "10")
    assert "method\tmse\tmapm_mw\tmrpm_mvar" in out.splitlines()
    assert "improved fraction:" in out


def test_attack_track():
    out = _run("run_attack_track.py", "--samples", "5")
    lines = out.splitlines()
    assert any(line.startswith("attack\tn_attacked\trobust_accuracy") for line in lines)
    assert "violation ratio cyclic/pgd:" in out


def test_toy_track(tmp_path):
    # The shipped recipe's model at a small size, and starts from which
    # gradient descent converges in tens of steps instead of running to
    # its 20000-step cap.
    demo = load_toy_demo()
    demo["starts"] = {"east": [[3.0, 3.0]], "west": [[-3.0, -2.0]]}
    demo["model"]["n_samples"] = 200
    demo["model"]["train"]["epochs"] = 2
    recipe = tmp_path / "demo.json"
    recipe.write_text(json.dumps(demo))
    out = _run("run_toy_track.py", "--demo", str(recipe))
    rows = [line.split() for line in out.splitlines() if "->" in line]
    assert len(rows) == 2 * 3
    assert sorted(r[1] for r in rows) == ["gd", "gd", "nr", "nr", "refine", "refine"]


def test_find_toy_starts():
    out = _run("find_toy_starts.py", "--grid", "1", "--ring", "1")
    assert "of 1 grid points qualify" in out
    assert "of 1 ring points qualify" in out


def test_ab_pairs(tmp_path):
    # One pair of a copy of this tree against itself, so that the runs'
    # records land in the copy; equal digests and no failures exit 0.
    tree = tmp_path / "tree"
    ignore = shutil.ignore_patterns("results", "__pycache__")
    for part in ("src", "perfbench"):
        shutil.copytree(SCRIPTS.parent / part, tree / part, ignore=ignore)
    out = _run("ab_pairs.py", "--parent", str(tree), "--change", str(tree),
               "--workload", "pf30-scenarios", "--pairs", "1", "--seed", "3", "--seconds", "0.5")
    lines = out.splitlines()
    assert any(line.startswith(" pair 1 seed 3 first parent:") and "digest equal" in line
               and re.search(r"attempted [1-9]\d*/[1-9]\d*  failed 0/0", line)
               for line in lines)
    for metric in ("setup_s", "peak_rss_mb", "rows_per_s", "pass_s"):
        assert any(line.strip().startswith(metric) and re.search(r"wins [01]/1", line)
                   for line in lines)


def _load_ab_pairs():
    spec = importlib.util.spec_from_file_location("ab_pairs", SCRIPTS / "ab_pairs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_ab_pairs_faults_name_each_bad_pair():
    ab_pairs = _load_ab_pairs()
    clean = {"digest": "d0", "failed": 0}
    assert ab_pairs.pair_faults("w", [1, 2], [clean, clean], [clean, clean]) == []
    faults = ab_pairs.pair_faults(
        "w", [1, 2, 3],
        [clean, clean, {"digest": "d0", "failed": 2}],
        [{"digest": "d1", "failed": 0}, clean, clean],
    )
    assert faults == [
        "w pair seed 1: output digests differ",
        "w pair seed 3: failed operations 2/0 (parent/change)",
    ]


def test_ab_pairs_exits_1_on_a_digest_mismatch(monkeypatch, capsys, tmp_path):
    ab_pairs = _load_ab_pairs()
    metrics = {"metrics": {name: {"value": 1.0}
                           for name in ("setup_s", "peak_rss_mb", "rows_per_s", "pass_s")},
               "attempted": 4, "failed": 0}

    def run_once(tree, workload, seed, seconds):
        return dict(metrics, digest=tree.name)

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "a"),
            "--workload", "pf30-scenarios", "--pairs", "2", "--seed", "7"]
    assert ab_pairs.main(argv) == 0
    argv[3] = str(tmp_path / "b")
    assert ab_pairs.main(argv) == 1
    out, err = capsys.readouterr()
    assert "rows_per_s" in out  # the summary is printed first
    assert out.count("attempted 4/4  failed 0/0") == 4  # every pair line of both calls
    assert err.splitlines() == [
        "FAIL pf30-scenarios pair seed 7: output digests differ",
        "FAIL pf30-scenarios pair seed 8: output digests differ",
    ]


def test_ab_pairs_runs_last_as_long_as_the_benchmark_runs(monkeypatch, capsys, tmp_path):
    # A BENCHMARK.json whose run_seconds is not 24 shows where the
    # default comes from; run_once is stubbed, so no pair runs.
    ab_pairs = _load_ab_pairs()
    spec = json.loads((SCRIPTS.parent / "BENCHMARK.json").read_text())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(dict(spec, run_seconds=7)))
    monkeypatch.setattr(ab_pairs, "ROOT", tmp_path)
    seen = []

    def run_once(tree, workload, seed, seconds):
        seen.append(seconds)
        return {"metrics": {m["name"]: {"value": 1.0} for m in spec["end_to_end"]},
                "attempted": 4, "failed": 0, "digest": "d0"}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path), "--change", str(tmp_path),
            "--workload", "toy-basins", "--pairs", "1", "--seed", "5"]
    assert ab_pairs.main(argv) == 0
    assert "7.0 s runs" in capsys.readouterr().out
    assert ab_pairs.main(argv + ["--seconds", "0.5"]) == 0
    assert seen == [7.0, 7.0, 0.5, 0.5]


def test_ab_pairs_fits_peak_rss_to_attempted_operations(monkeypatch, capsys, tmp_path):
    # Each side's peak_rss_mb is a line in its attempted count, so the
    # fit recovers that line's slope per 1,000 attempted and intercept.
    ab_pairs = _load_ab_pairs()
    lines = {"a": (40.0, 1.1), "b": (45.0, 0.5)}
    attempted = iter([3000, 3000, 5000, 5000, 7000, 7000, 9000, 9000])

    def run_once(tree, workload, seed, seconds):
        count = next(attempted)
        intercept, slope = lines[tree.name]
        values = {name: 1.0 for name in ("setup_s", "rows_per_s", "pass_s")}
        values["peak_rss_mb"] = intercept + slope * count / 1000.0
        return {"metrics": {name: {"value": v} for name, v in values.items()},
                "attempted": count, "failed": 0, "digest": "d0"}

    monkeypatch.setattr(ab_pairs, "run_once", run_once)
    argv = ["--parent", str(tmp_path / "a"), "--change", str(tmp_path / "b"),
            "--workload", "pf30-scenarios", "--pairs", "4", "--seed", "7"]
    assert ab_pairs.main(argv) == 0
    out = capsys.readouterr().out.splitlines()
    assert "  peak_rss_mb fit, parent: 1.1 MiB per 1,000 attempted, 40 MiB at none" in out
    assert "  peak_rss_mb fit, change: 0.5 MiB per 1,000 attempted, 45 MiB at none" in out
    # one pair, or equal counts, leave the slope undefined
    assert ab_pairs.rss_fit([{"attempted": 5, "metrics": {"peak_rss_mb": {"value": 1.0}}}] * 2) \
        == "n/a (fewer than two distinct attempted counts)"
