"""Tests of the benchmark's own code, at tiny input sizes.

Run from the repository root:

    PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import TINY, WORKLOADS  # noqa: E402


def _fingerprint(obj) -> str:
    return json.dumps(obj, sort_keys=True, default=lambda a: np.asarray(a).tolist())


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_workload_emits_every_metric_with_identical_outputs(name):
    workload = WORKLOADS[name]
    e2e, layer = run.metric_specs()

    plain = run.run_untraced(workload, 3, 0.01, TINY)
    assert plain["failed"] == 0 and plain["attempted"] > 0
    assert plain["digest"] is not None
    assert {k: v["unit"] for k, v in plain["metrics"].items()} == {m["name"]: m["unit"] for m in e2e}
    assert all(v["value"] > 0 for v in plain["metrics"].values())

    traced = run.run_traced(workload, 3, TINY)
    assert traced["failed"] == 0
    assert traced["digest"] == plain["digest"]
    assert {k: v["unit"] for k, v in traced["metrics"].items()} == {
        m["name"]: m["unit"] for m in layer
    }


def test_benchmark_json_matches_the_code():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    e2e, layer = run.metric_specs()
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [{k: m[k] for k in ("name", "unit", "better")} for m in doc["end_to_end"]] == e2e
    assert doc["per_layer"] == layer
    assert any(m["name"] == "setup_s" for m in doc["end_to_end"])


def test_self_times_subtract_direct_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 7]
    starts = [0.0, 1.0, 5.0, 6.0]
    ends = [10.0, 4.0, 9.0, 7.0]
    parents = [-1, 0, 0, 2]
    assert tracer.self_times(starts, ends, parents).tolist() == [3.0, 3.0, 3.0, 1.0]

    rec = tracer.Recorder()
    rec._ids = {"outer": 0, "inner": 1}
    rec.names, rec.starts, rec.ends, rec.parents = [0, 1, 1, 0], starts, ends, parents
    assert rec.self_seconds() == {"outer": 4.0, "inner": 6.0}


def test_recorder_nests_spans_and_counts():
    rec = tracer.Recorder()
    outer = tracer.Target("m", "outer", count=lambda a, k, r: {"rows": r})
    inner = tracer.Target("m", "inner")
    rec.call(outer, lambda: rec.call(inner, lambda: 2, (), {}) + 1, (), {})
    assert rec.parents == [-1, 0]
    assert rec.counts == {"m.inner": {"calls": 1}, "m.outer": {"calls": 1, "rows": 3}}
    with pytest.raises(ZeroDivisionError):
        rec.call(inner, lambda: 1 / 0, (), {})
    assert rec.counts["m.inner"]["calls"] == 2 and rec._stack == []


def test_wrappers_restore_every_attribute():
    sites = tracer.binding_sites()
    names = {t.span_name for *_, t in sites}
    assert names == {t.span_name for t in tracer.TARGETS}
    # re-exports and ``from .x import f`` copies are wrapped too
    assert sum(t.qualname == "solve_linear" for *_, t in sites) >= 3
    with pytest.raises(RuntimeError):
        with tracer.instrumented(tracer.Recorder()):
            assert all(getattr(owner, attr) is not orig for owner, attr, orig, _ in sites)
            raise RuntimeError("leave the block early")
    for owner, attr, original, _ in sites:
        assert vars(owner)[attr] is original


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_reaches_the_inputs(name):
    workload = WORKLOADS[name]
    one = _fingerprint(workload.inputs(1, TINY))
    assert one == _fingerprint(workload.inputs(1, TINY))
    assert one != _fingerprint(workload.inputs(2, TINY))


def test_seed_changes_generated_data():
    pf = WORKLOADS["pf14-refine"]
    a = pf.setup(pf.inputs(1, TINY))["ds"].train.features
    b = pf.setup(pf.inputs(2, TINY))["ds"].train.features
    assert a.shape == b.shape and not np.array_equal(a, b)


def test_costs_read_the_fastest_pass_speed():
    # three passes over two items costing 3 and 1 units; the host runs at
    # speed 1/2, 1 and 1/2 in them, with a slow moment under item 1 in pass 2
    times = [[6.0, 2.0], [3.0, 1.5], [6.0, 2.0]]
    assert workloads.fastest_costs(times) == pytest.approx([3.0, 1.0])

    def item(rows, walls):
        return workloads.Item(workloads.Op(outputs={}, rows=rows, stages={}),
                              {"main": walls, "wall": walls})

    items = [item(3, [6.0, 3.0, 6.0]), item(1, [2.0, 1.5, 2.0])]
    assert workloads.cost(items, "wall") == pytest.approx(4.0)
    assert workloads.rate(items) == pytest.approx(4 / 4.0)
    assert workloads.rate(items[1:]) == pytest.approx(1 / 1.5)


def test_checks_flag_bad_outputs():
    pf = WORKLOADS["pf30-scenarios"]
    state = pf.setup(pf.inputs(1, TINY))
    op = pf.run(state, 0)
    assert pf.check(state, op, {}) == (op.rows, 0)
    op.outputs["targets"][0, 0] += 1e-3
    assert pf.check(state, op, {workloads.NEWTON: {"nonconverged": 2}}) == (op.rows + 2, 3)

    tab = WORKLOADS["tabular-cyclic"]
    state = tab.setup(tab.inputs(1, TINY))
    op = tab.run(state, 0)
    assert tab.check(state, op, {}) == (op.rows, 0)
    op.outputs["x_adv"][0, 0] = state["pot"].bounds[0, 1] + 1.0
    op.outputs["linf"][-1] = state["cfg"].eps + 1e-6
    assert tab.check(state, op, {}) == (op.rows, 2)

    pf14 = WORKLOADS["pf14-refine"]
    report = np.ones((3, 2))
    worse = workloads.Op(outputs={"refined": np.zeros((2, 3)), "base_report": report,
                                  "refined_report": report}, rows=2, stages={})
    assert pf14.check(None, worse, {}) == (2, 2)

    toy = WORKLOADS["toy-basins"]
    bad = workloads.Op(outputs={"x_final": np.array([[np.nan, 0.0]])}, rows=1, stages={})
    assert toy.check(None, bad, {}) == (1, 1)


def test_bare_benchmark_directory_exits_with_an_error(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name, ignore=shutil.ignore_patterns("results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{HERE.name}/run.py", "--workload", "toy-basins", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
