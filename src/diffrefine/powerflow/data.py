"""Scenario dataset generation, saving and loading.

Each sample scales every load by an independent uniform factor in
[1-spread, 1+spread], rescales generator active power by the total
load ratio, solves the scenario exactly, and stores

    features: p_spec at non-slack buses, then q_spec at PQ buses
    targets:  Va at non-slack buses, then Vm at PQ buses

all per-unit, in bus order.  Scenarios that fail to converge are
discarded and redrawn; a failure share above one half aborts.  Draws
are solved in blocks of up to BLOCK_DRAWS by one block Newton call
and scanned in draw order, so a split holds the rows, and fails at the
draw, that drawing and solving one scenario at a time would give.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..errors import DataError, DatasetInfeasibleError, NoConvergenceError
from ..model_store import (
    MANIFEST_VERSION,
    read_manifest,
    read_table,
    write_manifest,
    write_table,
)
from ..numerics import Rng
from .grid import BUNDLED_CASES, GridCase, case_text
from .solver import Injections, newton_block, pack_state
from .ybus import build_ybus

# The manifest keys load_dataset reads, with the JSON types they must have.
MANIFEST_KEYS = {
    "feature_names": list,
    "target_names": list,
    "case": str,
    "base_mva": (int, float),
    "seed": int,
    "train_spread": (int, float),
    "test_spread": (int, float),
}


@dataclass
class Split:
    features: np.ndarray
    targets: np.ndarray


@dataclass
class PowerFlowDataset:
    case_name: str
    base_mva: float
    seed: int
    train_spread: float
    test_spread: float
    feature_names: list
    target_names: list
    train: Split
    val: Split
    test: Split


def feature_names(case: GridCase) -> list:
    ids = [case.buses[i].id for i in case.non_slack]
    pq_ids = [case.buses[i].id for i in case.pq]
    return [f"p_{i}" for i in ids] + [f"q_{i}" for i in pq_ids]


def target_names(case: GridCase) -> list:
    ids = [case.buses[i].id for i in case.non_slack]
    pq_ids = [case.buses[i].id for i in case.pq]
    return [f"va_{i}" for i in ids] + [f"vm_{i}" for i in pq_ids]


def injections_from_features(case: GridCase, row) -> Injections:
    """Rebuild the per-bus spec arrays from one feature row."""
    row = np.asarray(row, dtype=float)
    k = len(case.non_slack)
    p = np.zeros(case.n)
    q = np.zeros(case.n)
    p[case.non_slack] = row[:k]
    q[case.pq] = row[k:]
    return Injections(p_spec=p, q_spec=q)


# Draws per newton_block call: keeps the Jacobian stack a few MiB.
BLOCK_DRAWS = 64


def _draw_split(case, ybus, n: int, spread: float, rng: Rng, tol: float) -> Split:
    """n accepted scenarios, drawn, solved and scanned in blocks.

    Each block draws the uniforms of up to n - got scenarios at once
    (the stream of drawing them one by one), solves them with one
    newton_block call, and scans the outcomes in draw order, so the
    accepted rows and the draw at which the failure-share check fires
    are those of drawing and solving one scenario at a time.  That check
    also bounds the loop: from the 20th draw on, at most half may fail.
    A NonFiniteError from a block aborts the split, as it did from its
    draw, even where an earlier failure in the block would have ended
    the split first.
    """
    feats = np.empty((n, case.n_unknowns))
    targs = np.empty((n, case.n_unknowns))
    total_pd = float(case.pd.sum())
    got = 0
    failures = 0
    draws = 0
    while got < n:
        b = min(n - got, BLOCK_DRAWS)
        u = rng.uniform(-1.0, 1.0, size=(b, 2, case.n))
        pd = case.pd * (1.0 + spread * u[:, 0])
        qd = case.qd * (1.0 + spread * u[:, 1])
        ratio = pd.sum(axis=1) / total_pd if total_pd > 0 else np.ones(b)
        p_spec = case.pg * ratio[:, None] - pd
        specs = np.concatenate([p_spec[:, case.non_slack], -qd[:, case.pq]], axis=1)
        for spec, outcome in zip(specs, newton_block(case, ybus, specs, tol)):
            draws += 1
            if isinstance(outcome, NoConvergenceError):
                failures += 1
                if failures > draws / 2 and draws >= 20:
                    raise DatasetInfeasibleError(
                        f"{failures} of {draws} scenario draws failed to converge"
                    )
                continue
            feats[got] = spec
            targs[got] = pack_state(case, outcome.state)
            got += 1
    return Split(features=feats, targets=targs)


def generate_dataset(
    case: GridCase,
    n_train: int,
    n_val: int,
    n_test: int,
    train_spread: float = 0.10,
    test_spread: float = 0.20,
    seed: int = 0,
    tol: float = 1e-8,
) -> PowerFlowDataset:
    if min(n_train, n_val, n_test) < 0:
        raise DataError("split sizes must be non-negative")
    if train_spread < 0 or test_spread < 0:
        raise DataError("spreads must be non-negative")
    ybus = build_ybus(case)
    root = Rng(seed)
    return PowerFlowDataset(
        case_name=case.name,
        base_mva=case.base_mva,
        seed=seed,
        train_spread=train_spread,
        test_spread=test_spread,
        feature_names=feature_names(case),
        target_names=target_names(case),
        train=_draw_split(case, ybus, n_train, train_spread, root.fork("train"), tol),
        val=_draw_split(case, ybus, n_val, train_spread, root.fork("val"), tol),
        test=_draw_split(case, ybus, n_test, test_spread, root.fork("test"), tol),
    )


def save_dataset(ds: PowerFlowDataset, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    names = ds.feature_names + ds.target_names
    for split_name in ("train", "val", "test"):
        split = getattr(ds, split_name)
        write_table(out / f"{split_name}.tsv", names, np.hstack((split.features, split.targets)))
    case_sha = None
    if ds.case_name in BUNDLED_CASES:
        case_sha = hashlib.sha256(case_text(ds.case_name).encode()).hexdigest()
    manifest = {
        "format_version": MANIFEST_VERSION,
        "kind": "powerflow-dataset",
        "case": ds.case_name,
        "case_sha256": case_sha,
        "base_mva": ds.base_mva,
        "seed": ds.seed,
        "train_spread": ds.train_spread,
        "test_spread": ds.test_spread,
        "counts": {
            "train": int(ds.train.features.shape[0]),
            "val": int(ds.val.features.shape[0]),
            "test": int(ds.test.features.shape[0]),
        },
        "feature_names": ds.feature_names,
        "target_names": ds.target_names,
    }
    write_manifest(out / "manifest.json", manifest)


def load_dataset(in_dir) -> PowerFlowDataset:
    src = Path(in_dir)
    manifest = read_manifest(src, "powerflow-dataset", MANIFEST_KEYS)
    f_names = manifest["feature_names"]
    t_names = manifest["target_names"]
    splits = {}
    for split_name in ("train", "val", "test"):
        data, _ = read_table(src / f"{split_name}.tsv", f_names + t_names)
        k = len(f_names)
        splits[split_name] = Split(features=data[:, :k], targets=data[:, k:])
    return PowerFlowDataset(
        case_name=manifest["case"],
        base_mva=manifest["base_mva"],
        seed=manifest["seed"],
        train_spread=manifest["train_spread"],
        test_spread=manifest["test_spread"],
        feature_names=f_names,
        target_names=t_names,
        train=splits["train"],
        val=splits["val"],
        test=splits["test"],
    )
