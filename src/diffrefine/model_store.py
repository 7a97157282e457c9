"""Trained-model artifacts and their on-disk format, and the on-disk
format of datasets and manifests.

A model file is a numpy .npz archive: a JSON header string (format
version, kind, architecture, train config, seed, extras) plus raw
float64 arrays for parameters and normalization statistics.  Arrays
round-trip bit-exactly.

A dataset is a directory of one tab-separated table per split and a
manifest.json.  A table's first line names its columns; each float is
written as its shortest round-tripping repr, so it reads back to the
bit.  Every manifest, of a dataset, a model or a run, is pretty-printed
JSON with sorted keys.
"""

from __future__ import annotations

import json
import math
import zipfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError, DimensionMismatchError
from .network import FeedForwardNet, NetSpec
from .training import Normalizer

FORMAT_VERSION = 1
# Format version of the dataset manifests read_manifest accepts.
MANIFEST_VERSION = 1
MODEL_ARRAYS = ("params", "x_mean", "x_std", "y_mean", "y_std")


@dataclass
class TrainedModel:
    """A net plus everything needed to use it on raw data.

    kind is one of "regressor", "classifier", "noise".  For noise
    predictors, x_norm normalizes the condition vector and y_norm the
    sample space; extra carries the noise schedule coefficients.
    schedule_cache holds what ``diffusion.model_schedule`` built from
    them; ``save_model`` never writes it.
    """

    kind: str
    net: FeedForwardNet
    x_norm: Normalizer
    y_norm: Normalizer
    seed: int
    train_config: dict = field(default_factory=dict)
    loss_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    extra: dict = field(default_factory=dict)
    schedule_cache: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def predict(self, x) -> np.ndarray:
        """Regressor-style prediction in physical units, for one row or a batch."""
        return self.y_norm.decode(self.net.forward(self.x_norm.encode(x)))

    def predict_logits(self, x) -> np.ndarray:
        return self.net.forward(self.x_norm.encode(x))[..., 0]


def save_model(path, model: TrainedModel) -> None:
    header = {
        "format_version": FORMAT_VERSION,
        "kind": model.kind,
        "spec": model.net.spec.to_config(),
        "seed": model.seed,
        "train_config": model.train_config,
        "extra": {k: v for k, v in model.extra.items() if not isinstance(v, np.ndarray)},
        "extra_arrays": sorted(
            k for k, v in model.extra.items() if isinstance(v, np.ndarray)
        ),
    }
    arrays = {
        "header": np.frombuffer(
            json.dumps(header, sort_keys=True).encode("utf-8"), dtype=np.uint8
        ),
        "params": model.net.get_params(),
        "x_mean": model.x_norm.mean,
        "x_std": model.x_norm.std,
        "y_mean": model.y_norm.mean,
        "y_std": model.y_norm.std,
        "loss_history": np.asarray(model.loss_history, dtype=float),
    }
    for k in header["extra_arrays"]:
        arrays[f"extra_{k}"] = np.asarray(model.extra[k], dtype=float)
    np.savez(path, **arrays)


def write_manifest(path, doc: dict) -> None:
    """``doc`` as the layout of every manifest: indented JSON, keys sorted."""
    Path(path).write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def write_table(path, names, values, labels=None) -> None:
    """One split as a table: columns ``names`` over the float rows of
    ``values``, then an integer "label" column when ``labels`` is given."""
    header = list(names) + (["label"] if labels is not None else [])
    rows = np.asarray(values, dtype=float).tolist()
    tails = [""] * len(rows) if labels is None else [f"\t{int(v)}" for v in labels]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\t".join(header) + "\n")
        for row, tail in zip(rows, tails):
            fh.write("\t".join(map(repr, row)) + tail + "\n")


def read_table(path, names, labels: bool = False):
    """A table write_table wrote: the float columns as an
    (n, len(names)) array, even for n = 0, and the "label" column as an
    (n,) int array when ``labels`` is set (else None).

    The header must list exactly ``names`` (then "label").  Every defect
    is a DataError naming the line: undecodable bytes, a wrong header, a
    row of the wrong width (a blank line, as every table has two or more
    columns), a cell that does not parse, a non-finite float.
    """
    path = Path(path)
    header = list(names) + (["label"] if labels else [])
    try:
        lines = path.read_bytes().splitlines()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    rows, label_cells = [], []
    # An empty file reads as one empty header line.
    for lineno, raw in enumerate(lines or [b""], start=1):
        where = f"{path.name} line {lineno}"
        try:
            cells = raw.decode("utf-8").split("\t")
        except UnicodeDecodeError as exc:
            raise DataError(f"{where}: not UTF-8 text: {exc}") from exc
        if lineno == 1:
            if cells != header:
                raise DataError(f"{where}: columns do not match the manifest")
            continue
        if len(cells) != len(header):
            raise DataError(f"{where}: row width does not match header")
        try:
            rows.append([float(v) for v in cells[: len(names)]])
            if labels:
                label_cells.append(int(cells[-1]))
        except ValueError as exc:
            raise DataError(f"{where}: non-numeric cell: {exc}") from exc
        if not all(map(math.isfinite, rows[-1])):
            raise DataError(f"{where}: non-finite cell")
    values = np.array(rows, dtype=float).reshape(len(rows), len(names))
    return values, (np.array(label_cells, dtype=int) if labels else None)


def read_manifest(directory, kind: str | None = None, keys: dict | None = None) -> dict:
    """The JSON object in ``directory/manifest.json``.

    Every manifest must carry "format_version" MANIFEST_VERSION.
    ``kind``, when given, must equal the manifest's "kind"; ``keys`` maps
    each key the caller reads to the type (or tuple of types) its value
    must have, booleans never standing for numbers.  Every defect is a
    DataError.
    """
    path = Path(directory) / "manifest.json"
    try:
        doc = json.loads(path.read_text(encoding="utf-8"))
    except FileNotFoundError as exc:
        raise DataError(f"no manifest.json under {directory}") from exc
    except (OSError, ValueError) as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    if not isinstance(doc, dict):
        raise DataError(f"{path} must hold a JSON object")
    version = doc.get("format_version")
    if isinstance(version, bool) or version != MANIFEST_VERSION:
        raise DataError(
            f"{path}: unsupported dataset format version {json.dumps(version)}, "
            f"expected {MANIFEST_VERSION}"
        )
    if kind is not None and doc.get("kind") != kind:
        raise DataError(f"{path}: not a {kind} manifest")
    for key, types in (keys or {}).items():
        if key not in doc:
            raise DataError(f"{path} lacks the key {key!r}")
        if isinstance(doc[key], bool) or not isinstance(doc[key], types):
            raise DataError(f"{path}: key {key!r} has the wrong type: {json.dumps(doc[key])}")
    return doc


def load_model(path) -> TrainedModel:
    try:
        archive = np.load(path)
        if not isinstance(archive, np.lib.npyio.NpzFile):
            raise DataError(f"model file {path} is not an .npz archive")
        with archive:
            data = {k: archive[k] for k in archive.files}
    except (OSError, ValueError, EOFError, zipfile.BadZipFile) as exc:
        raise DataError(f"cannot read model file {path}: {exc}") from exc
    if "header" not in data:
        raise DataError(f"model file {path} has no header")
    try:
        header = json.loads(bytes(data["header"]).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DataError(f"model file {path} has a malformed header: {exc}") from exc
    if not isinstance(header, dict):
        raise DataError(f"model file {path} has a malformed header: not a JSON object")
    if header.get("format_version") != FORMAT_VERSION:
        raise DataError(
            f"model file {path} has format version {header.get('format_version')}, "
            f"expected {FORMAT_VERSION}"
        )
    missing = [k for k in MODEL_ARRAYS if k not in data]
    if missing:
        raise DataError(f"model file {path} lacks the arrays {missing}")
    try:
        kind = header["kind"]
        if not isinstance(kind, str):
            raise TypeError(f"kind must be a string, got {kind!r}")
        seed = int(header["seed"])
        net = FeedForwardNet.init(NetSpec.from_config(header["spec"]), rng=_zero_rng())
        net.set_params(data["params"])
        extra = dict(header.get("extra", {}))
        for k in header.get("extra_arrays", []):
            extra[k] = data[f"extra_{k}"]
    except (KeyError, TypeError, ValueError, OverflowError, ConfigError, DimensionMismatchError) as exc:
        raise DataError(f"model file {path} is malformed: {exc!r}") from exc
    spec = net.spec
    # A noise model's x_norm scales its condition; every other kind's, its input.
    x_len = spec.cond_dim if kind == "noise" else spec.x_dim
    for name, length in (("params", net.param_count()), ("x_mean", x_len), ("x_std", x_len),
                         ("y_mean", spec.out_dim), ("y_std", spec.out_dim)):
        if data[name].shape != (length,):
            raise DataError(
                f"model file {path} has {name} of shape {data[name].shape}, "
                f"but its spec needs ({length},)"
            )
    return TrainedModel(
        kind=kind,
        net=net,
        x_norm=Normalizer(mean=data["x_mean"], std=data["x_std"]),
        y_norm=Normalizer(mean=data["y_mean"], std=data["y_std"]),
        seed=seed,
        train_config=header.get("train_config", {}),
        loss_history=data.get("loss_history", np.zeros(0)),
        extra=extra,
    )


def _zero_rng():
    from .numerics import Rng

    return Rng(0)
