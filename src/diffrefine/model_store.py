"""Trained-model artifacts and their on-disk format.

A model file is a numpy .npz archive: a JSON header string (format
version, kind, architecture, train config, seed, extras) plus raw
float64 arrays for parameters and normalization statistics.  Arrays
round-trip bit-exactly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .network import FeedForwardNet, NetSpec
from .training import Normalizer

FORMAT_VERSION = 1


@dataclass
class TrainedModel:
    """A net plus everything needed to use it on raw data.

    kind is one of "regressor", "classifier", "noise".  For noise
    predictors, x_norm normalizes the condition vector and y_norm the
    sample space; extra carries the noise schedule coefficients.
    """

    kind: str
    net: FeedForwardNet
    x_norm: Normalizer
    y_norm: Normalizer
    seed: int
    train_config: dict = field(default_factory=dict)
    loss_history: np.ndarray = field(default_factory=lambda: np.zeros(0))
    extra: dict = field(default_factory=dict)

    def predict(self, x) -> np.ndarray:
        """Regressor-style prediction in physical units."""
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        z = self.x_norm.encode(x)
        out = self.net.forward(z)
        y = self.y_norm.decode(out)
        return y[0] if single else y

    def predict_logits(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        single = x.ndim == 1
        if single:
            x = x[None, :]
        out = self.net.forward(self.x_norm.encode(x))[:, 0]
        return out[0] if single else out


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


def load_model(path) -> TrainedModel:
    try:
        with np.load(path) as archive:
            data = {k: archive[k] for k in archive.files}
    except (OSError, ValueError) as exc:
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
    spec = NetSpec.from_config(header["spec"])
    net = FeedForwardNet.init(spec, rng=_zero_rng())
    net.set_params(data["params"])
    extra = dict(header.get("extra", {}))
    for k in header.get("extra_arrays", []):
        extra[k] = data[f"extra_{k}"]
    return TrainedModel(
        kind=header["kind"],
        net=net,
        x_norm=Normalizer(mean=data["x_mean"], std=data["x_std"]),
        y_norm=Normalizer(mean=data["y_mean"], std=data["y_std"]),
        seed=int(header["seed"]),
        train_config=header.get("train_config", {}),
        loss_history=data.get("loss_history", np.zeros(0)),
        extra=extra,
    )


def _zero_rng():
    from .numerics import Rng

    return Rng(0)
