"""Prediction quality metrics for the power-flow track.

Peak mismatches are reported in physical units: the worst absolute
active-power residual per sample in MW and the worst reactive
residual at PQ buses in MVAr.  MSE is computed on the unknown vector
in normalized target units.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import DimensionMismatchError
from ..training import Normalizer
from .grid import GridCase
from .solver import grid_residual
from .ybus import YBus, build_ybus


@dataclass
class MetricsReport:
    mse: np.ndarray
    mapm: np.ndarray  # MW per sample
    mrpm: np.ndarray  # MVAr per sample

    @property
    def mean_mse(self) -> float:
        return float(self.mse.mean())

    @property
    def mean_mapm(self) -> float:
        return float(self.mapm.mean())

    @property
    def mean_mrpm(self) -> float:
        return float(self.mrpm.mean())


def peak_mismatches(case: GridCase, ybus: YBus, predictions: np.ndarray, features: np.ndarray):
    """Per-sample worst |ΔP| (MW) and |ΔQ| (MVAr) under each feature
    row's injections."""
    predictions = np.asarray(predictions, dtype=float)
    features = np.asarray(features, dtype=float)
    if features.shape[0] != predictions.shape[0]:
        raise DimensionMismatchError("features and predictions row counts differ")
    f = grid_residual(case, ybus, predictions, features)
    k = len(case.non_slack)
    dp, dq = f[:, :k], f[:, k:]
    mapm = np.abs(dp).max(axis=1) * case.base_mva
    mrpm = (
        np.abs(dq).max(axis=1) * case.base_mva
        if dq.shape[1]
        else np.zeros(dp.shape[0])
    )
    return mapm, mrpm


def evaluate(
    case: GridCase,
    predictions: np.ndarray,
    targets: np.ndarray,
    features: np.ndarray,
    ybus: YBus | None = None,
    norm: Normalizer | None = None,
) -> MetricsReport:
    """Per-sample MSE/peak-mismatch report for a prediction batch.

    norm defaults to statistics fitted on the given targets; pass the
    training-set normalizer to score like the model was trained.
    """
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise DimensionMismatchError("predictions and targets shapes differ")
    if ybus is None:
        ybus = build_ybus(case)
    if norm is None:
        norm = Normalizer.fit(targets)
    diff = norm.encode(predictions) - norm.encode(targets)
    mse = np.mean(diff * diff, axis=1)
    mapm, mrpm = peak_mismatches(case, ybus, predictions, features)
    return MetricsReport(mse=mse, mapm=mapm, mrpm=mrpm)
