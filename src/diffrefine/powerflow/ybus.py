"""Bus admittance matrix assembly (standard Pi branch model)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from ..errors import ZeroImpedanceBranchError
from .grid import GridCase


@dataclass(frozen=True)
class YBus:
    """Complex admittance split into real conductance/susceptance parts."""

    g: np.ndarray
    b: np.ndarray

    @functools.cached_property
    def complex_matrix(self) -> np.ndarray:
        """g + jb, built on first use and kept read-only: the Newton
        iteration and every power evaluation read it."""
        y = self.g + 1j * self.b
        y.flags.writeable = False
        return y


def build_ybus(case: GridCase) -> YBus:
    """Assemble the network admittance matrix.

    Series admittance 1/(r+jx) with half the charging susceptance at
    each end; off-nominal turns ratio and phase shift sit on the from
    side, so Y_ft and Y_tf differ only when a branch shifts phase.
    """
    y = np.zeros((case.n, case.n), dtype=complex)
    for br in case.branches:
        if br.r == 0.0 and br.x == 0.0:
            raise ZeroImpedanceBranchError(
                f"branch {br.f}-{br.t} has zero series impedance"
            )
        i = case.index_of[br.f]
        j = case.index_of[br.t]
        ys = 1.0 / complex(br.r, br.x)
        bc = 0.5j * br.b
        a = br.tap * np.exp(1j * br.shift)
        y[i, i] += (ys + bc) / (br.tap * br.tap)
        y[j, j] += ys + bc
        y[i, j] += -ys / np.conj(a)
        y[j, i] += -ys / a
    d = np.arange(case.n)
    y[d, d] += case.gs + 1j * case.bs
    return YBus(g=y.real.copy(), b=y.imag.copy())
