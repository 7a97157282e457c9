"""Newton-Raphson power flow and the Kirchhoff mismatch potential.

Conventions: per-unit throughout, angles in radians.  The mismatch is
spec minus calculated, with active rows at every non-slack bus and
reactive rows at PQ buses.  The unknown vector packs Va at non-slack
buses followed by Vm at PQ buses, in bus order.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import (
    DimensionMismatchError,
    NoConvergenceError,
    SingularMatrixError,
)
from ..numerics import solve_linear
from ..potentials import ConstraintPotential
from .grid import GridCase
from .ybus import YBus, build_ybus


@dataclass(frozen=True)
class Injections:
    """Specified bus power context: p_spec everywhere (slack entry
    unused), q_spec meaningful at PQ buses."""

    p_spec: np.ndarray
    q_spec: np.ndarray


def nominal_injections(case: GridCase) -> Injections:
    return Injections(p_spec=case.pg - case.pd, q_spec=-case.qd)


def load_injections(case: GridCase, pd, qd, pg) -> Injections:
    """Injections for explicit per-bus load and generation arrays."""
    return Injections(
        p_spec=np.asarray(pg, dtype=float) - np.asarray(pd, dtype=float),
        q_spec=-np.asarray(qd, dtype=float),
    )


@dataclass
class PowerFlowState:
    vm: np.ndarray
    va: np.ndarray


def flat_start(case: GridCase) -> PowerFlowState:
    """Unit magnitude and zero angle at every unknown; regulated buses
    sit at their setpoints."""
    vm = np.ones(case.n)
    fixed = np.concatenate(([case.slack], case.pv)).astype(int)
    vm[fixed] = case.vset[fixed]
    va = np.full(case.n, case.va_ref[case.slack])
    return PowerFlowState(vm=vm, va=va)


def pack_state(case: GridCase, state: PowerFlowState) -> np.ndarray:
    return np.concatenate([state.va[case.non_slack], state.vm[case.pq]])


def unpack_state(case: GridCase, x) -> PowerFlowState:
    vm, va = batch_states(case, np.asarray(x, dtype=float)[None])
    return PowerFlowState(vm=vm[0], va=va[0])


def batch_states(case: GridCase, xs):
    """Expand packed unknown vectors (m, n_unknowns) to full (vm, va) arrays."""
    xs = np.asarray(xs, dtype=float)
    if xs.ndim != 2 or xs.shape[1] != case.n_unknowns:
        raise DimensionMismatchError(
            f"need (m, {case.n_unknowns}) unknown vectors, got {xs.shape}"
        )
    m = xs.shape[0]
    base = flat_start(case)
    vm = np.tile(base.vm, (m, 1))
    va = np.tile(base.va, (m, 1))
    k = len(case.non_slack)
    va[:, case.non_slack] = xs[:, :k]
    vm[:, case.pq] = xs[:, k:]
    return vm, va


def injection_features(case: GridCase, injections: Injections) -> np.ndarray:
    """The spec in the dataset feature layout: p_spec at non-slack
    buses, then q_spec at PQ buses."""
    return np.concatenate([injections.p_spec[case.non_slack], injections.q_spec[case.pq]])


def complex_power(ybus: YBus, vm, va) -> np.ndarray:
    """Injected complex power per bus; accepts (n,) or (m, n) arrays."""
    v = np.asarray(vm, dtype=float) * np.exp(1j * np.asarray(va, dtype=float))
    i = v @ ybus.complex_matrix.T
    return v * np.conj(i)


def mismatch(case: GridCase, ybus: YBus, state: PowerFlowState, injections: Injections | None = None):
    """(ΔP at non-slack buses, ΔQ at PQ buses), spec minus calculated."""
    if injections is None:
        injections = nominal_injections(case)
    spec = injection_features(case, injections)
    f = _state_residual(case, ybus, state.vm, state.va, spec)
    k = len(case.non_slack)
    return f[:k], f[k:]


def mismatch_vector(case, ybus, x, injections=None) -> np.ndarray:
    return KirchhoffPotential(case, ybus, injections).residual(x)


def grid_residual(case: GridCase, ybus: YBus, xs, spec) -> np.ndarray:
    """Spec minus calculated power for packed states xs (m, n_unknowns),
    in the feature layout: ΔP at non-slack buses, then ΔQ at PQ buses.

    spec is one feature row for every state, or one row per state.
    """
    return _state_residual(case, ybus, *batch_states(case, xs), spec)


def _state_residual(case: GridCase, ybus: YBus, vm, va, spec) -> np.ndarray:
    """grid_residual on bus voltages: (n,) for one state or (m, n)."""
    s = complex_power(ybus, vm, va)
    spec = np.asarray(spec, dtype=float)
    k = len(case.non_slack)
    return np.concatenate(
        [spec[..., :k] - s.real[..., case.non_slack], spec[..., k:] - s.imag[..., case.pq]], axis=-1
    )


def grid_residual_grad(case: GridCase, ybus: YBus, xs, spec):
    """(residual F, gradient of its squared norm -2 JᵀF) per state, from
    one expansion of xs; J is the Newton Jacobian (d(residual)/dx = -J)."""
    vm, va = batch_states(case, xs)
    f = _state_residual(case, ybus, vm, va, spec)
    jac = mismatch_jacobian_batch(case, ybus, vm, va)
    return f, -2.0 * np.einsum("bij,bi->bj", jac, f)


def _ds_dv(y_c: np.ndarray, v: np.ndarray):
    """Complex-form partial derivatives of injected power.

    v has shape (m, n); returns (dS/dVa, dS/dVm), each (m, n, n).
    """
    m, n = v.shape
    i_bus = v @ y_c.T
    vn = v / np.abs(v)
    d = np.arange(n)

    ds_dva = -1j * (v[:, :, None] * np.conj(y_c)[None, :, :] * np.conj(v)[:, None, :])
    ds_dva[:, d, d] += 1j * v * np.conj(i_bus)

    ds_dvm = v[:, :, None] * np.conj(y_c)[None, :, :] * np.conj(vn)[:, None, :]
    ds_dvm[:, d, d] += np.conj(i_bus) * vn
    return ds_dva, ds_dvm


def power_jacobian(case: GridCase, ybus: YBus, state: PowerFlowState) -> np.ndarray:
    """d(calculated P, Q)/d(unknowns), the standard polar NR Jacobian."""
    return mismatch_jacobian_batch(
        case, ybus, state.vm[None, :], state.va[None, :]
    )[0]


def mismatch_jacobian_batch(case: GridCase, ybus: YBus, vm: np.ndarray, va: np.ndarray) -> np.ndarray:
    """d(mismatch)/d(unknowns) for a batch of full (vm, va) states."""
    v = vm * np.exp(1j * va)
    ds_dva, ds_dvm = _ds_dv(ybus.complex_matrix, v)
    ns, pq = case.non_slack, case.pq
    top = np.concatenate(
        [ds_dva[:, ns][:, :, ns].real, ds_dvm[:, ns][:, :, pq].real], axis=2
    )
    bot = np.concatenate(
        [ds_dva[:, pq][:, :, ns].imag, ds_dvm[:, pq][:, :, pq].imag], axis=2
    )
    return np.concatenate([top, bot], axis=1)


NEWTON_MAX_ITER = 50


@dataclass
class NewtonResult:
    state: PowerFlowState
    iterations: int
    residuals: np.ndarray  # max-mismatch after each update, leading entry at the flat start


def newton_raphson(
    case: GridCase,
    ybus: YBus | None = None,
    injections: Injections | None = None,
    tol: float = 1e-8,
) -> NewtonResult:
    """Full Newton iteration on the mismatch equations from a flat start.

    Raises NoConvergenceError when NEWTON_MAX_ITER updates leave the
    worst mismatch above tol, or the Jacobian goes singular (voltage
    collapse / infeasible injections).
    """
    if ybus is None:
        ybus = build_ybus(case)
    if injections is None:
        injections = nominal_injections(case)
    state = flat_start(case)
    spec = injection_features(case, injections)
    history = []
    for it in range(NEWTON_MAX_ITER + 1):
        f = _state_residual(case, ybus, state.vm, state.va, spec)
        worst = float(np.abs(f).max()) if f.size else 0.0
        history.append(worst)
        if not np.isfinite(worst):
            raise NoConvergenceError(
                "mismatch diverged to non-finite values",
                iterations=it, residual=worst,
            )
        if worst < tol:
            return NewtonResult(state=state, iterations=it, residuals=np.array(history))
        if it == NEWTON_MAX_ITER:
            break
        jac = power_jacobian(case, ybus, state)
        try:
            step = solve_linear(jac, f)
        except SingularMatrixError:
            raise NoConvergenceError(
                "singular Jacobian during Newton iteration",
                iterations=it, residual=worst,
            ) from None
        k = len(case.non_slack)
        state.va[case.non_slack] += step[:k]
        state.vm[case.pq] += step[k:]
    raise NoConvergenceError(
        f"no convergence after {NEWTON_MAX_ITER} iterations",
        iterations=NEWTON_MAX_ITER, residual=history[-1],
    )


class KirchhoffPotential(ConstraintPotential):
    """Sum of squared per-unit power mismatches over the unknown vector.

    Zero exactly on power-flow solutions.  The gradient reuses the NR
    Jacobian: d(mismatch)/dx = -J, so grad = -2 J^T F.
    """

    def __init__(self, case: GridCase, ybus: YBus | None = None, injections: Injections | None = None):
        self.dim = case.n_unknowns
        self.case = case
        self.ybus = ybus if ybus is not None else build_ybus(case)
        self.injections = injections if injections is not None else nominal_injections(case)
        self.spec = injection_features(case, self.injections)

    def value_batch(self, xs) -> np.ndarray:
        f = grid_residual(self.case, self.ybus, xs, self.spec)
        return np.sum(f * f, axis=1)

    def grad_batch(self, xs) -> np.ndarray:
        return grid_residual_grad(self.case, self.ybus, xs, self.spec)[1]

    def value_and_grad_batch(self, xs):
        f, g = grid_residual_grad(self.case, self.ybus, xs, self.spec)
        return np.sum(f * f, axis=1), g

    def residual(self, x) -> np.ndarray:
        """Spec minus calculated power at x, in the feature layout."""
        return grid_residual(self.case, self.ybus, np.asarray(x, dtype=float)[None], self.spec)[0]


def kirchhoff_potential(
    case: GridCase, ybus: YBus | None = None, injections: Injections | None = None
) -> KirchhoffPotential:
    return KirchhoffPotential(case, ybus, injections)
