"""Newton-Raphson power flow and the Kirchhoff mismatch potential.

Conventions: per-unit throughout, angles in radians.  The mismatch is
spec minus calculated, with active rows at every non-slack bus and
reactive rows at PQ buses.  The unknown vector packs Va at non-slack
buses followed by Vm at PQ buses, in bus order.

One Kirchhoff kernel: packed states are expanded once per call into
complex voltages v and currents I = v Yᵀ, and the residual and the
Jacobian both read them, with the flat start and the gather indices
built once per case (GridCase.state_layout).  Results are byte-equal
to the per-quantity expansions this kernel replaced, memory layouts
included, since numpy's reductions round by layout.

One Newton loop: newton_block iterates a block of scenarios together,
with one linear solve per iteration, and gives each scenario the bytes
of solving it alone; newton_raphson is a block of one.  Every scenario
starts from the same flat start, and the Jacobian depends on the state
alone, so the first iteration solves all of them against one Jacobian
in one elimination; later iterations solve a stack of Jacobians.
"""

from __future__ import annotations

import math
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
    sit at their setpoints.  Fresh arrays: Newton updates them in place."""
    layout = case.state_layout
    return PowerFlowState(vm=layout.vm0.copy(), va=layout.va0.copy())


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
    layout = case.state_layout
    vm = np.empty((m, case.n))
    vm[:] = layout.vm0
    va = np.empty((m, case.n))
    va[:] = layout.va0
    k = len(case.non_slack)
    va[:, case.non_slack] = xs[:, :k]
    vm[:, case.pq] = xs[:, k:]
    return vm, va


def injection_features(case: GridCase, injections: Injections) -> np.ndarray:
    """The spec in the dataset feature layout: p_spec at non-slack
    buses, then q_spec at PQ buses."""
    return np.concatenate([injections.p_spec[case.non_slack], injections.q_spec[case.pq]])


def _voltages(ybus: YBus, vm, va):
    """Complex bus voltages v and injected currents I = v Yᵀ, each (n,)
    or (m, n): the one expansion that the power, the residual and the
    Jacobian read."""
    v = np.asarray(vm, dtype=float) * np.exp(1j * np.asarray(va, dtype=float))
    return v, v @ ybus.complex_matrix.T


def _power(v, i) -> np.ndarray:
    # np.multiply, not `v * np.conj(i)`: from 256 KiB on, the operator
    # writes its product into the temporary conj(i) with the operands
    # swapped, and a swapped complex product rounds differently.  The
    # call keeps v first at every size, so a row's bytes do not depend
    # on how many rows share the call.
    return np.multiply(v, np.conj(i))


def mismatch(case: GridCase, ybus: YBus, state: PowerFlowState, injections: Injections | None = None):
    """(ΔP at non-slack buses, ΔQ at PQ buses), spec minus calculated."""
    if injections is None:
        injections = nominal_injections(case)
    spec = injection_features(case, injections)
    f = _residual(case, *_voltages(ybus, state.vm, state.va), spec)
    k = len(case.non_slack)
    return f[:k], f[k:]


def _checked_spec(case: GridCase, spec, m: int) -> np.ndarray:
    spec = np.asarray(spec, dtype=float)
    if spec.shape != (case.n_unknowns,) and spec.shape != (m, case.n_unknowns):
        raise DimensionMismatchError(
            f"need spec ({case.n_unknowns},) or ({m}, {case.n_unknowns}), got {spec.shape}"
        )
    return spec


def grid_residual(case: GridCase, ybus: YBus, xs, spec) -> np.ndarray:
    """Spec minus calculated power for packed states xs (m, n_unknowns),
    in the feature layout: ΔP at non-slack buses, then ΔQ at PQ buses.

    spec is one feature row for every state, or one row per state.
    """
    vm, va = batch_states(case, xs)
    spec = _checked_spec(case, spec, vm.shape[0])
    return _residual(case, *_voltages(ybus, vm, va), spec)


def _residual(case: GridCase, v, i, spec) -> np.ndarray:
    """grid_residual from _voltages: (n,) for one state or (m, n).  The
    P and Q rows are one gather on the float view of the power.  The
    gather is column-major, and so is the residual unless spec has a row
    per state: reductions over a row (the potential's sum of squares)
    round by that layout."""
    return spec - _power(v, i).view(float)[..., case.state_layout.residual_index]


def grid_residual_grad(case: GridCase, ybus: YBus, xs, spec):
    """(residual F, gradient of its squared norm -2 JᵀF) per state; J is
    the Newton Jacobian (d(residual)/dx = -J).

    One expansion: xs becomes v and I = v Yᵀ once, and the residual and
    the Jacobian both read them.  einsum's summation order follows the
    memory layout of its operands, so the Jacobian is passed in the
    layout it has always had, column-major with the state axis fastest:
    a row-major copy, or column-major per state, moves the gradient's
    last bits.
    """
    vm, va = batch_states(case, xs)
    spec = _checked_spec(case, spec, vm.shape[0])
    v, i = _voltages(ybus, vm, va)
    f = _residual(case, v, i, spec)
    return f, -2.0 * np.einsum("bij,bi->bj", _jacobian(case, ybus, v, i), f)


def _jacobian(case: GridCase, ybus: YBus, v: np.ndarray, i: np.ndarray) -> np.ndarray:
    """d(calculated P, Q)/d(unknowns) from _voltages, each (m, n):
    MATPOWER's dSbus_dV (Zimmerman, Murillo-Sánchez & Thomas, IEEE
    Trans. Power Syst. 2011) in polar form.

    dS/dVa and dS/dVm are written side by side into one (m, n, 2n)
    complex block, and the real (P) and imaginary (Q) rows at the
    unknowns are one gather on its float view, which leaves the
    (m, n_unknowns, n_unknowns) result column-major (see
    grid_residual_grad).
    """
    m, n = v.shape
    a = v[:, :, None] * np.conj(ybus.complex_matrix)
    ds = np.empty((m, n, 2 * n), dtype=complex)
    np.multiply(-1j, a * np.conj(v)[:, None, :], out=ds[:, :, :n])
    vn = v / np.abs(v)
    np.multiply(a, np.conj(vn)[:, None, :], out=ds[:, :, n:])
    flat = ds.reshape(m, -1)
    conj_i = np.conj(i)
    flat[:, :: 2 * n + 1] += 1j * v * conj_i  # the diagonal of dS/dVa
    flat[:, n :: 2 * n + 1] += conj_i * vn  # and of dS/dVm
    jac = np.take(flat.view(float).T, case.state_layout.jacobian_index, axis=0)
    return jac.transpose(2, 1, 0)


def power_jacobian(case: GridCase, ybus: YBus, state: PowerFlowState) -> np.ndarray:
    """d(calculated P, Q)/d(unknowns), the standard polar NR Jacobian."""
    return _jacobian(case, ybus, *_voltages(ybus, state.vm[None, :], state.va[None, :]))[0]


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
    """Full Newton iteration on the mismatch equations from a flat start:
    newton_block on one spec row.

    Raises NoConvergenceError when NEWTON_MAX_ITER updates leave the
    worst mismatch above tol, or the Jacobian goes singular (voltage
    collapse / infeasible injections).
    """
    if ybus is None:
        ybus = build_ybus(case)
    if injections is None:
        injections = nominal_injections(case)
    (outcome,) = newton_block(case, ybus, injection_features(case, injections)[None], tol)
    if isinstance(outcome, NoConvergenceError):
        raise outcome
    return outcome


def newton_block(case: GridCase, ybus: YBus, specs, tol: float = 1e-8) -> list:
    """Newton-Raphson from a flat start for every spec row of specs
    (m, n_unknowns) at once.  Returns one outcome per row, in order: a
    NewtonResult, or the NoConvergenceError that newton_raphson raises
    for that row alone (non-finite mismatch, singular Jacobian, or the
    iteration cap, each with its iterations and residual).

    One loop serves the whole block: each iteration evaluates the rows
    still active as one stack and drops those that converged or failed.
    A row's bytes are those of the one-row iteration, on a grid of any
    size: its currents are a stack of one-row products, whose rows equal
    ``v @ Y.T`` of one row (a many-row GEMM does not), the power keeps
    its operand order at every size (_power), the Jacobian's entries are
    elementwise per row, and solve_linear gives each system of a stack,
    and each right-hand side of one matrix, the bytes of its own solve.
    At iteration 0 every row sits at the flat start, so power_jacobian
    is built once and all rows' mismatches are solved against it in one
    elimination; if it is singular, every row fails.  Later iterations
    solve the stack of the rows' Jacobians, and a row whose Jacobian is
    singular fails and the rest are solved again.  Once one row is
    left, it takes power_jacobian and the 2-D solve, which are faster
    for one system.  A non-finite Jacobian or step raises
    NonFiniteError for the block.
    """
    specs = np.asarray(specs, dtype=float)
    m = specs.shape[0]
    x = np.empty((m, case.n_unknowns))
    x[:] = pack_state(case, flat_start(case))
    history = np.empty((NEWTON_MAX_ITER + 1, m))
    outcomes = [None] * m
    active = np.arange(m)
    y_t = ybus.complex_matrix.T
    for it in range(NEWTON_MAX_ITER + 1):
        vm, va = batch_states(case, x[active])
        v = vm * np.exp(1j * va)
        i = (v[:, None, :] @ y_t)[:, 0, :]
        f = _residual(case, v, i, specs[active])
        worst = np.abs(f).max(axis=1, initial=0.0)
        history[it, active] = worst
        going = np.ones(active.size, dtype=bool)
        for j, (r, w) in enumerate(zip(active.tolist(), worst.tolist())):
            if not math.isfinite(w):
                outcomes[r] = NoConvergenceError(
                    "mismatch diverged to non-finite values", iterations=it, residual=w,
                )
            elif w < tol:
                outcomes[r] = NewtonResult(
                    state=unpack_state(case, x[r]), iterations=it,
                    residuals=history[: it + 1, r].copy(),
                )
            elif it == NEWTON_MAX_ITER:
                outcomes[r] = NoConvergenceError(
                    f"no convergence after {NEWTON_MAX_ITER} iterations",
                    iterations=NEWTON_MAX_ITER, residual=w,
                )
            else:
                continue
            going[j] = False
        if not going.any():
            break
        if not going.all():
            active, vm, va, v, i, f = (a[going] for a in (active, vm, va, v, i, f))
        step, singular = _newton_steps(case, ybus, vm, va, v, i, f, it == 0)
        for r in active[singular].tolist():
            outcomes[r] = NoConvergenceError(
                "singular Jacobian during Newton iteration",
                iterations=it, residual=float(history[it, r]),
            )
        active = active[~singular]
        x[active] += step
    return outcomes


def _newton_steps(case: GridCase, ybus: YBus, vm, va, v, i, f, flat: bool):
    """The Newton steps of the active rows whose Jacobian is regular,
    and the mask of the rows whose Jacobian is singular.  At the flat
    start every row has row 0's Jacobian, so all rows are solved
    against it in one elimination, and all fail if it is singular."""
    singular = np.zeros(f.shape[0], dtype=bool)
    if flat or f.shape[0] == 1:
        jac = power_jacobian(case, ybus, PowerFlowState(vm=vm[0], va=va[0]))
        try:
            if f.shape[0] == 1:
                return solve_linear(jac, f[0])[None], singular
            return solve_linear(jac, f), singular
        except SingularMatrixError:
            return np.empty((0, f.shape[1])), ~singular
    jac = _jacobian(case, ybus, v, i)
    keep = slice(None)  # no copy while every system is regular
    while True:
        try:
            return solve_linear(jac[keep], f[keep]), singular
        except SingularMatrixError as err:
            singular[np.flatnonzero(~singular)[err.systems]] = True
            keep = ~singular


class KirchhoffPotential(ConstraintPotential):
    """Sum of squared per-unit power mismatches over the unknown vector.

    Zero exactly on power-flow solutions.  The gradient reuses the NR
    Jacobian: d(mismatch)/dx = -J, so grad = -2 J^T F.  value_batch
    computes the residual alone; value_and_grad_batch and grad_batch
    make one grid_residual_grad call, which expands the states once and
    shares v and I between the residual and the Jacobian.
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
