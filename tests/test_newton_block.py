"""The block Newton and the scenario draws built on it, against the
per-scenario code they replaced: a Newton loop that solves one
scenario at a time, and a draw loop that draws, solves and scans one
scenario at a time.  Outcomes must agree byte for byte, and failures
by message, iteration count and residual."""

import warnings

import numpy as np
import pytest

from diffrefine.errors import (
    DatasetInfeasibleError,
    NoConvergenceError,
    NonFiniteError,
    SingularMatrixError,
)
from diffrefine.numerics import Rng, solve_linear
from diffrefine.powerflow import build_ybus, data, load_case, pack_state, solver
from diffrefine.powerflow.solver import (
    NEWTON_MAX_ITER,
    Injections,
    NewtonResult,
    flat_start,
    injection_features,
    newton_block,
    newton_raphson,
    nominal_injections,
    power_jacobian,
)

from test_powerflow import two_bus_case


def reference_newton_raphson(case, ybus, injections, tol=1e-8) -> NewtonResult:
    """The per-scenario Newton loop that newton_block replaced."""
    state = flat_start(case)
    spec = injection_features(case, injections)
    history = []
    for it in range(NEWTON_MAX_ITER + 1):
        f = solver._residual(case, *solver._voltages(ybus, state.vm, state.va), spec)
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


def reference_draw_split(case, ybus, n, spread, rng, tol):
    """The per-scenario draw loop that the block draws replaced."""
    feats = np.empty((n, case.n_unknowns))
    targs = np.empty((n, case.n_unknowns))
    total_pd = float(case.pd.sum())
    got = 0
    failures = 0
    draws = 0
    cap = max(4 * n, 50)
    while got < n:
        if draws >= cap:
            raise DatasetInfeasibleError(
                f"{failures} of {draws} scenario draws failed to converge"
            )
        draws += 1
        fp = 1.0 + spread * rng.uniform(-1.0, 1.0, size=case.n)
        fq = 1.0 + spread * rng.uniform(-1.0, 1.0, size=case.n)
        pd = case.pd * fp
        qd = case.qd * fq
        ratio = float(pd.sum()) / total_pd if total_pd > 0 else 1.0
        pg = case.pg * ratio
        inj = Injections(p_spec=pg - pd, q_spec=-qd)
        try:
            res = reference_newton_raphson(case, ybus, inj, tol=tol)
        except NoConvergenceError:
            failures += 1
            if failures > draws / 2 and draws >= 20:
                raise DatasetInfeasibleError(
                    f"{failures} of {draws} scenario draws failed to converge"
                ) from None
            continue
        feats[got] = injection_features(case, inj)
        targs[got] = pack_state(case, res.state)
        got += 1
    return data.Split(features=feats, targets=targs)


def outcome(fn, *args, **kwargs):
    try:
        return fn(*args, **kwargs)
    except NoConvergenceError as err:
        return err


def assert_same_outcome(got, want):
    if isinstance(want, NoConvergenceError):
        assert isinstance(got, NoConvergenceError), got
        assert str(got) == str(want)
        assert got.iterations == want.iterations
        assert np.float64(got.residual).tobytes() == np.float64(want.residual).tobytes()
        return
    assert isinstance(got, NewtonResult), got
    assert got.iterations == want.iterations
    assert got.residuals.tobytes() == want.residuals.tobytes()
    assert got.state.vm.tobytes() == want.state.vm.tobytes()
    assert got.state.va.tobytes() == want.state.va.tobytes()


def two_bus_load(case, p_mw):
    """Injections of the two-bus case with p_mw of load at bus 2."""
    return Injections(p_spec=np.array([0.0, -p_mw / case.base_mva]), q_spec=np.zeros(2))


def scenario_specs(case, m, spread, seed):
    rng = Rng(seed)
    rows = []
    for _ in range(m):
        pd = case.pd * (1.0 + spread * rng.uniform(-1.0, 1.0, size=case.n))
        qd = case.qd * (1.0 + spread * rng.uniform(-1.0, 1.0, size=case.n))
        pg = case.pg * float(pd.sum()) / float(case.pd.sum())
        rows.append(Injections(p_spec=pg - pd, q_spec=-qd))
    return rows


# Two-bus loads past the 500 MW transfer limit end in each of the three
# failures: the iteration cap, a singular Jacobian at iteration 44, and
# a mismatch that overflows at iteration 2.
FAILURES = {
    10000.0: "no convergence after 50 iterations",
    1e12: "singular Jacobian during Newton iteration",
    1e200: "mismatch diverged to non-finite values",
}


class TestBlockOfOne:
    @pytest.mark.parametrize("p_mw", sorted(FAILURES))
    def test_each_failure_matches_the_reference(self, p_mw):
        case = two_bus_case(p_mw)
        ybus = build_ybus(case)
        with np.errstate(all="ignore"):
            want = outcome(reference_newton_raphson, case, ybus, nominal_injections(case))
            got = outcome(newton_raphson, case, ybus)
        assert isinstance(want, NoConvergenceError) and str(want) == FAILURES[p_mw]
        assert_same_outcome(got, want)

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    def test_converged_result_matches_the_reference(self, name):
        case = load_case(name)
        ybus = build_ybus(case)
        for inj in scenario_specs(case, 3, 0.2, 4):
            assert_same_outcome(
                newton_raphson(case, ybus, inj), reference_newton_raphson(case, ybus, inj)
            )


class TestBlock:
    def test_mixed_outcomes_in_one_block(self, monkeypatch):
        """Converged rows and all three failures in one block; the
        singular row leaves a stack of two at iteration 44, so the
        stacked solve names it and the other row is solved again."""
        case = two_bus_case()
        ybus = build_ybus(case)
        loads = [400.0, 10000.0, 499.0, 1e12, 1e200, 500.0, 480.0]
        injections = [two_bus_load(case, p) for p in loads]
        specs = np.array([injection_features(case, inj) for inj in injections])
        stack_errors = []

        def spy(a, b):
            try:
                return solve_linear(a, b)
            except SingularMatrixError as err:
                if np.ndim(a) == 3:
                    stack_errors.append((len(a), err.systems))
                raise

        monkeypatch.setattr(solver, "solve_linear", spy)
        with np.errstate(all="ignore"):
            got = newton_block(case, ybus, specs)
            monkeypatch.undo()
            want = [outcome(reference_newton_raphson, case, ybus, inj) for inj in injections]
        assert stack_errors == [(2, [1])]
        assert [type(w) for w in want].count(NoConvergenceError) == 3
        for g, w in zip(got, want):
            assert_same_outcome(g, w)

    def test_full_ieee30_block_matches_one_row_newton(self):
        case = load_case("ieee30")
        ybus = build_ybus(case)
        injections = scenario_specs(case, data.BLOCK_DRAWS, 0.2, 30)
        specs = np.array([injection_features(case, inj) for inj in injections])
        got = newton_block(case, ybus, specs)
        for g, inj in zip(got, injections):
            assert_same_outcome(g, reference_newton_raphson(case, ybus, inj))

    def test_singular_rows_leave_and_the_rest_keep_their_bytes(self, monkeypatch):
        """A Jacobian made singular in two rows of a five-row block at
        iteration 1 fails those rows there; the others converge with the
        bytes of their own Newton loop."""
        case = load_case("ieee14")
        ybus = build_ybus(case)
        injections = scenario_specs(case, 5, 0.2, 8)
        specs = np.array([injection_features(case, inj) for inj in injections])
        original = solver._jacobian
        calls = []

        def jacobian(*args):
            jac = np.array(original(*args))
            if len(calls) == 1:
                jac[[1, 3]] = 0.0
            calls.append(len(jac))
            return jac

        monkeypatch.setattr(solver, "_jacobian", jacobian)
        got = newton_block(case, ybus, specs)
        monkeypatch.undo()
        for r, (g, inj) in enumerate(zip(got, injections)):
            if r in (1, 3):
                assert isinstance(g, NoConvergenceError)
                assert str(g) == "singular Jacobian during Newton iteration"
                assert g.iterations == 1
            else:
                assert_same_outcome(g, reference_newton_raphson(case, ybus, inj))

    def test_rows_singular_at_two_columns_leave_without_warnings(self, monkeypatch):
        """Two rows of a six-row stack go singular at iteration 1, at
        different columns, one with an exact zero pivot: the stack names
        the earlier column's row, the next stack the other, and the rest
        keep the bytes of their own Newton loop.  Nothing warns."""
        case = load_case("ieee14")
        ybus = build_ybus(case)
        injections = scenario_specs(case, 6, 0.2, 9)
        specs = np.array([injection_features(case, inj) for inj in injections])
        original = solver._jacobian
        calls = []
        errors = []

        def jacobian(*args):
            jac = np.array(original(*args))
            if len(calls) == 1:
                jac[1, :, 9] = jac[1, :, 8]  # singular in column 9
                jac[4, :, 3] = 0.0  # singular in column 3
            calls.append(len(jac))
            return jac

        def spy(a, b):
            try:
                return solve_linear(a, b)
            except SingularMatrixError as err:
                errors.append((len(a), err.systems, str(err).rsplit(" in ", 1)[1]))
                raise

        monkeypatch.setattr(solver, "_jacobian", jacobian)
        monkeypatch.setattr(solver, "solve_linear", spy)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = newton_block(case, ybus, specs)
        monkeypatch.undo()
        assert calls[:2] == [1, 6]
        assert errors == [(6, [4], "column 3 of system 4"), (5, [1], "column 9 of system 1")]
        for r, (g, inj) in enumerate(zip(got, injections)):
            if r in (1, 4):
                assert isinstance(g, NoConvergenceError)
                assert str(g) == "singular Jacobian during Newton iteration"
                assert g.iterations == 1
            else:
                assert_same_outcome(g, reference_newton_raphson(case, ybus, inj))

    def test_non_finite_jacobian_aborts_the_block(self, monkeypatch):
        """A NaN in row 2 of iteration 1's stack raises for the block
        (iteration 0 builds one flat-start Jacobian, a stack of one)."""
        self.assert_nan_aborts(monkeypatch, 1)

    def test_non_finite_flat_start_jacobian_aborts_the_block(self, monkeypatch):
        self.assert_nan_aborts(monkeypatch, 0)

    @staticmethod
    def assert_nan_aborts(monkeypatch, call):
        case = load_case("ieee14")
        original = solver._jacobian
        calls = []

        def jacobian(*args):
            jac = np.array(original(*args))
            if len(calls) == call:
                jac[min(2, len(jac) - 1), 0, 0] = np.nan
            calls.append(len(jac))
            return jac

        monkeypatch.setattr(solver, "_jacobian", jacobian)
        with pytest.raises(NonFiniteError):
            data.generate_dataset(case, 0, 0, 5, seed=1)
        assert calls == [1, 5][: call + 1]


class TestFlatStartSolve:
    """Iteration 0 solves every row against one flat-start Jacobian."""

    @pytest.mark.parametrize("m", [1, 2, 5, 64])
    def test_iteration_0_makes_one_2d_call(self, monkeypatch, m):
        case = load_case("ieee30")
        ybus = build_ybus(case)
        specs = np.array([injection_features(case, inj) for inj in scenario_specs(case, m, 0.2, 24)])
        calls = []

        def spy(a, b):
            calls.append((np.ndim(a), np.shape(b)))
            return solve_linear(a, b)

        monkeypatch.setattr(solver, "solve_linear", spy)
        got = newton_block(case, ybus, specs)
        monkeypatch.undo()
        # one call per iteration that some row still needed
        assert len(calls) == max(g.iterations for g in got) >= 2
        n = case.n_unknowns
        if m == 1:  # a block of one keeps the one-right-hand-side solve
            assert calls == [(2, (n,))] * len(calls)
        else:
            assert calls[:2] == [(2, (m, n)), (3, (m, n))]

    def test_singular_flat_start_fails_every_row(self, monkeypatch):
        """Every row shares the flat-start Jacobian, so when it is
        singular every row fails at iteration 0, as each would alone."""
        case = load_case("ieee14")
        ybus = build_ybus(case)
        injections = scenario_specs(case, 4, 0.2, 10)
        specs = np.array([injection_features(case, inj) for inj in injections])
        original = solver._jacobian

        def jacobian(case, ybus, v, i):
            jac = np.array(original(case, ybus, v, i))
            if not np.any(v.imag):  # every angle zero: the flat start
                jac[:] = 0.0
            return jac

        monkeypatch.setattr(solver, "_jacobian", jacobian)
        got = newton_block(case, ybus, specs)
        want = [outcome(reference_newton_raphson, case, ybus, inj) for inj in injections]
        for g, w in zip(got, want):
            assert isinstance(w, NoConvergenceError) and w.iterations == 0
            assert str(w) == "singular Jacobian during Newton iteration"
            assert_same_outcome(g, w)


class TestDraws:
    @pytest.mark.parametrize(
        "name, p_mw, n, spread, seed",
        [
            ("ieee14", None, 70, 0.2, 11),  # two blocks, no failures
            ("ieee30", None, 6, 0.2, 12),
            ("twobus", 490.0, 80, 0.1, 3),  # 48 of 128 draws fail, over four blocks
            ("twobus", 470.0, 5, 0.1, 5),
        ],
    )
    def test_accepted_rows_match_the_reference(self, name, p_mw, n, spread, seed):
        case = two_bus_case(p_mw) if name == "twobus" else load_case(name)
        ybus = build_ybus(case)
        with np.errstate(all="ignore"):
            got = data._draw_split(case, ybus, n, spread, Rng(seed), 1e-8)
            want = reference_draw_split(case, ybus, n, spread, Rng(seed), 1e-8)
        assert got.features.tobytes() == want.features.tobytes()
        assert got.targets.tobytes() == want.targets.tobytes()

    @pytest.mark.parametrize("p_mw, n, seed", [(600.0, 10, 0), (500.0, 80, 3), (505.0, 30, 4),
                                               (510.0, 200, 6)])
    def test_failure_share_fires_at_the_same_draw(self, p_mw, n, seed):
        case = two_bus_case(p_mw)
        ybus = build_ybus(case)
        with np.errstate(all="ignore"):
            with pytest.raises(DatasetInfeasibleError) as want:
                reference_draw_split(case, ybus, n, 0.1, Rng(seed), 1e-8)
            with pytest.raises(DatasetInfeasibleError) as got:
                data._draw_split(case, ybus, n, 0.1, Rng(seed), 1e-8)
        assert str(got.value) == str(want.value)
        assert str(want.value).endswith("scenario draws failed to converge")
