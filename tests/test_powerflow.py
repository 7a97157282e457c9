"""Grid parsing, Y-bus assembly, NR solver, datasets, and metrics."""

import numpy as np
import pytest

from diffrefine.errors import (
    DataError,
    DatasetInfeasibleError,
    DimensionMismatchError,
    NoConvergenceError,
    ParseError,
    ValidationError,
    ZeroImpedanceBranchError,
)
from diffrefine.numerics import Rng, finite_diff_jacobian
from diffrefine.potentials import finite_difference_conformance
from diffrefine.powerflow import (
    Branch,
    Bus,
    GridCase,
    PowerFlowState,
    build_ybus,
    evaluate,
    generate_dataset,
    grid_residual,
    injections_from_features,
    load_case,
    load_dataset,
    mismatch,
    newton_raphson,
    nominal_injections,
    pack_state,
    parse_case,
    power_jacobian,
    save_dataset,
    unpack_state,
)
from diffrefine.powerflow import solver
from diffrefine.powerflow.solver import (
    KirchhoffPotential,
    batch_states,
    flat_start,
    grid_residual_grad,
    injection_features,
)

TWO_BUS_TEXT = """
base_mva 100.0
[bus]
1  slack  0.0   0.0  0  0  1.0  0  0
2  pq     50.0  0.0  0  0  1.0  0  0
[gen]
1  0.0  1.0
[branch]
1  2  0.0  0.1  0.0  1  0
"""


def two_bus_case(p_load_mw: float = 50.0) -> GridCase:
    return parse_case(TWO_BUS_TEXT.replace("50.0", repr(p_load_mw), 1), name="twobus")


@pytest.fixture(scope="module")
def ieee14():
    return load_case("ieee14")


@pytest.fixture(scope="module")
def ieee30():
    return load_case("ieee30")


class TestParsing:
    def test_embedded_case_counts(self, ieee14, ieee30):
        assert (ieee14.n, len(ieee14.branches), len(ieee14.generators)) == (14, 20, 5)
        assert (ieee30.n, len(ieee30.branches), len(ieee30.generators)) == (30, 41, 6)

    def test_index_layout(self, ieee14):
        assert ieee14.slack == 0
        assert list(ieee14.pv) == [1, 2, 5, 7]
        assert len(ieee14.pq) == 9
        assert ieee14.n_unknowns == 13 + 9

    def test_per_unit_conversion(self, ieee14):
        assert ieee14.pd[2] == pytest.approx(0.942)
        assert ieee14.bs[8] == pytest.approx(0.19)
        assert ieee14.pg[0] == pytest.approx(2.324)

    def test_empty_text_rejected(self):
        with pytest.raises(ParseError):
            parse_case("")

    def test_two_slack_rejected(self):
        text = TWO_BUS_TEXT.replace("2  pq ", "2  slack", 1).replace(
            "[branch]", "3  0.0  1.0\n[branch]", 1
        )
        with pytest.raises(ValidationError, match="slack"):
            parse_case(text)

    def test_bad_number_position(self):
        text = "base_mva 100\n[bus]\n1 slack 0 0 0 0 1.0 oops 0\n"
        with pytest.raises(ParseError) as err:
            parse_case(text)
        assert err.value.line == 3
        assert err.value.column == 21

    def test_wrong_column_count(self):
        with pytest.raises(ParseError, match="columns"):
            parse_case("base_mva 100\n[bus]\n1 slack 0 0\n")

    def test_unknown_section(self):
        with pytest.raises(ParseError, match="section"):
            parse_case("base_mva 100\n[load]\n")

    def test_data_before_section(self):
        with pytest.raises(ParseError, match="before"):
            parse_case("base_mva 100\n1 slack 0 0 0 0 1 0 0\n")

    def test_missing_generator_for_pv(self):
        text = TWO_BUS_TEXT.replace("2  pq ", "2  pv ", 1)
        with pytest.raises(ValidationError, match="generator"):
            parse_case(text)

    def test_disconnected_graph(self):
        text = TWO_BUS_TEXT.replace(
            "2  pq     50.0", "2  pq     50.0  0.0  0  0  1.0  0  0\n3  pq     0.0", 1
        ).replace("1  2  0.0  0.1  0.0  1  0", "1  2  0.0  0.1  0.0  1  0", 1)
        with pytest.raises(ValidationError, match="connected"):
            parse_case(text)

    def test_self_loop_rejected(self):
        text = TWO_BUS_TEXT.replace("1  2  0.0  0.1", "2  2  0.0  0.1", 1)
        with pytest.raises(ValidationError, match="self-loop"):
            parse_case(text)

    def test_bad_tap_rejected(self):
        text = TWO_BUS_TEXT.replace("0.0  0.1  0.0  1  0", "0.0  0.1  0.0  -2  0", 1)
        with pytest.raises(ValidationError, match="tap"):
            parse_case(text)

    def test_unknown_case_name(self):
        with pytest.raises(ValidationError, match="bundled"):
            load_case("ieee118")

    def test_load_case_from_path(self, tmp_path):
        p = tmp_path / "tiny.case"
        p.write_text(TWO_BUS_TEXT)
        case = load_case(str(p))
        assert case.name == "tiny"
        assert case.n == 2


class TestYBus:
    def test_single_branch_hand_values(self):
        case = two_bus_case()
        y = build_ybus(case)
        assert np.allclose(y.g, 0.0, atol=1e-15)
        assert np.allclose(y.b, np.array([[-10.0, 10.0], [10.0, -10.0]]), atol=1e-12)

    def test_complex_matrix_built_once(self, ieee14):
        y = build_ybus(ieee14)
        assert y.complex_matrix is y.complex_matrix
        assert y.complex_matrix.tobytes() == (y.g + 1j * y.b).tobytes()
        with pytest.raises(ValueError):
            y.complex_matrix[0, 0] = 0.0

    def test_lossless_row_sums_vanish(self):
        y = build_ybus(two_bus_case())
        assert np.allclose(y.complex_matrix.sum(axis=1), 0.0, atol=1e-12)

    def test_shunt_hits_only_diagonal(self):
        base = build_ybus(two_bus_case())
        shunted = two_bus_case()
        shunted.buses[1] = Bus(id=2, kind="pq", pd=0.5, qd=0.0, gs=0.0, bs=0.25,
                               vm_ref=1.0, va_ref=0.0)
        shunted = GridCase(name="s", base_mva=100.0, buses=shunted.buses,
                           generators=shunted.generators, branches=shunted.branches)
        y2 = build_ybus(shunted)
        diff = y2.complex_matrix - base.complex_matrix
        assert diff[1, 1] == pytest.approx(0.25j)
        diff[1, 1] = 0.0
        assert np.allclose(diff, 0.0, atol=1e-15)

    def test_ieee14_symmetric_without_shifters(self, ieee14):
        y = build_ybus(ieee14).complex_matrix
        assert np.abs(y - y.T).max() < 1e-12

    def test_phase_shift_breaks_symmetry(self):
        case = two_bus_case()
        case.branches[0] = Branch(f=1, t=2, r=0.0, x=0.1, b=0.0, tap=1.0,
                                  shift=np.radians(10.0))
        y = build_ybus(case).complex_matrix
        assert abs(y[0, 1] - y[1, 0]) > 1e-3

    def test_zero_impedance_rejected(self):
        case = two_bus_case()
        case.branches[0] = Branch(f=1, t=2, r=0.0, x=0.0, b=0.0)
        with pytest.raises(ZeroImpedanceBranchError):
            build_ybus(case)


class TestMismatch:
    def test_isolated_buses_zero(self):
        case = GridCase(
            name="isolated",
            base_mva=100.0,
            buses=[
                Bus(id=1, kind="pq", pd=0.0, qd=0.0, gs=0.0, bs=0.0, vm_ref=1.0, va_ref=0.0),
                Bus(id=2, kind="pq", pd=0.0, qd=0.0, gs=0.0, bs=0.0, vm_ref=1.0, va_ref=0.0),
            ],
            generators=[],
            branches=[],
        )
        y = build_ybus(case)
        state = PowerFlowState(vm=np.ones(2), va=np.zeros(2))
        dp, dq = mismatch(case, y, state)
        assert np.array_equal(dp, np.zeros(2))
        assert np.array_equal(dq, np.zeros(2))

    def test_solution_is_fixed_point(self, ieee14):
        y = build_ybus(ieee14)
        res = newton_raphson(ieee14, y)
        dp, dq = mismatch(ieee14, y, res.state)
        assert max(np.abs(dp).max(), np.abs(dq).max()) < 1e-8

    def test_unit_voltage_profile_exposes_spec(self, ieee14):
        # At Vm=1, Va=0 every conductance row sum vanishes on this
        # case (series-only G, no resistive shunts), leaving spec
        # injections as the whole active mismatch.
        y = build_ybus(ieee14)
        state = PowerFlowState(vm=np.ones(14), va=np.zeros(14))
        dp, _ = mismatch(ieee14, y, state)
        expect = (ieee14.pg - ieee14.pd)[ieee14.non_slack]
        assert np.abs(dp - expect).max() < 1e-12


class TestJacobian:
    def test_matches_finite_differences(self, ieee14):
        y = build_ybus(ieee14)
        rng = Rng(7)
        spec = injection_features(ieee14, nominal_injections(ieee14))
        for _ in range(5):
            x = pack_state(ieee14, flat_start(ieee14))
            x = x + 0.05 * rng.normal(x.shape)
            analytic = power_jacobian(ieee14, y, unpack_state(ieee14, x))
            fd = finite_diff_jacobian(
                lambda v: -grid_residual(ieee14, y, v[None], spec)[0], x
            )
            scale = max(np.abs(fd).max(), 1.0)
            assert np.abs(analytic - fd).max() / scale < 1e-6


class TestNewtonRaphson:
    def test_two_bus_analytic_solution(self):
        case = two_bus_case(50.0)
        res = newton_raphson(case)
        theta = 0.5 * np.arcsin(-0.1)
        assert res.state.va[1] == pytest.approx(theta, abs=1e-8)
        assert res.state.vm[1] == pytest.approx(np.cos(theta), abs=1e-8)

    def test_two_bus_beyond_transfer_limit(self):
        with pytest.raises(NoConvergenceError):
            newton_raphson(two_bus_case(10000.0))

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    def test_embedded_cases_converge_fast(self, name, request):
        case = request.getfixturevalue(name)
        res = newton_raphson(case)
        assert res.iterations <= 10
        assert res.residuals[-1] < 1e-8

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    def test_solution_tracks_published_point(self, name, request):
        # The reference columns are archive snapshots rounded to a few
        # digits (the 30-bus angles carry a uniform drift of ~0.3 deg
        # against a tightly converged solve), so bounds stay loose.
        case = request.getfixturevalue(name)
        res = newton_raphson(case)
        assert np.abs(res.state.vm - case.vm_ref).max() < 5e-3
        assert np.degrees(np.abs(res.state.va - case.va_ref)).max() < 0.5

    def test_quadratic_convergence_tail(self, ieee14):
        r = newton_raphson(ieee14).residuals
        for a, b in zip(r[-4:-1], r[-3:]):
            assert b <= 1e3 * a * a

    def test_pv_magnitudes_pinned(self, ieee14):
        res = newton_raphson(ieee14)
        assert np.array_equal(res.state.vm[ieee14.pv], ieee14.vset[ieee14.pv])
        assert res.state.vm[ieee14.slack] == ieee14.vset[ieee14.slack]
        assert res.state.va[ieee14.slack] == ieee14.va_ref[ieee14.slack]


class TestKirchhoffPotential:
    def test_zero_at_solution(self, ieee14):
        pot = KirchhoffPotential(ieee14)
        x = pack_state(ieee14, newton_raphson(ieee14).state)
        assert pot.value(x) < 1e-15

    def test_positive_off_solution(self, ieee14):
        pot = KirchhoffPotential(ieee14)
        assert pot.value(pack_state(ieee14, flat_start(ieee14))) > 1e-3

    def test_gradient_conformance(self, ieee14):
        pot = KirchhoffPotential(ieee14)
        rng = Rng(13)
        x0 = pack_state(ieee14, newton_raphson(ieee14).state)
        probes = x0[None, :] + 0.05 * rng.normal((100, x0.size))
        worst = finite_difference_conformance(pot, probes)
        assert worst < 1e-4

    def test_angle_periodicity(self, ieee14):
        pot = KirchhoffPotential(ieee14)
        rng = Rng(14)
        x = pack_state(ieee14, flat_start(ieee14)) + 0.1 * rng.normal(ieee14.n_unknowns)
        shifted = x.copy()
        shifted[3] += 2.0 * np.pi
        assert pot.value(shifted) == pytest.approx(pot.value(x), rel=1e-12)

    def test_batch_matches_scalar(self, ieee14):
        pot = KirchhoffPotential(ieee14)
        rng = Rng(15)
        xs = pack_state(ieee14, flat_start(ieee14))[None, :] + 0.03 * rng.normal(
            (6, ieee14.n_unknowns)
        )
        vals = pot.value_batch(xs)
        grads = pot.grad_batch(xs)
        for i in range(6):
            assert vals[i] == pytest.approx(pot.value(xs[i]), rel=1e-12)
            g = pot.grad(xs[i])
            # batch einsum and single matmul differ only in summation order
            assert np.abs(grads[i] - g).max() < 1e-11 * max(1.0, np.abs(g).max())


class TestGridResidual:
    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    def test_matches_mismatch_vector_row_by_row(self, name, request):
        case = request.getfixturevalue(name)
        ybus = build_ybus(case)
        ds = generate_dataset(case, 0, 0, 6, seed=8)
        xs = ds.test.targets + 0.05 * Rng(9).normal(ds.test.targets.shape)
        feats = ds.test.features
        rows = []
        for x, f in zip(xs, feats):
            inj = injections_from_features(case, f)
            rows.append(grid_residual(case, ybus, x[None], injection_features(case, inj))[0])
            dp, dq = mismatch(case, ybus, unpack_state(case, x), inj)
            assert np.array_equal(rows[-1], np.concatenate([dp, dq]))
            assert np.array_equal(grid_residual(case, ybus, x[None, :], f[None, :])[0], rows[-1])
        # One spec row per state, all states at once: BLAS rounds the rows
        # of a many-row product differently from a one-row product.
        batch = grid_residual(case, ybus, xs, feats)
        assert np.abs(batch - np.array(rows)).max() < 1e-13

    def test_shared_spec_row_broadcasts(self, ieee14):
        ybus = build_ybus(ieee14)
        xs = pack_state(ieee14, flat_start(ieee14))[None, :] + 0.03 * Rng(10).normal(
            (5, ieee14.n_unknowns)
        )
        spec = Rng(11).normal(ieee14.n_unknowns)
        shared = grid_residual(ieee14, ybus, xs, spec)
        assert np.array_equal(shared, grid_residual(ieee14, ybus, xs, np.tile(spec, (5, 1))))

    @pytest.mark.parametrize("shape", [(546, 30), (547, 30), (64, 300)])
    def test_power_rows_match_one_row_calls(self, shape):
        # From 256 KiB on (547 rows of 30 buses), `v * np.conj(i)` would
        # write into the temporary conj(i) with its operands swapped.
        rng = Rng(12)
        v = rng.normal(shape) + 1j * rng.normal(shape)
        i = rng.normal(shape) + 1j * rng.normal(shape)
        rows = [solver._power(v[r : r + 1], i[r : r + 1])[0] for r in range(shape[0])]
        assert solver._power(v, i).tobytes() == np.array(rows).tobytes()


# The Kirchhoff kernel as it was before one expansion of the states
# served the residual, the Jacobian and the gradient: a flat start built
# per call, the residual as two subtractions, and dS/dV as two
# (m, n, n) blocks cut by fancy indexing.  The library must give its
# bytes, and its memory layouts too: numpy's reductions (the potential's
# sum of squares, the gradient's einsum) round by layout.


def reference_flat_start(case):
    vm = np.ones(case.n)
    fixed = np.concatenate(([case.slack], case.pv)).astype(int)
    vm[fixed] = case.vset[fixed]
    va = np.full(case.n, case.va_ref[case.slack])
    return vm, va


def reference_states(case, xs):
    vm0, va0 = reference_flat_start(case)
    vm = np.tile(vm0, (xs.shape[0], 1))
    va = np.tile(va0, (xs.shape[0], 1))
    k = len(case.non_slack)
    va[:, case.non_slack] = xs[:, :k]
    vm[:, case.pq] = xs[:, k:]
    return vm, va


def reference_residual(case, ybus, vm, va, spec):
    v = vm * np.exp(1j * va)
    i = v @ ybus.complex_matrix.T
    # v first at every size: from 256 KiB on, `v * np.conj(i)` would
    # multiply in the temporary conj(i) with the operands swapped
    s = np.multiply(v, np.conj(i))
    k = len(case.non_slack)
    return np.concatenate(
        [spec[..., :k] - s.real[..., case.non_slack], spec[..., k:] - s.imag[..., case.pq]], axis=-1
    )


def reference_ds_dv(y_c, v):
    m, n = v.shape
    i_bus = v @ y_c.T
    vn = v / np.abs(v)
    d = np.arange(n)
    ds_dva = -1j * (v[:, :, None] * np.conj(y_c)[None, :, :] * np.conj(v)[:, None, :])
    ds_dva[:, d, d] += 1j * v * np.conj(i_bus)
    ds_dvm = v[:, :, None] * np.conj(y_c)[None, :, :] * np.conj(vn)[:, None, :]
    ds_dvm[:, d, d] += np.conj(i_bus) * vn
    return ds_dva, ds_dvm


def reference_jacobian(case, ybus, vm, va):
    ds_dva, ds_dvm = reference_ds_dv(ybus.complex_matrix, vm * np.exp(1j * va))
    ns, pq = case.non_slack, case.pq
    top = np.concatenate([ds_dva[:, ns][:, :, ns].real, ds_dvm[:, ns][:, :, pq].real], axis=2)
    bot = np.concatenate([ds_dva[:, pq][:, :, ns].imag, ds_dvm[:, pq][:, :, pq].imag], axis=2)
    return np.concatenate([top, bot], axis=1)


def reference_kirchhoff(case, ybus, xs, spec):
    """(phi, grad, residual, Jacobian), each from its own expansion."""
    vm, va = reference_states(case, xs)
    f = reference_residual(case, ybus, vm, va, spec)
    jac = reference_jacobian(case, ybus, vm, va)
    return np.sum(f * f, axis=1), -2.0 * np.einsum("bij,bi->bj", jac, f), f, jac


def assert_same(got, want):
    """Equal bytes and, past a size-1 axis, equal strides."""
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert all(g == w for g, w, d in zip(got.strides, want.strides, got.shape) if d > 1)


class TestFusedKirchhoff:
    """One expansion of the states gives the bits of the separate
    evaluations of the reference kernel, at every row count, for a
    shared spec and one spec row per state (as the physics penalty and
    the metrics pass them)."""

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    @pytest.mark.parametrize("n", [1, 20, 1000])
    def test_matches_separate_evaluations(self, name, n, request):
        case = request.getfixturevalue(name)
        ybus = build_ybus(case)
        rng = Rng(n)
        xs = pack_state(case, flat_start(case))[None, :] + 0.05 * rng.normal((n, case.n_unknowns))
        nominal = injection_features(case, nominal_injections(case))
        specs = nominal[None, :] + 0.05 * rng.normal((n, case.n_unknowns))
        jac = solver._jacobian(case, ybus, *solver._voltages(ybus, *batch_states(case, xs)))
        for spec in (specs[0], specs):
            phi_ref, g_ref, f_ref, jac_ref = reference_kirchhoff(case, ybus, xs, spec)
            assert_same(jac, jac_ref)
            assert_same(grid_residual(case, ybus, xs, spec), f_ref)
            f, g = grid_residual_grad(case, ybus, xs, spec)
            assert_same(f, f_ref)
            assert_same(g, g_ref)

        pot = KirchhoffPotential(case, ybus, injections_from_features(case, specs[0]))
        phi_ref, g_ref, _, _ = reference_kirchhoff(case, ybus, xs, pot.spec)
        phi, g = pot.value_and_grad_batch(xs)
        assert_same(phi, phi_ref)
        assert_same(g, g_ref)
        assert_same(pot.value_batch(xs), phi_ref)
        assert_same(pot.grad_batch(xs), g_ref)
        for i in range(min(n, 5)):
            phi_i, g_i = pot.value_and_grad_batch(xs[i : i + 1])
            assert phi_i[0] == pot.value(xs[i]) and g_i[0].tobytes() == pot.grad(xs[i]).tobytes()

    @pytest.mark.parametrize("name", ["ieee14", "ieee30"])
    def test_newton_jacobian_matches_reference_at_every_iterate(self, name, request, monkeypatch):
        case = request.getfixturevalue(name)
        ybus = build_ybus(case)
        seen = []

        def checked(case, ybus, state):
            jac = power_jacobian(case, ybus, state)
            want = reference_jacobian(case, ybus, state.vm[None, :], state.va[None, :])[0]
            assert_same(jac, want)
            seen.append(jac)
            return jac

        monkeypatch.setattr(solver, "power_jacobian", checked)
        ds = generate_dataset(case, 0, 0, 3, seed=12)
        for features in ds.test.features:
            newton_raphson(case, ybus, injections_from_features(case, features))
        assert len(seen) >= 3 * 3

    def test_spec_must_be_one_row_or_one_row_per_state(self, ieee14):
        ybus = build_ybus(ieee14)
        m, k = 3, ieee14.n_unknowns
        xs = pack_state(ieee14, flat_start(ieee14))[None, :] + 0.03 * Rng(10).normal((m, k))
        for fn in (grid_residual, grid_residual_grad):
            for shape in ((k,), (m, k)):
                fn(ieee14, ybus, xs, np.zeros(shape))
            # A width-1 spec would broadcast silently; the others would
            # end in numpy's broadcasting error.
            for shape in ((1,), (k + 1,), (m, 1), (m + 1, k), (1, k)):
                with pytest.raises(DimensionMismatchError, match=rf"got \({shape[0]},"):
                    fn(ieee14, ybus, xs, np.zeros(shape))

    def test_flat_start_template_is_read_only(self, ieee14):
        layout = ieee14.state_layout
        vm0, va0 = reference_flat_start(ieee14)
        for got, want in ((layout.vm0, vm0), (layout.va0, va0)):
            assert not got.flags.writeable and got.tobytes() == want.tobytes()
        start = flat_start(ieee14)
        assert start.vm.flags.writeable and not np.shares_memory(start.vm, layout.vm0)
        assert start.va.flags.writeable and not np.shares_memory(start.va, layout.va0)
        newton_raphson(ieee14)  # updates its own flat start in place
        assert layout.vm0.tobytes() == vm0.tobytes() and layout.va0.tobytes() == va0.tobytes()
        assert flat_start(ieee14).vm.tobytes() == vm0.tobytes()


class TestDataset:
    def test_zero_spread_reproduces_nominal(self, ieee14):
        ds = generate_dataset(ieee14, 3, 2, 2, train_spread=0.0, test_spread=0.0, seed=5)
        nominal = pack_state(ieee14, newton_raphson(ieee14).state)
        for split in (ds.train, ds.val, ds.test):
            assert np.allclose(split.targets, nominal[None, :], atol=1e-12)
            inj = nominal_injections(ieee14)
            want = np.concatenate([inj.p_spec[ieee14.non_slack], inj.q_spec[ieee14.pq]])
            assert np.allclose(split.features, want[None, :], atol=1e-15)

    def test_targets_satisfy_balance(self, ieee14):
        ds = generate_dataset(ieee14, 6, 2, 4, seed=11)
        y = build_ybus(ieee14)
        for split in (ds.train, ds.val, ds.test):
            for row in range(split.targets.shape[0]):
                inj = injections_from_features(ieee14, split.features[row])
                f = grid_residual(ieee14, y, split.targets[row][None], injection_features(ieee14, inj))[0]
                assert np.abs(f).max() < 1e-8

    def test_bitwise_reproducible(self, ieee14):
        a = generate_dataset(ieee14, 4, 2, 2, seed=3)
        b = generate_dataset(ieee14, 4, 2, 2, seed=3)
        assert np.array_equal(a.train.features, b.train.features)
        assert np.array_equal(a.test.targets, b.test.targets)
        c = generate_dataset(ieee14, 4, 2, 2, seed=4)
        assert not np.array_equal(a.train.features, c.train.features)

    def test_infeasible_case_aborts(self):
        case = two_bus_case(600.0)  # beyond the 5 pu transfer limit
        with pytest.raises(DatasetInfeasibleError):
            generate_dataset(case, 10, 2, 2, seed=0)

    def test_save_load_round_trip(self, ieee14, tmp_path):
        ds = generate_dataset(ieee14, 4, 2, 3, seed=9)
        save_dataset(ds, tmp_path)
        back = load_dataset(tmp_path)
        assert back.case_name == "ieee14"
        assert back.seed == 9
        assert np.array_equal(back.train.features, ds.train.features)
        assert np.array_equal(back.val.targets, ds.val.targets)
        assert np.array_equal(back.test.features, ds.test.features)
        assert back.feature_names == ds.feature_names

    def test_load_rejects_wrong_manifest(self, tmp_path):
        (tmp_path / "manifest.json").write_text("{\"kind\": \"other\"}")
        with pytest.raises(DataError):
            load_dataset(tmp_path)


class TestMetrics:
    def test_exact_predictions_score_zero(self, ieee14):
        ds = generate_dataset(ieee14, 5, 2, 2, seed=21)
        rep = evaluate(ieee14, ds.train.targets, ds.train.targets, ds.train.features)
        assert rep.mapm.max() < 1e-6
        assert rep.mrpm.max() < 1e-6
        assert rep.mean_mse == 0.0

    def test_flat_start_consistent_with_mismatch(self, ieee14):
        y = build_ybus(ieee14)
        dp, dq = mismatch(ieee14, y, flat_start(ieee14))
        x = pack_state(ieee14, flat_start(ieee14))
        inj = nominal_injections(ieee14)
        feats = np.concatenate([inj.p_spec[ieee14.non_slack], inj.q_spec[ieee14.pq]])
        nominal = pack_state(ieee14, newton_raphson(ieee14).state)
        rep = evaluate(ieee14, x[None, :], nominal[None, :], feats[None, :], ybus=y)
        assert rep.mapm[0] == pytest.approx(np.abs(dp).max() * 100.0, rel=1e-12)
        assert rep.mrpm[0] == pytest.approx(np.abs(dq).max() * 100.0, rel=1e-12)

    def test_aggregate_is_mean(self, ieee14):
        ds = generate_dataset(ieee14, 6, 2, 2, seed=2)
        noisy = ds.train.targets + 0.01
        rep = evaluate(ieee14, noisy, ds.train.targets, ds.train.features)
        assert rep.mean_mapm == pytest.approx(float(rep.mapm.mean()))
        assert rep.mean_mse == pytest.approx(float(rep.mse.mean()))
