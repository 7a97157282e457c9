"""Pinned outputs of the toy track, and bit checks of the surface kernel.

The hashes were recorded before the Müller-Brown surface computed its
value and gradient from one set of exponentials and before gradient
descent ran its inner loop on Python floats (numpy's bundled OpenBLAS on
x86-64).  Both changes must leave every visited point, every potential
value, every count and every trajectory line as they were.
"""

import hashlib
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrefine.baselines import (
    build_toy_setup,
    gradient_descent,
    load_toy_demo,
    newton_raphson_scalar,
    trajectory_comparison,
)
from diffrefine.errors import NonFiniteGradientError
from diffrefine.potentials import (
    EXP_CLAMP,
    WORKING_BOX,
    MullerBrown,
    MullerBrownParams,
    _exp_batch,
    muller_brown_potential,
)

# Two starts outside WORKING_BOX where surface exponents are clamped.
CLAMPED_STARTS = [[60.0, -60.0], [-30.0, 25.0]]

DESCENT_SHA = "097722ed92423043248a8d9d5fd63c0df35f25be410d403f72fb77d68000bf3d"
COMPARISON_SHA = "90dce535d7883e2a07337e48b8ec49b9595434e9e7ea4492b31e3305a6eb910d"


def _sha256(*arrays) -> str:
    h = hashlib.sha256()
    for arr in arrays:
        h.update(np.ascontiguousarray(arr, dtype=float).tobytes())
    return h.hexdigest()


def _demo_starts() -> list:
    starts = load_toy_demo()["starts"]
    return [row for name in sorted(starts) for row in starts[name]]


def descent_digest() -> str:
    pot = muller_brown_potential(margin=2.0)
    got = []
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        for start in _demo_starts() + CLAMPED_STARTS:
            for res in (
                gradient_descent(pot, np.array(start), step=1e-4, iters=2000),
                newton_raphson_scalar(pot, np.array(start)),
            ):
                flags = [res.iterations, res.backtracks, res.converged, res.saddle]
                got += [res.points, res.phis, np.array(flags, dtype=float)]
    return _sha256(*got)


def comparison_digest() -> str:
    demo = load_toy_demo()
    demo["model"] = {
        **demo["model"],
        "n_samples": 200,
        "train": {"epochs": 2, "batch_size": 128, "lr": 0.001, "seed": 41, "loss": "eps"},
    }
    pot, model, cfg, _ = build_toy_setup(demo)
    table = trajectory_comparison(
        pot, np.array(_demo_starts()), model=model, refine_cfg=cfg, gd_iters=1500
    )
    text = "\n".join(table.to_lines())
    for row in table.rows:
        text += "\n" + "\n".join(row.trajectory.to_lines())
    return hashlib.sha256(text.encode()).hexdigest()


def test_descent_results():
    assert descent_digest() == DESCENT_SHA


def test_trajectory_comparison_lines():
    assert comparison_digest() == COMPARISON_SHA


def test_gradient_descent_raises_on_non_finite_gradient():
    pot = muller_brown_potential(margin=2.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        with pytest.raises(NonFiniteGradientError):
            gradient_descent(pot, np.array([1e100, 0.0]))
        # the fused evaluation reports the same point without raising
        phi, g = pot.value_and_grad([1e100, 0.0])
    assert np.isfinite(phi) and not np.all(np.isfinite(g))


@pytest.mark.parametrize("start", CLAMPED_STARTS)
def test_clamped_start_warns_and_rejected_trials_do_not_raise(start):
    # every trial from these starts lands where the gradient overflows
    pot = muller_brown_potential(margin=2.0)
    with pytest.warns(RuntimeWarning, match="surface exponent clamped") as record:
        res = gradient_descent(pot, np.array(start), step=1e-4, iters=50)
    assert res.iterations == 0 and res.backtracks == 40
    # the huge but finite gradient's norm overflows without a warning of its own
    assert {str(w.message) for w in record} == {"surface exponent clamped"}


def test_newton_far_jump_overflows_without_a_warning():
    # a toy-basins start (seed 5) whose Newton steps reach points where the
    # gradient is finite but its squared norm overflows
    pot = muller_brown_potential(margin=2.0)
    with warnings.catch_warnings(record=True) as record:
        warnings.simplefilter("always")
        res = newton_raphson_scalar(pot, np.array([-0.1006846337440006, 0.6916972958276733]))
    assert res.converged
    assert {str(w.message) for w in record} == {"surface exponent clamped"}


# The surface as separate value and gradient passes computed it before the
# fused kernel, on numpy float64 scalars for one point and on arrays for a
# batch: the reference the kernel must match bit for bit.

def _separate_point(p: MullerBrownParams, x: float, y: float):
    total = 0.0
    gx = 0.0
    gy = 0.0
    for i in range(4):
        dx = x - p.centers_x[i]
        dy = y - p.centers_y[i]
        arg = p.curv_a[i] * dx * dx + p.curv_b[i] * dx * dy + p.curv_c[i] * dy * dy
        if abs(arg) > EXP_CLAMP:
            arg = np.clip(arg, -EXP_CLAMP, EXP_CLAMP)
        total += p.depths[i] * np.exp(arg)
        e = p.depths[i] * np.exp(arg)
        gx += e * (2.0 * p.curv_a[i] * dx + p.curv_b[i] * dy)
        gy += e * (p.curv_b[i] * dx + 2.0 * p.curv_c[i] * dy)
    return float(total), float(gx), float(gy)


def _separate_batch(p: MullerBrownParams, pts: np.ndarray):
    x = pts[:, 0]
    y = pts[:, 1]
    total = np.zeros_like(x)
    gx = np.zeros_like(x)
    gy = np.zeros_like(y)
    for i in range(4):
        dx = x - p.centers_x[i]
        dy = y - p.centers_y[i]
        arg = p.curv_a[i] * dx * dx + p.curv_b[i] * dx * dy + p.curv_c[i] * dy * dy
        e = p.depths[i] * np.exp(np.clip(arg, -EXP_CLAMP, EXP_CLAMP))
        total += e
        gx += e * (2.0 * p.curv_a[i] * dx + p.curv_b[i] * dy)
        gy += e * (p.curv_b[i] * dx + 2.0 * p.curv_c[i] * dy)
    return total, np.stack([gx, gy], axis=-1)


def _bits(*values) -> bytes:
    return np.array(values, dtype=float).tobytes()


# Points in and around WORKING_BOX, plus far ones whose exponents clamp
# and whose gradients overflow.
COORD = st.one_of(
    st.floats(-3.0, 3.0),
    st.floats(-1e3, 1e3),
    st.floats(-1e200, 1e200),
)


@settings(max_examples=300)
@given(x=COORD, y=COORD)
def test_fused_point_matches_separate_passes(x, y):
    mb = MullerBrown()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want_v, want_gx, want_gy = _separate_point(mb.params, x, y)
        got = mb.evaluate(x, y)
        value = mb.surface_value([x, y])
    assert _bits(*got) == _bits(want_v, want_gx, want_gy)
    assert _bits(value) == _bits(want_v)


@settings(max_examples=100)
@given(pts=st.lists(st.tuples(COORD, COORD), min_size=1, max_size=12))
def test_fused_batch_matches_separate_passes(pts):
    pot = muller_brown_potential(margin=2.0)
    mb = pot.surface
    pts = np.array(pts, dtype=float)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)
        want_v, want_g = _separate_batch(mb.params, pts)
        got_v = mb.surface_value_batch(pts)
        got_g = np.stack(mb.evaluate(pts[:, 0], pts[:, 1], _exp_batch)[1:], axis=-1)
        got_pot_g = pot.grad_batch(pts)
        want_pot_g = want_g * (want_v - pot.zero_level > 0.0)[:, None]
    assert got_v.tobytes() == want_v.tobytes()
    assert got_g.tobytes() == want_g.tobytes()
    assert got_pot_g.tobytes() == want_pot_g.tobytes()


def test_clamp_warning_on_every_point_entry():
    mb = MullerBrown()
    pot = muller_brown_potential(margin=2.0)
    far = np.array([60.0, -60.0])
    for call in (mb.surface_value, pot.value, pot.grad, pot.value_and_grad):
        with pytest.warns(RuntimeWarning, match="surface exponent clamped"):
            call(far)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        mb.surface_value_batch(far[None, :])
        mb.surface_value(np.array([WORKING_BOX[0, 0], WORKING_BOX[1, 1]]))
