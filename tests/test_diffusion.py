"""Noise schedules, deterministic reverse steps, denoiser training."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from diffrefine.diffusion import (
    NoiseSchedule,
    estimate_x0,
    ddim_step,
    forward_noise,
    make_schedule,
    model_schedule,
    train_noise_model,
)
from diffrefine.errors import ConfigError, DegenerateAlphaError, NonFiniteLossError
from diffrefine.numerics import Rng
from diffrefine.training import TrainConfig

from support import generate


class TestSchedule:
    def test_single_step_alpha_bar(self):
        s = NoiseSchedule.from_betas(np.array([0.5]))
        assert np.array_equal(s.alpha_bars, np.array([1.0, 0.5]))
        assert s.T == 1

    def test_three_step_product(self):
        s = NoiseSchedule.from_betas(np.array([0.1, 0.2, 0.3]))
        assert s.alpha_bar(3) == pytest.approx(0.9 * 0.8 * 0.7)
        assert s.alpha_bar(0) == 1.0

    def test_recursion_exact(self):
        s = make_schedule(50, 1e-4, 0.02)
        for t in range(1, 51):
            assert s.alpha_bars[t] == pytest.approx(
                s.alpha_bars[t - 1] * (1.0 - s.betas[t - 1]), rel=1e-15
            )

    def test_linear_endpoints(self):
        s = make_schedule(100, 1e-4, 0.02)
        assert s.betas[0] == pytest.approx(1e-4)
        assert s.betas[-1] == pytest.approx(0.02)

    def test_bad_beta_rejected(self):
        with pytest.raises(ConfigError):
            NoiseSchedule.from_betas(np.array([0.1, 1.5]))
        with pytest.raises(ConfigError):
            make_schedule(0)


class TestForwardAndEstimate:
    @settings(max_examples=50)
    @given(
        x0=st.floats(-5, 5),
        eps=st.floats(-3, 3),
        t=st.integers(1, 40),
    )
    def test_round_trip_identity(self, x0, eps, t):
        s = make_schedule(40)
        x = np.array([x0])
        e = np.array([eps])
        x_t = forward_noise(x, t, e, s)
        rec = estimate_x0(x_t, t, e, s)
        assert rec[0] == pytest.approx(x0, abs=1e-9)

    def test_alpha_bar_floor_guard(self):
        betas = np.full(400, 0.2)
        s = NoiseSchedule.from_betas(betas)
        with pytest.raises(DegenerateAlphaError):
            estimate_x0(np.array([1.0]), 400, np.array([0.0]), s)


class TestDdimStep:
    def test_perfect_estimate_recovers_exactly(self):
        # With the true noise supplied at every level the deterministic
        # reverse chain inverts the forward map.
        s = make_schedule(60, 1e-4, 0.03)
        rng = Rng(17)
        x0 = rng.normal((5, 2))
        eps = rng.normal((5, 2))
        x = forward_noise(x0, 60, eps, s)
        for t in range(60, 0, -1):
            x = ddim_step(x, t, eps, s)
        assert float(np.abs(x - x0).max()) < 1e-8

    def test_subsequence_jump_matches_direct(self):
        # Jumping 10 -> 4 in one deterministic step equals the formula
        # applied with those two levels directly.
        s = make_schedule(10)
        rng = Rng(3)
        x0 = rng.normal((3, 2))
        eps = rng.normal((3, 2))
        x10 = forward_noise(x0, 10, eps, s)
        jumped = ddim_step(x10, 10, eps, s, t_prev=4)
        expected = forward_noise(x0, 4, eps, s)
        assert np.allclose(jumped, expected, atol=1e-12)

    def test_final_step_lands_on_x0_hat(self):
        s = make_schedule(10)
        x = np.array([0.7])
        e = np.array([0.2])
        out = ddim_step(x, 1, e, s)
        assert out[0] == pytest.approx(float(estimate_x0(x, 1, e, s)[0]))


class TestNoiseModel:
    def test_validation_eps_mse_drops(self):
        rng = Rng(21)
        data = rng.normal((600, 1)) * 0.3 + 1.0
        s = make_schedule(40, 1e-4, 0.05)
        cfg = TrainConfig(epochs=30, batch_size=128, lr=2e-3, seed=21, loss="eps")
        model = train_noise_model(data, s, cfg, hidden=(32, 32), time_dim=8)
        assert model.kind == "noise"
        assert float(model.extra["val_eps_mse"]) < 1.0
        rebuilt = model_schedule(model)
        assert np.array_equal(rebuilt.betas, s.betas)

    def test_same_seed_bit_identical(self):
        rng = Rng(21)
        data = rng.normal((200, 1))
        s = make_schedule(20)
        cfg = TrainConfig(epochs=5, batch_size=64, lr=1e-3, seed=9, loss="eps")
        a = train_noise_model(data, s, cfg, hidden=(16,), time_dim=8)
        b = train_noise_model(data, s, cfg, hidden=(16,), time_dim=8)
        assert np.array_equal(a.net.get_params(), b.net.get_params())

    def test_nan_in_data_raises(self):
        data = Rng(22).normal((40, 2))
        data[3, 1] = np.nan
        cfg = TrainConfig(epochs=2, batch_size=16, lr=1e-3, seed=9, loss="eps")
        with pytest.raises(NonFiniteLossError):
            train_noise_model(data, make_schedule(20), cfg, hidden=(8,), time_dim=4)

    def test_generate_matches_mixture_mean(self):
        # Two Gaussian clusters; generated samples must land near the
        # data distribution in mean and spread.
        rng = Rng(33)
        n = 1500
        comp = rng.random(n) < 0.5
        data = np.where(
            comp[:, None],
            rng.normal((n, 2)) * 0.2 + np.array([2.0, 0.0]),
            rng.normal((n, 2)) * 0.2 + np.array([-2.0, 0.0]),
        )
        s = make_schedule(200, 1e-4, 0.05)
        cfg = TrainConfig(epochs=60, batch_size=256, lr=2e-3, seed=33, loss="eps")
        model = train_noise_model(data, s, cfg, hidden=(64, 64), time_dim=16)
        samples = generate(model, 400, Rng(101))
        assert samples.shape == (400, 2)
        se = data.std(axis=0) / np.sqrt(400)
        assert np.all(np.abs(samples.mean(axis=0) - data.mean(axis=0)) < 3 * se + 0.2)
        # Both modes reached: some mass on each side.
        left = float(np.mean(samples[:, 0] < 0))
        assert 0.2 < left < 0.8
