"""Architecture, backprop exactness, training behavior, persistence."""

import hashlib

import numpy as np
import pytest

from diffrefine.baselines import load_toy_demo
from diffrefine.cli import TRAIN_DEFAULTS
from diffrefine.diffusion import make_schedule, train_noise_model
from diffrefine.errors import ConfigError, DimensionMismatchError, NonFiniteLossError
from diffrefine.model_store import TrainedModel, load_model, save_model
from diffrefine.network import FeedForwardNet, NetSpec, TimeEmbedding, _layer_views, _sigmoid, silu
from diffrefine.numerics import Rng, finite_diff_grad
from diffrefine.potentials import CallablePotential
from diffrefine.training import (
    Adam,
    Normalizer,
    TrainConfig,
    backprop_grads,
    train_network,
)


class TestTimeEmbedding:
    def test_shape_and_bounds(self):
        emb = TimeEmbedding(16)
        v = emb.batch([37])[0]
        assert v.shape == (16,)
        assert np.all(np.abs(v) <= 1.0)

    def test_injective_over_chain(self):
        emb = TimeEmbedding(8)
        vecs = emb.batch(np.arange(1, 101))
        d = np.linalg.norm(vecs[:, None, :] - vecs[None, :, :], axis=2)
        d[np.diag_indices(100)] = np.inf
        assert d.min() > 1e-6

    def test_odd_dim_rejected(self):
        with pytest.raises(ConfigError):
            TimeEmbedding(7)


class TestNetStructure:
    def test_zero_final_layer_outputs_bias(self):
        spec = NetSpec(x_dim=3, hidden=(8, 8), out_dim=2, final_zero=True)
        net = FeedForwardNet.init(spec, Rng(0))
        net.biases[-1] = np.array([0.5, -1.5])
        out = net.forward(np.array([1.0, -2.0, 0.3]))
        assert np.array_equal(out, np.array([0.5, -1.5]))

    def test_param_count(self):
        spec = NetSpec(x_dim=4, hidden=(10, 10), out_dim=3)
        net = FeedForwardNet.init(spec, Rng(0))
        expected = (4 * 10 + 10) + (10 * 10 + 10) + (10 * 3 + 3)
        assert net.param_count() == expected
        assert net.get_params().size == expected

    def test_param_round_trip(self):
        spec = NetSpec(x_dim=2, hidden=(5,), out_dim=2)
        net = FeedForwardNet.init(spec, Rng(1))
        flat = net.get_params()
        clone = FeedForwardNet.init(spec, Rng(99))
        clone.set_params(flat)
        assert np.array_equal(clone.get_params(), flat)

    def test_skips_change_output(self):
        rng_a, rng_b = Rng(3), Rng(3)
        plain = FeedForwardNet.init(NetSpec(x_dim=2, hidden=(6, 6), out_dim=1), rng_a)
        skip = FeedForwardNet.init(
            NetSpec(x_dim=2, hidden=(6, 6), out_dim=1, skips=True), rng_b
        )
        skip.set_params(plain.get_params())
        x = np.array([0.7, -0.2])
        assert not np.allclose(plain.forward(x), skip.forward(x))

    def test_asymmetric_skips_rejected(self):
        with pytest.raises(ConfigError):
            NetSpec(x_dim=2, hidden=(6, 4), out_dim=1, skips=True)

    def test_missing_time_input_rejected(self):
        net = FeedForwardNet.init(NetSpec(x_dim=2, hidden=(4,), out_dim=1, time_dim=8), Rng(0))
        with pytest.raises(DimensionMismatchError):
            net.forward(np.zeros(2))

    def test_silu_values(self):
        assert silu(np.array([0.0]))[0] == 0.0
        assert silu(np.array([20.0]))[0] == pytest.approx(20.0, rel=1e-6)


def _arch_cases():
    cases = []
    rng = Rng(12345)
    for i in range(20):
        x_dim = int(rng.integers(1, 5))
        depth = int(rng.integers(1, 4))
        if i % 3 == 0 and depth >= 2:
            width = int(rng.integers(3, 7))
            hidden = tuple([width] * depth)
            skips = True
        else:
            hidden = tuple(int(rng.integers(3, 7)) for _ in range(depth))
            skips = False
        time_dim = 8 if i % 4 == 1 else 0
        cond_dim = int(rng.integers(1, 3)) if i % 5 == 2 else 0
        out_dim = 1 if i % 2 == 0 else int(rng.integers(1, 4))
        loss = ("mse", "eps", "bce", "pinn")[i % 4]
        if loss == "bce":
            out_dim = 1
        cases.append((i, x_dim, hidden, out_dim, time_dim, cond_dim, skips, loss))
    return cases


class TestBackpropExactness:
    @pytest.mark.parametrize("case", _arch_cases(), ids=lambda c: f"arch{c[0]}-{c[7]}")
    def test_matches_finite_differences(self, case):
        i, x_dim, hidden, out_dim, time_dim, cond_dim, skips, loss = case
        spec = NetSpec(
            x_dim=x_dim, hidden=hidden, out_dim=out_dim,
            time_dim=time_dim, cond_dim=cond_dim, skips=skips,
        )
        rng = Rng(1000 + i)
        net = FeedForwardNet.init(spec, rng)
        n = 4
        x = rng.normal((n, x_dim))
        if loss == "bce":
            y = (rng.random((n, 1)) > 0.5).astype(float)
        else:
            y = rng.normal((n, out_dim))
        t = rng.integers(1, 50, size=n) if time_dim else None
        cond = rng.normal((n, cond_dim)) if cond_dim else None

        pinn_pot = None
        weight = 0.0
        if loss == "pinn":
            weight = 0.3
            quad = CallablePotential(out_dim, lambda v: float(v @ v), lambda v: 2.0 * v)

            def pinn_pot(y_pred, _rows):
                phi = np.array([quad.value(row) for row in y_pred])
                grads = np.stack([quad.grad(row) for row in y_pred])
                return phi, grads

        analytic_loss, grads, _ = backprop_grads(
            net, x, y, kind=loss, t=t, cond=cond, pinn_penalty=pinn_pot, pinn_weight=weight
        )
        flat = net.get_params()

        def loss_at(params):
            probe = net.clone()
            probe.set_params(params)
            val, _, _ = backprop_grads(
                probe, x, y, kind=loss, t=t, cond=cond, pinn_penalty=pinn_pot, pinn_weight=weight
            )
            return val

        fd = finite_diff_grad(loss_at, flat, h=1e-6)
        g = grads.flatten()
        scale = max(float(np.abs(fd).max()), 1e-8)
        assert float(np.abs(g - fd).max()) / scale < 1e-4

    def test_input_gradient_matches_fd(self):
        spec = NetSpec(x_dim=3, hidden=(6, 6), out_dim=2, skips=True)
        net = FeedForwardNet.init(spec, Rng(77))
        x = np.array([[0.4, -1.2, 0.9]])
        y = np.array([[0.1, 0.2]])
        _, _, d_input = backprop_grads(net, x, y, kind="mse")
        dx = net.input_gradient(d_input)[0]

        def loss_at_x(xv):
            out = net.forward(xv[None, :])
            return float(np.mean((out - y) ** 2))

        fd = finite_diff_grad(loss_at_x, x[0], h=1e-6)
        assert np.abs(dx - fd).max() / max(np.abs(fd).max(), 1e-8) < 1e-4


class TestTraining:
    def test_linear_regression_converges(self):
        rng = Rng(5)
        a = np.array([[1.0, -2.0], [0.5, 0.5]])
        x = rng.normal((400, 2))
        y = x @ a.T
        net = FeedForwardNet.init(NetSpec(x_dim=2, hidden=(32,), out_dim=2), Rng(6))
        res = train_network(net, x, y, TrainConfig(epochs=300, batch_size=64, lr=3e-3, seed=7))
        assert res.history[-1] < 1e-3

    def test_identical_seeds_identical_weights(self):
        rng = Rng(8)
        x = rng.normal((100, 2))
        y = x[:, :1] * 2.0
        outs = []
        for _ in range(2):
            net = FeedForwardNet.init(NetSpec(x_dim=2, hidden=(8,), out_dim=1), Rng(3))
            train_network(net, x, y, TrainConfig(epochs=10, batch_size=32, lr=1e-3, seed=3))
            outs.append(net.get_params())
        assert np.array_equal(outs[0], outs[1])

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_loss_aborts_with_epoch(self):
        x = np.full((8, 1), 1e4)
        y = np.full((8, 1), -1e4)
        net = FeedForwardNet.init(NetSpec(x_dim=1, hidden=(4, 4), out_dim=1), Rng(2))
        with pytest.raises(NonFiniteLossError) as err:
            train_network(net, x, y, TrainConfig(epochs=50, batch_size=8, lr=1e80, seed=1))
        assert err.value.epoch >= 0

    def test_pinn_penalty_reduces_potential(self):
        # Outputs are pushed toward zero by the penalty; identical
        # setup otherwise.
        rng = Rng(9)
        x = rng.normal((300, 2))
        y = x + 1.5

        def penalty(y_pred, _rows):
            phi = np.sum(y_pred**2, axis=1)
            return phi, 2.0 * y_pred

        results = {}
        for kind, weight in (("mse", 0.0), ("pinn", 0.2)):
            net = FeedForwardNet.init(NetSpec(x_dim=2, hidden=(16,), out_dim=2), Rng(4))
            cfg = TrainConfig(epochs=80, batch_size=64, lr=3e-3, seed=4, loss=kind, pinn_weight=weight)
            train_network(net, x, y, cfg, pinn_penalty=penalty if kind == "pinn" else None)
            pred = net.forward(x)
            results[kind] = float(np.mean(np.sum(pred**2, axis=1)))
        assert results["pinn"] < results["mse"]


class TestNormalizer:
    def test_round_trip(self):
        rng = Rng(31)
        data = rng.normal((50, 3)) * np.array([2.0, 5.0, 0.1]) + np.array([1.0, -3.0, 0.0])
        norm = Normalizer.fit(data)
        z = norm.encode(data)
        assert np.abs(z.mean(axis=0)).max() < 1e-12
        assert np.allclose(norm.decode(z), data, atol=1e-12)

    def test_constant_column_safe(self):
        data = np.ones((10, 2))
        norm = Normalizer.fit(data)
        assert np.all(np.isfinite(norm.encode(data)))


class TestPersistence:
    def test_round_trip_bit_exact(self, tmp_path):
        spec = NetSpec(x_dim=3, hidden=(8, 8), out_dim=2, time_dim=8, skips=True)
        net = FeedForwardNet.init(spec, Rng(55))
        model = TrainedModel(
            kind="regressor",
            net=net,
            x_norm=Normalizer(mean=np.array([1.0, 2.0, 3.0]), std=np.array([1.0, 0.5, 2.0])),
            y_norm=Normalizer(mean=np.array([0.0, -1.0]), std=np.array([2.0, 2.0])),
            seed=55,
            train_config={"epochs": 3},
            loss_history=np.array([3.0, 2.0, 1.0]),
            extra={"schedule_betas": np.linspace(1e-4, 0.02, 10), "note": "x"},
        )
        path = tmp_path / "model.npz"
        save_model(path, model)
        loaded = load_model(path)
        assert loaded.kind == "regressor"
        assert np.array_equal(loaded.net.get_params(), net.get_params())
        assert np.array_equal(loaded.x_norm.mean, model.x_norm.mean)
        assert np.array_equal(loaded.extra["schedule_betas"], model.extra["schedule_betas"])
        assert loaded.extra["note"] == "x"
        assert loaded.seed == 55
        # Identical predictions bit for bit.
        x = Rng(1).normal((5, 3))
        a = model.net.forward(x, t=7)
        b = loaded.net.forward(x, t=7)
        assert np.array_equal(a, b)

    def test_predict_applies_normalization(self):
        spec = NetSpec(x_dim=1, hidden=(4,), out_dim=1, final_zero=True)
        net = FeedForwardNet.init(spec, Rng(0))
        net.biases[-1] = np.array([1.0])  # normalized output is 1
        model = TrainedModel(
            kind="regressor",
            net=net,
            x_norm=Normalizer(mean=np.array([5.0]), std=np.array([2.0])),
            y_norm=Normalizer(mean=np.array([10.0]), std=np.array([4.0])),
            seed=0,
        )
        assert model.predict(np.array([5.0]))[0] == pytest.approx(14.0)


def _masked_sigmoid(z):
    """The boolean-mask formula the branch-free sigmoid must reproduce."""
    out = np.empty_like(z)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def _sha256(arr) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=float).tobytes()).hexdigest()


def _forward_before(net, inp):
    """forward_batch's layers as they were, with @ products, on an
    assembled input."""
    m = len(net.spec.hidden)
    skip_into = {dst: src for src, dst in net.spec.skip_pairs()}
    a = inp
    acts = [inp]
    for j in range(1, m + 1):
        z = a @ net.weights[j - 1].T
        z += net.biases[j - 1]
        if j in skip_into:
            z += acts[skip_into[j]]
        a = z * _sigmoid(z)
        acts.append(a)
    out = a @ net.weights[m].T
    out += net.biases[m]
    return out


def _full_backward_before(net, cache, d_out):
    """backward_batch as it was before it skipped the parameter gradient
    without a buffer: (flat parameter gradient, assembled-input gradient)."""
    m = len(net.spec.hidden)
    acts = cache.activations
    grads = np.empty_like(net.params)
    d_w, d_b = _layer_views(net.spec, grads)
    np.matmul(d_out.T, acts[m], out=d_w[m])
    np.sum(d_out, axis=0, out=d_b[m])
    d_a = [None] * (m + 1)
    d_a[m] = d_out @ net.weights[m]
    skip_into = {dst: src for src, dst in net.spec.skip_pairs()}
    for j in range(m, 0, -1):
        s = cache.sigmoids[j - 1]
        d_z = d_a[j] * (s * (1.0 + cache.pre_activations[j - 1] * (1.0 - s)))
        np.matmul(d_z.T, acts[j - 1], out=d_w[j - 1])
        np.sum(d_z, axis=0, out=d_b[j - 1])
        d_in = d_z @ net.weights[j - 1]
        d_a[j - 1] = d_in if d_a[j - 1] is None else d_a[j - 1] + d_in
        src = skip_into.get(j)
        if src is not None:
            d_a[src] = d_z if d_a[src] is None else d_a[src] + d_z
    return grads, d_a[0]


class TestBitIdentity:
    """Faster arithmetic must not change a single bit of what is computed."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0])
    def test_sigmoid_matches_masked_formula(self, scale):
        z = Rng(3).normal((64, 33)) * scale
        assert _sigmoid(z).tobytes() == _masked_sigmoid(z).tobytes()

    def test_sigmoid_extremes(self):
        z = np.array([1000.0, -1000.0, 0.0, -0.0, 1e-300, -1e-300])
        got = _sigmoid(z)
        assert got.tobytes() == _masked_sigmoid(z).tobytes()
        assert got[0] == 1.0 and got[1] == 0.0 and got[2] == 0.5

    def test_layers_are_views_of_params(self):
        spec = NetSpec(x_dim=3, hidden=(6, 6), out_dim=2, time_dim=8, skips=True)
        net = FeedForwardNet.init(spec, Rng(4))
        for w, b in zip(net.weights, net.biases):
            assert np.shares_memory(w, net.params)
            assert np.shares_memory(b, net.params)
        net.biases[-1] = np.array([0.5, -1.5])
        assert np.shares_memory(net.biases[-1], net.params)
        assert np.array_equal(net.params[-2:], [0.5, -1.5])

    def test_adam_updates_params_in_place(self):
        net = FeedForwardNet.init(NetSpec(x_dim=2, hidden=(5,), out_dim=1), Rng(5))
        params = net.params
        expected = params.copy()
        m = np.zeros_like(expected)
        v = np.zeros_like(expected)
        opt = Adam(net.param_count(), lr=1e-2)
        for t, g in enumerate(Rng(6).normal((3, net.param_count())), start=1):
            # The textbook update, evaluated out of place.
            m = 0.9 * m + (1.0 - 0.9) * g
            v = 0.999 * v + (1.0 - 0.999) * g * g
            m_hat = m / (1.0 - 0.9**t)
            v_hat = v / (1.0 - 0.999**t)
            expected = expected - 1e-2 * m_hat / (np.sqrt(v_hat) + 1e-8)
            assert opt.step(net.params, g) is None
        assert net.params is params
        assert params.tobytes() == expected.tobytes()
        assert np.array_equal(net.weights[0].ravel(), expected[:10])

    def test_backward_into_buffer_without_input_gradient(self):
        spec = NetSpec(x_dim=2, hidden=(4, 4), out_dim=2, skips=True)
        net = FeedForwardNet.init(spec, Rng(6))
        x = Rng(7).normal((5, 2))
        y = Rng(8).normal((5, 2))
        _, ref, d_input = backprop_grads(net, x, y)
        buf = np.empty_like(net.params)
        _, grads, skipped = backprop_grads(net, x, y, grads=buf, input_grad=False)
        assert grads is buf and skipped is None and d_input is not None
        assert grads.tobytes() == ref.tobytes()

    # The tabular classifier's architecture, and a skip-connected
    # conditional prior.
    BACKWARD_SPECS = {
        "classifier": NetSpec(x_dim=12, hidden=(32, 32), out_dim=1),
        "prior": NetSpec(x_dim=12, hidden=(16, 16), out_dim=12, time_dim=16, cond_dim=3,
                         skips=True),
    }

    @pytest.mark.parametrize("rows", [1, 7, 128])  # 128: a training batch
    @pytest.mark.parametrize("kind", sorted(BACKWARD_SPECS))
    def test_fast_forward_and_buffer_less_backward_match_the_old_formulas(self, kind, rows):
        spec = self.BACKWARD_SPECS[kind]
        net = FeedForwardNet.init(spec, Rng(9))
        rng = Rng(10)
        x = rng.normal((rows, spec.x_dim))
        t = rng.integers(1, 61, size=rows) if spec.time_dim else None
        cond = rng.normal((rows, spec.cond_dim)) if spec.cond_dim else None
        out, cache = net.forward_batch(x, t, cond, want_cache=True)
        assert out.tobytes() == _forward_before(net, cache.inputs).tobytes()
        d_out = rng.normal((rows, spec.out_dim))
        ref_grads, ref_input = _full_backward_before(net, cache, d_out)
        grads, d_input = net.backward_batch(cache, d_out)
        assert grads is None
        assert d_input.tobytes() == ref_input.tobytes()
        buf = np.empty_like(net.params)
        grads, d_input = net.backward_batch(cache, d_out, buf)
        assert grads is buf and grads.tobytes() == ref_grads.tobytes()
        assert d_input.tobytes() == ref_input.tobytes()

    # The shipped recipes' step schedule lengths and embedding widths.
    SHIPPED_STEPS = {
        "pf": TRAIN_DEFAULTS["eps"]["powerflow-dataset"],
        "tabular": TRAIN_DEFAULTS["eps"]["tabular-dataset"],
        "toy": load_toy_demo()["model"],
    }

    @pytest.mark.parametrize("rows", [1, 5])
    @pytest.mark.parametrize("recipe", sorted(SHIPPED_STEPS))
    def test_memoized_step_embedding_matches_a_fresh_one(self, recipe, rows):
        T = self.SHIPPED_STEPS[recipe]["schedule"]["T"]
        time_dim = self.SHIPPED_STEPS[recipe]["time_dim"]
        net = FeedForwardNet.init(NetSpec(x_dim=3, hidden=(4,), out_dim=3, time_dim=time_dim),
                                  Rng(11))
        x = Rng(12).normal((rows, 3))
        for t in range(T + 1):
            fresh = TimeEmbedding(time_dim).batch(np.full(rows, float(t)))
            for _ in range(2):  # the first call fills the memo, the second reads it
                got = net._assemble_input(x, t, None)[:, 3:]
                assert got.tobytes() == fresh.tobytes()

    # Recorded before the flat parameter buffer, the cached sigmoid and the
    # in-place Adam replaced per-layer arrays and per-step copies, with
    # numpy's bundled OpenBLAS on x86-64 (a BLAS built for other hardware
    # may round matrix products differently).
    TRAIN_NETWORK_SHA = "99647f326effc270ae2b8eb70f1ac8dd871bb1e460767b997c084517d085c800"
    TRAIN_NOISE_SHA = "b9b5175d391fd0a7ebbb863cbfe9f418a39dfd2af8b907a1f31a50740142fc13"

    def test_train_network_params_unchanged(self):
        rng = Rng(41)
        x = rng.normal((50, 3))
        y = np.tanh(x[:, :2]) + 0.1 * x[:, 2:]
        spec = NetSpec(x_dim=3, hidden=(16, 16), out_dim=2, skips=True)
        net = FeedForwardNet.init(spec, Rng(42))
        train_network(net, x, y, TrainConfig(epochs=4, batch_size=16, lr=1e-2, seed=43))
        assert _sha256(net.params) == self.TRAIN_NETWORK_SHA

    def test_train_noise_model_params_unchanged(self):
        rng = Rng(51)
        data = rng.normal((60, 2))
        cond = rng.normal((60, 3))
        cfg = TrainConfig(epochs=3, batch_size=16, lr=1e-3, seed=52, loss="eps")
        model = train_noise_model(
            data, make_schedule(20), cfg, conditions=cond, hidden=(16, 16), time_dim=8
        )
        assert _sha256(model.net.params) == self.TRAIN_NOISE_SHA
