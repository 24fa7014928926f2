"""Optimizer contracts: step identities, freeze masks, deterministic training."""

import numpy as np
import pytest

from bifid.datasets import Dataset
from bifid.errors import ConfigurationError
from bifid.network import Activation, NetworkParams, NetworkSpec, init_params
from bifid.optimizers import AdamConfig, TrainMask, _adam_update, train

ELU = Activation("elu")


def reference_adam(params, grads, eta, b_m=0.9, b_v=0.999, eps=1e-8):
    """Plain-Python scalar Adam recursion used as an independent oracle."""
    m = [0.0] * len(params)
    v = [0.0] * len(params)
    p = list(params)
    for k, g in enumerate(grads, start=1):
        for j, gj in enumerate(g):
            m[j] = b_m * m[j] + (1 - b_m) * gj
            v[j] = b_v * v[j] + (1 - b_v) * gj * gj
            m_hat = m[j] / (1 - b_m**k)
            v_hat = v[j] / (1 - b_v**k)
            p[j] = p[j] - eta * m_hat / (v_hat**0.5 + eps)
    return p


def adam_once(p, g, eta_k, weight=1.0, flags=None, m=None, v=None, k=0, eps=1e-8):
    """One in-place _adam_update on copies of p, m and v; returns them and the step count."""
    p = np.array(p, dtype=np.float64)
    m = np.zeros_like(p) if m is None else m.copy()
    v = np.zeros_like(p) if v is None else v.copy()
    k = _adam_update(p, m, v, np.asarray(g, dtype=np.float64), k, eta_k, weight, flags,
                     0.9, 0.999, eps)
    return p, m, v, k


class TestAdamStep:
    def test_first_step_direction_identity(self):
        rng = np.random.default_rng(42)
        g = rng.normal(size=37) * 10.0 ** rng.integers(-3, 4, size=37)
        p0 = rng.normal(size=37)
        eta, eps = 3e-3, 1e-8
        p1, _, _, k = adam_once(p0, g, eta_k=eta, eps=eps)
        expected = p0 - eta * g / (np.abs(g) + eps)
        np.testing.assert_allclose(p1, expected, rtol=1e-12)
        assert k == 1

    def test_first_step_bias_correction_recovers_gradient(self):
        g = np.array([0.25, -3.0, 1e-4])
        _, m, v, _ = adam_once(np.zeros(3), g, eta_k=1e-3)
        m_hat = m / (1 - 0.9**1)
        v_hat = v / (1 - 0.999**1)
        np.testing.assert_allclose(m_hat, g, rtol=1e-15)
        np.testing.assert_allclose(v_hat, g * g, rtol=1e-15)

    def test_scalar_frozen_value(self):
        # p0=1, g=2, eta=0.5: first step is 1 - 0.5*2/(2+1e-8) = 0.5000000025
        p1 = adam_once([1.0], [2.0], eta_k=0.5)[0]
        np.testing.assert_allclose(p1, [0.5000000025], rtol=1e-12)

    def test_matches_reference_recursion(self):
        rng = np.random.default_rng(9)
        p0 = rng.normal(size=4)
        grads = [rng.normal(size=4) for _ in range(6)]
        p, m, v, k = p0, None, None, 0
        for g in grads:
            p, m, v, k = adam_once(p, g, eta_k=0.01, m=m, v=v, k=k)
        expected = reference_adam(p0.tolist(), [g.tolist() for g in grads], eta=0.01)
        np.testing.assert_allclose(p, expected, rtol=1e-14)

    def test_weight_scales_learning_rate_exactly(self):
        g = np.array([1.0, -2.0, 0.5])
        p0 = np.ones(3)
        a = adam_once(p0, g, eta_k=2e-3, weight=0.25)[0]
        b = adam_once(p0, g, eta_k=2e-3 * 0.25, weight=1.0)[0]
        np.testing.assert_array_equal(a, b)

    def test_mask_freezes_params_and_moments_bitwise(self):
        rng = np.random.default_rng(1)
        n = 10
        p0 = rng.normal(size=n)
        m0 = rng.normal(size=n) * 0.1
        v0 = np.abs(rng.normal(size=n)) * 0.1
        flags = np.zeros(n, dtype=bool)
        flags[::2] = True
        g = rng.normal(size=n)
        p1, m1, v1, _ = adam_once(p0, g, eta_k=1e-2, flags=TrainMask(flags).flags,
                                  m=m0, v=v0, k=3)
        frozen = ~flags
        np.testing.assert_array_equal(p1[frozen], p0[frozen])
        np.testing.assert_array_equal(m1[frozen], m0[frozen])
        np.testing.assert_array_equal(v1[frozen], v0[frozen])
        assert np.all(p1[flags] != p0[flags])

    def test_rejects_nonpositive_weight_or_eta(self):
        with pytest.raises(ConfigurationError):
            adam_once(np.ones(1), np.ones(1), eta_k=1e-3, weight=0.0)
        with pytest.raises(ConfigurationError):
            adam_once(np.ones(1), np.ones(1), eta_k=-1e-3)


class TestTrainMask:
    def test_requires_one_trainable(self):
        with pytest.raises(ConfigurationError):
            TrainMask(np.zeros(4, dtype=bool))

    def test_upper_layers_selects_top_of_stack(self):
        spec = NetworkSpec(3, (4, 5, 6), (ELU, ELU, ELU))
        mask = TrainMask.upper_layers(spec, 1)
        slices = {entry.name: entry.span for entry in spec.layout}
        flags = mask.flags
        for name in ("W3", "b3", "W0", "b0"):
            assert flags[slices[name]].all()
        for name in ("W1", "b1", "W2", "b2"):
            assert not flags[slices[name]].any()
        only_out = TrainMask.upper_layers(spec, 0)
        assert only_out.flags.sum() == 6 + 1  # output row + scalar bias

    def test_rejects_out_of_range(self):
        spec = NetworkSpec(3, (4, 4), (ELU, ELU))
        with pytest.raises(ConfigurationError):
            TrainMask.upper_layers(spec, 3)


def line_dataset(n=30, seed=0):
    rng = np.random.default_rng(seed)
    X = rng.uniform(-1, 1, size=(n, 2))
    y = 0.7 * X[:, 0] - 0.3 * X[:, 1] + 0.1
    return Dataset(X, y)


class TestTrain:
    def setup_method(self):
        self.spec = NetworkSpec(2, (6,), (ELU,))
        self.data = line_dataset()

    def test_bitwise_deterministic_given_seed(self):
        cfg = AdamConfig(eta=1e-2, max_steps=400)
        p0 = init_params(self.spec, np.random.default_rng(3))
        out1, hist1 = train(self.spec, p0, self.data, cfg, np.random.default_rng(17))
        out2, hist2 = train(self.spec, p0, self.data, cfg, np.random.default_rng(17))
        np.testing.assert_array_equal(out1.to_flat(), out2.to_flat())
        assert hist1 == hist2

    def test_loss_decreases_on_smooth_problem(self):
        cfg = AdamConfig(eta=1e-2, max_steps=2000)
        p0 = init_params(self.spec, np.random.default_rng(4))
        _, hist = train(self.spec, p0, self.data, cfg, np.random.default_rng(5))
        assert hist[-1][1] < hist[0][1]

    def test_masked_components_never_move(self):
        spec = NetworkSpec(2, (4, 4), (ELU, ELU))
        p0 = init_params(spec, np.random.default_rng(8))
        mask = TrainMask.upper_layers(spec, 1)
        cfg = AdamConfig(eta=5e-3, max_steps=300)
        out, _ = train(spec, p0, self.data, cfg, np.random.default_rng(9), mask=mask)
        frozen = ~mask.flags
        np.testing.assert_array_equal(out.to_flat()[frozen], p0.to_flat()[frozen])
        assert np.any(out.to_flat()[mask.flags] != p0.to_flat()[mask.flags])

    def test_unit_weights_match_no_weights_bitwise(self):
        cfg = AdamConfig(eta=1e-2, max_steps=250)
        p0 = init_params(self.spec, np.random.default_rng(1))
        a, _ = train(self.spec, p0, self.data, cfg, np.random.default_rng(2))
        b, _ = train(
            self.spec, p0, self.data, cfg, np.random.default_rng(2),
            weights=np.ones(len(self.data)),
        )
        np.testing.assert_array_equal(a.to_flat(), b.to_flat())

    def test_schedule_list_matches_constant(self):
        steps = 150
        cfg_c = AdamConfig(eta=2e-3, max_steps=steps)
        cfg_l = AdamConfig(eta=[2e-3] * steps, max_steps=steps)
        p0 = init_params(self.spec, np.random.default_rng(12))
        a, _ = train(self.spec, p0, self.data, cfg_c, np.random.default_rng(13))
        b, _ = train(self.spec, p0, self.data, cfg_l, np.random.default_rng(13))
        np.testing.assert_array_equal(a.to_flat(), b.to_flat())

    def test_history_stride_and_endpoints(self):
        cfg = AdamConfig(eta=1e-3, max_steps=250, loss_stride=100)
        p0 = init_params(self.spec, np.random.default_rng(0))
        _, hist = train(self.spec, p0, self.data, cfg, np.random.default_rng(0))
        assert [s for s, _ in hist] == [0, 100, 200, 250]

    def test_weight_count_validated(self):
        cfg = AdamConfig(eta=1e-3, max_steps=10)
        p0 = init_params(self.spec, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            train(self.spec, p0, self.data, cfg, np.random.default_rng(0), weights=np.ones(3))

    def test_schedule_shorter_than_run_rejected(self):
        with pytest.raises(ConfigurationError):
            AdamConfig(eta=[1e-3] * 5, max_steps=10)
