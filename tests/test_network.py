"""Network math checked against hand-derived values and finite differences."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bifid.datasets import Dataset
from bifid.errors import ConfigurationError
from bifid.network import (
    Activation,
    NetworkParams,
    NetworkSpec,
    activation_eval,
    activation_grad,
    forward,
    grad_sample_flat,
    init_params,
    loss_mse,
    params_from_bytes,
    params_to_bytes,
    predict_batch,
)

RELU = Activation("relu")
ELU = Activation("elu", alpha=1.0)
IDENT = Activation("identity")


def small_spec(act=ELU, skips=()):
    return NetworkSpec(
        input_dim=2,
        hidden_widths=(2, 2),
        hidden_activations=(act, act),
        skips=tuple(skips),
    )


class TestActivations:
    def test_relu_values(self):
        z = np.array([-2.0, -1e-12, 0.0, 1e-12, 3.5])
        np.testing.assert_array_equal(activation_eval(RELU, z), [0.0, 0.0, 0.0, 1e-12, 3.5])

    def test_relu_grad_zero_at_kink(self):
        g = activation_grad(RELU, np.array([-1.0, 0.0, 1.0]))
        np.testing.assert_array_equal(g, [0.0, 0.0, 1.0])

    def test_elu_frozen_values(self):
        # exp(-1) - 1 and exp(-0.5) - 1, computed independently
        np.testing.assert_allclose(
            activation_eval(ELU, np.array([-1.0])), [-0.63212055882855767], rtol=1e-15
        )
        np.testing.assert_allclose(
            activation_grad(ELU, np.array([-1.0])), [0.36787944117144233], rtol=1e-15
        )
        np.testing.assert_allclose(
            activation_eval(ELU, np.array([-0.5])), [-0.39346934028736658], rtol=1e-15
        )

    def test_elu_positive_side_is_identity(self):
        z = np.array([0.0, 0.3, 7.0])
        np.testing.assert_array_equal(activation_eval(ELU, z), z)
        np.testing.assert_array_equal(activation_grad(ELU, z), np.ones(3))

    @given(st.floats(min_value=-60, max_value=60), st.floats(min_value=0.1, max_value=5))
    def test_elu_is_continuous_and_bounded_below(self, z, alpha):
        # -alpha is the infimum; float64 saturates to it for very negative z.
        act = Activation("elu", alpha=alpha)
        val = float(activation_eval(act, np.array([z]))[0])
        assert val >= -alpha
        if -20 <= z < 0:
            assert -alpha < val < 0
        if z >= 0:
            assert val == z

    @given(st.floats(min_value=-30, max_value=30))
    def test_elu_grad_matches_value_slope(self, z):
        # For alpha = 1 the derivative is value + 1 on the negative side
        # (cancellation in val + 1 limits the check to absolute precision).
        val = float(activation_eval(ELU, np.array([z]))[0])
        grad = float(activation_grad(ELU, np.array([z]))[0])
        if z <= 0:
            np.testing.assert_allclose(grad, val + 1.0, rtol=1e-9, atol=1e-15)
        else:
            assert grad == 1.0

    def test_identity(self):
        z = np.array([-3.0, 0.0, 2.0])
        np.testing.assert_array_equal(activation_eval(IDENT, z), z)
        np.testing.assert_array_equal(activation_grad(IDENT, z), np.ones(3))

    def test_elu_requires_positive_alpha(self):
        with pytest.raises(ConfigurationError):
            Activation("elu", alpha=0.0)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            Activation("tanh")


class TestSpecValidation:
    def test_width_cap(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(2, (51,), (ELU,))
        NetworkSpec(2, (50,), (ELU,))  # the documented cap itself is fine

    def test_skip_bounds_and_width_match(self):
        with pytest.raises(ConfigurationError):
            small_spec(skips=[(2, 1)])
        with pytest.raises(ConfigurationError):
            small_spec(skips=[(1, 3)])
        with pytest.raises(ConfigurationError):
            NetworkSpec(2, (2, 3), (ELU, ELU), skips=((1, 2),))
        small_spec(skips=[(1, 2)])

    def test_activation_count_must_match(self):
        with pytest.raises(ConfigurationError):
            NetworkSpec(2, (2, 2), (ELU,))

    def test_param_count(self):
        # 2x15 net on 4 inputs: 4*15+15 + 15*15+15 + 15+1 = 331
        spec = NetworkSpec(4, (15, 15), (ELU, ELU))
        assert spec.n_params == 331
        # the serialized layout: weights, then biases, packed back to back
        assert [(e.name, e.shape) for e in spec.layout] == [
            ("W1", (15, 4)), ("W2", (15, 15)), ("W0", (1, 15)),
            ("b1", (15,)), ("b2", (15,)), ("b0", (1,))]
        stops = [0] + [e.span.stop for e in spec.layout]
        assert [e.span.start for e in spec.layout] == stops[:-1]


def reference_specs():
    """ReLU and ELU nets, each with and without skips."""
    specs = []
    for act in (RELU, ELU):
        specs += [
            small_spec(act=act),
            small_spec(act=act, skips=[(1, 2)]),
            NetworkSpec(3, (5, 5, 5), (act, act, act), skips=((1, 3), (2, 3))),
        ]
    return specs


def reference_forward(spec, params, x):
    """One row at a time, written out as W @ y + b with skips added after
    the activation; returns the output, pre-activations and layer outputs
    (ys[0] is the input)."""
    ys, zs = [x], []
    for i, act in enumerate(spec.hidden_activations, start=1):
        z = params.weights[i - 1] @ ys[-1] + params.biases[i - 1]
        y = activation_eval(act, z)
        for s, t in spec.skips:
            if t == i:
                y = y + ys[s]
        zs.append(z)
        ys.append(y)
    return float(params.weights[-1][0] @ ys[-1] + params.biases[-1][0]), zs, ys


def reference_gradient(spec, params, x, y_true):
    """Reverse accumulation over reference_forward, one layer's blocks at a time."""
    y_hat, zs, ys = reference_forward(spec, params, x)
    H = spec.n_hidden
    d_out = 2.0 * (y_hat - y_true)
    gw = [None] * H + [d_out * ys[H][None, :]]
    gb = [None] * H + [np.array([d_out])]
    dy = [np.zeros_like(y) for y in ys]  # dy[i] = dJ/dy_i, complete once layer i is reached
    dy[H] = d_out * params.weights[-1][0]
    for i in range(H, 0, -1):
        dz = dy[i] * activation_grad(spec.hidden_activations[i - 1], zs[i - 1])
        gw[i - 1] = np.outer(dz, ys[i - 1])
        gb[i - 1] = dz
        dy[i - 1] = dy[i - 1] + params.weights[i - 1].T @ dz
        for s, t in spec.skips:
            if t == i:
                dy[s] = dy[s] + dy[i]
    return NetworkParams(gw, gb).to_flat()


class TestForward:
    def test_frozen_identity_network_with_skip(self):
        spec = small_spec(act=IDENT, skips=[(1, 2)])
        params = NetworkParams(
            weights=[
                np.array([[1.0, 0.0], [0.0, 1.0]]),
                np.array([[1.0, 1.0], [1.0, -1.0]]),
                np.array([[2.0, -1.0]]),
            ],
            biases=[np.array([0.5, -0.5]), np.array([0.0, 0.0]), np.array([0.25])],
        )
        # x=[1,2]: y1=[1.5,1.5]; z2=[3,0]; skip adds y1 -> y2=[4.5,1.5]; out=9-1.5+0.25
        y, _, outputs = forward(spec, params, np.array([1.0, 2.0])[None, :])
        np.testing.assert_allclose(y[0], 7.75, rtol=1e-15)
        np.testing.assert_allclose(outputs[1][0], [4.5, 1.5], rtol=1e-15)

    def test_frozen_elu_network(self):
        spec = NetworkSpec(1, (1,), (ELU,))
        params = NetworkParams(
            weights=[np.array([[2.0]]), np.array([[3.0]])],
            biases=[np.array([-1.0]), np.array([0.5])],
        )
        # z = 2*0.25 - 1 = -0.5; y1 = exp(-0.5)-1; out = 3*y1 + 0.5
        y, _, _ = forward(spec, params, np.array([0.25])[None, :])
        np.testing.assert_allclose(y[0], -0.68040802086209974, rtol=1e-15)

    def test_skip_applies_after_activation(self):
        # With ReLU clamping layer 2 to zero, the skip must still pass y1
        # through untouched: y2 = relu(z2) + y1.
        spec = small_spec(act=RELU, skips=[(1, 2)])
        params = NetworkParams(
            weights=[np.eye(2), -10.0 * np.eye(2), np.array([[1.0, 1.0]])],
            biases=[np.zeros(2), np.zeros(2), np.array([0.0])],
        )
        y, _, outputs = forward(spec, params, np.array([1.0, 2.0])[None, :])
        np.testing.assert_array_equal(outputs[1][0], outputs[0][0])
        np.testing.assert_allclose(y[0], 3.0, rtol=1e-15)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(11)
        for spec in reference_specs():
            params = init_params(spec, rng)
            X = rng.normal(size=(40, spec.input_dim))
            batch = predict_batch(spec, params, X)
            single = np.array([reference_forward(spec, params, x)[0] for x in X])
            np.testing.assert_allclose(batch, single, rtol=1e-12, atol=1e-14)

    def test_shape_mismatch_raises(self):
        spec = small_spec()
        params = init_params(spec, np.random.default_rng(0))
        with pytest.raises(ConfigurationError):
            forward(spec, params, np.array([1.0, 2.0, 3.0])[None, :])
        bad = NetworkParams(
            weights=[w.copy() for w in params.weights],
            biases=[b.copy() for b in params.biases],
        )
        bad.weights[1] = np.zeros((3, 3))
        with pytest.raises(ConfigurationError):
            forward(spec, bad, np.array([1.0, 2.0])[None, :])


class TestLoss:
    def test_zero_at_exact_fit_and_nonnegative(self):
        spec = NetworkSpec(1, (1,), (IDENT,))
        params = NetworkParams(
            weights=[np.array([[1.0]]), np.array([[1.0]])],
            biases=[np.array([0.0]), np.array([0.0])],
        )
        X = np.linspace(-1, 1, 9)[:, None]
        data = Dataset(X, X[:, 0])
        assert loss_mse(spec, params, data) == 0.0
        shifted = Dataset(X, X[:, 0] + 2.0)
        np.testing.assert_allclose(loss_mse(spec, params, shifted), 4.0, rtol=1e-15)


def _fd_gradient(spec, params, x, y_true, step=1e-6):
    """Central finite differences on the flat vector, step scaled by magnitude."""
    flat = params.to_flat()
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        h = step * max(1.0, abs(flat[j]))
        bumped = flat.copy()
        bumped[j] = flat[j] + h
        yp = forward(spec, NetworkParams.from_flat(spec, bumped), x[None, :])[0][0]
        bumped[j] = flat[j] - h
        ym = forward(spec, NetworkParams.from_flat(spec, bumped), x[None, :])[0][0]
        grad[j] = ((yp - y_true) ** 2 - (ym - y_true) ** 2) / (2 * h)
    return grad


def _relu_safe(spec, params, x, margin=1e-4):
    """True when no ReLU pre-activation sits close enough to its kink to
    poison a finite-difference probe."""
    _, pre_activations, _ = forward(spec, params, x[None, :])
    for i, act in enumerate(spec.hidden_activations):
        if act.kind == "relu" and np.min(np.abs(pre_activations[i])) < margin:
            return False
    return True


def gradient_check_cases(n_cases=24):
    """Deterministic stream of (spec, params, x, y) covering plain and skip
    architectures with both ReLU and ELU."""
    cases = []
    seed = 0
    while len(cases) < n_cases:
        rng = np.random.default_rng(1000 + seed)
        seed += 1
        kind = len(cases) % 4
        if kind == 0:
            spec = NetworkSpec(3, (8, 8), (ELU, ELU))
        elif kind == 1:
            spec = NetworkSpec(3, (8, 8), (RELU, RELU))
        elif kind == 2:
            spec = NetworkSpec(2, (6, 6, 6), (ELU, ELU, ELU), skips=((1, 3),))
        else:
            spec = NetworkSpec(2, (5, 5, 5), (RELU, ELU, RELU), skips=((1, 2), (2, 3)))
        params = init_params(spec, rng)
        x = rng.uniform(-1.5, 1.5, size=spec.input_dim)
        y = float(rng.normal())
        if not _relu_safe(spec, params, x):
            continue
        cases.append((spec, params, x, y))
    return cases


class TestGradients:
    def test_against_finite_differences(self):
        for spec, params, x, y in gradient_check_cases():
            exact = grad_sample_flat(spec, params, x, y)
            approx = _fd_gradient(spec, params, x, y)
            denom = np.maximum(np.abs(approx), 1e-8)
            rel = np.abs(exact - approx) / denom
            assert rel.max() <= 1e-5, f"max rel err {rel.max():.3e}"

    def test_matches_per_row_reference(self):
        rng = np.random.default_rng(5)
        for spec in reference_specs():
            params = init_params(spec, rng)
            for _ in range(10):
                x = rng.normal(size=spec.input_dim)
                y = float(rng.normal())
                np.testing.assert_allclose(grad_sample_flat(spec, params, x, y),
                                           reference_gradient(spec, params, x, y),
                                           rtol=1e-12, atol=1e-14)

    def test_zero_residual_means_zero_gradient(self):
        spec = small_spec()
        params = init_params(spec, np.random.default_rng(2))
        x = np.array([0.4, -0.2])
        y = forward(spec, params, x[None, :])[0][0]
        g = grad_sample_flat(spec, params, x, y)
        np.testing.assert_array_equal(g, np.zeros(spec.n_params))


class TestInit:
    def test_bounds_biases_and_determinism(self):
        spec = NetworkSpec(4, (15, 15), (ELU, ELU))
        a = init_params(spec, np.random.default_rng(7))
        b = init_params(spec, np.random.default_rng(7))
        c = init_params(spec, np.random.default_rng(8))
        for pa, pb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(pa, pb)
        assert any(not np.array_equal(pa, pc) for pa, pc in zip(a.weights, c.weights))
        for entry, w in zip(spec.layout, a.weights):
            rows, cols = entry.shape
            bound = np.sqrt(6.0 / (rows + cols))
            assert np.all(np.abs(w) <= bound)
        for bias in a.biases:
            np.testing.assert_array_equal(bias, np.zeros_like(bias))


class TestSerialization:
    def test_round_trip_is_bit_identical(self):
        spec = small_spec(skips=[(1, 2)])
        params = init_params(spec, np.random.default_rng(3))
        blob = params_to_bytes(spec, params)
        loaded = params_from_bytes(spec, blob)
        for a, b in zip(params.weights + params.biases, loaded.weights + loaded.biases):
            np.testing.assert_array_equal(a, b)

    def test_mismatched_spec_rejected(self):
        spec = small_spec()
        other = NetworkSpec(2, (3, 3), (ELU, ELU))
        blob = params_to_bytes(spec, init_params(spec, np.random.default_rng(0)))
        with pytest.raises(ConfigurationError):
            params_from_bytes(other, blob)
