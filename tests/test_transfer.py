import logging

import numpy as np
import pytest

from bifid.beam import HIGHFI, LOWFI, default_distribution, generate_dataset
from bifid.datasets import Dataset, Standardizer
from bifid.errors import ConfigurationError
from bifid.gp import RBF, SumKernel, WhiteNoise, gp_predict
from bifid.network import Activation, NetworkSpec, init_params, loss_mse, predict_batch
from bifid.optimizers import AdamConfig, train
from bifid.seeding import DATA, GP_RESTARTS, INIT, SGD_HF, SGD_LF, stream
from bifid.transfer import (
    StackedModel,
    TransferConfig,
    bftl1,
    bftl2,
    bfwl,
    default_teacher_kernel,
    distillation_weights,
    make_soft_dataset,
    make_teacher,
    train_lowfi,
)

ELU = Activation("elu")


def small_spec(d: int = 2) -> NetworkSpec:
    return NetworkSpec(input_dim=d, hidden_widths=(8, 8), hidden_activations=(ELU, ELU))


def toy_data(seed: int, n: int = 60, d: int = 2) -> Dataset:
    rng = stream(seed, DATA)
    X = rng.uniform(-1.0, 1.0, size=(n, d))
    y = np.sin(X[:, 0]) + 0.5 * X[:, 1] ** 2
    return Dataset(X, y)


def toy_hf(data: Dataset) -> Dataset:
    # smooth warp of the toy target: same inputs, shifted labels
    return Dataset(data.inputs, 1.1 * data.outputs + 0.1 * np.cos(2.0 * data.inputs[:, 0]))


class TestTrainLowfi:
    def test_zero_steps_returns_init(self):
        spec = small_spec()
        cfg = AdamConfig(eta=1e-3, max_steps=0)
        params, history = train_lowfi(spec, toy_data(1), cfg, stream(5, INIT), stream(5, SGD_LF))
        expected = init_params(spec, stream(5, INIT))
        for got, want in zip(params.weights + params.biases, expected.weights + expected.biases):
            np.testing.assert_array_equal(got, want)
        assert len(history) == 1 and history[0][0] == 0

    def test_loss_decreases_on_beam_benchmark(self):
        data = generate_dataset(LOWFI, default_distribution(), 250, stream(11, DATA))
        x_std = Standardizer.fit(data.inputs)
        y_std = Standardizer.fit(data.outputs)
        scaled = Dataset(x_std.transform(data.inputs), y_std.transform(data.outputs))
        spec = NetworkSpec(input_dim=4, hidden_widths=(15, 15), hidden_activations=(ELU, ELU))
        cfg = AdamConfig(eta=1e-3, max_steps=2000)
        _, history = train_lowfi(spec, scaled, cfg, stream(11, INIT), stream(11, SGD_LF))
        assert history[-1][1] < history[0][1]
        assert history[-1][1] < 0.05  # standardized MSE after 2k steps

    def test_deterministic(self):
        spec = small_spec()
        cfg = AdamConfig(eta=1e-3, max_steps=300)
        a, _ = train_lowfi(spec, toy_data(2), cfg, stream(6, INIT), stream(6, SGD_LF))
        b, _ = train_lowfi(spec, toy_data(2), cfg, stream(6, INIT), stream(6, SGD_LF))
        np.testing.assert_array_equal(a.to_flat(), b.to_flat())


class TestBftl1:
    def setup_method(self):
        self.spec = small_spec()
        self.lf_params, _ = train_lowfi(
            self.spec, toy_data(3), AdamConfig(eta=1e-3, max_steps=400), stream(7, INIT),
            stream(7, SGD_LF),
        )
        self.data_h = toy_hf(toy_data(4, n=12))

    def test_frozen_layers_bit_identical(self):
        cfg = AdamConfig(eta=1e-3, max_steps=200)
        adapted, _ = bftl1(self.spec, self.lf_params, self.data_h, cfg, 1, stream(8, SGD_HF))
        np.testing.assert_array_equal(adapted.weights[0], self.lf_params.weights[0])
        np.testing.assert_array_equal(adapted.biases[0], self.lf_params.biases[0])
        assert not np.array_equal(adapted.weights[1], self.lf_params.weights[1])
        assert not np.array_equal(adapted.weights[2], self.lf_params.weights[2])  # output W

    def test_all_layers_equals_plain_training(self):
        cfg = AdamConfig(eta=1e-3, max_steps=200)
        adapted, _ = bftl1(self.spec, self.lf_params, self.data_h, cfg, 2, stream(9, SGD_HF))
        plain, _ = train(self.spec, self.lf_params, self.data_h, cfg, stream(9, SGD_HF))
        np.testing.assert_array_equal(adapted.to_flat(), plain.to_flat())

    def test_zero_steps_is_identity(self):
        cfg = AdamConfig(eta=1e-3, max_steps=0)
        adapted, _ = bftl1(self.spec, self.lf_params, self.data_h, cfg, 1, stream(10, SGD_HF))
        np.testing.assert_array_equal(adapted.to_flat(), self.lf_params.to_flat())

    def test_rejects_bad_layer_count(self):
        cfg = AdamConfig(eta=1e-3, max_steps=10)
        with pytest.raises(ConfigurationError):
            bftl1(self.spec, self.lf_params, self.data_h, cfg, 5, stream(10, SGD_HF))


class TestBftl2:
    def setup_method(self):
        self.base_spec = small_spec()
        self.lf_params, _ = train_lowfi(
            self.base_spec, toy_data(12), AdamConfig(eta=1e-3, max_steps=400), stream(13, INIT),
            stream(13, SGD_LF),
        )
        self.head_spec = NetworkSpec(input_dim=1, hidden_widths=(20,), hidden_activations=(ELU,))
        self.data_h = toy_hf(toy_data(14, n=15))

    def test_base_untouched_and_copied(self):
        before = self.lf_params.to_flat()
        cfg = AdamConfig(eta=1e-3, max_steps=150)
        stacked, _ = bftl2(
            self.base_spec, self.lf_params, self.head_spec, self.data_h, cfg,
            stream(15, INIT), stream(15, SGD_HF),
        )
        np.testing.assert_array_equal(self.lf_params.to_flat(), before)
        np.testing.assert_array_equal(stacked.base_params.to_flat(), before)
        assert stacked.base_params is not self.lf_params

    def test_stacked_mse_equals_head_training_mse(self):
        # when evaluated on the very data the head was trained on, the stack
        # reproduces the head's own training error
        cfg = AdamConfig(eta=1e-3, max_steps=200)
        stacked, history = bftl2(
            self.base_spec, self.lf_params, self.head_spec, self.data_h, cfg,
            stream(17, INIT), stream(17, SGD_HF),
        )
        base_out = predict_batch(stacked.base_spec, stacked.base_params, self.data_h.inputs)
        preds = predict_batch(stacked.head_spec, stacked.head_params, base_out[:, None])
        mse = float(np.mean((preds - self.data_h.outputs) ** 2))
        np.testing.assert_allclose(mse, history[-1][1], rtol=1e-12)

    def test_rejects_wide_head_input(self):
        bad_head = NetworkSpec(input_dim=2, hidden_widths=(4,), hidden_activations=(ELU,))
        with pytest.raises(ConfigurationError):
            bftl2(
                self.base_spec, self.lf_params, bad_head, self.data_h,
                AdamConfig(eta=1e-3, max_steps=10), stream(18, INIT), stream(18, SGD_HF),
            )
        with pytest.raises(ConfigurationError):
            StackedModel(self.base_spec, self.lf_params, bad_head, init_params(bad_head, stream(19, INIT)))


class TestTeacherAndSoftData:
    def test_teacher_interpolates_hf_points(self):
        rng = stream(20, DATA)
        X = rng.uniform(-1.0, 1.0, size=(7, 2))
        y = np.sin(X[:, 0]) - X[:, 1]
        data = Dataset(X, y)
        kernel = SumKernel((
            RBF(amplitude=1.5, length=0.8),
            WhiteNoise(amplitude=1e-4, amplitude_bounds=(1e-5, 1e-3)),
        ))
        teacher = make_teacher(data, kernel, None, stream(20, GP_RESTARTS))
        for i in range(len(data)):
            mean, var = gp_predict(teacher, X[i])
            np.testing.assert_allclose(mean, y[i], atol=1e-4)
            assert var < 1e-4

    def test_default_kernel_fits_beam_hf_data(self):
        data = generate_dataset(HIGHFI, default_distribution(), 20, stream(21, DATA))
        x_std = Standardizer.fit(data.inputs)
        y_std = Standardizer.fit(data.outputs)
        teacher = make_teacher(
            Dataset(x_std.transform(data.inputs), y_std.transform(data.outputs)),
            default_teacher_kernel(), None, stream(21, GP_RESTARTS),
        )
        noise_amp = teacher.kernel.parts[1].amplitude
        assert np.sqrt(1e-5) <= noise_amp <= np.sqrt(1e-3)
        # near-interpolation of its own training set in standardized units
        preds = np.array([gp_predict(teacher, row)[0] for row in teacher.X])
        assert float(np.mean((preds - teacher.y) ** 2)) < 1e-2

    def test_soft_dataset_matches_fresh_queries(self):
        rng = stream(22, DATA)
        X_h = rng.uniform(-1.0, 1.0, size=(6, 2))
        y_h = X_h[:, 0] ** 2 + X_h[:, 1]
        teacher = make_teacher(
            Dataset(X_h, y_h),
            SumKernel((RBF(), WhiteNoise(amplitude=1e-3))),
            None, stream(22, GP_RESTARTS),
        )
        X_l = rng.uniform(-1.0, 1.0, size=(9, 2))
        soft = make_soft_dataset(teacher, X_l, X_h)
        assert len(soft) == 15
        np.testing.assert_array_equal(soft.inputs[:9], X_l)
        np.testing.assert_array_equal(soft.inputs[9:], X_h)
        for i in range(len(soft)):
            mean, var = gp_predict(teacher, soft.inputs[i])
            assert soft.means[i] == mean and soft.variances[i] == var

    def test_soft_dataset_empty_lowfi_block(self):
        rng = stream(23, DATA)
        X_h = rng.uniform(-1.0, 1.0, size=(5, 3))
        teacher = make_teacher(
            Dataset(X_h, X_h.sum(axis=1)),
            SumKernel((RBF(), WhiteNoise(amplitude=1e-3))),
            None, stream(23, GP_RESTARTS),
        )
        soft = make_soft_dataset(teacher, np.empty((0, 3)), X_h)
        assert len(soft) == 5
        assert np.all(soft.variances < 1e-3)

    def test_soft_dataset_rejects_column_mismatch(self):
        rng = stream(24, DATA)
        X_h = rng.uniform(size=(4, 2))
        teacher = make_teacher(
            Dataset(X_h, X_h.sum(axis=1)),
            SumKernel((RBF(), WhiteNoise(amplitude=1e-3))),
            None, stream(24, GP_RESTARTS),
        )
        with pytest.raises(ConfigurationError):
            make_soft_dataset(teacher, rng.uniform(size=(3, 3)), X_h)


class TestDistillationWeights:
    def test_zero_beta_gives_unit_weights(self):
        var = np.array([0.0, 0.3, 2.0, 17.0])
        np.testing.assert_array_equal(distillation_weights(var, 0.0), np.ones(4))

    def test_known_value(self):
        # beta 0.25 at variance 2 -> exp(-1/2)
        w = distillation_weights(np.array([2.0]), 0.25)
        np.testing.assert_allclose(w[0], 0.60653065971263342, rtol=1e-15)

    def test_zero_variance_gives_unit_weight(self):
        for beta in (-0.25, 0.0, 0.7, 100.0):
            assert distillation_weights(np.array([0.0]), beta)[0] == 1.0

    def test_bounds_and_monotonicity_for_nonnegative_beta(self):
        var = np.linspace(0.0, 5.0, 50)
        w = distillation_weights(var, 0.4)
        assert np.all(w > 0.0) and np.all(w <= 1.0)
        assert np.all(np.diff(w) < 0.0)

    def test_negative_beta_amplifies_without_warning(self, caplog):
        # the default beta is negative: its weighting is intended, so nothing is logged
        with caplog.at_level(logging.DEBUG):
            w = distillation_weights(np.array([0.5, 1.0]), -0.25)
        assert np.all(w > 1.0)
        assert not caplog.records


class TestBfwl:
    def setup_method(self):
        self.spec = small_spec()
        self.data_l = toy_data(30, n=40)
        self.data_h = toy_hf(toy_data(31, n=10))
        self.student, _ = train_lowfi(
            self.spec, self.data_l, AdamConfig(eta=1e-3, max_steps=400), stream(32, INIT),
            stream(32, SGD_LF),
        )
        self.kernel = SumKernel((
            RBF(amplitude=1.0, length=1.0),
            WhiteNoise(amplitude=1e-2, amplitude_bounds=(np.sqrt(1e-5), np.sqrt(1e-3))),
        ))

    def config(self, beta: float, steps: int = 200) -> TransferConfig:
        return TransferConfig(
            hf_train=AdamConfig(eta=1e-3, max_steps=steps),
            beta=beta,
            teacher_kernel=self.kernel,
        )

    def test_zero_beta_matches_unweighted_training(self):
        cfg = self.config(beta=0.0)
        got, _ = bfwl(
            self.spec, self.student, self.data_l, self.data_h, cfg,
            stream(33, GP_RESTARTS), stream(33, SGD_HF),
        )
        teacher = make_teacher(self.data_h, self.kernel, None, stream(33, GP_RESTARTS))
        soft = make_soft_dataset(teacher, self.data_l.inputs, self.data_h.inputs)
        want, _ = train(
            self.spec, self.student, soft.as_dataset(), cfg.hf_train, stream(33, SGD_HF)
        )
        np.testing.assert_array_equal(got.to_flat(), want.to_flat())

    def test_zero_steps_returns_student(self):
        cfg = self.config(beta=0.25, steps=0)
        got, _ = bfwl(
            self.spec, self.student, self.data_l, self.data_h, cfg,
            stream(34, GP_RESTARTS), stream(34, SGD_HF),
        )
        np.testing.assert_array_equal(got.to_flat(), self.student.to_flat())

    def test_deterministic(self):
        cfg = self.config(beta=0.25)
        runs = [
            bfwl(
                self.spec, self.student, self.data_l, self.data_h, cfg,
                stream(35, GP_RESTARTS), stream(35, SGD_HF),
            )[0].to_flat()
            for _ in range(2)
        ]
        np.testing.assert_array_equal(runs[0], runs[1])

    def test_soft_loss_decreases(self):
        cfg = self.config(beta=0.25, steps=600)
        _, history = bfwl(
            self.spec, self.student, self.data_l, self.data_h, cfg,
            stream(36, GP_RESTARTS), stream(36, SGD_HF),
        )
        assert history[-1][1] < history[0][1]
