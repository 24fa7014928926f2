"""GP regression checked against dense-inverse oracles and closed forms."""

import math
from dataclasses import replace

import numpy as np
import pytest

from bifid.errors import ConfigurationError, IllConditionedKernelError
from bifid.gp import (
    RBF,
    GPModel,
    Matern,
    RationalQuadratic,
    SumKernel,
    WhiteNoise,
    gp_fit,
    gp_nll,
    gp_optimize,
    gp_predict,
    gp_predict_batch,
    kernel_from_dict,
    kernel_to_dict,
    stabilized_cholesky,
)


def spread_points(rng, n, d, min_sep=0.35):
    """Rejection-sample points with a minimum pairwise separation so the
    Gram matrices stay comfortably conditioned."""
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-2.0, 2.0, size=d)
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    return np.asarray(pts)


def instance_kernels():
    return [
        RBF(amplitude=1.3, length=0.9),
        RationalQuadratic(amplitude=0.8, shape=1.7, length=1.1),
        Matern(amplitude=1.1, length=1.4, nu=2.5),
        Matern(amplitude=0.9, length=1.0, nu=1.5),
        Matern(amplitude=1.2, length=0.8, nu=0.5),
        SumKernel((RBF(amplitude=1.0, length=1.2), WhiteNoise(amplitude=0.3))),
        WhiteNoise(amplitude=0.7),
    ]


class TestKernelValues:
    def test_rbf_frozen(self):
        k = RBF(amplitude=2.0, length=0.5)
        np.testing.assert_allclose(k.point([0.0], [0.5]), 2.4261226388505337, rtol=1e-15)
        np.testing.assert_allclose(k.point([0.3], [0.3]), 4.0, rtol=1e-15)

    def test_rational_quadratic_frozen(self):
        k = RationalQuadratic(amplitude=1.0, shape=2.0, length=1.0)
        x, z = np.zeros(2), np.array([1.0, 1.0])  # squared distance 2
        np.testing.assert_allclose(k.point(x, z), 0.4444444444444444, rtol=1e-15)

    def test_rational_quadratic_approaches_rbf_for_large_shape(self):
        rq = RationalQuadratic(amplitude=1.0, shape=1e7, length=0.8)
        rbf = RBF(amplitude=1.0, length=0.8)
        np.testing.assert_allclose(rq.point([0.0], [0.7]), rbf.point([0.0], [0.7]), rtol=1e-6)

    def test_matern_frozen(self):
        np.testing.assert_allclose(
            Matern(length=2.0, nu=0.5).point([0.0], [1.0]), 0.6065306597126334, rtol=1e-15
        )
        np.testing.assert_allclose(
            Matern(length=1.0, nu=1.5).point([0.0], [1.0]), 0.4833577245965077, rtol=1e-14
        )
        np.testing.assert_allclose(
            Matern(length=1.0, nu=2.5).point([0.0], [1.0]), 0.5239941088318203, rtol=1e-14
        )

    def test_white_noise_semantics(self):
        k = WhiteNoise(amplitude=0.5)
        X = np.array([[0.0], [1.0]])
        np.testing.assert_array_equal(k.gram(X), 0.25 * np.eye(2))
        np.testing.assert_array_equal(k.cross(X, np.array([[0.0]])), np.zeros((2, 1)))
        assert k.point([0.0], [0.0]) == 0.25
        assert k.point([0.0], [1e-12]) == 0.0

    def test_sum_is_elementwise_sum(self):
        a, b = RBF(amplitude=1.0), Matern(amplitude=0.5, nu=1.5)
        X = spread_points(np.random.default_rng(0), 4, 2)
        np.testing.assert_allclose(
            SumKernel((a, b)).gram(X), a.gram(X) + b.gram(X), rtol=1e-15
        )

    def test_symmetry_and_psd(self):
        rng = np.random.default_rng(3)
        for kernel in instance_kernels():
            X = spread_points(rng, 8, 3)
            K = kernel.gram(X)
            np.testing.assert_allclose(K, K.T, rtol=0, atol=1e-14)
            eigs = np.linalg.eigvalsh(K)
            assert eigs.min() >= -1e-10

    def test_bounds_validated(self):
        with pytest.raises(ConfigurationError):
            RBF(length=2.0, length_bounds=(0.1, 1.0))
        with pytest.raises(ConfigurationError):
            RBF(amplitude_bounds=(0.0, 1.0))
        with pytest.raises(ConfigurationError):
            Matern(nu=2.0)

    def test_dict_round_trip(self):
        kernel = SumKernel(
            (
                RBF(amplitude=1.5, length=0.7, length_bounds=(0.1, 10.0)),
                WhiteNoise(amplitude=0.1, amplitude_bounds=(1e-4, 1.0)),
            )
        )
        assert kernel_from_dict(kernel_to_dict(kernel)) == kernel
        with pytest.raises(ConfigurationError):
            kernel_from_dict({"kind": "rbf", "amplitud": 1.0})
        with pytest.raises(ConfigurationError):
            kernel_from_dict({"kind": "laplace"})


def searched(kernel):
    """The kernel with every hyperparameter free in a box around its value."""
    if isinstance(kernel, SumKernel):
        return SumKernel(tuple(searched(p) for p in kernel.parts))
    boxes = {f"{name}_bounds": (getattr(kernel, name) / 10, getattr(kernel, name) * 10)
             for name in kernel._hyper_names}
    return replace(kernel, **boxes)


def central_difference(f, x: np.ndarray, h: float = 1e-5) -> np.ndarray:
    out = np.empty(x.size)
    for i in range(x.size):
        step = np.zeros(x.size)
        step[i] = h
        out[i] = (f(x + step) - f(x - step)) / (2 * h)
    return out


class TestNllGradient:
    @pytest.mark.parametrize("kernel", instance_kernels(), ids=lambda k: type(k).__name__)
    def test_matches_central_differences(self, kernel):
        # every kernel kind the config accepts, at a well-conditioned point:
        # derivatives in the log of each free hyperparameter, then log(noise)
        rng = np.random.default_rng(21)
        X = spread_points(rng, 9, 2)
        y = np.sin(X[:, 0]) + 0.3 * X[:, 1]
        kernel = searched(kernel)
        names = [name for name, _, _ in kernel.free_params()]
        values = np.log([value for _, value, _ in kernel.free_params()] + [1e-2])

        def nll(log_theta):
            theta = np.exp(log_theta)
            return gp_nll(X, y, kernel.with_values(dict(zip(names, theta))), theta[-1])

        value, grad = gp_nll(X, y, kernel, 1e-2, grad=True)
        assert value == nll(values)
        assert grad.shape == (len(names) + 1,)
        np.testing.assert_allclose(grad, central_difference(nll, values), rtol=1e-6, atol=1e-8)

    def test_pinned_hyperparameters_have_no_entry(self):
        X = spread_points(np.random.default_rng(2), 5, 2)
        y = np.cos(X[:, 0])
        kernel = RBF(amplitude=1.1, length=0.9, length_bounds=(0.1, 10.0),
                     amplitude_bounds=(1.1, 1.1))
        _, grad = gp_nll(X, y, kernel, 0.0, grad=True)
        assert grad.shape == (2,)
        assert grad[-1] == 0.0  # d/dlog(noise) at zero noise


def dense_oracle(X, y, kernel, noise_var, jitter, x):
    """Posterior mean/variance via explicit inverse, no Cholesky anywhere."""
    n = X.shape[0]
    M = kernel.gram(X) + (noise_var + jitter) * np.eye(n)
    Minv = np.linalg.inv(M)
    k = kernel.cross(X, x[None, :])[:, 0]
    mean = k @ Minv @ y
    var = kernel.point(x, x) - k @ Minv @ k
    return mean, var


def dense_nll(X, y, kernel, noise_var, jitter):
    n = X.shape[0]
    M = kernel.gram(X) + (noise_var + jitter) * np.eye(n)
    Minv = np.linalg.inv(M)
    return 0.5 * y @ Minv @ y + 0.5 * math.log(np.linalg.det(M)) + 0.5 * n * math.log(2 * math.pi)


class TestFitPredict:
    def test_single_point_exact(self):
        model = gp_fit(np.array([[0.0]]), np.array([2.0]), RBF(), noise_var=0.0)
        np.testing.assert_array_equal(model.dual, [2.0])
        mean, var = gp_predict(model, np.array([0.0]))
        np.testing.assert_allclose(mean, 2.0, rtol=1e-12)
        assert var <= 1e-12

    def test_dense_oracle_agreement(self):
        rng = np.random.default_rng(21)
        kernels = instance_kernels()
        for trial in range(40):
            kernel = kernels[trial % len(kernels)]
            n = int(rng.integers(1, 6))
            X = spread_points(rng, n, 2)
            y = rng.normal(size=n)
            noise = float(rng.choice([0.0, 1e-4, 1e-2]))
            model = gp_fit(X, y, kernel, noise)
            x_query = rng.uniform(-2.5, 2.5, size=2)
            mean, var = gp_predict(model, x_query)
            mean_o, var_o = dense_oracle(X, y, kernel, noise, model.jitter, x_query)
            np.testing.assert_allclose(mean, mean_o, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(var, max(var_o, 0.0), rtol=1e-9, atol=1e-12)
            nll = gp_nll(X, y, kernel, noise)
            np.testing.assert_allclose(
                nll, dense_nll(X, y, kernel, noise, model.jitter), rtol=1e-9
            )

    def test_noiseless_interpolation(self):
        rng = np.random.default_rng(5)
        for kernel in instance_kernels()[:5]:  # interpolating kernels only
            X = spread_points(rng, 5, 2)
            y = rng.normal(size=5)
            model = gp_fit(X, y, kernel, noise_var=0.0)
            for xi, yi in zip(X, y):
                mean, var = gp_predict(model, xi)
                assert abs(mean - yi) <= 1e-6
                assert var <= 1e-6

    def test_far_field_reverts_to_prior(self):
        kernel = RBF(amplitude=1.4, length=0.6)
        X = np.array([[0.0, 0.0], [0.5, 0.1]])
        model = gp_fit(X, np.array([1.0, -1.0]), kernel, noise_var=1e-6)
        far = np.array([50.0, -40.0])
        mean, var = gp_predict(model, far)
        assert abs(mean) <= 1e-6
        np.testing.assert_allclose(var, kernel.point(far, far), rtol=0, atol=1e-6)

    def test_posterior_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(11)
        kernel = SumKernel((Matern(amplitude=1.2, length=0.9, nu=2.5),
                            WhiteNoise(amplitude=0.2)))
        X = spread_points(rng, 6, 2)
        model = gp_fit(X, rng.normal(size=6), kernel, noise_var=1e-6)
        queries = rng.uniform(-3, 3, size=(50, 2))
        _, variances = gp_predict_batch(model, queries)
        priors = kernel.diag(queries)
        assert np.all(variances <= priors + 1e-10)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(7)
        X = spread_points(rng, 5, 2)
        model = gp_fit(X, rng.normal(size=5), RBF(length=0.8), noise_var=1e-4)
        queries = rng.uniform(-2, 2, size=(9, 2))
        means, variances = gp_predict_batch(model, queries)
        for i, q in enumerate(queries):
            m, v = gp_predict(model, q)
            np.testing.assert_allclose(means[i], m, rtol=1e-12, atol=1e-14)
            np.testing.assert_allclose(variances[i], v, rtol=1e-10, atol=1e-12)

    def test_white_noise_equals_extra_observation_noise(self):
        rng = np.random.default_rng(13)
        X = spread_points(rng, 5, 2)
        y = rng.normal(size=5)
        alpha = 0.3
        with_wn = gp_fit(X, y, SumKernel((RBF(length=0.9), WhiteNoise(amplitude=alpha))), 0.0)
        with_noise = gp_fit(X, y, RBF(length=0.9), noise_var=alpha**2)
        q = rng.uniform(-2, 2, size=2)
        m1, v1 = gp_predict(with_wn, q)
        m2, v2 = gp_predict(with_noise, q)
        np.testing.assert_allclose(m1, m2, rtol=1e-12)
        # the white-noise kernel adds alpha^2 to the prior variance at the query
        np.testing.assert_allclose(v1, v2 + alpha**2, rtol=1e-12)

    def test_negative_variance_clamped_and_tallied(self):
        # Hand-built model with an understated Cholesky factor forces a
        # negative raw variance.
        model = GPModel(
            X=np.array([[0.0]]), y=np.array([0.0]), kernel=RBF(), noise_var=0.0,
            L=np.array([[0.5]]), dual=np.array([0.0]), jitter=0.0,
        )
        _, var = gp_predict(model, np.array([0.0]))
        assert var == 0.0
        assert model.clamp_count == 1


class TestStabilizedCholesky:
    def test_no_jitter_when_well_conditioned(self):
        K = np.array([[2.0, 0.1], [0.1, 2.0]])
        L, jitter = stabilized_cholesky(K)
        assert jitter == 0.0
        np.testing.assert_allclose(L @ L.T, K, rtol=1e-14)

    def test_jitter_rescues_duplicate_points(self):
        X = np.array([[0.0, 0.0], [0.0, 0.0], [1.0, 1.0]])
        model = gp_fit(X, np.array([1.0, 1.0, 0.0]), RBF(), noise_var=0.0)
        assert model.jitter > 0.0
        K = model.kernel.gram(X) + model.jitter * np.eye(3)
        np.testing.assert_allclose(model.L @ model.L.T, K, rtol=1e-10, atol=1e-12)

    def test_indefinite_matrix_fails_with_final_jitter(self):
        K = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(IllConditionedKernelError) as err:
            stabilized_cholesky(K)
        assert err.value.final_jitter == pytest.approx(1e-6)
        assert "1.0" in str(err.value) or "e-06" in str(err.value)


class TestOptimize:
    def test_pinned_bounds_return_fit_at_those_values(self):
        rng = np.random.default_rng(2)
        X = spread_points(rng, 5, 2)
        y = rng.normal(size=5)
        template = RBF(
            amplitude=1.3, length=0.8,
            amplitude_bounds=(1.3, 1.3), length_bounds=(0.8, 0.8),
        )
        model = gp_optimize(X, y, template, noise_bounds=(1e-4, 1e-4), rng=rng)
        assert model.kernel.amplitude == 1.3
        assert model.kernel.length == 0.8
        assert model.noise_var == 1e-4
        direct = gp_fit(X, y, template, 1e-4)
        np.testing.assert_array_equal(model.dual, direct.dual)

    def test_never_worse_than_seeded_candidate(self):
        rng = np.random.default_rng(8)
        true_kernel = RBF(amplitude=1.0, length=0.7)
        X = spread_points(rng, 12, 2, min_sep=0.25)
        K = true_kernel.gram(X) + 1e-4 * np.eye(12)
        y = np.linalg.cholesky(K) @ rng.normal(size=12)
        template = RBF(
            amplitude=1.0, length=0.7,
            amplitude_bounds=(0.05, 20.0), length_bounds=(0.05, 20.0),
        )
        model = gp_optimize(X, y, template, noise_bounds=(1e-5, 1e-1), rng=rng)
        seeded_nll = gp_nll(X, y, true_kernel, 1e-4)
        assert model.nll <= seeded_nll + 1e-9

    def test_deterministic_given_seed(self):
        rng_data = np.random.default_rng(31)
        X = spread_points(rng_data, 8, 2)
        y = np.sin(X[:, 0]) + 0.1 * rng_data.normal(size=8)
        template = RBF(amplitude_bounds=(0.1, 10.0), length_bounds=(0.1, 10.0))
        a = gp_optimize(X, y, template, noise_bounds=(1e-6, 1e-1),
                        rng=np.random.default_rng(5))
        b = gp_optimize(X, y, template, noise_bounds=(1e-6, 1e-1),
                        rng=np.random.default_rng(5))
        assert a.kernel == b.kernel
        assert a.noise_var == b.noise_var

    def test_improves_on_poor_start(self):
        rng = np.random.default_rng(17)
        X = spread_points(rng, 10, 1, min_sep=0.2)
        y = np.sin(2.0 * X[:, 0])
        template = RBF(
            amplitude=5.0, length=5.0,
            amplitude_bounds=(0.01, 50.0), length_bounds=(0.01, 50.0),
        )
        model = gp_optimize(X, y, template, noise_bounds=(1e-6, 1.0), rng=rng)
        assert model.nll < gp_nll(X, y, template, 1e-3)
