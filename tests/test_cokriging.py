"""Co-kriging checked against dense joint-covariance oracles and decoupling."""

import math

import numpy as np
import pytest

from bifid import cokriging
from bifid.cokriging import ck_fit, ck_nll, ck_optimize, ck_predict_batch
from bifid.errors import ConfigurationError
from bifid.gp import RBF, Matern, gp_fit, gp_predict


def spread_points(rng, n, d, min_sep=0.3):
    pts = []
    while len(pts) < n:
        cand = rng.uniform(-2.0, 2.0, size=d)
        if all(np.linalg.norm(cand - p) >= min_sep for p in pts):
            pts.append(cand)
    return np.asarray(pts)


def ck_point(model, x):
    """Posterior at one query, through the batch path."""
    means, variances = ck_predict_batch(model, np.asarray(x)[None, :])
    return float(means[0]), float(variances[0])


def dense_joint(X_h, X_l, k_l, k_c, rho, nh, nl):
    """Assemble the joint covariance entry by entry, independently of the
    block helpers in the implementation."""
    n_h, n_l = len(X_h), len(X_l)
    n = n_h + n_l
    K = np.zeros((n, n))
    for i in range(n_h):
        for j in range(n_h):
            K[i, j] = rho * rho * k_l.point(X_h[i], X_h[j]) + k_c.point(X_h[i], X_h[j])
            if i == j:
                K[i, j] += nh
    for i in range(n_h):
        for j in range(n_l):
            K[i, n_h + j] = rho * k_l.point(X_h[i], X_l[j])
            K[n_h + j, i] = K[i, n_h + j]
    for i in range(n_l):
        for j in range(n_l):
            K[n_h + i, n_h + j] = k_l.point(X_l[i], X_l[j]) + (nl if i == j else 0.0)
    return K


class TestFitPredict:
    def test_dense_oracle_small_instances(self):
        rng = np.random.default_rng(4)
        kernel_pairs = [
            (RBF(amplitude=1.2, length=0.9), RBF(amplitude=0.4, length=0.7)),
            (Matern(amplitude=1.0, length=1.1, nu=2.5), RBF(amplitude=0.5, length=1.3)),
            (Matern(amplitude=0.8, length=0.9, nu=1.5), Matern(amplitude=0.3, length=0.8, nu=2.5)),
        ]
        for trial in range(30):
            k_l, k_c = kernel_pairs[trial % len(kernel_pairs)]
            n_l = int(rng.integers(2, 5))
            n_h = int(rng.integers(1, 7 - n_l))
            pts = spread_points(rng, n_l + n_h, 2)
            X_l, X_h = pts[:n_l], pts[n_l:]
            y_l = rng.normal(size=n_l)
            y_h = rng.normal(size=n_h)
            rho = float(rng.uniform(-2.0, 2.0))
            nl, nh = 1e-4, 1e-4
            model = ck_fit(X_l, y_l, X_h, y_h, k_l, k_c, rho, nl, nh)

            K = dense_joint(X_h, X_l, k_l, k_c, rho, nh, nl) + model.jitter * np.eye(n_l + n_h)
            Kinv = np.linalg.inv(K)
            stacked = np.concatenate([y_h, y_l])
            x = rng.uniform(-2.5, 2.5, size=2)
            k_vec = np.concatenate([
                [rho * rho * k_l.point(xh, x) + k_c.point(xh, x) for xh in X_h],
                [rho * k_l.point(xl, x) for xl in X_l],
            ])
            mean_o = k_vec @ Kinv @ stacked
            var_o = rho * rho * k_l.point(x, x) + k_c.point(x, x) - k_vec @ Kinv @ k_vec
            mean, var = ck_point(model, x)
            np.testing.assert_allclose(mean, mean_o, rtol=1e-9, atol=1e-12)
            np.testing.assert_allclose(var, max(var_o, 0.0), rtol=1e-9, atol=1e-12)

            nll = ck_nll(X_l, y_l, X_h, y_h, k_l, k_c, rho, nl, nh)
            nll_o = 0.5 * stacked @ Kinv @ stacked \
                + 0.5 * math.log(np.linalg.det(K)) \
                + 0.5 * len(stacked) * math.log(2 * math.pi)
            np.testing.assert_allclose(nll, nll_o, rtol=1e-9)

    def test_rho_zero_decouples_to_single_fidelity_gp(self):
        rng = np.random.default_rng(9)
        X_l = spread_points(rng, 6, 2)
        y_l = rng.normal(size=6)
        X_h = spread_points(rng, 4, 2)
        y_h = rng.normal(size=4)
        k_corr = RBF(amplitude=0.9, length=0.8)
        ck = ck_fit(X_l, y_l, X_h, y_h, RBF(length=1.2), k_corr,
                    rho=0.0, noise_l=1e-4, noise_h=1e-4)
        gp = gp_fit(X_h, y_h, k_corr, noise_var=1e-4)
        for x in rng.uniform(-2, 2, size=(12, 2)):
            m_ck, v_ck = ck_point(ck, x)
            m_gp, v_gp = gp_predict(gp, x)
            np.testing.assert_allclose(m_ck, m_gp, rtol=1e-8, atol=1e-12)
            np.testing.assert_allclose(v_ck, v_gp, rtol=1e-8, atol=1e-12)

    def test_batch_matches_single(self):
        rng = np.random.default_rng(14)
        X_l = spread_points(rng, 5, 2)
        X_h = spread_points(rng, 3, 2)
        model = ck_fit(X_l, rng.normal(size=5), X_h, rng.normal(size=3),
                       RBF(length=1.0), RBF(amplitude=0.3, length=0.7),
                       rho=1.4, noise_l=1e-4, noise_h=1e-4)
        queries = rng.uniform(-2, 2, size=(8, 2))
        means, variances = ck_predict_batch(model, queries)
        for i, q in enumerate(queries):
            m, v = ck_point(model, q)
            np.testing.assert_allclose(means[i], m, rtol=1e-12, atol=1e-13)
            np.testing.assert_allclose(variances[i], v, rtol=1e-10, atol=1e-12)

    def test_exploits_correlated_low_fidelity_data(self):
        # f_h = 2 f_l; plentiful LF data should carry HF predictions at
        # points far from every HF sample.
        rng = np.random.default_rng(23)
        f_l = lambda X: np.sin(1.3 * X[:, 0]) + 0.4 * X[:, 1]
        X_l = rng.uniform(-2, 2, size=(60, 2))
        y_l = f_l(X_l)
        X_h = rng.uniform(-2, 2, size=(4, 2))
        y_h = 2.0 * f_l(X_h)
        model = ck_fit(X_l, y_l, X_h, y_h,
                       RBF(amplitude=1.0, length=1.0), RBF(amplitude=0.05, length=1.0),
                       rho=2.0, noise_l=1e-8, noise_h=1e-8)
        X_test = rng.uniform(-1.8, 1.8, size=(30, 2))
        means, _ = ck_predict_batch(model, X_test)
        truth = 2.0 * f_l(X_test)
        rel = np.linalg.norm(means - truth) / np.linalg.norm(truth)
        assert rel < 0.05

    def test_validation_errors(self):
        X = np.zeros((2, 2))
        y = np.zeros(2)
        with pytest.raises(ConfigurationError):
            ck_fit(X, y, np.zeros((2, 3)), y, RBF(), RBF())
        with pytest.raises(ConfigurationError):
            ck_fit(X, y, X, y, RBF(), RBF(), noise_l=-1.0)


class TestNllGradient:
    @pytest.mark.parametrize("k_l, k_c", [
        (RBF(amplitude=1.0, length=1.1, amplitude_bounds=(0.1, 10.0), length_bounds=(0.1, 10.0)),
         Matern(amplitude=0.3, length=0.9, nu=2.5,
                amplitude_bounds=(0.01, 10.0), length_bounds=(0.1, 10.0))),
        (Matern(amplitude=1.2, length=0.8, nu=1.5, length_bounds=(0.1, 10.0)),
         RBF(amplitude=0.2, length=1.3, amplitude_bounds=(0.01, 10.0))),
    ])
    @pytest.mark.parametrize("rho", [-1.3, 0.0, 0.8])
    def test_matches_central_differences(self, k_l, k_c, rho):
        # each free entry: the kernels' log-hyperparameters, rho, log noise floors
        rng = np.random.default_rng(5)
        pts = spread_points(rng, 17, 2)
        X_l, X_h = pts[:12], pts[12:]
        y_l = np.sin(X_l[:, 0])
        y_h = 1.2 * np.sin(X_h[:, 0]) + 0.1 * X_h[:, 1]
        names_l = [name for name, _, _ in k_l.free_params()]
        names_c = [name for name, _, _ in k_c.free_params()]
        n_l, n_c = len(names_l), len(names_c)
        x0 = np.concatenate([np.log([v for _, v, _ in k_l.free_params()]),
                             np.log([v for _, v, _ in k_c.free_params()]),
                             [rho], np.log([1e-3, 2e-3])])

        def nll(x):
            return ck_nll(X_l, y_l, X_h, y_h,
                          k_l.with_values(dict(zip(names_l, np.exp(x[:n_l])))),
                          k_c.with_values(dict(zip(names_c, np.exp(x[n_l:n_l + n_c])))),
                          x[-3], math.exp(x[-2]), math.exp(x[-1]))

        value, grad = ck_nll(X_l, y_l, X_h, y_h, k_l, k_c, rho, 1e-3, 2e-3, grad=True)
        assert value == nll(x0)
        fd = np.empty(x0.size)
        for i in range(x0.size):
            step = np.zeros(x0.size)
            step[i] = 1e-5
            fd[i] = (nll(x0 + step) - nll(x0 - step)) / 2e-5
        np.testing.assert_allclose(grad, fd, rtol=1e-6, atol=1e-7)


class TestOptimize:
    def make_problem(self, rho_true=-1.5, seed=3):
        rng = np.random.default_rng(seed)
        f_l = lambda X: np.sin(1.1 * X[:, 0]) - 0.3 * X[:, 1]
        X_l = spread_points(rng, 14, 2, min_sep=0.25)
        y_l = f_l(X_l)
        X_h = spread_points(rng, 6, 2, min_sep=0.4)
        y_h = rho_true * f_l(X_h) + 0.05 * np.cos(X_h[:, 0])
        return X_l, y_l, X_h, y_h, rng

    def test_recovers_scale_factor_sign_and_magnitude(self):
        X_l, y_l, X_h, y_h, rng = self.make_problem()
        model = ck_optimize(
            X_l, y_l, X_h, y_h,
            RBF(amplitude=1.0, length=1.0,
                amplitude_bounds=(0.05, 10.0), length_bounds=(0.2, 10.0)),
            RBF(amplitude=0.1, length=1.0,
                amplitude_bounds=(0.01, 2.0), length_bounds=(0.2, 10.0)),
            rho=1.0, rho_bounds=(-5.0, 5.0),
            noise_bounds_l=(1e-8, 1e-2), noise_bounds_h=(1e-8, 1e-2),
            rng=rng,
        )
        assert -2.2 < model.rho < -0.9

    def test_deterministic_given_seed(self):
        X_l, y_l, X_h, y_h, _ = self.make_problem(seed=6)
        kwargs = dict(
            rho=1.0, rho_bounds=(-5.0, 5.0),
            noise_bounds_l=(1e-8, 1e-2), noise_bounds_h=(1e-8, 1e-2),
        )
        template_l = RBF(amplitude_bounds=(0.05, 10.0), length_bounds=(0.2, 10.0))
        template_c = RBF(amplitude=0.1, amplitude_bounds=(0.01, 2.0))
        a = ck_optimize(X_l, y_l, X_h, y_h, template_l, template_c,
                        rng=np.random.default_rng(11), **kwargs)
        b = ck_optimize(X_l, y_l, X_h, y_h, template_l, template_c,
                        rng=np.random.default_rng(11), **kwargs)
        assert a.rho == b.rho
        assert a.kernel_l == b.kernel_l
        assert a.nll == b.nll

    def test_never_worse_than_seeded_candidate(self):
        X_l, y_l, X_h, y_h, rng = self.make_problem(seed=8)
        seeded_nll = ck_nll(X_l, y_l, X_h, y_h,
                            RBF(), RBF(amplitude=0.1), -1.5, 1e-6, 1e-6)
        model = ck_optimize(
            X_l, y_l, X_h, y_h,
            RBF(amplitude_bounds=(0.05, 10.0), length_bounds=(0.2, 10.0)),
            RBF(amplitude=0.1, amplitude_bounds=(0.01, 2.0)),
            rho=-1.5, rho_bounds=(-1.5, -1.5),
            noise_bounds_l=(1e-6, 1e-6), noise_bounds_h=(1e-6, 1e-6),
            rng=rng,
        )
        assert model.rho == -1.5
        assert model.nll <= seeded_nll + 1e-9

    def test_all_bounds_pinned_returns_direct_fit(self):
        X_l, y_l, X_h, y_h, rng = self.make_problem(seed=10)
        model = ck_optimize(
            X_l, y_l, X_h, y_h, RBF(), RBF(amplitude=0.2),
            rho=0.7, rho_bounds=(0.7, 0.7),
            noise_bounds_l=(1e-4, 1e-4), noise_bounds_h=(1e-4, 1e-4), rng=rng,
        )
        direct = ck_fit(X_l, y_l, X_h, y_h, RBF(), RBF(amplitude=0.2), 0.7, 1e-4, 1e-4)
        np.testing.assert_array_equal(model.dual, direct.dual)
        assert model.rho == 0.7

    def test_unexpected_errors_surface_at_the_first_evaluation(self, monkeypatch):
        # only an ill-conditioned Gram counts as an infeasible point; any other
        # exception is a fault and must not be retried over every start
        X_l, y_l, X_h, y_h, rng = self.make_problem(seed=12)
        calls = []

        def broken_nll(*args, **kwargs):
            calls.append(args)
            raise TypeError("injected")

        monkeypatch.setattr(cokriging, "ck_nll", broken_nll)
        with pytest.raises(TypeError, match="injected"):
            ck_optimize(X_l, y_l, X_h, y_h,
                        RBF(amplitude_bounds=(0.05, 10.0), length_bounds=(0.2, 10.0)),
                        RBF(amplitude=0.1), rng=rng)
        assert len(calls) == 1
