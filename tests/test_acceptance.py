"""Acceptance sweep: every shipped guarantee, one printed verdict line each.

Each test exercises one end-to-end guarantee at its stated tolerance and
reports `criterion N (<name>): PASS/FAIL - <measurement>` on the real stdout
so the checklist is visible in any pytest run.  The heavyweight entry is
criterion 8 (90 full training runs); everything else is seconds.
"""

import json
import math
import sys
import time
from dataclasses import replace

import numpy as np
import pytest

from bifid import beam
from bifid.cli import main
from bifid.datasets import Dataset
from bifid.gp import (
    RBF,
    Matern,
    RationalQuadratic,
    WhiteNoise,
    gp_fit,
    gp_nll,
    gp_predict,
)
from bifid.cokriging import ck_fit, ck_nll, ck_predict_batch
from bifid.harness import ExperimentConfig, nh_sweep, replicate_inits
from bifid.network import (
    Activation,
    NetworkParams,
    NetworkSpec,
    forward,
    grad_sample_flat,
    init_params,
)
from bifid.optimizers import AdamConfig, _adam_update, train
from bifid.seeding import stream
from bifid.transfer import (
    TransferConfig,
    bftl1,
    bftl2,
    bfwl,
    distillation_weights,
    make_soft_dataset,
    make_teacher,
    train_lowfi,
)


_CAPTURE_MANAGER = None


@pytest.fixture(autouse=True, scope="session")
def _criterion_reporting(request):
    # verdict lines must stay visible under pytest's fd-level capture
    global _CAPTURE_MANAGER
    _CAPTURE_MANAGER = request.config.pluginmanager.getplugin("capturemanager")
    yield
    _CAPTURE_MANAGER = None


def report(num: int, name: str, passed: bool, detail: str) -> None:
    line = f"criterion {num:2d} ({name}): {'PASS' if passed else 'FAIL'} - {detail}\n"
    if _CAPTURE_MANAGER is not None:
        with _CAPTURE_MANAGER.global_and_fixture_disabled():
            sys.stdout.write("\n" + line)
            sys.stdout.flush()
    else:
        sys.__stdout__.write(line)
        sys.__stdout__.flush()
    assert passed, line.strip()


def rel_err(got: float, want: float) -> float:
    return abs(got - want) / max(abs(want), 1e-300)


# ---------------------------------------------------------------------------
# 1. backpropagation vs central finite differences


def fd_gradient(spec, params, x, y, h=1e-6):
    flat = params.to_flat()
    grad = np.zeros_like(flat)
    for j in range(flat.size):
        plus, minus = flat.copy(), flat.copy()
        plus[j] += h
        minus[j] -= h
        yp = forward(spec, NetworkParams.from_flat(spec, plus, copy=False), x[None, :])[0][0]
        ym = forward(spec, NetworkParams.from_flat(spec, minus, copy=False), x[None, :])[0][0]
        grad[j] = ((yp - y) ** 2 - (ym - y) ** 2) / (2 * h)
    return grad


def draw_smooth_sample(spec, params, rng, margin=1e-3):
    # The comparison is only well-posed where the loss is differentiable:
    # at a ReLU kink the true derivative does not exist (backprop commits to
    # the zero subgradient) and at the ELU joint central differences lose
    # accuracy, so inputs are redrawn until every pre-activation clears the
    # kink by 1000x the stencil width.
    for _ in range(200):
        x = rng.normal(size=spec.input_dim)
        _, pre_activations, _ = forward(spec, params, x[None, :])
        if min(float(np.min(np.abs(z))) for z in pre_activations) >= margin:
            return x
    raise AssertionError("no kink-free input found")


def test_criterion_1_gradient_oracle():
    t0 = time.perf_counter()
    relu, elu = Activation("relu"), Activation("elu")
    configs = []
    for act in (relu, elu):
        configs += [
            NetworkSpec(1, (4,), (act,)),
            NetworkSpec(2, (5, 5), (act, act)),
            NetworkSpec(3, (6, 6), (act, act), skips=((1, 2),)),
            NetworkSpec(4, (5, 5, 5), (act,) * 3, skips=((1, 3),)),
            NetworkSpec(2, (7, 7, 7), (act,) * 3, skips=((1, 2), (2, 3))),
        ]
    configs += [
        NetworkSpec(2, (6, 4), (relu, elu)),
        NetworkSpec(5, (8, 8), (elu, relu), skips=((1, 2),)),
        NetworkSpec(1, (3, 3, 3, 3), (elu, relu, elu, relu), skips=((2, 4),)),
        NetworkSpec(4, (15, 15), (elu, elu)),
        NetworkSpec(3, (10, 10, 10), (relu,) * 3, skips=((1, 2), (1, 3), (2, 3))),
        NetworkSpec(2, (9,), (elu,)),
        NetworkSpec(6, (5, 5), (relu, relu)),
        NetworkSpec(2, (4, 4, 4), (elu, elu, elu), skips=((1, 3), (2, 3))),
        NetworkSpec(3, (12, 12), (relu, elu), skips=((1, 2),)),
        NetworkSpec(1, (20,), (relu,)),
    ]
    assert len(configs) >= 20
    worst = 0.0
    checked = 0
    for idx, spec in enumerate(configs):
        rng = stream(1000, idx)
        params = init_params(spec, rng)
        for _ in range(3):
            x = draw_smooth_sample(spec, params, rng)
            y = float(rng.normal())
            analytic = grad_sample_flat(spec, params, x, y)
            numeric = fd_gradient(spec, params, x, y)
            denom = np.maximum(np.abs(numeric), 1e-3)
            worst = max(worst, float(np.max(np.abs(analytic - numeric) / denom)))
            checked += 1
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-5 and elapsed < 10.0
    report(1, "gradient oracle", ok,
           f"{checked} gradients over {len(configs)} configs, worst rel err "
           f"{worst:.2e} (<= 1e-5), {elapsed:.1f}s (< 10s)")


# ---------------------------------------------------------------------------
# 2. Adam first-step identity


def test_criterion_2_adam_first_step():
    # The update is measured at theta = 0 where delta-theta is exact; at a
    # random theta the subtraction theta_new - theta floors the measurable
    # relative error near ulp(theta)/|step| ~ 1e-11, an artifact of float64
    # cancellation rather than of the update rule.  Step independence from
    # theta is asserted bitwise instead.
    rng = stream(1001)
    worst = 0.0
    independent = True
    for trial in range(10):
        n = int(rng.integers(3, 40))
        g = rng.normal(size=n) * 10.0 ** rng.integers(-3, 4)
        eta, eps = 10.0 ** rng.uniform(-5, -1), 1e-8
        step = np.zeros(n)
        _adam_update(step, np.zeros(n), np.zeros(n), g, 0, eta, 1.0, None, 0.9, 0.999, eps)
        expected = -eta * g / (np.abs(g) + eps)
        worst = max(worst, float(np.max(np.abs(step - expected) / np.abs(expected))))
        theta = rng.normal(size=n)
        theta_new = theta.copy()
        _adam_update(theta_new, np.zeros(n), np.zeros(n), g, 0, eta, 1.0, None, 0.9, 0.999, eps)
        independent = independent and np.array_equal(theta_new, theta + step)
    ok = worst <= 1e-12 and independent
    report(2, "Adam first step", ok,
           f"10 fresh-state steps, worst rel err {worst:.2e} (<= 1e-12); "
           f"step independent of theta: {independent}")


# ---------------------------------------------------------------------------
# 3. GP dense-inverse oracles


def dense_gp_oracle(X, y, kernel, noise, xq):
    K = kernel.gram(X) + noise * np.eye(len(y))
    Ki = np.linalg.inv(K)
    k = kernel.cross(X, xq[None, :])[:, 0]
    mean = float(k @ Ki @ y)
    var = float(kernel.point(xq, xq) - k @ Ki @ k)
    sign, logdet = np.linalg.slogdet(K)
    nll = 0.5 * float(y @ Ki @ y) + 0.5 * logdet + 0.5 * len(y) * math.log(2 * math.pi)
    return mean, var, nll


def test_criterion_3_gp_oracles():
    rng = stream(1002)
    kernels = [
        lambda r: RBF(amplitude=r.uniform(0.5, 2), length=r.uniform(0.5, 2)),
        lambda r: RationalQuadratic(amplitude=r.uniform(0.5, 2), shape=r.uniform(0.5, 3),
                                    length=r.uniform(0.5, 2)),
        lambda r: Matern(amplitude=r.uniform(0.5, 2), length=r.uniform(0.5, 2),
                         nu=float(r.choice([0.5, 1.5, 2.5]))),
        lambda r: WhiteNoise(amplitude=r.uniform(0.5, 2)),
    ]
    worst = 0.0
    for case in range(50):
        make = kernels[case % 4]
        kernel = make(rng)
        n, d = int(rng.integers(1, 6)), int(rng.integers(1, 4))
        X = rng.normal(size=(n, d))
        y = rng.normal(size=n)
        noise = float(rng.uniform(0.01, 0.5))
        xq = rng.normal(size=d)
        want_mean, want_var, want_nll = dense_gp_oracle(X, y, kernel, noise, xq)
        model = gp_fit(X, y, kernel, noise_var=noise)
        got_mean, got_var = gp_predict(model, xq)
        got_nll = gp_nll(X, y, kernel, noise_var=noise)
        worst = max(worst,
                    rel_err(got_mean, want_mean) if abs(want_mean) > 1e-12 else abs(got_mean - want_mean),
                    rel_err(got_var, want_var) if abs(want_var) > 1e-12 else abs(got_var - want_var),
                    rel_err(got_nll, want_nll))
    # noiseless interpolation at the training points
    interp = 0.0
    for trial in range(5):
        n, d = 5, 2
        X = rng.normal(size=(n, d)) * 2
        y = rng.normal(size=n)
        model = gp_fit(X, y, RBF(amplitude=1.5, length=1.2), noise_var=0.0)
        for i in range(n):
            mean, _ = gp_predict(model, X[i])
            interp = max(interp, abs(mean - y[i]) / (1 + abs(y[i])))
    ok = worst <= 1e-9 and interp <= 1e-6
    report(3, "GP dense oracle", ok,
           f"50 instances x 4 kernels worst rel err {worst:.2e} (<= 1e-9); "
           f"noiseless interpolation {interp:.2e} (<= 1e-6)")


# ---------------------------------------------------------------------------
# 4. co-kriging decoupling and dense oracle


def ck_point(model, x):
    """Posterior at one query, through the batch path."""
    means, variances = ck_predict_batch(model, np.asarray(x)[None, :])
    return float(means[0]), float(variances[0])


def dense_ck_oracle(X_l, y_l, X_h, y_h, k_l, k_c, rho, s_l, s_h, xq):
    n_h, n_l = len(y_h), len(y_l)
    K_hh = rho**2 * k_l.gram(X_h) + k_c.gram(X_h) + s_h * np.eye(n_h)
    K_hl = rho * k_l.cross(X_h, X_l)
    K_ll = k_l.gram(X_l) + s_l * np.eye(n_l)
    K = np.block([[K_hh, K_hl], [K_hl.T, K_ll]])
    Ki = np.linalg.inv(K)
    stacked = np.concatenate([y_h, y_l])
    k_h = rho**2 * k_l.cross(X_h, xq[None, :])[:, 0] + k_c.cross(X_h, xq[None, :])[:, 0]
    k_lo = rho * k_l.cross(X_l, xq[None, :])[:, 0]
    kvec = np.concatenate([k_h, k_lo])
    mean = float(kvec @ Ki @ stacked)
    prior = rho**2 * k_l.point(xq, xq) + k_c.point(xq, xq)
    var = float(prior - kvec @ Ki @ kvec)
    sign, logdet = np.linalg.slogdet(K)
    nll = (0.5 * float(stacked @ Ki @ stacked) + 0.5 * logdet
           + 0.5 * (n_h + n_l) * math.log(2 * math.pi))
    return mean, var, nll


def test_criterion_4_cokriging_oracles():
    rng = stream(1003)
    # rho = 0 decouples the fidelities: HF predictions equal a plain GP
    worst_dec = 0.0
    for trial in range(10):
        d = int(rng.integers(1, 4))
        X_l = rng.normal(size=(6, d))
        y_l = rng.normal(size=6)
        X_h = rng.normal(size=(4, d))
        y_h = rng.normal(size=4)
        kernel = RBF(amplitude=1.3, length=1.1)
        noise = 0.05
        model = ck_fit(X_l, y_l, X_h, y_h, RBF(amplitude=0.7, length=2.0), kernel,
                       rho=0.0, noise_l=0.02, noise_h=noise)
        single = gp_fit(X_h, y_h, kernel, noise_var=noise)
        for _ in range(5):
            xq = rng.normal(size=d)
            m_ck, v_ck = ck_point(model, xq)
            m_gp, v_gp = gp_predict(single, xq)
            worst_dec = max(worst_dec,
                            abs(m_ck - m_gp) / max(abs(m_gp), 1e-12),
                            abs(v_ck - v_gp) / max(abs(v_gp), 1e-12))
    # dense-inverse oracle at N_l + N_h <= 6
    worst_dense = 0.0
    for trial in range(20):
        d = int(rng.integers(1, 4))
        n_l = int(rng.integers(1, 5))
        n_h = int(rng.integers(1, 7 - n_l))
        X_l = rng.normal(size=(n_l, d))
        y_l = rng.normal(size=n_l)
        X_h = rng.normal(size=(n_h, d))
        y_h = rng.normal(size=n_h)
        k_l = RBF(amplitude=rng.uniform(0.5, 2), length=rng.uniform(0.5, 2))
        k_c = Matern(amplitude=rng.uniform(0.5, 2), length=rng.uniform(0.5, 2), nu=1.5)
        rho = float(rng.uniform(-2, 2))
        s_l, s_h = float(rng.uniform(0.01, 0.3)), float(rng.uniform(0.01, 0.3))
        xq = rng.normal(size=d)
        want = dense_ck_oracle(X_l, y_l, X_h, y_h, k_l, k_c, rho, s_l, s_h, xq)
        model = ck_fit(X_l, y_l, X_h, y_h, k_l, k_c, rho=rho, noise_l=s_l, noise_h=s_h)
        got_mean, got_var = ck_point(model, xq)
        got_nll = ck_nll(X_l, y_l, X_h, y_h, k_l, k_c, rho, s_l, s_h)
        worst_dense = max(worst_dense,
                          abs(got_mean - want[0]) / max(abs(want[0]), 1e-12),
                          abs(got_var - want[1]) / max(abs(want[1]), 1e-12),
                          rel_err(got_nll, want[2]))
    ok = worst_dec <= 1e-8 and worst_dense <= 1e-9
    report(4, "co-kriging oracle", ok,
           f"rho=0 decoupling worst rel err {worst_dec:.2e} (<= 1e-8); "
           f"dense oracle worst rel err {worst_dense:.2e} (<= 1e-9)")


# ---------------------------------------------------------------------------
# 5. transfer freeze contracts


def test_criterion_5_freeze_contracts():
    spec = NetworkSpec(3, (8, 8), (Activation("elu"), Activation("elu")))
    head_spec = NetworkSpec(1, (5,), (Activation("elu"),))
    cfg = AdamConfig(eta=1e-3, max_steps=150, loss_stride=50)
    all_ok = True
    for seed in range(10):
        rng = stream(2000, seed)
        X = rng.normal(size=(30, 3))
        data_l = Dataset(X, np.sin(X[:, 0]) + X[:, 1] * X[:, 2])
        data_h = Dataset(X[:10], 1.1 * data_l.outputs[:10] + 0.05)
        lf_params, _ = train_lowfi(spec, data_l, cfg, stream(2001, seed), stream(2002, seed))

        adapted, _ = bftl1(spec, lf_params, data_h, cfg, 1, stream(2003, seed))
        # layer 1 (the only non-adapted one here) must be bit-identical
        same1 = (np.array_equal(lf_params.weights[0], adapted.weights[0])
                 and np.array_equal(lf_params.biases[0], adapted.biases[0]))
        moved1 = not np.array_equal(lf_params.weights[1], adapted.weights[1])

        stacked, _ = bftl2(spec, lf_params, head_spec, data_h, cfg,
                           stream(2004, seed), stream(2005, seed))
        same2 = all(np.array_equal(a, b) for a, b in
                    zip(stacked.base_params.weights, lf_params.weights)) and \
                all(np.array_equal(a, b) for a, b in
                    zip(stacked.base_params.biases, lf_params.biases))
        all_ok = all_ok and same1 and moved1 and same2
    report(5, "freeze contracts", all_ok,
           "10 seeded runs: non-adapted layer and stacked-base parameters "
           "bit-identical, adapted layers moved")


# ---------------------------------------------------------------------------
# 6. BFWL weighting


def test_criterion_6_bfwl_weighting():
    rng = stream(2100)
    spec = NetworkSpec(2, (8, 8), (Activation("elu"), Activation("elu")))
    X_l = rng.normal(size=(25, 2))
    data_l = Dataset(X_l, np.cos(X_l[:, 0]) + 0.5 * X_l[:, 1])
    X_h = rng.normal(size=(8, 2))
    data_h = Dataset(X_h, 1.05 * (np.cos(X_h[:, 0]) + 0.5 * X_h[:, 1]) + 0.02)
    adam = AdamConfig(eta=2e-4, max_steps=200, loss_stride=50)
    tcfg = TransferConfig(hf_train=adam, beta=0.0)
    student, _ = train_lowfi(spec, data_l, AdamConfig(eta=1e-3, max_steps=200, loss_stride=50),
                             stream(2101), stream(2102))

    # beta = 0 run vs manually unweighted training on the same soft dataset
    got, _ = bfwl(spec, student, data_l, data_h, tcfg, stream(2103), stream(2104))
    teacher = make_teacher(data_h, tcfg.teacher_kernel, tcfg.teacher_noise_bounds, stream(2103))
    soft = make_soft_dataset(teacher, data_l.inputs, data_h.inputs)
    want, _ = train(spec, student, soft.as_dataset(), adam, stream(2104))
    bitwise = got.to_flat().tobytes() == want.to_flat().tobytes()

    worst = 0.0
    for beta in (-0.25, 0.0, 0.7, 3.0):
        variances = np.abs(rng.normal(size=40)) * 10.0 ** rng.integers(-6, 1)
        weights = distillation_weights(variances, beta)
        expected = np.exp(-beta * variances)
        worst = max(worst, float(np.max(np.abs(weights - expected)
                                        / np.maximum(np.abs(expected), 1e-300))))
    ok = bitwise and worst <= 1e-12
    report(6, "distillation weighting", ok,
           f"beta=0 stage bitwise identical to unweighted run: {bitwise}; "
           f"weights vs exp(-beta*variance) worst rel err {worst:.2e} (<= 1e-12)")


# ---------------------------------------------------------------------------
# 7. beam closed forms


def test_criterion_7_beam_closed_forms():
    geom = beam.BeamGeometry()
    rng = stream(2200)
    worst_tip = worst_lin = worst_sep = 0.0
    zero_ok = True
    for trial in range(20):
        # table units: q kN/m, flange moduli MPa, web modulus kPa
        inp = beam.BeamInputs(q=float(rng.uniform(9, 11)),
                              E1=float(rng.uniform(0.9, 1.1)),
                              E2=float(rng.uniform(0.9, 1.1)),
                              E3=float(rng.uniform(9, 11)))
        zero_ok = zero_ok and beam.beam_lowfi_deflection(inp, 0.0, geom) == 0.0
        tip = beam.beam_lowfi_tip(inp, geom)
        ei = beam.homogenized_EI(inp, geom)
        q_si = inp.q * 1e3
        closed = -q_si * geom.length**4 / (8.0 * ei)
        worst_tip = max(worst_tip, rel_err(tip, closed))
        # doubling the load doubles every deflection
        inp2 = beam.BeamInputs(q=2 * inp.q, E1=inp.E1, E2=inp.E2, E3=inp.E3)
        x = float(rng.uniform(0, geom.length))
        worst_lin = max(worst_lin, rel_err(beam.beam_lowfi_deflection(inp2, x, geom),
                                           2.0 * beam.beam_lowfi_deflection(inp, x, geom)))
        # deflection factorizes as (load/stiffness) * pure shape(x)
        u_ratio = (beam.beam_lowfi_deflection(inp, x, geom)
                   / beam.beam_lowfi_tip(inp, geom))
        xi = x / geom.length
        shape = (xi**4 - 4 * xi**3 + 6 * xi**2) / 3.0
        worst_sep = max(worst_sep, rel_err(u_ratio, shape))
    ok = zero_ok and worst_tip <= 1e-12 and worst_lin <= 1e-12 and worst_sep <= 1e-12
    report(7, "beam closed forms", ok,
           f"support deflection exactly 0: {zero_ok}; tip formula rel err "
           f"{worst_tip:.2e}, load linearity {worst_lin:.2e}, "
           f"shape separability {worst_sep:.2e} (all <= 1e-12)")


# ---------------------------------------------------------------------------
# 8. transfer-method ordering on the benchmark (the slow one)


def test_criterion_8_method_ordering():
    t0 = time.perf_counter()
    cfg = ExperimentConfig(method="standard_hf", master_seed=0)
    means = {}
    for method in ("standard_hf", "bftl2", "bfwl"):
        _, summary = replicate_inits(replace(cfg, method=method), n=30)
        means[method] = summary.mean
    elapsed = time.perf_counter() - t0
    ok = (means["bfwl"] < means["standard_hf"]
          and means["bftl2"] < means["standard_hf"]
          and elapsed < 1800.0)
    report(8, "transfer ordering", ok,
           f"30-replicate means: standard_hf {means['standard_hf']:.3e}, "
           f"bftl2 {means['bftl2']:.3e}, bfwl {means['bfwl']:.3e}; "
           f"both transfer methods below standard_hf; {elapsed:.0f}s (< 1800s)")


# ---------------------------------------------------------------------------
# 9. more high-fidelity data helps


def test_criterion_9_nh_trend():
    cfg = ExperimentConfig(method="standard_hf", master_seed=0)
    _, table = nh_sweep(cfg, nh_values=(5, 40), n_seeds=5)
    by_nh = dict(table)
    ok = by_nh[40] <= by_nh[5]
    report(9, "high-fidelity sample trend", ok,
           f"standard_hf mean over 5 seeds: n_h=5 -> {by_nh[5]:.3e}, "
           f"n_h=40 -> {by_nh[40]:.3e} (40 no larger)")


# ---------------------------------------------------------------------------
# 10. CLI byte-level determinism


def test_criterion_10_cli_determinism(tmp_path, capsys):
    config = {
        "method": "bftl1", "master_seed": 17,
        "n_l": 40, "n_h": 8, "n_v": 10,
        "network": {"hidden_widths": [6, 6], "activations": ["elu", "elu"]},
        "lf_steps": 150, "hf_steps": 150,
        "replication": {"mode": "init_replicates", "n": 3},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config), encoding="utf-8")
    pairs = []
    for cmd, out_a, out_b in (("replicate", "ra", "rb"), ("train", "ta", "tb")):
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / out_a)]) == 0
        assert main([cmd, "--config", str(path), "--out", str(tmp_path / out_b)]) == 0
        a = (tmp_path / out_a / "results.csv").read_bytes()
        b = (tmp_path / out_b / "results.csv").read_bytes()
        pairs.append((cmd, a == b))
    capsys.readouterr()
    ok = all(same for _, same in pairs)
    report(10, "CLI determinism", ok,
           "; ".join(f"{cmd} rerun results.csv byte-identical: {same}"
                     for cmd, same in pairs))
