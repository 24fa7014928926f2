"""Two-fidelity co-kriging: f_h(x) = rho * f_l(x) + f_corr(x).

The joint Gaussian prior over stacked observations puts the high-fidelity
block first:

    [y_h]   ~ N(0, [rho^2 K_l(Xh,Xh) + K_corr(Xh,Xh) + s_h^2 I   rho K_l(Xh,Xl)]
    [y_l]          [rho K_l(Xl,Xh)                               K_l(Xl,Xl) + s_l^2 I])

Predictions target the high-fidelity process.  With rho = 0 the model
decouples into a single-fidelity GP with kernel K_corr on the HF data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import cho_solve

from .errors import ConfigurationError, IllConditionedKernelError
from .gp import Bounds, Kernel, _validate_xy, multistart_minimize, stabilized_cholesky


@dataclass
class CoKrigingModel:
    """Joint posterior state; treat as immutable apart from the clamp tally."""

    X_h: np.ndarray
    y_h: np.ndarray
    X_l: np.ndarray
    y_l: np.ndarray
    kernel_l: Kernel
    kernel_corr: Kernel
    rho: float
    noise_h: float
    noise_l: float
    L: np.ndarray
    dual: np.ndarray
    jitter: float
    nll: float | None = None
    clamp_count: int = field(default=0, compare=False)


def _joint_gram(
    X_h: np.ndarray,
    X_l: np.ndarray,
    kernel_l: Kernel,
    kernel_corr: Kernel,
    rho: float,
    noise_h: float,
    noise_l: float,
) -> np.ndarray:
    n_h, n_l = X_h.shape[0], X_l.shape[0]
    K_hh = rho**2 * kernel_l.gram(X_h) + kernel_corr.gram(X_h) + noise_h * np.eye(n_h)
    K_hl = rho * kernel_l.cross(X_h, X_l)
    K_ll = kernel_l.gram(X_l) + noise_l * np.eye(n_l)
    return np.block([[K_hh, K_hl], [K_hl.T, K_ll]])


def _validate_pair(X_l, y_l, X_h, y_h):
    X_l, y_l = _validate_xy(X_l, y_l)
    X_h, y_h = _validate_xy(X_h, y_h)
    if X_l.shape[1] != X_h.shape[1]:
        raise ConfigurationError("low- and high-fidelity inputs must share a dimension")
    return X_l, y_l, X_h, y_h


def ck_fit(
    X_l: np.ndarray,
    y_l: np.ndarray,
    X_h: np.ndarray,
    y_h: np.ndarray,
    kernel_l: Kernel,
    kernel_corr: Kernel,
    rho: float = 1.0,
    noise_l: float = 0.0,
    noise_h: float = 0.0,
) -> CoKrigingModel:
    X_l, y_l, X_h, y_h = _validate_pair(X_l, y_l, X_h, y_h)
    if noise_l < 0 or noise_h < 0:
        raise ConfigurationError("noise variances must be >= 0")
    K = _joint_gram(X_h, X_l, kernel_l, kernel_corr, rho, noise_h, noise_l)
    L, jitter = stabilized_cholesky(K)
    stacked = np.concatenate([y_h, y_l])
    dual = cho_solve((L, True), stacked)
    return CoKrigingModel(
        X_h=X_h.copy(), y_h=y_h.copy(), X_l=X_l.copy(), y_l=y_l.copy(),
        kernel_l=kernel_l, kernel_corr=kernel_corr, rho=float(rho),
        noise_h=float(noise_h), noise_l=float(noise_l), L=L, dual=dual, jitter=jitter,
    )


def _cross_vector(model: CoKrigingModel, X: np.ndarray) -> np.ndarray:
    """Covariance of f_h at query rows with the stacked training vector."""
    k_h = model.rho**2 * model.kernel_l.cross(model.X_h, X) \
        + model.kernel_corr.cross(model.X_h, X)
    k_l = model.rho * model.kernel_l.cross(model.X_l, X)
    return np.vstack([k_h, k_l])


def ck_predict_batch(model: CoKrigingModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.X_h.shape[1]:
        raise ConfigurationError("query batch has the wrong shape")
    K = _cross_vector(model, X)
    means = K.T @ model.dual
    sol = cho_solve((model.L, True), K)
    priors = model.rho**2 * model.kernel_l.diag(X) + model.kernel_corr.diag(X)
    variances = priors - np.einsum("ij,ij->j", K, sol)
    negative = variances < 0.0
    if negative.any():
        model.clamp_count += int(negative.sum())
        variances = np.where(negative, 0.0, variances)
    return means, variances


def ck_nll(
    X_l: np.ndarray,
    y_l: np.ndarray,
    X_h: np.ndarray,
    y_h: np.ndarray,
    kernel_l: Kernel,
    kernel_corr: Kernel,
    rho: float,
    noise_l: float,
    noise_h: float,
) -> float:
    """Joint negative log marginal likelihood of the stacked observations."""
    X_l, y_l, X_h, y_h = _validate_pair(X_l, y_l, X_h, y_h)
    K = _joint_gram(X_h, X_l, kernel_l, kernel_corr, rho, noise_h, noise_l)
    L, _ = stabilized_cholesky(K)
    stacked = np.concatenate([y_h, y_l])
    alpha = cho_solve((L, True), stacked)
    n = stacked.shape[0]
    return float(
        0.5 * stacked @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * math.log(2 * math.pi)
    )


DEFAULT_RHO_BOUNDS: Bounds = (-5.0, 5.0)


def ck_optimize(
    X_l: np.ndarray,
    y_l: np.ndarray,
    X_h: np.ndarray,
    y_h: np.ndarray,
    kernel_l_template: Kernel,
    kernel_corr_template: Kernel,
    rho: float = 1.0,
    rho_bounds: Bounds | None = DEFAULT_RHO_BOUNDS,
    noise_bounds_l: Bounds | None = None,
    noise_bounds_h: Bounds | None = None,
    rng: np.random.Generator | None = None,
    n_restarts: int = 8,
) -> CoKrigingModel:
    """Joint NLL minimization over both kernels, rho, and the noise floors.

    Kernel hyperparameters and noise variances are searched in log space;
    rho is searched on a linear scale since it may be negative.
    """
    X_l, y_l, X_h, y_h = _validate_pair(X_l, y_l, X_h, y_h)
    if rng is None:
        rng = np.random.default_rng(0)

    # Search-space bookkeeping: (label, start, search bounds, is_log, linear bounds).
    entries: list[tuple[str, float, float, float, bool, float, float]] = []
    free_l = kernel_l_template.free_params(prefix="l.")
    free_c = kernel_corr_template.free_params(prefix="c.")
    for name, value, (lo, hi) in free_l + free_c:
        entries.append((name, math.log(value), math.log(lo), math.log(hi), True, lo, hi))
    if rho_bounds is not None and rho_bounds[0] < rho_bounds[1]:
        lo, hi = rho_bounds
        entries.append(("rho", min(max(rho, lo), hi), lo, hi, False, lo, hi))
    elif rho_bounds is not None:
        rho = rho_bounds[0]
    fixed_noise = {"nl": 0.0, "nh": 0.0}
    for label, nb in (("nl", noise_bounds_l), ("nh", noise_bounds_h)):
        if nb is None:
            continue
        lo, hi = nb
        if not (0 <= lo <= hi):
            raise ConfigurationError("noise bounds must satisfy 0 <= lower <= upper")
        if lo < hi:
            if lo <= 0:
                raise ConfigurationError(
                    "noise lower bound must be positive to search in log space"
                )
            start = math.log(math.sqrt(lo * hi))
            entries.append((label, start, math.log(lo), math.log(hi), True, lo, hi))
        else:
            fixed_noise[label] = lo

    def build(theta: np.ndarray):
        values = {}
        for (label, _, _, _, is_log, lin_lo, lin_hi), raw in zip(entries, theta):
            val = math.exp(raw) if is_log else float(raw)
            values[label] = min(max(val, lin_lo), lin_hi)
        k_l = kernel_l_template.with_values(
            {k[2:]: v for k, v in values.items() if k.startswith("l.")}
        )
        k_c = kernel_corr_template.with_values(
            {k[2:]: v for k, v in values.items() if k.startswith("c.")}
        )
        r = values.get("rho", rho)
        nl = values.get("nl", fixed_noise["nl"])
        nh = values.get("nh", fixed_noise["nh"])
        return k_l, k_c, r, nl, nh

    if not entries:
        k_l, k_c, r, nl, nh = kernel_l_template, kernel_corr_template, rho, \
            fixed_noise["nl"], fixed_noise["nh"]
        model = ck_fit(X_l, y_l, X_h, y_h, k_l, k_c, r, nl, nh)
        model.nll = ck_nll(X_l, y_l, X_h, y_h, k_l, k_c, r, nl, nh)
        return model

    lo = np.array([e[2] for e in entries])
    hi = np.array([e[3] for e in entries])

    def objective(theta: np.ndarray) -> float:
        k_l, k_c, r, nl, nh = build(np.clip(theta, lo, hi))
        try:
            value = ck_nll(X_l, y_l, X_h, y_h, k_l, k_c, r, nl, nh)
        except IllConditionedKernelError:
            return np.inf
        return value if np.isfinite(value) else np.inf

    starts = [np.array([e[1] for e in entries])]
    for _ in range(max(0, n_restarts - 1)):
        starts.append(lo + rng.uniform(size=len(entries)) * (hi - lo))

    best_theta, best_val = multistart_minimize(objective, starts, lo, hi)
    k_l, k_c, r, nl, nh = build(np.clip(best_theta, lo, hi))
    model = ck_fit(X_l, y_l, X_h, y_h, k_l, k_c, r, nl, nh)
    model.nll = best_val
    return model
