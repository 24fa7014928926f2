"""Reference computations made apart from the bifid package.

Nothing here imports bifid: every function re-derives its result from the
documented formats and formulas (the params blob layout, the kernel and
co-kriging formulas in the module docstrings, the beam closed forms) with
plain dense numpy, so a check that compares the program against these can
fail when the program is wrong.
"""

from __future__ import annotations

import base64
import json
import math

import numpy as np

# ---------------------------------------------------------------------------
# accuracy


def normalized_rmse(pred, truth) -> float:
    """sqrt(sum((y - yhat)^2) / sum(y^2))."""
    p = np.asarray(pred, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    return math.sqrt(float(np.sum((t - p) ** 2)) / float(np.sum(t * t)))


# ---------------------------------------------------------------------------
# networks


def decode_params(params_b64: str) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Split a params blob (JSON header, newline, little-endian f8) into
    weights W_1..W_H, W_0 and biases b_1..b_H, b_0, in header order."""
    blob = base64.b64decode(params_b64)
    cut = blob.index(b"\n")
    header = json.loads(blob[:cut].decode("utf-8"))
    flat = np.frombuffer(blob[cut + 1:], dtype="<f8")
    weights, biases, offset = [], [], 0
    for entry in header["entries"]:
        shape = tuple(entry["shape"])
        size = int(np.prod(shape))
        block = flat[offset:offset + size].reshape(shape).astype(np.float64)
        (weights if entry["name"].startswith("W") else biases).append(block)
        offset += size
    if offset != flat.size:
        raise ValueError("params payload length does not match its header")
    return weights, biases


def encode_params(params_b64: str, weights, biases) -> str:
    """Inverse of decode_params, keeping the original header."""
    blob = base64.b64decode(params_b64)
    head = blob[:blob.index(b"\n") + 1]
    flat = np.concatenate([w.ravel() for w in weights] + [b.ravel() for b in biases])
    return base64.b64encode(head + flat.astype("<f8").tobytes()).decode("ascii")


def _activate(kind: str, alpha: float, z: np.ndarray) -> np.ndarray:
    if kind == "elu":
        return np.where(z > 0, z, alpha * (np.exp(np.minimum(z, 0.0)) - 1.0))
    if kind == "relu":
        return np.maximum(z, 0.0)
    if kind == "identity":
        return z
    raise ValueError(f"unknown activation {kind!r}")


def dense_forward(arch: dict, params_b64: str, X: np.ndarray) -> np.ndarray:
    weights, biases = decode_params(params_b64)
    H = len(arch["hidden_widths"])
    outs: list[np.ndarray] = []
    y = np.asarray(X, dtype=np.float64)
    for i in range(H):
        act = arch["activations"][i]
        y = _activate(act["kind"], act.get("alpha", 1.0), y @ weights[i].T + biases[i])
        for s, t in arch["skips"]:
            if t == i + 1:
                y = y + outs[s - 1]
        outs.append(y)
    return y @ weights[H][0] + biases[H][0]


def _unscale(scaler: dict, v: np.ndarray) -> np.ndarray:
    return v * scaler["scale"][0] + scaler["mean"][0]


def _scale_inputs(scaler: dict, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=np.float64)
    return (X - np.asarray(scaler["mean"])) / np.asarray(scaler["scale"])


def network_predict(artifact: dict, X: np.ndarray) -> np.ndarray:
    """Raw-unit predictions of a `network` or `stacked` artifact."""
    Xq = _scale_inputs(artifact["x_scaler"], X)
    if artifact["kind"] == "network":
        out = dense_forward(artifact["arch"], artifact["params_b64"], Xq)
    elif artifact["kind"] == "stacked":
        base = dense_forward(artifact["base"]["arch"], artifact["base"]["params_b64"], Xq)
        out = dense_forward(artifact["head"]["arch"], artifact["head"]["params_b64"], base[:, None])
    else:
        raise ValueError(f"not a network artifact: {artifact['kind']!r}")
    return _unscale(artifact["y_scaler"], out)


# ---------------------------------------------------------------------------
# kernels, GP and co-kriging

_CHUNK = 1024  # query rows per block, so the oracles add little to the peak RSS


def _sqdist(X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    diff = X[:, None, :] - Z[None, :, :]
    return np.einsum("ijk,ijk->ij", diff, diff)


def _blocks(Xq: np.ndarray, cross, weights: np.ndarray) -> np.ndarray:
    """cross(block) @ weights over blocks of query rows."""
    return np.concatenate([cross(Xq[i:i + _CHUNK]) @ weights
                           for i in range(0, Xq.shape[0], _CHUNK)])


def kernel_cross(kernel: dict, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Covariance between distinct point sets; white noise contributes zero."""
    kind = kernel["kind"]
    if kind == "sum":
        return sum(kernel_cross(p, X, Z) for p in kernel["parts"])
    if kind == "rbf":
        return kernel["amplitude"] ** 2 * np.exp(-_sqdist(X, Z) / (2.0 * kernel["length"] ** 2))
    if kind == "white_noise":
        return np.zeros((X.shape[0], Z.shape[0]))
    raise ValueError(f"oracle has no kernel kind {kind!r}")


def kernel_gram(kernel: dict, X: np.ndarray) -> np.ndarray:
    """Training covariance; white noise adds amplitude^2 on the diagonal."""
    kind = kernel["kind"]
    if kind == "sum":
        return sum(kernel_gram(p, X) for p in kernel["parts"])
    if kind == "white_noise":
        return kernel["amplitude"] ** 2 * np.eye(X.shape[0])
    return kernel_cross(kernel, X, X)


def _dense_nll(K: np.ndarray, y: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(K)
    if sign <= 0:
        raise ValueError("covariance is not positive definite")
    return float(0.5 * y @ np.linalg.solve(K, y) + 0.5 * logdet
                 + 0.5 * y.size * math.log(2.0 * math.pi))


def gp_mean(kernel: dict, noise_var: float, X: np.ndarray, y: np.ndarray,
            Xq: np.ndarray) -> np.ndarray:
    K = kernel_gram(kernel, X) + noise_var * np.eye(X.shape[0])
    return _blocks(Xq, lambda Q: kernel_cross(kernel, Q, X), np.linalg.solve(K, y))


def gp_nll(kernel: dict, noise_var: float, X: np.ndarray, y: np.ndarray) -> float:
    return _dense_nll(kernel_gram(kernel, X) + noise_var * np.eye(X.shape[0]), y)


def _ck_joint(a: dict, X_h, X_l):
    kl, kc, rho = a["kernel_l"], a["kernel_corr"], a["rho"]
    K_hh = rho ** 2 * kernel_gram(kl, X_h) + kernel_gram(kc, X_h) + a["noise_h"] * np.eye(len(X_h))
    K_hl = rho * kernel_cross(kl, X_h, X_l)
    K_ll = kernel_gram(kl, X_l) + a["noise_l"] * np.eye(len(X_l))
    return np.block([[K_hh, K_hl], [K_hl.T, K_ll]])


def ck_mean(a: dict, Xq: np.ndarray) -> np.ndarray:
    """High-fidelity posterior mean of a co-kriging artifact, scaled units."""
    X_h, X_l = np.asarray(a["x_h"]), np.asarray(a["x_l"])
    y = np.concatenate([a["y_h"], a["y_l"]])

    def cross(Q):
        return np.hstack([a["rho"] ** 2 * kernel_cross(a["kernel_l"], Q, X_h)
                          + kernel_cross(a["kernel_corr"], Q, X_h),
                          a["rho"] * kernel_cross(a["kernel_l"], Q, X_l)])
    return _blocks(Xq, cross, np.linalg.solve(_ck_joint(a, X_h, X_l), y))


def ck_nll(a: dict) -> float:
    X_h, X_l = np.asarray(a["x_h"]), np.asarray(a["x_l"])
    return _dense_nll(_ck_joint(a, X_h, X_l), np.concatenate([a["y_h"], a["y_l"]]))


def gp_artifact_predict(a: dict, X: np.ndarray) -> np.ndarray:
    """Raw-unit posterior mean of a `gp` or `cokriging` artifact."""
    Xq = _scale_inputs(a["x_scaler"], X)
    if a["kind"] == "gp":
        mean = gp_mean(a["kernel"], a["noise_var"], np.asarray(a["x_fit"]),
                       np.asarray(a["y_fit"]), Xq)
    elif a["kind"] == "cokriging":
        mean = ck_mean(a, Xq)
    else:
        raise ValueError(f"not a GP artifact: {a['kind']!r}")
    return _unscale(a["y_scaler"], mean)


def artifact_predict(a: dict, X: np.ndarray) -> np.ndarray:
    if a["kind"] in ("network", "stacked"):
        return network_predict(a, X)
    return gp_artifact_predict(a, X)


# ---------------------------------------------------------------------------
# composite cantilever beam, vectorized over SI rows (q, E1, E2, E3)

LENGTH, WIDTH, HOLE_RADIUS, H1, H2, H3 = 50.0, 1.0, 1.5, 0.1, 0.1, 5.0
C1 = 0.3
NOMINAL = np.array([10e3, 1.0e6, 1.0e6, 10e3])


def homogenized_ei(X: np.ndarray) -> np.ndarray:
    """Transformed-section stiffness, web as reference material."""
    X = np.atleast_2d(X)
    e1, e2, e3 = X[:, 1], X[:, 2], X[:, 3]
    widths = np.stack([WIDTH * e2 / e3, np.full_like(e3, WIDTH), WIDTH * e1 / e3], axis=1)
    heights = np.array([H2, H3, H1])
    centers = np.array([H2 / 2.0, H2 + H3 / 2.0, H2 + H3 + H1 / 2.0])
    areas = widths * heights
    neutral = (areas @ centers) / areas.sum(axis=1)
    inertia = np.sum(widths * heights ** 3 / 12.0
                     + areas * (centers[None, :] - neutral[:, None]) ** 2, axis=1)
    return e3 * inertia


def lowfi_tip(X: np.ndarray) -> np.ndarray:
    """-q L^4 / (8 EI)."""
    X = np.atleast_2d(X)
    return -X[:, 0] * LENGTH ** 4 / (8.0 * homogenized_ei(X))


def highfi_tip(X: np.ndarray) -> np.ndarray:
    """y_h = y_l (1 + c1 (r/h3)^2 g) + c2 a, with g, a, t, w_s, e_s as in the
    high-fidelity stand-in's docstring and c2 = 5% of |nominal y_l|."""
    X = np.atleast_2d(X)
    y_l = lowfi_tip(X)
    t = (X[:, 0] / NOMINAL[0]) / (homogenized_ei(X) / homogenized_ei(NOMINAL)[0]) - 1.0
    w_s = 10.0 * (X[:, 1] - X[:, 2]) / (X[:, 1] + X[:, 2])
    e_s = 10.0 * (X[:, 3] / NOMINAL[3] - 1.0)
    g = t + 0.25 * t * t + 0.12 * w_s
    a = t + 0.5 * np.sin(2.5 * t) + 0.15 * w_s + 0.1 * e_s
    c2 = 0.05 * abs(lowfi_tip(NOMINAL)[0])
    return y_l * (1.0 + C1 * (HOLE_RADIUS / H3) ** 2 * g) + c2 * a


# default sampling box (SI): q in [9, 11] kN/m, E1/E2 in [0.9, 1.1] MPa, E3 in [9, 11] kPa
BOX_LO = np.array([9e3, 0.9e6, 0.9e6, 9e3])
BOX_HI = np.array([11e3, 1.1e6, 1.1e6, 11e3])
