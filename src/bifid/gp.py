"""Gaussian-process regression with a zero-mean prior.

Kernels are immutable dataclasses.  A hyperparameter is free for optimization
exactly when it carries a (lower, upper) bounds pair with lower < upper;
bounds with lower == upper pin it, absent bounds fix it at its value.

White noise uses the on-index reading: it contributes amplitude^2 to the
training Gram diagonal only, and zero cross-covariance to query points, which
makes it equivalent to extra observation noise during fitting.  The prior
variance at a query point (kernel evaluated at a pair of identical vectors)
does include the white-noise floor.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
from scipy.linalg import LinAlgError, cho_solve, cholesky
from scipy.optimize import minimize
from scipy.spatial.distance import cdist

from .errors import ConfigurationError, IllConditionedKernelError, OptimizationError
from .schema import parse

Bounds = tuple[float, float]


def _check_positive(name: str, value: float) -> None:
    if not value > 0:
        raise ConfigurationError(f"{name} must be positive, got {value}")


def _check_bounds(name: str, value: float, bounds: Bounds | None) -> None:
    if bounds is None:
        return
    lo, hi = bounds
    if not (0 < lo <= hi):
        raise ConfigurationError(f"{name} bounds must satisfy 0 < lower <= upper")
    if not (lo <= value <= hi):
        raise ConfigurationError(f"{name} value {value} lies outside bounds [{lo}, {hi}]")


class Kernel:
    """Base for covariance functions; subclasses are frozen dataclasses."""

    _hyper_names: tuple[str, ...] = ()

    def gram(self, X: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def cross(self, X: np.ndarray, Z: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def diag(self, X: np.ndarray) -> np.ndarray:
        """Prior variance kappa(x, x) for each row."""
        raise NotImplementedError

    def point(self, x: np.ndarray, z: np.ndarray) -> float:
        """Scalar kernel value; white noise compares the vectors themselves."""
        raise NotImplementedError

    def free_params(self, prefix: str = "") -> list[tuple[str, float, Bounds]]:
        out = []
        for name in self._hyper_names:
            bounds = getattr(self, f"{name}_bounds")
            if bounds is not None and bounds[0] < bounds[1]:
                out.append((prefix + name, getattr(self, name), bounds))
        return out

    def with_values(self, values: dict[str, float], prefix: str = "") -> "Kernel":
        updates = {}
        for name in self._hyper_names:
            key = prefix + name
            if key in values:
                updates[name] = values[key]
        return replace(self, **updates) if updates else self


@dataclass(frozen=True)
class RBF(Kernel):
    """amplitude^2 * exp(-|x-z|^2 / (2 length^2))"""

    amplitude: float = 1.0
    length: float = 1.0
    amplitude_bounds: Bounds | None = None
    length_bounds: Bounds | None = None

    _hyper_names = ("amplitude", "length")

    def __post_init__(self):
        _check_positive("amplitude", self.amplitude)
        _check_positive("length", self.length)
        _check_bounds("amplitude", self.amplitude, self.amplitude_bounds)
        _check_bounds("length", self.length, self.length_bounds)

    def _from_sq(self, d2: np.ndarray) -> np.ndarray:
        return self.amplitude**2 * np.exp(-d2 / (2.0 * self.length**2))

    def gram(self, X):
        return self._from_sq(cdist(X, X, "sqeuclidean"))

    def cross(self, X, Z):
        return self._from_sq(cdist(X, Z, "sqeuclidean"))

    def diag(self, X):
        return np.full(X.shape[0], self.amplitude**2)

    def point(self, x, z):
        d2 = float(np.sum((np.asarray(x) - np.asarray(z)) ** 2))
        return float(self.amplitude**2 * np.exp(-d2 / (2.0 * self.length**2)))


@dataclass(frozen=True)
class RationalQuadratic(Kernel):
    """amplitude^2 * (1 + |x-z|^2 / (2 shape length^2))^(-shape)"""

    amplitude: float = 1.0
    shape: float = 1.0
    length: float = 1.0
    amplitude_bounds: Bounds | None = None
    shape_bounds: Bounds | None = None
    length_bounds: Bounds | None = None

    _hyper_names = ("amplitude", "shape", "length")

    def __post_init__(self):
        _check_positive("amplitude", self.amplitude)
        _check_positive("shape", self.shape)
        _check_positive("length", self.length)
        _check_bounds("amplitude", self.amplitude, self.amplitude_bounds)
        _check_bounds("shape", self.shape, self.shape_bounds)
        _check_bounds("length", self.length, self.length_bounds)

    def _from_sq(self, d2: np.ndarray) -> np.ndarray:
        base = 1.0 + d2 / (2.0 * self.shape * self.length**2)
        return self.amplitude**2 * base ** (-self.shape)

    def gram(self, X):
        return self._from_sq(cdist(X, X, "sqeuclidean"))

    def cross(self, X, Z):
        return self._from_sq(cdist(X, Z, "sqeuclidean"))

    def diag(self, X):
        return np.full(X.shape[0], self.amplitude**2)

    def point(self, x, z):
        d2 = float(np.sum((np.asarray(x) - np.asarray(z)) ** 2))
        return float(self._from_sq(np.array(d2)))


@dataclass(frozen=True)
class Matern(Kernel):
    """Closed-form Matern; nu must be one of 0.5, 1.5, 2.5."""

    amplitude: float = 1.0
    length: float = 1.0
    nu: float = 2.5
    amplitude_bounds: Bounds | None = None
    length_bounds: Bounds | None = None

    _hyper_names = ("amplitude", "length")

    def __post_init__(self):
        _check_positive("amplitude", self.amplitude)
        _check_positive("length", self.length)
        if self.nu not in (0.5, 1.5, 2.5):
            raise ConfigurationError("nu must be one of 0.5, 1.5, 2.5")
        _check_bounds("amplitude", self.amplitude, self.amplitude_bounds)
        _check_bounds("length", self.length, self.length_bounds)

    def _from_r(self, r: np.ndarray) -> np.ndarray:
        a2 = self.amplitude**2
        s = r / self.length
        if self.nu == 0.5:
            return a2 * np.exp(-s)
        if self.nu == 1.5:
            t = math.sqrt(3.0) * s
            return a2 * (1.0 + t) * np.exp(-t)
        t = math.sqrt(5.0) * s
        return a2 * (1.0 + t + t * t / 3.0) * np.exp(-t)

    def gram(self, X):
        return self._from_r(cdist(X, X, "euclidean"))

    def cross(self, X, Z):
        return self._from_r(cdist(X, Z, "euclidean"))

    def diag(self, X):
        return np.full(X.shape[0], self.amplitude**2)

    def point(self, x, z):
        r = float(np.linalg.norm(np.asarray(x, dtype=float) - np.asarray(z, dtype=float)))
        return float(self._from_r(np.array(r)))


@dataclass(frozen=True)
class WhiteNoise(Kernel):
    """amplitude^2 on the training Gram diagonal; zero to any query point."""

    amplitude: float = 1.0
    amplitude_bounds: Bounds | None = None

    _hyper_names = ("amplitude",)

    def __post_init__(self):
        _check_positive("amplitude", self.amplitude)
        _check_bounds("amplitude", self.amplitude, self.amplitude_bounds)

    def gram(self, X):
        return self.amplitude**2 * np.eye(X.shape[0])

    def cross(self, X, Z):
        return np.zeros((X.shape[0], Z.shape[0]))

    def diag(self, X):
        return np.full(X.shape[0], self.amplitude**2)

    def point(self, x, z):
        same = np.array_equal(np.asarray(x, dtype=float), np.asarray(z, dtype=float))
        return float(self.amplitude**2) if same else 0.0


@dataclass(frozen=True)
class SumKernel(Kernel):
    parts: tuple[Kernel, ...]

    def __post_init__(self):
        object.__setattr__(self, "parts", tuple(self.parts))
        if len(self.parts) < 1:
            raise ConfigurationError("sum kernel needs at least one part")

    def gram(self, X):
        return sum(p.gram(X) for p in self.parts)

    def cross(self, X, Z):
        return sum(p.cross(X, Z) for p in self.parts)

    def diag(self, X):
        return sum(p.diag(X) for p in self.parts)

    def point(self, x, z):
        return float(sum(p.point(x, z) for p in self.parts))

    def free_params(self, prefix: str = ""):
        out = []
        for i, p in enumerate(self.parts):
            out.extend(p.free_params(prefix=f"{prefix}{i}."))
        return out

    def with_values(self, values, prefix: str = ""):
        parts = tuple(
            p.with_values(values, prefix=f"{prefix}{i}.") for i, p in enumerate(self.parts)
        )
        return SumKernel(parts)


_KERNEL_TAGS = {
    "rbf": RBF,
    "rational_quadratic": RationalQuadratic,
    "matern": Matern,
    "white_noise": WhiteNoise,
    "sum": SumKernel,
}


def kernel_to_dict(kernel: Kernel) -> dict:
    if isinstance(kernel, SumKernel):
        return {"kind": "sum", "parts": [kernel_to_dict(p) for p in kernel.parts]}
    for tag, cls in _KERNEL_TAGS.items():
        if type(kernel) is cls:
            out: dict = {"kind": tag}
            for f in fields(kernel):
                value = getattr(kernel, f.name)
                if value is None:
                    continue
                out[f.name] = list(value) if f.name.endswith("_bounds") else value
            return out
    raise ConfigurationError(f"unserializable kernel type {type(kernel).__name__}")


def kernel_from_dict(obj: dict, path: str = "kernel") -> Kernel:
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    kind = obj.get("kind")
    cls = _KERNEL_TAGS.get(kind) if isinstance(kind, str) else None
    if cls is None:
        raise ConfigurationError(f"{path}.kind: unknown kernel kind {kind!r}")
    body = {key: value for key, value in obj.items() if key != "kind"}
    return parse(cls, body, path, {Kernel: kernel_from_dict})


def stabilized_cholesky(K: np.ndarray) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of K, adding escalating jitter if needed.

    Tries the matrix as given, then jitter from 1e-12 to 1e-6 times the mean
    diagonal, stepping by factors of ten.  Raises naming the final jitter.
    """
    n = K.shape[0]
    scale = float(np.trace(K)) / n
    jitters = [0.0] + [scale * 10.0**e for e in range(-12, -5)]
    for j in jitters:
        try:
            M = K if j == 0.0 else K + j * np.eye(n)
            return cholesky(M, lower=True), j
        except LinAlgError:
            continue
    raise IllConditionedKernelError(final_jitter=jitters[-1])


@dataclass
class GPModel:
    """Posterior state after conditioning on (X, y); treat as immutable.

    ``clamp_count`` is a diagnostics tally of negative predicted variances
    that were clamped to zero; it is the one mutable field.
    """

    X: np.ndarray
    y: np.ndarray
    kernel: Kernel
    noise_var: float
    L: np.ndarray
    dual: np.ndarray
    jitter: float
    nll: float | None = None
    clamp_count: int = field(default=0, compare=False)


def _validate_xy(X: np.ndarray, y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
        raise ConfigurationError("X must be (N, d) and y (N,) with matching N")
    if X.shape[0] < 1:
        raise ConfigurationError("at least one training point is required")
    if not (np.all(np.isfinite(X)) and np.all(np.isfinite(y))):
        raise ConfigurationError("training data must be finite")
    return X, y


def gp_fit(X: np.ndarray, y: np.ndarray, kernel: Kernel, noise_var: float = 0.0) -> GPModel:
    X, y = _validate_xy(X, y)
    if noise_var < 0:
        raise ConfigurationError("noise_var must be >= 0")
    K = kernel.gram(X) + noise_var * np.eye(X.shape[0])
    L, jitter = stabilized_cholesky(K)
    dual = cho_solve((L, True), y)
    return GPModel(X=X.copy(), y=y.copy(), kernel=kernel, noise_var=float(noise_var),
                   L=L, dual=dual, jitter=jitter)


def gp_predict(model: GPModel, x: np.ndarray) -> tuple[float, float]:
    """Posterior mean and variance at one point; variance clamped at zero."""
    x = np.asarray(x, dtype=np.float64)
    if x.shape != (model.X.shape[1],):
        raise ConfigurationError(f"query has shape {x.shape}, expected ({model.X.shape[1]},)")
    k = model.kernel.cross(model.X, x[None, :])[:, 0]
    mean = float(k @ model.dual)
    var = float(model.kernel.point(x, x) - k @ cho_solve((model.L, True), k))
    if var < 0.0:
        var = 0.0
        model.clamp_count += 1
    return mean, var


def gp_predict_batch(model: GPModel, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Vectorized posterior means and variances over query rows."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != model.X.shape[1]:
        raise ConfigurationError("query batch has the wrong shape")
    K = model.kernel.cross(model.X, X)
    means = K.T @ model.dual
    sol = cho_solve((model.L, True), K)
    variances = model.kernel.diag(X) - np.einsum("ij,ij->j", K, sol)
    negative = variances < 0.0
    if negative.any():
        model.clamp_count += int(negative.sum())
        variances = np.where(negative, 0.0, variances)
    return means, variances


def gp_nll(X: np.ndarray, y: np.ndarray, kernel: Kernel, noise_var: float = 0.0) -> float:
    """Negative log marginal likelihood (same stabilization as gp_fit)."""
    X, y = _validate_xy(X, y)
    if noise_var < 0:
        raise ConfigurationError("noise_var must be >= 0")
    K = kernel.gram(X) + noise_var * np.eye(X.shape[0])
    L, _ = stabilized_cholesky(K)
    alpha = cho_solve((L, True), y)
    n = X.shape[0]
    return float(0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * math.log(2.0 * math.pi))


def gp_optimize(
    X: np.ndarray,
    y: np.ndarray,
    kernel_template: Kernel,
    noise_bounds: Bounds | None = None,
    rng: np.random.Generator | None = None,
    noise_var: float = 0.0,
    n_restarts: int = 8,
) -> GPModel:
    """Minimize the NLL over log-hyperparameters within bounds.

    Multi-start Nelder-Mead; the template's own values are always the first
    start, so the result is never worse than the template.  Deterministic
    given the rng state.
    """
    X, y = _validate_xy(X, y)
    free = kernel_template.free_params()
    names = [name for name, _, _ in free]
    x0 = [value for _, value, _ in free]
    bounds = [b for _, _, b in free]
    optimize_noise = noise_bounds is not None and noise_bounds[0] < noise_bounds[1]
    if noise_bounds is not None:
        lo, hi = noise_bounds
        if not (0 <= lo <= hi):
            raise ConfigurationError("noise bounds must satisfy 0 <= lower <= upper")
        if optimize_noise and lo <= 0:
            raise ConfigurationError("noise lower bound must be positive to search in log space")
        if not optimize_noise:
            noise_var = lo
    if optimize_noise:
        names.append("__noise__")
        x0.append(min(max(noise_var, noise_bounds[0]), noise_bounds[1]) if noise_var > 0 else
                  math.sqrt(noise_bounds[0] * noise_bounds[1]))
        bounds.append(noise_bounds)

    def build(log_theta: np.ndarray) -> tuple[Kernel, float]:
        # exp(log(b)) can overshoot b by one ulp, so clip in linear space
        values = {
            name: min(max(math.exp(lt), b[0]), b[1])
            for (name, lt, b) in zip(names, log_theta, bounds)
        }
        nv = values.pop("__noise__", noise_var)
        return kernel_template.with_values(values), float(nv)

    if not names:
        model = gp_fit(X, y, kernel_template, noise_var)
        model.nll = gp_nll(X, y, kernel_template, noise_var)
        return model

    log_lo = np.log([b[0] for b in bounds])
    log_hi = np.log([b[1] for b in bounds])

    def objective(log_theta: np.ndarray) -> float:
        kernel, nv = build(np.clip(log_theta, log_lo, log_hi))
        try:
            value = gp_nll(X, y, kernel, nv)
        except IllConditionedKernelError:
            return np.inf
        return value if np.isfinite(value) else np.inf

    if rng is None:
        rng = np.random.default_rng(0)
    starts = [np.log(np.clip(x0, np.exp(log_lo), np.exp(log_hi)))]
    for _ in range(max(0, n_restarts - 1)):
        starts.append(log_lo + rng.uniform(size=len(names)) * (log_hi - log_lo))

    best_theta, best_val = multistart_minimize(objective, starts, log_lo, log_hi)
    kernel, nv = build(np.clip(best_theta, log_lo, log_hi))
    model = gp_fit(X, y, kernel, nv)
    model.nll = best_val
    return model


def multistart_minimize(
    objective, starts: list[np.ndarray], lo: np.ndarray, hi: np.ndarray
) -> tuple[np.ndarray, float]:
    """Nelder-Mead from each start within box bounds; best finite point wins.

    Every start itself is also a candidate, so a feasible seeded point can
    never be lost to a diverging search.  Raises when no start produces a
    finite objective anywhere.
    """
    best_val = np.inf
    best_x = None
    for start in starts:
        res = minimize(
            objective,
            start,
            method="Nelder-Mead",
            bounds=list(zip(lo, hi)),
            options={"xatol": 1e-6, "fatol": 1e-10, "maxiter": 500 * len(start)},
        )
        candidates = [(objective(start), start)]
        if np.isfinite(res.fun):
            candidates.append((res.fun, res.x))
        for val, x in candidates:
            if val < best_val:
                best_val = val
                best_x = x
    if best_x is None:
        raise OptimizationError(
            f"all {len(starts)} hyperparameter starts failed; no finite objective found"
        )
    return best_x, best_val
