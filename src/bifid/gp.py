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
from collections.abc import Iterator
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

    def gram_grads(self, X: np.ndarray) -> Iterator[np.ndarray]:
        """d gram(X) / d log(h) for each free hyperparameter h, in
        ``free_params`` order, one matrix at a time."""
        raise NotImplementedError

    def _free_names(self) -> list[str]:
        return [name for name in self._hyper_names
                if (b := getattr(self, f"{name}_bounds")) is not None and b[0] < b[1]]

    def free_params(self, prefix: str = "") -> list[tuple[str, float, Bounds]]:
        return [(prefix + name, getattr(self, name), getattr(self, f"{name}_bounds"))
                for name in self._free_names()]

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

    def gram_grads(self, X):
        d2 = cdist(X, X, "sqeuclidean")
        K = self._from_sq(d2)
        for name in self._free_names():
            yield 2.0 * K if name == "amplitude" else K * d2 / self.length**2


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

    def gram_grads(self, X):
        d2 = cdist(X, X, "sqeuclidean")
        base = 1.0 + d2 / (2.0 * self.shape * self.length**2)
        K = self.amplitude**2 * base ** (-self.shape)
        for name in self._free_names():
            if name == "amplitude":
                yield 2.0 * K
            elif name == "shape":
                yield self.shape * K * ((base - 1.0) / base - np.log(base))
            else:
                yield K * d2 / (self.length**2 * base)


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

    def gram_grads(self, X):
        r = cdist(X, X, "euclidean")
        for name in self._free_names():
            if name == "amplitude":
                yield 2.0 * self._from_r(r)
                continue
            # d/d log(length) of the closed forms, in t = sqrt(2 nu) r / length
            t = math.sqrt(2.0 * self.nu) * r / self.length
            if self.nu == 0.5:
                poly = t
            elif self.nu == 1.5:
                poly = t * t
            else:
                poly = t * t * (1.0 + t) / 3.0
            yield self.amplitude**2 * poly * np.exp(-t)


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

    def gram_grads(self, X):
        if self._free_names():
            yield 2.0 * self.gram(X)


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

    def gram_grads(self, X):
        for p in self.parts:
            yield from p.gram_grads(X)

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


def nll_weights(L: np.ndarray, alpha: np.ndarray) -> np.ndarray:
    """K^-1 - alpha alpha^T from the Cholesky factor of K, so that the NLL's
    derivative along any dK is 0.5 * sum(W * dK) (R&W 2006, eq. 5.9)."""
    # not lapack's potri: OpenBLAS runs it threaded even on a 20x20 factor,
    # which kept the BLAS threads spinning in every replicate worker
    W = cho_solve((L, True), np.eye(L.shape[0]))
    W -= np.outer(alpha, alpha)
    return W


def trace_product(A: np.ndarray, B: np.ndarray) -> float:
    """sum(A * B), which is tr(A B^T).  einsum keeps it off BLAS: numpy's
    threaded dot product over a whole Gram kept numpy's BLAS threads spinning
    beside scipy's and tripled the co-kriging fit time on 2 cores."""
    return float(np.einsum("ij,ij->", A, B))


def gp_nll(
    X: np.ndarray, y: np.ndarray, kernel: Kernel, noise_var: float = 0.0, *, grad: bool = False
):
    """Negative log marginal likelihood (same stabilization as gp_fit).

    With ``grad=True`` returns ``(nll, g)``: g holds the derivatives with
    respect to the log of each free kernel hyperparameter, in ``free_params``
    order, and last with respect to log(noise_var).
    """
    X, y = _validate_xy(X, y)
    if noise_var < 0:
        raise ConfigurationError("noise_var must be >= 0")
    K = kernel.gram(X) + noise_var * np.eye(X.shape[0])
    L, _ = stabilized_cholesky(K)
    alpha = cho_solve((L, True), y)
    n = X.shape[0]
    value = float(
        0.5 * y @ alpha + np.sum(np.log(np.diag(L))) + 0.5 * n * math.log(2.0 * math.pi))
    if not grad:
        return value
    W = nll_weights(L, alpha)
    g = [0.5 * trace_product(W, dK) for dK in kernel.gram_grads(X)]
    g.append(0.5 * noise_var * np.trace(W))
    return value, np.array(g)


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

    Multi-start L-BFGS-B on the analytic NLL gradient.  The template's own
    values are the first start and the others are drawn uniformly in the log
    box, so the result is never worse than the template.  Deterministic given
    the rng state.
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

    def objective(log_theta: np.ndarray) -> tuple[float, np.ndarray]:
        kernel, nv = build(np.clip(log_theta, log_lo, log_hi))
        try:
            value, g = gp_nll(X, y, kernel, nv, grad=True)
        except IllConditionedKernelError:
            return np.inf, np.zeros_like(log_theta)
        return value, g if optimize_noise else g[:-1]

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
    """L-BFGS-B from each start within box bounds; best finite point wins.

    ``objective(x)`` returns the value and its gradient, and an infinite value
    at an infeasible point.  Every point evaluated is a candidate, each start
    among them, so a feasible seeded point can never be lost to a diverging
    search.  An infeasible start is not searched from.  Raises when no start
    produces a finite objective anywhere.
    """
    best_val = np.inf
    best_x = None

    def tracked(x: np.ndarray) -> tuple[float, np.ndarray]:
        nonlocal best_val, best_x
        value, g = objective(x)
        if not np.isfinite(value):
            return np.inf, np.zeros_like(x)
        if value < best_val:
            best_val, best_x = value, x.copy()
        return value, g

    for start in starts:
        value, g = tracked(start)
        if not np.isfinite(value):
            continue
        # on a fully boxed problem L-BFGS-B's first step is the whole projected
        # gradient step; scaling the objective makes that step unit length
        scale = 1.0 / max(1.0, float(np.linalg.norm(g)))
        minimize(lambda x: tuple(scale * v for v in tracked(x)), start, jac=True,
                 method="L-BFGS-B", bounds=list(zip(lo, hi)),
                 options={"ftol": 1e-10, "gtol": 1e-6, "maxiter": 1000})
    if best_x is None:
        raise OptimizationError(
            f"all {len(starts)} hyperparameter starts failed; no finite objective found"
        )
    return best_x, best_val
