"""Stochastic training loop: Adam on flat parameter vectors.

The loop draws one sample per step, uniformly with replacement; there is no
mini-batching.  A freeze mask pins arbitrary parameter components: masked-out
entries of the parameter vector and of both Adam accumulators stay
bit-identical to their inputs.  Per-sample weights scale the learning rate
for the step on which that sample is drawn.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .datasets import Dataset
from .errors import ConfigurationError
from .network import NetworkParams, NetworkSpec, grad_sample_flat, loss_mse, validate_params


@dataclass(frozen=True)
class AdamConfig:
    """Step-size schedule and moment decay rates.

    ``eta`` is either a constant or a sequence indexed by step (1-based);
    a sequence must cover every step up to ``max_steps``.
    """

    eta: float | Sequence[float] = 1e-3
    b_m: float = 0.9
    b_v: float = 0.999
    eps: float = 1e-8
    max_steps: int = 50_000
    loss_stride: int = 100

    def __post_init__(self):
        if np.isscalar(self.eta):
            if not self.eta > 0:
                raise ConfigurationError("eta must be positive")
        else:
            etas = np.asarray(self.eta, dtype=np.float64)
            if etas.ndim != 1 or len(etas) < self.max_steps:
                raise ConfigurationError(
                    "eta schedule must be 1-d with at least max_steps entries"
                )
            if not np.all(etas > 0):
                raise ConfigurationError("every eta in the schedule must be positive")
        if not (0.0 <= self.b_m < 1.0 and 0.0 <= self.b_v < 1.0):
            raise ConfigurationError("decay rates must lie in [0, 1)")
        if not self.eps > 0:
            raise ConfigurationError("eps must be positive")
        if self.max_steps < 0:
            raise ConfigurationError("max_steps must be >= 0")
        if self.loss_stride < 1:
            raise ConfigurationError("loss_stride must be >= 1")

    def eta_at(self, k: int) -> float:
        """Learning rate for 1-based step k."""
        if np.isscalar(self.eta):
            return float(self.eta)
        return float(self.eta[k - 1])


@dataclass(frozen=True)
class TrainMask:
    """Boolean flag per flat parameter component; True means trainable."""

    flags: np.ndarray

    def __post_init__(self):
        flags = np.asarray(self.flags, dtype=bool)
        if flags.ndim != 1:
            raise ConfigurationError("mask flags must be 1-d")
        if not flags.any():
            raise ConfigurationError("mask must leave at least one component trainable")
        object.__setattr__(self, "flags", flags)

    @classmethod
    def upper_layers(cls, spec: NetworkSpec, n_adapt: int) -> "TrainMask":
        """Unfreeze the top ``n_adapt`` hidden layers plus the output layer."""
        H = spec.n_hidden
        if not 0 <= n_adapt <= H:
            raise ConfigurationError(f"n_adapt must lie in [0, {H}]")
        flags = np.zeros(spec.n_params, dtype=bool)
        open_layers = {f"{kind}{i}" for i in range(H - n_adapt + 1, H + 1) for kind in "Wb"}
        open_layers |= {"W0", "b0"}
        for entry in spec.layout:
            if entry.name in open_layers:
                flags[entry.span] = True
        return cls(flags)


def _adam_update(
    p: np.ndarray,
    m: np.ndarray,
    v: np.ndarray,
    grad: np.ndarray,
    k_done: int,
    eta_k: float,
    weight: float,
    flags: np.ndarray | None,
    b_m: float,
    b_v: float,
    eps: float,
) -> int:
    """One in-place bias-corrected Adam step; the sample weight scales eta_k."""
    if not eta_k > 0:
        raise ConfigurationError("eta_k must be positive")
    if not weight > 0:
        raise ConfigurationError("sample weight must be positive")
    k = k_done + 1
    eta_hat = eta_k * weight
    m_new = b_m * m + (1.0 - b_m) * grad
    v_new = b_v * v + (1.0 - b_v) * (grad * grad)
    m_hat = m_new / (1.0 - b_m**k)
    v_hat = v_new / (1.0 - b_v**k)
    step = eta_hat * m_hat / (np.sqrt(v_hat) + eps)
    if flags is None:
        m[:] = m_new
        v[:] = v_new
        p -= step
    else:
        np.copyto(m, m_new, where=flags)
        np.copyto(v, v_new, where=flags)
        np.subtract(p, step, out=p, where=flags)
    return k


def train(
    spec: NetworkSpec,
    params0: NetworkParams,
    data: Dataset,
    cfg: AdamConfig,
    rng: np.random.Generator,
    mask: TrainMask | None = None,
    weights: np.ndarray | None = None,
) -> tuple[NetworkParams, list[tuple[int, float]]]:
    """Run single-sample Adam from params0; returns final params and loss history.

    The history holds (step, full-dataset MSE) at step 0, every
    ``cfg.loss_stride`` steps, and at the final step.  Pure in
    (spec, params0, data, cfg, mask, weights, rng state).
    """
    validate_params(spec, params0)
    if data.dim != spec.input_dim:
        raise ConfigurationError(
            f"dataset dimension {data.dim} does not match spec input_dim {spec.input_dim}"
        )
    N = len(data)
    if weights is not None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.shape != (N,):
            raise ConfigurationError("weights must have one entry per data row")
        if not np.all(weights > 0):
            raise ConfigurationError("sample weights must be positive")
    flags = None
    if mask is not None:
        if mask.flags.shape != (spec.n_params,):
            raise ConfigurationError("mask length does not match parameter count")
        flags = mask.flags

    flat = params0.to_flat()
    view = NetworkParams.from_flat(spec, flat, copy=False)
    m = np.zeros(spec.n_params)
    v = np.zeros(spec.n_params)
    draws = rng.integers(0, N, size=cfg.max_steps)

    history: list[tuple[int, float]] = [(0, loss_mse(spec, view, data))]
    k = 0
    for k in range(1, cfg.max_steps + 1):
        i = int(draws[k - 1])
        g = grad_sample_flat(spec, view, data.inputs[i], data.outputs[i])
        w = float(weights[i]) if weights is not None else 1.0
        _adam_update(flat, m, v, g, k - 1, cfg.eta_at(k), w, flags, cfg.b_m, cfg.b_v, cfg.eps)
        if k % cfg.loss_stride == 0:
            history.append((k, loss_mse(spec, view, data)))
    if history[-1][0] != k:
        history.append((k, loss_mse(spec, view, data)))
    return NetworkParams.from_flat(spec, flat, copy=True), history
