"""Bi-fidelity transfer strategies.

Three ways to move a network trained on plentiful low-fidelity data toward
scarce high-fidelity data:

- layer freezing (``bftl1``): retrain only the uppermost layers on the
  high-fidelity samples;
- output mapping (``bftl2``): freeze the whole network and learn a shallow
  scalar-to-scalar correction head on its output;
- weighted distillation (``bfwl``): fit a GP teacher to the high-fidelity
  samples, relabel all inputs with its posterior mean, and retrain the whole
  network on those soft targets with per-sample step sizes shrunk where the
  teacher is uncertain.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .datasets import Dataset
from .errors import ConfigurationError
from .gp import RBF, Bounds, GPModel, Kernel, SumKernel, WhiteNoise, gp_optimize, gp_predict
from .network import NetworkParams, NetworkSpec, init_params, predict_batch
from .optimizers import AdamConfig, TrainMask, train

History = list[tuple[int, float]]


@dataclass(frozen=True)
class SoftDataset:
    """Teacher-relabeled inputs: posterior means plus predictive variances."""

    inputs: np.ndarray
    means: np.ndarray
    variances: np.ndarray

    def __post_init__(self):
        X = np.ascontiguousarray(np.asarray(self.inputs, dtype=np.float64))
        mu = np.ascontiguousarray(np.asarray(self.means, dtype=np.float64))
        var = np.ascontiguousarray(np.asarray(self.variances, dtype=np.float64))
        if X.ndim != 2 or mu.shape != (X.shape[0],) or var.shape != (X.shape[0],):
            raise ConfigurationError("soft dataset rows must align: (N,d), (N,), (N,)")
        if np.any(var < 0):
            raise ConfigurationError("predictive variances must be nonnegative")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "means", mu)
        object.__setattr__(self, "variances", var)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    def as_dataset(self) -> Dataset:
        return Dataset(self.inputs, self.means)


@dataclass(frozen=True)
class StackedModel:
    """Frozen base network composed with a scalar correction head."""

    base_spec: NetworkSpec
    base_params: NetworkParams
    head_spec: NetworkSpec
    head_params: NetworkParams

    def __post_init__(self):
        if self.head_spec.input_dim != 1:
            raise ConfigurationError("correction head must consume the single base output")


def default_teacher_kernel() -> Kernel:
    # RBF started at unit scales but searched over wide bounds: a teacher fit
    # on a handful of points must be able to stretch its length scale well
    # past the inter-point spacing or its predictions collapse to the prior
    # mean away from the training data.  The white-noise amplitude bounds are
    # chosen so its square (the noise level) spans [1e-5, 1e-3].
    return SumKernel((
        RBF(amplitude=1.0, length=1.0,
            amplitude_bounds=(1e-2, 1e2), length_bounds=(1e-1, 1e2)),
        WhiteNoise(amplitude=1e-2, amplitude_bounds=(math.sqrt(1e-5), math.sqrt(1e-3))),
    ))


@dataclass(frozen=True)
class TransferConfig:
    """Distillation settings: the optimizer stage plus the teacher and trust knobs."""

    hf_train: AdamConfig
    beta: float = 0.0
    teacher_kernel: Kernel = field(default_factory=default_teacher_kernel)
    teacher_noise_bounds: Bounds | None = None


def train_lowfi(
    spec: NetworkSpec,
    data_l: Dataset,
    cfg: AdamConfig,
    init_rng: np.random.Generator,
    sgd_rng: np.random.Generator,
) -> tuple[NetworkParams, History]:
    """Stage I: full-network training on the low-fidelity data from a fresh init."""
    params0 = init_params(spec, init_rng)
    return train(spec, params0, data_l, cfg, sgd_rng)


def bftl1(
    spec: NetworkSpec,
    lf_params: NetworkParams,
    data_h: Dataset,
    cfg: AdamConfig,
    n_adapt_layers: int,
    rng: np.random.Generator,
) -> tuple[NetworkParams, History]:
    """Adapt the top ``n_adapt_layers`` hidden layers plus the output layer.

    Everything below stays bit-identical to ``lf_params``.
    """
    mask = TrainMask.upper_layers(spec, n_adapt_layers)
    return train(spec, lf_params, data_h, cfg, rng, mask=mask)


def bftl2(
    base_spec: NetworkSpec,
    lf_params: NetworkParams,
    head_spec: NetworkSpec,
    data_h: Dataset,
    cfg: AdamConfig,
    init_rng: np.random.Generator,
    sgd_rng: np.random.Generator,
) -> tuple[StackedModel, History]:
    """Freeze the base; train a scalar head on (base output, high-fidelity label)."""
    if head_spec.input_dim != 1:
        raise ConfigurationError("correction head must consume the single base output")
    base_out = predict_batch(base_spec, lf_params, data_h.inputs)
    derived = Dataset(base_out[:, None], data_h.outputs)
    head0 = init_params(head_spec, init_rng)
    head_params, history = train(head_spec, head0, derived, cfg, sgd_rng)
    return StackedModel(base_spec, lf_params.copy(), head_spec, head_params), history


def make_teacher(
    data_h: Dataset,
    kernel_template: Kernel,
    noise_bounds: Bounds | None,
    rng: np.random.Generator,
) -> GPModel:
    """Fit the GP teacher to the high-fidelity data by marginal likelihood."""
    return gp_optimize(
        data_h.inputs, data_h.outputs, kernel_template, noise_bounds=noise_bounds, rng=rng
    )


def make_soft_dataset(teacher: GPModel, X_l: np.ndarray, X_h: np.ndarray) -> SoftDataset:
    """Teacher posterior at the low-fidelity inputs followed by the high-fidelity ones."""
    X_h = np.asarray(X_h, dtype=np.float64)
    X_l = np.asarray(X_l, dtype=np.float64)
    if X_l.size == 0:
        X_l = X_l.reshape(0, X_h.shape[1])
    if X_l.ndim != 2 or X_h.ndim != 2 or X_l.shape[1] != X_h.shape[1]:
        raise ConfigurationError("input blocks must be 2-d with matching column counts")
    X = np.vstack([X_l, X_h])
    means = np.empty(X.shape[0])
    variances = np.empty(X.shape[0])
    for i in range(X.shape[0]):
        means[i], variances[i] = gp_predict(teacher, X[i])
    return SoftDataset(X, means, variances)


def distillation_weights(variances: np.ndarray, beta: float) -> np.ndarray:
    """Per-sample step-size multipliers exp(-beta * variance); beta < 0 favours
    the rows where the teacher is uncertain."""
    return np.exp(-beta * np.asarray(variances, dtype=np.float64))


def bfwl(
    spec: NetworkSpec,
    student_params: NetworkParams,
    data_l: Dataset,
    data_h: Dataset,
    cfg: TransferConfig,
    teacher_rng: np.random.Generator,
    sgd_rng: np.random.Generator,
) -> tuple[NetworkParams, History]:
    """Stage II: distill the GP teacher into the warm-started network.

    The teacher relabels every input (low- and high-fidelity); training then
    runs over the soft targets with per-sample weights exp(-beta * variance).
    """
    teacher = make_teacher(data_h, cfg.teacher_kernel, cfg.teacher_noise_bounds, teacher_rng)
    soft = make_soft_dataset(teacher, data_l.inputs, data_h.inputs)
    weights = distillation_weights(soft.variances, cfg.beta)
    return train(spec, student_params, soft.as_dataset(), cfg.hf_train, sgd_rng, weights=weights)
