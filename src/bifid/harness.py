"""Experiment orchestration.

Builds datasets (from the beam benchmark or CSV files), runs one of six
surrogate methods end to end, evaluates the normalized validation RMSE, and
drives the replication protocols (init replicates, dataset replicates, N_h
sweeps, method comparison).  Result CSVs are byte-reproducible for a fixed
config and master seed; wall times go to a separate timings file so they
never break that guarantee.
"""

from __future__ import annotations

import base64
import binascii
import json
import os
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, replace
from functools import partial
from pathlib import Path

import numpy as np

from . import beam
from .cokriging import DEFAULT_RHO_BOUNDS, ck_fit, ck_optimize, ck_predict_batch
from .datasets import Dataset, Standardizer, read_csv
from .errors import ConfigurationError, NormalizationError
from .gp import (
    RBF,
    Bounds,
    Kernel,
    gp_fit,
    gp_optimize,
    gp_predict_batch,
    kernel_from_dict,
    kernel_to_dict,
)
from .network import (
    Activation,
    NetworkSpec,
    params_from_bytes,
    params_to_bytes,
    predict_batch,
)
from .optimizers import AdamConfig
from .schema import parse
from .seeding import DATA, GP_RESTARTS, INIT, POOL_SPLIT, SGD_HF, SGD_LF, stream
from .transfer import TransferConfig, bftl1, bftl2, bfwl, default_teacher_kernel, train_lowfi

METHODS = ("standard_hf", "bftl1", "bftl2", "bfwl", "gp_only", "cokriging")
NN_METHODS = ("standard_hf", "bftl1", "bftl2", "bfwl")

# per-method (lf stage, hf stage) step sizes used when the config leaves them out
DEFAULT_RATES = {
    "standard_hf": (1e-3, 1e-4),
    "bftl1": (4e-4, 1e-4),
    "bftl2": (1e-3, 1e-4),
    "bfwl": (1e-3, 2e-4),
    "gp_only": (1e-3, 1e-4),
    "cokriging": (1e-3, 1e-4),
}
DEFAULT_BETA = -0.25

# published reference means for the comparison footer; they come from a
# different high-fidelity model, so they label the table and are never
# asserted against
REFERENCE_MEANS = {
    "standard_hf": 6.0055e-3,
    "bftl1": 4.0435e-3,
    "bftl2": 3.4245e-3,
    "bfwl": 4.5453e-4,
}
REFERENCE_NOTE = "published reference values (different high-fidelity model; not reproduced)"


def rmse(predictions: np.ndarray, truth: np.ndarray) -> float:
    """Normalized error sqrt(sum((y - yhat)^2) / sum(y^2))."""
    p = np.asarray(predictions, dtype=np.float64).ravel()
    t = np.asarray(truth, dtype=np.float64).ravel()
    if p.shape != t.shape or t.size == 0:
        raise ConfigurationError("predictions and truth must be equal-length nonempty vectors")
    denom = float(np.sum(t * t))
    if denom == 0.0:
        raise NormalizationError("truth is identically zero; normalized error undefined")
    return float(np.sqrt(float(np.sum((t - p) ** 2)) / denom))


# ---------------------------------------------------------------------------
# configuration


# The config dataclasses are the config schema: schema.parse reads each key's
# type, default and constraint from these declarations.
_COUNT = {"ge": 1}
_POSITIVE = {"gt": 0}
_NOISE_BOUNDS = {"ge": 0, "ordered": True}


@dataclass(frozen=True)
class ArchConfig:
    hidden_widths: tuple[int, ...] = (15, 15)
    activations: tuple[str, ...] = ("elu", "elu")
    skips: tuple[tuple[int, int], ...] = ()

    def to_spec(self, input_dim: int) -> NetworkSpec:
        acts = tuple(Activation(kind) for kind in self.activations)
        return NetworkSpec(input_dim, self.hidden_widths, acts, self.skips)


@dataclass(frozen=True)
class DataConfig:
    source: str = field(default="beam", metadata={"choices": ("beam", "csv")})
    lf_path: str | None = None
    hf_path: str | None = None
    val_path: str | None = None
    pool_size: int | None = field(default=None, metadata=_COUNT)


@dataclass(frozen=True)
class ReplicationConfig:
    mode: str = field(default="single", metadata={"choices": (
        "single", "init_replicates", "dataset_replicates", "nh_sweep")})
    n: int = field(default=30, metadata=_COUNT)
    nh_values: tuple[int, ...] = field(default=(), metadata=_COUNT)
    n_seeds: int = field(default=1, metadata=_COUNT)


@dataclass(frozen=True)
class ExperimentConfig:
    method: str = field(metadata={"choices": METHODS})
    master_seed: int = field(metadata={"ge": 0})
    n_l: int = field(default=250, metadata=_COUNT)
    n_h: int = field(default=20, metadata=_COUNT)
    n_v: int = field(default=50, metadata=_COUNT)
    network: ArchConfig = field(default_factory=ArchConfig)
    head: ArchConfig = field(default_factory=lambda: ArchConfig((20,), ("elu",)))
    lf_eta: float | None = field(default=None, metadata=_POSITIVE)
    hf_eta: float | None = field(default=None, metadata=_POSITIVE)
    lf_steps: int = field(default=50_000, metadata={"ge": 0})
    hf_steps: int = field(default=50_000, metadata={"ge": 0})
    loss_stride: int = field(default=100, metadata=_COUNT)
    n_adapt_layers: int = 1  # lies in [1, number of hidden layers]
    beta: float | None = None
    teacher_kernel: Kernel = field(default_factory=default_teacher_kernel)
    gp_kernel: Kernel | None = None  # None -> RBF sized from the training data
    # deterministic benchmark data: keep the noise ceiling small so model error
    # cannot be explained away as observation noise
    gp_noise_bounds: Bounds | None = field(default=(1e-10, 1e-4), metadata=_NOISE_BOUNDS)
    ck_kernel_l: Kernel | None = None
    ck_kernel_corr: Kernel | None = None
    ck_noise_bounds: Bounds | None = field(default=(1e-10, 1e-4), metadata=_NOISE_BOUNDS)
    rho_bounds: Bounds | None = field(default=DEFAULT_RHO_BOUNDS, metadata={"ordered": True})
    standardize_nn: bool = True
    standardize_gp_inputs: bool = False
    data: DataConfig = field(default_factory=DataConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    compare_methods: tuple[str, ...] = field(default=METHODS, metadata={"choices": METHODS})
    save_models: bool = False

    def resolved_rates(self) -> tuple[float, float]:
        lf, hf = DEFAULT_RATES[self.method]
        return (self.lf_eta if self.lf_eta is not None else lf,
                self.hf_eta if self.hf_eta is not None else hf)

    def resolved_beta(self) -> float:
        return self.beta if self.beta is not None else DEFAULT_BETA

    def lf_adam(self) -> AdamConfig:
        return AdamConfig(eta=self.resolved_rates()[0], max_steps=self.lf_steps,
                          loss_stride=self.loss_stride)

    def hf_adam(self) -> AdamConfig:
        return AdamConfig(eta=self.resolved_rates()[1], max_steps=self.hf_steps,
                          loss_stride=self.loss_stride)


def _median_distance(X: np.ndarray) -> float:
    n = X.shape[0]
    if n < 2:
        return 1.0
    d2 = np.sum((X[:, None, :] - X[None, :, :]) ** 2, axis=-1)
    med = float(np.median(np.sqrt(d2[np.triu_indices(n, 1)])))
    return med if med > 0 else 1.0


def _auto_rbf(X: np.ndarray, amplitude: float = 1.0) -> Kernel:
    # length sized to the data so the search box is sane in any input units
    med = _median_distance(X)
    return RBF(amplitude=amplitude, length=med, amplitude_bounds=(1e-3, 1e3),
               length_bounds=(med * 1e-3, med * 1e3))


def config_from_dict(obj: dict) -> ExperimentConfig:
    cfg = parse(ExperimentConfig, obj, "config", {Kernel: kernel_from_dict})
    # the rules that tie several keys together
    for key in ("network", "head"):
        arch = getattr(cfg, key)
        if len(arch.activations) != len(arch.hidden_widths):
            raise ConfigurationError(f"config.{key}.activations: need one entry per hidden layer")
        try:
            arch.to_spec(1)  # surface bad widths/activations/skips now, not mid-run
        except ConfigurationError as e:
            raise ConfigurationError(f"config.{key}: {e}") from e
    if not 1 <= cfg.n_adapt_layers <= len(cfg.network.hidden_widths):
        raise ConfigurationError(
            f"config.n_adapt_layers: must lie in [1, {len(cfg.network.hidden_widths)}]")
    if cfg.data.source == "csv":
        for key in ("lf_path", "hf_path", "val_path"):
            if getattr(cfg.data, key) is None:
                raise ConfigurationError(f"config.data.{key}: required for the csv source")
    if not cfg.compare_methods:
        raise ConfigurationError("config.compare_methods: expected at least one method")
    return cfg


def config_from_file(path: str | Path, **overrides) -> ExperimentConfig:
    """Parse a JSON config file whose top-level keys ``overrides`` replace."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigurationError(f"config: cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal too long to read
        raise ConfigurationError(f"config: invalid JSON in {path}: {e}") from e
    return config_from_dict({**obj, **overrides} if isinstance(obj, dict) else obj)


# ---------------------------------------------------------------------------
# problem assembly


@dataclass(frozen=True)
class Problem:
    data_l: Dataset
    data_h: Dataset
    data_v: Dataset


@dataclass(frozen=True)
class SamplePool:
    inputs: np.ndarray
    y_l: np.ndarray
    y_h: np.ndarray


def make_problem(cfg: ExperimentConfig) -> Problem:
    if cfg.data.source == "csv":
        problem = Problem(read_csv(cfg.data.lf_path), read_csv(cfg.data.hf_path),
                          read_csv(cfg.data.val_path))
        dims = (problem.data_l.dim, problem.data_h.dim, problem.data_v.dim)
        if len(set(dims)) != 1:
            raise ConfigurationError(
                "config.data: lf_path, hf_path and val_path have {}, {} and {} input "
                "columns; they must match".format(*dims))
        return problem
    dist = beam.default_distribution()
    seed = cfg.master_seed
    return Problem(
        beam.generate_dataset(beam.LOWFI, dist, cfg.n_l, stream(seed, DATA, 0)),
        beam.generate_dataset(beam.HIGHFI, dist, cfg.n_h, stream(seed, DATA, 1)),
        beam.generate_dataset(beam.HIGHFI, dist, cfg.n_v, stream(seed, DATA, 2)),
    )


def make_pool(cfg: ExperimentConfig) -> SamplePool:
    if cfg.data.source != "beam":
        raise ConfigurationError("config.data.source: dataset replication needs the beam source")
    needed = cfg.n_l + cfg.n_h + cfg.n_v
    size = cfg.data.pool_size if cfg.data.pool_size is not None else needed
    if size < needed:
        raise ConfigurationError(
            f"config.data.pool_size: {size} is smaller than n_l + n_h + n_v = {needed}")
    dist = beam.default_distribution()
    X = beam.sample_inputs(dist, size, stream(cfg.master_seed, DATA, 0))
    geom = beam.BeamGeometry()
    y_l = np.array([beam.beam_lowfi_tip(beam.BeamInputs.from_si_row(r), geom) for r in X])
    y_h = np.array([beam.beam_highfi_surrogate(beam.BeamInputs.from_si_row(r), geom) for r in X])
    return SamplePool(X, y_l, y_h)


def pool_split_indices(cfg: ExperimentConfig, pool_size: int, rep: int):
    perm = stream(cfg.master_seed, POOL_SPLIT, rep).permutation(pool_size)
    a, b = cfg.n_l, cfg.n_l + cfg.n_h
    return perm[:a], perm[a:b], perm[b:b + cfg.n_v]


def split_pool(cfg: ExperimentConfig, pool: SamplePool, rep: int) -> Problem:
    idx_l, idx_h, idx_v = pool_split_indices(cfg, pool.inputs.shape[0], rep)
    return Problem(
        Dataset(pool.inputs[idx_l], pool.y_l[idx_l]),
        Dataset(pool.inputs[idx_h], pool.y_h[idx_h]),
        Dataset(pool.inputs[idx_v], pool.y_h[idx_v]),
    )


# ---------------------------------------------------------------------------
# method runners


def _scalers(on: bool, data: Dataset) -> tuple[Standardizer, Standardizer]:
    if on:
        return Standardizer.fit(data.inputs), Standardizer.fit(data.outputs)
    return Standardizer.identity(data.dim), Standardizer.identity(1)


def _scaled(data: Dataset, xs: Standardizer, ys: Standardizer) -> Dataset:
    return Dataset(xs.transform(data.inputs), ys.transform(data.outputs))


def _run_standard_hf(cfg: ExperimentConfig, problem: Problem, rep: int):
    seed = cfg.master_seed
    xs, ys = _scalers(cfg.standardize_nn, problem.data_h)
    spec = cfg.network.to_spec(problem.data_h.dim)
    params, hist = train_lowfi(spec, _scaled(problem.data_h, xs, ys), cfg.hf_adam(),
                               stream(seed, INIT, rep), stream(seed, SGD_HF, rep))
    artifact = _network_artifact(spec, params, xs, ys)
    return artifact, {"hf": hist}


def _lf_stage(cfg: ExperimentConfig, problem: Problem, rep: int):
    seed = cfg.master_seed
    xs, ys = _scalers(cfg.standardize_nn, problem.data_l)
    spec = cfg.network.to_spec(problem.data_l.dim)
    params, hist = train_lowfi(spec, _scaled(problem.data_l, xs, ys), cfg.lf_adam(),
                               stream(seed, INIT, rep), stream(seed, SGD_LF, rep))
    return spec, params, hist, xs, ys


def _run_bftl1(cfg: ExperimentConfig, problem: Problem, rep: int):
    seed = cfg.master_seed
    spec, lf_params, lf_hist, xs, ys = _lf_stage(cfg, problem, rep)
    params, hf_hist = bftl1(spec, lf_params, _scaled(problem.data_h, xs, ys), cfg.hf_adam(),
                            cfg.n_adapt_layers, stream(seed, SGD_HF, rep))
    return _network_artifact(spec, params, xs, ys), {"lf": lf_hist, "hf": hf_hist}


def _run_bftl2(cfg: ExperimentConfig, problem: Problem, rep: int):
    seed = cfg.master_seed
    spec, lf_params, lf_hist, xs, ys = _lf_stage(cfg, problem, rep)
    head_spec = cfg.head.to_spec(1)
    stacked, hf_hist = bftl2(spec, lf_params, head_spec, _scaled(problem.data_h, xs, ys),
                             cfg.hf_adam(), stream(seed, INIT, rep, 1), stream(seed, SGD_HF, rep))
    artifact = {
        "kind": "stacked",
        "base": _network_blob(spec, stacked.base_params),
        "head": _network_blob(head_spec, stacked.head_params),
        "x_scaler": _scaler_dict(xs),
        "y_scaler": _scaler_dict(ys),
    }
    return artifact, {"lf": lf_hist, "hf": hf_hist}


def _run_bfwl(cfg: ExperimentConfig, problem: Problem, rep: int):
    seed = cfg.master_seed
    spec, student, lf_hist, xs, ys = _lf_stage(cfg, problem, rep)
    tcfg = TransferConfig(hf_train=cfg.hf_adam(), beta=cfg.resolved_beta(),
                          teacher_kernel=cfg.teacher_kernel)
    params, hf_hist = bfwl(spec, student, _scaled(problem.data_l, xs, ys),
                           _scaled(problem.data_h, xs, ys), tcfg,
                           stream(seed, GP_RESTARTS, rep), stream(seed, SGD_HF, rep))
    return _network_artifact(spec, params, xs, ys), {"lf": lf_hist, "hf": hf_hist}


def _run_gp_only(cfg: ExperimentConfig, problem: Problem, rep: int):
    xs, _ = _scalers(cfg.standardize_gp_inputs, problem.data_h)
    ys = Standardizer.fit(problem.data_h.outputs)
    X = xs.transform(problem.data_h.inputs)
    y = ys.transform(problem.data_h.outputs)
    kernel = cfg.gp_kernel if cfg.gp_kernel is not None else _auto_rbf(X)
    model = gp_optimize(X, y, kernel, noise_bounds=cfg.gp_noise_bounds,
                        rng=stream(cfg.master_seed, GP_RESTARTS, rep))
    artifact = {
        "kind": "gp",
        "kernel": kernel_to_dict(model.kernel),
        "noise_var": model.noise_var,
        "x_fit": X.tolist(),
        "y_fit": y.tolist(),
        "x_scaler": _scaler_dict(xs),
        "y_scaler": _scaler_dict(ys),
    }
    return artifact, {}


def _run_cokriging(cfg: ExperimentConfig, problem: Problem, rep: int):
    xs, _ = _scalers(cfg.standardize_gp_inputs, problem.data_h)
    ys = Standardizer.fit(problem.data_h.outputs)  # shared scaler for both fidelities
    X_l = xs.transform(problem.data_l.inputs)
    X_h = xs.transform(problem.data_h.inputs)
    y_l = ys.transform(problem.data_l.outputs)
    y_h = ys.transform(problem.data_h.outputs)
    X_all = np.vstack([X_l, X_h])
    kernel_l = cfg.ck_kernel_l if cfg.ck_kernel_l is not None else _auto_rbf(X_all)
    # correction term is expected to be smaller than the low-fidelity trend
    kernel_corr = (cfg.ck_kernel_corr if cfg.ck_kernel_corr is not None
                   else _auto_rbf(X_h, amplitude=0.3))
    model = ck_optimize(X_l, y_l, X_h, y_h, kernel_l, kernel_corr,
                        rho_bounds=cfg.rho_bounds, noise_bounds_l=cfg.ck_noise_bounds,
                        noise_bounds_h=cfg.ck_noise_bounds,
                        rng=stream(cfg.master_seed, GP_RESTARTS, rep))
    artifact = {
        "kind": "cokriging",
        "kernel_l": kernel_to_dict(model.kernel_l),
        "kernel_corr": kernel_to_dict(model.kernel_corr),
        "rho": model.rho,
        "noise_l": model.noise_l,
        "noise_h": model.noise_h,
        "x_l": X_l.tolist(), "y_l": y_l.tolist(),
        "x_h": X_h.tolist(), "y_h": y_h.tolist(),
        "x_scaler": _scaler_dict(xs),
        "y_scaler": _scaler_dict(ys),
    }
    return artifact, {}


_RUNNERS = {
    "standard_hf": _run_standard_hf,
    "bftl1": _run_bftl1,
    "bftl2": _run_bftl2,
    "bfwl": _run_bfwl,
    "gp_only": _run_gp_only,
    "cokriging": _run_cokriging,
}


# ---------------------------------------------------------------------------
# model artifacts


# The artifact schema, one dataclass per kind.  load_artifact checks a saved
# artifact against it and predict_from_artifact predicts from the parsed form;
# a dimension name such as "d" (the input columns) takes one size throughout
# an artifact.


@dataclass(frozen=True)
class _InputScaler:
    mean: tuple[float, ...] = field(metadata={"shape": ("d",)})
    scale: tuple[float, ...] = field(metadata={"shape": ("d",), "gt": 0})


@dataclass(frozen=True)
class _OutputScaler:
    mean: tuple[float, ...] = field(metadata={"shape": (1,)})
    scale: tuple[float, ...] = field(metadata={"shape": (1,), "gt": 0})


@dataclass(frozen=True)
class _SavedActivation:
    kind: str
    alpha: float


@dataclass(frozen=True)
class _SavedArch:
    input_dim: int
    hidden_widths: tuple[int, ...]
    activations: tuple[_SavedActivation, ...]
    skips: tuple[tuple[int, int], ...]


@dataclass(frozen=True)
class _SavedNetwork:
    arch: _SavedArch
    params_b64: str


@dataclass(frozen=True)
class _Artifact:
    kind: str
    x_scaler: _InputScaler
    y_scaler: _OutputScaler


@dataclass(frozen=True)
class _NetworkArtifact(_Artifact, _SavedNetwork):
    pass


@dataclass(frozen=True)
class _StackedArtifact(_Artifact):
    base: _SavedNetwork
    head: _SavedNetwork


@dataclass(frozen=True)
class _GPArtifact(_Artifact):
    kernel: Kernel
    noise_var: float = field(metadata={"ge": 0})
    x_fit: tuple[tuple[float, ...], ...] = field(metadata={"shape": ("n", "d")})
    y_fit: tuple[float, ...] = field(metadata={"shape": ("n",)})


@dataclass(frozen=True)
class _CoKrigingArtifact(_Artifact):
    kernel_l: Kernel
    kernel_corr: Kernel
    rho: float
    noise_l: float = field(metadata={"ge": 0})
    noise_h: float = field(metadata={"ge": 0})
    x_l: tuple[tuple[float, ...], ...] = field(metadata={"shape": ("n_l", "d")})
    y_l: tuple[float, ...] = field(metadata={"shape": ("n_l",)})
    x_h: tuple[tuple[float, ...], ...] = field(metadata={"shape": ("n_h", "d")})
    y_h: tuple[float, ...] = field(metadata={"shape": ("n_h",)})


_ARTIFACT_KINDS = {
    "network": _NetworkArtifact,
    "stacked": _StackedArtifact,
    "gp": _GPArtifact,
    "cokriging": _CoKrigingArtifact,
}


def _saved_kernel(obj, path: str) -> Kernel:
    kernel = kernel_from_dict(obj, path)
    # a saved kernel lists every hyperparameter; a missing one would take its default
    if kernel_to_dict(kernel) != obj:
        raise ConfigurationError(f"{path}: a saved kernel must list every hyperparameter")
    return kernel


def _scaler_dict(s: Standardizer) -> dict:
    return {"mean": s.mean.tolist(), "scale": s.scale.tolist()}


def _arch_dict(spec: NetworkSpec) -> dict:
    return {
        "input_dim": spec.input_dim,
        "hidden_widths": list(spec.hidden_widths),
        "activations": [{"kind": a.kind, "alpha": a.alpha} for a in spec.hidden_activations],
        "skips": [list(s) for s in spec.skips],
    }


def _network_blob(spec: NetworkSpec, params) -> dict:
    return {
        "arch": _arch_dict(spec),
        "params_b64": base64.b64encode(params_to_bytes(spec, params)).decode("ascii"),
    }


def _network_artifact(spec, params, xs, ys) -> dict:
    return {"kind": "network", **_network_blob(spec, params),
            "x_scaler": _scaler_dict(xs), "y_scaler": _scaler_dict(ys)}


def _parse_artifact(obj, where: str):
    """Check a model artifact against its kind's schema; return the parsed form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError(f"{where} has no 'kind' field")
    kind = obj["kind"]
    schema = _ARTIFACT_KINDS.get(kind) if isinstance(kind, str) else None
    if schema is None:
        raise ConfigurationError(f"{where}: unknown model artifact kind {kind!r}")
    try:
        return parse(schema, obj, "artifact", {Kernel: _saved_kernel})
    except ConfigurationError as e:
        raise ConfigurationError(f"{where}: {e}") from e


def _standardizer(saved) -> Standardizer:
    return Standardizer(np.asarray(saved.mean, dtype=np.float64),
                        np.asarray(saved.scale, dtype=np.float64))


def _network(saved: _SavedNetwork):
    arch = saved.arch
    acts = tuple(Activation(a.kind, a.alpha) for a in arch.activations)
    spec = NetworkSpec(arch.input_dim, arch.hidden_widths, acts, arch.skips)
    try:
        blob = base64.b64decode(saved.params_b64, validate=True)
    except binascii.Error as e:
        raise ConfigurationError(f"params_b64: not base64: {e}") from e
    return spec, params_from_bytes(spec, blob)


def predict_from_artifact(artifact: dict, X: np.ndarray) -> np.ndarray:
    """Raw-unit predictions at raw-unit inputs for any saved model."""
    a = _parse_artifact(artifact, "model artifact")
    xs, ys = _standardizer(a.x_scaler), _standardizer(a.y_scaler)
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != xs.mean.shape[0]:
        raise ConfigurationError(
            f"query has shape {X.shape}; the model takes {xs.mean.shape[0]} input columns")
    Xq = xs.transform(X)
    if a.kind == "network":
        spec, params = _network(a)
        return ys.inverse(predict_batch(spec, params, Xq))
    if a.kind == "stacked":
        base_spec, base_params = _network(a.base)
        head_spec, head_params = _network(a.head)
        base_out = predict_batch(base_spec, base_params, Xq)
        return ys.inverse(predict_batch(head_spec, head_params, base_out[:, None]))
    if a.kind == "gp":
        model = gp_fit(np.asarray(a.x_fit), np.asarray(a.y_fit), a.kernel, noise_var=a.noise_var)
        return ys.inverse(gp_predict_batch(model, Xq)[0])
    model = ck_fit(np.asarray(a.x_l), np.asarray(a.y_l), np.asarray(a.x_h), np.asarray(a.y_h),
                   a.kernel_l, a.kernel_corr, rho=a.rho, noise_l=a.noise_l, noise_h=a.noise_h)
    return ys.inverse(ck_predict_batch(model, Xq)[0])


def save_artifact(path: str | Path, artifact: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str | Path) -> dict:
    """Read a saved model and check it against its kind's schema."""
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as e:
        raise ConfigurationError(f"cannot load model artifact {path}: {e}") from e
    _parse_artifact(obj, f"model artifact {path}")
    return obj


# ---------------------------------------------------------------------------
# runs and replication


@dataclass(frozen=True)
class RunResult:
    method: str
    seed: int
    n_l: int
    n_h: int
    n_v: int
    rmse: float
    wall_time_s: float
    history: dict
    artifact: dict


@dataclass(frozen=True)
class ReplicationSummary:
    method: str
    rmses: tuple[float, ...]
    mean: float
    sd: float
    bin_edges: tuple[float, ...]
    counts: tuple[int, ...]
    metadata: dict

    def to_dict(self) -> dict:
        return {
            "method": self.method,
            "n": len(self.rmses),
            "rmses": list(self.rmses),
            "mean_rmse": self.mean,
            "sd_rmse": self.sd,
            "histogram": {"log10_bin_edges": list(self.bin_edges),
                          "counts": list(self.counts)},
            "metadata": self.metadata,
        }


def run_single(cfg: ExperimentConfig, rep: int = 0, problem: Problem | None = None,
               label_seed: int | None = None) -> RunResult:
    if problem is None:
        problem = make_problem(cfg)
    t0 = time.perf_counter()
    artifact, history = _RUNNERS[cfg.method](cfg, problem, rep)
    preds = predict_from_artifact(artifact, problem.data_v.inputs)
    value = rmse(preds, problem.data_v.outputs)
    wall = time.perf_counter() - t0
    return RunResult(cfg.method, label_seed if label_seed is not None else rep,
                     len(problem.data_l), len(problem.data_h), len(problem.data_v),
                     value, wall, history, artifact)


def log_histogram(rmses, n_bins: int = 12) -> tuple[tuple[float, ...], tuple[int, ...]]:
    """log10-scale bins spanning the observed range (padded when degenerate)."""
    logs = np.log10(np.asarray(rmses, dtype=np.float64))
    lo, hi = float(logs.min()), float(logs.max())
    if hi - lo < 1e-12:
        lo, hi = lo - 0.5, hi + 0.5
    counts, edges = np.histogram(logs, bins=n_bins, range=(lo, hi))
    return tuple(float(e) for e in edges), tuple(int(c) for c in counts)


def _summarize(cfg: ExperimentConfig, mode: str, results: list[RunResult]) -> ReplicationSummary:
    rmses = tuple(r.rmse for r in results)
    edges, counts = log_histogram(rmses)
    meta = {
        "master_seed": cfg.master_seed,
        "mode": mode,
        "n_l": cfg.n_l, "n_h": cfg.n_h, "n_v": cfg.n_v,
        "standardize_nn": cfg.standardize_nn,
        "standardize_gp_inputs": cfg.standardize_gp_inputs,
    }
    sd = float(np.std(rmses, ddof=1)) if len(rmses) > 1 else 0.0
    return ReplicationSummary(cfg.method, rmses, float(np.mean(rmses)), sd, edges, counts, meta)


def _worker_count() -> int:
    value = os.environ.get("BIFID_THREADS")
    if value is None:
        return os.cpu_count() or 1
    try:
        parsed = int(value)
    except ValueError as e:
        raise ConfigurationError(f"BIFID_THREADS: not an integer: {value!r}") from e
    if parsed < 1:
        raise ConfigurationError("BIFID_THREADS: must be >= 1")
    return parsed


def _pmap(fn, n: int) -> list:
    workers = min(_worker_count(), n)
    if workers <= 1:
        return [fn(i) for i in range(n)]
    try:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            return list(pool.map(fn, range(n)))  # map preserves replicate order
    except (OSError, PermissionError):
        return [fn(i) for i in range(n)]


def _init_rep_worker(i: int, cfg: ExperimentConfig, problem: Problem) -> RunResult:
    return run_single(cfg, rep=i, problem=problem)


def _dataset_rep_worker(i: int, cfg: ExperimentConfig, pool: SamplePool) -> RunResult:
    return run_single(cfg, rep=0, problem=split_pool(cfg, pool, i), label_seed=i)


def replicate_inits(cfg: ExperimentConfig, n: int | None = None):
    """n runs on fixed datasets, varying only the per-replicate seed streams."""
    n = cfg.replication.n if n is None else n
    problem = make_problem(cfg)
    results = _pmap(partial(_init_rep_worker, cfg=cfg, problem=problem), n)
    return results, _summarize(cfg, "init_replicates", results)


def replicate_datasets(cfg: ExperimentConfig, n: int | None = None):
    """n runs with a fixed init seed and fresh train/validation splits from a pool."""
    n = cfg.replication.n if n is None else n
    pool = make_pool(cfg)
    results = _pmap(partial(_dataset_rep_worker, cfg=cfg, pool=pool), n)
    return results, _summarize(cfg, "dataset_replicates", results)


def nh_sweep(cfg: ExperimentConfig, nh_values=None, n_seeds: int | None = None):
    """Fixed N_l, varying N_h; n_seeds init replicates per size."""
    values = tuple(cfg.replication.nh_values if nh_values is None else nh_values)
    if not values:
        raise ConfigurationError("config.replication.nh_values: required for an N_h sweep")
    seeds = cfg.replication.n_seeds if n_seeds is None else n_seeds
    results = []
    table = []
    for nh in values:
        cfg_nh = replace(cfg, n_h=int(nh))
        problem = make_problem(cfg_nh)
        rows = _pmap(partial(_init_rep_worker, cfg=cfg_nh, problem=problem), seeds)
        results.extend(rows)
        table.append((int(nh), float(np.mean([r.rmse for r in rows]))))
    return results, table


def compare_methods(cfg: ExperimentConfig, methods=None, n: int | None = None):
    """Each method on the shared datasets; GP-family methods run once (they
    have no init seed to vary)."""
    methods = tuple(cfg.compare_methods if methods is None else methods)
    n = cfg.replication.n if n is None else n
    problem = make_problem(cfg)
    all_results = []
    rows = []
    for method in methods:
        cfg_m = replace(cfg, method=method)
        n_eff = 1 if method not in NN_METHODS else n
        results = _pmap(partial(_init_rep_worker, cfg=cfg_m, problem=problem), n_eff)
        all_results.extend(results)
        summary = _summarize(cfg_m, "compare", results)
        rows.append({"method": method, "n": n_eff, "mean_rmse": summary.mean,
                     "sd_rmse": summary.sd})
    return all_results, rows


# ---------------------------------------------------------------------------
# output files


def _write_text(path: Path, text: str) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def write_results_csv(path: str | Path, results: list[RunResult]) -> None:
    lines = ["method,seed,n_l,n_h,n_v,rmse"]
    for r in results:
        lines.append(f"{r.method},{r.seed},{r.n_l},{r.n_h},{r.n_v},{r.rmse:.17g}")
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_timings_csv(path: str | Path, results: list[RunResult]) -> None:
    lines = ["method,seed,wall_time_s"]
    for r in results:
        lines.append(f"{r.method},{r.seed},{r.wall_time_s:.6f}")
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_summary_json(path: str | Path, summary: ReplicationSummary) -> None:
    _write_text(Path(path), json.dumps(summary.to_dict(), indent=2, sort_keys=True) + "\n")


def write_histogram_csv(path: str | Path, summary: ReplicationSummary) -> None:
    lines = ["bin_left,bin_right,count"]
    for left, right, count in zip(summary.bin_edges, summary.bin_edges[1:], summary.counts):
        lines.append(f"{left:.17g},{right:.17g},{count}")
    _write_text(Path(path), "\n".join(lines) + "\n")


def write_comparison(out_dir: str | Path, rows: list[dict]) -> None:
    out = Path(out_dir)
    lines = ["kind,method,n,mean_rmse,sd_rmse"]
    for row in rows:
        lines.append(f"measured,{row['method']},{row['n']},"
                     f"{row['mean_rmse']:.17g},{row['sd_rmse']:.17g}")
    for method, value in REFERENCE_MEANS.items():
        lines.append(f"published_reference_not_reproduced,{method},,{value:.17g},")
    _write_text(out / "comparison.csv", "\n".join(lines) + "\n")
    payload = {"rows": rows, "published_reference": REFERENCE_MEANS,
               "reference_note": REFERENCE_NOTE}
    _write_text(out / "comparison.json", json.dumps(payload, indent=2, sort_keys=True) + "\n")


def write_sweep_csv(path: str | Path, table: list[tuple[int, float]]) -> None:
    lines = ["n_h,mean_rmse"]
    for nh, mean in table:
        lines.append(f"{nh},{mean:.17g}")
    _write_text(Path(path), "\n".join(lines) + "\n")


def save_run_outputs(out_dir: str | Path, results: list[RunResult],
                     summary: ReplicationSummary | None = None,
                     save_models: bool = False) -> None:
    out = Path(out_dir)
    write_results_csv(out / "results.csv", results)
    write_timings_csv(out / "timings.csv", results)
    if summary is not None:
        write_summary_json(out / "summary.json", summary)
        write_histogram_csv(out / "histogram.csv", summary)
    if save_models:
        for r in results:
            save_artifact(out / "models" / f"{r.method}_{r.seed}.json", r.artifact)
