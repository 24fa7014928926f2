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
from .gp import RBF, Kernel, gp_fit, gp_optimize, gp_predict_batch, kernel_from_dict, kernel_to_dict
from .network import (
    Activation,
    NetworkSpec,
    params_from_bytes,
    params_to_bytes,
    predict_batch,
)
from .optimizers import AdamConfig
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
    source: str = "beam"
    lf_path: str | None = None
    hf_path: str | None = None
    val_path: str | None = None
    pool_size: int | None = None


@dataclass(frozen=True)
class ReplicationConfig:
    mode: str = "single"
    n: int = 30
    nh_values: tuple[int, ...] = ()
    n_seeds: int = 1


@dataclass(frozen=True)
class ExperimentConfig:
    method: str
    master_seed: int
    n_l: int = 250
    n_h: int = 20
    n_v: int = 50
    network: ArchConfig = field(default_factory=ArchConfig)
    head: ArchConfig = field(default_factory=lambda: ArchConfig((20,), ("elu",)))
    lf_eta: float | None = None
    hf_eta: float | None = None
    lf_steps: int = 50_000
    hf_steps: int = 50_000
    loss_stride: int = 100
    n_adapt_layers: int = 1
    beta: float | None = None
    teacher_kernel: Kernel = field(default_factory=default_teacher_kernel)
    gp_kernel: Kernel | None = None  # None -> RBF sized from the training data
    # deterministic benchmark data: keep the noise ceiling small so model error
    # cannot be explained away as observation noise
    gp_noise_bounds: tuple[float, float] | None = (1e-10, 1e-4)
    ck_kernel_l: Kernel | None = None
    ck_kernel_corr: Kernel | None = None
    ck_noise_bounds: tuple[float, float] | None = (1e-10, 1e-4)
    rho_bounds: tuple[float, float] = DEFAULT_RHO_BOUNDS
    standardize_nn: bool = True
    standardize_gp_inputs: bool = False
    data: DataConfig = field(default_factory=DataConfig)
    replication: ReplicationConfig = field(default_factory=ReplicationConfig)
    compare_methods: tuple[str, ...] = METHODS
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


def _check_keys(obj: dict, allowed: tuple[str, ...], path: str) -> None:
    unknown = sorted(set(obj) - set(allowed))
    if unknown:
        raise ConfigurationError(f"{path}: unknown key {unknown[0]!r}")


def _get(obj: dict, key: str, path: str, kind, default, required: bool = False):
    if key not in obj:
        if required:
            raise ConfigurationError(f"{path}.{key}: required")
        return default
    value = obj[key]
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigurationError(f"{path}.{key}: expected a number")
        return float(value)
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigurationError(f"{path}.{key}: expected an integer")
        return value
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigurationError(f"{path}.{key}: expected a boolean")
        return value
    if kind is str:
        if not isinstance(value, str):
            raise ConfigurationError(f"{path}.{key}: expected a string")
        return value
    raise AssertionError(kind)


def _get_bounds(obj: dict, key: str, path: str, default):
    if key not in obj:
        return default
    value = obj[key]
    if value is None:
        return None
    if (not isinstance(value, list) or len(value) != 2
            or any(isinstance(v, bool) or not isinstance(v, (int, float)) for v in value)):
        raise ConfigurationError(f"{path}.{key}: expected [lower, upper] numbers or null")
    return (float(value[0]), float(value[1]))


def _parse_arch(obj, path: str, default: ArchConfig) -> ArchConfig:
    if obj is None:
        return default
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected an object")
    _check_keys(obj, ("hidden_widths", "activations", "skips"), path)
    widths = obj.get("hidden_widths", list(default.hidden_widths))
    acts = obj.get("activations", list(default.activations))
    skips = obj.get("skips", [list(s) for s in default.skips])
    if (not isinstance(widths, list) or not widths
            or any(isinstance(w, bool) or not isinstance(w, int) for w in widths)):
        raise ConfigurationError(f"{path}.hidden_widths: expected a nonempty integer list")
    if not isinstance(acts, list) or any(not isinstance(a, str) for a in acts):
        raise ConfigurationError(f"{path}.activations: expected a string list")
    if len(acts) != len(widths):
        raise ConfigurationError(f"{path}.activations: need one entry per hidden layer")
    if not isinstance(skips, list) or any(
            not isinstance(s, list) or len(s) != 2
            or any(isinstance(v, bool) or not isinstance(v, int) for v in s) for s in skips):
        raise ConfigurationError(f"{path}.skips: expected a list of [source, target] pairs")
    arch = ArchConfig(tuple(widths), tuple(acts), tuple((s, t) for s, t in skips))
    try:
        arch.to_spec(1)  # surface bad widths/activations/skips now, not mid-run
    except ConfigurationError as e:
        raise ConfigurationError(f"{path}: {e}") from e
    return arch


def _parse_kernel(obj, path: str, default: Kernel) -> Kernel:
    if obj is None:
        return default
    if not isinstance(obj, dict):
        raise ConfigurationError(f"{path}: expected a kernel object")
    return kernel_from_dict(obj, path=path)


def config_from_dict(obj: dict) -> ExperimentConfig:
    if not isinstance(obj, dict):
        raise ConfigurationError("config: expected a JSON object")
    allowed = (
        "method", "master_seed", "n_l", "n_h", "n_v", "network", "head",
        "lf_eta", "hf_eta", "lf_steps", "hf_steps", "loss_stride",
        "n_adapt_layers", "beta", "teacher_kernel", "gp_kernel",
        "gp_noise_bounds", "ck_kernel_l", "ck_kernel_corr", "ck_noise_bounds",
        "rho_bounds", "standardize_nn", "standardize_gp_inputs", "data",
        "replication", "compare_methods", "save_models",
    )
    _check_keys(obj, allowed, "config")
    method = _get(obj, "method", "config", str, None, required=True)
    if method not in METHODS:
        raise ConfigurationError(f"config.method: unknown method {method!r}")
    master_seed = _get(obj, "master_seed", "config", int, None, required=True)
    if master_seed < 0:
        raise ConfigurationError("config.master_seed: must be nonnegative")

    sizes = {}
    for key, default in (("n_l", 250), ("n_h", 20), ("n_v", 50)):
        sizes[key] = _get(obj, key, "config", int, default)
        if sizes[key] < 1:
            raise ConfigurationError(f"config.{key}: must be >= 1")

    data_obj = obj.get("data", {})
    if not isinstance(data_obj, dict):
        raise ConfigurationError("config.data: expected an object")
    _check_keys(data_obj, ("source", "lf_path", "hf_path", "val_path", "pool_size"), "config.data")
    source = _get(data_obj, "source", "config.data", str, "beam")
    if source not in ("beam", "csv"):
        raise ConfigurationError(f"config.data.source: unknown source {source!r}")
    pool_size = _get(data_obj, "pool_size", "config.data", int, None)
    if pool_size is not None and pool_size < 1:
        raise ConfigurationError("config.data.pool_size: must be >= 1")
    paths = {k: _get(data_obj, k, "config.data", str, None)
             for k in ("lf_path", "hf_path", "val_path")}
    if source == "csv":
        for k, v in paths.items():
            if v is None:
                raise ConfigurationError(f"config.data.{k}: required for the csv source")
    data_cfg = DataConfig(source=source, pool_size=pool_size, **paths)

    rep_obj = obj.get("replication", {})
    if not isinstance(rep_obj, dict):
        raise ConfigurationError("config.replication: expected an object")
    _check_keys(rep_obj, ("mode", "n", "nh_values", "n_seeds"), "config.replication")
    mode = _get(rep_obj, "mode", "config.replication", str, "single")
    if mode not in ("single", "init_replicates", "dataset_replicates", "nh_sweep"):
        raise ConfigurationError(f"config.replication.mode: unknown mode {mode!r}")
    n = _get(rep_obj, "n", "config.replication", int, 30)
    if n < 1:
        raise ConfigurationError("config.replication.n: must be >= 1")
    nh_values = rep_obj.get("nh_values", [])
    if (not isinstance(nh_values, list)
            or any(isinstance(v, bool) or not isinstance(v, int) or v < 1 for v in nh_values)):
        raise ConfigurationError("config.replication.nh_values: expected positive integers")
    n_seeds = _get(rep_obj, "n_seeds", "config.replication", int, 1)
    if n_seeds < 1:
        raise ConfigurationError("config.replication.n_seeds: must be >= 1")
    rep_cfg = ReplicationConfig(mode=mode, n=n, nh_values=tuple(nh_values), n_seeds=n_seeds)

    compare = obj.get("compare_methods", list(METHODS))
    if not isinstance(compare, list) or not compare or any(m not in METHODS for m in compare):
        raise ConfigurationError("config.compare_methods: expected a nonempty list of method names")

    lf_eta = _get(obj, "lf_eta", "config", float, None)
    hf_eta = _get(obj, "hf_eta", "config", float, None)
    for name, value in (("lf_eta", lf_eta), ("hf_eta", hf_eta)):
        if value is not None and not value > 0:
            raise ConfigurationError(f"config.{name}: must be positive")
    steps = {}
    for name, default in (("lf_steps", 50_000), ("hf_steps", 50_000), ("loss_stride", 100)):
        steps[name] = _get(obj, name, "config", int, default)
        if steps[name] < 0 or (name == "loss_stride" and steps[name] < 1):
            raise ConfigurationError(f"config.{name}: out of range")
    network = _parse_arch(obj.get("network"), "config.network", ArchConfig())
    n_adapt = _get(obj, "n_adapt_layers", "config", int, 1)
    if not 1 <= n_adapt <= len(network.hidden_widths):
        raise ConfigurationError(
            f"config.n_adapt_layers: must lie in [1, {len(network.hidden_widths)}]")

    cfg = ExperimentConfig(
        method=method,
        master_seed=master_seed,
        n_l=sizes["n_l"], n_h=sizes["n_h"], n_v=sizes["n_v"],
        network=network,
        head=_parse_arch(obj.get("head"), "config.head", ArchConfig((20,), ("elu",))),
        lf_eta=lf_eta, hf_eta=hf_eta,
        lf_steps=steps["lf_steps"], hf_steps=steps["hf_steps"],
        loss_stride=steps["loss_stride"],
        n_adapt_layers=n_adapt,
        beta=_get(obj, "beta", "config", float, None),
        teacher_kernel=_parse_kernel(obj.get("teacher_kernel"), "config.teacher_kernel",
                                     default_teacher_kernel()),
        gp_kernel=_parse_kernel(obj.get("gp_kernel"), "config.gp_kernel", None),
        gp_noise_bounds=_get_bounds(obj, "gp_noise_bounds", "config", (1e-10, 1e-4)),
        ck_kernel_l=_parse_kernel(obj.get("ck_kernel_l"), "config.ck_kernel_l", None),
        ck_kernel_corr=_parse_kernel(obj.get("ck_kernel_corr"), "config.ck_kernel_corr", None),
        ck_noise_bounds=_get_bounds(obj, "ck_noise_bounds", "config", (1e-10, 1e-4)),
        rho_bounds=_get_bounds(obj, "rho_bounds", "config", DEFAULT_RHO_BOUNDS),
        standardize_nn=_get(obj, "standardize_nn", "config", bool, True),
        standardize_gp_inputs=_get(obj, "standardize_gp_inputs", "config", bool, False),
        data=data_cfg,
        replication=rep_cfg,
        compare_methods=tuple(compare),
        save_models=_get(obj, "save_models", "config", bool, False),
    )
    return cfg


def config_from_file(path: str | Path) -> ExperimentConfig:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        raise ConfigurationError(f"config: cannot read {path}: {e}") from e
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as e:
        raise ConfigurationError(f"config: invalid JSON in {path}: {e}") from e
    return config_from_dict(obj)


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
    tcfg = TransferConfig(lf_train=cfg.lf_adam(), hf_train=cfg.hf_adam(),
                          n_adapt_layers=cfg.n_adapt_layers, beta=cfg.resolved_beta(),
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


def _scaler_dict(s: Standardizer) -> dict:
    return {"mean": s.mean.tolist(), "scale": s.scale.tolist()}


def _scaler_from_dict(d: dict) -> Standardizer:
    return Standardizer(np.asarray(d["mean"], dtype=np.float64),
                        np.asarray(d["scale"], dtype=np.float64))


def _arch_dict(spec: NetworkSpec) -> dict:
    return {
        "input_dim": spec.input_dim,
        "hidden_widths": list(spec.hidden_widths),
        "activations": [{"kind": a.kind, "alpha": a.alpha} for a in spec.hidden_activations],
        "skips": [list(s) for s in spec.skips],
    }


def _arch_from_dict(d: dict) -> NetworkSpec:
    acts = tuple(Activation(a["kind"], a.get("alpha", 1.0)) for a in d["activations"])
    return NetworkSpec(d["input_dim"], tuple(d["hidden_widths"]), acts,
                       tuple((s, t) for s, t in d["skips"]))


def _network_blob(spec: NetworkSpec, params) -> dict:
    return {
        "arch": _arch_dict(spec),
        "params_b64": base64.b64encode(params_to_bytes(spec, params)).decode("ascii"),
    }


def _network_from_blob(d: dict):
    spec = _arch_from_dict(d["arch"])
    params = params_from_bytes(spec, base64.b64decode(d["params_b64"]))
    return spec, params


def _network_artifact(spec, params, xs, ys) -> dict:
    blob = _network_blob(spec, params)
    return {"kind": "network", "arch": blob["arch"], "params_b64": blob["params_b64"],
            "x_scaler": _scaler_dict(xs), "y_scaler": _scaler_dict(ys)}


def predict_from_artifact(artifact: dict, X: np.ndarray) -> np.ndarray:
    """Raw-unit predictions at raw-unit inputs for any saved model."""
    kind = artifact.get("kind")
    xs = _scaler_from_dict(artifact["x_scaler"])
    ys = _scaler_from_dict(artifact["y_scaler"])
    Xq = xs.transform(np.asarray(X, dtype=np.float64))
    if kind == "network":
        spec, params = _network_from_blob(artifact)
        return ys.inverse(predict_batch(spec, params, Xq))
    if kind == "stacked":
        base_spec, base_params = _network_from_blob(artifact["base"])
        head_spec, head_params = _network_from_blob(artifact["head"])
        base_out = predict_batch(base_spec, base_params, Xq)
        return ys.inverse(predict_batch(head_spec, head_params, base_out[:, None]))
    if kind == "gp":
        model = gp_fit(np.asarray(artifact["x_fit"]), np.asarray(artifact["y_fit"]),
                       kernel_from_dict(artifact["kernel"]), noise_var=artifact["noise_var"])
        return ys.inverse(gp_predict_batch(model, Xq)[0])
    if kind == "cokriging":
        model = ck_fit(np.asarray(artifact["x_l"]), np.asarray(artifact["y_l"]),
                       np.asarray(artifact["x_h"]), np.asarray(artifact["y_h"]),
                       kernel_from_dict(artifact["kernel_l"]),
                       kernel_from_dict(artifact["kernel_corr"]),
                       rho=artifact["rho"], noise_l=artifact["noise_l"],
                       noise_h=artifact["noise_h"])
        return ys.inverse(ck_predict_batch(model, Xq)[0])
    raise ConfigurationError(f"unknown model artifact kind {kind!r}")


def save_artifact(path: str | Path, artifact: dict) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8", newline="") as fh:
        json.dump(artifact, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_artifact(path: str | Path) -> dict:
    try:
        obj = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigurationError(f"cannot load model artifact {path}: {e}") from e
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ConfigurationError(f"model artifact {path} has no 'kind' field")
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
