"""Scalar-output feed-forward networks with optional skip connections.

Hidden layers are numbered 1..H; the scalar output layer is layer 0 by
convention (its weight row maps the last hidden layer to the output).  A skip
(s, t) adds the post-activation output of hidden layer s to the
post-activation output of hidden layer t, so both layers must share a width.

All math is plain float64 numpy.  Gradients are exact (reverse accumulation),
not approximated, and are checked against central finite differences in the
test suite.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .datasets import Dataset
from .errors import ConfigurationError

RELU = "relu"
ELU = "elu"
IDENTITY = "identity"
_KINDS = (RELU, ELU, IDENTITY)


@dataclass(frozen=True)
class Activation:
    """Elementwise nonlinearity; ``alpha`` only matters for ELU."""

    kind: str
    alpha: float = 1.0

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise ConfigurationError(f"unknown activation kind {self.kind!r}")
        if self.kind == ELU and not self.alpha > 0:
            raise ConfigurationError("ELU requires alpha > 0")


def activation_eval(act: Activation, z: np.ndarray) -> np.ndarray:
    z = np.asarray(z, dtype=np.float64)
    if act.kind == RELU:
        return np.maximum(z, 0.0)
    if act.kind == ELU:
        return np.where(z > 0, z, act.alpha * np.expm1(np.minimum(z, 0.0)))
    return z


def activation_grad(act: Activation, z: np.ndarray) -> np.ndarray:
    """Derivative w.r.t. the pre-activation; the ReLU kink at 0 maps to 0."""
    z = np.asarray(z, dtype=np.float64)
    if act.kind == RELU:
        return np.where(z > 0, 1.0, 0.0)
    if act.kind == ELU:
        return np.where(z > 0, 1.0, act.alpha * np.exp(np.minimum(z, 0.0)))
    return np.ones_like(z)


class ParamEntry(NamedTuple):
    """One named block of the flat parameter vector."""

    name: str
    shape: tuple[int, ...]
    span: slice


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description; immutable and hashable by content.

    ``layout`` is the flat parameter layout, computed once: W_1..W_H, the
    output row W_0, then b_1..b_H, b_0.
    """

    input_dim: int
    hidden_widths: tuple[int, ...]
    hidden_activations: tuple[Activation, ...]
    skips: tuple[tuple[int, int], ...] = ()
    max_width: int = 50
    layout: tuple[ParamEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        object.__setattr__(self, "hidden_activations", tuple(self.hidden_activations))
        object.__setattr__(self, "skips", tuple((int(s), int(t)) for s, t in self.skips))
        if self.input_dim < 1:
            raise ConfigurationError("input_dim must be >= 1")
        if len(self.hidden_widths) < 1:
            raise ConfigurationError("at least one hidden layer is required")
        for w in self.hidden_widths:
            if not 1 <= w <= self.max_width:
                raise ConfigurationError(
                    f"hidden width {w} outside [1, {self.max_width}]"
                )
        if len(self.hidden_activations) != len(self.hidden_widths):
            raise ConfigurationError(
                "hidden_activations must have one entry per hidden layer"
            )
        seen = set()
        for s, t in self.skips:
            if not (1 <= s < t <= self.n_hidden):
                raise ConfigurationError(
                    f"skip ({s}, {t}) must satisfy 1 <= source < target <= {self.n_hidden}"
                )
            if self.hidden_widths[s - 1] != self.hidden_widths[t - 1]:
                raise ConfigurationError(
                    f"skip ({s}, {t}) joins layers of unequal width"
                )
            if (s, t) in seen:
                raise ConfigurationError(f"duplicate skip ({s}, {t})")
            seen.add((s, t))

        widths = (self.input_dim,) + self.hidden_widths
        labels = [str(i) for i in range(1, self.n_hidden + 1)] + ["0"]
        dims = [(widths[i + 1], widths[i]) for i in range(self.n_hidden)]
        dims.append((1, widths[-1]))
        blocks = [("W" + n, d) for n, d in zip(labels, dims)]
        blocks += [("b" + n, (d[0],)) for n, d in zip(labels, dims)]
        layout = []
        offset = 0
        for name, shape in blocks:
            size = math.prod(shape)
            layout.append(ParamEntry(name, shape, slice(offset, offset + size)))
            offset += size
        object.__setattr__(self, "layout", tuple(layout))

    @property
    def n_hidden(self) -> int:
        return len(self.hidden_widths)

    @property
    def n_params(self) -> int:
        return self.layout[-1].span.stop


@dataclass
class NetworkParams:
    """Weights W_1..W_H plus output row W_0; biases likewise, b_0 length 1."""

    weights: list[np.ndarray]
    biases: list[np.ndarray]

    def to_flat(self) -> np.ndarray:
        parts = [w.ravel() for w in self.weights] + [b.ravel() for b in self.biases]
        return np.concatenate(parts)

    @classmethod
    def from_flat(cls, spec: NetworkSpec, flat: np.ndarray, copy: bool = True) -> "NetworkParams":
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (spec.n_params,):
            raise ConfigurationError(
                f"flat vector has {flat.shape} entries, spec needs ({spec.n_params},)"
            )
        if copy:
            flat = flat.copy()
        views = [flat[e.span].reshape(e.shape) for e in spec.layout]
        return cls(weights=views[: spec.n_hidden + 1], biases=views[spec.n_hidden + 1 :])

    def copy(self) -> "NetworkParams":
        return NetworkParams(
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
        )


def validate_params(spec: NetworkSpec, params: NetworkParams) -> None:
    n_layers = spec.n_hidden + 1
    if len(params.weights) != n_layers or len(params.biases) != n_layers:
        raise ConfigurationError("params layer count does not match spec")
    for entry, array in zip(spec.layout, params.weights + params.biases):
        if array.shape != entry.shape:
            raise ConfigurationError(
                f"{entry.name} has shape {array.shape}, expected {entry.shape}"
            )


def init_params(spec: NetworkSpec, rng: np.random.Generator) -> NetworkParams:
    """Uniform(-sqrt(6/(fan_in+fan_out)), +...) weights, zero biases."""
    weights = []
    for entry in spec.layout[: spec.n_hidden + 1]:
        bound = np.sqrt(6.0 / sum(entry.shape))
        weights.append(rng.uniform(-bound, bound, size=entry.shape))
    biases = [np.zeros(entry.shape) for entry in spec.layout[spec.n_hidden + 1 :]]
    return NetworkParams(weights=weights, biases=biases)


def _skip_sources(spec: NetworkSpec, target: int) -> list[int]:
    return [s for s, t in spec.skips if t == target]


def forward(
    spec: NetworkSpec, params: NetworkParams, X: np.ndarray
) -> tuple[np.ndarray, list[np.ndarray], list[np.ndarray]]:
    """Run the rows of X through the network.

    Returns the (N,) outputs plus, per hidden layer, the (N, width)
    pre-activations and post-skip outputs that reverse accumulation needs.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ConfigurationError(f"batch has shape {X.shape}, expected (N, {spec.input_dim})")
    pre_activations: list[np.ndarray] = []
    outputs: list[np.ndarray] = []
    Y = X
    try:
        for i in range(1, spec.n_hidden + 1):
            Z = Y @ params.weights[i - 1].T + params.biases[i - 1]
            Y = activation_eval(spec.hidden_activations[i - 1], Z)
            for s in _skip_sources(spec, i):
                Y = Y + outputs[s - 1]
            pre_activations.append(Z)
            outputs.append(Y)
        out = Y @ params.weights[-1][0] + params.biases[-1][0]
    except ValueError as exc:
        raise ConfigurationError(f"parameter/spec shape mismatch: {exc}") from exc
    return out, pre_activations, outputs


def predict_batch(spec: NetworkSpec, params: NetworkParams, X: np.ndarray) -> np.ndarray:
    return forward(spec, params, X)[0]


def loss_mse(spec: NetworkSpec, params: NetworkParams, data: Dataset) -> float:
    pred = predict_batch(spec, params, data.inputs)
    diff = pred - data.outputs
    return float(np.mean(diff * diff))


def grad_sample_flat(
    spec: NetworkSpec, params: NetworkParams, x: np.ndarray, y_true: float
) -> np.ndarray:
    """Exact gradient of the single-sample squared error (y_hat - y_true)^2,
    laid out as the flat parameter vector."""
    X = np.asarray(x, dtype=np.float64)[None, :]
    out, pre_activations, outputs = forward(spec, params, X)
    H = spec.n_hidden
    weight_spans = [e.span for e in spec.layout[: H + 1]]
    bias_spans = [e.span for e in spec.layout[H + 1 :]]
    flat = np.empty(spec.n_params)

    d_out = 2.0 * (float(out[0]) - float(y_true))
    flat[weight_spans[H]] = d_out * outputs[H - 1][0]
    flat[bias_spans[H]] = d_out

    # acc[i] accumulates dJ/dy_i; targets are visited before their sources,
    # so skip contributions are complete by the time a layer is processed.
    acc = [np.zeros(w) for w in spec.hidden_widths]
    acc[H - 1] = d_out * params.weights[-1][0]
    for i in range(H, 0, -1):
        dz = acc[i - 1] * activation_grad(spec.hidden_activations[i - 1], pre_activations[i - 1][0])
        y_prev = X[0] if i == 1 else outputs[i - 2][0]
        flat[weight_spans[i - 1]] = np.outer(dz, y_prev).ravel()
        flat[bias_spans[i - 1]] = dz
        if i > 1:
            acc[i - 2] = acc[i - 2] + params.weights[i - 1].T @ dz
        for s in _skip_sources(spec, i):
            acc[s - 1] = acc[s - 1] + acc[i - 1]
    return flat


_FORMAT = "bifid-params-v1"


def _header_entries(spec: NetworkSpec) -> list[dict]:
    return [{"name": e.name, "shape": list(e.shape)} for e in spec.layout]


def params_to_bytes(spec: NetworkSpec, params: NetworkParams) -> bytes:
    """JSON shape header, newline, then little-endian float64 payload."""
    validate_params(spec, params)
    header = {
        "format": _FORMAT,
        "input_dim": spec.input_dim,
        "hidden_widths": list(spec.hidden_widths),
        "entries": _header_entries(spec),
        "dtype": "<f8",
    }
    payload = np.ascontiguousarray(params.to_flat(), dtype="<f8").tobytes()
    return json.dumps(header, sort_keys=True).encode("utf-8") + b"\n" + payload


def params_from_bytes(spec: NetworkSpec, blob: bytes) -> NetworkParams:
    head, _, payload = blob.partition(b"\n")
    try:
        header = json.loads(head)
    except ValueError as e:  # not UTF-8 or not JSON
        raise ConfigurationError(f"params blob has no readable header: {e}") from e
    if not isinstance(header, dict) or header.get("format") != _FORMAT:
        raise ConfigurationError(f"params blob is not in the {_FORMAT} format")
    if header.get("entries") != _header_entries(spec) or header.get("input_dim") != spec.input_dim:
        raise ConfigurationError("serialized shapes do not match the network spec")
    if len(payload) != 8 * spec.n_params:
        raise ConfigurationError(
            f"params payload has {len(payload)} bytes, the spec needs {8 * spec.n_params}")
    flat = np.frombuffer(payload, dtype="<f8").astype(np.float64)
    return NetworkParams.from_flat(spec, flat)
