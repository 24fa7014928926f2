"""Dataset container, input/output standardization, and CSV persistence."""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ConfigurationError


@dataclass(frozen=True)
class Dataset:
    """Paired sample matrix: ``inputs`` is (N, d), ``outputs`` is (N,)."""

    inputs: np.ndarray
    outputs: np.ndarray

    def __post_init__(self):
        x = np.ascontiguousarray(np.asarray(self.inputs, dtype=np.float64))
        y = np.ascontiguousarray(np.asarray(self.outputs, dtype=np.float64))
        if x.ndim != 2:
            raise ConfigurationError("inputs must be a 2-d array of shape (N, d)")
        if y.ndim != 1:
            raise ConfigurationError("outputs must be a 1-d array of shape (N,)")
        if x.shape[0] != y.shape[0]:
            raise ConfigurationError(
                f"row count mismatch: {x.shape[0]} inputs vs {y.shape[0]} outputs"
            )
        if x.shape[0] < 1:
            raise ConfigurationError("dataset must contain at least one row")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(y))):
            raise ConfigurationError("dataset entries must be finite")
        object.__setattr__(self, "inputs", x)
        object.__setattr__(self, "outputs", y)

    def __len__(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


@dataclass(frozen=True)
class Standardizer:
    """Affine map to zero mean / unit variance, fitted on a training split.

    A zero-variance column keeps scale 1 so the transform stays invertible.
    """

    mean: np.ndarray
    scale: np.ndarray

    @classmethod
    def fit(cls, values: np.ndarray) -> "Standardizer":
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 1:
            v = v[:, None]
        mean = v.mean(axis=0)
        scale = v.std(axis=0)
        scale = np.where(scale == 0.0, 1.0, scale)
        return cls(mean=mean, scale=scale)

    @classmethod
    def identity(cls, dim: int) -> "Standardizer":
        return cls(mean=np.zeros(dim), scale=np.ones(dim))

    def transform(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 1 and self.mean.shape[0] == 1:
            return (v - self.mean[0]) / self.scale[0]
        return (v - self.mean) / self.scale

    def inverse(self, values: np.ndarray) -> np.ndarray:
        v = np.asarray(values, dtype=np.float64)
        if v.ndim == 1 and self.mean.shape[0] == 1:
            return v * self.scale[0] + self.mean[0]
        return v * self.scale + self.mean


def write_csv(dataset: Dataset, path: str | Path) -> None:
    """Write ``x1,...,xd,y`` rows with 17 significant digits (round-trip exact)."""
    path = Path(path)
    d = dataset.dim
    header = ",".join([f"x{j + 1}" for j in range(d)] + ["y"])
    lines = [header]
    for row, y in zip(dataset.inputs, dataset.outputs):
        cells = [f"{v:.17g}" for v in row] + [f"{y:.17g}"]
        lines.append(",".join(cells))
    path.write_text("\n".join(lines) + "\n", encoding="utf-8", newline="\n")


def read_csv(path: str | Path) -> Dataset:
    path = Path(path)
    try:
        with path.open("r", encoding="utf-8", newline="") as fh:
            header = fh.readline().strip()
            columns = header.split(",")
            if len(columns) < 2 or columns[-1] != "y":
                raise ConfigurationError(f"{path}: expected header 'x1,...,xd,y', got {header!r}")
            expected = [f"x{j + 1}" for j in range(len(columns) - 1)]
            if columns[:-1] != expected:
                raise ConfigurationError(f"{path}: malformed input columns {columns[:-1]}")
            rows = []
            for lineno, line in enumerate(fh, start=2):
                line = line.strip()
                if not line:
                    continue
                cells = line.split(",")
                if len(cells) != len(columns):
                    raise ConfigurationError(f"{path}: line {lineno} has {len(cells)} cells, "
                                             f"the header has {len(columns)}")
                try:
                    rows.append([float(c) for c in cells])
                except ValueError:
                    raise ConfigurationError(
                        f"{path}: line {lineno} has a non-numeric cell: {line!r}") from None
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigurationError(f"{path}: cannot read: {e}") from e
    if not rows:
        raise ConfigurationError(f"{path}: no data rows")
    arr = np.asarray(rows, dtype=np.float64)
    return Dataset(arr[:, :-1], arr[:, -1])
