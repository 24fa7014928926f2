"""Output checks.  Each raises CheckFailed with a reason, or returns None."""

from __future__ import annotations

import numpy as np

import oracles

# tolerances, stated once; the README repeats them
RMSE_RTOL = 1e-10       # RunResult.rmse against the dense forward pass
PREDICT_RTOL = 1e-6     # program predictions against a dense oracle, relative to max |oracle|
NLL_RTOL = 1e-6         # program NLL against a dense slogdet NLL, relative to max(1, |oracle|)
LABEL_RTOL = 1e-12      # beam labels against the vectorized formulas
MC_MEAN_RTOL = 5e-3     # surrogate Monte Carlo mean against the simulator's mean


class CheckFailed(Exception):
    pass


def rmse_matches(program: float, oracle: float, rtol: float = RMSE_RTOL) -> None:
    if not abs(program - oracle) <= rtol * abs(oracle):
        raise CheckFailed(f"rmse {program!r} differs from the oracle's {oracle!r}")


def stages_descend(history: dict) -> None:
    """Every training stage ends below the full-data loss it started at."""
    for stage, curve in history.items():
        first, last = curve[0][1], curve[-1][1]
        if not last < first:
            raise CheckFailed(f"stage {stage!r} loss went from {first:.6g} to {last:.6g}")


def beats_constant(model_rmse: float, const_rmse: float) -> None:
    if not model_rmse < const_rmse:
        raise CheckFailed(
            f"rmse {model_rmse:.6g} is no better than the constant predictor's {const_rmse:.6g}")


def predictions_match(program, oracle, rtol: float = PREDICT_RTOL) -> None:
    program = np.asarray(program, dtype=np.float64)
    oracle = np.asarray(oracle, dtype=np.float64)
    if program.shape != oracle.shape:
        raise CheckFailed(f"prediction shape {program.shape} != oracle shape {oracle.shape}")
    err = float(np.max(np.abs(program - oracle)))
    scale = float(np.max(np.abs(oracle)))
    if not err <= rtol * scale:
        raise CheckFailed(f"predictions differ from the oracle by {err:.3g} (scale {scale:.3g})")


def nll_matches(program: float, oracle: float, rtol: float = NLL_RTOL) -> None:
    if not abs(program - oracle) <= rtol * max(1.0, abs(oracle)):
        raise CheckFailed(f"nll {program!r} differs from the dense oracle's {oracle!r}")


def labels_match(X, y, rtol: float = LABEL_RTOL) -> None:
    expected = oracles.highfi_tip(X)
    bad = np.abs(np.asarray(y) - expected) > rtol * np.abs(expected)
    if bad.any():
        i = int(np.argmax(bad))
        raise CheckFailed(
            f"{int(bad.sum())} beam labels differ from the formulas, first at row {i}")


def lowfi_labels_match(X, y, rtol: float = LABEL_RTOL) -> None:
    expected = oracles.lowfi_tip(X)
    if np.any(np.abs(np.asarray(y) - expected) > rtol * np.abs(expected)):
        raise CheckFailed("low-fidelity beam labels differ from the closed form")


def mc_mean_close(estimate: float, reference: float, rtol: float = MC_MEAN_RTOL) -> None:
    if not abs(estimate - reference) <= rtol * abs(reference):
        raise CheckFailed(
            f"Monte Carlo mean {estimate:.6g} is not within {rtol:g} of {reference:.6g}")
