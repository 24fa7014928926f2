"""The three workloads: inputs made from the seed, operations, and checks.

A workload's `setup(seed)` builds everything its timed operations consume.
`ops()` returns one round: a list of `Op`s whose `run` makes only program
calls (the part that is timed) and whose `check` compares the output with
the oracles (not timed).  Every round repeats the same operations on the
same inputs.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from bifid import beam, cokriging, datasets, gp, harness, seeding, transfer

import checks
import oracles

# Adam steps per training stage (the default is 50k); everything else about the
# networks and the 250/20/50 data sets is at its default
STEPS = 5_000
REPS = 2  # replicates per method and data set: one per default worker on 2 cores
# Every workload fits on fixed data with fixed random streams (these master
# seeds); the run's seed draws the validation rows the fits are scored on
# (train_replicates, gp_fits) or the Monte Carlo inputs (propagate).  Both the
# fits' RMSEs and their cost swing with the data and the streams: a multistart
# Nelder-Mead search takes 1 to 10 s depending on its restart draws, and a
# training run's per-step cost moves with its random streams.
TRAIN_DATA_SEEDS = (0, 1)
GP_DATA_SEEDS = (0, 1)
VALIDATION_ROWS = 500
COKRIGING_SEED = 0
PROPAGATE_TRAIN_SEED = 0
PROPAGATE_ROWS = 20_000

NN_METHODS = ("standard_hf", "bftl1", "bftl2", "bfwl")

# co-kriging hyperparameters pinned for `propagate`, in standardized input units
PINNED_COKRIGING = {
    "method": "cokriging",
    "standardize_gp_inputs": True,
    "ck_kernel_l": {"kind": "rbf", "amplitude": 1.865, "length": 9.6,
                    "amplitude_bounds": [1.865, 1.865], "length_bounds": [9.6, 9.6]},
    "ck_kernel_corr": {"kind": "rbf", "amplitude": 0.09668, "length": 2.149,
                       "amplitude_bounds": [0.09668, 0.09668], "length_bounds": [2.149, 2.149]},
    "rho_bounds": [0.9843, 0.9843],
    "ck_noise_bounds": [1e-8, 1e-8],
}


def _collect(errors: list[str], fn: Callable, *args) -> None:
    """Run one check; a failure is recorded, not raised."""
    try:
        fn(*args)
    except checks.CheckFailed as e:
        errors.append(f"{fn.__name__}: {e}")


@dataclass
class Unit:
    """One counted operation's outcome: its model error and failed checks."""

    rmse: float | None = None
    errors: list[str] = field(default_factory=list)

    def check(self, fn: Callable, *args) -> None:
        _collect(self.errors, fn, *args)


@dataclass
class Op:
    name: str
    run: Callable[[], object]
    check: Callable[[object], list[Unit]]
    units: int = 1  # operations counted in attempted; 0 for a shared step


def worker_count() -> int:
    """Replicate workers the program starts by default (BIFID_THREADS or the CPU count)."""
    return int(os.environ.get("BIFID_THREADS") or os.cpu_count() or 1)


def _const_rmse(problem) -> float:
    truth = problem.data_v.outputs
    return oracles.normalized_rmse(np.full(truth.shape, problem.data_h.outputs.mean()), truth)


def _cfg(**kwargs):
    return harness.config_from_dict(kwargs)


def _problem(master: int, seed: int):
    """Master seed `master`'s training sets with VALIDATION_ROWS validation rows
    drawn from the run's seed."""
    fixed = harness.make_problem(_cfg(method="standard_hf", master_seed=master))
    validation = beam.generate_dataset(beam.HIGHFI, beam.default_distribution(),
                                       VALIDATION_ROWS, np.random.default_rng([seed, master]))
    return harness.Problem(fixed.data_l, fixed.data_h, validation)


def _results_dir() -> Path:
    out = Path(__file__).resolve().parent / "results"
    out.mkdir(exist_ok=True)
    return out


class Workload:
    name = ""

    def __init__(self):
        self.errors: list[str] = []  # failed checks outside any counted operation
        # per-round side figures, filled by the checks
        self.run_walls: dict[str, list[float]] = {}
        self.pool: list[tuple[float, float]] = []  # (sum of run walls, wall * workers)
        self.mc: dict[str, dict] = {}

    def guard(self, fn: Callable, *args) -> None:
        _collect(self.errors, fn, *args)

    def check_problem(self, problem) -> None:
        """Beam labels of a generated problem against the vectorized formulas."""
        self.guard(checks.lowfi_labels_match, problem.data_l.inputs, problem.data_l.outputs)
        for data in (problem.data_h, problem.data_v):
            self.guard(checks.labels_match, data.inputs, data.outputs)

    def note_run(self, result) -> None:
        self.run_walls.setdefault(result.method, []).append(result.wall_time_s)

    def cleanup(self) -> None:
        pass


class TrainReplicates(Workload):
    name = "train_replicates"

    def setup(self, seed: int) -> None:
        """Fixed training sets and seed-drawn validation rows, written as CSV
        and read by the program through a csv-source config."""
        self.jobs, self.files = [], []
        for master in TRAIN_DATA_SEEDS:
            problem = _problem(master, seed)
            self.check_problem(problem)
            paths = {}
            for key, data in (("lf_path", problem.data_l), ("hf_path", problem.data_h),
                              ("val_path", problem.data_v)):
                path = _results_dir() / f"train-{master}-{key}-{os.getpid()}.csv"
                datasets.write_csv(data, path)
                self.files.append(path)
                paths[key] = str(path)
            for method in NN_METHODS:
                cfg = _cfg(method=method, master_seed=master, lf_steps=STEPS, hf_steps=STEPS,
                           data={"source": "csv", **paths})
                self.jobs.append((cfg, problem, _const_rmse(problem)))

    def cleanup(self) -> None:
        for path in self.files:
            path.unlink(missing_ok=True)

    def ops(self) -> list[Op]:
        return [self._op(*job) for job in self.jobs]

    def _op(self, cfg, problem, const: float) -> Op:
        def run():
            t0 = time.perf_counter()
            results, _ = harness.replicate_inits(cfg, n=REPS)
            return results, time.perf_counter() - t0

        def check(out):
            results, wall = out
            self.pool.append((sum(r.wall_time_s for r in results),
                              wall * min(worker_count(), REPS)))
            units = []
            for r in results:
                self.note_run(r)
                u = Unit(rmse=r.rmse)
                pred = oracles.network_predict(r.artifact, problem.data_v.inputs)
                u.check(checks.rmse_matches, r.rmse,
                        oracles.normalized_rmse(pred, problem.data_v.outputs))
                u.check(checks.stages_descend, r.history)
                u.check(checks.beats_constant, r.rmse, const)
                units.append(u)
            return units

        return Op(f"{cfg.method}@{cfg.master_seed}", run, check, units=REPS)


def _fit_check(u: Unit, artifact: dict, problem, const: float) -> None:
    """Predictions and NLL of a gp or cokriging artifact against the dense oracles."""
    Xv = problem.data_v.inputs
    u.check(checks.predictions_match, harness.predict_from_artifact(artifact, Xv),
            oracles.gp_artifact_predict(artifact, Xv))
    a = artifact
    if a["kind"] == "gp":
        program = gp.gp_nll(np.asarray(a["x_fit"]), np.asarray(a["y_fit"]),
                            gp.kernel_from_dict(a["kernel"]), a["noise_var"])
        oracle = oracles.gp_nll(a["kernel"], a["noise_var"], np.asarray(a["x_fit"]),
                                np.asarray(a["y_fit"]))
    else:
        program = cokriging.ck_nll(np.asarray(a["x_l"]), np.asarray(a["y_l"]),
                                   np.asarray(a["x_h"]), np.asarray(a["y_h"]),
                                   gp.kernel_from_dict(a["kernel_l"]),
                                   gp.kernel_from_dict(a["kernel_corr"]),
                                   a["rho"], a["noise_l"], a["noise_h"])
        oracle = oracles.ck_nll(a)
    u.check(checks.nll_matches, program, oracle)
    u.check(checks.beats_constant, u.rmse, const)


class GPFits(Workload):
    name = "gp_fits"

    def setup(self, seed: int) -> None:
        self.fits = []
        ck_cfg = _cfg(method="cokriging", master_seed=COKRIGING_SEED)
        self.fits.append(("run", ck_cfg, harness.make_problem(ck_cfg)))
        for master in GP_DATA_SEEDS:
            cfg = _cfg(method="gp_only", master_seed=master, standardize_gp_inputs=True)
            problem = _problem(master, seed)
            self.fits.append(("run", cfg, problem))
            self.fits.append(("teacher", cfg, problem))
        for _, _, problem in self.fits:
            self.check_problem(problem)

    def ops(self) -> list[Op]:
        return [self._run_op(cfg, p) if kind == "run" else self._teacher_op(cfg, p)
                for kind, cfg, p in self.fits]

    def _run_op(self, cfg, problem) -> Op:
        const = _const_rmse(problem)

        def check(r):
            self.note_run(r)
            u = Unit(rmse=r.rmse)
            _fit_check(u, r.artifact, problem, const)
            return [u]

        return Op(f"{cfg.method}@{cfg.master_seed}",
                  lambda: harness.run_single(cfg, problem=problem), check)

    def _teacher_op(self, cfg, problem) -> Op:
        # the teacher as bfwl fits it: HF set scaled by the LF set's standardizers
        xs = datasets.Standardizer.fit(problem.data_l.inputs)
        ys = datasets.Standardizer.fit(problem.data_l.outputs)
        data_h = datasets.Dataset(xs.transform(problem.data_h.inputs),
                                  ys.transform(problem.data_h.outputs))
        Xv = xs.transform(problem.data_v.inputs)
        const = _const_rmse(problem)

        def run():
            teacher = transfer.make_teacher(data_h, transfer.default_teacher_kernel(), None,
                                            seeding.stream(cfg.master_seed, seeding.GP_RESTARTS, 0))
            return teacher, gp.gp_predict_batch(teacher, Xv)[0]

        def check(out):
            teacher, mean = out
            kernel = gp.kernel_to_dict(teacher.kernel)
            u = Unit(rmse=oracles.normalized_rmse(ys.inverse(mean), problem.data_v.outputs))
            u.check(checks.predictions_match, mean,
                    oracles.gp_mean(kernel, teacher.noise_var, teacher.X, teacher.y, Xv))
            u.check(checks.nll_matches,
                    gp.gp_nll(teacher.X, teacher.y, teacher.kernel, teacher.noise_var),
                    oracles.gp_nll(kernel, teacher.noise_var, teacher.X, teacher.y))
            u.check(checks.beats_constant, u.rmse, const)
            return [u]

        return Op(f"teacher@{cfg.master_seed}", run, check)


class Propagate(Workload):
    name = "propagate"

    def setup(self, seed: int) -> None:
        self.csv = _results_dir() / f"propagate-{seed}-{os.getpid()}.csv"
        rng = np.random.default_rng([seed, 7])
        X = rng.uniform(oracles.BOX_LO, oracles.BOX_HI, size=(PROPAGATE_ROWS, 4))
        y = np.array([beam.beam_highfi_surrogate(beam.BeamInputs.from_si_row(r)) for r in X])
        self.guard(checks.labels_match, X, y)
        self.X, self.y = X, y
        datasets.write_csv(datasets.Dataset(X, y), self.csv)
        common = {"master_seed": PROPAGATE_TRAIN_SEED, "lf_steps": STEPS, "hf_steps": STEPS}
        configs = [
            _cfg(method="bfwl", **common),
            _cfg(method="bftl2", **common),
            _cfg(method="gp_only", standardize_gp_inputs=True, **common),
            _cfg(**PINNED_COKRIGING, **common),
        ]
        problem = harness.make_problem(configs[0])
        self.check_problem(problem)
        self.const = oracles.normalized_rmse(np.full(y.shape, problem.data_h.outputs.mean()), y)
        self.artifacts = [harness.run_single(cfg, problem=problem).artifact for cfg in configs]

    def cleanup(self) -> None:
        self.csv.unlink(missing_ok=True)

    def ops(self) -> list[Op]:
        shared = {}

        def read():
            shared["data"] = datasets.read_csv(self.csv)
            return shared["data"]

        def check_read(data):
            if not (np.array_equal(data.inputs, self.X) and np.array_equal(data.outputs, self.y)):
                raise checks.CheckFailed("the CSV did not read back the rows written")
            return []

        return [Op("read_csv", read, check_read, units=0)] + [
            self._op(a, shared) for a in self.artifacts]

    def _op(self, artifact, shared) -> Op:
        def run():
            pred = harness.predict_from_artifact(artifact, shared["data"].inputs)
            return pred, float(pred.mean()), float(pred.std()), float(np.quantile(pred, 0.01))

        def check(out):
            pred, mean, std, q01 = out
            self.mc[artifact["kind"]] = {"mean": mean, "std": std, "q01": q01}
            u = Unit(rmse=oracles.normalized_rmse(pred, self.y))
            u.check(checks.predictions_match, pred, oracles.artifact_predict(artifact, self.X))
            u.check(checks.beats_constant, u.rmse, self.const)
            u.check(checks.mc_mean_close, mean, float(self.y.mean()))
            return [u]

        return Op(artifact["kind"], run, check)


WORKLOADS = {w.name: w for w in (TrainReplicates, GPFits, Propagate)}
