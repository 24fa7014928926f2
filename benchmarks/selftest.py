"""Shows that every benchmark check accepts a right output and rejects a wrong one.

    python3 benchmarks/selftest.py          # workload-scale models (about ten seconds)
    python3 benchmarks/selftest.py --quick  # small models (a few seconds)

Each case builds a real program output, runs the check on it (it must pass),
then runs the same check on a deliberately wrong copy (it must fail): one
perturbed weight, a shifted rho, a mislabelled row, and so on.  Exits 1 if
any case misbehaves.
"""

import argparse
import copy
import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

from bifid import cokriging, datasets, gp, harness, seeding, transfer  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

failures = []


def case(name: str, check, right: tuple, wrong: tuple) -> None:
    try:
        check(*right)
    except checks.CheckFailed as e:
        failures.append(name)
        print(f"FAIL {name}: rejected the right output: {e}")
        return
    try:
        check(*wrong)
    except checks.CheckFailed as e:
        print(f"PASS {name}: rejects the wrong output ({e})")
        return
    failures.append(name)
    print(f"FAIL {name}: accepted the wrong output")


def perturb_weight(artifact: dict, key=None) -> dict:
    """Copy of a network artifact with the first output-layer weight moved by 1e-3."""
    bad = copy.deepcopy(artifact)
    blob = bad if key is None else bad[key]
    weights, biases = oracles.decode_params(blob["params_b64"])
    weights[-1][0, 0] += 1e-3
    blob["params_b64"] = oracles.encode_params(blob["params_b64"], weights, biases)
    return bad


def gp_nll_program(a: dict) -> float:
    return gp.gp_nll(np.asarray(a["x_fit"]), np.asarray(a["y_fit"]),
                     gp.kernel_from_dict(a["kernel"]), a["noise_var"])


def ck_nll_program(a: dict) -> float:
    return cokriging.ck_nll(np.asarray(a["x_l"]), np.asarray(a["y_l"]), np.asarray(a["x_h"]),
                            np.asarray(a["y_h"]), gp.kernel_from_dict(a["kernel_l"]),
                            gp.kernel_from_dict(a["kernel_corr"]), a["rho"], a["noise_l"],
                            a["noise_h"])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--quick", action="store_true", help="small models, a few seconds")
    args = parser.parse_args()
    size = ({"n_l": 60, "n_h": 10, "n_v": 20, "lf_steps": 400, "hf_steps": 400} if args.quick
            else {"lf_steps": workloads.STEPS, "hf_steps": workloads.STEPS})

    def run(**cfg):
        return harness.run_single(harness.config_from_dict({"master_seed": 3, **size, **cfg}))

    problem = harness.make_problem(harness.config_from_dict({"method": "bfwl", "master_seed": 3,
                                                             **size}))
    Xv, yv = problem.data_v.inputs, problem.data_v.outputs
    const = oracles.normalized_rmse(np.full(yv.shape, problem.data_h.outputs.mean()), yv)

    # networks: the dense forward pass, the recomputed RMSE, the loss curves
    net = run(method="bfwl")
    stacked = run(method="bftl2")
    for r, key in ((net, None), (stacked, "head")):
        program = harness.predict_from_artifact(r.artifact, Xv)
        case(f"{r.artifact['kind']} predictions vs dense forward pass", checks.predictions_match,
             (program, oracles.network_predict(r.artifact, Xv)),
             (program, oracles.network_predict(perturb_weight(r.artifact, key), Xv)))
    bad_pred = oracles.network_predict(perturb_weight(net.artifact), Xv)
    bad_rmse = oracles.normalized_rmse(bad_pred, yv)
    case("RunResult.rmse vs dense forward pass", checks.rmse_matches,
         (net.rmse, oracles.normalized_rmse(oracles.network_predict(net.artifact, Xv), yv)),
         (net.rmse, bad_rmse))
    rising = {**net.history, "hf": net.history["hf"] + [(10**9, net.history["hf"][0][1] * 2)]}
    case("every stage lowers the loss", checks.stages_descend, (net.history,), (rising,))
    case("beats the constant predictor", checks.beats_constant, (net.rmse, const), (const, const))

    # GP and co-kriging: dense posterior means and slogdet NLLs
    gp_art = run(method="gp_only", standardize_gp_inputs=True).artifact
    bad_gp = copy.deepcopy(gp_art)
    bad_gp["kernel"]["length"] *= 1.01
    case("gp predictions vs dense posterior mean", checks.predictions_match,
         (harness.predict_from_artifact(gp_art, Xv), oracles.gp_artifact_predict(gp_art, Xv)),
         (harness.predict_from_artifact(gp_art, Xv), oracles.gp_artifact_predict(bad_gp, Xv)))
    X_fit, y_fit = np.asarray(gp_art["x_fit"]), np.asarray(gp_art["y_fit"])
    case("gp_nll vs dense slogdet NLL", checks.nll_matches,
         (gp_nll_program(gp_art), oracles.gp_nll(gp_art["kernel"], gp_art["noise_var"], X_fit, y_fit)),
         (gp_nll_program(gp_art), oracles.gp_nll(bad_gp["kernel"], bad_gp["noise_var"], X_fit, y_fit)))
    ck_art = run(**workloads.PINNED_COKRIGING).artifact
    bad_ck = dict(ck_art, rho=ck_art["rho"] + 0.01)
    case("cokriging predictions vs dense posterior mean", checks.predictions_match,
         (harness.predict_from_artifact(ck_art, Xv), oracles.gp_artifact_predict(ck_art, Xv)),
         (harness.predict_from_artifact(ck_art, Xv), oracles.gp_artifact_predict(bad_ck, Xv)))
    case("ck_nll vs dense slogdet NLL", checks.nll_matches,
         (ck_nll_program(ck_art), oracles.ck_nll(ck_art)),
         (ck_nll_program(ck_art), oracles.ck_nll(bad_ck)))
    xs = datasets.Standardizer.fit(problem.data_l.inputs)
    ys = datasets.Standardizer.fit(problem.data_l.outputs)
    data_h = datasets.Dataset(xs.transform(problem.data_h.inputs),
                              ys.transform(problem.data_h.outputs))
    Xs = xs.transform(Xv)
    teacher = transfer.make_teacher(data_h, transfer.default_teacher_kernel(), None,
                                    seeding.stream(3, seeding.GP_RESTARTS, 0))
    kernel = gp.kernel_to_dict(teacher.kernel)
    mean = gp.gp_predict_batch(teacher, Xs)[0]
    case("teacher predictions vs dense posterior mean", checks.predictions_match,
         (mean, oracles.gp_mean(kernel, teacher.noise_var, teacher.X, teacher.y, Xs)),
         (mean, oracles.gp_mean(kernel, teacher.noise_var, teacher.X, teacher.y[::-1], Xs)))

    # beam labels, Monte Carlo mean
    X = problem.data_h.inputs
    y = problem.data_h.outputs
    wrong = y.copy()
    wrong[3] *= 1.0 + 1e-9
    case("high-fidelity labels vs vectorized formulas", checks.labels_match, (X, y), (X, wrong))
    Xl, yl = problem.data_l.inputs, problem.data_l.outputs
    case("low-fidelity labels vs closed form", checks.lowfi_labels_match,
         (Xl, yl), (Xl, yl[::-1]))
    case("Monte Carlo mean within tolerance", checks.mc_mean_close,
         (float(yv.mean()) * 1.001, float(yv.mean())), (float(yv.mean()) * 1.01, float(yv.mean())))

    # the benchmark's declared per-layer metrics are the ones the tracer reports
    declared = json.loads((HERE.parent / "BENCHMARK.json").read_text())["per_layer"]
    listed = [(m["name"], m["unit"], m["better"]) for m in declared]
    if listed != list(tracing.PER_LAYER):
        failures.append("per_layer table")
        print("FAIL BENCHMARK.json per_layer differs from tracing.PER_LAYER")
    else:
        print("PASS BENCHMARK.json per_layer matches tracing.PER_LAYER")

    print(f"{len(failures)} failing case(s)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
