"""Command-line entry point for the experiment harness."""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from .datasets import read_csv, write_csv
from .errors import ConfigurationError, NormalizationError
from .harness import (
    compare_methods,
    config_from_file,
    load_artifact,
    make_problem,
    nh_sweep,
    predict_from_artifact,
    replicate_datasets,
    replicate_inits,
    rmse,
    run_single,
    save_artifact,
    save_run_outputs,
    write_comparison,
    write_results_csv,
    write_sweep_csv,
    write_timings_csv,
)


def _load_config(args):
    flags = {"master_seed": args.seed, "method": getattr(args, "method", None)}
    return config_from_file(args.config, **{k: v for k, v in flags.items() if v is not None})


def _cmd_generate_data(args) -> int:
    cfg = _load_config(args)
    if cfg.data.source != "beam":
        raise ConfigurationError("generate-data needs config.data.source = 'beam'")
    problem = make_problem(cfg)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    write_csv(problem.data_l, out / "lowfi.csv")
    write_csv(problem.data_h, out / "highfi.csv")
    write_csv(problem.data_v, out / "validation.csv")
    print(f"wrote {len(problem.data_l)}+{len(problem.data_h)}+{len(problem.data_v)} rows to {out}")
    return 0


def _cmd_train(args) -> int:
    cfg = _load_config(args)
    result = run_single(cfg)
    out = Path(args.out)
    write_results_csv(out / "results.csv", [result])
    write_timings_csv(out / "timings.csv", [result])
    save_artifact(out / "models" / f"{result.method}.json", result.artifact)
    print(f"{result.method} rmse {result.rmse:.6e}")
    return 0


def _cmd_evaluate(args) -> int:
    artifact = load_artifact(args.model)
    data = read_csv(args.data)
    value = rmse(predict_from_artifact(artifact, data.inputs), data.outputs)
    print(f"rmse {value:.17g}")
    if args.out is not None:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        if args.format == "json":
            payload = {"model": str(args.model), "data": str(args.data),
                       "n": len(data), "rmse": value}
            (out / "evaluation.json").write_text(
                json.dumps(payload, indent=2, sort_keys=True) + "\n", encoding="utf-8")
        else:
            (out / "evaluation.csv").write_text(
                f"model,data,n,rmse\n{args.model},{args.data},{len(data)},{value:.17g}\n",
                encoding="utf-8")
    return 0


def _cmd_replicate(args) -> int:
    cfg = _load_config(args)
    mode = cfg.replication.mode
    if mode == "dataset_replicates":
        results, summary = replicate_datasets(cfg)
    elif mode in ("single", "init_replicates"):
        n = 1 if mode == "single" else None
        results, summary = replicate_inits(cfg, n=n)
    else:
        raise ConfigurationError(
            f"config.replication.mode: {mode!r} is not a replicate mode")
    save_run_outputs(args.out, results, summary, save_models=cfg.save_models)
    print(f"{cfg.method} n={len(results)} mean rmse {summary.mean:.6e} sd {summary.sd:.6e}")
    return 0


def _cmd_sweep_nh(args) -> int:
    cfg = _load_config(args)
    results, table = nh_sweep(cfg)
    out = Path(args.out)
    write_results_csv(out / "results.csv", results)
    write_timings_csv(out / "timings.csv", results)
    write_sweep_csv(out / "sweep.csv", table)
    for nh, mean in table:
        print(f"n_h {nh} mean rmse {mean:.6e}")
    return 0


def _cmd_compare(args) -> int:
    cfg = _load_config(args)
    results, rows = compare_methods(cfg)
    out = Path(args.out)
    write_results_csv(out / "results.csv", results)
    write_timings_csv(out / "timings.csv", results)
    write_comparison(out, rows)
    for row in rows:
        print(f"{row['method']} n={row['n']} mean rmse {row['mean_rmse']:.6e}")
    return 0


def _add_common(parser, method_flag: bool = True) -> None:
    parser.add_argument("--config", required=True, help="experiment config JSON")
    parser.add_argument("--seed", type=int, default=None, help="override the master seed")
    if method_flag:
        parser.add_argument("--method", default=None, help="override the configured method")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bifid", description="bi-fidelity surrogate training and evaluation")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate-data", help="write benchmark datasets as CSV")
    _add_common(p, method_flag=False)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_generate_data)

    p = sub.add_parser("train", help="train one model and save its artifact")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_train)

    p = sub.add_parser("evaluate", help="score a saved model on a CSV dataset")
    p.add_argument("--model", required=True, help="model artifact JSON")
    p.add_argument("--data", required=True, help="dataset CSV with truth labels")
    p.add_argument("--out", default=None)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_evaluate)

    p = sub.add_parser("replicate", help="run the configured replication protocol")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_replicate)

    p = sub.add_parser("sweep-nh", help="vary the high-fidelity sample count")
    _add_common(p)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_sweep_nh)

    p = sub.add_parser("compare", help="run several methods on shared data")
    _add_common(p, method_flag=False)
    p.add_argument("--out", required=True)
    p.set_defaults(fn=_cmd_compare)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigurationError, NormalizationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
