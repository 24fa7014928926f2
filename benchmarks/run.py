"""Benchmark of the bifid package: one workload, one run, one JSON line.

    python3 benchmarks/run.py --workload train_replicates --seed 1 --seconds 20 --trace 0

Run from the repository root.  The run builds its inputs from --seed (set-up),
then repeats rounds of the workload's operations until --seconds have passed,
checks every output against the oracles in oracles.py, and prints as its last
line {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 rounds alternate untraced and traced,
and the metrics are the per-layer ones from tracing.py plus the tracing
overhead.  The run record and the full result go to benchmarks/results/.
"""

import time

_T0 = time.perf_counter()  # set-up is timed from here, before any import

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
if not (ROOT / "src" / "bifid").is_dir():  # measure this checkout's source, never an installed copy
    sys.exit(f"error: no bifid package under {ROOT / 'src'}; run from a repository checkout")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import workloads  # noqa: E402


def cpu_seconds() -> float:
    """User plus system CPU of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


def peak_rss_mb() -> float:
    s = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    c = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(s, c) / 1024.0  # ru_maxrss is in KiB on Linux


def _openblas() -> list[dict]:
    """Each OpenBLAS loaded in this process: its build string and thread count."""
    import ctypes
    try:
        with open("/proc/self/maps") as fh:
            paths = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []
    out = []
    for path in paths:
        lib = ctypes.CDLL(path)
        entry = {"library": os.path.basename(path)}
        for prefix in ("scipy_openblas", "openblas"):
            for suffix in ("64_", ""):
                get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
                get_threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
                if get_config is not None and get_threads is not None:
                    get_config.restype = ctypes.c_char_p
                    get_threads.restype = ctypes.c_int
                    entry["config"] = get_config().decode()
                    entry["threads"] = get_threads()
        out.append(entry)
    return out


def _git_commit() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def _source_digest() -> str:
    """sha256 over src/ (path and bytes), which names the code even outside git."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def run_record(args) -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": model or platform.processor(),
        "python": platform.python_version(), "numpy": np.__version__,
        "scipy": scipy.__version__, "openblas": _openblas(),
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
        "BIFID_THREADS": os.environ.get("BIFID_THREADS"),
        "replicate_workers": workloads.worker_count(),
        "git_commit": _git_commit(), "source_sha256": _source_digest(),
    }


def run_round(wl, tracer=None) -> dict:
    """One round of the workload's operations; only `op.run` is timed."""
    wl.run_walls, wl.pool = {}, []
    wall = cpu = 0.0
    rmses, errors = [], []
    attempted = failed = 0
    root = tracer.open("bench.round") if tracer else None
    for op in wl.ops():
        span = tracer.open("bench.op", op=op.name) if tracer else None
        t0, c0 = time.perf_counter(), cpu_seconds()
        try:
            out, raised = op.run(), None
        except Exception as e:  # an operation that raises is a failed operation
            out, raised = None, e
        wall += time.perf_counter() - t0
        cpu += cpu_seconds() - c0
        if span:
            tracer.close(span)
        attempted += op.units
        try:
            if raised is not None:
                raise raised
            units = op.check(out)
        except Exception as e:
            failed += op.units
            message = f"{op.name}: {type(e).__name__}: {e}"
            (errors if op.units else wl.errors).append(message)
            continue
        for u in units:
            if u.rmse is not None:
                rmses.append(u.rmse)
            if u.errors:
                failed += 1
                errors.extend(f"{op.name}: {m}" for m in u.errors)
    if root:
        tracer.close(root)
    return {"traced": tracer is not None, "wall_s": wall, "cpu_s": cpu, "rmses": rmses,
            "attempted": attempted, "failed": failed, "errors": errors,
            "run_walls": wl.run_walls, "pool": wl.pool}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracer.install()  # set-up is traced too: data generation and make_problem
    wl = workloads.WORKLOADS[args.workload]()
    try:
        wl.setup(args.seed)
        setup_s = time.perf_counter() - _T0
        if tracer:
            setup_records = tracer.export()
            tracer.reset()

        rounds = []
        deadline = time.perf_counter() + args.seconds
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1  # untraced, traced, ...
            if traced:
                tracer.install()
            elif tracer:
                tracer.uninstall()
            rounds.append(run_round(wl, tracer if traced else None))
            if time.perf_counter() >= deadline and (tracer is None or len(rounds) >= 2):
                break
        if tracer:
            tracer.uninstall()
    finally:
        wl.cleanup()

    plain = [r for r in rounds if not r["traced"]]
    rmses = [x for r in rounds for x in r["rmses"]]
    if tracer:
        import tracing
        traced = [r for r in rounds if r["traced"]]
        base = statistics.median(r["wall_s"] for r in plain)
        overhead = statistics.median(r["wall_s"] for r in traced) - base
        walls: dict[str, list[float]] = {}
        for r in plain:
            for method, values in r["run_walls"].items():
                walls.setdefault(method, []).extend(values)
        pool = [p for r in plain for p in r["pool"]]
        stats = {
            "run_walls": walls,
            "parallel_efficiency":
                sum(p[0] for p in pool) / sum(p[1] for p in pool) if pool else 0.0,
            "trace_overhead_s": overhead,
            "trace_overhead_pct": 100.0 * overhead / base,
        }
        everything = tracing.Records()
        everything.absorb(setup_records)
        everything.absorb(tracer.export())
        metrics = tracing.layer_metrics(everything, tracer, len(traced), stats)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "wall_s": {"value": statistics.median(r["wall_s"] for r in plain), "unit": "s"},
            "cpu_s": {"value": statistics.median(r["cpu_s"] for r in plain), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
            "rmse_geomean": {"value": math.exp(statistics.fmean(math.log(x) for x in rmses)),
                             "unit": "1"},
        }
    result = {
        "correct": not wl.errors,
        "attempted": sum(r["attempted"] for r in rounds),
        "failed": sum(r["failed"] for r in rounds),
        "metrics": metrics,
    }

    out = HERE / "results"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    detail = {
        "record": run_record(args), "result": result, "errors_outside_operations": wl.errors,
        "failures": sorted({e for r in rounds for e in r["errors"]}),
        "rounds": [{k: r[k] for k in ("traced", "wall_s", "cpu_s", "attempted", "failed")}
                   for r in rounds],
        "monte_carlo": wl.mc,
    }
    (out / f"{stem}.json").write_text(json.dumps(detail, indent=1) + "\n")
    if tracer:
        data = everything.export()
        leaves = {name: {"calls": len(v), "median_s": statistics.median(v), "total_s": sum(v)}
                  for name, v in data["leaves"].items()}
        trace = {"spans": data["spans"], "leaves": leaves, "leaf_under": data["leaf_under"],
                 "counters": data["counters"]}
        (out / f"{stem}-spans.json").write_text(json.dumps(trace) + "\n")
    print(json.dumps({"record": detail["record"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
