"""Per-layer tracing from outside the program.

`Tracer.install()` replaces public functions of the bifid modules with
timing wrappers, in each module namespace where the name is looked up at
call time (harness and transfer import functions by name, so their copies
are replaced too); `uninstall()` puts the originals back.  Spans stay in
memory and are written out at the end of the run.

Two kinds of wrapper:

- a span wrapper records name, start, end, parent, self time and a few
  attributes for every call;
- a leaf wrapper, for calls made tens of thousands of times per training
  stage, keeps only the call's duration, per-parent call counts and totals,
  and adds its duration to the enclosing span's child time.

A span's self time is its duration minus the time its child spans and
leaves cover.  Replicates run in forked pool workers: the wrapped
`harness._init_rep_worker` ships each worker's records back inside the
returned RunResult's history, and the wrapped `replicate_inits` merges them.
"""

from __future__ import annotations

import functools
import os
import statistics
import time

METHODS = ("standard_hf", "bftl1", "bftl2", "bfwl", "gp_only", "cokriging")
KINDS = ("network", "stacked", "gp", "cokriging")

# name, unit, better; BENCHMARK.json's per_layer list is this table
PER_LAYER = (
    [
        ("network.grad_sample_flat.us", "us", "lower"),
        ("network.grad_sample_flat.calls", "count", "lower"),
        ("network.loss_mse.us", "us", "lower"),
        ("network.predict_batch.rows_per_s", "rows/s", "higher"),
        ("optimizers.train.steps", "count", "lower"),
        ("optimizers.train.self_us_per_step", "us", "lower"),
        ("transfer.train_lowfi.s", "s", "lower"),
        ("transfer.bftl1.s", "s", "lower"),
        ("transfer.bftl2.s", "s", "lower"),
        ("transfer.bfwl.s", "s", "lower"),
        ("transfer.make_teacher.s", "s", "lower"),
        ("transfer.make_soft_dataset.ms", "ms", "lower"),
        ("gp.gp_optimize.s", "s", "lower"),
        ("gp.gp_optimize.nll_evals", "count", "lower"),
        ("gp.gp_nll.us", "us", "lower"),
        ("gp.stabilized_cholesky.jittered_calls", "count", "lower"),
        ("gp.gp_predict.us", "us", "lower"),
        ("gp.gp_predict.calls", "count", "lower"),
        ("gp.gp_predict_batch.rows_per_s", "rows/s", "higher"),
        ("cokriging.ck_optimize.s", "s", "lower"),
        ("cokriging.ck_optimize.nll_evals", "count", "lower"),
        ("cokriging.ck_nll.us", "us", "lower"),
        ("cokriging.ck_predict_batch.rows_per_s", "rows/s", "higher"),
        ("cokriging.ck_fit.calls", "count", "lower"),
        ("beam.generate_dataset.us_per_row", "us", "lower"),
        ("beam.beam_highfi_surrogate.us", "us", "lower"),
        ("datasets.read_csv.rows_per_s", "rows/s", "higher"),
    ]
    + [(f"harness.run_single.s.{m}", "s", "lower") for m in METHODS]
    + [(f"harness.predict_from_artifact.s.{k}", "s", "lower") for k in KINDS]
    + [
        ("harness.replicate_inits.parallel_efficiency", "1", "higher"),
        ("harness.make_problem.ms", "ms", "lower"),
        ("bench.trace_overhead.s", "s", "lower"),
        ("bench.trace_overhead.pct", "%", "lower"),
    ]
)


def _rows(args, kwargs, index=1):
    X = kwargs.get("X", args[index] if len(args) > index else None)
    return {"rows": int(getattr(X, "shape", (0,))[0])}


def _gen_rows(args, kwargs):
    return {"rows": int(kwargs.get("n", args[2] if len(args) > 2 else 0))}


def _csv_rows(args, kwargs, result):
    return {"rows": len(result)}


def _kind(args, kwargs, result):
    return {"kind": args[0].get("kind")}


def _steps(args, kwargs, result):
    return {"steps": int(args[3].max_steps)}


def _jitter(args, kwargs, result):
    return {"jittered": int(result[1] > 0.0)}


class Records:
    """Spans, leaf durations and counters of one process or one phase."""

    def __init__(self):
        self.reset()

    def reset(self) -> None:
        self.spans: list[dict] = []
        self.leaves: dict[str, list[float]] = {}
        self.leaf_under: dict[str, list[float]] = {}  # "parent>leaf" -> [calls, seconds]
        self.counters: dict[str, int] = {}
        self._stack: list[dict] = []
        self._leaf_depth = 0
        self._next_id = 0

    def export(self) -> dict:
        return {"spans": self.spans, "leaves": self.leaves,
                "leaf_under": self.leaf_under, "counters": self.counters}

    def absorb(self, data: dict) -> None:
        """Merge a worker's records under the span open here."""
        parent = self._stack[-1]["id"] if self._stack else None
        base = self._next_id
        for s in data["spans"]:
            s = dict(s, id=s["id"] + base,
                     parent=parent if s["parent"] is None else s["parent"] + base)
            self.spans.append(s)
            self._next_id = max(self._next_id, s["id"] + 1)
        for name, values in data["leaves"].items():
            self.leaves.setdefault(name, []).extend(values)
        for key, (n, secs) in data["leaf_under"].items():
            agg = self.leaf_under.setdefault(key, [0, 0.0])
            agg[0] += n
            agg[1] += secs
        for key, n in data["counters"].items():
            self.counters[key] = self.counters.get(key, 0) + n

    def open(self, name: str, **attrs) -> dict:
        span = {"id": self._next_id, "name": name, "pid": os.getpid(),
                "parent": self._stack[-1]["id"] if self._stack else None,
                "start": time.perf_counter(), "child_s": 0.0, "attrs": attrs}
        self._next_id += 1
        self._stack.append(span)
        return span

    def close(self, span: dict) -> None:
        span["end"] = time.perf_counter()
        self._stack.pop()
        dur = span["end"] - span["start"]
        span["self_s"] = dur - span.pop("child_s")
        if self._stack:
            self._stack[-1]["child_s"] += dur
        self.spans.append(span)

    def _leaf_done(self, name: str, dur: float, attrs: dict | None) -> None:
        self.leaves.setdefault(name, []).append(dur)
        parent = self._stack[-1]["name"] if self._stack else "-"
        agg = self.leaf_under.setdefault(f"{parent}>{name}", [0, 0.0])
        agg[0] += 1
        agg[1] += dur
        if self._leaf_depth == 0 and self._stack:
            self._stack[-1]["child_s"] += dur
        for key, n in (attrs or {}).items():
            self.counters[f"{name}.{key}"] = self.counters.get(f"{name}.{key}", 0) + n

    def durations(self, name: str, **match) -> list[float]:
        return [s["end"] - s["start"] for s in self.spans if s["name"] == name
                and all(s["attrs"].get(k) == v for k, v in match.items())]

    def rate(self, name: str) -> float:
        """Rows per second over every call that carries a row count."""
        spans = [s for s in self.spans if s["name"] == name and s["attrs"].get("rows")]
        secs = sum(s["end"] - s["start"] for s in spans)
        return sum(s["attrs"]["rows"] for s in spans) / secs if secs > 0 else 0.0


class Tracer(Records):
    """Records filled by wrappers around the bifid modules' functions."""

    def __init__(self):
        import bifid.beam
        import bifid.cokriging
        import bifid.datasets
        import bifid.gp
        import bifid.harness
        import bifid.optimizers
        import bifid.transfer
        h, t, g, c, o = (bifid.harness, bifid.transfer, bifid.gp, bifid.cokriging,
                         bifid.optimizers)
        b, d = bifid.beam, bifid.datasets
        # (layer.function, [modules whose global is replaced], leaf?, attrs(args, kwargs, result))
        self.plan = [
            ("network.grad_sample_flat", [o], True, None),
            ("network.loss_mse", [o], True, None),
            ("network.predict_batch", [h, t], False, lambda a, k, r: _rows(a, k, 2)),
            ("optimizers.train", [t], False, _steps),
            ("transfer.train_lowfi", [h], False, None),
            ("transfer.bftl1", [h], False, None),
            ("transfer.bftl2", [h], False, None),
            ("transfer.bfwl", [h], False, None),
            ("transfer.make_teacher", [t], False, None),
            ("transfer.make_soft_dataset", [t], False, None),
            ("gp.gp_optimize", [t, h], False, None),
            ("gp.gp_nll", [g], True, None),
            ("gp.stabilized_cholesky", [g, c], True, _jitter),
            ("gp.gp_predict", [t], True, None),
            ("gp.gp_predict_batch", [h, g], False, lambda a, k, r: _rows(a, k)),
            ("cokriging.ck_optimize", [h], False, None),
            ("cokriging.ck_nll", [c], True, None),
            ("cokriging.ck_fit", [h], False, None),
            ("cokriging.ck_predict_batch", [h], False, lambda a, k, r: _rows(a, k)),
            ("beam.generate_dataset", [b], False, lambda a, k, r: _gen_rows(a, k)),
            ("beam.beam_highfi_surrogate", [b], True, None),
            ("datasets.read_csv", [d, h], False, _csv_rows),
            ("harness.run_single", [h], False, None),
            ("harness.predict_from_artifact", [h], False, _kind),
            ("harness.make_problem", [h], False, None),
        ]
        self._harness = h
        self._saved: list[tuple[object, str, object]] = []
        self.pid = os.getpid()
        super().__init__()

    # -- wrappers --------------------------------------------------------

    def _span_wrapper(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(span)
            if attrs is not None:
                span["attrs"].update(attrs(args, kwargs, result))
            return result
        return wrapper

    def _leaf_wrapper(self, name, fn, attrs):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            self._leaf_depth += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leaf_depth -= 1
            self._leaf_done(name, time.perf_counter() - t0,
                            attrs(args, kwargs, result) if attrs is not None else None)
            return result
        return wrapper

    def _worker_wrapper(self, fn):
        @functools.wraps(fn)  # keeps the qualified name, so the pool can pickle it
        def wrapper(*args, **kwargs):
            if os.getpid() == self.pid:  # serial fallback: already in this process
                return fn(*args, **kwargs)
            self.reset()
            result = fn(*args, **kwargs)
            result.history["_trace"] = self.export()
            return result
        return wrapper

    def _replicate_wrapper(self, fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = self.open("harness.replicate_inits")
            try:
                results, summary = fn(*args, **kwargs)
                for r in results:
                    data = r.history.pop("_trace", None)
                    if data is not None:
                        self.absorb(data)
            finally:
                self.close(span)
            return results, summary
        return wrapper

    def _replace(self, module, attr: str, new) -> None:
        self._saved.append((module, attr, getattr(module, attr)))
        setattr(module, attr, new)

    def install(self) -> None:
        if self._saved:
            return
        for name, modules, leaf, attrs in self.plan:
            attr = name.split(".", 1)[1]
            for module in modules:
                fn = getattr(module, attr)
                make = self._leaf_wrapper if leaf else self._span_wrapper
                self._replace(module, attr, make(name, fn, attrs))
        h = self._harness
        self._replace(h, "_init_rep_worker", self._worker_wrapper(h._init_rep_worker))
        self._replace(h, "replicate_inits", self._replicate_wrapper(h.replicate_inits))

    def uninstall(self) -> None:
        while self._saved:
            module, attr, fn = self._saved.pop()
            setattr(module, attr, fn)


def _median(values, scale: float = 1.0) -> float:
    return statistics.median(values) * scale if values else 0.0


def layer_metrics(everything: Records, rounds: Records, n_rounds: int, stats: dict) -> dict:
    """Per-layer metrics: timings over every traced call (set-up included),
    counts per traced round, run walls and pool efficiency from the
    untraced rounds (`stats`)."""
    t, r = everything, rounds
    per_round = 1.0 / max(n_rounds, 1)
    leaf = t.leaves.get
    train_spans = [s for s in t.spans if s["name"] == "optimizers.train"]
    steps_all = sum(s["attrs"]["steps"] for s in train_spans)
    gen = [s for s in t.spans if s["name"] == "beam.generate_dataset"]
    gen_rows = sum(s["attrs"]["rows"] for s in gen)

    def evals_per_fit(opt: str, nll: str) -> float:
        fits = len(t.durations(opt))
        return t.leaf_under.get(f"{opt}>{nll}", [0, 0.0])[0] / fits if fits else 0.0

    m = {
        "network.grad_sample_flat.us": _median(leaf("network.grad_sample_flat"), 1e6),
        "network.grad_sample_flat.calls":
            len(r.leaves.get("network.grad_sample_flat", ())) * per_round,
        "network.loss_mse.us": _median(leaf("network.loss_mse"), 1e6),
        "network.predict_batch.rows_per_s": t.rate("network.predict_batch"),
        "optimizers.train.steps": sum(s["attrs"]["steps"] for s in r.spans
                                      if s["name"] == "optimizers.train") * per_round,
        "optimizers.train.self_us_per_step":
            sum(s["self_s"] for s in train_spans) / steps_all * 1e6 if steps_all else 0.0,
        "transfer.train_lowfi.s": _median(t.durations("transfer.train_lowfi")),
        "transfer.bftl1.s": _median(t.durations("transfer.bftl1")),
        "transfer.bftl2.s": _median(t.durations("transfer.bftl2")),
        "transfer.bfwl.s": _median(t.durations("transfer.bfwl")),
        "transfer.make_teacher.s": _median(t.durations("transfer.make_teacher")),
        "transfer.make_soft_dataset.ms": _median(t.durations("transfer.make_soft_dataset"), 1e3),
        "gp.gp_optimize.s": _median(t.durations("gp.gp_optimize")),
        "gp.gp_optimize.nll_evals": evals_per_fit("gp.gp_optimize", "gp.gp_nll"),
        "gp.gp_nll.us": _median(leaf("gp.gp_nll"), 1e6),
        "gp.stabilized_cholesky.jittered_calls":
            r.counters.get("gp.stabilized_cholesky.jittered", 0) * per_round,
        "gp.gp_predict.us": _median(leaf("gp.gp_predict"), 1e6),
        "gp.gp_predict.calls": len(r.leaves.get("gp.gp_predict", ())) * per_round,
        "gp.gp_predict_batch.rows_per_s": t.rate("gp.gp_predict_batch"),
        "cokriging.ck_optimize.s": _median(t.durations("cokriging.ck_optimize")),
        "cokriging.ck_optimize.nll_evals":
            evals_per_fit("cokriging.ck_optimize", "cokriging.ck_nll"),
        "cokriging.ck_nll.us": _median(leaf("cokriging.ck_nll"), 1e6),
        "cokriging.ck_predict_batch.rows_per_s": t.rate("cokriging.ck_predict_batch"),
        "cokriging.ck_fit.calls": len(r.durations("cokriging.ck_fit")) * per_round,
        "beam.generate_dataset.us_per_row":
            sum(s["end"] - s["start"] for s in gen) / gen_rows * 1e6 if gen_rows else 0.0,
        "beam.beam_highfi_surrogate.us": _median(leaf("beam.beam_highfi_surrogate"), 1e6),
        "datasets.read_csv.rows_per_s": t.rate("datasets.read_csv"),
        "harness.replicate_inits.parallel_efficiency": stats["parallel_efficiency"],
        "harness.make_problem.ms": _median(t.durations("harness.make_problem"), 1e3),
        "bench.trace_overhead.s": stats["trace_overhead_s"],
        "bench.trace_overhead.pct": stats["trace_overhead_pct"],
    }
    for method in METHODS:
        m[f"harness.run_single.s.{method}"] = _median(stats["run_walls"].get(method, ()))
    for kind in KINDS:
        m[f"harness.predict_from_artifact.s.{kind}"] = _median(
            t.durations("harness.predict_from_artifact", kind=kind))
    units = {name: unit for name, unit, _ in PER_LAYER}
    return {name: {"value": float(m[name]), "unit": units[name]} for name in units}
