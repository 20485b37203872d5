"""Span recorder and layer wrappers for the traced benchmark pass.

The wrappers live here, not in the package: `install` replaces every public
function of the spfp modules (and the public methods of their classes) by a
wrapper that records a span, under every name the function is looked up by
(`spfp.cli.load_csv` as well as `spfp.dataset.load_csv`). Spans carry a
name, start, end, parent and thread, stay in memory, and are written when
the pass ends. Counters are kept at the same call boundaries.

Run as a script, this file executes a plan of CLI invocations in one
process by calling `spfp.cli.main`, with tracing on (`--traced`) or off;
the traced pass also estimates its own overhead as the number of spans
times the cost of one wrapper, timed on a no-op.
"""

from __future__ import annotations

import argparse
import functools
import inspect
import itertools
import json
import statistics
import sys
import threading
import time
from array import array
from pathlib import Path

import numpy as np

LAYERS = ("dataset", "infometrics", "partitioning", "ensemble", "evalstats", "seeding", "cli")
# Private call boundaries that a per-layer metric needs besides the public API.
EXTRA_BOUNDARIES = {"partitioning": ("_build_context",)}

# name -> unit, in the order they are reported.
PER_LAYER = {
    "dataset.load_csv_s": "s",
    "dataset.cells_loaded": "count",
    "dataset.load_csv_calls": "count",
    "dataset.split_s": "s",
    "dataset.discretize_s": "s",
    "infometrics.pair_stats_calls": "count",
    "infometrics.pair_stats_computed": "count",
    "infometrics.pair_cache_hit_ratio": "ratio",
    "infometrics.pair_stats_busy_s": "s",
    "infometrics.refine_calls": "count",
    "infometrics.refine_s": "s",
    "infometrics.refine_max_keys": "count",
    "partitioning.partition_s": "s",
    "partitioning.build_view_s": "s",
    "partitioning.context_s": "s",
    "partitioning.greedy_steps": "count",
    "partitioning.candidates_scored": "count",
    "partitioning.view_features": "count",
    "partitioning.independence_report_s": "s",
    "ensemble.train_builtin_s": "s",
    "ensemble.train_iterations": "count",
    "ensemble.train_at_max_iters": "count",
    "ensemble.predict_proba_s": "s",
    "ensemble.ensemble_predict_s": "s",
    "ensemble.metrics_s": "s",
    "evalstats.bootstrap_ci_s": "s",
    "evalstats.bootstrap_ci_calls": "count",
    "evalstats.cliffs_delta_calls": "count",
    "evalstats.friedman_s": "s",
    "evalstats.conover_s": "s",
    "seeding.substream_calls": "count",
    "seeding.substream_s": "s",
    "cli.self_s": "s",
    "cli.artifact_bytes": "bytes",
    "trace.overhead_s": "s",
}


class Recorder:
    """Spans and counters of one traced pass, kept in memory.

    A span opened on a worker thread with nothing open on that thread takes
    the innermost span open on the main thread as its parent: the pair
    fills of `build_view` run on a thread pool.
    """

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self._ids = itertools.count()
        self._ints = array("q")  # span id, name id, parent id (-1 = root), thread id
        self._times = array("d")  # start, end
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread().ident
        self._main_stack: list[int] = []
        self.counters: dict[str, float] = {}
        self.pair_caches: list = []
        self.view_features: set = set()

    def name_id(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def count(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counters[key] = self.counters.get(key, 0) + value

    def maximum(self, key: str, value: float) -> None:
        with self._lock:
            self.counters[key] = max(self.counters.get(key, 0), value)

    def _stack(self) -> list[int]:
        if threading.get_ident() == self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def span(self, name_id: int, fn, args, kwargs):
        stack = self._stack()
        try:
            parent = (stack or self._main_stack)[-1]
        except IndexError:  # nothing open, or the main thread just closed its span
            parent = -1
        sid = next(self._ids)
        stack.append(sid)
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            stack.pop()
            with self._lock:
                self._ints.extend((sid, name_id, parent, threading.get_ident()))
                self._times.extend((t0, t1))

    def arrays(self) -> dict[str, np.ndarray]:
        ints = np.frombuffer(self._ints, dtype=np.int64).reshape(-1, 4)
        times = np.frombuffer(self._times, dtype=np.float64).reshape(-1, 2)
        order = np.argsort(ints[:, 0])
        return {
            "id": ints[order, 0],
            "name": ints[order, 1],
            "parent": ints[order, 2],
            "thread": ints[order, 3],
            "start": times[order, 0],
            "end": times[order, 1],
        }


def self_times(spans: dict[str, np.ndarray]) -> np.ndarray:
    """Per span: duration minus the part of its interval its children
    cover (children on other threads may overlap, so the union counts)."""
    start, end, parent = spans["start"], spans["end"], spans["parent"]
    if not np.array_equal(spans["id"], np.arange(start.shape[0])):
        raise ValueError("span ids must be 0..n-1")
    own = end - start
    children = np.flatnonzero(parent >= 0)
    children = children[np.lexsort((start[children], parent[children]))]
    starts, ends, parents = start.tolist(), end.tolist(), parent.tolist()
    reached: dict[int, float] = {}  # parent -> end of the union covered so far
    for i in children.tolist():
        p = parents[i]
        lo = max(starts[i], starts[p], reached.get(p, starts[p]))
        hi = min(ends[i], ends[p])
        if hi > lo:
            own[p] -= hi - lo
            reached[p] = hi
    return own


# ---------------------------------------------------------------------------
# wrappers


def _on_load_csv(rec, args, kwargs, result):
    rec.count("cells_loaded", result.n_rows * (result.n_features + 1))


def _before_refine(rec, args, kwargs):
    part = args[0]
    column = args[1] if len(args) > 1 else kwargs["column"]
    rec.maximum("refine_max_keys", part.n_groups * (int(np.max(column)) + 1))


def _on_build_context(rec, args, kwargs, ctx):
    # PairCache memoises by unordered pair; its size at the end of the pass
    # is the number of pair statistics computed.
    rec.pair_caches.append(ctx.cache)


def _on_build_view(rec, args, kwargs, view):
    trace = getattr(view, "step_trace", [])
    rec.count("greedy_steps", len(trace))
    rec.count("candidates_scored", sum(step.candidates for step in trace))
    rec.view_features.update(view.feature_ids)


def _on_train_builtin(rec, args, kwargs, model):
    rec.count("train_iterations", model.iterations)
    max_iters = kwargs.get("max_iters", 500)  # train_builtin's default
    rec.count("train_at_max_iters", int(model.iterations >= max_iters))


HOOKS = {
    "dataset.load_csv": (None, _on_load_csv),
    "partitioning._build_context": (None, _on_build_context),
    "infometrics.RowPartition.refine": (_before_refine, None),
    "partitioning.build_view": (None, _on_build_view),
    "ensemble.train_builtin": (None, _on_train_builtin),
}


def _wrap(rec: Recorder, name: str, fn):
    nid = rec.name_id(name)
    before, after = HOOKS.get(name, (None, None))

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if before is not None:
            before(rec, args, kwargs)
        result = rec.span(nid, fn, args, kwargs)
        if after is not None:
            after(rec, args, kwargs, result)
        return result

    return wrapper


def call_cost(n: int = 20000, repeats: int = 5) -> float:
    """Seconds a wrapper adds to one call: `n` calls of a wrapped no-op
    against `n` bare ones, median of `repeats` timings."""

    def noop(*args, **kwargs):
        return None

    wrapped = _wrap(Recorder(), "trace.noop", noop)
    costs = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        for _ in range(n):
            noop(1, 2)
        t1 = time.perf_counter()
        for _ in range(n):
            wrapped(1, 2)
        t2 = time.perf_counter()
        costs.append(((t2 - t1) - (t1 - t0)) / n)
    return statistics.median(costs)


def _targets(module, layer: str):
    """(span name, owner, attribute, function) for every public function
    defined in `module` and every public method of its public classes."""
    extra = EXTRA_BOUNDARIES.get(layer, ())
    for attr, value in vars(module).items():
        if getattr(value, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(value) and (not attr.startswith("_") or attr in extra):
            yield f"{layer}.{attr}", module, attr, value
        elif inspect.isclass(value) and not attr.startswith("_"):
            for meth, raw in vars(value).items():
                if not meth.startswith("_") and (inspect.isfunction(raw) or isinstance(raw, classmethod)):
                    yield f"{layer}.{attr}.{meth}", value, meth, raw


def install(rec: Recorder) -> None:
    """Patch the wrappers into every spfp module."""
    import importlib

    modules = [importlib.import_module(f"spfp.{layer}") for layer in LAYERS]
    loaded = [m for name, m in sorted(sys.modules.items()) if name == "spfp" or name.startswith("spfp.")]
    replaced = {}
    for layer, module in zip(LAYERS, modules):
        for name, owner, attr, value in list(_targets(module, layer)):
            if isinstance(value, classmethod):
                setattr(owner, attr, classmethod(_wrap(rec, name, value.__func__)))
            else:
                wrapper = _wrap(rec, name, value)
                replaced[id(value)] = (value, wrapper)
                setattr(owner, attr, wrapper)
    # Every other module that imported a wrapped function by name.
    for module in loaded:
        for attr, value in list(vars(module).items()):
            hit = replaced.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])


# ---------------------------------------------------------------------------
# per-layer metrics


def layer_metrics(spans, names, counters: dict, overhead_s: float) -> dict[str, float]:
    """The PER_LAYER metrics of one traced pass."""
    name_of = np.asarray(names, dtype=object)[spans["name"]]
    duration = spans["end"] - spans["start"]
    own = self_times(spans)

    def calls(name):
        return int((name_of == name).sum())

    def total(name):
        return float(duration[name_of == name].sum())

    cli_mask = np.array([str(n).startswith("cli.") for n in name_of], dtype=bool)
    pair_calls = calls("infometrics.PairCache.pair_stats")
    computed = int(counters.get("pairs_computed", 0))
    values = {
        "dataset.load_csv_s": total("dataset.load_csv"),
        "dataset.cells_loaded": int(counters.get("cells_loaded", 0)),
        "dataset.load_csv_calls": calls("dataset.load_csv"),
        "dataset.split_s": total("dataset.split"),
        "dataset.discretize_s": total("dataset.discretize"),
        "infometrics.pair_stats_calls": pair_calls,
        "infometrics.pair_stats_computed": computed,
        "infometrics.pair_cache_hit_ratio": 1.0 - computed / pair_calls if pair_calls else 0.0,
        "infometrics.pair_stats_busy_s": total("infometrics.PairCache.pair_stats"),
        "infometrics.refine_calls": calls("infometrics.RowPartition.refine"),
        "infometrics.refine_s": total("infometrics.RowPartition.refine"),
        "infometrics.refine_max_keys": int(counters.get("refine_max_keys", 0)),
        "partitioning.partition_s": total("partitioning.partition"),
        "partitioning.build_view_s": total("partitioning.build_view"),
        "partitioning.context_s": total("partitioning._build_context"),
        "partitioning.greedy_steps": int(counters.get("greedy_steps", 0)),
        "partitioning.candidates_scored": int(counters.get("candidates_scored", 0)),
        "partitioning.view_features": int(counters.get("view_features", 0)),
        "partitioning.independence_report_s": total("partitioning.conditional_independence_report"),
        "ensemble.train_builtin_s": total("ensemble.train_builtin"),
        "ensemble.train_iterations": int(counters.get("train_iterations", 0)),
        "ensemble.train_at_max_iters": int(counters.get("train_at_max_iters", 0)),
        "ensemble.predict_proba_s": total("ensemble.predict_proba"),
        "ensemble.ensemble_predict_s": total("ensemble.ensemble_predict"),
        "ensemble.metrics_s": total("ensemble.metrics"),
        "evalstats.bootstrap_ci_s": total("evalstats.bootstrap_ci"),
        "evalstats.bootstrap_ci_calls": calls("evalstats.bootstrap_ci"),
        "evalstats.cliffs_delta_calls": calls("evalstats.cliffs_delta"),
        "evalstats.friedman_s": total("evalstats.friedman"),
        "evalstats.conover_s": total("evalstats.conover_posthoc"),
        "seeding.substream_calls": calls("seeding.substream"),
        "seeding.substream_s": total("seeding.substream"),
        "cli.self_s": float(own[cli_mask].sum()),
        "cli.artifact_bytes": int(counters.get("artifact_bytes", 0)),
        "trace.overhead_s": float(overhead_s),
    }
    return values


def span_table(spans, names) -> list[tuple[str, int, float, float]]:
    """(name, calls, total s, self s) per span name, by self time."""
    duration = spans["end"] - spans["start"]
    own = self_times(spans)
    rows = []
    for nid, name in enumerate(names):
        mask = spans["name"] == nid
        rows.append((name, int(mask.sum()), float(duration[mask].sum()), float(own[mask].sum())))
    return sorted(rows, key=lambda r: -r[3])


# ---------------------------------------------------------------------------
# one in-process pass over a plan


def run_plan(plan: list[dict], traced: bool, out_dir: Path) -> dict:
    """Call spfp.cli.main for every step of `plan`; return per-step exit
    codes and wall times, and when traced write spans.npz and counters."""
    import spfp.cli

    rec = Recorder() if traced else None
    if rec is not None:
        install(rec)
    steps = []
    for step in plan:
        written = [Path(p) for p in step["artifacts"] + [step["log"]]]
        before = {p: p.stat().st_mtime_ns for p in written if p.exists()}
        t0 = time.perf_counter()
        code = spfp.cli.main(step["argv"])
        wall = time.perf_counter() - t0
        if rec is not None:
            rec.count("artifact_bytes", sum(
                p.stat().st_size
                for p in written
                if p.exists() and p.stat().st_mtime_ns != before.get(p)
            ))
        steps.append({"op": step["op"], "code": code, "wall_s": wall})
    result = {"steps": steps}
    if rec is not None:
        spans = rec.arrays()
        np.savez(out_dir / "spans.npz", **spans)
        counters = dict(rec.counters)
        counters["pairs_computed"] = sum(map(len, rec.pair_caches))
        counters["view_features"] = len(rec.view_features)
        # The tracing overhead: every span paid one wrapper's cost.
        wrapper_cost = call_cost() * spans["id"].shape[0]
        result.update(names=rec.names, counters=counters, wrapper_cost_s=wrapper_cost)
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("plan", help="JSON list of {op, argv, artifacts, log}")
    parser.add_argument("out", help="directory for result.json (and spans.npz)")
    parser.add_argument("--traced", action="store_true")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    result = run_plan(plan, args.traced, out)
    (out / "result.json").write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
