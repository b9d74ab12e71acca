"""Host the shipped HTTP server with every public layer function timed.

Usage (the benchmark's traced run spawns it exactly like the plain server)::

    PERFBENCH_LAYERS=<prefix> PYTHONPATH=src \
        python perfbench/launcher.py <ServingConfig.to_argv() flags>

Before calling ``repro.serving.frontend.http.main`` the launcher wraps the
layer functions listed in :data:`LAYERS` with ``perf_counter`` pairs and
rebinds every module namespace that imported one of them by name.  Totals
are kept per thread (no lost updates between worker threads) and written as
JSON:

* ``<prefix>.<n>.json`` each time the process gets ``SIGUSR1`` (the
  benchmark marks the start and end of its timed window this way);
* ``<prefix>.final.json`` when the server drains and ``main`` returns.

Self time is a span minus the spans nested in it on the same thread.  Two
layers wait on work running on other threads and are handled apart:
``engine.batch`` (``QueryEngine.solve_batch``) subtracts the wall-clock
union of the worker-thread layer spans that ran during it, and
``frontend.batcher.submit`` (a coroutine) keeps only its inclusive span; the
benchmark subtracts the batch each query rode in.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import signal
import sys
import threading
import time
from typing import Callable, Dict, List, Optional, Tuple

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

from ledger import self_time  # noqa: E402

_perf = time.perf_counter

#: (layer, module, qualified attribute) of every wrapped public function.
LAYERS: Tuple[Tuple[str, str, str], ...] = (
    ("graph.extract", "repro.graph.bfs", "extract_ego_subgraph"),
    ("graph.induce", "repro.graph.subgraph", "Subgraph.induced"),
    ("graph.compact", "repro.graph.delta", "DeltaGraph.compact"),
    ("diffusion", "repro.diffusion.diffusion", "graph_diffusion"),
    ("meloppr.fold", "repro.meloppr.aggregation", "GlobalScoreTable.add"),
    ("meloppr.fold", "repro.meloppr.aggregation", "GlobalScoreTable.add_many"),
    ("meloppr.fold", "repro.meloppr.aggregation", "GlobalScoreTable.add_sparse"),
    ("meloppr.select", "repro.meloppr.selection", "NextStageSelector.select"),
    ("meloppr.finish", "repro.meloppr.planner", "MeLoPPRPlan.finish"),
    ("cache.subgraph.lookup", "repro.serving.cache", "SubgraphCache.get_or_extract"),
    ("result_cache.get", "repro.serving.result_cache", "ScoreTableCache.get"),
    ("result_cache.put", "repro.serving.result_cache", "ScoreTableCache.put"),
    ("result_cache.put", "repro.meloppr.planner", "MeLoPPRPlan.stage_one_state"),
    ("engine.batch", "repro.serving.engine", "QueryEngine.solve_batch"),
    ("engine.update", "repro.serving.engine", "QueryEngine.apply_update"),
    ("frontend.batcher.submit", "repro.serving.frontend.batcher", "MicroBatcher.submit"),
)

#: Layers whose spans are not part of a query batch's worker-side work.
_OUTSIDE_BATCH = {"engine.batch", "engine.update", "graph.compact", "frontend.batcher.submit"}

_local = threading.local()
# Re-entrant: the SIGUSR1 handler may interrupt the main thread inside it.
_registry_lock = threading.RLock()
_thread_totals: List[Dict[str, List[float]]] = []
_batch_lock = threading.Lock()
_batch_children: Optional[List[Tuple[float, float]]] = None


def _totals() -> Dict[str, List[float]]:
    """This thread's ``name -> [inclusive_s, self_s, calls]`` accumulator."""
    totals = getattr(_local, "totals", None)
    if totals is None:
        totals = {}
        _local.totals = totals
        _local.stack = []
        with _registry_lock:
            _thread_totals.append(totals)
    return totals


def _add(name: str, inclusive: float, own: float, calls: float = 1.0) -> None:
    slot = _totals().setdefault(name, [0.0, 0.0, 0.0])
    slot[0] += inclusive
    slot[1] += own
    slot[2] += calls


def _counter(name: str, value: float) -> None:
    _add(name, value, value, 0.0)


def _extras(layer: str, args: tuple, result: object, before: float) -> None:
    """Per-layer counters beyond time and calls."""
    if layer == "graph.extract":
        _counter("graph.extract_nodes", float(result[0].num_nodes))
    elif layer == "diffusion":
        _counter("diffusion.propagations", float(result.propagations))
    elif layer == "meloppr.fold":
        _counter("meloppr.evictions", float(args[0].total_evictions - before))


def _timed(layer: str, fn: Callable) -> Callable:
    """Wrap a synchronous layer function with a thread-local span."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        global _batch_children
        _totals()
        stack = _local.stack
        if stack and stack[-1][0] == layer:
            # add() inside add_many(): one fold span, not thousands.
            return fn(*args, **kwargs)
        before = args[0].total_evictions if layer == "meloppr.fold" else 0.0
        frame = [layer, 0.0]
        stack.append(frame)
        top_level = len(stack) == 1
        if layer == "engine.batch":
            with _batch_lock:
                _batch_children = []
        start = _perf()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = _perf()
            stack.pop()
            elapsed = end - start
            if layer == "engine.batch":
                with _batch_lock:
                    children, _batch_children = _batch_children or [], None
                own = self_time(start, end, children)
                queries = len(args[1]) if len(args) > 1 else 0
                _counter("engine.batch.covered", elapsed * queries)
            else:
                own = elapsed - frame[1]
                if top_level and layer not in _OUTSIDE_BATCH:
                    with _batch_lock:
                        if _batch_children is not None:
                            _batch_children.append((start, end))
            if stack:
                stack[-1][1] += elapsed
            _add(layer, elapsed, own)
        _extras(layer, args, result, before)
        return result

    return wrapper


def _timed_async(layer: str, fn: Callable) -> Callable:
    """Wrap a coroutine function; other coroutines interleave on the
    thread, so only the inclusive span is recorded."""

    @functools.wraps(fn)
    async def wrapper(*args, **kwargs):
        start = _perf()
        try:
            return await fn(*args, **kwargs)
        finally:
            elapsed = _perf() - start
            _add(layer, elapsed, elapsed)

    return wrapper


def _wrap(layer: str, fn: Callable) -> Callable:
    if inspect.iscoroutinefunction(fn):
        return _timed_async(layer, fn)
    return _timed(layer, fn)


def install() -> int:
    """Wrap every entry of :data:`LAYERS`; returns the number of rebinds."""
    importlib.import_module("repro.serving.frontend.http")
    importlib.import_module("repro.serving.frontend.server")
    rebinds = 0
    for layer, module_name, qualname in LAYERS:
        module = importlib.import_module(module_name)
        if "." not in qualname:
            original = getattr(module, qualname)
            wrapped = _wrap(layer, original)
            # Every namespace that did `from module import name` holds its
            # own reference; rebind them all, or those call sites escape.
            for name, loaded in list(sys.modules.items()):
                if not name.startswith("repro") or loaded is None:
                    continue
                for attr, value in list(vars(loaded).items()):
                    if value is original:
                        setattr(loaded, attr, wrapped)
                        rebinds += 1
            continue
        class_name, method = qualname.split(".")
        base = getattr(module, class_name)
        # An abstract method is implemented by subclasses: wrap each one.
        classes = [base] + _subclasses(base)
        for cls in classes:
            raw = cls.__dict__.get(method)
            if raw is None or getattr(raw, "__isabstractmethod__", False):
                continue
            if isinstance(raw, classmethod):
                setattr(cls, method, classmethod(_wrap(layer, raw.__func__)))
            else:
                setattr(cls, method, _wrap(layer, raw))
            rebinds += 1
    return rebinds


def _subclasses(cls: type) -> List[type]:
    out = []
    for sub in cls.__subclasses__():
        out.append(sub)
        out.extend(_subclasses(sub))
    return out


def snapshot() -> Dict[str, Dict[str, float]]:
    """Sum of every thread's totals (seconds)."""
    with _registry_lock:
        per_thread = [dict(totals) for totals in _thread_totals]
    merged: Dict[str, Dict[str, float]] = {}
    for totals in per_thread:
        for name, (inclusive, own, calls) in list(totals.items()):
            slot = merged.setdefault(name, {"inclusive_s": 0.0, "self_s": 0.0, "calls": 0.0})
            slot["inclusive_s"] += inclusive
            slot["self_s"] += own
            slot["calls"] += calls
    return merged


def _write(path: str) -> None:
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as handle:
        json.dump({"pid": os.getpid(), "layers": snapshot()}, handle)
    os.replace(tmp, path)


def main(argv: Optional[List[str]] = None) -> int:
    prefix = os.environ.get("PERFBENCH_LAYERS")
    if not prefix:
        print("launcher: set PERFBENCH_LAYERS to an output path prefix", file=sys.stderr)
        return 2
    install()
    marks = [0]

    def on_mark(signum, frame) -> None:
        marks[0] += 1
        _write(f"{prefix}.{marks[0]}.json")

    signal.signal(signal.SIGUSR1, on_mark)
    from repro.serving.frontend.http import main as http_main

    code = http_main(sys.argv[1:] if argv is None else argv)
    _write(f"{prefix}.final.json")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
