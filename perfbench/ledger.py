"""The benchmark's arithmetic: percentiles, self time, ``/stats`` deltas.

Everything here is a pure function of plain numbers and dicts, so the rules
the report depends on are unit-tested (``test_perfbench_ledger.py``) apart
from any server.
"""

from __future__ import annotations

import statistics
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Percentiles tried for the tail, highest first, in basis points of 1/100 %
#: (integer arithmetic keeps the nearest rank exact: 99.9 % of 3000 is rank
#: 2997, not 2998 through float round-up).
TAIL_LADDER_BP = (9999, 9990, 9900, 9500, 9000, 7500, 5000)

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer make the figure one or two unlucky requests.
MIN_BEYOND = 10


def nearest_rank(sorted_values: Sequence[float], basis_points: int) -> float:
    """The nearest-rank percentile of ascending ``sorted_values``."""
    n = len(sorted_values)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, (basis_points * n + 9999) // 10000)
    return sorted_values[rank - 1]


def tail_percentile(values: Iterable[float]) -> Dict[str, float]:
    """The highest ladder percentile with >= ``MIN_BEYOND`` samples beyond it.

    Returns ``{"percentile", "value", "beyond", "samples"}``.  With too few
    samples for any ladder step the maximum is returned as percentile 100
    with ``beyond = 0`` (the report shows it; it is never silently a p99).
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    for bp in TAIL_LADDER_BP:
        rank = max(1, (bp * n + 9999) // 10000)
        beyond = n - rank
        if beyond >= MIN_BEYOND:
            return {
                "percentile": bp / 100.0,
                "value": ordered[rank - 1],
                "beyond": beyond,
                "samples": n,
            }
    return {"percentile": 100.0, "value": ordered[-1], "beyond": 0, "samples": n}


def median(values: Iterable[float]) -> float:
    """Interpolated median (``statistics.median``) of non-empty ``values``."""
    return float(statistics.median(list(values)))


def per_second_rates(times: Iterable[float], start: float, end: float) -> List[float]:
    """Events per second in each whole one-second bin of ``[start, end)``."""
    bins = int(end - start)
    if bins < 1:
        raise ValueError("a rate needs at least one whole second")
    counts = [0] * bins
    for t in times:
        index = int(t - start)
        if 0 <= index < bins:
            counts[index] += 1
    return [float(count) for count in counts]


def interval_union(intervals: Iterable[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping ``(start, end)`` pairs."""
    total = 0.0
    cur_start: Optional[float] = None
    cur_end = 0.0
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if cur_start is None or start > cur_end:
            if cur_start is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_start is not None:
        total += cur_end - cur_start
    return total


def self_time(
    start: float, end: float, children: Iterable[Tuple[float, float]]
) -> float:
    """A span's self time: its length minus the part its children cover.

    Children are clipped to the span and overlapping children (parallel
    workers under one batch) count once, so self time is never negative.
    """
    clipped = [
        (max(start, child_start), min(end, child_end))
        for child_start, child_end in children
    ]
    return max(0.0, (end - start) - interval_union(clipped))


# ----------------------------------------------------------------------
# /stats deltas
# ----------------------------------------------------------------------


def _latency_sum(snapshot: Mapping[str, float]) -> Tuple[float, int]:
    count = int(snapshot.get("count", 0))
    return float(snapshot.get("mean_seconds", 0.0)) * count, count


def _window_mean_ms(before: Mapping, after: Mapping) -> float:
    """Mean of the latencies recorded between two histogram snapshots."""
    sum_b, count_b = _latency_sum(before)
    sum_a, count_a = _latency_sum(after)
    count = count_a - count_b
    return (sum_a - sum_b) / count * 1e3 if count > 0 else 0.0


def _cache_delta(before: Optional[Mapping], after: Optional[Mapping]) -> Dict[str, float]:
    before = before or {}
    after = after or {}
    out = {
        key: float(after.get(key, 0)) - float(before.get(key, 0))
        for key in ("hits", "misses", "evictions")
    }
    out["bytes"] = float(after.get("current_bytes", 0))
    return out


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator > 0 else 0.0


def stats_window(before: Mapping, after: Mapping) -> Dict[str, float]:
    """Per-layer figures over the window between two ``/stats`` snapshots.

    ``/stats`` counters are lifetime totals; every figure here is a delta
    (or, for byte gauges, the value at the window's end).  The engine's
    ``cache`` block sums the sub-graph cache *and* the result cache, so the
    sub-graph share is ``cache - result_cache``.
    """
    adm_b, adm_a = before["admission"], after["admission"]
    eng_b, eng_a = before["engine"], after["engine"]
    batches = after["batches"] - before["batches"]
    batched = after["batched_queries"] - before["batched_queries"]
    dedup = after["dedup_hits"] - before["dedup_hits"]
    served = eng_a["queries_served"] - eng_b["queries_served"]
    query_s = eng_a["query_seconds"] - eng_b["query_seconds"]
    wall_s = eng_a["wall_seconds"] - eng_b["wall_seconds"]
    admission_ms = _window_mean_ms(adm_b["latency"], adm_a["latency"])
    engine_ms = _ratio(query_s, served) * 1e3

    combined = _cache_delta(eng_b.get("cache"), eng_a.get("cache"))
    result = _cache_delta(eng_b.get("result_cache"), eng_a.get("result_cache"))
    subgraph = {key: combined[key] - result[key] for key in combined}

    out = {
        "frontend.batcher.wait_ms": admission_ms - engine_ms,
        "frontend.batcher.batch_size": _ratio(batched, batches),
        "frontend.batcher.dedup_ratio": _ratio(dedup, batched),
        "frontend.batcher.batches": float(batches),
        "frontend.batcher.dedup_hits": float(dedup),
        "frontend.admission.mean_ms": admission_ms,
        "frontend.admission.shed": float(adm_a["shed"] - adm_b["shed"]),
        "frontend.admission.failed": float(
            (adm_a["failed"] - adm_b["failed"]) + (adm_a["expired"] - adm_b["expired"])
        ),
        "frontend.admission.completed": float(adm_a["completed"] - adm_b["completed"]),
        "engine.queries": float(served),
        "engine.query_ms": engine_ms,
        "backends.parallelism": _ratio(query_s, wall_s),
    }
    for prefix, block in (("cache.subgraph", subgraph), ("result_cache", result)):
        out[f"{prefix}.hit_ratio"] = _ratio(block["hits"], block["hits"] + block["misses"])
        out[f"{prefix}.evictions"] = block["evictions"]
        out[f"{prefix}.bytes"] = block["bytes"]
    return out


def update_window(bodies: Sequence[Mapping]) -> Dict[str, float]:
    """Mean invalidation figures over ``POST /admin/update`` response bodies.

    ``update.survival_ratio`` is the share of result-cache entries an update
    kept (re-keyed to the new graph) rather than dropped.
    """
    keys = (
        ("update.subgraph_dropped", "subgraph_entries_dropped"),
        ("update.result_dropped", "result_entries_dropped"),
        ("update.result_rekeyed", "result_entries_rekeyed"),
    )
    out = {name: 0.0 for name, _ in keys}
    out["update.survival_ratio"] = 0.0
    if not bodies:
        return out
    survival: List[float] = []
    for body in bodies:
        invalidated = body["invalidated"]
        for name, key in keys:
            out[name] += float(invalidated[key])
        kept = float(invalidated["result_entries_rekeyed"])
        seen = kept + float(invalidated["result_entries_dropped"])
        if seen > 0:
            survival.append(kept / seen)
    for name, _ in keys:
        out[name] /= len(bodies)
    out["update.survival_ratio"] = statistics.fmean(survival) if survival else 0.0
    return out


def due_latency_ms(due: float, done: float) -> float:
    """Open-loop latency: from when the request was *due*, not when sent.

    A request that waited for a busy connection is charged that wait —
    timing from the send would hide exactly the queueing an overloaded
    system causes (coordinated omission).
    """
    return (done - due) * 1e3


# ----------------------------------------------------------------------
# The traced run's per-query ledger
# ----------------------------------------------------------------------

#: Layers on a read's path, timed by ``launcher.py``; reported per answered
#: query as self ms and calls.
READ_LAYERS = (
    "frontend.batcher.submit",
    "engine.batch",
    "result_cache.get",
    "result_cache.put",
    "cache.subgraph.lookup",
    "graph.extract",
    "graph.induce",
    "diffusion",
    "meloppr.fold",
    "meloppr.select",
    "meloppr.finish",
)
#: Layers on the write path; reported per answered update.
UPDATE_LAYERS = ("engine.update", "graph.compact")
#: Counters the launcher accumulates beside the spans; reported per query.
COUNTERS = ("graph.extract_nodes", "diffusion.propagations", "meloppr.evictions")

STATS_UNITS = {
    "frontend.http.transport_ms": "ms",
    "frontend.batcher.wait_ms": "ms",
    "frontend.batcher.batch_size": "count",
    "frontend.batcher.dedup_ratio": "ratio",
    "frontend.admission.shed": "count",
    "frontend.admission.failed": "count",
    "engine.query_ms": "ms",
    "backends.parallelism": "ratio",
    "cache.subgraph.hit_ratio": "ratio",
    "cache.subgraph.evictions": "count",
    "cache.subgraph.bytes": "bytes",
    "result_cache.hit_ratio": "ratio",
    "result_cache.evictions": "count",
    "result_cache.bytes": "bytes",
    "update.subgraph_dropped": "count",
    "update.result_dropped": "count",
    "update.result_rekeyed": "count",
    "update.survival_ratio": "ratio",
    "loadgen.lag_ms": "ms",
}


def layer_metric(layer: str, what: str) -> str:
    """``graph.extract`` -> ``graph.extract_ms``; ``diffusion`` -> ``diffusion.ms``."""
    return f"{layer}.{what}" if "." not in layer else f"{layer}_{what}"


def _per_layer_units() -> Dict[str, str]:
    # The tails are end-to-end figures, but too unsteady on a small noisy
    # host to gate on (see README): they ride here, unbounded.
    units = {"latency_tail_ms": "ms", "update_tail_ms": "ms"}
    units.update(STATS_UNITS)
    for layer in READ_LAYERS + UPDATE_LAYERS:
        units[layer_metric(layer, "ms")] = "ms"
        units[layer_metric(layer, "calls")] = "count"
    for counter in COUNTERS:
        units[counter] = "count"
    units["residual_ms"] = "ms"
    units["trace.accounted_share"] = "ratio"
    units["trace.overhead"] = "ratio"
    return units


#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS = _per_layer_units()


def traced_ledger(
    layers: Mapping[str, Mapping[str, float]],
    client_ms: Sequence[float],
    updates: int,
    window: Mapping[str, float],
) -> Dict[str, float]:
    """Per-query layer self times, the residual and the accounted share.

    ``layers`` are the launcher's totals over the timed window (seconds),
    ``client_ms`` the client latency (send to answer) of every answered
    read in it, ``window`` the :func:`stats_window` figures of the same
    pass.  ``frontend.batcher.submit`` waits for the batch its query rode
    in; its self time is its span minus that batch (``engine.batch.covered``
    sums batch span x unique queries; dedup'd waiters count one mean batch).
    """
    n = len(client_ms)
    if n == 0:
        raise ValueError("no answered reads in the traced window")

    def get(name: str, key: str) -> float:
        return float(layers.get(name, {}).get(key, 0.0))

    out: Dict[str, float] = {}
    accounted = float(window["frontend.http.transport_ms"])
    batches = get("engine.batch", "calls")
    mean_batch = get("engine.batch", "inclusive_s") / batches if batches else 0.0
    for layer in READ_LAYERS:
        own = get(layer, "self_s")
        if layer == "frontend.batcher.submit":
            covered = get("engine.batch.covered", "self_s")
            covered += window.get("frontend.batcher.dedup_hits", 0.0) * mean_batch
            own = max(0.0, get(layer, "inclusive_s") - covered)
        ms = own * 1e3 / n
        out[layer_metric(layer, "ms")] = ms
        out[layer_metric(layer, "calls")] = get(layer, "calls") / n
        accounted += ms
    for layer in UPDATE_LAYERS:
        out[layer_metric(layer, "ms")] = get(layer, "self_s") * 1e3 / updates if updates else 0.0
        out[layer_metric(layer, "calls")] = get(layer, "calls") / updates if updates else 0.0
    for counter in COUNTERS:
        out[counter] = get(counter, "self_s") / n
    mean_client = statistics.fmean(client_ms)
    out["residual_ms"] = mean_client - accounted
    out["trace.accounted_share"] = accounted / mean_client
    return out
