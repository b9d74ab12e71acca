"""Query serving: batching, caching, sharding, pluggable execution.

This package is the engine layer between the PPR solvers and callers with
traffic: it batches queries (:class:`QueryEngine`), reuses BFS extractions
across them (:class:`SubgraphCache`), reuses folded stage-one score tables
across repeated hot-seed queries (:class:`ScoreTableCache` — a cache hit
skips straight to the stage-two tasks, bit-identically), routes extractions
to the shard owning them (:class:`ShardRouter` over a
:class:`~repro.graph.partition.GraphPartition`, one cache per shard) and runs
the per-query work on a pluggable :class:`ExecutionBackend` (serial,
thread-pool, asyncio or a shared-memory process pool; build one from a spec
string with :func:`make_backend`).  The algorithmic stage loop it drives lives in
:mod:`repro.meloppr.planner`; the online request path — micro-batching,
admission control, the HTTP/JSON service — lives in
:mod:`repro.serving.frontend`.

Observability cuts across all of it: attach a :class:`Tracer` to the engine
and sampled queries record a span tree — admission wait, batch membership,
per-stage compute, cache hit/miss, shard routing, worker-side spans shipped
back across the process pool — exportable as Chrome trace-event JSON
(:mod:`repro.serving.tracing`).
"""

from repro.serving.backends import (
    ExecutionBackend,
    ProcessPoolBackend,
    SerialBackend,
    ThreadPoolBackend,
    WorkerCrashError,
    make_backend,
)
from repro.serving.cache import DEFAULT_CACHE_BYTES, CacheStats, SubgraphCache
from repro.serving.engine import EngineStats, QueryEngine
from repro.serving.result_cache import (
    DEFAULT_RESULT_CACHE_BYTES,
    ScoreTableCache,
    stage_one_cache_key,
)
from repro.serving.sharding import RouterStats, ShardRouter, ShardServingStats
from repro.serving.shm import (
    SharedGraphHandle,
    SharedShardHandle,
    leaked_segment_names,
)
from repro.serving.telemetry import LatencyHistogram, LatencySnapshot
from repro.serving.tracing import (
    Span,
    TraceContext,
    Tracer,
    TracingStats,
    format_traceparent,
    parse_traceparent,
    validate_trace_events,
)

__all__ = [
    "ExecutionBackend",
    "SerialBackend",
    "ThreadPoolBackend",
    "ProcessPoolBackend",
    "WorkerCrashError",
    "make_backend",
    "DEFAULT_CACHE_BYTES",
    "CacheStats",
    "SubgraphCache",
    "DEFAULT_RESULT_CACHE_BYTES",
    "ScoreTableCache",
    "stage_one_cache_key",
    "EngineStats",
    "QueryEngine",
    "RouterStats",
    "ShardRouter",
    "ShardServingStats",
    "SharedGraphHandle",
    "SharedShardHandle",
    "leaked_segment_names",
    "LatencyHistogram",
    "LatencySnapshot",
    "Span",
    "TraceContext",
    "Tracer",
    "TracingStats",
    "format_traceparent",
    "parse_traceparent",
    "validate_trace_events",
]
