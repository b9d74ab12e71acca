"""The async serving frontend: the request path on top of the compute path.

PR 1/2 built the compute path — a batched :class:`~repro.serving.engine.QueryEngine`
with pluggable backends, sub-graph caches and shard routing.  This package is
the request-facing layer that turns a stream of individual online queries
into the well-formed batches that engine is optimised for:

* :class:`AsyncBackend` — an :class:`~repro.serving.backends.ExecutionBackend`
  running jobs on an asyncio event loop (bounded thread-pool offload,
  submission-order results, bit-identical scores).
* :class:`MicroBatcher` — coalesces ``await submit(query)`` calls into engine
  batches under a :class:`BatchPolicy`, deduplicates identical in-flight
  queries, and enforces per-query deadlines.
* :class:`AdmissionController` — a bounded in-flight queue with explicit
  shedding (:class:`QueryShedError`) and p50/p95/p99 latency telemetry.
* :class:`HttpQueryServer` / :class:`HttpClient` / :class:`HttpClientPool` —
  the front door: the batcher served over HTTP/1.1 + JSON, with a
  Prometheus ``/metrics`` endpoint
  (:func:`render_prometheus` / :func:`parse_prometheus_text`).
* :class:`HttpQueryClient` — the query-client API
  (``query``/``query_batch``/``ping``/``stats``/``drain``/``traces``,
  typed errors, retry-with-backoff) on a keep-alive connection pool.
* :class:`ReplicaRouter` — the multi-replica front door: consistent-hash
  seed routing over a fleet (see :mod:`repro.serving.replica`), bounded
  retry-with-failover, rolling drain, and aggregated
  ``/stats``/``/metrics``/``/debug/traces``.
* :class:`ServingConfig` / :func:`build_frontend` — the one CLI/config
  surface the server (and the replica supervisor) build from.
* ``PROTOCOL_VERSION`` — every JSON envelope carries a ``proto`` field so
  mixed-version fleets fail loudly (:class:`ProtocolMismatchError`).
* :func:`apply_reload` — hot config reload (admission bound, batch policy,
  cache budgets); the server also implements graceful drain (``drain()``:
  stop accepting, finish every in-flight query).
* :class:`WorkloadRecorder` / :func:`replay_trace` — capture accepted
  queries with arrival offsets as JSONL traces and replay them as
  repeatable benchmarks.
* :func:`configure_logging` / :func:`log_request` — structured per-request
  logging (``--log-level``/``--log-json`` on the server CLI), one line
  per answered query carrying the trace id when the query was sampled.
"""

from repro.serving.frontend.admission import (
    AdmissionController,
    AdmissionStats,
    DeadlineExceededError,
    QueryRejectedError,
    QueryShedError,
)
from repro.serving.frontend.async_backend import AsyncBackend
from repro.serving.frontend.batcher import BatcherStats, BatchPolicy, MicroBatcher
from repro.serving.frontend.client import (
    ClientConnectionError,
    HttpQueryClient,
    ServerError,
    raise_for_response,
)
from repro.serving.frontend.config import (
    ServingConfig,
    add_serving_arguments,
    build_frontend,
    build_serving_parser,
)
from repro.serving.frontend.http import (
    BaseHttpServer,
    HttpClient,
    HttpClientPool,
    HttpQueryServer,
)
from repro.serving.frontend.metrics import (
    PrometheusScrape,
    parse_prometheus_text,
    render_prometheus,
)
from repro.serving.frontend.ops import (
    RELOADABLE_KEYS,
    apply_graph_update,
    apply_reload,
    frontend_config,
)
from repro.serving.frontend.request_log import (
    REQUEST_LOGGER_NAME,
    configure_logging,
    log_request,
)
from repro.serving.frontend.recorder import (
    TraceRecord,
    WorkloadRecorder,
    load_trace,
    replay_trace,
    replay_trace_sync,
    save_trace,
)
from repro.serving.frontend.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
    ProtocolMismatchError,
    check_protocol_version,
)
from repro.serving.frontend.router import ReplicaRouter
from repro.serving.frontend.server import write_ready_file

__all__ = [
    "AdmissionController",
    "AdmissionStats",
    "AsyncBackend",
    "BaseHttpServer",
    "BatchPolicy",
    "BatcherStats",
    "CAPABILITIES",
    "ClientConnectionError",
    "DeadlineExceededError",
    "HttpClient",
    "HttpClientPool",
    "HttpQueryClient",
    "HttpQueryServer",
    "MicroBatcher",
    "PROTOCOL_VERSION",
    "PrometheusScrape",
    "ProtocolMismatchError",
    "QueryRejectedError",
    "QueryShedError",
    "RELOADABLE_KEYS",
    "REQUEST_LOGGER_NAME",
    "ReplicaRouter",
    "ServerError",
    "ServingConfig",
    "TraceRecord",
    "WorkloadRecorder",
    "add_serving_arguments",
    "apply_graph_update",
    "apply_reload",
    "build_frontend",
    "build_serving_parser",
    "check_protocol_version",
    "configure_logging",
    "frontend_config",
    "load_trace",
    "log_request",
    "parse_prometheus_text",
    "raise_for_response",
    "render_prometheus",
    "replay_trace",
    "replay_trace_sync",
    "save_trace",
    "write_ready_file",
]
