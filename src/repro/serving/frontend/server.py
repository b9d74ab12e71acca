"""Transport-neutral helpers shared by the HTTP front door and its callers.

The HTTP server (:mod:`repro.serving.frontend.http`) is the one wire
protocol; this module holds what its CLI, the replica supervisor
(:mod:`repro.serving.replica`) and the tests share with it:

* :func:`parse_query_request` — strict validation of a query object
  (``{"seed": 42, "k": 100, "alpha": 0.85, "length": 6, "timeout_ms": 250}``);
* :func:`build_parser` / :func:`build_frontend` — the serving CLI surface
  and the ``(engine, policy, admission)`` assembly behind it;
* :func:`write_ready_file` — the readiness record a spawned server
  publishes for its supervisor;
* :func:`install_drain_signal_handler` — ``SIGTERM`` → graceful drain.
"""

from __future__ import annotations

import argparse
import asyncio
import json
from typing import Optional, Tuple

from repro.ppr.base import PPRQuery
from repro.serving.frontend.config import ServingConfig, build_serving_parser
from repro.serving.frontend.config import build_frontend as _build_frontend
from repro.serving.frontend.protocol import (
    CAPABILITIES,
    PROTOCOL_VERSION,
)
from repro.utils.validation import check_node_id

__all__ = [
    "build_frontend",
    "build_parser",
    "install_drain_signal_handler",
    "parse_query_request",
    "write_ready_file",
]


def _require_int(value: object, name: str) -> int:
    """A strict JSON-integer check (booleans and floats are bad requests)."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be a JSON integer, got {value!r}")
    return value


def _require_number(value: object, name: str) -> float:
    """A strict JSON-number check (booleans are bad requests)."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{name} must be a JSON number, got {value!r}")
    return value


def parse_query_request(
    request: dict, num_nodes: int
) -> Tuple[PPRQuery, Optional[float]]:
    """Validate a query-request dict; returns ``(query, timeout_ms)``.

    Integer fields are validated strictly — ``42.9`` is a bad request, not
    a silent truncation to seed 42, and JSON booleans are rejected
    (``check_node_id`` would refuse them anyway; ``_require_int`` keeps
    ``k``/``length`` to the same standard).  Bad fields raise
    ``ValueError`` and must never poison a batch.
    """
    if not isinstance(request, dict):
        raise ValueError("request must be a JSON object")
    if "seed" not in request:
        raise ValueError("query request must carry a 'seed'")
    seed = check_node_id(
        _require_int(request["seed"], "seed"), num_nodes, "seed"
    )
    query = PPRQuery(
        seed=seed,
        k=_require_int(request.get("k", 200), "k"),
        alpha=float(_require_number(request.get("alpha", 0.85), "alpha")),
        length=_require_int(request.get("length", 6), "length"),
    )
    timeout_ms = request.get("timeout_ms")
    if timeout_ms is not None:
        timeout_ms = float(_require_number(timeout_ms, "timeout_ms"))
        if timeout_ms <= 0:
            raise ValueError(f"timeout_ms must be > 0, got {timeout_ms}")
    return query, timeout_ms


def build_parser() -> argparse.ArgumentParser:
    """The serving CLI's argument parser (the shared serving flag surface).

    The HTTP CLI and :class:`~repro.serving.replica.ReplicaSet`, which
    spawns it, share one flag set, installed by
    :func:`repro.serving.frontend.config.add_serving_arguments`.
    """
    return build_serving_parser(__doc__)


def build_frontend(args):
    """Construct the (engine, policy, admission) triple the CLI serves.

    Thin adapter kept for callers holding a parsed ``argparse.Namespace``
    (tests, studies); the assembly itself lives in
    :func:`repro.serving.frontend.config.build_frontend`, shared with the
    HTTP CLI and the replica supervisor.  Accepts a :class:`ServingConfig`
    directly too.
    """
    if not isinstance(args, ServingConfig):
        args = ServingConfig.from_args(args)
    return _build_frontend(args)


def write_ready_file(path: str, host: str, port: int, **extra: object) -> None:
    """Atomically publish a server's readiness record.

    The record carries the bound address, pid, protocol version and
    capabilities; the replica supervisor polls for it instead of parsing
    the child's stdout.  Written to a temp name then ``os.replace``d so a
    reader can never observe a half-written JSON document.
    """
    import os

    record = {
        "host": host,
        "port": port,
        "pid": os.getpid(),
        "proto": PROTOCOL_VERSION,
        "capabilities": list(CAPABILITIES),
        **extra,
    }
    tmp_path = f"{path}.tmp.{os.getpid()}"
    with open(tmp_path, "w", encoding="utf-8") as handle:
        json.dump(record, handle)
    os.replace(tmp_path, path)


def install_drain_signal_handler(server) -> None:
    """Wire ``SIGTERM`` to a graceful drain of ``server`` (best effort).

    On platforms without ``add_signal_handler`` (Windows event loops) this
    is a no-op — operators there use ``POST /admin/drain`` instead.
    """
    import signal

    loop = asyncio.get_running_loop()

    def trigger() -> None:
        print("SIGTERM: draining (in-flight queries will complete)")
        asyncio.ensure_future(server.drain())

    try:
        loop.add_signal_handler(signal.SIGTERM, trigger)
    except (NotImplementedError, RuntimeError):  # pragma: no cover - non-POSIX
        pass
