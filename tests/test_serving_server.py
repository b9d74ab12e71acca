"""Tests for the query server driven through its client API.

Everything runs against a real ``HttpQueryServer`` on an ephemeral localhost
port, driven by ``HttpQueryClient``: the differential round-trip (wire
answers identical to the in-process engine), protocol-level
shed/deadline/bad-request answers, the stats document, the server lifecycle
and ``SIGTERM`` drain, and the CLI helpers in
``repro.serving.frontend.server``.
"""

from __future__ import annotations

import asyncio
import json
import time

import pytest

from repro.diffusion.sparse_vector import SparseScoreVector
from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult, PPRSolver
from repro.serving import QueryEngine, SubgraphCache
from repro.serving.frontend import (
    AdmissionController,
    BatchPolicy,
    HttpQueryClient,
    HttpQueryServer,
    MicroBatcher,
    QueryShedError,
    ServerError,
)


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


class SleepySolver(PPRSolver):
    """Stub solver with a fixed service time (forces queueing)."""

    name = "sleepy"

    def __init__(self, graph, delay_seconds: float) -> None:
        super().__init__(graph)
        self.delay_seconds = delay_seconds

    def solve(self, query: PPRQuery) -> PPRResult:
        time.sleep(self.delay_seconds)
        return PPRResult(query=query, scores=SparseScoreVector({query.seed: 1.0}))


def serve(engine, policy=None, admission=None):
    """Async context manager: batcher + server + connected client."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, policy, admission)
            await self.batcher.start()
            self.server = HttpQueryServer(self.batcher)
            host, port = await self.server.start()
            self.client = await HttpQueryClient.connect(host, port)
            return self.client, self.server

        async def __aexit__(self, exc_type, exc, traceback):
            await self.client.close()
            await self.server.stop()
            await self.batcher.stop()

    return _Stack()


class TestRoundTrip:
    def test_wire_answers_match_engine(self, small_ba_graph, config):
        queries = [PPRQuery(seed=s, k=30) for s in (3, 11, 27, 3, 11)]
        with QueryEngine(MeLoPPRSolver(small_ba_graph, config)) as reference:
            expected = [
                [(int(n), float(s)) for n, s in result.top_k()]
                for result in reference.solve_batch(queries)
            ]

        engine = QueryEngine(
            MeLoPPRSolver(small_ba_graph, config), cache=SubgraphCache()
        )

        async def run():
            async with serve(engine) as (client, _):
                return await asyncio.gather(
                    *(client.solve(seed=q.seed, k=q.k) for q in queries)
                )

        with engine:
            answers = asyncio.run(run())
        assert answers == expected

    def test_ping_and_stats(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                assert await client.ping()
                await client.solve(seed=3, k=10)
                stats = await client.stats()
                return stats

        with engine:
            stats = asyncio.run(run())
        # The stats document is the nested frontend/admission/engine report.
        assert stats["batches"] >= 1
        assert stats["admission"]["completed"] == 1
        assert stats["admission"]["shed_rate"] == 0.0
        assert stats["admission"]["latency"]["count"] == 1
        assert stats["engine"]["queries_served"] == 1
        assert stats["policy"]["max_batch_size"] >= 1
        json.dumps(stats)  # and it is JSON-serialisable end to end

    def test_query_response_shape(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.query(seed=3, k=10)

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is True
        assert response["seed"] == 3
        assert response["k"] == 10
        assert response["latency_ms"] >= 0
        assert len(response["top"]) <= 10
        assert all(len(pair) == 2 for pair in response["top"])


class TestProtocolErrors:
    def test_missing_seed_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request_query({"k": 10})

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "seed" in response["message"]

    def test_out_of_range_seed_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                with pytest.raises(ServerError, match="bad_request"):
                    await client.solve(seed=10_000, k=10)

        with engine:
            asyncio.run(run())

    def test_invalid_timeout_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request_query({"seed": 3, "timeout_ms": -5})

        with engine:
            response = asyncio.run(run())
        assert response["error"] == "bad_request"

    def test_float_seed_is_bad_request_not_truncated(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request_query({"seed": 42.9, "k": 10})

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "seed" in response["message"]

    def test_boolean_seed_is_bad_request(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (client, _):
                return await client.request_query({"seed": True, "k": 10})

        with engine:
            response = asyncio.run(run())
        assert response["error"] == "bad_request"

    def test_oversized_line_answered_then_connection_closed(
        self, small_ba_graph, config
    ):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (_, server):
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                # A request line past the stream's buffer limit.
                writer.write(
                    b"GET /" + b"x" * 70_000 + b" HTTP/1.1\r\nHost: t\r\n\r\n"
                )
                await writer.drain()
                # read() returns only at EOF: the server closed the stream.
                raw = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return raw

        with engine:
            raw = asyncio.run(run())
        # An explicit protocol answer, then a clean close — not a dropped
        # connection with no response.
        head, _, body = raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.1 400 ")
        response = json.loads(body)
        assert response["ok"] is False
        assert response["error"] == "bad_request"
        assert "too long" in response["message"]

    def test_malformed_json_line_gets_error_response(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            async with serve(engine) as (_, server):
                host, port = server.address
                reader, writer = await asyncio.open_connection(host, port)
                body = b"this is not json"
                writer.write(
                    b"POST /query HTTP/1.1\r\nHost: t\r\nConnection: close\r\n"
                    b"Content-Length: %d\r\n\r\n" % len(body) + body
                )
                await writer.drain()
                raw = await asyncio.wait_for(reader.read(), timeout=5)
                writer.close()
                await writer.wait_closed()
                return json.loads(raw.partition(b"\r\n\r\n")[2])

        with engine:
            response = asyncio.run(run())
        assert response["ok"] is False
        assert response["error"] == "bad_request"


class TestServerLifecycle:
    def test_address_before_start_raises(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        server = HttpQueryServer(MicroBatcher(engine))
        with pytest.raises(RuntimeError, match="not started"):
            server.address
        engine.close()

    def test_double_start_raises_and_stop_is_idempotent(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = HttpQueryServer(batcher)
            await server.start()
            with pytest.raises(RuntimeError, match="already started"):
                await server.start()
            await server.stop()
            await server.stop()  # idempotent
            await batcher.stop()

        with engine:
            asyncio.run(run())

    def test_serve_forever_autostarts_and_serves(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))

        async def run():
            batcher = MicroBatcher(engine)
            await batcher.start()
            server = HttpQueryServer(batcher)
            forever = asyncio.ensure_future(server.serve_forever())
            while server._server is None:  # wait for the auto-start
                await asyncio.sleep(0.01)
            host, port = server.address
            client = await HttpQueryClient.connect(host, port)
            assert await client.ping()
            await client.close()
            forever.cancel()
            try:
                await forever
            except asyncio.CancelledError:
                pass
            await server.stop()
            await batcher.stop()

        with engine:
            asyncio.run(run())

    def test_sigterm_triggers_graceful_drain(self, small_ba_graph):
        import os
        import signal

        from repro.serving.frontend.server import install_drain_signal_handler

        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            batcher = MicroBatcher(engine, policy)
            await batcher.start()
            server = HttpQueryServer(batcher)
            host, port = await server.start()
            install_drain_signal_handler(server)
            client = await HttpQueryClient.connect(host, port)
            try:
                inflight = asyncio.ensure_future(client.solve(seed=1, k=5))
                await asyncio.sleep(0.02)
                os.kill(os.getpid(), signal.SIGTERM)
                # The signal handler schedules the drain on the loop; the
                # in-flight query must still be answered, then the listener
                # refuses new connections.
                assert await inflight == [(1, 1.0)]
                await server.drain()
                assert server.draining
                with pytest.raises(OSError):
                    await HttpQueryClient.connect(host, port)
            finally:
                asyncio.get_running_loop().remove_signal_handler(signal.SIGTERM)
                await client.close()
                await server.drain()
                await batcher.stop()

        with engine:
            asyncio.run(run())


class TestOverloadOverTheWire:
    def test_deadline_is_a_protocol_answer(self, small_ba_graph):
        from repro.serving.frontend import DeadlineExceededError

        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.1))
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            async with serve(engine, policy) as (client, _):
                blocker = asyncio.ensure_future(client.solve(seed=1, k=10))
                await asyncio.sleep(0.02)
                with pytest.raises(DeadlineExceededError):
                    await client.solve(seed=2, k=10, timeout_ms=5.0)
                await blocker

        with engine:
            asyncio.run(run())

    def test_shed_is_a_protocol_answer(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        admission = AdmissionController(max_pending=2)
        policy = BatchPolicy(max_batch_size=1, max_wait_ms=0.0)

        async def run():
            async with serve(engine, policy, admission) as (client, _):
                outcomes = await asyncio.gather(
                    *(client.solve(seed=s % 5, k=10) for s in range(12)),
                    return_exceptions=True,
                )
                return outcomes

        with engine:
            outcomes = asyncio.run(run())
        completed = [o for o in outcomes if isinstance(o, list)]
        shed = [o for o in outcomes if isinstance(o, QueryShedError)]
        assert len(completed) + len(shed) == 12
        assert shed, "overload must produce explicit shed responses"
        assert completed, "admitted queries must still be answered"


class TestServerCLIConstruction:
    def test_build_frontend_from_cli_args(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(
            [
                "--dataset",
                "G1",
                "--backend",
                "thread:2",
                "--max-batch",
                "4",
                "--max-wait-ms",
                "1.5",
                "--no-dedup",
                "--max-pending",
                "32",
            ]
        )
        engine, policy, admission = build_frontend(args)
        try:
            assert engine.backend.name == "thread-pool"
            assert engine.cache is not None
            assert policy.max_batch_size == 4
            assert policy.max_wait_ms == 1.5
            assert policy.dedup is False
            assert admission.max_pending == 32
        finally:
            engine.close()

    def test_build_frontend_no_cache(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(["--no-cache", "--backend", "serial"])
        engine, _, _ = build_frontend(args)
        try:
            assert engine.cache is None
            assert engine.backend.name == "serial"
            # --no-cache means ALL caching off: a surviving result cache
            # would silently invalidate an operator's uncached baseline.
            assert engine.result_cache is None
        finally:
            engine.close()

        # ...unless an explicit --result-cache-bytes overrides it.
        args = build_parser().parse_args(
            ["--no-cache", "--backend", "serial", "--result-cache-bytes", "65536"]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.cache is None
            assert engine.result_cache is not None
        finally:
            engine.close()

    def test_build_frontend_result_cache_flags(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(
            [
                "--backend",
                "serial",
                "--result-cache-bytes",
                "65536",
                "--result-cache-ttl",
                "30",
            ]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.result_cache.max_bytes == 65536
            assert engine.result_cache.ttl_seconds == 30.0
        finally:
            engine.close()

        args = build_parser().parse_args(
            ["--backend", "serial", "--result-cache-bytes", "0"]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.result_cache is None
        finally:
            engine.close()

        # A non-positive TTL means "no TTL" (same 0-disables convention as
        # the bytes flag), not a ValueError at server startup.
        args = build_parser().parse_args(
            ["--backend", "serial", "--result-cache-ttl", "0"]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.result_cache is not None
            assert engine.result_cache.ttl_seconds is None
        finally:
            engine.close()


class TestReportedLatency:
    def test_reported_latency_covers_the_full_server_path(self, small_ba_graph):
        """The wire-reported latency clock starts at request receipt.

        It must therefore dominate the admission-measured latency (which
        starts later, at submit): a reported latency below the batcher's
        own measurement would mean the server was excluding parse/dispatch
        time from what it tells clients.
        """
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))

        async def run():
            async with serve(engine) as (client, server):
                response = await client.request_query({"seed": 1, "k": 5})
                stats = server.batcher.stats()
                return response, stats

        with engine:
            response, stats = asyncio.run(run())
        assert response["ok"] is True
        reported_ms = response["latency_ms"]
        measured_ms = stats.admission.latency.max_seconds * 1e3
        assert measured_ms > 0
        assert reported_ms >= measured_ms
        # And it is a real measurement of the sleepy solve, not a stopwatch
        # started after the work happened.
        assert reported_ms >= 50.0


class TestProcessBackendCLIRebuild:
    def test_no_cache_rebuild_preserves_process_backend_config(self):
        """Regression: ``--no-cache`` rebuilds the backend; the rebuild must
        keep the worker count, spawn context and kernel of the original."""
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(
            [
                "--no-cache",
                "--backend",
                "process:2",
                "--kernel",
                "csr",
            ]
        )
        engine, _, _ = build_frontend(args)
        try:
            assert engine.cache is None
            assert engine.result_cache is None
            # The engine-resolved kernel (what every stage task runs with).
            assert engine.kernel == "csr"
            # The rebuilt backend keeps the original's full configuration.
            assert engine.backend.name == "process-pool"
            assert engine.backend.num_workers == 2
            from repro.diffusion.kernels import resolve_kernel_name
            from repro.serving.backends import make_backend

            pristine = make_backend("process:2")
            try:
                assert engine.backend.kernel == pristine.kernel
                assert engine.backend.mp_context == pristine.mp_context
            finally:
                pristine.close()
            assert engine.backend.kernel == resolve_kernel_name(None)
        finally:
            engine.close()

    def test_cached_process_backend_keeps_kernel(self):
        from repro.serving.frontend.server import build_frontend, build_parser

        args = build_parser().parse_args(["--backend", "process:2", "--kernel", "csr"])
        engine, _, _ = build_frontend(args)
        try:
            assert engine.kernel == "csr"
            assert engine.backend.name == "process-pool"
            assert engine.backend.num_workers == 2
        finally:
            engine.close()
