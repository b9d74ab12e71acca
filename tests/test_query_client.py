"""The ``HttpQueryClient`` API: conformance, retries, and failover.

Normal queries and batches are bit-identical to the in-process engine,
connection refusal / mid-response disconnect / server crash all surface
as ``ClientConnectionError`` (and are healed by ``retries=``), and a
peer advertising a different protocol version raises
``ProtocolMismatchError`` instead of mis-parsing.  After every abuse,
a differential query proves the surviving server still answers exactly
what the serial engine computes.
"""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery
from repro.serving import QueryEngine
from repro.serving.frontend import (
    BatchPolicy,
    ClientConnectionError,
    HttpQueryClient,
    HttpQueryServer,
    MicroBatcher,
    ProtocolMismatchError,
    QueryShedError,
    ServerError,
)

#: HTTP is the one transport; the parameter keeps the conformance test ids.
TRANSPORTS = ["http"]


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


@pytest.fixture()
def engine(small_ba_graph, config):
    engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
    yield engine
    engine.close()


@pytest.fixture()
def expected_top(engine):
    result = engine.solve_batch([PPRQuery(seed=3, k=10)])[0]
    return [(int(n), float(s)) for n, s in result.top_k()]


def serve(engine):
    """Async context: one batcher behind an HTTP server."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, BatchPolicy(max_wait_ms=0.5))
            await self.batcher.start()
            self.server = HttpQueryServer(self.batcher)
            return await self.server.start()

        async def __aexit__(self, exc_type, exc, traceback):
            await self.server.stop()
            await self.batcher.stop()

    return _Stack()


async def assert_still_serving(client, expected_top):
    """The differential check: the client's answer == the serial engine's."""
    assert await client.solve(seed=3, k=10) == expected_top


# ----------------------------------------------------------------------
# Conformance
# ----------------------------------------------------------------------


@pytest.mark.parametrize("transport", TRANSPORTS)
class TestConformance:
    def test_query_and_solve_match_engine(
        self, engine, expected_top, transport
    ):
        async def run():
            async with serve(engine) as (host, port):
                async with await HttpQueryClient.connect(host, port) as client:
                    response = await client.query(seed=3, k=10)
                    assert response["ok"] is True
                    assert response["proto"] == 1
                    await assert_still_serving(client, expected_top)

        asyncio.run(run())

    def test_query_batch_preserves_order(self, engine, transport):
        async def run():
            async with serve(engine) as (host, port):
                async with await HttpQueryClient.connect(host, port) as client:
                    requests = [
                        client.build_query_payload(seed, k=5)
                        for seed in (1, 2, 3, 4, 5)
                    ]
                    responses = await client.query_batch(requests)
                    assert [r["seed"] for r in responses] == [1, 2, 3, 4, 5]
                    assert all(r["ok"] for r in responses)

        asyncio.run(run())

    def test_ping_stats_drain(self, engine, transport):
        async def run():
            async with serve(engine) as (host, port):
                client = await HttpQueryClient.connect(host, port)
                try:
                    assert await client.ping() is True
                    stats = await client.stats()
                    assert "admission" in stats
                    ack = await client.drain()
                    assert ack["ok"] is True
                finally:
                    await client.close()

        asyncio.run(run())

    def test_traces_raise_when_tracing_disabled(self, engine, transport):
        async def run():
            async with serve(engine) as (host, port):
                async with await HttpQueryClient.connect(host, port) as client:
                    with pytest.raises(ServerError):
                        await client.traces()

        asyncio.run(run())

    def test_shed_is_an_answer_not_a_retry(self, engine, transport):
        async def run():
            async with serve(engine) as (host, port):
                # retries=5 must not apply to protocol rejections.
                async with await HttpQueryClient.connect(
                    host, port, retries=5, retry_backoff_ms=1.0
                ) as client:
                    response = await client.query(seed=-1, k=5)
                    assert response["ok"] is False
                    assert response["error"] == "bad_request"
                    with pytest.raises(ServerError):
                        await client.solve(seed=-1, k=5)

        asyncio.run(run())

    def test_connection_refused(self, transport):
        async def run():
            from repro.serving.replica import pick_free_port

            port = pick_free_port()
            with pytest.raises(ClientConnectionError):
                await HttpQueryClient.connect("127.0.0.1", port)

        asyncio.run(run())

    def test_server_crash_then_restart_heals_with_retries(self, transport):
        """A replica crash mid-session: the next query fails transport-level,
        and with ``retries=`` the client rides out the outage and answers
        once the replica is back on the same port."""

        async def run():
            fake = FlakyHttpServer()
            async with fake as (host, port):
                client = await HttpQueryClient.connect(
                    host, port, retries=10, retry_backoff_ms=10.0
                )
                try:
                    assert (await client.query(seed=3, k=5))["ok"] is True
                    await fake.crash()

                    async def restart_later():
                        await asyncio.sleep(0.05)
                        await fake.restart()

                    restart = asyncio.ensure_future(restart_later())
                    # The retry loop spans the outage window.
                    response = await client.query(seed=3, k=5)
                    assert response["ok"] is True and response["seed"] == 3
                    await restart
                finally:
                    await client.close()

        asyncio.run(run())

    def test_crash_without_retries_raises(self, transport):
        async def run():
            fake = FlakyHttpServer()
            async with fake as (host, port):
                client = await HttpQueryClient.connect(host, port)
                try:
                    assert (await client.query(seed=3, k=5))["ok"] is True
                    await fake.crash()
                    with pytest.raises(ClientConnectionError):
                        # (The pool's single internal reconnect also finds
                        # the port closed, so the typed error surfaces.)
                        await client.query(seed=3, k=5)
                finally:
                    await client.close()

        asyncio.run(run())


# ----------------------------------------------------------------------
# Mid-response disconnects and protocol mismatches (scripted fakes)
# ----------------------------------------------------------------------


class _FakeServer:
    """Shared listener scaffolding: scripted failures, crash, restart."""

    def __init__(self, fail_first: int = 0, proto: int = 1) -> None:
        self.fail_first = fail_first
        self.proto = proto
        self.requests_seen = 0
        self._server = None
        self._address = None
        self._writers = set()

    async def __aenter__(self):
        self._server = await asyncio.start_server(
            self._tracked_handle, "127.0.0.1", 0
        )
        self._address = self._server.sockets[0].getsockname()[:2]
        return self._address

    async def __aexit__(self, exc_type, exc, traceback):
        await self.crash()

    async def crash(self):
        """Simulate SIGKILL: abort every connection and stop listening."""
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        for writer in list(self._writers):
            writer.transport.abort()
        self._writers.clear()

    async def restart(self):
        """Come back on the same port (as a supervisor restart would)."""
        assert self._server is None, "crash() first"
        self._server = await asyncio.start_server(
            self._tracked_handle, *self._address
        )

    async def _tracked_handle(self, reader, writer):
        self._writers.add(writer)
        try:
            await self._handle(reader, writer)
        finally:
            self._writers.discard(writer)


class FlakyHttpServer(_FakeServer):
    """Answers like a real front door, but half-writes then drops the
    first ``fail_first`` responses; ``proto=None`` omits the version."""

    async def _handle(self, reader, writer):
        try:
            while True:
                line = await reader.readline()
                if not line:
                    break
                length = 0
                while True:
                    header = await reader.readline()
                    if header in (b"\r\n", b"\n", b""):
                        break
                    name, _, value = header.decode().partition(":")
                    if name.strip().lower() == "content-length":
                        length = int(value)
                body = await reader.readexactly(length) if length else b""
                request = json.loads(body) if body else {}
                self.requests_seen += 1
                if self.requests_seen <= self.fail_first:
                    writer.write(b"HTTP/1.1 200 OK\r\nContent-Le")  # torn
                    await writer.drain()
                    writer.close()
                    return
                response = {
                    "ok": True,
                    "seed": request.get("seed"),
                    "top": [[request.get("seed"), 1.0]],
                }
                if self.proto is not None:
                    response["proto"] = self.proto
                payload = json.dumps(response).encode()
                writer.write(
                    b"HTTP/1.1 200 OK\r\n"
                    b"Content-Type: application/json\r\n"
                    + f"Content-Length: {len(payload)}\r\n\r\n".encode()
                    + payload
                )
                await writer.drain()
        except (ConnectionError, OSError, asyncio.IncompleteReadError):
            pass


class TestMidResponseDisconnect:
    def test_http_disconnect_surfaces_then_retry_heals(self):
        async def run():
            # The pool itself reconnects once per request, so two torn
            # responses are needed to exhaust a retries=0 client.
            fake = FlakyHttpServer(fail_first=2)
            async with fake as (host, port):
                async with await HttpQueryClient.connect(
                    host, port, pool_size=1
                ) as client:
                    with pytest.raises(ClientConnectionError):
                        await client.query(seed=7, k=5)
            fake = FlakyHttpServer(fail_first=2)
            async with fake as (host, port):
                async with await HttpQueryClient.connect(
                    host, port, pool_size=1, retries=3, retry_backoff_ms=1.0
                ) as client:
                    response = await client.query(seed=7, k=5)
                    assert response["ok"] is True and response["seed"] == 7

        asyncio.run(run())

    def test_abused_real_server_still_serves(self, engine, expected_top):
        """After a client saw its peer vanish, a fresh client against the
        real server gets bit-identical answers (the differential)."""

        async def run():
            async with serve(engine) as (host, port):
                fake = FlakyHttpServer(fail_first=2)
                async with fake as (fake_host, fake_port):
                    async with await HttpQueryClient.connect(
                        fake_host, fake_port, pool_size=1
                    ) as client:
                        with pytest.raises(ClientConnectionError):
                            await client.query(seed=3, k=10)
                async with await HttpQueryClient.connect(host, port) as client:
                    await assert_still_serving(client, expected_top)

        asyncio.run(run())


class TestProtocolMismatch:
    def test_http_future_version_raises(self):
        async def run():
            fake = FlakyHttpServer(proto=999)
            async with fake as (host, port):
                async with await HttpQueryClient.connect(
                    host, port, pool_size=1
                ) as client:
                    with pytest.raises(ProtocolMismatchError) as excinfo:
                        await client.query(seed=7, k=5)
                    assert excinfo.value.peer_version == 999

        asyncio.run(run())

    def test_missing_proto_tolerated_by_client(self):
        """Absence is legal for plain clients (pre-versioning servers);
        only the router requires the field."""

        async def run():
            fake = FlakyHttpServer(proto=None)
            async with fake as (host, port):
                async with await HttpQueryClient.connect(
                    host, port, pool_size=1
                ) as client:
                    response = await client.query(seed=7, k=5)
                    assert response["ok"] is True

        asyncio.run(run())


# ----------------------------------------------------------------------
# API shape
# ----------------------------------------------------------------------


def test_retry_parameters_validated():
    with pytest.raises(ValueError):
        HttpQueryClient("127.0.0.1", 1, retries=-1)
    with pytest.raises(ValueError):
        HttpQueryClient("127.0.0.1", 1, retry_backoff_ms=-1.0)
