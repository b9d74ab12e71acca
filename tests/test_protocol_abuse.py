"""Protocol-abuse suite for the HTTP front door.

One malformed-payload corpus is pushed through the server; every abuse
must produce a typed error (the mapped status code with a ``bad_request``
body) — never a silently dropped connection — and the server must keep
answering correct queries afterwards.  A second group abuses the HTTP
framing itself (bad request lines, bad Content-Length, chunked bodies,
oversized payloads, ``HEAD`` on a keep-alive connection), and a third
proves a mid-batch client disconnect cannot poison the answers of the
queries batched alongside it.
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
from repro.serving import QueryEngine
from repro.serving.frontend import (
    BatchPolicy,
    HttpClient,
    HttpQueryServer,
    MicroBatcher,
)


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


class SleepySolver(PPRSolver):
    name = "sleepy"

    def __init__(self, graph, delay_seconds: float) -> None:
        super().__init__(graph)
        self.delay_seconds = delay_seconds

    def solve(self, query: PPRQuery) -> PPRResult:
        time.sleep(self.delay_seconds)
        return PPRResult(query=query, scores=SparseScoreVector({query.seed: 1.0}))


def http_server(engine, policy=None):
    """Async context: one batcher behind an HTTP front door."""

    class _Stack:
        async def __aenter__(self):
            self.batcher = MicroBatcher(engine, policy)
            await self.batcher.start()
            self.http = HttpQueryServer(self.batcher)
            return await self.http.start()

        async def __aexit__(self, exc_type, exc, traceback):
            await self.http.stop()
            await self.batcher.stop()

    return _Stack()


async def http_raw_exchange(addr, request: bytes) -> bytes:
    """Send raw bytes, return the raw response (up to connection close)."""
    reader, writer = await asyncio.open_connection(*addr)
    try:
        writer.write(request)
        await writer.drain()
        return await asyncio.wait_for(reader.read(), timeout=5)
    finally:
        writer.close()
        try:
            await writer.wait_closed()
        except (ConnectionError, OSError):
            pass


def http_post_query(body: bytes, extra_headers: bytes = b"") -> bytes:
    return (
        b"POST /query HTTP/1.1\r\nHost: t\r\n"
        b"Content-Length: " + str(len(body)).encode() + b"\r\n"
        + extra_headers
        + b"Connection: close\r\n\r\n"
        + body
    )


def status_of(raw: bytes) -> int:
    assert raw.startswith(b"HTTP/1.1 "), raw[:40]
    return int(raw.split(b" ", 2)[1])


async def assert_still_serving(http_addr, expected_top) -> None:
    """After any abuse, the server still answers correctly."""
    async with HttpClient(*http_addr) as client:
        status, body = await client.query({"seed": 3, "k": 10})
    assert status == 200 and body["top"] == expected_top


# The shared corpus: payload (as a dict or raw JSON value) plus a fragment
# the error message must mention.
MALFORMED_BODIES = [
    pytest.param([1, 2, 3], "object", id="json-array"),
    pytest.param("a string", "object", id="json-string"),
    pytest.param(42, "object", id="json-number"),
    pytest.param({"k": 10}, "seed", id="missing-seed"),
    pytest.param({"seed": True, "k": 10}, "seed", id="bool-seed"),
    pytest.param({"seed": 3, "k": True}, "k", id="bool-k"),
    pytest.param({"seed": 3.5, "k": 10}, "seed", id="float-seed"),
    pytest.param({"seed": -1, "k": 10}, "", id="negative-seed"),
    pytest.param({"seed": 10**9, "k": 10}, "", id="out-of-range-seed"),
    pytest.param({"seed": 3, "k": 10, "timeout_ms": "fast"}, "timeout_ms", id="string-timeout"),
    pytest.param({"seed": 3, "k": 10, "timeout_ms": True}, "timeout_ms", id="bool-timeout"),
    pytest.param({"seed": 3, "k": 10, "timeout_ms": -5}, "timeout_ms", id="negative-timeout"),
]


class TestSharedMalformedBodies:
    """The abusive-payload corpus through the front door."""

    @pytest.fixture()
    def stack(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        expected = [
            [int(n), float(s)]
            for n, s in engine.solve_batch([PPRQuery(seed=3, k=10)])[0].top_k()
        ]
        yield engine, expected
        engine.close()

    @pytest.mark.parametrize("payload, fragment", MALFORMED_BODIES)
    def test_typed_error_on_both_transports(self, stack, payload, fragment):
        engine, expected = stack

        async def run():
            async with http_server(engine) as http_addr:
                raw = json.dumps(payload).encode("utf-8")

                http_raw = await http_raw_exchange(http_addr, http_post_query(raw))
                assert status_of(http_raw) == 400
                http_body = json.loads(http_raw.split(b"\r\n\r\n", 1)[1])
                assert http_body["ok"] is False
                assert http_body["error"] == "bad_request"
                assert fragment in http_body["message"]

                await assert_still_serving(http_addr, expected)

        asyncio.run(run())

    def test_non_json_body_on_both_transports(self, stack):
        engine, expected = stack

        async def run():
            async with http_server(engine) as http_addr:
                raw = b"{not json at all"
                http_raw = await http_raw_exchange(http_addr, http_post_query(raw))
                assert status_of(http_raw) == 400

                await assert_still_serving(http_addr, expected)

        asyncio.run(run())

    def test_unknown_operation_is_typed_on_both(self, stack):
        engine, expected = stack

        async def run():
            async with http_server(engine) as http_addr:
                # An unknown operation is an unknown path / wrong method:
                # 404 and 405, not a dropped connection.
                raw404 = await http_raw_exchange(
                    http_addr,
                    b"GET /frobnicate HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n",
                )
                assert status_of(raw404) == 404
                raw405 = await http_raw_exchange(
                    http_addr,
                    b"DELETE /query HTTP/1.1\r\nHost: t\r\n"
                    b"Connection: close\r\n\r\n",
                )
                assert status_of(raw405) == 405

                await assert_still_serving(http_addr, expected)

        asyncio.run(run())

    def test_oversized_payload_on_both_transports(self, stack):
        engine, expected = stack

        async def run():
            async with http_server(engine) as http_addr:
                # A body over the cap is refused from the declared
                # Content-Length alone — a 413 before the body is read (so
                # the abuser cannot make the server buffer it).
                http_raw = await http_raw_exchange(
                    http_addr,
                    b"POST /query HTTP/1.1\r\nHost: t\r\n"
                    b"Content-Length: " + str((1 << 20) + 1).encode() + b"\r\n\r\n",
                )
                assert status_of(http_raw) == 413

                await assert_still_serving(http_addr, expected)

        asyncio.run(run())


class TestHttpFramingAbuse:
    """Abuse aimed at the HTTP layer itself, below the JSON protocol."""

    @pytest.fixture()
    def stack(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        expected = [
            [int(n), float(s)]
            for n, s in engine.solve_batch([PPRQuery(seed=3, k=10)])[0].top_k()
        ]
        yield engine, expected
        engine.close()

    def run_case(self, stack, check):
        engine, expected = stack

        async def run():
            async with http_server(engine) as http_addr:
                await check(http_addr)
                await assert_still_serving(http_addr, expected)

        asyncio.run(run())

    def test_garbage_request_line(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(addr, b"NOT AN HTTP REQUEST\r\n\r\n")
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_unsupported_http_version(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(
                addr, b"GET /healthz HTTP/2.0\r\n\r\n"
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_chunked_transfer_encoding_is_501(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(
                addr,
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Transfer-Encoding: chunked\r\n\r\n"
                b"5\r\nhello\r\n0\r\n\r\n",
            )
            assert status_of(raw) == 501

        self.run_case(stack, check)

    def test_missing_content_length_on_post(self, stack):
        async def check(addr):
            raw = await http_raw_exchange(
                addr,
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Connection: close\r\n\r\n",
            )
            # No body: parsed as an empty payload -> bad_request, not a hang.
            assert status_of(raw) == 400

        self.run_case(stack, check)

    @pytest.mark.parametrize(
        "value", [b"banana", b"-5", b"1e3"], ids=["text", "negative", "float"]
    )
    def test_invalid_content_length(self, stack, value):
        async def check(addr):
            raw = await http_raw_exchange(
                addr,
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: " + value + b"\r\n\r\n",
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_header_flood_is_rejected(self, stack):
        async def check(addr):
            flood = b"".join(
                b"X-Flood-%d: x\r\n" % i for i in range(200)
            )
            raw = await http_raw_exchange(
                addr,
                b"GET /healthz HTTP/1.1\r\nHost: t\r\n" + flood + b"\r\n",
            )
            assert status_of(raw) == 400

        self.run_case(stack, check)

    def test_head_sends_headers_only_on_keep_alive(self, stack):
        """``HEAD`` answers with a ``GET``'s headers and no body, so the
        next response on the same connection parses from its first byte."""

        async def read_head(reader):
            head = await asyncio.wait_for(
                reader.readuntil(b"\r\n\r\n"), timeout=5
            )
            lines = head.decode("latin-1").split("\r\n")
            headers = dict(
                line.lower().split(": ", 1) for line in lines[1:] if line
            )
            return lines[0], headers

        async def check(addr):
            reader, writer = await asyncio.open_connection(*addr)
            try:
                writer.write(b"HEAD /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                head_status, head_headers = await read_head(reader)
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\n")
                await writer.drain()
                get_status, get_headers = await read_head(reader)
                body = await reader.readexactly(
                    int(get_headers["content-length"])
                )
            finally:
                writer.close()
                try:
                    await writer.wait_closed()
                except (ConnectionError, OSError):
                    pass
            assert head_status == get_status == "HTTP/1.1 200 OK"
            assert head_headers["connection"] == "keep-alive"
            # The HEAD advertises the length a GET body has, without it.
            assert head_headers["content-length"] == get_headers["content-length"]
            assert json.loads(body)["ok"] is True

        self.run_case(stack, check)

    def test_disconnect_mid_body_is_silent(self, stack):
        """Client advertises a body then vanishes: no stack trace, no wedge."""

        async def check(addr):
            reader, writer = await asyncio.open_connection(*addr)
            writer.write(
                b"POST /query HTTP/1.1\r\nHost: t\r\n"
                b"Content-Length: 1000\r\n\r\n" + b'{"seed"'
            )
            await writer.drain()
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        self.run_case(stack, check)

    def test_disconnect_before_request_is_silent(self, stack):
        async def check(addr):
            _, writer = await asyncio.open_connection(*addr)
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionError, OSError):
                pass

        self.run_case(stack, check)


class TestMidBatchDisconnect:
    """A client vanishing mid-batch must not poison its batchmates."""

    def test_http_disconnect_does_not_poison_batchmates(self, small_ba_graph):
        engine = QueryEngine(SleepySolver(small_ba_graph, delay_seconds=0.05))
        policy = BatchPolicy(max_batch_size=8, max_wait_ms=50.0)

        async def run():
            async with http_server(engine, policy) as http_addr:
                victim_reader, victim_writer = await asyncio.open_connection(
                    *http_addr
                )
                victim_writer.write(
                    http_post_query(json.dumps({"seed": 1, "k": 5}).encode())
                )
                await victim_writer.drain()

                async with HttpClient(*http_addr) as survivor:
                    task = asyncio.ensure_future(
                        survivor.query({"seed": 2, "k": 5})
                    )
                    await asyncio.sleep(0.005)
                    victim_writer.close()  # mid-batch disconnect
                    status, body = await task
                return status, body

        with engine:
            status, body = asyncio.run(run())
        assert status == 200
        assert body["ok"] is True
        assert body["top"] == [[2, 1.0]]
