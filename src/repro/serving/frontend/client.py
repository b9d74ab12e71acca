"""The query-client API over the HTTP front door.

:class:`HttpQueryClient` is what drives a server — tests, benchmarks, the
studies and the replica router all consume it: ``query`` / ``query_batch``
/ ``solve`` / ``ping`` / ``stats`` / ``drain`` / ``traces`` / ``close`` on
a fixed-size keep-alive connection pool (wrapping the low-level
:class:`~repro.serving.frontend.http.HttpClientPool`), with timeout and
retry semantics: transport failures raise :class:`ClientConnectionError`;
``retries=`` adds bounded reconnect-with-backoff around each query.

It raises the *same* typed errors the in-process frontend uses —
:class:`~repro.serving.frontend.admission.QueryShedError`,
:class:`~repro.serving.frontend.admission.DeadlineExceededError`,
:class:`ServerError` — and validates the server's advertised protocol
version (:mod:`repro.serving.frontend.protocol`), so a mixed-version fleet
fails with :class:`~repro.serving.frontend.protocol.ProtocolMismatchError`
instead of mis-parsing.
"""

from __future__ import annotations

import asyncio
from typing import Dict, List, Optional, Sequence, Tuple

from repro.serving.frontend.admission import (
    DeadlineExceededError,
    QueryShedError,
)
from repro.serving.frontend.protocol import check_protocol_version

__all__ = [
    "ServerError",
    "ClientConnectionError",
    "HttpQueryClient",
    "raise_for_response",
]


class ServerError(RuntimeError):
    """The server answered ``ok: false`` with a non-rejection error."""

    def __init__(self, error: str, message: str) -> None:
        super().__init__(f"{error}: {message}")
        self.error = error
        self.message = message


class ClientConnectionError(ConnectionError):
    """The transport failed before a complete response arrived.

    Raised uniformly for connection refusal and a peer closing
    mid-response — the failure shapes a replica router must treat
    identically (the query may safely be retried elsewhere: queries are
    pure reads).  Subclasses :class:`ConnectionError`
    so pre-unification ``except ConnectionError`` call sites keep working.
    """


def raise_for_response(response: dict) -> dict:
    """Map a protocol response onto the frontend's typed errors.

    Returns the response unchanged when ``ok`` is true; otherwise raises the
    same exception the in-process frontend would have raised, so code can
    move between in-process and HTTP serving without relearning the
    failure taxonomy.
    """
    if response.get("ok"):
        return response
    error = response.get("error", "unknown")
    message = response.get("message", "")
    if error == "shed":
        raise QueryShedError(message=message or "query shed by server")
    if error == "deadline":
        raise DeadlineExceededError(message)
    raise ServerError(error, message)


class HttpQueryClient:
    """The query client on a fixed-size keep-alive HTTP connection pool.

    The HTTP server answers one request at a time per connection, so batch
    concurrency comes from the pool (``pool_size`` connections), exactly as
    production HTTP load arrives.  Create via :meth:`connect`.

    Parameters
    ----------
    retries:
        Transport-failure retries per :meth:`query` call (0 = fail fast).
        Each retry reconnects and backs off exponentially from
        ``retry_backoff_ms``.  Protocol rejections (shed, deadline, bad
        request) are *answers*, never retried.
    retry_backoff_ms:
        First-retry backoff; doubles per subsequent retry.
    """

    def __init__(
        self,
        host: str,
        port: int,
        pool_size: int = 8,
        retries: int = 0,
        retry_backoff_ms: float = 50.0,
    ) -> None:
        if retries < 0:
            raise ValueError(f"retries must be >= 0, got {retries}")
        if retry_backoff_ms < 0:
            raise ValueError(
                f"retry_backoff_ms must be >= 0, got {retry_backoff_ms}"
            )
        # Imported here: http.py imports nothing from this module, but the
        # local import keeps the layering one-directional if that changes.
        from repro.serving.frontend.http import HttpClientPool

        self._retries = retries
        self._retry_backoff_ms = retry_backoff_ms
        self._host = host
        self._port = port
        self._pool = HttpClientPool(host, port, size=pool_size)
        self._connected = False

    @classmethod
    async def connect(
        cls,
        host: str,
        port: int,
        pool_size: int = 8,
        retries: int = 0,
        retry_backoff_ms: float = 50.0,
    ) -> "HttpQueryClient":
        """Open the connection pool to a running server."""
        client = cls(
            host,
            port,
            pool_size=pool_size,
            retries=retries,
            retry_backoff_ms=retry_backoff_ms,
        )
        await client._ensure_connected()
        return client

    async def __aenter__(self) -> "HttpQueryClient":
        return self

    async def __aexit__(self, exc_type, exc, traceback) -> None:
        await self.close()

    # -- queries -------------------------------------------------------
    @staticmethod
    def build_query_payload(
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
    ) -> dict:
        """The wire-format query object (the ``POST /query`` body)."""
        payload: dict = {"seed": seed, "k": k, "alpha": alpha, "length": length}
        if timeout_ms is not None:
            payload["timeout_ms"] = timeout_ms
        return payload

    async def query(
        self,
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
        traceparent: Optional[str] = None,
    ) -> dict:
        """Issue a PPR query; returns the raw response dict (check ``ok``).

        Transport failures raise :class:`ClientConnectionError` after the
        configured retries; the server's protocol rejections come back as
        response dicts (use :meth:`solve` for typed exceptions).
        """
        payload = self.build_query_payload(seed, k, alpha, length, timeout_ms)
        return await self.request_query(payload, traceparent=traceparent)

    async def request_query(
        self, payload: dict, traceparent: Optional[str] = None
    ) -> dict:
        """Send a pre-built query payload with the retry semantics.

        The replica router uses this form: it forwards the *client's* payload
        verbatim (the replica validates it) rather than re-assembling one.
        """
        headers = {"traceparent": traceparent} if traceparent else None
        attempt = 0
        while True:
            try:
                _, response = await self._request_json(
                    "POST", "/query", payload, headers=headers
                )
                return response
            except ClientConnectionError:
                if attempt >= self._retries:
                    raise
            backoff_s = self._retry_backoff_ms * (2.0**attempt) / 1e3
            attempt += 1
            if backoff_s > 0:
                await asyncio.sleep(backoff_s)
            try:
                # The pool replaces broken connections per request; this
                # only re-opens it after a failed connect.
                await self._ensure_connected()
            except ClientConnectionError:
                # The server may still be down mid-outage; a failed
                # reconnect consumes this attempt instead of aborting the
                # whole retry budget.
                continue

    async def query_batch(
        self, requests: Sequence[dict], traceparent: Optional[str] = None
    ) -> List[dict]:
        """Issue many queries concurrently; responses in request order.

        Each element of ``requests`` is a query payload dict (see
        :meth:`build_query_payload`); they fan out across the pool.
        """
        return list(
            await asyncio.gather(
                *(
                    self.request_query(dict(request), traceparent=traceparent)
                    for request in requests
                )
            )
        )

    async def solve(
        self,
        seed: int,
        k: int = 200,
        alpha: float = 0.85,
        length: int = 6,
        timeout_ms: Optional[float] = None,
    ) -> List[Tuple[int, float]]:
        """Issue a query and return its top-k pairs, raising on rejection."""
        response = raise_for_response(
            await self.query(seed, k, alpha, length, timeout_ms)
        )
        return [(int(node), float(score)) for node, score in response["top"]]

    # -- transport -----------------------------------------------------
    async def _ensure_connected(self) -> None:
        if not self._connected:
            try:
                await self._pool.connect()
            except (ConnectionError, OSError) as exc:
                raise ClientConnectionError(
                    f"cannot connect to http://{self._host}:{self._port}: {exc}"
                ) from exc
            self._connected = True

    async def _request_json(
        self,
        method: str,
        path: str,
        body: Optional[object] = None,
        headers: Optional[Dict[str, str]] = None,
    ) -> Tuple[int, dict]:
        await self._ensure_connected()
        try:
            status, payload = await self._pool.request_json(
                method, path, body, headers=headers
            )
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            raise ClientConnectionError(
                f"http://{self._host}:{self._port}{path}: {exc}"
            ) from exc
        if isinstance(payload, dict):
            # Fail loudly when the peer advertises a different protocol.
            check_protocol_version(
                payload.get("proto"), f"http://{self._host}:{self._port}"
            )
        return status, payload

    async def ping(self) -> bool:
        """Round-trip health check (``GET /healthz`` answered 200)."""
        try:
            status, _ = await self._request_json("GET", "/healthz")
        except ClientConnectionError:
            return False
        return status == 200

    async def healthz(self) -> Tuple[int, dict]:
        """The raw ``/healthz`` answer: ``(status, payload)``.

        Unlike :meth:`ping` this propagates connection errors and hands
        the caller the payload, so supervisors can inspect the ``proto``
        field with their own strictness (the replica router *requires*
        it and quarantines mixed-version replicas).
        """
        return await self._request_json("GET", "/healthz")

    async def stats(self) -> dict:
        """Fetch the server's frontend stats document."""
        status, payload = await self._request_json("GET", "/stats")
        if status != 200:
            raise_for_response(payload)
        return payload

    async def drain(self) -> dict:
        """Ask the server to begin a graceful drain; returns its ack."""
        _, payload = await self._request_json("POST", "/admin/drain")
        return raise_for_response(payload)

    async def traces(self) -> dict:
        """Fetch the server's finished span trees (tracing must be on)."""
        status, payload = await self._request_json("GET", "/debug/traces")
        if status != 200:
            raise ServerError(
                str(payload.get("error", "unknown")),
                str(payload.get("message", "")),
            )
        return {"stats": payload["stats"], "traces": payload["traces"]}

    async def metrics_text(self) -> str:
        """The server's raw Prometheus exposition."""
        await self._ensure_connected()
        try:
            status, _, body = await self._pool.request(
                "GET", "/metrics"
            )
        except (ConnectionError, asyncio.IncompleteReadError, OSError) as exc:
            raise ClientConnectionError(
                f"http://{self._host}:{self._port}/metrics: {exc}"
            ) from exc
        if status != 200:
            raise ServerError("metrics", f"GET /metrics answered {status}")
        return body.decode("utf-8")

    async def close(self) -> None:
        """Close the connection pool."""
        if self._connected:
            await self._pool.close()
            self._connected = False
