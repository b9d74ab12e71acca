"""An asyncio execution backend for the query engine.

:class:`AsyncBackend` implements the two-method
:class:`~repro.serving.backends.ExecutionBackend` interface on top of an
asyncio event loop.  The loop runs on a dedicated daemon thread owned by the
backend; each job is offloaded to a bounded thread pool via
``loop.run_in_executor`` and awaited as a coroutine, so an async front-end
(the micro-batching scheduler, the HTTP server) can await engine work without
blocking its own loop, while plain synchronous callers keep using
``backend.map`` unchanged.

Results come back in submission order (``asyncio.gather`` preserves input
order) and are bit-identical to :class:`~repro.serving.backends.SerialBackend`
— per-query computations are independent and deterministic, and this backend
changes only *where* they run, never their operation order.  Exceptions
propagate: the first failing job's exception is raised from :meth:`map`,
matching the thread-pool backend's contract.
"""

from __future__ import annotations

import asyncio
import concurrent.futures
import threading
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, Set, TypeVar

from repro.serving.backends import ExecutionBackend

__all__ = ["AsyncBackend"]

T = TypeVar("T")
R = TypeVar("R")


class AsyncBackend(ExecutionBackend):
    """Run jobs as awaitables on a private asyncio event loop.

    Parameters
    ----------
    max_concurrency:
        Size of the thread pool the loop offloads CPU work to (jobs beyond it
        queue inside the pool).  ``None`` uses ``ThreadPoolExecutor``'s
        default sizing.

    Notes
    -----
    The loop thread and the pool are created lazily on first use and survive
    across batches; :meth:`close` tears both down (idempotent — a later call
    lazily recreates them, mirroring :class:`ThreadPoolBackend`).  Calling
    :meth:`map` *from* the backend's own loop would deadlock and raises
    ``RuntimeError`` instead; coroutine callers on that loop (or any other)
    should ``await`` :meth:`run`.
    """

    name = "async"
    concurrent = True

    def __init__(self, max_concurrency: Optional[int] = None) -> None:
        if max_concurrency is not None and max_concurrency <= 0:
            raise ValueError(
                f"max_concurrency must be > 0, got {max_concurrency}"
            )
        self._max_concurrency = max_concurrency
        self._lock = threading.Lock()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread: Optional[threading.Thread] = None
        self._pool: Optional[ThreadPoolExecutor] = None
        self._inflight: Set["concurrent.futures.Future"] = set()

    @property
    def max_concurrency(self) -> Optional[int]:
        """Configured offload-pool size (``None`` = executor default)."""
        return self._max_concurrency

    # ------------------------------------------------------------------
    def _ensure_pool_locked(self) -> ThreadPoolExecutor:
        """Create the bounded offload pool lazily (caller holds the lock)."""
        if self._pool is None:
            self._pool = ThreadPoolExecutor(
                max_workers=self._max_concurrency,
                thread_name_prefix="repro-async",
            )
        return self._pool

    def _ensure_loop_locked(self) -> asyncio.AbstractEventLoop:
        """Start the loop thread and pool lazily (caller holds the lock)."""
        if self._loop is None:
            self._loop = asyncio.new_event_loop()
            self._ensure_pool_locked()
            started = threading.Event()

            def _run(loop: asyncio.AbstractEventLoop) -> None:
                asyncio.set_event_loop(loop)
                loop.call_soon(started.set)
                loop.run_forever()

            self._thread = threading.Thread(
                target=_run,
                args=(self._loop,),
                name="repro-async-loop",
                daemon=True,
            )
            self._thread.start()
            started.wait()
        return self._loop

    # ------------------------------------------------------------------
    async def run(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        """Coroutine form of :meth:`map`: await the batch from any loop.

        Must be awaited on the backend's own loop (where :meth:`map`
        schedules it) or driven by a caller that offloads to it; the common
        entry point is still :meth:`map`.
        """
        loop = asyncio.get_running_loop()
        # Never fall back to the loop's default executor: that would bypass
        # the max_concurrency bound (e.g. run() awaited before any map(), or
        # racing a close() that nulled the pool).
        with self._lock:
            pool = self._ensure_pool_locked()
        futures = [loop.run_in_executor(pool, fn, item) for item in items]
        return list(await asyncio.gather(*futures))

    def map(self, fn: Callable[[T], R], items: Sequence[T]) -> List[R]:
        items = list(items)
        if not items:
            return []
        try:
            running = asyncio.get_running_loop()
        except RuntimeError:
            running = None
        # Submission happens under the lock so close() sees every in-flight
        # batch and can drain it before tearing the loop down.
        with self._lock:
            loop = self._ensure_loop_locked()
            if running is loop:
                raise RuntimeError(
                    "AsyncBackend.map called from its own event loop would "
                    "deadlock; await AsyncBackend.run(fn, items) instead"
                )
            future = asyncio.run_coroutine_threadsafe(self.run(fn, items), loop)
            self._inflight.add(future)
        try:
            return future.result()
        finally:
            with self._lock:
                self._inflight.discard(future)

    def close(self) -> None:
        with self._lock:
            loop, thread, pool = self._loop, self._thread, self._pool
            self._loop = None
            self._thread = None
            self._pool = None
            inflight = list(self._inflight)
        # Drain like ThreadPoolBackend.shutdown(wait=True): batches already
        # submitted finish and their mapping threads unblock before the loop
        # stops.  (A map() concurrent with close() that lost the lock race
        # lazily recreates a fresh loop, mirroring the thread-pool backend.)
        if inflight:
            concurrent.futures.wait(inflight)
        if loop is not None:
            loop.call_soon_threadsafe(loop.stop)
        if thread is not None:
            thread.join()
        if loop is not None:
            loop.close()
        if pool is not None:
            pool.shutdown(wait=True)

    def __repr__(self) -> str:
        workers = (
            "default" if self._max_concurrency is None else self._max_concurrency
        )
        return f"AsyncBackend(max_concurrency={workers})"
