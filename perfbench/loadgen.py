"""Open- and closed-loop request driver over a fixed set of connections.

One phase runs ``workers`` connection loops (one per keep-alive connection)
that pull work from a shared FIFO:

* **open loop** — a feeder puts each read into the FIFO at its due time,
  whether or not a connection is free; latency is timed from the due time,
  so a request that waited for a busy connection is charged the wait.
  ``lag`` is only the generator's own lateness (enqueue - due).
* **closed loop** — each connection sends its next read as soon as the
  previous answer is back; latency is timed from the send.

Updates, when present, come from one lane that sends batch ``i + 1`` only
after batch ``i`` is answered (the op batches are valid only in order).
They share the FIFO and the connections with the reads.
"""

from __future__ import annotations

import asyncio
import math
import time
from dataclasses import dataclass, field
from typing import Awaitable, Callable, Iterator, List, Optional, Sequence, Tuple

SendFn = Callable[[str, dict], Awaitable[Tuple[int, dict]]]


@dataclass
class Record:
    """One request as the client saw it."""

    kind: str  # "read" or "update"
    payload: dict
    origin: float  # latency origin: due time (open loop) or send time
    enqueued: float
    sent: float = 0.0
    done: float = 0.0
    status: int = 0
    body: dict = field(default_factory=dict)

    @property
    def latency_ms(self) -> float:
        return (self.done - self.origin) * 1e3

    @property
    def lag_ms(self) -> float:
        return (self.enqueued - self.origin) * 1e3


@dataclass
class Phase:
    """The records of one phase and its wall-clock extent."""

    name: str
    mode: str
    start: float
    end: float
    records: List[Record]

    def of_kind(self, kind: str) -> List[Record]:
        return [record for record in self.records if record.kind == kind]


async def _sleep_until(deadline: float, clock: Callable[[], float]) -> None:
    delay = deadline - clock()
    if delay > 0:
        await asyncio.sleep(delay)


async def run_phase(
    name: str,
    send: SendFn,
    workers: int,
    *,
    open_reads: Optional[Sequence[Tuple[float, dict]]] = None,
    closed_reads: Optional[Iterator[dict]] = None,
    updates: Sequence[Tuple[float, dict]] = (),
    seconds: float = math.inf,
    clock: Callable[[], float] = time.perf_counter,
) -> Phase:
    """Run one phase; exactly one of ``open_reads``/``closed_reads`` is given.

    ``open_reads`` and ``updates`` are ``(offset_seconds, payload)`` pairs
    relative to the phase start.  A closed phase stops sending reads after
    ``seconds`` (or when ``closed_reads`` runs out); an open phase ends when
    its last scheduled request is answered.
    """
    if (open_reads is None) == (closed_reads is None):
        raise ValueError("give exactly one of open_reads / closed_reads")
    mode = "open" if open_reads is not None else "closed"
    fifo: "asyncio.Queue[Optional[Record]]" = asyncio.Queue()
    records: List[Record] = []
    start = clock()
    deadline = start + seconds
    lane_done = asyncio.Event()
    pending_updates: dict = {}

    async def execute(record: Record) -> None:
        record.sent = clock()
        try:
            record.status, record.body = await send(record.kind, record.payload)
        except Exception as exc:  # a transport failure is a failed request
            record.status, record.body = 0, {"error": f"{type(exc).__name__}: {exc}"}
        record.done = clock()
        records.append(record)
        future = pending_updates.pop(id(record), None)
        if future is not None:
            future.set_result(None)

    async def feeder() -> None:
        assert open_reads is not None
        for offset, payload in open_reads:
            due = start + offset
            await _sleep_until(due, clock)
            fifo.put_nowait(Record("read", payload, due, clock()))

    async def update_lane() -> None:
        loop = asyncio.get_running_loop()
        try:
            for offset, payload in updates:
                due = start + offset
                if mode == "closed" and due >= deadline:
                    break
                await _sleep_until(due, clock)
                record = Record("update", payload, due, clock())
                done = loop.create_future()
                pending_updates[id(record)] = done
                fifo.put_nowait(record)
                await done
        finally:
            lane_done.set()

    async def connection_loop() -> None:
        while True:
            if mode == "open":
                record = await fifo.get()
                if record is None:
                    return
            elif not fifo.empty():
                record = fifo.get_nowait()
            elif clock() < deadline:
                assert closed_reads is not None
                payload = next(closed_reads, None)
                if payload is None:
                    if lane_done.is_set():
                        return
                    await asyncio.sleep(0.001)
                    continue
                now = clock()
                record = Record("read", payload, now, now)
            elif lane_done.is_set():
                return
            else:
                await asyncio.sleep(0.001)
                continue
            await execute(record)

    lane = asyncio.ensure_future(update_lane())
    loops = [asyncio.ensure_future(connection_loop()) for _ in range(workers)]
    if mode == "open":
        await feeder()
        await lane
        for _ in loops:
            fifo.put_nowait(None)
    await asyncio.gather(*loops)
    await lane
    end = max((record.done for record in records), default=clock())
    records.sort(key=lambda record: record.sent)
    return Phase(name, mode, start, end, records)
