"""Tests of the benchmark's own arithmetic and load-generator timing.

Run with ``python -m pytest perfbench -q`` from the repository root.
"""

from __future__ import annotations

import asyncio
import copy

import pytest

from ledger import (
    PER_LAYER_UNITS,
    interval_union,
    nearest_rank,
    self_time,
    stats_window,
    tail_percentile,
    traced_ledger,
    update_window,
)
from loadgen import run_phase


# -- tail percentile ---------------------------------------------------


def test_tail_is_p99_when_ten_samples_lie_beyond_it():
    values = list(range(1, 1001))  # rank 990 leaves exactly 10 beyond
    tail = tail_percentile(values)
    assert tail == {"percentile": 99.0, "value": 990, "beyond": 10, "samples": 1000}


def test_tail_steps_down_when_p99_has_nine_beyond():
    values = list(range(1, 1000))  # p99 is rank 990 of 999: 9 beyond
    tail = tail_percentile(values)
    assert tail["percentile"] == 95.0
    assert tail["value"] == 950
    assert tail["beyond"] == 49


def test_tail_uses_exact_integer_ranks():
    # 99.9 % of 3000 is rank 2997 exactly; a float ceil would say 2998.
    assert nearest_rank(list(range(1, 3001)), 9990) == 2997
    tail = tail_percentile(range(1, 3001))
    assert (tail["percentile"], tail["beyond"]) == (99.0, 30)


def test_tail_of_too_few_samples_is_the_labelled_maximum():
    tail = tail_percentile([5.0, 1.0, 3.0])
    assert tail == {"percentile": 100.0, "value": 5.0, "beyond": 0, "samples": 3}
    with pytest.raises(ValueError):
        tail_percentile([])


# -- self time -----------------------------------------------------------


def test_self_time_subtracts_sequential_children():
    assert self_time(0.0, 10.0, [(1.0, 3.0), (4.0, 6.0)]) == pytest.approx(6.0)


def test_self_time_counts_overlapping_children_once_and_clips_them():
    # Two parallel workers (1-5 overlaps 2-4) and one overrunning the span.
    children = [(1.0, 5.0), (2.0, 4.0), (8.0, 12.0)]
    assert interval_union(children) == pytest.approx(8.0)
    assert self_time(0.0, 10.0, children) == pytest.approx(4.0)


def test_self_time_is_never_negative():
    assert self_time(0.0, 1.0, [(-5.0, 5.0)]) == 0.0
    assert self_time(0.0, 1.0, []) == pytest.approx(1.0)


# -- /stats deltas -----------------------------------------------------


def _stats(batches, batched, dedup, admission, engine, cache, result):
    return {
        "batches": batches,
        "batched_queries": batched,
        "unique_executed": batched - dedup,
        "dedup_hits": dedup,
        "admission": {
            "shed": admission[0], "failed": admission[1], "expired": admission[2],
            "completed": admission[3],
            "latency": {"count": admission[3], "mean_seconds": admission[4]},
        },
        "engine": {
            "queries_served": engine[0], "query_seconds": engine[1],
            "wall_seconds": engine[2],
            "cache": {"hits": cache[0], "misses": cache[1], "evictions": cache[2],
                      "current_bytes": cache[3]},
            "result_cache": {"hits": result[0], "misses": result[1],
                             "evictions": result[2], "current_bytes": result[3]},
        },
    }


def test_stats_window_takes_deltas_of_lifetime_counters():
    before = _stats(10, 20, 2, (1, 0, 0, 20, 0.010), (18, 0.09, 0.10),
                    (30, 10, 0, 1000), (5, 5, 0, 100))
    after = _stats(40, 80, 8, (4, 1, 1, 80, 0.008), (72, 0.252, 0.20),
                   (130, 30, 3, 5000), (45, 15, 1, 400))
    window = stats_window(before, after)
    assert window["frontend.batcher.batch_size"] == pytest.approx(60 / 30)
    assert window["frontend.batcher.dedup_ratio"] == pytest.approx(6 / 60)
    assert window["frontend.admission.shed"] == 3
    # failed and expired both count as failed admissions
    assert window["frontend.admission.failed"] == 2
    # window means: (80 * 8 ms - 20 * 10 ms) / 60 and (252 - 90 ms) / 54
    assert window["frontend.admission.mean_ms"] == pytest.approx((640 - 200) / 60)
    assert window["engine.query_ms"] == pytest.approx(162 / 54)
    assert window["frontend.batcher.wait_ms"] == pytest.approx((640 - 200) / 60 - 162 / 54)
    assert window["backends.parallelism"] == pytest.approx(0.162 / 0.10)
    # the engine's cache block includes the result cache: subtract it
    assert window["cache.subgraph.hit_ratio"] == pytest.approx(60 / (60 + 10))
    assert window["cache.subgraph.evictions"] == 2
    assert window["cache.subgraph.bytes"] == 4600
    assert window["result_cache.hit_ratio"] == pytest.approx(40 / 50)
    assert window["result_cache.bytes"] == 400


def test_stats_window_of_an_idle_window_is_zero_not_an_error():
    snap = _stats(5, 5, 0, (0, 0, 0, 5, 0.01), (5, 0.05, 0.05), (1, 1, 0, 10), (0, 1, 0, 1))
    window = stats_window(snap, copy.deepcopy(snap))
    assert window["frontend.batcher.batch_size"] == 0.0
    assert window["engine.query_ms"] == 0.0
    assert window["frontend.admission.mean_ms"] == 0.0


def test_update_window_averages_invalidation_bodies():
    bodies = [
        {"invalidated": {"subgraph_entries_dropped": 4, "result_entries_dropped": 1,
                         "result_entries_rekeyed": 9}},
        {"invalidated": {"subgraph_entries_dropped": 2, "result_entries_dropped": 0,
                         "result_entries_rekeyed": 0}},
    ]
    window = update_window(bodies)
    assert window["update.subgraph_dropped"] == 3
    assert window["update.result_dropped"] == 0.5
    assert window["update.result_rekeyed"] == 4.5
    # the second update saw no result entries: it does not enter the ratio
    assert window["update.survival_ratio"] == pytest.approx(0.9)
    assert update_window([])["update.survival_ratio"] == 0.0


# -- the traced ledger -------------------------------------------------


def test_traced_ledger_charges_submit_only_its_wait_outside_the_batch():
    layers = {
        "frontend.batcher.submit": {"inclusive_s": 0.050, "self_s": 0.050, "calls": 10},
        "engine.batch": {"inclusive_s": 0.020, "self_s": 0.004, "calls": 5},
        "engine.batch.covered": {"inclusive_s": 0.036, "self_s": 0.036, "calls": 0},
        "diffusion": {"inclusive_s": 0.016, "self_s": 0.016, "calls": 20},
        "diffusion.propagations": {"inclusive_s": 300.0, "self_s": 300.0, "calls": 0},
    }
    window = {"frontend.http.transport_ms": 1.0, "frontend.batcher.dedup_hits": 1.0}
    out = traced_ledger(layers, [8.0] * 10, 0, window)
    # 50 ms of submit spans minus 36 ms covered minus one dedup'd mean batch (4 ms)
    assert out["frontend.batcher.submit_ms"] == pytest.approx(1.0)
    assert out["engine.batch_ms"] == pytest.approx(0.4)
    assert out["diffusion.ms"] == pytest.approx(1.6)
    assert out["diffusion.calls"] == 2
    assert out["diffusion.propagations"] == 30
    assert out["engine.update_ms"] == 0.0
    accounted = 1.0 + 1.0 + 0.4 + 1.6
    assert out["residual_ms"] == pytest.approx(8.0 - accounted)
    assert out["trace.accounted_share"] == pytest.approx(accounted / 8.0)
    assert set(out) | {"trace.overhead"} <= set(PER_LAYER_UNITS)


# -- load generator timing ---------------------------------------------


def _slow_send(service_s):
    async def send(kind, payload):
        await asyncio.sleep(service_s)
        return 200, {"kind": kind, **payload}

    return send


def test_open_loop_latency_of_a_request_that_waited_for_a_busy_connection():
    # Two requests due together, one connection, 50 ms each: the second
    # waits 50 ms for the connection and is charged it.
    reads = [(0.0, {"i": 0}), (0.0, {"i": 1})]
    phase = asyncio.run(run_phase("open", _slow_send(0.05), 1, open_reads=reads))
    first, second = sorted(phase.records, key=lambda r: r.payload["i"])
    assert first.origin == pytest.approx(second.origin)
    assert second.sent - second.origin >= 0.045
    assert second.latency_ms >= 95.0
    assert second.latency_ms >= (second.done - second.sent) * 1e3 + 45.0
    # the wait is the server's queueing, not generator lag
    assert second.lag_ms < 20.0


def test_open_loop_requests_start_at_their_due_times():
    reads = [(0.0, {"i": 0}), (0.1, {"i": 1})]
    phase = asyncio.run(run_phase("open", _slow_send(0.01), 2, open_reads=reads))
    late = max(phase.records, key=lambda r: r.payload["i"])
    assert late.origin - phase.start == pytest.approx(0.1)
    assert late.sent - phase.start >= 0.1


def test_closed_loop_updates_run_in_order_beside_reads():
    updates = [(0.0, {"u": 0}), (0.0, {"u": 1}), (0.0, {"u": 2})]
    reads = iter([{"i": index} for index in range(10_000)])
    phase = asyncio.run(
        run_phase("closed", _slow_send(0.005), 2, closed_reads=reads,
                  updates=updates, seconds=0.2)
    )
    done = phase.of_kind("update")
    assert [r.payload["u"] for r in done] == [0, 1, 2]
    for earlier, later in zip(done, done[1:]):
        assert later.sent >= earlier.done
    reads_done = phase.of_kind("read")
    assert 20 <= len(reads_done) <= 100
    assert all(r.sent < phase.start + 0.2 for r in reads_done)


# -- the launcher's accumulators ---------------------------------------


def test_launcher_loses_no_updates_across_threads():
    import sys
    import threading

    import launcher

    wrapped = launcher._timed("test.threads", lambda x: x + 1)
    before = launcher.snapshot().get("test.threads", {}).get("calls", 0.0)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [
            threading.Thread(target=lambda: [wrapped(i) for i in range(2000)])
            for _ in range(8)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
        assert not any(thread.is_alive() for thread in threads)
    finally:
        sys.setswitchinterval(interval)
    assert launcher.snapshot()["test.threads"]["calls"] - before == 16000


def test_launcher_self_time_excludes_nested_layers():
    import time

    import launcher

    inner = launcher._timed("test.inner", lambda: time.sleep(0.02))
    outer = launcher._timed("test.outer", lambda: (time.sleep(0.01), inner()))
    outer()
    snap = launcher.snapshot()
    assert snap["test.outer"]["inclusive_s"] >= 0.03
    assert 0.009 <= snap["test.outer"]["self_s"] < 0.02
    assert snap["test.inner"]["self_s"] >= 0.02


def test_per_second_rates_count_whole_seconds_only():
    from ledger import per_second_rates

    times = [0.1, 0.5, 1.2, 2.9, 3.5]
    assert per_second_rates(times, 0.0, 3.7) == [2.0, 1.0, 1.0]
    with pytest.raises(ValueError):
        per_second_rates(times, 0.0, 0.5)


def test_steal_share_is_the_eighth_proc_stat_field():
    from run import steal_share

    before = [100, 0, 50, 800, 0, 0, 0, 50, 0, 0]
    after = [160, 0, 70, 880, 0, 0, 0, 90, 0, 0]
    assert steal_share(before, after) == pytest.approx(40 / 200)
    assert steal_share(before, before) == 0.0
