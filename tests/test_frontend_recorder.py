"""Tests for the workload recorder/replayer (trace capture as JSONL)."""

from __future__ import annotations

import asyncio
import json

import pytest

from repro.meloppr.config import MeLoPPRConfig
from repro.meloppr.solver import MeLoPPRSolver
from repro.ppr.base import PPRQuery, PPRResult
from repro.serving import QueryEngine
from repro.serving.frontend import (
    AdmissionController,
    HttpClient,
    HttpQueryServer,
    MicroBatcher,
    QueryShedError,
    TraceRecord,
    WorkloadRecorder,
    load_trace,
    replay_trace_sync,
    save_trace,
)


@pytest.fixture()
def config():
    return MeLoPPRConfig(stage_lengths=(3, 3), track_memory=False)


class TestTraceRecord:
    def test_round_trip_via_dict(self):
        record = TraceRecord(
            offset_seconds=1.25, seed=7, k=50, alpha=0.85, length=6,
            timeout_ms=40.0,
        )
        assert TraceRecord.from_dict(record.as_dict()) == record

    def test_timeout_omitted_when_absent(self):
        record = TraceRecord(
            offset_seconds=0.0, seed=7, k=50, alpha=0.85, length=6
        )
        assert "timeout_ms" not in record.as_dict()
        assert TraceRecord.from_dict(record.as_dict()).timeout_ms is None

    def test_to_query(self):
        record = TraceRecord(
            offset_seconds=0.5, seed=7, k=50, alpha=0.9, length=4
        )
        query = record.to_query()
        assert query == PPRQuery(seed=7, k=50, alpha=0.9, length=4)

    @pytest.mark.parametrize(
        "mutation, message",
        [
            ({"offset_seconds": -0.1}, "offset_seconds"),
            ({"seed": "abc"}, "malformed"),
            ({"timeout_ms": 0}, "timeout_ms"),
            ({"timeout_ms": -5.0}, "timeout_ms"),
        ],
    )
    def test_from_dict_validation(self, mutation, message):
        base = {
            "offset_seconds": 0.0, "seed": 1, "k": 10,
            "alpha": 0.85, "length": 6,
        }
        base.update(mutation)
        with pytest.raises(ValueError, match=message):
            TraceRecord.from_dict(base)

    def test_from_dict_missing_field(self):
        with pytest.raises(ValueError, match="malformed"):
            TraceRecord.from_dict({"offset_seconds": 0.0, "seed": 1})

    def test_from_dict_rejects_non_object(self):
        with pytest.raises(ValueError, match="object"):
            TraceRecord.from_dict([1, 2, 3])


class TestWorkloadRecorder:
    def test_offsets_are_relative_to_first_record(self):
        ticks = iter([100.0, 100.5, 102.25])
        recorder = WorkloadRecorder(clock=lambda: next(ticks))
        recorder.record_query(PPRQuery(seed=1, k=10))
        recorder.record_query(PPRQuery(seed=2, k=10), timeout_ms=30.0)
        recorder.record_query(PPRQuery(seed=3, k=10))
        records = recorder.records
        assert [r.offset_seconds for r in records] == [0.0, 0.5, 2.25]
        assert [r.seed for r in records] == [1, 2, 3]
        assert records[1].timeout_ms == 30.0
        assert records[0].timeout_ms is None
        assert len(recorder) == 3

    def test_clear_resets_origin(self):
        ticks = iter([10.0, 20.0, 30.0])
        recorder = WorkloadRecorder(clock=lambda: next(ticks))
        recorder.record_query(PPRQuery(seed=1, k=10))
        recorder.clear()
        assert len(recorder) == 0
        recorder.record_query(PPRQuery(seed=2, k=10))
        recorder.record_query(PPRQuery(seed=3, k=10))
        assert [r.offset_seconds for r in recorder.records] == [0.0, 10.0]

    def test_save_and_load(self, tmp_path):
        ticks = iter([0.0, 0.1])
        recorder = WorkloadRecorder(clock=lambda: next(ticks))
        recorder.record_query(PPRQuery(seed=1, k=10), timeout_ms=25.0)
        recorder.record_query(PPRQuery(seed=2, k=20, alpha=0.9, length=4))
        path = tmp_path / "trace.jsonl"
        assert recorder.save(path) == 2
        # Plain JSONL: one object per line, parseable by anything.
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 2
        assert json.loads(lines[0])["timeout_ms"] == 25.0
        assert load_trace(path) == list(recorder.records)

    def test_load_rejects_bad_lines_with_position(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        path.write_text(
            '{"offset_seconds": 0.0, "seed": 1, "k": 10, "alpha": 0.85, "length": 6}\n'
            "\n"  # blank lines are fine
            "{oops\n"
        )
        with pytest.raises(ValueError, match=r"trace\.jsonl:3"):
            load_trace(path)

    def test_save_trace_empty(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert save_trace([], path) == 0
        assert load_trace(path) == []


class TestReplay:
    def test_replay_reproduces_answers(self, small_ba_graph, config):
        records = [
            TraceRecord(offset_seconds=0.0, seed=3, k=10, alpha=0.85, length=6),
            TraceRecord(offset_seconds=0.01, seed=7, k=10, alpha=0.85, length=6),
            TraceRecord(offset_seconds=0.02, seed=3, k=10, alpha=0.85, length=6),
        ]
        with QueryEngine(MeLoPPRSolver(small_ba_graph, config)) as reference:
            expected = [
                dict(result.scores.items())
                for result in reference.solve_batch(
                    [r.to_query() for r in records]
                )
            ]
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            outcomes = replay_trace_sync(engine, records, speed=10.0)
        assert [isinstance(o, PPRResult) for o in outcomes] == [True] * 3
        assert [dict(o.scores.items()) for o in outcomes] == expected

    def test_replay_speed_must_be_positive(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            with pytest.raises(ValueError, match="speed"):
                replay_trace_sync(engine, [], speed=0.0)

    def test_replay_returns_rejections_in_place(self, small_ba_graph, config):
        """Shed queries come back as the exception object, in trace order."""
        records = [
            TraceRecord(offset_seconds=0.0, seed=s, k=10, alpha=0.85, length=6)
            for s in range(8)
        ]
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            outcomes = replay_trace_sync(
                engine,
                records,
                admission=AdmissionController(max_pending=2),
                speed=1000.0,
            )
        assert len(outcomes) == 8
        completed = [o for o in outcomes if isinstance(o, PPRResult)]
        shed = [o for o in outcomes if isinstance(o, QueryShedError)]
        assert len(completed) + len(shed) == 8
        assert completed, "some queries must get through"

    def test_replay_timeout_override(self, small_ba_graph, config):
        records = [
            TraceRecord(
                offset_seconds=0.0, seed=3, k=10, alpha=0.85, length=6,
                timeout_ms=0.000001,  # recorded deadline: instantly dead
            )
        ]
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        with engine:
            # Overriding with None disables the recorded deadline.
            outcomes = replay_trace_sync(engine, records, timeout_ms=None)
        assert isinstance(outcomes[0], PPRResult)


class TestServerIntegration:
    def test_http_server_records_accepted_only(self, small_ba_graph, config):
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        recorder = WorkloadRecorder()

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher, recorder=recorder)
                host, port = await server.start()
                try:
                    async with HttpClient(host, port) as client:
                        status, _ = await client.query({"seed": 3, "k": 10})
                        assert status == 200
                        status, _ = await client.query({"seed": True})
                        assert status == 400
                        status, _ = await client.query(
                            {"seed": 7, "k": 20, "timeout_ms": 5000}
                        )
                        assert status == 200
                finally:
                    await server.stop()

        with engine:
            asyncio.run(run())
        records = recorder.records
        assert [r.seed for r in records] == [3, 7]
        assert records[1].timeout_ms == 5000.0

    def test_recorded_trace_replays_cleanly(self, small_ba_graph, config, tmp_path):
        """The loop the module exists for: record live traffic, save,
        load, replay — and get the same answers."""
        engine = QueryEngine(MeLoPPRSolver(small_ba_graph, config))
        recorder = WorkloadRecorder()

        async def run():
            async with MicroBatcher(engine) as batcher:
                server = HttpQueryServer(batcher, recorder=recorder)
                host, port = await server.start()
                try:
                    async with HttpClient(host, port) as client:
                        answers = []
                        for seed in (3, 7, 11):
                            status, body = await client.query(
                                {"seed": seed, "k": 10}
                            )
                            assert status == 200
                            answers.append(body["top"])
                        return answers
                finally:
                    await server.stop()

        with engine:
            live_answers = asyncio.run(run())
            path = tmp_path / "live.jsonl"
            recorder.save(path)
            outcomes = replay_trace_sync(engine, load_trace(path), speed=100.0)
        replayed = [
            [[int(n), float(s)] for n, s in outcome.top_k()]
            for outcome in outcomes
        ]
        assert replayed == live_answers
