#!/usr/bin/env python3
"""The repo benchmark: PPR queries through the shipped HTTP server.

Run one workload at one seed from the repository root::

    python3 perfbench/run.py --workload hot-g1 --seed 1 --seconds 20 --trace 0

The server is ``python -m repro.serving.frontend.http`` started through
``ReplicaSet(ServingConfig(dataset=...), 1)`` with every other config field
at its default.  This process is the load generator: ``nproc`` keep-alive
connections, every answer checked bit for bit against an in-process
``MeLoPPRSolver``.  ``--trace 1`` runs the workload twice — plain, then on a
server hosted by ``perfbench/launcher.py`` with every layer timed — and
reports the per-layer ledger instead of the end-to-end metrics.

The last line of stdout is one JSON object ``{"correct", "attempted",
"failed", "metrics"}``; the lines before it are the full report.  The exit
code is non-zero on any wrong or failed answer.  See ``perfbench/README.md``
for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import asyncio
import gc
import http.client
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import tempfile
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: Server spawns per run; ``setup_s`` is their median.
SETUP_SPAWNS = 5
#: Single-edge updates (insert, then delete: the graph ends unchanged) sent
#: after the reads on workloads without churn, so every workload reports the
#: write path's latency.
PROBE_UPDATES = 200
#: Probe updates per second: spread over seconds, their median is not one
#: instant of a noisy host's speed.
PROBE_RATE = 50.0
#: Most answered seeds scored against exact LocalPPR per pass.
PRECISION_SAMPLE = 256
#: An open-loop phase whose mean generator lag exceeds this is flagged: the
#: generator, not the server, set the arrival times.
LAG_BOUND_MS = 5.0
#: Extra seeds drawn for closed-loop phases, per second of phase.
CLOSED_DRAWS_PER_SECOND = 1500

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_qps": "1/s",
    "latency_p50_ms": "ms",
    "precision_at_k": "ratio",
    "peak_rss_mb": "MB",
    "update_p50_ms": "ms",
}


def parse_args(argv: Optional[Sequence[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no repro package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # ReplicaSet keeps its ready files in a temporary directory: keep it in
    # the checkout.
    scratch = ROOT / ".perfbench_tmp"
    scratch.mkdir(exist_ok=True)
    tempfile.tempdir = str(scratch)
    os.environ["TMPDIR"] = str(scratch)

    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(
            f"perfbench: unknown workload {args.workload!r}; "
            f"choose from {sorted(WORKLOADS)}",
            file=sys.stderr,
        )
        return 2
    bench = Bench(WORKLOADS[args.workload], args.seed, args.seconds, scratch)
    result = bench.run_traced() if args.trace else bench.run_plain()
    for line in bench.report_lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


# ----------------------------------------------------------------------
# Server processes
# ----------------------------------------------------------------------


def _replica_set_classes():
    from repro.serving.replica import ReplicaSet

    class TracedReplicaSet(ReplicaSet):
        """A ReplicaSet whose replica runs under the layer-timing launcher."""

        layers_prefix = ""

        def _spawn(self, spec) -> None:
            if os.path.exists(spec.ready_file):
                os.unlink(spec.ready_file)
            spec.ready_info = None
            env = dict(os.environ)
            env["PYTHONPATH"] = os.pathsep.join(
                part for part in (str(SRC), env.get("PYTHONPATH")) if part
            )
            env["PERFBENCH_LAYERS"] = self.layers_prefix
            spec.process = subprocess.Popen(
                [sys.executable, str(HERE / "launcher.py")] + spec.config.to_argv(),
                env=env,
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
            )

    return ReplicaSet, TracedReplicaSet


def _healthz(host: str, port: int) -> bool:
    conn = http.client.HTTPConnection(host, port, timeout=5.0)
    try:
        conn.request("GET", "/healthz")
        return conn.getresponse().status == 200
    except OSError:
        return False
    finally:
        conn.close()


def start_server(config, layers_prefix: Optional[str] = None):
    """Spawn one replica; returns ``(replica_set, spec, seconds_to_healthz)``."""
    plain, traced = _replica_set_classes()
    if layers_prefix is None:
        replicas = plain(config, 1)
    else:
        replicas = traced(config, 1)
        replicas.layers_prefix = layers_prefix
    spec = replicas.replicas[0]
    started = time.perf_counter()
    replicas.start()
    try:
        while not _healthz(spec.host, spec.port):
            if spec.process.poll() is not None:
                raise RuntimeError(f"server exited with code {spec.process.returncode}")
            if time.perf_counter() - started > 120.0:
                raise TimeoutError("server not healthy after 120 s")
            time.sleep(0.002)
    except BaseException:
        replicas.stop()
        raise
    return replicas, spec, time.perf_counter() - started


def cpu_ticks() -> List[int]:
    """The aggregate ``cpu`` line of ``/proc/stat`` (user, nice, ..., steal)."""
    with open("/proc/stat", encoding="ascii") as handle:
        return [int(field) for field in handle.readline().split()[1:]]


def steal_share(before: Sequence[int], after: Sequence[int]) -> float:
    """Share of CPU time the hypervisor took between two :func:`cpu_ticks`.

    A virtual machine's neighbours show up here; time metrics of a run with
    a large share are slower for reasons outside this repository.
    """
    delta = [b - a for a, b in zip(before, after)]
    total = sum(delta)
    return delta[7] / total if total > 0 and len(delta) > 7 else 0.0


def peak_rss_mb(pid: int) -> float:
    """The process's ``VmHWM`` (peak resident set) in MB."""
    with open(f"/proc/{pid}/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc status")


# ----------------------------------------------------------------------
# Streams and reference answers
# ----------------------------------------------------------------------


@dataclass
class Streams:
    warmup: List[dict] = field(default_factory=list)
    open_reads: List[Tuple[float, dict]] = field(default_factory=list)
    closed_reads: List[dict] = field(default_factory=list)
    open_updates: List[Tuple[float, dict]] = field(default_factory=list)
    closed_updates: List[Tuple[float, dict]] = field(default_factory=list)
    probe: List[dict] = field(default_factory=list)
    # Every update batch in the order it is applied (versions 1, 2, ...).
    batches: List[list] = field(default_factory=list)


def make_streams(workload, graph, seed: int, seconds: float) -> Streams:
    """Everything the generator will send, drawn from ``seed`` alone."""
    import numpy as np

    import workloads as wl

    entropy = [seed, zlib.crc32(workload.name.encode("ascii"))]
    rng = np.random.default_rng(np.random.SeedSequence(entropy))
    streams = Streams()
    open_s = seconds * workload.open_share
    closed_s = seconds - open_s
    if workload.read_rate <= 0:
        seeds = wl.uniform_draws(graph.indptr, 8192, rng)
        streams.closed_reads = [wl.query_payload(s) for s in seeds]
    else:
        pool = wl.hot_pool(graph.indptr, rng)
        streams.warmup = [
            wl.query_payload(s) for s in wl.warmup_draws(pool, workload.warmup_requests, rng)
        ]
        due = wl.poisson_due_times(workload.read_rate, open_s, rng)
        seeds = wl.zipf_draws(pool, len(due), rng)
        streams.open_reads = [(t, wl.query_payload(s)) for t, s in zip(due, seeds)]
        count = int(closed_s * CLOSED_DRAWS_PER_SECOND) + 500
        streams.closed_reads = [wl.query_payload(s) for s in wl.zipf_draws(pool, count, rng)]
    edges = wl.edge_set(graph.indptr, graph.indices)
    if workload.update_rate > 0:
        open_due = wl.fixed_due_times(workload.update_rate, open_s)
        closed_due = wl.fixed_due_times(workload.update_rate, closed_s)
        streams.batches = wl.churn_batches(
            graph.num_nodes, edges, len(open_due) + len(closed_due),
            workload.ops_per_update, rng,
        )
        payloads = [wl.ops_payload(ops) for ops in streams.batches]
        streams.open_updates = list(zip(open_due, payloads))
        streams.closed_updates = list(zip(closed_due, payloads[len(open_due):]))
    else:
        for _ in range(PROBE_UPDATES // 2):
            while True:
                u, v = (int(x) for x in rng.integers(graph.num_nodes, size=2))
                edge = (min(u, v), max(u, v))
                if u != v and edge not in edges:
                    break
            streams.batches.append([("insert", *edge)])
            streams.batches.append([("delete", *edge)])
        streams.probe = [wl.ops_payload(ops) for ops in streams.batches]
    return streams


class References:
    """Graph versions and their reference answers, computed lazily.

    Version 0 is the dataset graph; version ``i`` applies the first ``i``
    op batches and is rebuilt from scratch (``CSRGraph.from_edges``), not
    through the server's ``DeltaGraph`` path.
    """

    def __init__(self, graph, batches: Sequence[list]) -> None:
        import workloads as wl

        self._batches = batches
        self._graphs = [graph]
        self._edges = wl.edge_set(graph.indptr, graph.indices)
        self._solvers: Dict[int, object] = {}
        self._answers: Dict[Tuple[int, int], list] = {}

    def graph(self, version: int):
        from repro.graph.csr import CSRGraph

        base = self._graphs[0]
        while len(self._graphs) <= version:
            for op, u, v in self._batches[len(self._graphs) - 1]:
                if op == "insert":
                    self._edges.add((u, v))
                else:
                    self._edges.discard((u, v))
            self._graphs.append(
                CSRGraph.from_edges(base.num_nodes, sorted(self._edges), name=base.name)
            )
        return self._graphs[version]

    def answer(self, seed: int, version: int) -> list:
        """The reference ``top`` list, as the server serialises it."""
        key = (seed, version)
        if key not in self._answers:
            from repro.meloppr.config import MeLoPPRConfig
            from repro.meloppr.solver import MeLoPPRSolver
            from repro.ppr.base import PPRQuery

            import workloads as wl

            solver = self._solvers.get(version)
            if solver is None:
                solver = MeLoPPRSolver(self.graph(version), MeLoPPRConfig(track_memory=False))
                self._solvers[version] = solver
            query = PPRQuery(seed=seed, k=wl.PAPER_K, alpha=wl.PAPER_ALPHA, length=wl.PAPER_LENGTH)
            self._answers[key] = [
                [int(node), float(score)] for node, score in solver.solve(query).top_k()
            ]
        return self._answers[key]

    def precision(self, pairs: Sequence[Tuple[int, int]]) -> float:
        """Mean precision@k of the reference answers against exact LocalPPR."""
        from repro.ppr.base import PPRQuery
        from repro.ppr.local_ppr import LocalPPRSolver
        from repro.ppr.metrics import precision_at_k

        import workloads as wl

        exact: Dict[int, LocalPPRSolver] = {}
        values = []
        for seed, version in pairs:
            solver = exact.get(version)
            if solver is None:
                solver = exact[version] = LocalPPRSolver(self.graph(version), track_memory=False)
            query = PPRQuery(seed=seed, k=wl.PAPER_K, alpha=wl.PAPER_ALPHA, length=wl.PAPER_LENGTH)
            truth = solver.solve(query).top_k_nodes()
            approx = [node for node, _ in self.answer(seed, version)]
            values.append(precision_at_k(approx, truth, wl.PAPER_K))
        return statistics.fmean(values)


# ----------------------------------------------------------------------
# One pass: a server, the phases, the checks
# ----------------------------------------------------------------------


@dataclass
class PassResult:
    phases: list
    stats: Dict[str, dict]
    update_records: list
    rss_mb: float
    steal: float
    counts: Dict[str, Dict[str, int]]
    wrong: int
    failed: int
    attempted: int
    precision: float
    layers: Optional[Dict[str, dict]] = None

    def phase(self, name: str):
        return next((phase for phase in self.phases if phase.name == name), None)

    def timed_reads(self) -> list:
        """Answered reads of the timed phases (open and closed)."""
        return [
            r for phase in self.phases if phase.name in ("open", "closed")
            for r in phase.of_kind("read") if r.status == 200
        ]


class Bench:
    def __init__(self, workload, seed: int, seconds: float, scratch: Path) -> None:
        from repro.graph.datasets import load_dataset
        from repro.serving.frontend.config import ServingConfig

        self.workload = workload
        self.seed = seed
        self.seconds = seconds
        self.scratch = scratch
        self.config = ServingConfig(dataset=workload.dataset)
        self.graph = load_dataset(workload.dataset)
        self.workers = len(os.sched_getaffinity(0))
        self.report_lines: List[str] = []
        # The traced pass's layer-totals files: <prefix>.<mark>.json.
        self._layers_prefix = str(scratch / f"layers-{os.getpid()}")
        self._marks = 0

    # -- reporting -----------------------------------------------------
    def _report(self, key: str, value: object) -> None:
        self.report_lines.append(json.dumps({key: value}, sort_keys=True))

    def _environment(self) -> dict:
        import numpy
        import scipy

        from repro.diffusion.kernels import resolve_kernel_name

        return {
            "workload": self.workload.name,
            "why": self.workload.why,
            "workload_seed": self.seed,
            "seconds": self.seconds,
            "nproc": self.workers,
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "kernel": resolve_kernel_name(self.config.kernel),
            "serving_argv": self.config.to_argv(),
            "graph": self.graph.name,
            "graph_fingerprint": self.graph.fingerprint(),
            "connections": self.workers,
        }

    # -- the pass ------------------------------------------------------
    def _one_pass(self, seconds: float, layers_prefix: Optional[str] = None) -> PassResult:
        streams = make_streams(self.workload, self.graph, self.seed, seconds)
        replicas, spec, _ = start_server(self.config, layers_prefix)
        # A full collection over the stored answers pauses this process for
        # tens of ms, which would show up as server tail latency; nothing
        # the generator keeps is cyclic, so collect only between passes.
        gc.collect()
        gc.disable()
        ticks = cpu_ticks()
        try:
            phases, stats, probe = asyncio.run(
                self._drive(spec, streams, seconds, layers_prefix is not None)
            )
            rss = peak_rss_mb(spec.process.pid)
            steal = steal_share(ticks, cpu_ticks())
        finally:
            gc.enable()
            replicas.stop()
        layers = None
        if layers_prefix is not None:
            layers = self._layer_window(layers_prefix)
        return self._check(phases, stats, probe, streams, rss, steal, layers)

    async def _drive(self, spec, streams: Streams, seconds: float, traced: bool):
        from loadgen import run_phase
        from repro.serving.frontend.http import HttpClientPool

        workload = self.workload
        async with HttpClientPool(spec.host, spec.port, self.workers) as pool:

            async def send(kind: str, payload: dict):
                if kind == "read":
                    return await pool.query(payload)
                return await pool.request_json("POST", "/admin/update", payload)

            async def stats() -> dict:
                status, body = await pool.request_json("GET", "/stats")
                if status != 200:
                    raise RuntimeError(f"/stats answered {status}")
                return body

            phases = []
            if streams.warmup:
                phases.append(
                    await run_phase("warmup", send, self.workers, closed_reads=iter(streams.warmup))
                )
            snapshots = {"start": await stats()}
            if traced:
                await self._mark(spec)
            if streams.open_reads:
                phases.append(
                    await run_phase(
                        "open", send, self.workers,
                        open_reads=streams.open_reads, updates=streams.open_updates,
                        seconds=seconds * workload.open_share,
                    )
                )
            closed_s = seconds - seconds * workload.open_share
            phases.append(
                await run_phase(
                    "closed", send, self.workers,
                    closed_reads=iter(streams.closed_reads),
                    updates=streams.closed_updates, seconds=closed_s,
                )
            )
            snapshots["end"] = await stats()
            probe = None
            if streams.probe:
                probe = await run_phase(
                    "probe", send, 1, open_reads=[],
                    updates=[(i / PROBE_RATE, p) for i, p in enumerate(streams.probe)],
                )
            if traced:
                await self._mark(spec)
        return phases, snapshots, probe

    async def _mark(self, spec) -> None:
        """Ask the traced server to write its layer totals; wait for the file."""
        self._marks += 1
        path = Path(f"{self._layers_prefix}.{self._marks}.json")
        os.kill(spec.process.pid, signal.SIGUSR1)
        deadline = time.perf_counter() + 30.0
        while not path.exists():
            if time.perf_counter() > deadline:
                raise TimeoutError(f"traced server wrote no {path.name}")
            await asyncio.sleep(0.005)

    def _layer_window(self, prefix: str) -> Dict[str, dict]:
        first = json.loads(Path(f"{prefix}.1.json").read_text())["layers"]
        last = json.loads(Path(f"{prefix}.2.json").read_text())["layers"]
        out = {}
        for name, slot in last.items():
            base = first.get(name, {})
            out[name] = {key: value - base.get(key, 0.0) for key, value in slot.items()}
        return out

    # -- correctness ---------------------------------------------------
    def _check(
        self, phases, stats, probe, streams: Streams, rss: float, steal: float, layers
    ) -> PassResult:
        import numpy as np

        refs = References(self.graph, streams.batches)
        all_phases = phases + ([probe] if probe else [])
        updates = sorted(
            (r for phase in all_phases for r in phase.of_kind("update")),
            key=lambda r: r.sent,
        )
        sent_times = [r.sent for r in updates]
        done_times = [r.done for r in updates]
        counts: Dict[str, Dict[str, int]] = {}
        wrong = failed = attempted = 0
        matched: set = set()
        # Update i produced version i: its fingerprint must match the rebuild.
        good_updates = {
            id(record)
            for version, record in enumerate(updates, start=1)
            if record.status == 200
            and record.body.get("new_fingerprint") == refs.graph(version).fingerprint()
        }
        for phase in all_phases:
            tally = counts.setdefault(
                phase.name, {"attempted": 0, "succeeded": 0, "shed": 0, "failed": 0, "wrong": 0}
            )
            for record in phase.records:
                tally["attempted"] += 1
                if record.kind == "update":
                    good = id(record) in good_updates
                    tally["succeeded" if good else "failed"] += 1
                    if record.status == 200 and not good:
                        tally["wrong"] += 1
                    continue
                if record.status == 429:
                    tally["shed"] += 1
                    tally["failed"] += 1
                    continue
                if record.status != 200:
                    tally["failed"] += 1
                    continue
                seed = int(record.payload["seed"])
                # Versions the answer may legally come from: the graph when
                # the read was sent through every update it overlapped.
                low = sum(1 for t in done_times if t < record.sent)
                high = sum(1 for t in sent_times if t < record.done)
                version = next(
                    (v for v in range(low, high + 1) if refs.answer(seed, v) == record.body.get("top")),
                    None,
                )
                if version is None:
                    tally["wrong"] += 1
                    tally["failed"] += 1
                else:
                    tally["succeeded"] += 1
                    matched.add((seed, version))
        for tally in counts.values():
            attempted += tally["attempted"]
            failed += tally["failed"]
            wrong += tally["wrong"]
        # One pair per seed (its latest graph version): the mean then weighs
        # every answered seed once, however many versions it was read at.
        latest: Dict[int, int] = {}
        for seed, version in matched:
            latest[seed] = max(version, latest.get(seed, version))
        pairs = sorted(latest.items())
        if len(pairs) > PRECISION_SAMPLE:
            rng = np.random.default_rng(self.seed)
            picks = rng.choice(len(pairs), size=PRECISION_SAMPLE, replace=False)
            pairs = [pairs[int(i)] for i in sorted(picks)]
        precision = refs.precision(pairs) if pairs else 0.0
        return PassResult(
            phases=phases, stats=stats, update_records=updates, rss_mb=rss, steal=steal,
            counts=counts, wrong=wrong, failed=failed, attempted=attempted,
            precision=precision, layers=layers,
        )

    # -- metrics -------------------------------------------------------
    def _end_to_end(self, result: PassResult) -> Tuple[Dict[str, float], dict]:
        from ledger import median, per_second_rates, tail_percentile

        closed = result.phase("closed")
        latency_phase = result.phase("open") or closed
        answered = [r for r in closed.of_kind("read") if r.status == 200]
        # Median of per-second rates: a host stall of a second or two moves
        # the mean of a short run; it barely moves the median.
        rates = per_second_rates([r.done for r in answered], closed.start, closed.end)
        throughput = median(rates)
        latencies = [r.latency_ms for r in latency_phase.of_kind("read") if r.status == 200]
        tail = tail_percentile(latencies)
        if self.workload.update_rate > 0:
            # Churn updates from the open-loop phase, timed from their due
            # time; in the closed loop both connections are always busy, so
            # an update's latency there is mostly the read it queued behind.
            update_latencies = [r.latency_ms for r in latency_phase.of_kind("update")]
        else:
            # Probe updates go one at a time to an idle server.
            update_latencies = [(r.done - r.sent) * 1e3 for r in result.update_records]
        update_tail = tail_percentile(update_latencies)
        metrics = {
            "throughput_qps": throughput,
            "latency_p50_ms": median(latencies),
            "latency_tail_ms": tail["value"],
            "precision_at_k": result.precision,
            "peak_rss_mb": result.rss_mb,
            "update_p50_ms": median(update_latencies),
            "update_tail_ms": update_tail["value"],
        }
        detail = {
            "latency_phase": latency_phase.name,
            "latency_tail": tail,
            "update_tail": update_tail,
            "closed_answered": len(answered),
            "closed_seconds": closed.end - closed.start,
            "closed_rates_per_second": rates,
        }
        return metrics, detail

    def _stats_layers(self, result: PassResult) -> Dict[str, float]:
        from ledger import stats_window, update_window

        window = stats_window(result.stats["start"], result.stats["end"])
        window["frontend.http.transport_ms"] = statistics.fmean(
            (r.done - r.sent) * 1e3 - float(r.body["latency_ms"]) for r in result.timed_reads()
        )
        window.update(update_window([r.body for r in result.update_records if r.status == 200]))
        open_phase = result.phase("open")
        lags = [r.lag_ms for r in open_phase.records] if open_phase else []
        window["loadgen.lag_ms"] = statistics.fmean(lags) if lags else 0.0
        window["loadgen.lag_flagged"] = float(bool(lags) and window["loadgen.lag_ms"] > LAG_BOUND_MS)
        return window

    def _finish(self, results: Sequence[PassResult], metrics: Dict[str, Tuple[float, str]]) -> dict:
        attempted = sum(r.attempted for r in results)
        failed = sum(r.failed for r in results)
        wrong = sum(r.wrong for r in results)
        for index, result in enumerate(results):
            self._report(f"counts.pass{index}", result.counts)
            self._report(f"host_steal_share.pass{index}", result.steal)
        self._report("wrong_answers", wrong)
        return {
            "correct": wrong == 0 and failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {
                name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
            },
        }

    def run_plain(self) -> dict:
        self._report("environment", self._environment())
        setups = []
        for _ in range(SETUP_SPAWNS):
            replicas, _, seconds = start_server(self.config)
            replicas.stop()
            setups.append(seconds)
        result = self._one_pass(self.seconds)
        metrics, detail = self._end_to_end(result)
        metrics["setup_s"] = statistics.median(setups)
        self._report("setup_samples_s", setups)
        self._report("end_to_end_detail", detail)
        self._report("tails_ms", {name: metrics[name] for name in ("latency_tail_ms", "update_tail_ms")})
        self._report("per_layer_from_stats", self._stats_layers(result))
        return self._finish(
            [result], {name: (metrics[name], unit) for name, unit in END_TO_END_UNITS.items()}
        )

    def run_traced(self) -> dict:
        from ledger import PER_LAYER_UNITS

        self._report("environment", self._environment())
        half = self.seconds / 2.0
        plain = self._one_pass(half)
        traced = self._one_pass(half, layers_prefix=self._layers_prefix)
        for leftover in self.scratch.glob(f"layers-{os.getpid()}.*"):
            leftover.unlink()
        plain_e2e, _ = self._end_to_end(plain)
        traced_e2e, _ = self._end_to_end(traced)
        per_layer = self._stats_layers(plain)
        ledger = self._traced_ledger(traced)
        per_layer.update(ledger)
        per_layer["trace.overhead"] = plain_e2e["throughput_qps"] / traced_e2e["throughput_qps"] - 1.0
        for name in ("latency_tail_ms", "update_tail_ms"):
            per_layer[name] = plain_e2e[name]
        self._report("end_to_end_plain_pass", plain_e2e)
        self._report("end_to_end_traced_pass", traced_e2e)
        return self._finish(
            [plain, traced],
            {name: (per_layer[name], unit) for name, unit in PER_LAYER_UNITS.items()},
        )

    def _traced_ledger(self, result: PassResult) -> Dict[str, float]:
        from ledger import traced_ledger

        client_ms = [(r.done - r.sent) * 1e3 for r in result.timed_reads()]
        updates = len([r for r in result.update_records if r.status == 200])
        self._report("traced_layers_raw", result.layers)
        return traced_ledger(result.layers, client_ms, updates, self._stats_layers(result))

if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    raise SystemExit(main())
