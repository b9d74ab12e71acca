"""Request streams of the benchmark workloads, made from the workload seed.

Only plain lists come out of here: query payloads, Poisson due times and
edge-op batches.  The server sees nothing but these requests.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import List, Sequence, Set, Tuple

import numpy as np

#: The paper query: top-200 of a length-6 alpha-decay walk.
PAPER_K = 200
PAPER_LENGTH = 6
PAPER_ALPHA = 0.85

HOT_POOL = 256
HOT_SKEW = 1.1
#: Draws between re-draws of the popularity order (see :func:`zipf_draws`).
HOT_ROTATE_EVERY = 64


@dataclass(frozen=True)
class Workload:
    """Fixed knobs of one named workload (everything not drawn from the seed)."""

    name: str
    dataset: str
    why: str
    # Open-loop read rate (req/s); 0 = closed loop only.
    read_rate: float = 0.0
    # Update batches per second and edge ops per batch; 0 = no churn.
    update_rate: float = 0.0
    ops_per_update: int = 0
    # Untimed closed-loop requests before the timed phases.
    warmup_requests: int = 0
    # Share of --seconds given to the open-loop phase (rest: closed loop).
    open_share: float = 0.0


WORKLOADS = {
    "cold-g3": Workload(
        name="cold-g3",
        dataset="G3",
        why=(
            "distinct uniform seeds on G3: every query misses the result "
            "cache, extraction, diffusion and score-table fold do the work"
        ),
    ),
    "hot-g1": Workload(
        name="hot-g1",
        dataset="G1",
        why=(
            "Zipf(1.1) over 256 seeds on G1 with warm caches: transport, "
            "batcher window, admission and cache lookups dominate"
        ),
        read_rate=50.0,
        warmup_requests=768,
        open_share=0.6,
    ),
    "churn-g1": Workload(
        name="churn-g1",
        dataset="G1",
        why=(
            "the hot-g1 stream plus edge-update batches: cache invalidation, "
            "re-keying and the writer barrier beside warm reads"
        ),
        read_rate=50.0,
        update_rate=5.0,
        ops_per_update=4,
        warmup_requests=768,
        open_share=0.6,
    ),
}


def query_payload(seed: int) -> dict:
    """The ``POST /query`` body of the paper query at ``seed``."""
    return {"seed": int(seed), "k": PAPER_K, "alpha": PAPER_ALPHA, "length": PAPER_LENGTH}


def candidate_seeds(indptr: np.ndarray) -> np.ndarray:
    """Nodes with degree >= 1 (no other filtering: hubs stay in)."""
    return np.flatnonzero(np.diff(indptr) >= 1)


def hot_pool(indptr: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """The 256 seeds of the Zipf stream."""
    return rng.choice(candidate_seeds(indptr), size=HOT_POOL, replace=False)


def zipf_draws(pool: Sequence[int], count: int, rng: np.random.Generator) -> List[int]:
    """``count`` seeds drawn with probability proportional to rank**-1.1.

    The rank order of the pool is re-drawn every ``HOT_ROTATE_EVERY`` draws
    (popularity drift).  With one fixed order a handful of head seeds carry
    half the traffic, so a run's cost would hinge on which seeds the workload
    seed happened to put first; drifting, every run averages over the pool
    while each stretch of traffic keeps the Zipf(1.1) skew.
    """
    ranks = np.arange(1, len(pool) + 1, dtype=np.float64)
    weights = ranks ** -HOT_SKEW
    weights /= weights.sum()
    picks = rng.choice(len(pool), size=count, p=weights)
    out: List[int] = []
    for index, pick in enumerate(picks):
        if index % HOT_ROTATE_EVERY == 0:
            order = rng.permutation(len(pool))
        out.append(int(pool[int(order[int(pick)])]))
    return out


def warmup_draws(pool: Sequence[int], count: int, rng: np.random.Generator) -> List[int]:
    """Every pool seed once (shuffled), then Zipf draws up to ``count``."""
    first = [int(pool[int(i)]) for i in rng.permutation(len(pool))]
    return first + zipf_draws(pool, max(0, count - len(first)), rng)


def uniform_draws(indptr: np.ndarray, count: int, rng: np.random.Generator) -> List[int]:
    """``count`` distinct uniformly sampled seeds (cold traffic)."""
    candidates = candidate_seeds(indptr)
    count = min(count, candidates.size)
    return [int(seed) for seed in rng.choice(candidates, size=count, replace=False)]


def poisson_due_times(rate: float, seconds: float, rng: np.random.Generator) -> List[float]:
    """Arrival offsets of a Poisson process at ``rate``/s over ``seconds``."""
    offsets: List[float] = []
    now = 0.0
    while True:
        now += float(rng.exponential(1.0 / rate))
        if now >= seconds:
            return offsets
        offsets.append(now)


def fixed_due_times(rate: float, seconds: float) -> List[float]:
    """Evenly spaced offsets at ``rate``/s over ``seconds`` (update batches)."""
    if rate <= 0:
        return []
    return [index / rate for index in range(1, int(seconds * rate) + 1) if index / rate < seconds]


def edge_set(indptr: np.ndarray, indices: np.ndarray) -> Set[Tuple[int, int]]:
    """The undirected edge set as canonical ``(u < v)`` pairs."""
    sources = np.repeat(np.arange(indptr.size - 1, dtype=np.int64), np.diff(indptr))
    targets = indices.astype(np.int64)
    mask = sources < targets
    return set(zip(sources[mask].tolist(), targets[mask].tolist()))


def churn_batches(
    num_nodes: int,
    edges: Set[Tuple[int, int]],
    batches: int,
    ops_per_batch: int,
    rng: np.random.Generator,
) -> List[List[Tuple[str, int, int]]]:
    """Edge-op batches made the way ``churn_study.make_churn_script`` makes them.

    Each op deletes an existing edge or inserts a new one with equal odds;
    the batches are valid when applied in order.  ``edges`` is consumed.
    """
    sorted_edges = sorted(edges)
    out: List[List[Tuple[str, int, int]]] = []
    for _ in range(batches):
        ops: List[Tuple[str, int, int]] = []
        for _ in range(ops_per_batch):
            if rng.random() < 0.5 and sorted_edges:
                u, v = sorted_edges.pop(int(rng.integers(len(sorted_edges))))
                edges.discard((u, v))
                ops.append(("delete", u, v))
            else:
                while True:
                    u = int(rng.integers(num_nodes))
                    v = int(rng.integers(num_nodes))
                    if u == v:
                        continue
                    edge = (u, v) if u < v else (v, u)
                    if edge not in edges:
                        break
                edges.add(edge)
                bisect.insort(sorted_edges, edge)
                ops.append(("insert", edge[0], edge[1]))
        out.append(ops)
    return out


def ops_payload(ops: Sequence[Tuple[str, int, int]]) -> dict:
    """The ``POST /admin/update`` body of one op batch."""
    return {"ops": [{"op": op, "u": int(u), "v": int(v)} for op, u, v in ops]}
