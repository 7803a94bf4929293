"""Latency cost model for DHT transports (Table 4's RDMA vs TCP/IP).

The sandbox has no NICs, so the RDMA-vs-TCP comparison is modeled
(DESIGN.md §2): each *uncached* DHT lookup is charged a per-query
latency on top of the measured wall time:

    modeled_time = wall_seconds + queries * LATENCY_S[transport] / CONCURRENCY

Latencies: RDMA ≈ 2µs (paper cites single-digit-microsecond RDMA
lookups, ~an order of magnitude above DRAM); TCP/IP RPC ≈ 40µs (an
order of magnitude above RDMA, cf. eRPC-class systems).

``CONCURRENCY`` is the modeled lookup-pipelining factor. The paper's
multithreading optimization overlaps a lookup's latency with other
queries' compute; in this single-process simulation the Python
interpreter overhead of each simulated lookup (~2-6µs) already plays
the compute role that latency overlaps with. The factor 2 is a
calibration: with it, the simulator's per-query compute plus modeled
latency reproduces the paper's TCP/RDMA cost ratios at our scaled
input sizes (EXPERIMENTS.md, Table 4). It is the single tunable in the
model and is held fixed across all experiments. MPC baselines make no
DHT queries, so their modeled time is pure measured wall time —
dominated locally by per-shuffle Spark job overhead, the analog of
Flume's per-shuffle durable writes.
"""
from __future__ import annotations

LATENCY_S = {"rdma": 2e-6, "tcp": 40e-6}
CONCURRENCY = 2


def modeled_time(wall_seconds: float, queries: int, transport: str) -> float:
    """Wall time plus modeled network time for ``queries`` DHT lookups."""
    if transport not in LATENCY_S:
        raise ValueError(f"unknown transport {transport!r}")
    return wall_seconds + queries * LATENCY_S[transport] / CONCURRENCY
