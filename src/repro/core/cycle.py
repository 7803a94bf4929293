"""1-vs-2-Cycle (§5.6): the canonical MPC-hardness problem.

- :func:`ampc_one_vs_two_cycle` — the O(1)-round AMPC algorithm:
  sample vertices with probability ``p``, walk outward from each
  sample (both directions) through the DHT until the next sample,
  contract to the sampled vertices, and count components of the
  (tiny) contracted graph on one machine. One shuffle writes the same
  ``CSRStore`` adjacency the other AMPC algorithms build, whose row of
  each vertex holds its two cycle neighbors; matching Table 4's AMPC
  row.
- :func:`mpc_cycle_cc` — the MPC baseline: iterated random-mate local
  contraction; each iteration shrinks the cycle by a constant factor
  and costs 3 shuffles (mate selection, then relabel-u and relabel-v in
  the relabel step it shares with MPC MSF, :func:`repro.mpc.relabel`);
  the residual is solved on one machine below the cutoff. The paper's
  baseline (CC-LocalContraction) shrinks ~2.6-3x per iteration; random
  mate shrinks ~1.6x — a conservative deviation recorded in DESIGN.md §5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import LongType, StructField, StructType

from repro.ampc.dht import adaptive_round, build_sorted_adjacency
from repro.graphs.generators import GraphData, parallel_frame
from repro.hashing import hash01, splitmix64
from repro.mpc import DEFAULT_CUTOFF_EDGES, relabel
from repro.reference import UnionFind
from repro.runtime import RoundContext


@dataclass
class CycleResult:
    n_components: int
    ctx: RoundContext


def _check_2_regular(g: GraphData) -> None:
    """Raise on the driver, before any Spark job, unless ``g`` is a
    union of cycles: every vertex has degree exactly 2."""
    if (np.bincount(np.concatenate([g.u(), g.v()]), minlength=g.n) != 2).any():
        raise ValueError("1-vs-2-Cycle needs every vertex to have degree 2")


def ampc_one_vs_two_cycle(
    spark: SparkSession,
    g: GraphData,
    *,
    p: float = 1 / 64,
    seed: int = 0,
    ctx: RoundContext | None = None,
) -> CycleResult:
    """AMPC 1-vs-2-Cycle: O(1) rounds, 1 shuffle.

    Every sampled vertex walks the cycle in both directions until the
    next sample (possibly itself), so each cycle edge is traversed
    exactly twice when every cycle contains a sample — verified by the
    step-count invariant, which raises if a cycle went unsampled
    (increase ``p``). Raises ``ValueError`` on the driver unless every
    vertex has degree 2.
    """
    _check_2_regular(g)
    ctx = ctx or RoundContext(model="ampc")
    is_sample = hash01(np.arange(g.n), seed + 77) < p
    if not is_sample.any():
        raise ValueError("no vertices sampled; increase p")
    dht = build_sorted_adjacency(spark, g, ctx, seed=seed)

    def walk(ids, store, meter):
        csr, sample = store
        indptr, dst = csr.indptr, csr.dst
        rows = []
        for s in ids:
            # Each step reads the two-entry row of the vertex it reaches.
            for first in csr.get(s)[0].tolist():
                prev, cur, steps = s, first, 1
                meter.lookup(words=2)
                while not sample[cur]:
                    i = indptr[cur]
                    prev, cur = cur, (dst[i + 1] if dst[i] == prev else dst[i])
                    meter.lookup(words=2)
                    steps += 1
                rows.append((s, int(cur), steps))
        return rows

    samples = np.flatnonzero(is_sample)
    rows = adaptive_round(spark, ctx, (dht.store, is_sample), samples, walk)
    total_steps = sum(steps for _, _, steps in rows)
    if total_steps != 2 * g.m:
        raise ValueError(
            f"walks covered {total_steps} != 2m={2 * g.m} edge traversals: "
            "some cycle contains no sample; increase p"
        )
    # Contract: union-find over the sample graph on one machine.
    lut = {s: i for i, s in enumerate(samples.tolist())}
    uf = UnionFind(len(samples))
    for s, t, _ in rows:
        uf.union(lut[s], lut[t])
    return CycleResult(n_components=uf.n_components, ctx=ctx)


def mpc_cycle_cc(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 100,
) -> CycleResult:
    """MPC connectivity baseline on cycle graphs via random-mate
    contraction. Per iteration: every vertex flips a deterministic
    coin; each tail vertex adjacent to a head merges into its minimum
    head neighbor. 3 shuffles per iteration; the relabel drops
    contracted self-loops, so a fully contracted cycle leaves the
    relation. Components are counted as ``n`` minus the merges: one per
    mapping row (a tail merges into a head, heads never move) and one
    per union in the in-memory finish. Raises ``ValueError`` on the
    driver unless every vertex has degree 2."""
    _check_2_regular(g)
    ctx = ctx or RoundContext(model="mpc")
    edges = parallel_frame(
        spark, pd.DataFrame({"cu": g.u(), "cv": g.v()}), "cu long, cv long"
    ).localCheckpoint(eager=True)
    merged = 0

    while True:
        if edges.count() <= cutoff_edges:
            break
        if ctx.phases >= max_phases:  # pragma: no cover - safety valve
            raise RuntimeError("cycle contraction failed to converge")
        ctx.phases += 1
        phase = ctx.phases

        # Shuffle 1: per-tail minimum head neighbor.
        sym = edges.select(F.col("cu").alias("c"), F.col("cv").alias("other")).union(
            edges.select(F.col("cv").alias("c"), F.col("cu").alias("other"))
        )
        grouped = sym.groupBy("c").agg(F.collect_list("other").alias("nbrs"))
        ctx.shuffle(1)

        def pick_mate(batches):
            for pdf in batches:
                c = pdf["c"].to_numpy()
                nbrs = pdf["nbrs"].tolist()
                flat = np.concatenate(nbrs + [np.zeros(0, np.int64)])
                owner = np.repeat(np.arange(len(c)), [len(x) for x in nbrs])
                # Tails (heads stay put) merge into their minimum head neighbor.
                cand = _heads(flat, phase, seed) & ~_heads(c, phase, seed)[owner]
                mate = np.full(len(c), np.iinfo(np.int64).max)
                np.minimum.at(mate, owner[cand], flat[cand])
                has = mate < np.iinfo(np.int64).max
                yield pd.DataFrame({"old": c[has], "new": mate[has]})

        mate_schema = StructType(
            [StructField("old", LongType()), StructField("new", LongType())]
        )
        mapping = grouped.mapInPandas(pick_mate, schema=mate_schema).toPandas()
        if len(mapping) == 0:
            continue  # unlucky coloring: nothing contracted this phase
        merged += len(mapping)
        # Shuffles 2+3: relabel both endpoints.
        edges = relabel(spark, ctx, edges, mapping)

    rest = edges.toPandas()
    labels = pd.unique(pd.concat([rest["cu"], rest["cv"]]))
    lut = {int(c): i for i, c in enumerate(labels)}
    uf = UnionFind(len(labels))
    for a, b in zip(rest["cu"].tolist(), rest["cv"].tolist()):
        uf.union(lut[int(a)], lut[int(b)])
    merged += len(labels) - uf.n_components
    return CycleResult(n_components=g.n - merged, ctx=ctx)


def _heads(xs: np.ndarray, phase: int, seed: int) -> np.ndarray:
    return (splitmix64(xs, seed * 1009 + phase) & np.uint64(1)).astype(bool)
