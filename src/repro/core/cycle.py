"""1-vs-2-Cycle (§5.6): the canonical MPC-hardness problem.

- :func:`ampc_one_vs_two_cycle` — the O(1)-round AMPC algorithm:
  sample vertices with probability ``p``, walk outward from each
  sample (both directions) through the DHT until the next sample,
  contract to the sampled vertices, and count components of the
  (tiny) contracted graph on one machine. One shuffle (writing the
  successor store), matching Table 4's AMPC row.
- :func:`mpc_cycle_cc` — the MPC baseline: iterated random-mate local
  contraction; each iteration shrinks the cycle by a constant factor
  and costs 3 shuffles (mate selection, relabel-u, relabel-v); the
  residual is solved on one machine below the cutoff. The paper's
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

from repro.ampc.dht import build_cycle_store
from repro.graphs.generators import GraphData
from repro.hashing import hash01, splitmix64
from repro.mpc import DEFAULT_CUTOFF_EDGES
from repro.reference import UnionFind
from repro.runtime import RoundContext


@dataclass
class CycleResult:
    n_components: int
    ctx: RoundContext


_WALK_SCHEMA = StructType(
    [
        StructField("s", LongType()),
        StructField("t", LongType()),
        StructField("steps", LongType()),
    ]
)


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
    (increase ``p``).
    """
    ctx = ctx or RoundContext(model="ampc")
    n = g.n
    dht = build_cycle_store(spark, g.to_spark(spark), n, ctx)
    bc = spark.sparkContext.broadcast(dht.store)
    is_sample = hash01(np.arange(n), seed + 77) < p
    if not is_sample.any():
        raise ValueError("no vertices sampled; increase p")
    bc_sample = spark.sparkContext.broadcast(is_sample)
    samples = np.flatnonzero(is_sample)

    def walk(batches):
        nbr = bc.value
        sample = bc_sample.value
        for pdf in batches:
            rows = []
            for s in pdf["s"].tolist():
                s = int(s)
                for direction in (0, 1):
                    prev, cur, steps = s, int(nbr[s, direction]), 1
                    while not sample[cur]:
                        a, b = nbr[cur]
                        nxt = int(b) if int(a) == prev else int(a)
                        prev, cur = cur, nxt
                        steps += 1
                    rows.append((s, cur, steps))
            yield pd.DataFrame(rows, columns=["s", "t", "steps"])

    sdf = spark.createDataFrame(pd.DataFrame({"s": samples}))
    out = sdf.mapInPandas(walk, schema=_WALK_SCHEMA).toPandas()
    total_steps = int(out["steps"].sum())
    ctx.queries += total_steps
    ctx.kv_bytes += total_steps * 16
    if total_steps != 2 * g.m:
        raise ValueError(
            f"walks covered {total_steps} != 2m={2 * g.m} edge traversals: "
            "some cycle contains no sample; increase p"
        )
    # Contract: union-find over the sample graph on one machine.
    lut = {int(s): i for i, s in enumerate(samples.tolist())}
    uf = UnionFind(len(samples))
    for s, t in zip(out["s"].tolist(), out["t"].tolist()):
        uf.union(lut[int(s)], lut[int(t)])
    bc.unpersist()
    bc_sample.unpersist()
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
    head neighbor. 3 shuffles per iteration. Counts components of the
    collected residual (self-loops retained so fully-contracted cycles
    stay visible)."""
    ctx = ctx or RoundContext(model="mpc")
    e0 = g.edges.copy()
    edges = spark.createDataFrame(
        pd.DataFrame({"cu": e0["u"], "cv": e0["v"]})
    ).localCheckpoint(eager=True)

    while True:
        alive = edges.filter("cu <> cv").count()
        if alive <= cutoff_edges:
            break
        if ctx.phases >= max_phases:  # pragma: no cover - safety valve
            raise RuntimeError("cycle contraction failed to converge")
        ctx.phases += 1
        phase = ctx.phases

        # Shuffle 1: per-tail minimum head neighbor.
        sym = edges.filter("cu <> cv").select(
            F.col("cu").alias("c"), F.col("cv").alias("other")
        ).union(
            edges.filter("cu <> cv").select(
                F.col("cv").alias("c"), F.col("cu").alias("other")
            )
        )
        grouped = sym.groupBy("c").agg(F.collect_list("other").alias("nbrs"))
        ctx.shuffle(1)

        def pick_mate(batches):
            for pdf in batches:
                rows = []
                for c, nbrs in zip(pdf["c"].tolist(), pdf["nbrs"].tolist()):
                    c = int(c)
                    if _head(c, phase, seed):
                        continue  # heads stay put
                    heads = [int(x) for x in nbrs if _head(int(x), phase, seed)]
                    if heads:
                        rows.append((c, min(heads)))
                yield pd.DataFrame(rows, columns=["old", "new"])

        mate_schema = StructType(
            [StructField("old", LongType()), StructField("new", LongType())]
        )
        # Materialize the mate mapping to the driver and re-create it as
        # a LocalRelation: both join inputs below would otherwise derive
        # from `edges`, so Catalyst's join size estimate would *square*
        # every phase and overflow BigInteger after ~30 phases
        # (localCheckpoint preserves estimated stats). The mapping is
        # small (≤ 3/8 of current vertices) and shrinks geometrically.
        mapping_pdf = grouped.mapInPandas(pick_mate, schema=mate_schema).toPandas()
        if len(mapping_pdf) == 0:
            continue  # unlucky coloring: nothing contracted this phase
        mapping = spark.createDataFrame(mapping_pdf)

        # Shuffles 2+3: relabel both endpoints. Each join is materialized
        # (barrier) so lineage — and Catalyst's multiplicative size
        # statistics, which overflow after tens of stacked joins — reset
        # every phase.
        e2 = edges.join(
            mapping.withColumnRenamed("old", "cu").withColumnRenamed("new", "nu"),
            on="cu",
            how="left",
        )
        e2 = ctx.barrier(e2, shuffles=1)
        e2 = e2.join(
            mapping.withColumnRenamed("old", "cv").withColumnRenamed("new", "nv"),
            on="cv",
            how="left",
        )
        e2 = e2.select(
            F.coalesce("nu", "cu").alias("cu"), F.coalesce("nv", "cv").alias("cv")
        )
        edges = ctx.barrier(e2, shuffles=1)

    rest = edges.toPandas()
    labels = pd.unique(pd.concat([rest["cu"], rest["cv"]]))
    lut = {int(c): i for i, c in enumerate(labels)}
    uf = UnionFind(len(labels))
    for a, b in zip(rest["cu"].tolist(), rest["cv"].tolist()):
        uf.union(lut[int(a)], lut[int(b)])
    return CycleResult(n_components=uf.n_components, ctx=ctx)


def _head(x: int, phase: int, seed: int) -> bool:
    return bool(splitmix64(np.array([x]), seed * 1009 + phase)[0] & np.uint64(1))
