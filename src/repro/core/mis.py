"""Maximal Independent Set — the paper's case study (§5.3).

Both implementations compute the *lexicographically-first MIS* over the
hash-derived vertex permutation π = hash01(vertex, seed), so (paper:
"By specifying the same source of randomness, both the MPC and AMPC
algorithms compute the same MIS") their outputs are bit-identical to
each other and to ``repro.reference.greedy_mis``.

- :func:`ampc_mis` — Figure 1: one shuffle builds the priority-directed
  graph and writes it to the DHT; one adaptive round runs the
  Yoshida-style recursive query process with a per-partition (i.e.
  per-machine) memo cache.
- :func:`mpc_mis` — Figure 2: rootset peeling, 2 logical shuffles per
  phase, switching to an in-memory finish below a cutoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import (
    BooleanType,
    LongType,
    StructField,
    StructType,
)

from repro.ampc.dht import CSRStore, Meter, adaptive_round, build_sorted_adjacency
from repro.graphs.generators import GraphData
from repro.hashing import hash01
from repro.mpc import DEFAULT_CUTOFF_EDGES, adjacency_df
from repro.runtime import RoundContext, mpc_scope


@dataclass
class MISResult:
    members: set[int]
    ctx: RoundContext


# --------------------------------------------------------------------------
# AMPC (Figure 1)
# --------------------------------------------------------------------------

def _resolve_in_mis(root: int, store: CSRStore, memo: dict, meter: Meter) -> bool:
    """Iterative version of Figure 1's ``InMIS`` recursion.

    A vertex is in the MIS iff none of its earlier-permutation
    neighbors is. Frames carry a resume index so each neighbor list is
    scanned once; ``memo`` is the per-machine cache (may be scoped
    per-root when the caching optimization is disabled).
    """
    frames: list[list] = [[root, 0, None]]  # [vertex, next nbr index, nbrs]
    while frames:
        frame = frames[-1]
        x = frame[0]
        if x in memo:
            frames.pop()
            continue
        if frame[2] is None:
            meter.lookup(words=1)
            frame[2] = store.get(x)[0]
        else:
            meter.hit()  # resumed frame: neighbor list already fetched
        nbrs = frame[2]
        decided: bool | None = None
        i = frame[1]
        while i < len(nbrs):
            y = int(nbrs[i])
            r = memo.get(y)
            if r is None:
                frame[1] = i
                frames.append([y, 0, None])
                break
            if r:  # an earlier neighbor is in the MIS -> x is not
                decided = False
                break
            i += 1
        else:
            decided = True  # all earlier neighbors resolved to False
        if decided is not None:
            memo[x] = decided
            frames.pop()
    return memo[root]


def ampc_mis(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cache: bool = True,
    ctx: RoundContext | None = None,
) -> MISResult:
    """AMPC MIS (Figure 1): 1 shuffle + 1 adaptive lookup round.

    ``cache=False`` reproduces the paper's caching ablation (§5.3): the
    cross-root per-machine cache is dropped (memoization is still kept
    *within* each root's recursion so the process stays tractable), so
    the DHT query count blows up accordingly.
    """
    ctx = ctx or RoundContext(model="ampc")
    # Step (1)+(2): the single shuffle — direct edges by priority, write
    # the directed graph to the key-value store.
    dht = build_sorted_adjacency(spark, g, ctx, sort="vertex_rank", direct=True, seed=seed)

    # Step (3): adaptive round — IsInMIS over all vertices.
    def run(ids, store, meter):
        shared_memo: dict[int, bool] = {}
        return [
            (x, _resolve_in_mis(x, store, shared_memo if cache else {}, meter))
            for x in ids
        ]

    rows = adaptive_round(spark, ctx, dht.store, np.arange(g.n), run)
    members = {x for x, in_mis in rows if in_mis}
    return MISResult(members=members, ctx=ctx)


# --------------------------------------------------------------------------
# MPC (Figure 2)
# --------------------------------------------------------------------------

def _greedy_residual_mis(rows: pd.DataFrame, seed: int) -> set[int]:
    """In-memory finish: sequential greedy on the residual graph."""
    ids = rows["id"].to_numpy()
    ranks = hash01(ids, seed)
    order = np.argsort(ranks, kind="stable")
    nbr_lists = rows["nbrs"].tolist()
    alive = set(ids.tolist())
    taken: set[int] = set()
    blocked: set[int] = set()
    by_id = {int(i): np.asarray(nb, dtype=np.int64) for i, nb in zip(ids, nbr_lists)}
    for idx in order.tolist():
        x = int(ids[idx])
        if x in blocked:
            continue
        taken.add(x)
        for y in by_id[x].tolist():
            if y in alive:
                blocked.add(int(y))
    return taken


def mpc_mis(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 200,
) -> MISResult:
    """Rootset-based MPC MIS (Figure 2): 2 logical shuffles per phase.

    Per phase: (1) roots = local rank minima, found *without* a shuffle
    because priorities are hash-derived; (2) shuffle A joins the graph
    with the to-remove ids (roots + their neighbors); (3) removed rows
    emit per-neighbor deletions, cogrouped with the survivors in
    shuffle B. Below ``cutoff_edges`` the residual is collected and
    finished in memory (paper: single-machine finish below 5×10^7).
    """
    ctx = ctx or RoundContext(model="mpc")
    members: set[int] = set()
    # Isolated vertices never enter the adjacency relation but belong to
    # every MIS.
    deg = np.zeros(g.n, dtype=np.int64)
    np.add.at(deg, g.u(), 1)
    np.add.at(deg, g.v(), 1)
    members.update(np.flatnonzero(deg == 0).tolist())

    def find_roots(batches):
        for pdf in batches:
            ids = pdf["id"].to_numpy()
            nbrs = pdf["nbrs"].tolist()
            flat = np.concatenate(nbrs + [np.zeros(0, np.int64)])
            owner = np.repeat(np.arange(len(ids)), [len(x) for x in nbrs])
            nbr_min = np.full(len(ids), np.inf)
            np.minimum.at(nbr_min, owner, hash01(flat, seed))
            # Roots (local rank minima) remove themselves and every neighbor.
            root = hash01(ids, seed) < nbr_min
            nb_rows = root[owner]
            yield pd.DataFrame(
                {
                    "rm": np.concatenate([ids[root], flat[nb_rows]]),
                    "is_root": np.repeat([True, False], [root.sum(), nb_rows.sum()]),
                }
            )

    rm_schema = StructType(
        [StructField("rm", LongType()), StructField("is_root", BooleanType())]
    )

    with mpc_scope(spark):
        graph = adjacency_df(spark, g)
        while True:
            m_now = graph.agg(F.sum(F.size("nbrs"))).collect()[0][0] or 0
            if m_now // 2 <= cutoff_edges:
                break
            if ctx.phases >= max_phases:
                raise RuntimeError("mpc_mis failed to converge")
            ctx.phases += 1
            to_remove = graph.mapInPandas(find_roots, schema=rm_schema)
            # Shuffle A: cogroup graph with to-remove ids.
            marked = graph.join(
                to_remove.groupBy(F.col("rm").alias("id")).agg(
                    F.max("is_root").alias("is_root")
                ),
                on="id",
                how="left",
            )
            marked = ctx.barrier(marked, shuffles=1)
            removed = marked.filter(F.col("is_root").isNotNull())
            members.update(
                r["id"] for r in removed.filter(F.col("is_root")).select("id").collect()
            )
            # Removed node x emits <y, x> for each neighbor y (no shuffle).
            dels = removed.select(F.explode("nbrs").alias("id"), F.col("id").alias("gone"))
            survivors = marked.filter(F.col("is_root").isNull()).select("id", "nbrs")
            # Shuffle B: cogroup survivors with their deletions, update lists.
            joined = survivors.join(
                dels.groupBy("id").agg(F.collect_set("gone").alias("gone")),
                on="id",
                how="left",
            )
            graph = ctx.barrier(
                joined.select(
                    "id",
                    F.when(F.col("gone").isNull(), F.col("nbrs"))
                    .otherwise(F.array_except("nbrs", "gone"))
                    .alias("nbrs"),
                ),
                shuffles=1,
            )

        members.update(_greedy_residual_mis(graph.toPandas(), seed))
    return MISResult(members=members, ctx=ctx)
