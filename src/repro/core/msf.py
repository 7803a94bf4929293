"""Minimum Spanning Forest (§3, §5.5).

Edges are compared in one strict total order, ``(w, min(u,v), max(u,v))``
— the order :func:`repro.reference.kruskal_msf` scans — in the Prim
heap, the Borůvka minimum and the in-memory finishes. The MSF under
that order is unique even when weights tie, so both implementations
must produce *exactly* the Kruskal edge set.

- :func:`ampc_msf` — the paper's implementation (§5.5) of the
  constant-round algorithm: (1) one shuffle sorts each vertex's
  incident edges by weight and writes them to the DHT; (2) an adaptive
  round runs a truncated Prim search from every vertex (Algorithm 1
  stopping conditions: budget exhausted / component exhausted / a
  higher-priority vertex reached), emitting discovered MSF edges and
  (visited, visitor) tuples; (3) one shuffle combines visitors per
  visited vertex (keep the highest-priority visitor); (4) an adaptive
  pointer-jumping round contracts the visitor forest to roots via DHT
  lookups; (5) three shuffles contract the graph (relabel u, relabel v,
  regroup to the minimum edge per contracted pair); the contracted
  graph — Ω(n^(ε/2)) times smaller, Lemma 3.3 — is finished in memory
  (the stand-in for the DenseMSF black box of Proposition 3.1).
  Total: 5 shuffles, matching Table 3.
- :func:`mpc_msf` — Borůvka baseline: per phase each blue component
  picks its minimum-weight incident edge and contracts into a red
  neighbor; 3 shuffles per phase; in-memory Kruskal below the cutoff.

Every edge either algorithm emits is certified by the cut property
(minimum-weight edge leaving a connected explored set), so partial
emissions are always a subset of the true MSF.
"""
from __future__ import annotations

import heapq
from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import DoubleType, LongType, StructField, StructType

from repro.ampc.dht import CSRStore, Meter, build_sorted_adjacency
from repro.graphs.generators import GraphData
from repro.hashing import coin, hash01
from repro.mpc import DEFAULT_CUTOFF_EDGES
from repro.reference import UnionFind
from repro.runtime import RoundContext


@dataclass
class MSFResult:
    edges: set[tuple[int, int]]
    ctx: RoundContext

    def total_weight(self, g: GraphData) -> float:
        wt = {(int(a), int(b)): float(x) for a, b, x in zip(g.u(), g.v(), g.w())}
        return sum(wt[e] for e in self.edges)


def _kruskal_contracted(
    cu: np.ndarray, cv: np.ndarray, u: np.ndarray, v: np.ndarray, w: np.ndarray
) -> set[tuple[int, int]]:
    """In-memory finish: Kruskal over the contracted endpoints ``cu``/``cv``,
    scanning rows in the ``(w, u, v)`` order of their *original* edges
    and returning the original edges it keeps."""
    labels, comp = np.unique(np.concatenate([cu, cv]), return_inverse=True)
    k = len(cu)
    uf = UnionFind(len(labels))
    out: set[tuple[int, int]] = set()
    for i in np.lexsort((v, u, w)).tolist():
        if uf.union(int(comp[i]), int(comp[k + i])):
            a, b = int(u[i]), int(v[i])
            out.add((min(a, b), max(a, b)))
    return out


# --------------------------------------------------------------------------
# AMPC (§5.5)
# --------------------------------------------------------------------------

_PRIM_SCHEMA = StructType(
    [
        StructField("kind", LongType()),  # 0 = MSF edge, 1 = visit tuple
        StructField("x", LongType()),  # edge u / visited vertex
        StructField("y", LongType()),  # edge v / visitor
        StructField("w", DoubleType()),  # edge weight / visitor rank
        StructField("q", LongType()),
    ]
)


def _prim_search(
    v: int,
    store: CSRStore,
    ranks_of,
    budget: int,
    meter: Meter,
) -> tuple[list[tuple[int, int, float]], list[tuple[int, int]]]:
    """Truncated Prim from ``v`` (Algorithm 1, lines 5–12).

    Returns (MSF edges discovered, visit tuples (visited, visitor)).
    Stopping conditions: (1) ``budget`` vertices explored, (2) component
    exhausted, (3) a vertex earlier in the permutation π is reached —
    in which case v itself records being "visited" by that vertex
    (the F-edge of line 12).
    """
    rv = ranks_of(v)
    visited = {v}
    msf_edges: list[tuple[int, int, float]] = []
    visits: list[tuple[int, int]] = []
    # Entries (w, min, max, frm, to): every search breaks weight ties the
    # same way, so the union of their edges stays inside one forest.
    heap: list[tuple[float, int, int, int, int]] = []
    meter.lookup(words=2)
    nbrs, ws = store.get(v)
    for y, w in zip(nbrs.tolist(), ws.tolist()):
        y = int(y)
        heapq.heappush(heap, (float(w), min(v, y), max(v, y), v, y))
    while heap:
        w, _, _, frm, to = heapq.heappop(heap)
        if to in visited:
            continue
        # (w, frm, to) is the minimum-weight edge leaving the connected
        # visited set -> an MSF edge by the cut property.
        visited.add(to)
        msf_edges.append((frm, to, w))
        if ranks_of(to) < rv:
            # Stopping condition (3): v is dominated by `to`.
            visits.append((v, to))
            return msf_edges, visits
        visits.append((to, v))
        if len(visited) >= budget:
            return msf_edges, visits  # stopping condition (1)
        meter.lookup(words=2)
        tn, tw = store.get(to)
        for y, w2 in zip(tn.tolist(), tw.tolist()):
            y = int(y)
            if y not in visited:
                heapq.heappush(heap, (float(w2), min(to, y), max(to, y), to, y))
    return msf_edges, visits  # stopping condition (2): component exhausted


def ampc_msf(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    budget: int | None = None,
    ctx: RoundContext | None = None,
) -> MSFResult:
    """AMPC MSF in 5 shuffles (Table 3). Requires a ``w`` column."""
    if "w" not in g.edges.columns:
        raise ValueError("ampc_msf needs weighted edges (with_degree_weights)")
    ctx = ctx or RoundContext(model="ampc")
    n = g.n
    if budget is None:
        budget = max(8, int(round(n**0.5)))  # n^(ε/2) with ε = 1

    # Part 1, shuffle 1: weight-sorted adjacency -> DHT.
    edges_df = g.to_spark(spark)
    dht = build_sorted_adjacency(spark, edges_df, ctx, sort="weight", seed=seed)
    bc = spark.sparkContext.broadcast(dht.store)

    def run_prim(batches):
        store = bc.value
        meter = Meter()
        rank_cache: dict[int, float] = {}

        def ranks_of(x: int) -> float:
            r = rank_cache.get(x)
            if r is None:
                r = float(hash01(np.array([x]), seed)[0])
                rank_cache[x] = r
            return r

        out: list[tuple[int, int, int, float, int]] = []
        for pdf in batches:
            for v in pdf["id"].tolist():
                mes, vis = _prim_search(int(v), store, ranks_of, budget, meter)
                for a, b, w in mes:
                    out.append((0, min(a, b), max(a, b), w, 0))
                for visited, visitor in vis:
                    out.append((1, visited, visitor, ranks_of(visitor), 0))
        res = pd.DataFrame(out, columns=["kind", "x", "y", "w", "q"])
        if len(res):
            res.loc[res.index[-1], "q"] = meter.queries
        else:
            res = pd.DataFrame(
                [(0, -1, -1, 0.0, meter.queries)], columns=["kind", "x", "y", "w", "q"]
            )
        yield res

    prim_out = (
        spark.range(n).mapInPandas(run_prim, schema=_PRIM_SCHEMA).localCheckpoint(eager=True)
    )
    ctx.queries += int(prim_out.agg(F.sum("q")).collect()[0][0] or 0)

    msf_edges = {
        (int(r["x"]), int(r["y"]))
        for r in prim_out.filter("kind = 0 and x >= 0").select("x", "y").collect()
    }

    # Part 2, shuffle 2: combine visit tuples — keep the highest-priority
    # (lowest-rank) visitor per visited vertex.
    visits = prim_out.filter("kind = 1")
    parent_df = visits.groupBy(F.col("x").alias("child")).agg(
        F.min(F.struct("w", "y")).alias("best")
    )
    ctx.shuffle(1)
    parents = parent_df.select("child", F.col("best.y").alias("parent")).toPandas()
    parent_map = dict(
        zip(parents["child"].astype(int).tolist(), parents["parent"].astype(int).tolist())
    )
    bc_parent = spark.sparkContext.broadcast(parent_map)

    # Adaptive round: pointer jumping through the DHT (no shuffle —
    # "repeatedly queries the parent of a vertex until it hits a root").
    def jump(batches):
        pm = bc_parent.value
        memo: dict[int, int] = {}
        meter = Meter()
        max_chain = 0
        rows = []
        for pdf in batches:
            for x in pdf["id"].tolist():
                x = int(x)
                chain = []
                cur = x
                while cur not in memo and cur in pm:
                    meter.lookup()
                    chain.append(cur)
                    cur = pm[cur]
                root = memo.get(cur, cur)
                for c in chain:
                    memo[c] = root
                max_chain = max(max_chain, len(chain))
                rows.append((x, root, 0, 0))
        out = pd.DataFrame(rows, columns=["id", "root", "q", "mc"])
        if len(out):
            out.loc[out.index[-1], ["q", "mc"]] = [meter.queries, max_chain]
        yield out

    jump_schema = StructType(
        [
            StructField("id", LongType()),
            StructField("root", LongType()),
            StructField("q", LongType()),
            StructField("mc", LongType()),
        ]
    )
    mapping = (
        spark.range(n).mapInPandas(jump, schema=jump_schema).localCheckpoint(eager=True)
    )
    stats = mapping.agg(F.sum("q").alias("q"), F.max("mc").alias("mc")).collect()[0]
    ctx.queries += int(stats["q"] or 0)
    ctx.notes["max_pointer_jump"] = int(stats["mc"] or 0)

    # Part 3, shuffles 3-5: contract the graph (relabel u, relabel v,
    # regroup to min edge per contracted pair), then in-memory finish.
    cmap = mapping.select("id", "root")
    e = edges_df
    e = e.join(cmap.withColumnRenamed("id", "u").withColumnRenamed("root", "cu"), on="u")
    ctx.shuffle(1)
    e = e.join(cmap.withColumnRenamed("id", "v").withColumnRenamed("root", "cv"), on="v")
    ctx.shuffle(1)
    contracted = (
        e.filter("cu <> cv")
        .groupBy(
            F.least("cu", "cv").alias("a"), F.greatest("cu", "cv").alias("b")
        )
        .agg(F.min(F.struct("w", "u", "v")).alias("e"))
    )
    ctx.shuffle(1)
    cpdf = contracted.select("a", "b", "e.w", "e.u", "e.v").toPandas()
    ctx.notes["contracted_vertices"] = int(
        pd.unique(pd.concat([cpdf["a"], cpdf["b"]])).size
    )

    msf_edges |= _kruskal_contracted(
        cpdf["a"].to_numpy(), cpdf["b"].to_numpy(),
        cpdf["u"].to_numpy(), cpdf["v"].to_numpy(), cpdf["w"].to_numpy(),
    )

    bc.unpersist()
    bc_parent.unpersist()
    return MSFResult(edges=msf_edges, ctx=ctx)


# --------------------------------------------------------------------------
# MPC baseline: Borůvka
# --------------------------------------------------------------------------


def mpc_msf(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 100,
) -> MSFResult:
    """Borůvka in MPC (§5.5 baseline): per phase every component flips a
    color; each *blue* component picks its minimum-weight incident edge
    and contracts into the other endpoint's component if that one is
    *red*. 3 shuffles/phase: min-edge regroup, relabel-u, relabel-v.
    Every picked minimum incident edge is an MSF edge (cut property).
    """
    if "w" not in g.edges.columns:
        raise ValueError("mpc_msf needs weighted edges")
    ctx = ctx or RoundContext(model="mpc")
    msf_edges: set[tuple[int, int]] = set()
    e0 = g.edges.copy()
    e0["cu"] = e0["u"]
    e0["cv"] = e0["v"]
    edges = spark.createDataFrame(
        e0[["u", "v", "w", "cu", "cv"]], schema="u long, v long, w double, cu long, cv long"
    ).localCheckpoint(eager=True)

    while True:
        m_now = edges.count()
        if m_now <= cutoff_edges:
            break
        if ctx.phases >= max_phases:  # pragma: no cover - safety valve
            raise RuntimeError("boruvka failed to converge")
        ctx.phases += 1
        phase = ctx.phases

        # Shuffle 1: min incident edge per component (symmetrized view).
        sym = edges.select(
            F.col("cu").alias("c"), F.col("cv").alias("other"), "w", "u", "v"
        ).union(
            edges.select(
                F.col("cv").alias("c"), F.col("cu").alias("other"), "w", "u", "v"
            )
        )
        best = sym.groupBy("c").agg(F.min(F.struct("w", "u", "v", "other")).alias("e"))
        ctx.shuffle(1)
        bp = best.toPandas()
        comps = bp["c"].to_numpy()
        others = np.array([x["other"] for x in bp["e"]], dtype=np.int64)
        # Deterministic per-phase coloring of components.
        blue = ~coin(comps, seed=seed * 1000 + phase)
        partner_red = coin(others, seed=seed * 1000 + phase)
        sel = blue & partner_red
        for i in np.flatnonzero(sel).tolist():
            uu, vv = int(bp["e"].iloc[i]["u"]), int(bp["e"].iloc[i]["v"])
            msf_edges.add((min(uu, vv), max(uu, vv)))
        mapping_pdf = pd.DataFrame(
            {"old": comps[sel], "new": others[sel]}
        ).drop_duplicates("old")
        if len(mapping_pdf) == 0:
            continue  # unlucky coloring: phase contracted nothing
        mapping = spark.createDataFrame(mapping_pdf)

        # Shuffles 2+3: relabel both endpoints' components. Each join is
        # materialized so lineage and Catalyst size statistics reset
        # every phase (stacked un-materialized joins overflow the stat
        # estimator after tens of phases).
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
            "u",
            "v",
            "w",
            F.coalesce("nu", "cu").alias("cu"),
            F.coalesce("nv", "cv").alias("cv"),
        ).filter("cu <> cv")
        edges = ctx.barrier(e2, shuffles=1)

    # In-memory finish on the contracted residual.
    rest = edges.select("u", "v", "w", "cu", "cv").toPandas()
    msf_edges |= _kruskal_contracted(
        rest["cu"].to_numpy(), rest["cv"].to_numpy(),
        rest["u"].to_numpy(), rest["v"].to_numpy(), rest["w"].to_numpy(),
    )
    return MSFResult(edges=msf_edges, ctx=ctx)
