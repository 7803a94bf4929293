"""Maximal Matching (§4, §5.4).

All implementations compute the lexicographically-first maximal
matching over hash-derived edge ranks π(e) = edge_rank(u, v, seed), so
their outputs are identical to each other and to
``repro.reference.greedy_matching``.

- :func:`ampc_maximal_matching` — Theorem 2 part 2 / §5.4: the edge
  rank-sorted graph is written to the DHT with one shuffle; one
  adaptive round runs the *vertex* query process (iterate incident
  edges by increasing rank, resolve each with the Yoshida-style edge
  recursion) with a per-machine cache. An optional per-vertex query
  budget reproduces the n^ε truncation of Lemma 4.7: unsettled vertices
  are retried in further applications of the process (each application
  = 1 extra shuffle to rebuild the residual DHT).
- :func:`ampc_matching_loglog` — Theorem 2 part 1 / Algorithm 4:
  O(log log Δ) iterations of GreedyMM over rank-prefix subgraphs.
- :func:`mpc_maximal_matching` — rootset baseline (§5.4): per phase,
  every vertex nominates its min-rank incident edge; edges nominated by
  both endpoints join the matching; matched vertices and their edges
  are removed. 4 logical shuffles per phase (nominate, pair, drop
  matched u, drop matched v), in-memory finish below the cutoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession
from pyspark.sql import functions as F
from pyspark.sql.types import BooleanType, LongType, StructField, StructType

from repro.ampc.dht import CSRStore, Meter, build_sorted_adjacency
from repro.graphs.generators import GraphData
from repro.hashing import edge_rank
from repro.mpc import DEFAULT_CUTOFF_EDGES
from repro.runtime import RoundContext


@dataclass
class MatchingResult:
    edges: set[tuple[int, int]]
    ctx: RoundContext


def _edge_id(a: int, b: int) -> tuple[int, int]:
    return (a, b) if a < b else (b, a)


class _Truncated(Exception):
    """Raised when a vertex process exceeds its query budget (Lemma 4.7)."""


def _resolve_edge(
    e: tuple[int, int],
    rank_e: float,
    store: CSRStore,
    memo: dict,
    meter: Meter,
    budget: list,
) -> bool:
    """Yoshida edge process: e is matched iff no lower-rank adjacent
    edge is. Iterative with explicit frames; adjacent edges of (a, b)
    are the merge of a's and b's rank-sorted incidence lists, stopping
    at rank(e)."""
    root = (e, rank_e)
    stack: list[list] = [[root, 0, 0, None]]  # [(edge, rank), ia, ib, lists]
    while stack:
        frame = stack[-1]
        (a, b), r = frame[0]
        key = _edge_id(a, b)
        if key in memo:
            stack.pop()
            continue
        if frame[3] is None:
            meter.lookup(words=2)
            meter.lookup(words=2)
            budget[0] += 2
            frame[3] = (store.get(a), store.get(b))
        else:
            meter.hit()
        if budget[0] > budget[1] > 0:
            raise _Truncated()
        (na, ka), (nb, kb) = frame[3]
        ia, ib = frame[1], frame[2]
        decided: bool | None = None
        while True:
            # Next adjacent edge in the merged rank order, skipping e itself.
            ra = ka[ia] if ia < len(ka) else np.inf
            rb = kb[ib] if ib < len(kb) else np.inf
            if min(ra, rb) >= r:
                decided = True
                break
            if ra < rb:
                nxt, r_nxt, adv = (a, int(na[ia])), float(ra), (ia + 1, ib)
            else:
                nxt, r_nxt, adv = (b, int(nb[ib])), float(rb), (ia, ib + 1)
            if _edge_id(*nxt) == key:
                ia, ib = adv
                continue
            res = memo.get(_edge_id(*nxt))
            if res is None:
                # Save *pre*-advance positions: the resumed frame must
                # re-pick this edge and read its now-memoized result.
                frame[1], frame[2] = ia, ib
                stack.append([(nxt, r_nxt), 0, 0, None])
                break
            if res:
                decided = False
                break
            ia, ib = adv
        if decided is not None:
            memo[key] = decided
            stack.pop()
    return memo[_edge_id(*root[0])]


_MM_SCHEMA = StructType(
    [
        StructField("a", LongType()),
        StructField("b", LongType()),
        StructField("settled", BooleanType()),
        StructField("q", LongType()),
        StructField("ch", LongType()),
    ]
)


def ampc_maximal_matching(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cache: bool = True,
    budget: int = 0,
    ctx: RoundContext | None = None,
    max_applications: int = 50,
    sort: str = "edge_rank",
) -> MatchingResult:
    """AMPC maximal matching: 1 shuffle per application of the vertex
    query process; with ``budget=0`` (untruncated, the practical §5.4
    configuration) a single application settles every vertex.

    ``budget > 0`` caps the per-vertex query count at ``budget`` (the
    n^ε truncation); unsettled vertices are re-run on the residual
    graph in the next application — Lemma 4.7 says O(1/ε) applications
    empty the graph.
    """
    ctx = ctx or RoundContext(model="ampc")
    matched_edges: set[tuple[int, int]] = set()
    current = g
    for _ in range(max_applications):
        if current.m == 0:
            break
        ctx.phases += 1
        edges = current.to_spark(spark)
        dht = build_sorted_adjacency(spark, edges, ctx, sort=sort, seed=seed)
        bc = spark.sparkContext.broadcast(dht.store)

        def run(batches, _bc=bc):
            store = _bc.value
            meter = Meter()
            shared_memo: dict = {}
            rows: list[tuple[int, int, bool]] = []
            for pdf in batches:
                for x in pdf["id"].tolist():
                    x = int(x)
                    nbrs, ranks = store.get(x)
                    memo = shared_memo if cache else {}
                    spent = [0, budget]
                    partner = -1
                    settled = True
                    # Vertex process: incident edges by increasing rank.
                    for y, r in zip(nbrs.tolist(), ranks.tolist()):
                        try:
                            if _resolve_edge((x, int(y)), float(r), store, memo, meter, spent):
                                partner = int(y)
                                break
                        except _Truncated:
                            settled = False
                            break
                    rows.append((x, partner, settled))
            out = pd.DataFrame(rows, columns=["a", "b", "settled"])
            out["q"] = 0
            out["ch"] = 0
            if len(out):
                out.loc[out.index[-1], ["q", "ch"]] = [meter.queries, meter.cache_hits]
            yield out

        vertices = np.unique(np.concatenate([current.u(), current.v()]))
        vdf = spark.createDataFrame(pd.DataFrame({"id": vertices}))
        res = vdf.mapInPandas(run, schema=_MM_SCHEMA).toPandas()
        ctx.queries += int(res["q"].sum())
        ctx.cache_hits += int(res["ch"].sum())
        ctx.kv_bytes += int(res["q"].sum()) * 16
        bc.unpersist()

        for a, b in zip(res["a"].tolist(), res["b"].tolist()):
            if b >= 0:
                matched_edges.add(_edge_id(int(a), int(b)))
        settled_rows = res.loc[res["settled"]]
        matched_vertices = set(settled_rows["a"].tolist()) | {
            int(b) for b in settled_rows["b"] if b >= 0
        }
        # Remove every settled vertex (matched or proven unmatched —
        # both are final) along with incident edges; retry the rest.
        keep = ~(
            np.isin(current.u(), list(matched_vertices))
            | np.isin(current.v(), list(matched_vertices))
        )
        residual = current.edges.loc[keep].reset_index(drop=True)
        if len(residual) == current.m:  # pragma: no cover - safety valve
            raise RuntimeError("matching made no progress")
        current = GraphData(n=current.n, edges=residual, name=current.name)
    else:  # pragma: no cover - safety valve
        raise RuntimeError("ampc matching did not converge")
    return MatchingResult(edges=matched_edges, ctx=ctx)


def ampc_matching_loglog(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    ctx: RoundContext | None = None,
) -> MatchingResult:
    """Algorithm 4: O(log log Δ) iterations of GreedyMM on rank-prefix
    subgraphs H_i = {e : π(e) ≤ Δ^(-0.5^i)}, each solved by the AMPC
    matching engine, removing matched vertices between iterations."""
    ctx = ctx or RoundContext(model="ampc")
    u, v = g.u(), g.v()
    deg = np.zeros(g.n, dtype=np.int64)
    np.add.at(deg, u, 1)
    np.add.at(deg, v, 1)
    delta = max(int(deg.max()), 2)
    k = int(np.ceil(np.log2(max(np.log2(delta), 1.0)))) + 1
    log_n = np.log(max(g.n, 2))
    matched: set[tuple[int, int]] = set()
    current = g
    for i in range(1, k + 1):
        if current.m == 0:
            break
        cu, cv = current.u(), current.v()
        cdeg = np.zeros(g.n, dtype=np.int64)
        np.add.at(cdeg, cu, 1)
        np.add.at(cdeg, cv, 1)
        if cdeg.max() > 10 * log_n:
            thresh = float(delta) ** -(0.5**i)
            keep = edge_rank(cu, cv, seed) <= thresh
            h = GraphData(n=g.n, edges=current.edges.loc[keep].reset_index(drop=True))
        else:
            h = current
        sub = ampc_maximal_matching(spark, h, seed=seed, ctx=ctx)
        matched |= sub.edges
        mv = {x for e in sub.edges for x in e}
        keep = ~(np.isin(cu, list(mv)) | np.isin(cv, list(mv)))
        current = GraphData(n=g.n, edges=current.edges.loc[keep].reset_index(drop=True))
    # Final sweep: H_k may not have been the full residual graph if the
    # degree bound was not yet met; finish on the residual.
    if current.m:
        sub = ampc_maximal_matching(spark, current, seed=seed, ctx=ctx)
        matched |= sub.edges
    return MatchingResult(edges=matched, ctx=ctx)


# --------------------------------------------------------------------------
# Corollary 4.1: derived approximation results
# --------------------------------------------------------------------------


def ampc_weighted_matching(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    ctx: RoundContext | None = None,
) -> MatchingResult:
    """Greedy maximum-weight matching via the AMPC engine: run the
    vertex query process over adjacency sorted by *descending* weight
    (= ascending negated weight), i.e. the lexicographically-first
    matching of the heaviest-first edge order — a classic 1/2
    approximation of the maximum weight matching (Corollary 4.1 gives
    2+ε; greedy achieves the 2 bound outright)."""
    if "w" not in g.edges.columns:
        raise ValueError("ampc_weighted_matching needs weighted edges")
    neg = g.edges.copy()
    neg["w"] = -neg["w"]
    flipped = GraphData(n=g.n, edges=neg, name=g.name)
    return ampc_maximal_matching(spark, flipped, seed=seed, ctx=ctx, sort="weight")


def vertex_cover_from_matching(m: set[tuple[int, int]]) -> set[int]:
    """Endpoints of any maximal matching: a 2-approximate minimum
    vertex cover (Corollary 4.1)."""
    return {x for e in m for x in e}


# --------------------------------------------------------------------------
# MPC baseline
# --------------------------------------------------------------------------


def _greedy_residual_matching(edges: pd.DataFrame, seed: int) -> set[tuple[int, int]]:
    u = edges["u"].to_numpy()
    v = edges["v"].to_numpy()
    order = np.argsort(edge_rank(u, v, seed), kind="stable")
    matched: set[int] = set()
    out: set[tuple[int, int]] = set()
    for i in order.tolist():
        a, b = int(u[i]), int(v[i])
        if a not in matched and b not in matched:
            matched.update((a, b))
            out.add((a, b))
    return out


def mpc_maximal_matching(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 200,
) -> MatchingResult:
    """Rootset MPC matching: each phase adds every edge that is the
    minimum-rank incident edge of *both* its endpoints (the local
    minima of the line graph), then removes matched vertices and their
    edges. Equivalent to greedy peeling, hence to the LFMM.

    Logical shuffles per phase: (1) per-vertex nomination regroup,
    (2) nomination pairing keyed by edge, (3)+(4) residual regroups
    dropping matched endpoints (by u, then by v). The paper's Flume
    version achieves 2/phase by maintaining adjacency lists; our
    edge-relation formulation costs 4 — recorded in EXPERIMENTS.md.
    Finishes in memory below ``cutoff_edges`` (paper: 5×10^7 edges).
    """
    ctx = ctx or RoundContext(model="mpc")
    matched: set[tuple[int, int]] = set()
    # Edge relation with rank; kept as a DataFrame across phases.
    e0 = g.edges.copy()
    e0["r"] = edge_rank(g.u(), g.v(), seed)
    edges = spark.createDataFrame(
        e0[["u", "v", "r"]], schema="u long, v long, r double"
    ).localCheckpoint(eager=True)

    while True:
        m_now = edges.count()
        if m_now <= cutoff_edges:
            break
        if ctx.phases >= max_phases:  # pragma: no cover - safety valve
            raise RuntimeError("mpc matching failed to converge")
        ctx.phases += 1
        sym = edges.select("u", "v", "r").union(
            edges.select(F.col("v").alias("u"), F.col("u").alias("v"), "r")
        )
        # Each vertex nominates its min-rank incident edge; shuffle 1
        # groups nominations by (undirected) edge — nominated twice wins.
        per_vertex = sym.groupBy("u").agg(
            F.min(F.struct("r", "v")).alias("best")
        )
        ctx.shuffle(1)  # nomination regroup keyed by vertex
        noms = per_vertex.select(
            F.least(F.col("u"), F.col("best.v")).alias("eu"),
            F.greatest(F.col("u"), F.col("best.v")).alias("ev"),
        )
        winners = ctx.barrier(
            noms.groupBy("eu", "ev").agg(F.count(F.lit(1)).alias("c")).filter("c = 2"),
            shuffles=1,
        )
        new_matches = winners.select("eu", "ev").collect()
        if not new_matches:  # pragma: no cover - cannot happen: minima exist
            raise RuntimeError("no winners in a phase")
        matched.update((int(r["eu"]), int(r["ev"])) for r in new_matches)
        mv = winners.select(F.col("eu").alias("id")).union(
            winners.select(F.col("ev").alias("id"))
        )
        # Shuffles 2+3: drop edges with a matched endpoint (anti-join on
        # u then on v — each a regroup of the edge relation, each
        # materialized so lineage/statistics reset per phase).
        edges = ctx.barrier(
            edges.join(mv, edges["u"] == mv["id"], "left_anti"), shuffles=1
        )
        edges = ctx.barrier(
            edges.join(mv, edges["v"] == mv["id"], "left_anti"), shuffles=1
        )

    matched |= _greedy_residual_matching(edges.select("u", "v").toPandas(), seed)
    return MatchingResult(edges=matched, ctx=ctx)
