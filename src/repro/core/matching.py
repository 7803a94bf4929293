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
- :func:`mpc_maximal_matching` — rootset baseline (§5.4) on
  vertex-keyed adjacency lists sorted by edge rank, as the paper's
  Flume version: per phase, every vertex nominates its min-rank
  neighbour; mutual nominations join the matching; matched vertices
  delete themselves from their neighbours' lists. 2 logical shuffles
  per phase (nominations, deletes) in the rootset phase and loop it
  shares with MPC MIS (:func:`repro.mpc.rootset_loop`), in-memory
  finish below the cutoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.ampc.dht import CSRStore, Meter, adaptive_round, build_sorted_adjacency
from repro.graphs.generators import GraphData
from repro.hashing import edge_rank
from repro.mpc import DEFAULT_CUTOFF_EDGES, RootsetRule, rootset_loop
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
    a: int, b: int, r: float, indptr: list, dst: list, key: list,
    memo: dict, meter: Meter, budget: list,
) -> bool:
    """Yoshida edge process: (a, b) of rank r is matched iff no
    lower-rank adjacent edge is. Iterative with explicit frames
    ``[a, b, r, ia, ib]``: ``ia``/``ib`` are absolute offsets into the
    CSR lists ``dst``/``key`` within the rows of ``a`` and ``b`` (-1
    until the frame has read them), and adjacent edges are the merge of
    those two rank-sorted rows, stopping at r."""
    root = _edge_id(a, b)
    stack: list[list] = [[a, b, r, -1, -1]]
    while stack:
        frame = stack[-1]
        a, b, r, ia, ib = frame
        e = _edge_id(a, b)
        if e in memo:
            stack.pop()
            continue
        if ia < 0:
            meter.lookup(words=2)
            meter.lookup(words=2)
            budget[0] += 2
            ia, ib = indptr[a], indptr[b]
        else:
            meter.hit()
        if budget[0] > budget[1] > 0:
            raise _Truncated()
        ea, eb = indptr[a + 1], indptr[b + 1]
        decided: bool | None = None
        while True:
            # Next adjacent edge in the merged rank order, skipping e itself.
            ra = key[ia] if ia < ea else np.inf
            rb = key[ib] if ib < eb else np.inf
            if min(ra, rb) >= r:
                decided = True
                break
            if ra < rb:
                x, y, r_nxt, adv = a, dst[ia], ra, (ia + 1, ib)
            else:
                x, y, r_nxt, adv = b, dst[ib], rb, (ia, ib + 1)
            nxt = _edge_id(x, y)
            if nxt == e:
                ia, ib = adv
                continue
            res = memo.get(nxt)
            if res is None:
                # Save *pre*-advance offsets: the resumed frame must
                # re-pick this edge and read its now-memoized result.
                frame[3], frame[4] = ia, ib
                stack.append([x, y, r_nxt, -1, -1])
                break
            if res:
                decided = False
                break
            ia, ib = adv
        if decided is not None:
            memo[e] = decided
            stack.pop()
    return memo[root]


def _vertex_process(
    ids: list[int], store: CSRStore, meter: Meter, cache: bool, budget: int
) -> list[tuple[int, int, bool]]:
    """One machine's share of the matching round: each vertex in ``ids``
    takes the first of its incident edges, by increasing rank, that is
    matched. Returns the ``(a, partner or -1, settled)`` rows; ``cache``
    shares one memo across the machine's vertices."""
    indptr, dst, key = store.indptr.tolist(), store.dst.tolist(), store.key.tolist()
    shared_memo: dict = {}
    rows: list[tuple[int, int, bool]] = []
    for x in ids:
        memo = shared_memo if cache else {}
        spent = [0, budget]
        partner = -1
        settled = True
        for i in range(indptr[x], indptr[x + 1]):
            try:
                if _resolve_edge(x, dst[i], key[i], indptr, dst, key, memo, meter, spent):
                    partner = dst[i]
                    break
            except _Truncated:
                settled = False
                break
        rows.append((x, partner, settled))
    return rows


def ampc_maximal_matching(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cache: bool = True,
    budget: int = 0,
    ctx: RoundContext | None = None,
    rank: np.ndarray | None = None,
) -> MatchingResult:
    """AMPC maximal matching: 1 shuffle per application of the vertex
    query process; with ``budget=0`` (untruncated, the practical §5.4
    configuration) a single application settles every vertex.

    Edges are taken in the order of ``rank``, one per edge of ``g``
    (default ``edge_rank(u, v, seed)``), as in
    :func:`mpc_maximal_matching`.

    ``budget > 0`` caps the per-vertex query count at ``budget`` (the
    n^ε truncation); unsettled vertices are re-run on the residual
    graph in the next application — Lemma 4.7 says O(1/ε) applications
    empty the graph.
    """
    ctx = ctx or RoundContext(model="ampc")
    matched_edges: set[tuple[int, int]] = set()
    current = g
    while current.m:
        ctx.phases += 1
        store = build_sorted_adjacency(
            spark, current, ctx,
            edge_rank(current.u(), current.v(), seed) if rank is None else rank,
        )
        vertices = np.unique(np.concatenate([current.u(), current.v()]))
        rows = adaptive_round(
            spark, ctx, store, vertices,
            lambda ids, store, meter: _vertex_process(ids, store, meter, cache, budget),
        )
        matched_vertices = set()
        for a, b, settled in rows:
            if b >= 0:
                matched_edges.add(_edge_id(a, b))
            if settled:
                matched_vertices.add(a)
                if b >= 0:
                    matched_vertices.add(b)
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
        rank = None if rank is None else rank[keep]
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
    vertex query process with the negated weight as the edge rank
    (``rank=-w``, heaviest edge first), i.e. the lexicographically-first
    matching of the heaviest-first edge order — a classic 1/2
    approximation of the maximum weight matching (Corollary 4.1 gives
    2+ε; greedy achieves the 2 bound outright)."""
    if "w" not in g.edges.columns:
        raise ValueError("ampc_weighted_matching needs weighted edges")
    return ampc_maximal_matching(spark, g, seed=seed, ctx=ctx, rank=-g.w())


def vertex_cover_from_matching(m: set[tuple[int, int]]) -> set[int]:
    """Endpoints of any maximal matching: a 2-approximate minimum
    vertex cover (Corollary 4.1)."""
    return {x for e in m for x in e}


# --------------------------------------------------------------------------
# MPC baseline
# --------------------------------------------------------------------------


def _greedy_residual_matching(rows: pd.DataFrame, seed: int) -> set[tuple[int, int]]:
    """In-memory finish: greedy over the edges of the residual ``(id,
    nbrs)`` rows by increasing edge rank."""
    nbrs = rows["nbrs"].tolist()
    u = np.repeat(rows["id"].to_numpy(), [len(x) for x in nbrs])
    v = np.concatenate(nbrs + [np.zeros(0, np.int64)]).astype(np.int64)
    keep = u < v
    u, v = u[keep], v[keep]
    order = np.argsort(edge_rank(u, v, seed), kind="stable")
    matched: set[int] = set()
    out: set[tuple[int, int]] = set()
    for i in order.tolist():
        a, b = int(u[i]), int(v[i])
        if a not in matched and b not in matched:
            matched.update((a, b))
            out.add((a, b))
    return out


# Every live vertex nominates its min-rank neighbour ``nbrs[0]`` and is
# matched iff that neighbour nominated it back; a matched row records
# its partner. Rows with no neighbours left (matched or stranded) are
# done.
_MATCHING = RootsetRule(
    live="size(nbrs) > 0",
    target="get(nbrs, 0)",
    result="IF(array_contains(by, get(nbrs, 0)), get(nbrs, 0), NULL)",
    collect="collect_list(IF(id < res, array(id, res), NULL))",
)


def mpc_maximal_matching(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 200,
) -> MatchingResult:
    """Rootset MPC matching on adjacency lists (the paper's Flume
    version): each phase adds every edge that is the minimum-rank
    incident edge of *both* its endpoints (the local minima of the line
    graph), then removes matched vertices and their edges. Equivalent
    to greedy peeling, hence to the LFMM.

    2 logical shuffles per phase (nominations, deletes) in the rootset
    phase and loop shared with MPC MIS (:func:`repro.mpc.rootset_loop`);
    finishes in memory below ``cutoff_edges`` (paper: 5×10^7 edges).
    """
    ctx = ctx or RoundContext(model="mpc")
    pairs, residual = rootset_loop(
        spark, g, ctx, _MATCHING, rank=edge_rank(g.u(), g.v(), seed),
        cutoff_edges=cutoff_edges, max_phases=max_phases, name="mpc matching",
    )
    matched = set(map(tuple, pairs)) | _greedy_residual_matching(residual, seed)
    return MatchingResult(edges=matched, ctx=ctx)
