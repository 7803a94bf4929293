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
  (visited, visitor) tuples; (3) one shuffle writes each visited
  vertex's highest-priority visitor to the DHT, with the same store
  build as step (1); (4) an adaptive pointer-jumping round reads that
  visitor as each row's parent and contracts the visitor forest to
  roots; (5) three shuffles contract the graph (relabel u, relabel v,
  regroup to the minimum edge per contracted pair); the contracted
  graph — Ω(n^(ε/2)) times smaller, Lemma 3.3 — is finished in memory
  (the stand-in for the DenseMSF black box of Proposition 3.1).
  Total: 5 shuffles, matching Table 3.
- :func:`mpc_msf` — Borůvka baseline: per phase each blue component
  picks its minimum-weight incident edge and contracts into a red
  neighbor; 3 shuffles per phase in the contraction loop it shares
  with MPC 1-vs-2-Cycle (:func:`repro.mpc.contraction_loop`), the pick
  on the driver; in-memory Kruskal below the cutoff.

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

from repro.ampc.dht import (
    CSRStore, Meter, adaptive_round, build_sorted_adjacency, build_store, exchange_rows,
)
from repro.graphs.generators import GraphData, parallel_frame
from repro.hashing import coin, hash01
from repro.mpc import DEFAULT_CUTOFF_EDGES, contraction_loop
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
    store = build_sorted_adjacency(spark, g, ctx, g.w())

    def run_prim(ids, store, meter):
        ranks_of = hash01(np.arange(n), seed).tolist().__getitem__
        return [_prim_search(v, store, ranks_of, budget, meter) for v in ids]

    prim = adaptive_round(spark, ctx, store, np.arange(n), run_prim)
    msf_edges = {(min(a, b), max(a, b)) for mes, _ in prim for a, b, _ in mes}

    # Part 2, shuffle 2: combine visit tuples — write each visited
    # vertex's highest-priority visitor (lowest rank, ties by id), its
    # parent, to the DHT.
    x, y = np.array([t for _, vis in prim for t in vis], dtype=np.int64).reshape(-1, 2).T
    rank = hash01(y, seed)
    order = np.lexsort((y, rank, x))
    first = order[np.unique(x[order], return_index=True)[1]]
    visitors = build_store(ctx, exchange_rows(spark, x[first], y[first], rank[first]))

    # Adaptive round: pointer jumping through the DHT (no shuffle —
    # "repeatedly queries the parent of a vertex until it hits a root").
    # A vertex nobody visited has an empty row: it is a root.
    def jump(ids, store, meter):
        memo: dict[int, int] = {}
        rows = []
        for x in ids:
            chain = []
            cur = x
            while cur not in memo:
                parents = store.get(cur)[0]
                if not len(parents):
                    break
                meter.lookup()
                chain.append(cur)
                cur = int(parents[0])
            root = memo.get(cur, cur)
            for c in chain:
                memo[c] = root
            rows.append((x, root, len(chain)))
        return rows

    rows = adaptive_round(spark, ctx, visitors, np.arange(n), jump)
    roots = np.array(rows, dtype=np.int64).reshape(-1, 3)
    ctx.notes["max_pointer_jump"] = int(roots[:, 2].max(initial=0))

    # Part 3, shuffles 3-5: contract the graph (relabel u, relabel v,
    # regroup to min edge per contracted pair), then in-memory finish.
    cmap = parallel_frame(
        spark, pd.DataFrame({"id": roots[:, 0], "root": roots[:, 1]}), "id long, root long"
    )
    e = g.to_spark(spark)
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
    *red*. 3 shuffles/phase in :func:`repro.mpc.contraction_loop`:
    min-edge regroup, relabel-u, relabel-v. Every picked minimum
    incident edge is an MSF edge (cut property).
    """
    if "w" not in g.edges.columns:
        raise ValueError("mpc_msf needs weighted edges")
    ctx = ctx or RoundContext(model="mpc")
    msf_edges: set[tuple[int, int]] = set()

    def pick(rows: pd.DataFrame, phase: int) -> pd.DataFrame:
        comps, others = rows["c"].to_numpy(), rows["other"].to_numpy()
        # Deterministic per-phase coloring of components.
        color = seed * 1000 + phase
        sel = ~coin(comps, seed=color) & coin(others, seed=color)
        u, v = rows["u"].to_numpy()[sel], rows["v"].to_numpy()[sel]
        msf_edges.update(zip(np.minimum(u, v).tolist(), np.maximum(u, v).tolist()))
        return pd.DataFrame({"old": comps[sel], "new": others[sel]})

    rest = contraction_loop(
        spark, g, ctx, "min(struct(w, u, v, other))", pick, cols=("u", "v", "w"),
        cutoff_edges=cutoff_edges, max_phases=max_phases, name="boruvka",
    )
    # In-memory finish on the contracted residual.
    msf_edges |= _kruskal_contracted(
        rest["cu"].to_numpy(), rest["cv"].to_numpy(),
        rest["u"].to_numpy(), rest["v"].to_numpy(), rest["w"].to_numpy(),
    )
    return MSFResult(edges=msf_edges, ctx=ctx)
