"""Algorithm 3: MSF with Karger–Klein–Tarjan sampling (§3.1).

Reduces the query complexity of the constant-round MSF algorithm from
O(m log n) to O(m + n log² n): sample each edge with probability
p = 1/log n, compute the MSF F of the sample, discard F-heavy edges of
G (expected O(n/p) survivors, Lemma 3.9), and finish on F ∪ E_light.
Every stage is a constant-round AMPC computation; the F-light filter is
Algorithm 5 (``repro.core.flight``), one adaptive round that returns a
mask over G's edges, so the light edges are read straight from G.
"""
from __future__ import annotations

import numpy as np

from repro.core.flight import find_light_edges
from repro.core.msf import MSFResult, ampc_msf
from repro.graphs.generators import GraphData
from repro.hashing import edge_rank
from repro.runtime import RoundContext


def msf_kkt(
    spark,
    g: GraphData,
    *,
    seed: int = 0,
    p: float | None = None,
    ctx: RoundContext | None = None,
) -> MSFResult:
    """Compute the MSF of ``g`` via Algorithm 3. Exact (the sampling
    only affects the work split, never the result)."""
    if "w" not in g.edges.columns:
        raise ValueError("msf_kkt needs weighted edges")
    ctx = ctx or RoundContext(model="ampc")
    if p is None:
        p = 1.0 / max(np.log(max(g.n, 3)), 1.0)

    # Line 1: sample H — each edge independently with probability p
    # (deterministic in the hash source, like every coin here).
    keep = edge_rank(g.u(), g.v(), seed + 501) < p
    h = GraphData(n=g.n, edges=g.edges.loc[keep].reset_index(drop=True), name="H")

    # Line 2: F = MSF(H) via the constant-round algorithm.
    f = ampc_msf(spark, h, seed=seed, ctx=ctx) if h.m else MSFResult(set(), ctx)
    # F as a mask over G's edges; both store an edge as (u, v) with u < v.
    u, v = g.u(), g.v()
    in_f = np.isin(u * g.n + v, [a * g.n + b for a, b in f.edges])

    # Line 3: E_L = F-light edges of G (Algorithm 5).
    light = find_light_edges(spark, g, u[in_f], v[in_f], g.w()[in_f], ctx=ctx)
    ctx.notes["n_light"] = int(light.sum())
    ctx.notes["n_sampled"] = int(h.m)

    # Line 4: MSF(F ∪ E_L). F ⊆ E_L already (forest edges are F-light),
    # so the union is the light edge set itself.
    final_in = GraphData(n=g.n, edges=g.edges.loc[light].reset_index(drop=True), name="light")
    final = ampc_msf(spark, final_in, seed=seed, ctx=ctx)
    return MSFResult(edges=final.edges, ctx=ctx)
