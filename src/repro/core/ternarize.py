"""Ternarization (Algorithm 2, line 2).

Replace every vertex of degree > 3 by a cycle of length deg(v); the
i-th incident edge of v attaches to the i-th cycle vertex. Dummy cycle
edges get weights ⊥ strictly below every real weight (and mutually
distinct, preserving MSF uniqueness). The MSF of the ternarized graph
equals {all-but-one dummy edge per cycle} ∪ (image of the MSF of G), so
dropping dummy edges and mapping endpoints back recovers MSF(G).
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd

from repro.graphs.generators import GraphData


@dataclass(frozen=True)
class Ternarized:
    """``graph``: the degree-≤3 graph G′ (reuses original ids for
    degree-≤3 vertices; cycle vertices get fresh ids ≥ n). Replaced
    high-degree vertices keep their original id as an *isolated*
    placeholder — harmless for MSF and keeps the origin map trivial.
    ``origin``: maps every G′ vertex id to its original vertex.
    ``dummy_below``: weights < this value are dummy edges."""

    graph: GraphData
    origin: np.ndarray
    dummy_below: float

    def map_back(self, edges: set[tuple[int, int]]) -> set[tuple[int, int]]:
        """Map a set of non-dummy G′ edges to original-vertex pairs."""
        out = set()
        for a, b in edges:
            oa, ob = int(self.origin[a]), int(self.origin[b])
            if oa == ob:
                raise ValueError("dummy edge leaked into map_back")
            out.add((min(oa, ob), max(oa, ob)))
        return out


def ternarize(g: GraphData) -> Ternarized:
    """Build the degree-bounded version of a weighted graph."""
    if "w" not in g.edges.columns:
        raise ValueError("ternarize needs weighted edges")
    u, v, w = g.u(), g.v(), g.w()
    deg = g.degrees()

    next_id = g.n
    # Per original vertex: either itself (deg <= 3) or its cycle ids.
    slot_of: dict[int, np.ndarray] = {}
    origin: list[int] = list(range(g.n))
    for x in np.flatnonzero(deg > 3).tolist():
        ids = np.arange(next_id, next_id + deg[x], dtype=np.int64)
        slot_of[x] = ids
        origin.extend([x] * int(deg[x]))
        next_id += int(deg[x])
    origin_arr = np.array(origin, dtype=np.int64)

    used = np.zeros(g.n, dtype=np.int64)  # next free slot per big vertex

    def attach(x: int) -> int:
        if x not in slot_of:
            return x
        s = int(slot_of[x][used[x]])
        used[x] += 1
        return s

    rows = [
        (attach(int(a)), attach(int(b)), float(ww))
        for a, b, ww in zip(u.tolist(), v.tolist(), w.tolist())
    ]
    # Dummy cycle edges: distinct weights strictly below every real one.
    w_min = float(w.min()) if len(w) else 0.0
    n_dummy = sum(len(ids) for ids in slot_of.values())
    dummy_w = iter(w_min - 1.0 - np.arange(1, n_dummy + 1) / (n_dummy + 1.0))
    for ids in slot_of.values():
        ring = np.concatenate([ids, ids[:1]])
        for a, b in zip(ring[:-1].tolist(), ring[1:].tolist()):
            rows.append((min(a, b), max(a, b), float(next(dummy_w))))
    # Typed columns, so an edgeless graph still yields integer endpoints.
    edges = pd.DataFrame(rows, columns=["u", "v", "w"]).astype(
        {"u": np.int64, "v": np.int64, "w": np.float64}
    )
    edges[["u", "v"]] = np.sort(edges[["u", "v"]].to_numpy(), axis=1)
    g3 = GraphData(n=next_id, edges=edges.sort_values(["u", "v"], ignore_index=True))

    assert g3.degrees().max(initial=0) <= 3, "ternarization failed to bound degrees"
    return Ternarized(graph=g3, origin=origin_arr, dummy_below=w_min - 0.5)


def msf_via_ternarization(spark, g: GraphData, *, seed: int = 0, ctx=None):
    """Algorithm 2 for the sparse case: ternarize, run the constant
    round MSF on G′, drop ⊥-weight edges, map back to G."""
    from repro.core.msf import MSFResult, ampc_msf

    t = ternarize(g)
    res = ampc_msf(spark, t.graph, seed=seed, ctx=ctx)
    wt = {
        (int(a), int(b)): float(x)
        for a, b, x in zip(t.graph.u(), t.graph.v(), t.graph.w())
    }
    real = {e for e in res.edges if wt[e] > t.dummy_below}
    return MSFResult(edges=t.map_back(real), ctx=res.ctx)
