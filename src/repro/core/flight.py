"""F-light edge detection (Algorithm 5 / Appendix B).

An edge uw of G is F-light w.r.t. a forest F iff u and w lie in
different trees of F, or w(uw) ≤ (max edge weight on the F-path u→w).
Proposition 3.8: every MSF edge is F-light, so F-heavy edges can be
discarded — the filter at the heart of the KKT query reduction (§3.1).

The per-tree structures (Algorithm 5 lines 1–9: components, rooting,
levels, Euler tours + RMQ, heavy-light decomposition) are built by
:class:`repro.core.treetools.ForestPathOracle`; every edge of G is then
classified in a single adaptive round (line 10,
:func:`repro.ampc.dht.adaptive_round`) whose store is the oracle plus
the edge arrays, O(log n) reads per edge.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import SparkSession

from repro.ampc.dht import adaptive_round
from repro.core.treetools import ForestPathOracle
from repro.graphs.generators import GraphData
from repro.runtime import RoundContext


def find_light_edges(
    spark: SparkSession,
    g: GraphData,
    fu: np.ndarray,
    fv: np.ndarray,
    fw: np.ndarray,
    ctx: RoundContext | None = None,
) -> np.ndarray:
    """Classify every edge of ``g`` as F-light or F-heavy.

    Returns a boolean mask over ``g.edges``, true where the edge is
    F-light. Charges 2 + ceil(log2 n) DHT reads per edge on ``ctx``
    (component lookup, LCA RMQ reads, heavy-path RMQ reads)."""
    ctx = ctx or RoundContext(model="ampc")
    reads_per_edge = 2 + max(1, int(np.ceil(np.log2(max(g.n, 2)))))

    def classify(ids, store, meter):
        o, u, v, w = store
        return [float(w[i]) <= o.path_max(int(u[i]), int(v[i])) for i in ids]

    store = (ForestPathOracle(g.n, fu, fv, fw), g.u(), g.v(), g.w())
    light = adaptive_round(spark, ctx, store, np.arange(g.m), classify)
    ctx.queries += reads_per_edge * g.m
    return np.array(light, dtype=bool)
