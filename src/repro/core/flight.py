"""F-light edge detection (Algorithm 5 / Appendix B).

An edge uw of G is F-light w.r.t. a forest F iff u and w lie in
different trees of F, or w(uw) ≤ (max edge weight on the F-path u→w).
Proposition 3.8: every MSF edge is F-light, so F-heavy edges can be
discarded — the filter at the heart of the KKT query reduction (§3.1).

The per-tree structures (Algorithm 5 lines 1–9: components, rooting,
levels, Euler tours + RMQ, heavy-light decomposition) are built by
:class:`repro.core.treetools.ForestPathOracle`; the oracle is broadcast
and every edge of G is classified in a single adaptive round (line 10),
O(log n) reads per edge.
"""
from __future__ import annotations

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.types import (
    BooleanType,
    DoubleType,
    LongType,
    StructField,
    StructType,
)

from repro.core.treetools import ForestPathOracle
from repro.runtime import RoundContext

_SCHEMA = StructType(
    [
        StructField("u", LongType()),
        StructField("v", LongType()),
        StructField("w", DoubleType()),
        StructField("light", BooleanType()),
    ]
)


def find_light_edges(
    spark: SparkSession,
    edges: DataFrame,
    n: int,
    fu: np.ndarray,
    fv: np.ndarray,
    fw: np.ndarray,
    ctx: RoundContext | None = None,
) -> DataFrame:
    """Classify every edge of ``edges`` (u, v, w) as F-light or F-heavy.

    Returns the edge DataFrame with a ``light`` column. Charges
    ~2 + ceil(log2 n) DHT reads per edge on ``ctx`` (component lookup,
    LCA RMQ reads, heavy-path RMQ reads)."""
    ctx = ctx or RoundContext(model="ampc")
    oracle = ForestPathOracle(n, fu, fv, fw)
    bc = spark.sparkContext.broadcast(oracle)
    reads_per_edge = 2 + max(1, int(np.ceil(np.log2(max(n, 2)))))

    def classify(batches):
        o = bc.value
        for pdf in batches:
            u = pdf["u"].to_numpy()
            v = pdf["v"].to_numpy()
            w = pdf["w"].to_numpy()
            light = np.empty(len(u), dtype=bool)
            for i in range(len(u)):
                light[i] = float(w[i]) <= o.path_max(int(u[i]), int(v[i]))
            yield pd.DataFrame({"u": u, "v": v, "w": w, "light": light})

    try:
        out = edges.select("u", "v", "w").mapInPandas(classify, schema=_SCHEMA)
        out = out.localCheckpoint(eager=True)
    finally:
        bc.unpersist()
    ctx.queries += reads_per_edge * out.count()
    return out
