"""MPC substrate: the in-memory cutoff and the rootset algorithms'
adjacency input. Shuffle accounting and the phase loops' session scope
are in :mod:`repro.runtime`; each algorithm applies the cutoff itself.
"""
from __future__ import annotations

import numpy as np
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generators import GraphData, parallel_frame

#: Scaled in-memory cutoff: the paper switches to a single machine below
#: 5×10^7 edges on graphs of up to 2.3×10^11 edges (ratio ~2×10^-4 of
#: the largest input). Our largest stand-ins have ~3.5×10^5 edges; the
#: same ratio gives a cutoff of ~10^2 (DESIGN.md §5) — this keeps the
#: MPC phase counts in the paper's reported band instead of letting the
#: rootset algorithms collapse to a single phase at toy scale.
DEFAULT_CUTOFF_EDGES = 200


def adjacency_df(spark: SparkSession, g: GraphData, rank: np.ndarray | None = None) -> DataFrame:
    """PCollection<NodeId, Node> input of the rootset algorithms
    (Figure 2): one ``(id, nbrs)`` row per non-isolated vertex, ``nbrs``
    ordered by the rank of the connecting edge (``rank``, one per edge
    of ``g``), then by neighbour id.

    Input preparation — not counted against the per-phase shuffle
    budget, mirroring the paper where the algorithm starts from the
    adjacency-keyed graph (Table 3 counts phases only for MPC). Built
    inside :func:`repro.runtime.mpc_scope`, it comes out
    hash-partitioned on ``id``, as the phases keep it.
    """
    e = parallel_frame(
        spark, g.edges[["u", "v"]].assign(r=0.0 if rank is None else rank),
        "u long, v long, r double",
    )
    sym = e.union(e.select(F.col("v").alias("u"), F.col("u").alias("v"), "r"))
    return sym.groupBy(F.col("u").alias("id")).agg(
        F.expr("transform(array_sort(collect_list(struct(r, v))), s -> s.v) AS nbrs")
    ).localCheckpoint(eager=True)
