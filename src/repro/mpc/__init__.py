"""MPC substrate: the in-memory cutoff, the rootset algorithms'
adjacency input with their shared phase and phase loop, and the one
contraction loop of MPC MSF and MPC 1-vs-2-Cycle. Shuffle accounting
and the phase loops' session scope are in :mod:`repro.runtime`.
"""
from __future__ import annotations

from collections.abc import Callable
from typing import NamedTuple

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F

from repro.graphs.generators import GraphData, parallel_frame
from repro.runtime import RoundContext, mpc_scope

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


class RootsetRule(NamedTuple):
    """What a rootset algorithm decides per phase, as SQL over the
    ``(id, nbrs, res)`` relation of :func:`rootset_phase`."""

    #: Rows that take part in the phase.
    live: str
    #: Shuffle 1: the vertex (or, through ``explode``, vertices) a live
    #: row sends its id to.
    target: str
    #: The row's result from ``id``, ``nbrs`` and ``by``, the ids that
    #: targeted it (NULL if none). A non-NULL result removes the row.
    result: str
    #: Aggregate the driver collects after each phase.
    collect: str


# Shuffle 2's messages from one row, as ``(id, nbrs, res, gone)``: a
# survivor resends its row; a removed row keeps its own row with its
# result and no neighbours, and sends a delete to each neighbour.
_SEND = """inline(IF(res IS NULL,
    array(named_struct('id', id, 'nbrs', nbrs, 'res', res, 'gone', CAST(NULL AS BIGINT))),
    concat(
        array(named_struct('id', id, 'nbrs', CAST(array() AS ARRAY<BIGINT>),
                           'res', res, 'gone', CAST(NULL AS BIGINT))),
        transform(nbrs, y -> named_struct('id', y, 'nbrs', CAST(NULL AS ARRAY<BIGINT>),
                                          'res', CAST(NULL AS BIGINT), 'gone', id)))))"""


def rootset_phase(graph: DataFrame, rule: RootsetRule) -> DataFrame:
    """One phase on the ``(id, nbrs, res)`` relation, partitioned on
    ``id``. Only messages are exchanged, never the adjacency itself.

    Shuffle 1: every live row sends its id to ``rule.target``; the
    senders, grouped by target, meet the target's row as ``by``, and
    ``rule.result`` decides the row. Shuffle 2: removed rows send
    deletes (:data:`_SEND`); all rows regroup by ``id`` and survivors
    drop the deleted ids.
    """
    live = graph.filter(rule.live)
    msgs = live.selectExpr(f"{rule.target} AS id", "id AS by").groupBy("id")
    marked = live.join(msgs.agg(F.expr("collect_list(by) AS by")), "id", "left")
    regrouped = marked.selectExpr("id", "nbrs", f"{rule.result} AS res").selectExpr(_SEND)
    return regrouped.groupBy("id").agg(
        F.expr("max(nbrs) AS nbrs"), F.expr("max(res) AS res"),
        F.expr("collect_list(gone) AS gone"),
    ).selectExpr("id", "array_except(nbrs, gone) AS nbrs", "res")


def rootset_loop(
    spark: SparkSession,
    g: GraphData,
    ctx: RoundContext,
    rule: RootsetRule,
    *,
    rank: np.ndarray | None = None,
    cutoff_edges: int,
    max_phases: int,
    name: str,
) -> tuple[list, pd.DataFrame]:
    """Run :func:`rootset_phase` on ``adjacency_df(spark, g, rank)``
    until at most ``cutoff_edges`` edges are left (paper: 5×10^7).

    Each phase is one barrier of 2 logical shuffles inside
    :func:`repro.runtime.mpc_scope`, then one aggregate ``collect`` of
    ``rule.collect`` and the residual degree sum. Returns the collected
    values of every phase, concatenated, and the live ``(id, nbrs)``
    rows for the caller's in-memory finish.
    """
    found: list = []
    with mpc_scope(spark):
        graph = adjacency_df(spark, g, rank).selectExpr("*", "CAST(NULL AS BIGINT) AS res")
        m_now = g.m
        while m_now > cutoff_edges:
            if ctx.phases >= max_phases:
                raise RuntimeError(f"{name} failed to converge")
            ctx.phases += 1
            graph = ctx.barrier(rootset_phase(graph, rule), shuffles=2)
            values, degrees = graph.selectExpr(rule.collect, "sum(size(nbrs))").collect()[0]
            found.extend(values)
            m_now = (degrees or 0) // 2
        residual = graph.filter(rule.live).select("id", "nbrs").toPandas()
    return found, residual


def contraction_loop(
    spark: SparkSession,
    g: GraphData,
    ctx: RoundContext,
    best: str,
    pick: Callable[[pd.DataFrame, int], pd.DataFrame],
    *,
    cols: tuple[str, ...] = (),
    cutoff_edges: int,
    max_phases: int,
    name: str,
) -> pd.DataFrame:
    """Contract the edge relation ``(*cols, cu, cv)`` of ``g``, where
    ``cu`` and ``cv`` are the component labels of each edge's endpoints
    (first the endpoints themselves), until at most ``cutoff_edges``
    edges are left (paper: 5×10^7).

    Each phase is 3 logical shuffles inside
    :func:`repro.runtime.mpc_scope`. Shuffle 1 regroups the edge ends
    ``(c, other, *cols)`` by their component ``c`` under the aggregate
    ``best``, an SQL expression of struct type, and collects one row
    per component with the struct's fields as columns; on the driver,
    ``pick(rows, phase)`` returns the phase's ``old → new`` label
    mapping. Shuffles 2 and 3 relabel ``cu`` and then ``cv`` through
    it, each a barrier, and drop the self-loops the contraction made. A
    phase whose mapping is empty runs and counts only shuffle 1 and
    leaves the relation, and its edge count, as they were. Returns the
    residual relation for the caller's in-memory finish.
    """
    with mpc_scope(spark):
        edges = g.to_spark(spark).selectExpr(*cols, "u AS cu", "v AS cv")
        edges = edges.localCheckpoint(eager=True)
        m_now = g.m
        while m_now > cutoff_edges:
            if ctx.phases >= max_phases:
                raise RuntimeError(f"{name} failed to converge")
            ctx.phases += 1
            ends = edges.selectExpr("cu AS c", "cv AS other", *cols).union(
                edges.selectExpr("cv AS c", "cu AS other", *cols)
            )
            ctx.shuffle(1)
            rows = ends.groupBy("c").agg(F.expr(best).alias("best")).select("c", "best.*")
            mapping = pick(rows.toPandas(), ctx.phases)
            if len(mapping) == 0:
                continue
            # ``mapping`` comes from the driver, where it is small and
            # shrinks every phase, as a ``LocalRelation``: if both join
            # inputs derived from ``edges``, Catalyst's join size estimate
            # would *square* every phase and overflow BigInteger after ~30
            # phases (``localCheckpoint`` keeps estimated statistics). Each
            # join is a barrier, so lineage and those statistics reset
            # every phase.
            m = spark.createDataFrame(mapping)
            e = ctx.barrier(edges.join(m.selectExpr("old AS cu", "new AS nu"), "cu", "left"))
            e = e.join(m.selectExpr("old AS cv", "new AS nv"), "cv", "left").selectExpr(
                *cols, "coalesce(nu, cu) AS cu", "coalesce(nv, cv) AS cv"
            )
            edges = ctx.barrier(e.filter("cu <> cv"))
            m_now = edges.count()
        return edges.toPandas()
