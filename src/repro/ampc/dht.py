"""Simulated distributed hash table (DHT).

In the paper's AMPC implementations a shuffle writes keyed rows *to the
key-value store* and the next adaptive round makes point lookups
against them. The construction shuffle writes the graph's adjacency
keyed by the caller's per-edge rank (:func:`build_sorted_adjacency`:
edge rank for matching, weight for MSF, neighbor id for cycles). AMPC
MIS writes each edge once, from the later to the earlier vertex in π
positions, and AMPC MSF's visitor combine writes each visited vertex's
highest-priority visitor; both go through :func:`build_store` directly.

Here the "write to the KV store" is one :class:`CSRStore` build: key the
``(src, dst, key)`` rows on the driver with numpy, run that one shuffle
in Spark (:func:`exchange_rows`, a flat ``repartition("src")`` exchange
with no Python worker stage), collect it with ``toArrow`` and sort it
into a :class:`CSRStore` on the driver (:func:`build_store`).
:func:`adaptive_round` then ships the store to executors with
``sparkContext.broadcast``: within the round every task has random read
access to every key — the defining AMPC capability — without any
further shuffle.

Query metering is done by the round itself: each task counts its
lookups on a fresh :class:`Meter` and returns the totals with its rows,
so counts are exact and deterministic.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.graphs.generators import GraphData, parallel_frame
from repro.runtime import RoundContext

_WORD = 8  # bytes per id / weight, the model's "constant number of words"


@dataclass(frozen=True)
class CSRStore:
    """Adjacency in compressed sparse rows.

    Row ``x`` is ``dst[indptr[x]:indptr[x+1]]`` with the per-neighbor
    sort keys (rank or weight) ``key[...]``, ordered by ``(key, dst)``.
    """

    indptr: np.ndarray
    dst: np.ndarray
    key: np.ndarray

    @classmethod
    def from_rows(cls, src: np.ndarray, dst: np.ndarray, key: np.ndarray) -> CSRStore:
        """Store of the directed rows ``src -> dst`` carrying ``key``."""
        src, dst = np.asarray(src, dtype=np.int64), np.asarray(dst, dtype=np.int64)
        indptr = np.zeros(int(src.max(initial=-1)) + 2, dtype=np.int64)
        np.cumsum(np.bincount(src, minlength=len(indptr) - 1), out=indptr[1:])
        return cls(indptr, *_row_order(src, dst, np.asarray(key, dtype=np.float64)))

    @property
    def payload_bytes(self) -> int:
        """Modeled KV size: an id and a key word per entry, plus one key
        word per non-empty row."""
        rows_used = int(np.count_nonzero(np.diff(self.indptr)))
        return (2 * len(self.dst) + rows_used) * _WORD

    def get(self, x: int) -> tuple[np.ndarray, np.ndarray]:
        """``(neighbors, keys)`` of ``x``; empty for ids without a row."""
        if 0 <= x < len(self.indptr) - 1:
            lo, hi = self.indptr[x], self.indptr[x + 1]
            return self.dst[lo:hi], self.key[lo:hi]
        return self.dst[:0], self.key[:0]


def _row_order(src: np.ndarray, dst: np.ndarray, key: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(dst, key)`` in ``np.lexsort((dst, key, src))`` order.

    When ``src``, the dense rank of ``key`` and ``dst`` fit in one int64
    as bit fields, one in-place sort of those words replaces lexsort's
    three indirect stable sorts (on 680,956 edge-rank rows: 0.07 s
    instead of 0.40 s, for 3 MB more peak memory) and the fields decode
    back to ``dst`` and ``key``.
    """
    order = np.argsort(key)
    ranked = key[order]
    new = np.empty(len(key), dtype=bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    keys = ranked[new]
    k_bits, d_bits = (len(keys) - 1).bit_length(), int(dst.max(initial=0)).bit_length()
    if int(src.max(initial=0)).bit_length() + k_bits + d_bits > 63:
        del order, ranked, keys
        order = np.lexsort((dst, key, src))
        return dst[order], key[order]
    dense = np.cumsum(new, out=ranked.view(np.int64))  # in the sorted keys' buffer
    dense -= 1
    words = np.empty_like(dense)
    words[order] = dense
    del order, ranked, dense
    words |= src << k_bits
    words <<= d_bits
    words |= dst
    words.sort()
    out_dst = words & ((1 << d_bits) - 1)
    words >>= d_bits
    words &= (1 << k_bits) - 1
    return out_dst, keys[words]


class Meter:
    """Per-partition query counter — the AMPC communication meter.

    ``lookup`` counts a store read of ``words`` machine words;
    ``hit`` records a per-machine cache hit (no network in the model).
    """

    __slots__ = ("queries", "cache_hits", "kv_bytes")

    def __init__(self) -> None:
        self.queries = 0
        self.cache_hits = 0
        self.kv_bytes = 0

    def lookup(self, words: int = 1) -> None:
        self.queries += 1
        self.kv_bytes += words * _WORD

    def hit(self) -> None:
        self.cache_hits += 1


def adaptive_round(
    spark: SparkSession,
    ctx: RoundContext,
    store: Any,
    ids,
    body: Callable[[list, Any, Meter], list],
) -> list:
    """One AMPC adaptive round: every machine reads ``store`` at will.

    ``store`` is broadcast for the round. ``ids`` is cut into
    ``P = min(defaultParallelism, len(ids))`` slices at ``floor(i·len/P)``,
    the rows a ``spark.range`` or ``LocalTableScan`` partition holds, and
    ``body(slice, store, meter)`` runs once per slice as one task. A
    slice is one machine, so whatever ``body`` memoizes across its ids is
    that machine's cache (§5.3), and the slicing decides the query
    counts. The tasks' meter totals are added to ``ctx``; their rows come
    back concatenated in id order.
    """
    ids = np.asarray(ids, dtype=np.int64).tolist()
    if not ids:
        return []
    sc = spark.sparkContext
    p = min(sc.defaultParallelism, len(ids))
    cuts = [i * len(ids) // p for i in range(p + 1)]
    slices = [ids[lo:hi] for lo, hi in zip(cuts, cuts[1:])]
    bc = sc.broadcast(store)

    def task(part: list) -> tuple[list, int, int, int]:
        meter = Meter()
        rows = body(part, bc.value, meter)
        return rows, meter.queries, meter.cache_hits, meter.kv_bytes

    try:
        results = sc.parallelize(slices, p).map(task).collect()
    finally:
        bc.unpersist()
    rows: list = []
    for part_rows, queries, hits, kv_bytes in results:
        rows += part_rows
        ctx.queries += queries
        ctx.cache_hits += hits
        ctx.kv_bytes += kv_bytes
    return rows


_ROW_SCHEMA = "src long, dst long, key double"


def exchange_rows(
    spark: SparkSession, src: np.ndarray, dst: np.ndarray, key: np.ndarray
) -> DataFrame:
    """The driver-keyed rows ``src -> dst`` carrying ``key``,
    hash-partitioned on ``src`` by one exchange. The order within each
    row is left to :meth:`CSRStore.from_rows`."""
    rows = pd.DataFrame({"src": src, "dst": dst, "key": key})
    return parallel_frame(spark, rows, _ROW_SCHEMA).repartition("src")


def build_store(ctx: RoundContext, rows: DataFrame) -> CSRStore:
    """Write the exchanged ``rows`` to the KV store: counts the one
    shuffle on ``ctx``, collects the rows as Arrow columns, sorts them
    into a :class:`CSRStore` and charges its payload to ``ctx.kv_bytes``."""
    ctx.shuffle(1)  # the one costly round: Flume GroupByKey / Spark exchange
    cols = rows.toArrow()
    store = CSRStore.from_rows(
        cols["src"].to_numpy(), cols["dst"].to_numpy(), cols["key"].to_numpy()
    )
    ctx.kv_bytes += store.payload_bytes
    return store


def build_sorted_adjacency(
    spark: SparkSession, g: GraphData, ctx: RoundContext, rank: np.ndarray | None = None
) -> CSRStore:
    """The AMPC construction shuffle: both orientations of each edge of
    ``g``, keyed by that edge's ``rank`` (one per edge; ``None`` orders
    neighbors by id), as in :func:`repro.mpc.adjacency_df`.

    Callers pass their algorithm's order: matching the edge rank
    (§5.4), MSF Prim the weight (§5.5), the cycle walk nothing. Counts
    exactly one shuffle on ``ctx`` and records the KV payload size.
    Vertices without edges have an empty row.
    """
    u, v = g.u(), g.v()
    # One expression, so the keyed arrays are freed before the collect;
    # callers pass ``rank`` inline, so dropping it here frees it too.
    rows = exchange_rows(
        spark, np.r_[u, v], np.r_[v, u], np.zeros(2 * g.m) if rank is None else np.r_[rank, rank]
    )
    del rank
    return build_store(ctx, rows)
