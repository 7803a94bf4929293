"""Synthetic stand-ins for the paper's graph datasets (§5.2, Table 2).

The paper evaluates on five real-world graphs (com-Orkut, Twitter,
Friendster, ClueWeb, Hyperlink2012; up to 225.8B edges) and a family of
``2×k`` two-cycle graphs. None of those fit a laptop; the ``DATASETS``
registry generates deterministic scaled-down graphs with the same
structural character (heavy-tailed degrees, component structure,
hub skew) — the substitution is documented in DESIGN.md §3.

Conventions: vertices ``0..n-1``; edges canonical ``u < v``, deduped,
no self-loops; everything deterministic in ``seed``.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np
import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from repro.hashing import edge_rank
from repro.runtime import session_conf


@dataclass(frozen=True)
class GraphData:
    """In-memory graph: canonical undirected edge list + vertex count.

    ``edges`` columns: ``u``, ``v`` (int64, u < v) and optionally ``w``
    (float64; ties allowed; MSF breaks them by ``(w, min(u,v), max(u,v))``),
    e.g. from :func:`with_degree_weights`.
    """

    n: int
    edges: pd.DataFrame
    name: str = ""
    meta: dict = field(default_factory=dict)

    @property
    def m(self) -> int:
        return len(self.edges)

    def u(self) -> np.ndarray:
        return self.edges["u"].to_numpy()

    def v(self) -> np.ndarray:
        return self.edges["v"].to_numpy()

    def w(self) -> np.ndarray:
        return self.edges["w"].to_numpy()

    def to_spark(self, spark: SparkSession) -> DataFrame:
        cols = [c for c in ("u", "v", "w") if c in self.edges.columns]
        schema = ", ".join(f"{c} {'double' if c == 'w' else 'long'}" for c in cols)
        return parallel_frame(spark, self.edges[cols], schema)


_LOCAL_RELATION_THRESHOLD = "spark.sql.execution.arrow.localRelationThreshold"
_MAX_RECORDS_PER_BATCH = "spark.sql.execution.arrow.maxRecordsPerBatch"


def parallel_frame(spark: SparkSession, pdf: pd.DataFrame, schema: str) -> DataFrame:
    """``pdf`` as an RDD-backed frame of ``defaultParallelism`` Arrow
    partitions, for graph-sized edge tables.

    Plain ``createDataFrame`` inlines any frame under the Arrow
    local-relation threshold (48 MB) into the plan as a
    ``LocalRelation``, which Spark re-analyses and ships inside task
    closures in every plan that reads it. Here the threshold is 0 and
    each Arrow batch, which becomes one partition, holds
    ``ceil(rows / defaultParallelism)`` rows; both session confs are
    restored afterwards. Small driver-made frames keep
    ``createDataFrame`` (DESIGN.md §2, "Input").
    """
    per_batch = math.ceil(len(pdf) / spark.sparkContext.defaultParallelism)
    scoped = {_LOCAL_RELATION_THRESHOLD: "0", _MAX_RECORDS_PER_BATCH: str(max(1, per_batch))}
    with session_conf(spark, scoped):
        return spark.createDataFrame(pdf, schema=schema)


def _canonicalize(n: int, a: np.ndarray, b: np.ndarray) -> pd.DataFrame:
    """Drop self-loops, orient u<v, dedupe."""
    keep = a != b
    a, b = a[keep], b[keep]
    u = np.minimum(a, b).astype(np.int64)
    v = np.maximum(a, b).astype(np.int64)
    key = u * np.int64(n) + v
    _, idx = np.unique(key, return_index=True)
    return pd.DataFrame({"u": u[idx], "v": v[idx]})


def chung_lu(
    n: int,
    avg_deg: float,
    alpha: float,
    seed: int = 0,
    *,
    spine: bool = True,
    name: str = "",
) -> GraphData:
    """Chung–Lu power-law graph with exponent ``alpha``.

    Endpoints of ~``n*avg_deg/2`` candidate edges are drawn with
    probability proportional to ``i^(-1/(alpha-1))``, giving a degree
    distribution with tail exponent ``alpha``. ``spine=True`` threads a
    random Hamiltonian path through all vertices so the graph is one
    connected component (matching the social/web graphs in Table 2,
    which have 1–2 components containing ~all vertices).
    """
    g = np.random.default_rng(seed)
    ranks = np.arange(1, n + 1, dtype=np.float64)
    weights = ranks ** (-1.0 / (alpha - 1.0))
    weights /= weights.sum()
    m_target = int(n * avg_deg / 2)
    a = g.choice(n, size=m_target, p=weights)
    b = g.choice(n, size=m_target, p=weights)
    parts = [_canonicalize(n, a, b)]
    if spine:
        perm = g.permutation(n)
        parts.append(_canonicalize(n, perm[:-1], perm[1:]))
    edges = (
        pd.concat(parts, ignore_index=True)
        .drop_duplicates(["u", "v"], ignore_index=True)
        .sort_values(["u", "v"], ignore_index=True)
    )
    return GraphData(n=n, edges=edges, name=name, meta={"alpha": alpha})


def multi_component(
    giant: GraphData,
    *,
    n_small: int,
    small_comp_size: int,
    seed: int = 0,
    name: str = "",
) -> GraphData:
    """Append many small path components after ``giant`` (HL stand-in:
    one giant component plus a long tail of tiny components)."""
    g = np.random.default_rng(seed)
    base = giant.n
    rows = [giant.edges]
    offset = base
    n_comps = max(1, n_small // small_comp_size)
    for _ in range(n_comps):
        size = max(2, int(g.integers(2, small_comp_size + 1)))
        ids = np.arange(offset, offset + size, dtype=np.int64)
        rows.append(pd.DataFrame({"u": ids[:-1], "v": ids[1:]}))
        offset += size
    edges = pd.concat(rows, ignore_index=True)
    return GraphData(n=offset, edges=edges, name=name or giant.name)


def cycle(k: int, offset: int = 0) -> pd.DataFrame:
    """Canonical edges of a cycle on vertices offset..offset+k-1."""
    ids = np.arange(offset, offset + k, dtype=np.int64)
    nxt = np.roll(ids, -1)
    return _canonicalize(offset + k, ids, nxt)


def cycle_graph(n: int, *, two: bool, name: str = "") -> GraphData:
    """The 1-vs-2-Cycle inputs: one n-cycle, or two (n/2)-cycles."""
    if two:
        if n % 2:
            raise ValueError("two-cycle graph needs even n")
        edges = pd.concat([cycle(n // 2), cycle(n // 2, offset=n // 2)], ignore_index=True)
    else:
        edges = cycle(n)
    return GraphData(n=n, edges=edges, name=name, meta={"two": two})


def with_degree_weights(g: GraphData, seed: int = 0) -> GraphData:
    """MSF weights per §5.2: w(u,v) ∝ deg(u)+deg(v), plus a hash-derived
    jitter in (0, 1) so all weights are distinct and the MSF is unique."""
    u, v = g.u(), g.v()
    deg = np.zeros(g.n, dtype=np.int64)
    np.add.at(deg, u, 1)
    np.add.at(deg, v, 1)
    jitter = edge_rank(u, v, seed=seed + 1000)
    w = (deg[u] + deg[v]).astype(np.float64) + jitter
    if len(np.unique(w)) != len(w):  # pragma: no cover - astronomically unlikely
        raise AssertionError("weight collision — change jitter seed")
    edges = g.edges.copy()
    edges["w"] = w
    return replace(g, edges=edges)


# --- Table 2 dataset registry (scaled stand-ins; DESIGN.md §3) -------------

def _hl(seed: int) -> GraphData:
    giant = chung_lu(32_000, 22, 2.2, seed=seed, name="HL")
    return multi_component(
        giant, n_small=4_000, small_comp_size=4, seed=seed + 1, name="HL"
    )


DATASETS = {
    "OK": lambda seed=0: chung_lu(4_000, 30, 2.3, seed=seed, name="OK"),
    "TW": lambda seed=0: chung_lu(8_000, 34, 2.1, seed=seed, name="TW"),
    "FS": lambda seed=0: chung_lu(12_000, 32, 2.4, seed=seed, name="FS"),
    "CW": lambda seed=0: chung_lu(20_000, 30, 1.85, seed=seed, name="CW"),
    "HL": _hl,
}

CYCLE_SIZES = {"2e4": 20_000, "2e5": 200_000, "2e6": 2_000_000}


def dataset(name: str, seed: int = 0) -> GraphData:
    """Fetch a Table 2 stand-in graph by paper name (OK/TW/FS/CW/HL)."""
    return DATASETS[name](seed)
