"""1-vs-2-Cycle (§5.6): the canonical MPC-hardness problem.

- :func:`ampc_one_vs_two_cycle` — the O(1)-round AMPC algorithm:
  sample vertices with probability ``p``, walk outward from each
  sample (both directions) through the DHT until the next sample,
  contract to the sampled vertices, and count components of the
  (tiny) contracted graph on one machine. One shuffle writes the same
  ``CSRStore`` adjacency the other AMPC algorithms build, whose row of
  each vertex holds its two cycle neighbors; matching Table 4's AMPC
  row.
- :func:`mpc_cycle_cc` — the MPC baseline: iterated random-mate local
  contraction; each iteration shrinks the cycle by a constant factor
  and costs 3 shuffles in the contraction loop it shares with MPC MSF,
  :func:`repro.mpc.contraction_loop` (regroup to each label's two
  neighbors, a mate pick on the driver, then relabel-u and relabel-v);
  the residual is solved on one machine below the cutoff. The paper's
  baseline (CC-LocalContraction) shrinks ~2.6-3x per iteration; random
  mate shrinks ~1.6x — a conservative deviation recorded in DESIGN.md §5.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
from pyspark.sql import SparkSession

from repro.ampc.dht import adaptive_round, build_sorted_adjacency
from repro.graphs.generators import GraphData
from repro.hashing import coin, hash01
from repro.mpc import DEFAULT_CUTOFF_EDGES, contraction_loop
from repro.reference import UnionFind
from repro.runtime import RoundContext


@dataclass
class CycleResult:
    n_components: int
    ctx: RoundContext


def _check_2_regular(g: GraphData) -> None:
    """Raise on the driver, before any Spark job, unless ``g`` is a
    union of cycles: every vertex has degree exactly 2."""
    if (g.degrees() != 2).any():
        raise ValueError("1-vs-2-Cycle needs every vertex to have degree 2")


def ampc_one_vs_two_cycle(
    spark: SparkSession,
    g: GraphData,
    *,
    p: float = 1 / 64,
    seed: int = 0,
    ctx: RoundContext | None = None,
) -> CycleResult:
    """AMPC 1-vs-2-Cycle: O(1) rounds, 1 shuffle.

    Every sampled vertex walks the cycle in both directions until the
    next sample (possibly itself), so each cycle edge is traversed
    exactly twice when every cycle contains a sample — verified by the
    step-count invariant, which raises if a cycle went unsampled
    (increase ``p``). Raises ``ValueError`` on the driver unless every
    vertex has degree 2.
    """
    _check_2_regular(g)
    ctx = ctx or RoundContext(model="ampc")
    is_sample = hash01(np.arange(g.n), seed + 77) < p
    if not is_sample.any():
        raise ValueError("no vertices sampled; increase p")
    store = build_sorted_adjacency(spark, g, ctx)

    def walk(ids, store, meter):
        csr, sample = store
        indptr, dst = csr.indptr, csr.dst
        rows = []
        for s in ids:
            # Each step reads the two-entry row of the vertex it reaches.
            for first in csr.get(s)[0].tolist():
                prev, cur, steps = s, first, 1
                meter.lookup(words=2)
                while not sample[cur]:
                    i = indptr[cur]
                    prev, cur = cur, (dst[i + 1] if dst[i] == prev else dst[i])
                    meter.lookup(words=2)
                    steps += 1
                rows.append((s, int(cur), steps))
        return rows

    samples = np.flatnonzero(is_sample)
    rows = adaptive_round(spark, ctx, (store, is_sample), samples, walk)
    total_steps = sum(steps for _, _, steps in rows)
    if total_steps != 2 * g.m:
        raise ValueError(
            f"walks covered {total_steps} != 2m={2 * g.m} edge traversals: "
            "some cycle contains no sample; increase p"
        )
    # Contract: union-find over the sample graph on one machine.
    lut = {s: i for i, s in enumerate(samples.tolist())}
    uf = UnionFind(len(samples))
    for s, t, _ in rows:
        uf.union(lut[s], lut[t])
    return CycleResult(n_components=uf.n_components, ctx=ctx)


def mpc_cycle_cc(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 100,
) -> CycleResult:
    """MPC connectivity baseline on cycle graphs via random-mate
    contraction. Per iteration: every vertex flips a deterministic
    coin; each tail vertex adjacent to a head merges into its minimum
    head neighbor. 3 shuffles per iteration in
    :func:`repro.mpc.contraction_loop`; the relabel drops contracted
    self-loops, so a fully contracted cycle leaves the relation.
    Components are counted as ``n`` minus the merges: one per mapping
    row (a tail merges into a head, heads never move) and one per union
    in the in-memory finish. Raises ``ValueError`` on the driver unless
    every vertex has degree 2."""
    _check_2_regular(g)
    ctx = ctx or RoundContext(model="mpc")
    merged = 0

    def pick(rows: pd.DataFrame, phase: int) -> pd.DataFrame:
        nonlocal merged
        c, a, b = rows["c"].to_numpy(), rows["a"].to_numpy(), rows["b"].to_numpy()
        # A tail (heads stay put) merges into its minimum head neighbor.
        flip = seed * 1009 + phase
        mate = np.where(coin(a, flip), a, b)
        has = ~coin(c, flip) & coin(mate, flip)
        merged += int(has.sum())
        return pd.DataFrame({"old": c[has], "new": mate[has]})

    # Every label still in the relation has exactly two incident edge
    # ends: a cycle contracted along its edges is a cycle (of two
    # parallel edges at the least), and the relabel drops the self-loop
    # of a cycle contracted to one label. So ``a <= b`` are all of a
    # label's neighbors.
    rest = contraction_loop(
        spark, g, ctx, "struct(min(other) AS a, max(other) AS b)", pick,
        cutoff_edges=cutoff_edges, max_phases=max_phases, name="cycle contraction",
    )
    labels = pd.unique(pd.concat([rest["cu"], rest["cv"]]))
    lut = {int(c): i for i, c in enumerate(labels)}
    uf = UnionFind(len(labels))
    for a, b in zip(rest["cu"].tolist(), rest["cv"].tolist()):
        uf.union(lut[int(a)], lut[int(b)])
    merged += len(labels) - uf.n_components
    return CycleResult(n_components=g.n - merged, ctx=ctx)
