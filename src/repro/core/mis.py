"""Maximal Independent Set — the paper's case study (§5.3).

Both implementations compute the *lexicographically-first MIS* over the
hash-derived vertex permutation π = hash01(vertex, seed), so (paper:
"By specifying the same source of randomness, both the MPC and AMPC
algorithms compute the same MIS") their outputs are bit-identical to
each other and to ``repro.reference.greedy_mis``. Both run on the
vertices renamed to their π positions (:func:`_pi_positions`), so "earlier
in π" is "smaller id".

- :func:`ampc_mis` — Figure 1: one shuffle builds the priority-directed
  graph and writes it to the DHT; one adaptive round runs the
  Yoshida-style recursive query process with a per-partition (i.e.
  per-machine) memo cache.
- :func:`mpc_mis` — Figure 2: rootset peeling, 2 logical shuffles per
  phase in the rootset phase it shares with MPC matching
  (:func:`repro.mpc.rootset_phase`), switching to an in-memory finish
  below a cutoff.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from pyspark.sql import SparkSession

from repro.ampc.dht import CSRStore, Meter, adaptive_round, build_store, exchange_rows
from repro.graphs.generators import GraphData
from repro.hashing import hash01
from repro.mpc import DEFAULT_CUTOFF_EDGES, RootsetRule, rootset_loop
from repro.runtime import RoundContext


@dataclass
class MISResult:
    members: set[int]
    ctx: RoundContext


def _pi_positions(g: GraphData, seed: int) -> tuple[np.ndarray, np.ndarray, GraphData]:
    """π = hash01(vertex, seed) as positions: ``order[i]`` is the vertex
    at position ``i``, ``pos`` is its inverse, and the graph is ``g``
    with every vertex renamed to its position. Uncounted input
    preparation, like the adjacency build: every machine can hash any
    id."""
    order = np.argsort(hash01(np.arange(g.n), seed), kind="stable")
    pos = np.empty(g.n, dtype=np.int64)
    pos[order] = np.arange(g.n)
    a, b = pos[g.u()], pos[g.v()]
    renamed = GraphData(n=g.n, edges=g.edges.assign(u=np.minimum(a, b), v=np.maximum(a, b)))
    return order, pos, renamed


# --------------------------------------------------------------------------
# AMPC (Figure 1)
# --------------------------------------------------------------------------

def _resolve_in_mis(root: int, store: CSRStore, memo: dict, meter: Meter) -> bool:
    """Iterative version of Figure 1's ``InMIS`` recursion.

    A vertex is in the MIS iff none of its earlier-permutation
    neighbors is. Frames carry a resume index so each neighbor list is
    scanned once; ``memo`` is the per-machine cache (may be scoped
    per-root when the caching optimization is disabled).
    """
    frames: list[list] = [[root, 0, None]]  # [vertex, next nbr index, nbrs]
    while frames:
        frame = frames[-1]
        x = frame[0]
        if x in memo:
            frames.pop()
            continue
        if frame[2] is None:
            meter.lookup(words=1)
            frame[2] = store.get(x)[0]
        else:
            meter.hit()  # resumed frame: neighbor list already fetched
        nbrs = frame[2]
        decided: bool | None = None
        i = frame[1]
        while i < len(nbrs):
            y = int(nbrs[i])
            r = memo.get(y)
            if r is None:
                frame[1] = i
                frames.append([y, 0, None])
                break
            if r:  # an earlier neighbor is in the MIS -> x is not
                decided = False
                break
            i += 1
        else:
            decided = True  # all earlier neighbors resolved to False
        if decided is not None:
            memo[x] = decided
            frames.pop()
    return memo[root]


def ampc_mis(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cache: bool = True,
    ctx: RoundContext | None = None,
) -> MISResult:
    """AMPC MIS (Figure 1): 1 shuffle + 1 adaptive lookup round.

    ``cache=False`` reproduces the paper's caching ablation (§5.3): the
    cross-root per-machine cache is dropped (memoization is still kept
    *within* each root's recursion so the process stays tractable), so
    the DHT query count blows up accordingly.
    """
    ctx = ctx or RoundContext(model="ampc")
    order, pos, renamed = _pi_positions(g, seed)
    # Step (1)+(2): the single shuffle — direct each edge from its later
    # to its earlier end and write the directed graph to the key-value
    # store, each row keyed by position.
    earlier, later = renamed.u(), renamed.v()
    store = build_store(ctx, exchange_rows(spark, later, earlier, earlier.astype(np.float64)))

    # Step (3): adaptive round — IsInMIS over all vertices, sliced in
    # id order so each machine holds the same vertices.
    def run(ids, store, meter):
        shared_memo: dict[int, bool] = {}
        return [
            (x, _resolve_in_mis(x, store, shared_memo if cache else {}, meter))
            for x in ids
        ]

    rows = adaptive_round(spark, ctx, store, pos, run)
    members = order[[x for x, in_mis in rows if in_mis]]
    return MISResult(members=set(members.tolist()), ctx=ctx)


# --------------------------------------------------------------------------
# MPC (Figure 2)
# --------------------------------------------------------------------------

# Vertices are named by their π position, so each ``nbrs`` list is in π
# order and a root, a vertex earlier in π than all its neighbours, is
# one comparison. Roots notify their neighbours; a vertex is removed iff
# it is a root or was notified, and records the root that removed it
# (itself, if a root). A survivor with no neighbours left is a root.
_ROOT = "coalesce(id < get(nbrs, 0), true)"
_MIS = RootsetRule(
    live="res IS NULL",
    target=f"explode(IF({_ROOT}, nbrs, NULL))",
    result=f"IF({_ROOT}, id, array_min(by))",
    collect="collect_list(IF(res = id, id, NULL))",
)


def _greedy_residual_mis(rows) -> list[int]:
    """In-memory finish: sequential greedy on the residual ``(id,
    nbrs)`` rows in position order."""
    rows = rows.sort_values("id")
    taken: list[int] = []
    blocked: set[int] = set()
    for x, nbrs in zip(rows["id"].tolist(), rows["nbrs"].tolist()):
        if x not in blocked:
            taken.append(x)
            blocked.update(nbrs)
    return taken


def mpc_mis(
    spark: SparkSession,
    g: GraphData,
    *,
    seed: int = 0,
    cutoff_edges: int = DEFAULT_CUTOFF_EDGES,
    ctx: RoundContext | None = None,
    max_phases: int = 200,
) -> MISResult:
    """Rootset-based MPC MIS (Figure 2): 2 logical shuffles per phase.

    Per phase (:func:`repro.mpc.rootset_phase`), on the vertices renamed
    to their π positions: roots, the local π minima, need no shuffle;
    shuffle 1 notifies their neighbours; shuffle 2 sends each removed
    vertex's deletes to its neighbours. Below ``cutoff_edges`` the residual is finished in
    memory (paper: single-machine finish below 5×10^7).
    """
    ctx = ctx or RoundContext(model="mpc")
    order, _, renamed = _pi_positions(g, seed)
    roots, residual = rootset_loop(
        spark, renamed, ctx, _MIS,
        cutoff_edges=cutoff_edges, max_phases=max_phases, name="mpc_mis",
    )
    # Isolated vertices never enter the adjacency relation but belong to
    # every MIS.
    isolated = np.flatnonzero(np.bincount(np.r_[renamed.u(), renamed.v()], minlength=g.n) == 0)
    found = roots + _greedy_residual_mis(residual) + isolated.tolist()
    return MISResult(members=set(order[found].tolist()), ctx=ctx)
