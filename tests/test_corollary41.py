"""Corollary 4.1: approximation results derived from maximal matching."""
import itertools

import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.core.matching import (
    ampc_maximal_matching,
    ampc_weighted_matching,
    vertex_cover_from_matching,
)
from repro.graphs import generators as gen
from repro.runtime import RoundContext


def _brute_max_weight_matching(u, v, w):
    """Optimal MWM by exhaustive search (tiny graphs only)."""
    edges = list(zip(u.tolist(), v.tolist(), w.tolist()))
    best = 0.0
    for r in range(1, len(edges) + 1):
        for combo in itertools.combinations(edges, r):
            seen = set()
            ok = True
            for a, b, _ in combo:
                if a in seen or b in seen:
                    ok = False
                    break
                seen.update((a, b))
            if ok:
                best = max(best, sum(x for _, _, x in combo))
    return best


def _brute_min_vertex_cover(n, u, v):
    edges = list(zip(u.tolist(), v.tolist()))
    verts = sorted({x for e in edges for x in e})
    for r in range(0, len(verts) + 1):
        for combo in itertools.combinations(verts, r):
            s = set(combo)
            if all(a in s or b in s for a, b in edges):
                return r
    return len(verts)


@pytest.mark.parametrize("seed", range(3))
def test_weighted_matching_half_approx(spark, seed):
    g = gen.with_degree_weights(gen.chung_lu(9, 2.2, 2.2, seed=seed, spine=False))
    assert 0 < g.m <= 14, "keep the brute-force oracle tractable"
    got = ampc_weighted_matching(spark, g, seed=seed).edges
    assert ref.is_matching(got)
    wt = {(int(a), int(b)): float(x) for a, b, x in zip(g.u(), g.v(), g.w())}
    got_w = sum(wt[e] for e in got)
    opt = _brute_max_weight_matching(g.u(), g.v(), g.w())
    assert got_w >= opt / 2 - 1e-9


def _heaviest_first_greedy(g):
    """Sequential greedy over the edges by decreasing ``w``, ties by ``(u, v)``."""
    matched, want = set(), set()
    for i in np.lexsort((g.v(), g.u(), -g.w())).tolist():
        a, b = int(g.u()[i]), int(g.v()[i])
        if a not in matched and b not in matched:
            matched.update((a, b))
            want.add((a, b))
    return want


def test_weighted_matching_is_heaviest_first_greedy(spark):
    g = gen.with_degree_weights(gen.chung_lu(60, 5, 2.2, seed=1))
    assert ampc_weighted_matching(spark, g, seed=0).edges == _heaviest_first_greedy(g)


def test_weighted_matching_star_of_equal_weights(spark):
    """Equal ranks must not make every edge of the star earliest."""
    edges = pd.DataFrame({"u": [0, 0, 0], "v": [1, 2, 3], "w": [1.0, 1.0, 1.0]})
    g = gen.GraphData(n=4, edges=edges.astype({"u": np.int64, "v": np.int64}))
    got = ampc_weighted_matching(spark, g, seed=0).edges
    assert ref.is_matching(got)
    assert got == _heaviest_first_greedy(g) == {(0, 1)}


@pytest.mark.parametrize("seed", range(5))
def test_weighted_matching_tied_weights(spark, seed):
    g = gen.chung_lu(300, 6, 2.2, seed=seed)
    w = np.random.default_rng(seed).integers(1, 4, g.m).astype(np.float64)
    g = gen.GraphData(n=g.n, edges=g.edges.assign(w=w))
    got = ampc_weighted_matching(spark, g, seed=seed).edges
    assert ref.is_matching(got)
    assert got == _heaviest_first_greedy(g)


#: ``(queries, cache hits, kv_bytes)`` of the pinned weighted matching
#: by ``defaultParallelism``; ``kv_bytes`` is the 73,216 B payload (both
#: orientations of every edge) plus two words per query.
_WEIGHTED_PINNED = {
    1: (4226, 1038, 140832), 2: (7212, 2407, 188608), 3: (9890, 3609, 231456),
    4: (12202, 4683, 268448), 8: (19870, 8290, 391136), 16: (31878, 14151, 583264),
}


def test_weighted_matching_counts_pinned(spark):
    """Queries, cache hits and ``kv_bytes`` with ``rank=-w``: a row out
    of heaviest-first order would change the queries."""
    g = gen.with_degree_weights(gen.chung_lu(500, 8, 2.2, seed=3))
    ctx = RoundContext(model="ampc")
    ampc_weighted_matching(spark, g, seed=0, ctx=ctx)
    assert ctx.kv_bytes - 16 * ctx.queries == 73_216
    pinned = _WEIGHTED_PINNED.get(spark.sparkContext.defaultParallelism)
    if pinned is not None:  # recorded for these slicings only
        assert (ctx.queries, ctx.cache_hits, ctx.kv_bytes) == pinned


def test_weighted_matching_requires_weights(spark):
    with pytest.raises(ValueError):
        ampc_weighted_matching(spark, gen.chung_lu(10, 2, 2.2, seed=0))


@pytest.mark.parametrize("seed", range(3))
def test_vertex_cover_two_approx(spark, seed):
    g = gen.chung_lu(9, 2.2, 2.2, seed=seed + 10, spine=False)
    assert 0 < g.m <= 14
    m = ampc_maximal_matching(spark, g, seed=seed).edges
    vc = vertex_cover_from_matching(m)
    # covers every edge
    assert all(a in vc or b in vc for a, b in zip(g.u().tolist(), g.v().tolist()))
    opt = _brute_min_vertex_cover(g.n, g.u(), g.v())
    assert len(vc) <= 2 * opt


def test_vertex_cover_of_empty_matching():
    assert vertex_cover_from_matching(set()) == set()
