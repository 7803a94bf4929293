"""F-light classification (Alg. 5) and KKT-sampled MSF (Alg. 3)."""
import math

import numpy as np
import pytest

from repro import reference as ref
from repro.core.flight import find_light_edges
from repro.core.kkt import msf_kkt
from repro.core.msf import ampc_msf
from repro.graphs import generators as gen
from repro.runtime import RoundContext


def _weighted(g):
    return gen.with_degree_weights(g)


def _forest_of(g, seed=0):
    """A subforest of g: the MSF of an edge sample."""
    keep = ref.hash01(ref.edge_rank(g.u(), g.v(), 5), 1) < 0.5
    su, sv = g.u()[keep], g.v()[keep]
    sw = g.w()[keep]
    f = ref.kruskal_msf(g.n, su, sv, sw)
    wt = {(int(a), int(b)): float(x) for a, b, x in zip(g.u(), g.v(), g.w())}
    fu = np.array([a for a, _ in f], dtype=np.int64)
    fv = np.array([b for _, b in f], dtype=np.int64)
    fw = np.array([wt[e] for e in f], dtype=np.float64)
    return fu, fv, fw


@pytest.mark.parametrize("seed", range(3))
def test_flight_matches_bruteforce(spark, seed):
    g = _weighted(gen.chung_lu(50, 5, 2.2, seed=seed))
    fu, fv, fw = _forest_of(g)
    light = find_light_edges(spark, g, fu, fv, fw)
    assert light.dtype == bool and len(light) == g.m
    for a, b, w, got in zip(g.u().tolist(), g.v().tolist(), g.w().tolist(), light.tolist()):
        assert got == (w <= ref.path_max_weight(g.n, fu, fv, fw, a, b))


def test_flight_forest_edges_are_light(spark):
    """Proposition 3.8 corollary: F's own edges are F-light."""
    g = _weighted(gen.chung_lu(60, 6, 2.2, seed=1))
    fu, fv, fw = _forest_of(g)
    light = find_light_edges(spark, g, fu, fv, fw)
    fset = {(min(a, b), max(a, b)) for a, b in zip(fu.tolist(), fv.tolist())}
    got = {
        e for e, is_light in zip(zip(g.u().tolist(), g.v().tolist()), light.tolist())
        if e in fset and is_light
    }
    assert got == fset


def test_flight_msf_edges_are_light(spark):
    """Proposition 3.8: every MSF edge of G is F-light for any forest F."""
    g = _weighted(gen.chung_lu(60, 6, 2.2, seed=2))
    fu, fv, fw = _forest_of(g)
    msf = ref.kruskal_msf(g.n, g.u(), g.v(), g.w())
    light = find_light_edges(spark, g, fu, fv, fw)
    flags = dict(zip(zip(g.u().tolist(), g.v().tolist()), light.tolist()))
    assert all(flags[e] for e in msf)


def test_flight_counts_queries(spark):
    """2 + ceil(log2 n) reads per edge, and no KV bytes."""
    g = _weighted(gen.chung_lu(40, 4, 2.2, seed=3))
    fu, fv, fw = _forest_of(g)
    ctx = RoundContext(model="ampc")
    find_light_edges(spark, g, fu, fv, fw, ctx=ctx)
    assert ctx.queries == (2 + math.ceil(math.log2(g.n))) * g.m
    assert ctx.kv_bytes == 0 and ctx.shuffles == 0


#: ``(ampc_msf, msf_kkt)`` queries on the pinned input, by
#: ``defaultParallelism``: pointer jumping memoizes per machine, so the
#: slicing of the round decides its query count.
_PINNED_QUERIES = {
    1: (1312, 16197), 2: (1370, 16273), 3: (1397, 16310),
    4: (1417, 16341), 8: (1457, 16400), 16: (1482, 16445),
}


@pytest.mark.parametrize(
    "algo, want_shuffles, want_notes",
    [
        (ampc_msf, 5, {"max_pointer_jump": 4, "contracted_vertices": 11}),
        (
            msf_kkt,
            10,
            {"max_pointer_jump": 4, "contracted_vertices": 11, "n_light": 1067, "n_sampled": 210},
        ),
    ],
    ids=["ampc_msf", "msf_kkt"],
)
def test_msf_counts_pinned(spark, algo, want_shuffles, want_notes):
    """Edges, shuffles, queries, cache hits and notes of AMPC MSF and
    Algorithm 3 on one fixed weighted input."""
    g = _weighted(gen.chung_lu(300, 8, 2.2, seed=0))
    ctx = RoundContext(model="ampc")
    edges = algo(spark, g, seed=0, ctx=ctx).edges
    assert edges == ref.kruskal_msf(g.n, g.u(), g.v(), g.w()) and len(edges) == 299
    assert (ctx.shuffles, ctx.phases, ctx.cache_hits) == (want_shuffles, 0, 0)
    assert ctx.notes == want_notes
    queries = _PINNED_QUERIES.get(spark.sparkContext.defaultParallelism)
    if queries is not None:  # recorded for these slicings only
        assert ctx.queries == queries[algo is msf_kkt]


@pytest.mark.parametrize("seed", [0, 4])
def test_kkt_equals_kruskal(spark, seed):
    g = _weighted(gen.chung_lu(90, 6, 2.1, seed=seed))
    got = msf_kkt(spark, g, seed=seed).edges
    assert got == ref.kruskal_msf(g.n, g.u(), g.v(), g.w())


@pytest.mark.parametrize("seed", range(3))
def test_kkt_tied_weights_equals_kruskal(spark, seed):
    """Weights drawn from {1, 2, 3}: most tie, and the MSF is still
    exactly Kruskal's under the ``(w, u, v)`` order."""
    g = gen.chung_lu(300, 6, 2.2, seed=seed)
    w = np.random.default_rng(seed).integers(1, 4, g.m).astype(np.float64)
    g = gen.GraphData(n=g.n, edges=g.edges.assign(w=w), name="tied")
    got = msf_kkt(spark, g, seed=seed).edges
    assert got == ref.kruskal_msf(g.n, g.u(), g.v(), g.w())


def test_kkt_light_edge_reduction(spark):
    """Lemma 3.9 shape: the light set is much smaller than m for a
    dense-enough graph."""
    g = _weighted(gen.chung_lu(150, 14, 2.2, seed=1))
    ctx = RoundContext(model="ampc")
    got = msf_kkt(spark, g, seed=0, p=0.5, ctx=ctx).edges
    assert got == ref.kruskal_msf(g.n, g.u(), g.v(), g.w())
    assert ctx.notes["n_light"] < g.m


def test_kkt_two_components(spark):
    g = _weighted(gen.cycle_graph(30, two=True))
    got = msf_kkt(spark, g, seed=0).edges
    assert len(got) == g.n - 2


def test_kkt_requires_weights(spark):
    with pytest.raises(ValueError):
        msf_kkt(spark, gen.chung_lu(20, 3, 2.2, seed=0))
