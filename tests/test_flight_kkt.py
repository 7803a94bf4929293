"""F-light classification (Alg. 5) and KKT-sampled MSF (Alg. 3)."""
import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.core.flight import find_light_edges
from repro.core.kkt import msf_kkt
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
    out = find_light_edges(spark, g.to_spark(spark), g.n, fu, fv, fw).toPandas()
    for _, row in out.iterrows():
        want = float(row["w"]) <= ref.path_max_weight(
            g.n, fu, fv, fw, int(row["u"]), int(row["v"])
        )
        assert bool(row["light"]) == want


def test_flight_forest_edges_are_light(spark):
    """Proposition 3.8 corollary: F's own edges are F-light."""
    g = _weighted(gen.chung_lu(60, 6, 2.2, seed=1))
    fu, fv, fw = _forest_of(g)
    out = find_light_edges(spark, g.to_spark(spark), g.n, fu, fv, fw).toPandas()
    fset = {(min(a, b), max(a, b)) for a, b in zip(fu.tolist(), fv.tolist())}
    got = {
        (int(r["u"]), int(r["v"]))
        for _, r in out.iterrows()
        if (int(r["u"]), int(r["v"])) in fset and r["light"]
    }
    assert got == {e for e in fset}


def test_flight_msf_edges_are_light(spark):
    """Proposition 3.8: every MSF edge of G is F-light for any forest F."""
    g = _weighted(gen.chung_lu(60, 6, 2.2, seed=2))
    fu, fv, fw = _forest_of(g)
    msf = ref.kruskal_msf(g.n, g.u(), g.v(), g.w())
    out = find_light_edges(spark, g.to_spark(spark), g.n, fu, fv, fw).toPandas()
    flags = {(int(r["u"]), int(r["v"])): bool(r["light"]) for _, r in out.iterrows()}
    assert all(flags[e] for e in msf)


def test_flight_releases_oracle_when_classify_fails(spark, monkeypatch):
    """A classify error in a worker still unpersists the oracle broadcast."""
    g = _weighted(gen.chung_lu(40, 4, 2.2, seed=3))
    fu, fv, fw = _forest_of(g)
    sc, released = spark.sparkContext, []
    broadcast = sc.broadcast

    def spy(value):
        bc = broadcast(value)
        unpersist = bc.unpersist
        monkeypatch.setattr(bc, "unpersist", lambda *a: released.append(unpersist(*a)))
        return bc

    monkeypatch.setattr(sc, "broadcast", spy)
    bad = spark.createDataFrame(pd.DataFrame({"u": [0], "v": [g.n + 5], "w": [1.0]}))
    # PySpark re-raises the worker's IndexError as its own exception type.
    with pytest.raises(Exception, match="IndexError"):
        find_light_edges(spark, bad, g.n, fu, fv, fw)
    assert len(released) == 1


def test_flight_counts_queries(spark):
    g = _weighted(gen.chung_lu(40, 4, 2.2, seed=3))
    fu, fv, fw = _forest_of(g)
    ctx = RoundContext(model="ampc")
    find_light_edges(spark, g.to_spark(spark), g.n, fu, fv, fw, ctx=ctx)
    assert ctx.queries >= 2 * g.m


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
