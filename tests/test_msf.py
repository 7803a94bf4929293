"""MSF: AMPC (truncated Prim, 5 shuffles) and MPC (Borůvka) vs Kruskal.

Both implementations break weight ties by (w, u, v), the order Kruskal
scans, so the MSF is unique and tests assert exact edge-set equality,
with distinct and with tied weights.
"""
import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.ampc.dht import build_sorted_adjacency, build_store
from repro.core import msf as msf_mod
from repro.core.msf import ampc_msf, mpc_msf
from repro.graphs import generators as gen
from repro.runtime import RoundContext


def _weighted(g):
    return gen.with_degree_weights(g)


def _path(n):
    return gen.GraphData(
        n=n,
        edges=pd.DataFrame(
            {"u": np.arange(n - 1, dtype=np.int64), "v": np.arange(1, n, dtype=np.int64)}
        ),
        name="path",
    )


GRAPHS = [
    ("path", _weighted(_path(12))),
    ("cycle", _weighted(gen.cycle_graph(15, two=False))),
    ("two_cycles", _weighted(gen.cycle_graph(16, two=True))),
    ("cl_small", _weighted(gen.chung_lu(60, 5, 2.2, seed=1))),
    ("cl_mid", _weighted(gen.chung_lu(150, 8, 2.0, seed=2))),
    ("with_isolated", _weighted(gen.GraphData(n=9, edges=gen.cycle(6), name="iso"))),
]


def _kruskal(g):
    return ref.kruskal_msf(g.n, g.u(), g.v(), g.w())


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("seed", [0, 7])
def test_ampc_msf_equals_kruskal(spark, name, g, seed):
    got = ampc_msf(spark, g, seed=seed).edges
    assert got == _kruskal(g)


@pytest.mark.parametrize("name,g", GRAPHS[:5], ids=[n for n, _ in GRAPHS[:5]])
def test_mpc_msf_equals_kruskal(spark, name, g):
    got = mpc_msf(spark, g, seed=0, cutoff_edges=0).edges
    assert got == _kruskal(g)


def _tied(seed):
    """Chung–Lu graph with weights drawn from {1, 2, 3}: most weights tie."""
    g = gen.chung_lu(300, 6, 2.2, seed=seed)
    w = np.random.default_rng(seed).integers(1, 4, g.m).astype(np.float64)
    return gen.GraphData(n=g.n, edges=g.edges.assign(w=w), name="tied")


@pytest.mark.parametrize("seed", [0, 1])
@pytest.mark.parametrize(
    "run",
    [
        lambda spark, g: ampc_msf(spark, g, seed=0),
        lambda spark, g: mpc_msf(spark, g, seed=0, cutoff_edges=200),
    ],
    ids=["ampc", "mpc"],
)
def test_msf_tied_weights_equals_kruskal(spark, run, seed):
    g = _tied(seed)
    assert run(spark, g).edges == _kruskal(g)


@pytest.mark.parametrize("budget", [2, 4, 1000])
def test_ampc_msf_budget_insensitive(spark, budget):
    """Truncation changes the contraction, never the output (Alg. 1)."""
    g = _weighted(gen.chung_lu(80, 6, 2.1, seed=3))
    got = ampc_msf(spark, g, seed=0, budget=budget).edges
    assert got == _kruskal(g)


def test_ampc_msf_five_shuffles(spark):
    """Table 3: AMPC MSF uses exactly 5 shuffles on any input."""
    for g in (GRAPHS[3][1], GRAPHS[4][1]):
        ctx = RoundContext(model="ampc")
        ampc_msf(spark, g, seed=0, ctx=ctx)
        assert ctx.shuffles == 5


def test_ampc_msf_queries_and_jump_depth(spark):
    g = _weighted(gen.chung_lu(150, 8, 2.0, seed=2))
    ctx = RoundContext(model="ampc")
    ampc_msf(spark, g, seed=0, ctx=ctx)
    assert ctx.queries > 0
    assert ctx.notes["max_pointer_jump"] >= 0
    # Lemma 3.4-flavored sanity: total queries are O(n log n)-ish, not O(n^2).
    assert ctx.queries < 60 * g.n * np.log2(g.n)


def test_ampc_msf_charges_query_bytes(spark):
    """Like every AMPC round, Prim and pointer jumping charge each
    lookup's words to ``kv_bytes`` on top of the DHT payload."""
    g = _weighted(gen.chung_lu(150, 8, 2.0, seed=2))
    payload = build_sorted_adjacency(spark, g, RoundContext(model="ampc"), g.w()).payload_bytes
    ctx = RoundContext(model="ampc")
    ampc_msf(spark, g, seed=0, ctx=ctx)
    assert ctx.queries > 0
    assert ctx.kv_bytes >= payload + 8 * ctx.queries


#: ``(queries, kv_bytes, max_pointer_jump)`` of ``ampc_msf`` on weighted
#: OK by ``defaultParallelism``: pointer jumping memoizes per machine.
_MSF_OK_PINNED = {
    1: (24703, 2267248, 6), 2: (25546, 2273992, 6), 3: (25935, 2277104, 6),
    4: (26227, 2279440, 6), 8: (26955, 2285264, 6), 16: (27637, 2290720, 7),
}


def test_ampc_msf_visitor_store_one_entry_per_row(spark, monkeypatch):
    """The visitor combine writes only each visited vertex's
    highest-priority visitor: one entry per row, 93,792 B on OK."""
    stores = []

    def spy(ctx, rows):
        stores.append(build_store(ctx, rows))
        return stores[-1]

    monkeypatch.setattr(msf_mod, "build_store", spy)
    g = _weighted(gen.dataset("OK"))
    ctx = RoundContext(model="ampc")
    assert ampc_msf(spark, g, seed=0, ctx=ctx).edges == _kruskal(g)
    (visitors,) = stores
    assert np.diff(visitors.indptr).max() == 1
    assert visitors.payload_bytes == 93_792
    assert ctx.notes["contracted_vertices"] == 92
    pinned = _MSF_OK_PINNED.get(spark.sparkContext.defaultParallelism)
    if pinned is not None:  # recorded for these slicings only
        assert (ctx.queries, ctx.kv_bytes, ctx.notes["max_pointer_jump"]) == pinned


def test_ampc_msf_contraction_shrinks(spark):
    """Lemma 3.3: the contracted graph has far fewer vertices."""
    g = _weighted(gen.chung_lu(400, 6, 2.2, seed=5))
    ctx = RoundContext(model="ampc")
    ampc_msf(spark, g, seed=0, ctx=ctx)
    assert ctx.notes["contracted_vertices"] < g.n / 2


def test_mpc_msf_three_shuffles_per_phase(spark):
    g = _weighted(gen.chung_lu(100, 6, 2.2, seed=1))
    ctx = RoundContext(model="mpc")
    mpc_msf(spark, g, seed=0, cutoff_edges=0, ctx=ctx)
    assert ctx.phases >= 1
    assert ctx.shuffles == 3 * ctx.phases


def test_mpc_msf_cutoff_pure_inmemory(spark):
    g = _weighted(gen.chung_lu(80, 5, 2.2, seed=4))
    ctx = RoundContext(model="mpc")
    got = mpc_msf(spark, g, seed=0, cutoff_edges=10**9, ctx=ctx).edges
    assert got == _kruskal(g)
    assert ctx.shuffles == 0


def test_msf_total_weight_matches(spark):
    g = _weighted(gen.chung_lu(120, 7, 2.1, seed=6))
    res = ampc_msf(spark, g, seed=0)
    want = _kruskal(g)
    wt = {(int(a), int(b)): float(x) for a, b, x in zip(g.u(), g.v(), g.w())}
    assert res.total_weight(g) == pytest.approx(sum(wt[e] for e in want))


def test_msf_requires_weights(spark):
    g = gen.chung_lu(20, 3, 2.2, seed=0)
    with pytest.raises(ValueError):
        ampc_msf(spark, g)
    with pytest.raises(ValueError):
        mpc_msf(spark, g)


def test_msf_solves_connectivity(spark):
    """Theorem 1: MSF edge count determines component count."""
    g = _weighted(gen.cycle_graph(20, two=True))
    got = ampc_msf(spark, g, seed=0).edges
    n_cc = g.n - len(got)
    assert n_cc == 2
