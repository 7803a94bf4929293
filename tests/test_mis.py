"""MIS: AMPC (Fig. 1) and MPC (Fig. 2) vs the sequential greedy oracle."""
import signal

import numpy as np
import pytest

from repro import reference as ref
from repro.ampc.dht import CSRStore, Meter
from repro.core.mis import _mis_process, _pi_positions, ampc_mis, mpc_mis
from repro.graphs import generators as gen
from repro.runtime import RoundContext


def _path(n):
    import pandas as pd

    return gen.GraphData(
        n=n,
        edges=pd.DataFrame(
            {"u": np.arange(n - 1, dtype=np.int64), "v": np.arange(1, n, dtype=np.int64)}
        ),
        name="path",
    )


def _graphs():
    return [
        ("path", _path(10)),
        ("cycle", gen.cycle_graph(12, two=False)),
        ("two_cycles", gen.cycle_graph(16, two=True)),
        ("cl_small", gen.chung_lu(60, 5, 2.2, seed=1)),
        ("cl_mid", gen.chung_lu(150, 8, 2.0, seed=2)),
        ("with_isolated", gen.GraphData(n=8, edges=gen.cycle(5), name="iso")),
    ]


GRAPHS = _graphs()


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("seed", [0, 7])
def test_ampc_mis_equals_greedy(spark, name, g, seed):
    got = ampc_mis(spark, g, seed=seed).members
    want = ref.greedy_mis(g.n, g.u(), g.v(), seed)
    assert got == want


@pytest.mark.parametrize("name,g", GRAPHS[:4], ids=[n for n, _ in GRAPHS[:4]])
def test_mpc_mis_equals_greedy(spark, name, g):
    got = mpc_mis(spark, g, seed=0, cutoff_edges=0).members
    want = ref.greedy_mis(g.n, g.u(), g.v(), 0)
    assert got == want


def test_ampc_and_mpc_identical(spark):
    """Paper §5.3: same randomness => same MIS in both models."""
    g = gen.chung_lu(120, 6, 2.1, seed=3)
    a = ampc_mis(spark, g, seed=5).members
    b = mpc_mis(spark, g, seed=5, cutoff_edges=0).members
    assert a == b


def test_mpc_mis_cutoff_pure_inmemory(spark):
    """cutoff above m: zero phases, zero shuffles, still correct."""
    g = gen.chung_lu(80, 5, 2.2, seed=4)
    ctx = RoundContext(model="mpc")
    got = mpc_mis(spark, g, seed=0, cutoff_edges=10**9, ctx=ctx).members
    assert got == ref.greedy_mis(g.n, g.u(), g.v(), 0)
    assert ctx.phases == 0 and ctx.shuffles == 0


def test_mpc_mis_phase_shuffle_accounting(spark):
    g = gen.chung_lu(100, 6, 2.2, seed=1)
    ctx = RoundContext(model="mpc")
    mpc_mis(spark, g, seed=0, cutoff_edges=0, ctx=ctx)
    assert ctx.phases >= 1
    assert ctx.shuffles == 2 * ctx.phases


def test_ampc_mis_single_shuffle(spark):
    g = gen.chung_lu(100, 6, 2.2, seed=1)
    ctx = RoundContext(model="ampc")
    ampc_mis(spark, g, seed=0, ctx=ctx)
    assert ctx.shuffles == 1
    assert ctx.queries > 0


def test_ampc_mis_cache_reduces_queries(spark):
    """The §5.3 caching ablation: cache off => strictly more DHT queries."""
    g = gen.chung_lu(150, 8, 2.0, seed=2)
    on = RoundContext(model="ampc")
    off = RoundContext(model="ampc")
    r_on = ampc_mis(spark, g, seed=0, cache=True, ctx=on)
    r_off = ampc_mis(spark, g, seed=0, cache=False, ctx=off)
    assert r_on.members == r_off.members
    assert off.queries > on.queries


#: ``ampc_mis`` on OK: the DHT payload (one entry per edge, in one
#: orientation) and ``(queries, cache hits, kv_bytes)`` by
#: ``defaultParallelism``, as the per-machine cache makes the cached
#: counts depend on the slicing of the round.
_MIS_PINNED = {
    (0, True): (918_664, {
        1: (4000, 1266, 950664), 2: (5772, 2779, 964840), 3: (7122, 3955, 975640),
        4: (8179, 4898, 984096), 8: (11131, 7667, 1007712), 16: (14785, 11147, 1036944),
    }),
    (1, False): (918_640, dict.fromkeys((1, 2, 3, 4, 8, 16), (46236, 42236, 1288528))),
}


@pytest.mark.parametrize("seed,cache", list(_MIS_PINNED), ids=["seed0", "seed1_no_cache"])
def test_ampc_mis_counts_pinned(spark, seed, cache):
    """Queries, cache hits and ``kv_bytes`` on OK. A store that kept both
    orientations of an edge would change ``kv_bytes``; a row out of π
    order would change the queries."""
    g = gen.dataset("OK")
    ctx = RoundContext(model="ampc")
    members = ampc_mis(spark, g, seed=seed, cache=cache, ctx=ctx).members
    assert members == ref.greedy_mis(g.n, g.u(), g.v(), seed)
    payload, by_parallelism = _MIS_PINNED[seed, cache]
    assert ctx.kv_bytes - 8 * ctx.queries == payload  # one word per query
    pinned = by_parallelism.get(spark.sparkContext.defaultParallelism)
    if pinned is not None:  # recorded for these slicings only
        assert (ctx.queries, ctx.cache_hits, ctx.kv_bytes) == pinned


@pytest.mark.parametrize("cache,queries,hits", [(True, 500, 164), (False, 1947, 1447)])
def test_mis_process_pinned(cache, queries, hits):
    """The round's per-partition query process with every position in one
    partition, on the π-directed store of ``chung_lu(500, 8, 2.2)``:
    the greedy MIS and pinned query and cache-hit counts."""
    g = gen.chung_lu(500, 8, 2.2, seed=0)
    order, pos, renamed = _pi_positions(g, 0)
    earlier = renamed.u()
    store = CSRStore.from_rows(renamed.v(), earlier, earlier.astype(np.float64))
    meter = Meter()
    rows = _mis_process(pos.tolist(), store, meter, cache)
    assert set(order[[x for x, in_mis in rows if in_mis]].tolist()) == ref.greedy_mis(
        g.n, g.u(), g.v(), 0
    )
    assert (meter.queries, meter.cache_hits) == (queries, hits)


def test_mis_process_rejects_later_neighbour():
    """A store row that lists a neighbour not earlier in π (here: both
    orientations of a 3-path) raises within 5 s instead of recursing
    forever."""
    src, dst = np.array([0, 1, 1, 2]), np.array([1, 0, 2, 1])
    store = CSRStore.from_rows(src, dst, dst.astype(np.float64))

    def expire(signum, frame):
        raise TimeoutError("_mis_process still running after 5 s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(5)
    try:
        with pytest.raises(RuntimeError, match="row 0"):
            _mis_process([0, 1, 2], store, Meter(), True)
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.mark.parametrize("seed", [0, 3])
def test_ampc_mis_is_valid_mis(spark, seed):
    g = gen.chung_lu(200, 7, 2.1, seed=6)
    s = ampc_mis(spark, g, seed=seed).members
    assert ref.is_independent_set(g.u(), g.v(), s)
    assert ref.is_maximal_is(g.n, g.u(), g.v(), s)


def test_isolated_vertices_in_mis_both_models(spark):
    g = gen.GraphData(n=9, edges=gen.cycle(5), name="iso")
    a = ampc_mis(spark, g).members
    b = mpc_mis(spark, g, cutoff_edges=0).members
    assert {5, 6, 7, 8} <= a and {5, 6, 7, 8} <= b


def test_star_graph_center_or_leaves(spark):
    import pandas as pd

    edges = pd.DataFrame({"u": np.zeros(6, dtype=np.int64), "v": np.arange(1, 7)})
    g = gen.GraphData(n=7, edges=edges, name="star")
    s = ampc_mis(spark, g, seed=0).members
    if 0 in s:
        assert s == {0}
    else:
        assert s == set(range(1, 7))
