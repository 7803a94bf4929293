"""AMPC DHT construction, metering, cost model, and round accounting."""
import re

import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.ampc import dht as dht_mod
from repro.ampc.cost import LATENCY_S, modeled_time
from repro.ampc.dht import CSRStore, Meter, adaptive_round, build_sorted_adjacency
from repro.graphs import generators as gen
from repro.graphs.generators import GraphData
from repro.hashing import edge_rank
from repro.runtime import RoundContext


class TestMeter:
    def test_lookup_counts(self):
        m = Meter()
        m.lookup()
        m.lookup(words=3)
        m.hit()
        assert m.queries == 2
        assert m.cache_hits == 1
        assert m.kv_bytes == 4 * 8


def _rows(store: CSRStore):
    """``(src, neighbors, keys)`` of every non-empty row."""
    for src in np.flatnonzero(np.diff(store.indptr)).tolist():
        yield (src, *store.get(src))


def _star_tied(leaves: int, order: np.ndarray) -> GraphData:
    """Weighted star (center 0) plus a leaf path, every weight 1.0."""
    u = np.r_[np.zeros(leaves, dtype=np.int64), np.arange(1, leaves)]
    v = np.r_[np.arange(1, leaves + 1), np.arange(2, leaves + 1)]
    edges = pd.DataFrame({"u": u, "v": v, "w": np.ones(len(u))})
    return GraphData(n=leaves + 1, edges=edges.iloc[order].reset_index(drop=True))


class TestCSRStore:
    def test_rows_sorted_by_key_then_dst(self):
        store = CSRStore.from_rows(
            np.array([2, 2, 2, 0, 2]),
            np.array([9, 4, 7, 1, 3]),
            np.array([0.5, 0.5, 0.1, 0.3, 0.5]),
        )
        assert store.indptr.tolist() == [0, 1, 1, 5]
        nbrs, keys = store.get(2)
        assert nbrs.tolist() == [7, 3, 4, 9]  # tied keys 0.5 ordered by dst
        assert keys.tolist() == [0.1, 0.5, 0.5, 0.5]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("dst_offset", [0, 1 << 50], ids=["packed", "wide_ids"])
    def test_order_equals_three_key_lexsort(self, seed, dst_offset):
        """Rows come out exactly in ``lexsort((dst, key, src))`` order,
        on tied weights in {1, 2, 3} and on edge ranks, also when the ids
        are too wide to pack ``(src, key rank, dst)`` into one int64."""
        g = gen.chung_lu(400, 8, 2.2, seed=seed)
        perm = np.random.default_rng(seed).permutation(2 * g.m)
        src, dst = np.r_[g.u(), g.v()][perm], np.r_[g.v(), g.u()][perm]
        tied = np.random.default_rng(seed).integers(1, 4, g.m).astype(np.float64)
        keys = (np.r_[tied, tied][perm], edge_rank(src, dst, seed))
        dst = dst + dst_offset
        for key in keys:
            store = CSRStore.from_rows(src, dst, key)
            order = np.lexsort((dst, key, src))
            assert np.array_equal(store.indptr, np.r_[0, np.cumsum(np.bincount(src))])
            assert np.array_equal(store.dst, dst[order])
            assert np.array_equal(store.key, key[order])

    def test_missing_and_out_of_range_rows_empty(self):
        store = CSRStore.from_rows(np.array([0, 3]), np.array([3, 0]), np.array([1.0, 1.0]))
        for x in (1, 2, 4, 10**9, -1):
            nbrs, keys = store.get(x)
            assert len(nbrs) == len(keys) == 0
            assert nbrs.dtype == np.int64 and keys.dtype == np.float64

    def test_empty(self):
        store = CSRStore.from_rows(*(np.empty(0, dtype=np.int64),) * 2, np.empty(0))
        assert store.indptr.tolist() == [0]
        assert len(store.get(0)[0]) == 0


class TestBuildSortedAdjacency:
    def test_default_orders_by_id(self, spark):
        """Without a rank, every row holds all neighbors in id order."""
        g = gen.chung_lu(50, 5, 2.2, seed=0)
        ctx = RoundContext(model="ampc")
        store = build_sorted_adjacency(spark, g, ctx)
        assert ctx.shuffles == 1
        adj = ref.adjacency(g.n, g.u(), g.v())
        for x in range(g.n):
            nbrs, keys = store.get(x)
            assert nbrs.tolist() == adj[x].tolist()
            assert not keys.any()

    def test_edge_rank_sorted(self, spark):
        """A given rank is the key of its edge in both orientations, and
        each row is sorted by it."""
        g = gen.chung_lu(40, 4, 2.2, seed=2)
        store = build_sorted_adjacency(
            spark, g, RoundContext(model="ampc"), edge_rank(g.u(), g.v(), 1)
        )
        assert len(store.dst) == 2 * g.m
        for src, nbrs, keys in _rows(store):
            srcs = np.full(len(nbrs), src, dtype=np.int64)
            assert np.array_equal(keys, edge_rank(srcs, nbrs, 1))
            assert np.all(np.diff(keys) >= 0)

    def test_weight_sorted(self, spark):
        g = gen.with_degree_weights(gen.chung_lu(40, 4, 2.2, seed=3))
        store = build_sorted_adjacency(spark, g, RoundContext(model="ampc"), g.w())
        wt = {(min(a, b), max(a, b)): w for a, b, w in zip(g.u(), g.v(), g.w())}
        for src, nbrs, keys in _rows(store):
            assert np.all(np.diff(keys) >= 0)
            for y, k in zip(nbrs.tolist(), keys.tolist()):
                assert wt[(min(src, y), max(src, y))] == k

    def test_payload_bytes_recorded(self, spark):
        g = gen.chung_lu(30, 4, 2.2, seed=0)
        ctx = RoundContext(model="ampc")
        store = build_sorted_adjacency(spark, g, ctx, edge_rank(g.u(), g.v()))
        rows = np.count_nonzero(np.diff(store.indptr))
        assert store.payload_bytes == (2 * 2 * g.m + rows) * 8
        assert ctx.kv_bytes == store.payload_bytes

    def test_indptr_well_formed(self, spark):
        g = gen.chung_lu(50, 5, 2.2, seed=4)
        store = build_sorted_adjacency(
            spark, g, RoundContext(model="ampc"), edge_rank(g.u(), g.v())
        )
        assert np.all(np.diff(store.indptr) >= 0)
        assert store.indptr[0] == 0 and store.indptr[-1] == len(store.dst) == len(store.key)
        assert np.array_equal(np.diff(store.indptr), np.bincount(np.r_[g.u(), g.v()]))

    def test_tied_keys_and_permuted_rows(self, spark):
        """Ties in ``key`` break by ``dst``, so the arrays do not depend on
        the order of the input rows; vertices without a neighbor and ids
        past the end read as empty."""
        built = []
        for seed in (0, 1):
            g = _star_tied(6, np.random.default_rng(seed).permutation(11))
            built.append(build_sorted_adjacency(spark, g, RoundContext(model="ampc"), g.w()))
        a, b = built
        for name in ("indptr", "dst", "key"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert a.get(0)[0].tolist() == [1, 2, 3, 4, 5, 6]
        assert a.get(3)[0].tolist() == [0, 2, 4]
        g = _star_tied(6, np.arange(11))
        g = GraphData(n=g.n + 1, edges=g.edges)  # vertex 7 has no edge
        store = build_sorted_adjacency(spark, g, RoundContext(model="ampc"))
        for x in (7, 8, 100):
            assert len(store.get(x)[0]) == 0

    def test_one_exchange_in_plan(self, spark, monkeypatch):
        """The logical shuffle is the only Exchange Spark executes."""
        ctx = RoundContext(model="ampc")
        plan = _executed_build_plan(spark, monkeypatch, ctx)
        final = plan.split("== Initial Plan ==")[0]
        exchanges = re.findall(r"(?<![A-Za-z])Exchange (\w+)\((\w+)#", final)
        assert exchanges == [("hashpartitioning", "src")]
        assert ctx.shuffles == 1

    def test_no_python_stage_in_plan(self, spark, monkeypatch):
        """The keys are computed on the driver: the build runs no Python
        worker stage."""
        plan = _executed_build_plan(spark, monkeypatch, RoundContext(model="ampc"))
        for node in ("MapInPandas", "PythonMapInArrow", "ArrowEvalPython", "BatchEvalPython"):
            assert node not in plan

    def test_edgeless(self, spark):
        none = np.empty(0, dtype=np.int64)
        g = GraphData(n=4, edges=pd.DataFrame({"u": none, "v": none}))
        ctx = RoundContext(model="ampc")
        store = build_sorted_adjacency(spark, g, ctx, edge_rank(g.u(), g.v()))
        assert len(store.dst) == len(store.key) == 0
        assert store.indptr.tolist() == [0]
        assert store.payload_bytes == 0 and ctx.shuffles == 1


def _executed_build_plan(spark, monkeypatch, ctx: RoundContext) -> str:
    """Executed plan of the exchange frame an edge-rank build collects."""
    built = []

    def spy(*args):
        built.append(exchange(*args))
        return built[-1]

    exchange = dht_mod.exchange_rows
    monkeypatch.setattr(dht_mod, "exchange_rows", spy)
    g = gen.chung_lu(50, 5, 2.2, seed=0)
    build_sorted_adjacency(spark, g, ctx, edge_rank(g.u(), g.v()))
    return built[0]._jdf.queryExecution().executedPlan().toString()


class TestAdaptiveRound:
    @pytest.mark.parametrize("n", [3, 1001])
    def test_slices_meters_and_order(self, spark, n):
        """Each task gets one ``spark.range(n)`` partition (so the same
        per-machine cache), ``ctx`` gains exactly the tasks' meter totals,
        and rows come back in id order."""

        def body(ids, store, meter):
            for x in ids:
                meter.lookup(words=1 + x % 3)
                if x % 2:
                    meter.hit()
            return [(x, store[x], tuple(ids)) for x in ids]

        ctx = RoundContext(model="ampc", queries=5, cache_hits=6, kv_bytes=7)
        rows = adaptive_round(spark, ctx, list(range(10, 10 + n)), np.arange(n), body)
        parts = [[r.id for r in p] for p in spark.range(n).rdd.glom().collect()]
        assert list(dict.fromkeys(s for _, _, s in rows)) == [tuple(p) for p in parts if p]
        assert [(x, y) for x, y, _ in rows] == [(x, 10 + x) for x in range(n)]
        assert ctx.queries == 5 + n
        assert ctx.cache_hits == 6 + n // 2
        assert ctx.kv_bytes == 7 + sum(8 * (1 + x % 3) for x in range(n))

    def test_empty_ids(self, spark):
        def body(ids, store, meter):  # pragma: no cover - never runs
            raise AssertionError("no task expected")

        ctx = RoundContext(model="ampc", queries=1, cache_hits=2, kv_bytes=3)
        assert adaptive_round(spark, ctx, None, [], body) == []
        assert (ctx.queries, ctx.cache_hits, ctx.kv_bytes) == (1, 2, 3)

    def test_releases_store_when_body_fails(self, spark, monkeypatch):
        """A body error in a worker propagates and the store's broadcast
        is still unpersisted, exactly once."""
        sc, released = spark.sparkContext, []
        broadcast = sc.broadcast

        def spy(value):
            bc = broadcast(value)
            unpersist = bc.unpersist
            monkeypatch.setattr(bc, "unpersist", lambda *a: released.append(unpersist(*a)))
            return bc

        def body(ids, store, meter):
            return [store[x] for x in ids]

        monkeypatch.setattr(sc, "broadcast", spy)
        # PySpark re-raises the worker's IndexError as its own exception type.
        with pytest.raises(Exception, match="IndexError"):
            adaptive_round(spark, RoundContext(model="ampc"), [0], np.arange(3), body)
        assert len(released) == 1


class TestCostModel:
    def test_zero_queries_is_wall(self):
        assert modeled_time(2.5, 0, "rdma") == 2.5

    def test_tcp_slower_than_rdma(self):
        assert modeled_time(1.0, 10**6, "tcp") > modeled_time(1.0, 10**6, "rdma")

    def test_latency_arithmetic(self):
        q = 1000
        assert modeled_time(1.0, q, "rdma", concurrency=1) == pytest.approx(
            1.0 + q * LATENCY_S["rdma"]
        )

    def test_unknown_transport(self):
        with pytest.raises(ValueError):
            modeled_time(1.0, 1, "carrier-pigeon")


class TestRoundContext:
    def test_shuffle_counting(self):
        ctx = RoundContext(model="mpc")
        ctx.shuffle()
        ctx.shuffle(3)
        assert ctx.shuffles == 4

    def test_barrier_counts_and_materializes(self, spark):
        ctx = RoundContext(model="mpc")
        df = spark.range(10).groupBy().count()
        out = ctx.barrier(df, shuffles=2)
        assert ctx.shuffles == 2
        assert out.collect()[0]["count"] == 10
