"""Tests for the synthetic graph generators (Table 2 stand-ins)."""
import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.graphs import generators as gen
from repro.oracle import assert_equivalent


def _assert_canonical(g: gen.GraphData):
    u, v = g.u(), g.v()
    assert (u < v).all(), "edges must be canonically oriented u < v"
    assert u.min() >= 0 and v.max() < g.n
    key = u * g.n + v
    assert len(np.unique(key)) == len(key), "duplicate edges"


@pytest.mark.parametrize("name", sorted(gen.DATASETS))
def test_dataset_canonical(name):
    _assert_canonical(gen.dataset(name))


@pytest.mark.parametrize("name", sorted(gen.DATASETS))
def test_dataset_deterministic(name):
    a = gen.dataset(name, seed=0).edges
    b = gen.dataset(name, seed=0).edges
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.parametrize("name", sorted(gen.DATASETS))
def test_dataset_seed_sensitivity(name):
    a = gen.dataset(name, seed=0).edges
    b = gen.dataset(name, seed=1).edges
    assert not a.equals(b)


def test_chung_lu_sizes():
    g = gen.chung_lu(1000, 10, 2.3, seed=0)
    assert g.n == 1000
    # candidate edges n*avg/2 minus dedupe/self-loop losses plus spine
    assert 0.5 * 1000 * 10 / 2 < g.m < 1.3 * 1000 * 10 / 2 + 1000


def test_chung_lu_heavy_tail():
    mild = gen.chung_lu(2000, 20, 2.6, seed=0, spine=False)
    heavy = gen.chung_lu(2000, 20, 1.85, seed=0, spine=False)

    def max_deg(g):
        deg = np.zeros(g.n, dtype=np.int64)
        np.add.at(deg, g.u(), 1)
        np.add.at(deg, g.v(), 1)
        return deg.max()

    assert max_deg(heavy) > 1.5 * max_deg(mild)


def test_chung_lu_spine_connects():
    g = gen.chung_lu(500, 4, 2.3, seed=1, spine=True)
    labels = ref.connected_components(g.n, g.u(), g.v())
    assert len(set(labels.tolist())) == 1


def test_chung_lu_no_spine_may_disconnect():
    g = gen.chung_lu(500, 2, 2.3, seed=1, spine=False)
    labels = ref.connected_components(g.n, g.u(), g.v())
    assert len(set(labels.tolist())) > 1


def test_multi_component_structure():
    giant = gen.chung_lu(300, 8, 2.3, seed=0, name="G")
    g = gen.multi_component(giant, n_small=60, small_comp_size=4, seed=1)
    labels = ref.connected_components(g.n, g.u(), g.v())
    sizes = ref.component_sizes(labels)
    assert sizes[0] >= 300
    assert len(sizes) > 10


def test_hl_dataset_many_components():
    g = gen.dataset("HL")
    labels = ref.connected_components(g.n, g.u(), g.v())
    sizes = ref.component_sizes(labels)
    assert len(sizes) > 100  # paper: 144.6M comps at full scale
    assert sizes[0] > 0.8 * 32_000


class TestCycles:
    @pytest.mark.parametrize("n,two", [(10, False), (10, True), (1000, False), (1000, True)])
    def test_cycle_graph_degrees(self, n, two):
        g = gen.cycle_graph(n, two=two)
        deg = np.zeros(g.n, dtype=np.int64)
        np.add.at(deg, g.u(), 1)
        np.add.at(deg, g.v(), 1)
        assert (deg == 2).all()
        assert g.m == n

    @pytest.mark.parametrize("n", [8, 100])
    def test_cycle_component_counts(self, n):
        one = gen.cycle_graph(n, two=False)
        two = gen.cycle_graph(n, two=True)
        assert len(set(ref.connected_components(n, one.u(), one.v()).tolist())) == 1
        assert len(set(ref.connected_components(n, two.u(), two.v()).tolist())) == 2

    def test_two_cycle_odd_rejected(self):
        with pytest.raises(ValueError):
            gen.cycle_graph(9, two=True)


class TestWeights:
    def test_degree_weights_distinct(self):
        g = gen.with_degree_weights(gen.dataset("OK"))
        w = g.w()
        assert len(np.unique(w)) == len(w)

    def test_degree_weights_formula(self):
        g = gen.chung_lu(100, 6, 2.3, seed=0)
        gw = gen.with_degree_weights(g)
        u, v, w = gw.u(), gw.v(), gw.w()
        deg = np.zeros(g.n, dtype=np.int64)
        np.add.at(deg, u, 1)
        np.add.at(deg, v, 1)
        base = (deg[u] + deg[v]).astype(float)
        assert ((w > base) & (w < base + 1)).all()

    def test_weights_deterministic(self):
        a = gen.with_degree_weights(gen.dataset("OK")).w()
        b = gen.with_degree_weights(gen.dataset("OK")).w()
        assert np.array_equal(a, b)


def test_edge_counts_vs_duckdb_oracle(spark):
    """Table 2's m column: Spark count == DuckDB count over same edges."""
    g = gen.dataset("OK")
    df = g.to_spark(spark)
    from pyspark.sql import functions as F

    got = df.agg(F.count(F.lit(1)).alias("m"))
    assert_equivalent(got, "SELECT count(*) AS m FROM edges", edges=g.edges)


def test_degree_distribution_vs_duckdb_oracle(spark):
    """Degrees via Spark SQL == degrees via DuckDB SQL (join-skew input)."""
    g = gen.chung_lu(300, 8, 2.0, seed=2)
    df = g.to_spark(spark)
    from pyspark.sql import functions as F

    sym = df.select("u", "v").union(df.select(F.col("v").alias("u"), F.col("u").alias("v")))
    got = sym.groupBy("u").agg(F.count(F.lit(1)).alias("deg"))
    assert_equivalent(
        got,
        """
        SELECT u, count(*) AS deg FROM (
          SELECT u, v FROM edges UNION ALL SELECT v AS u, u AS v FROM edges
        ) GROUP BY u
        """,
        edges=g.edges,
    )


class TestParallelFrame:
    """Graph-sized edge tables enter Spark as ``defaultParallelism``
    Arrow partitions, never as a plan-inlined ``LocalRelation``."""

    KEYS = (gen._LOCAL_RELATION_THRESHOLD, gen._MAX_RECORDS_PER_BATCH)

    @pytest.mark.parametrize(
        "g",
        [
            gen.with_degree_weights(gen.chung_lu(300, 6, 2.2, seed=1)),
            gen.GraphData(n=3, edges=pd.DataFrame({"u": [0, 1], "v": [1, 2]}, dtype=np.int64)),
        ],
        ids=["many_rows", "two_rows"],
    )
    def test_partitions_and_no_local_relation(self, spark, g):
        df = g.to_spark(spark)
        assert df.rdd.getNumPartitions() == min(spark.sparkContext.defaultParallelism, g.m)
        assert "LocalRelation" not in df._jdf.queryExecution().analyzed().toString()

    def test_rows_round_trip(self, spark):
        g = gen.with_degree_weights(gen.chung_lu(200, 5, 2.2, seed=4))
        got = g.to_spark(spark).toPandas().sort_values(["u", "v"], ignore_index=True)
        pd.testing.assert_frame_equal(got, g.edges.sort_values(["u", "v"], ignore_index=True))
        assert list(got.dtypes) == [np.int64, np.int64, np.float64]

    def test_confs_restored_when_unset(self, spark):
        for key in self.KEYS:
            spark.conf.unset(key)
        gen.parallel_frame(spark, pd.DataFrame({"u": [1, 2, 3]}), "u long")
        assert [spark.conf.get(key, None) for key in self.KEYS] == [None, None]

    def test_confs_restored_when_set(self, spark):
        custom = {gen._LOCAL_RELATION_THRESHOLD: "1234", gen._MAX_RECORDS_PER_BATCH: "77"}
        try:
            for key, value in custom.items():
                spark.conf.set(key, value)
            gen.parallel_frame(spark, pd.DataFrame({"u": [1, 2, 3]}), "u long")
            assert {key: spark.conf.get(key) for key in self.KEYS} == custom
        finally:
            for key in self.KEYS:
                spark.conf.unset(key)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_edgeless_keeps_schema(self, spark, weighted):
        none = np.empty(0, dtype=np.int64)
        cols = {"u": none, "v": none} | ({"w": np.empty(0)} if weighted else {})
        df = gen.GraphData(n=5, edges=pd.DataFrame(cols)).to_spark(spark)
        want = [("u", "bigint"), ("v", "bigint")] + ([("w", "double")] if weighted else [])
        assert df.dtypes == want
        assert df.count() == 0
