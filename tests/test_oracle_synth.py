"""The DuckDB oracle (``repro.oracle.assert_equivalent``) on graph edge
tables from ``repro.graphs.generators``."""
import pytest
from pyspark.sql import functions as F

from repro.graphs import generators as gen
from repro.oracle import assert_equivalent

G = gen.with_degree_weights(gen.chung_lu(500, 6, 2.2, seed=0))


class TestOracle:
    def test_passes_on_equal(self, spark):
        e = G.to_spark(spark)
        got = e.groupBy("u").agg(F.count(F.lit(1)).alias("cnt"), F.sum("w").alias("wsum"))
        assert_equivalent(
            got,
            "SELECT u, count(*) AS cnt, sum(w) AS wsum FROM edges GROUP BY u",
            edges=e,
        )

    def test_catches_wrong_aggregate(self, spark):
        e = G.to_spark(spark)
        wrong = e.groupBy("u").agg((F.count(F.lit(1)) + 1).alias("cnt"))
        with pytest.raises(AssertionError):
            assert_equivalent(
                wrong, "SELECT u, count(*) AS cnt FROM edges GROUP BY u", edges=e
            )

    def test_catches_column_mismatch(self, spark):
        e = G.to_spark(spark)
        got = e.agg(F.count(F.lit(1)).alias("n_rows"))
        with pytest.raises(AssertionError, match="column mismatch"):
            assert_equivalent(got, "SELECT count(*) AS other FROM edges", edges=e)

    def test_join_equivalence_on_shuffle_path(self, spark):
        """Joins run on the shuffle path (broadcast disabled in fixture):
        count the 2-paths u -> v -> x leaving each vertex."""
        e = G.to_spark(spark)
        a, b = e.alias("a"), e.alias("b")
        got = (
            a.join(b, F.col("a.v") == F.col("b.u"))
            .groupBy(F.col("a.u").alias("u"))
            .agg(F.count(F.lit(1)).alias("cnt"))
        )
        assert_equivalent(
            got,
            "SELECT a.u AS u, count(*) AS cnt FROM edges a "
            "JOIN edges b ON a.v = b.u GROUP BY a.u",
            edges=e,
        )

    def test_accepts_pandas_tables(self, spark):
        got = G.to_spark(spark).groupBy("v").agg(F.sum("w").alias("s"))
        assert_equivalent(
            got, "SELECT v, sum(w) AS s FROM edges GROUP BY v", edges=G.edges
        )
