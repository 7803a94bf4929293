"""Shared round accounting for the AMPC and MPC simulations.

The unit both the paper and this reproduction count is the *shuffle*: a
regroup-by-key barrier (Flume GroupByKey; Spark wide dependency). A
``RoundContext`` travels through every algorithm and is incremented at
each logical shuffle; iterative MPC loops additionally materialize each
round (``barrier``) with ``localCheckpoint`` so the shuffle really runs
and lineage does not snowball.

A Spark join physically exchanges both inputs, but is *one* logical
shuffle (one cogroup), which is what Flume counts — DESIGN.md §2.
"""
from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from pyspark.sql import DataFrame, SparkSession


@dataclass
class RoundContext:
    """Metering for one algorithm execution.

    Attributes
    ----------
    model: "ampc" or "mpc".
    shuffles: logical shuffle count — the Table 3 number.
    phases: iterations of the outer loop (MPC) — paper §5.5/5.6 report these.
    queries / cache_hits: DHT traffic (AMPC only). ``queries`` counts
        *uncached* lookups that would hit the network; ``cache_hits``
        counts lookups served by the per-machine cache.
    kv_bytes: modeled bytes moved to/from the DHT (8 bytes per id/weight).
    notes: free-form extras (e.g. max pointer-jump length).
    """

    model: str
    shuffles: int = 0
    phases: int = 0
    queries: int = 0
    cache_hits: int = 0
    kv_bytes: int = 0
    notes: dict = field(default_factory=dict)

    def shuffle(self, k: int = 1) -> None:
        self.shuffles += k

    def barrier(self, df: DataFrame, shuffles: int = 1) -> DataFrame:
        """Count ``shuffles`` and force execution of ``df`` now.

        ``localCheckpoint(eager=True)`` materializes the plan (running
        its shuffles) and truncates lineage — mandatory inside MPC
        iteration loops, harmless elsewhere.
        """
        self.shuffle(shuffles)
        return df.localCheckpoint(eager=True)


@contextmanager
def session_conf(spark: SparkSession, conf: dict[str, str]):
    """Set the session confs ``conf`` for the block and restore the
    caller's values (or unset them) afterwards, also when it raises."""
    saved = {key: spark.conf.get(key, None) for key in conf}
    try:
        for key, value in conf.items():
            spark.conf.set(key, value)
        yield
    finally:
        for key, value in saved.items():
            if value is None:
                spark.conf.unset(key)
            else:
                spark.conf.set(key, value)


def mpc_scope(spark: SparkSession):
    """Session scope of an MPC phase loop: ``P = defaultParallelism``
    shuffle partitions, one per simulated machine, and adaptive query
    execution off. Then every barrier's output stays hash-partitioned
    on its key into ``P`` parts through ``localCheckpoint``, and the
    next phase joins it in place instead of exchanging it again
    (DESIGN.md §2, "MPC loop scope")."""
    return session_conf(spark, {
        "spark.sql.shuffle.partitions": str(spark.sparkContext.defaultParallelism),
        "spark.sql.adaptive.enabled": "false",
    })
