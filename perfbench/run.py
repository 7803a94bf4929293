"""Closed-loop benchmark of the AMPC and MPC implementations.

Run from the repository root:

    python3 perfbench/run.py --workload hl --seed 0 --seconds 30 --trace 0

One driver process issues one algorithm call at a time on a Spark
master pinned to ``local[4]``. Each workload times the AMPC and the MPC
implementation of maximal matching on one input (``perfbench/workloads.py``)
and checks every output against ``repro.reference``. The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``. ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` runs untraced calls, then traced
ones, and reports the per-layer metrics (see README.md).
"""
from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shlex
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# Pinned run configuration (README.md, "Configuration").
MASTER = "local[4]"
DRIVER_MEMORY = "4g"
SPARK_CONF = {
    "spark.sql.shuffle.partitions": "64",
    "spark.sql.execution.arrow.pyspark.enabled": "true",
    "spark.sql.autoBroadcastJoinThreshold": "-1",
    "spark.ui.enabled": "false",
    "spark.ui.showConsoleProgress": "false",
    "spark.driver.host": "127.0.0.1",
}
# Trace runs only: keep every job of a call in the status store.
TRACE_CONF = {"spark.ui.retainedJobs": "10000", "spark.ui.retainedStages": "20000"}


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return ap.parse_args(argv)


def _bootstrap() -> None:
    """Point the driver and the Python workers at ``src/`` and keep every
    file Spark writes inside ``perfbench/out``."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no program sources at {SRC}")
    tmp = OUT / "tmp"
    shutil.rmtree(tmp, ignore_errors=True)  # left by an earlier, killed run
    tmp.mkdir(parents=True)
    sys.path.insert(0, str(SRC))
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["TMPDIR"] = str(tmp)
    os.environ["SPARK_LOCAL_DIRS"] = str(tmp)
    # Every JVM, the spark-submit launcher's too: temp files under ``tmp``
    # and no hsperfdata file in the system temp directory.
    os.environ["JAVA_TOOL_OPTIONS"] = (
        f"-Djava.io.tmpdir={shlex.quote(str(tmp))} -XX:-UsePerfData"
    )
    os.environ["PYSPARK_SUBMIT_ARGS"] = (
        f"--master {MASTER} --driver-memory {DRIVER_MEMORY} pyspark-shell"
    )


def _start_spark(conf: dict):
    from pyspark.sql import SparkSession

    spark = SparkSession.builder.appName("perfbench").config(map=conf).getOrCreate()
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop Spark, then end the JVM it launched and wait for it."""
    from pyspark import SparkContext

    spark.stop()
    gateway = SparkContext._gateway
    if gateway is None:
        return
    proc = getattr(gateway, "proc", None)
    gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)


class Runner:
    """Times and checks the calls of one workload; keeps every observation.

    Each call record has ``kind`` "warmup", "timed" or "traced"; only
    timed calls feed the end-to-end metrics, only traced calls the
    per-layer ones, and every call counts in ``attempted``/``failed``.
    """

    def __init__(self, spark, g, expected) -> None:
        self.spark = spark
        self.g = g
        self.expected = expected
        self.calls: list[dict] = []

    def run_call(self, model: str, kind: str, tracer=None) -> dict:
        from repro.runtime import RoundContext
        from workloads import run_ampc, run_mpc

        ctx = RoundContext(model=model)
        fn = run_ampc if model == "ampc" else run_mpc
        rec = {"model": model, "kind": kind, "group": None, "error": None}
        if tracer is not None:
            rec["group"] = f"perfbench-{len(self.calls)}"
            self.spark.sparkContext.setJobGroup(rec["group"], f"{model} call")
        result = None
        # Garbage left by the previous call is not charged to this one.
        gc.collect()
        self.spark.sparkContext._jvm.System.gc()
        t0 = time.perf_counter()
        try:
            if tracer is None:
                result = fn(self.spark, self.g, ctx)
            else:
                with tracer.call(model) as span:
                    rec["span"] = span["id"]
                    result = fn(self.spark, self.g, ctx)
        except Exception:  # a failed call is counted, never retried
            rec["error"] = traceback.format_exc()
        rec["wall_s"] = time.perf_counter() - t0
        rec["edges"] = self.g.m
        rec["counts"] = {
            "shuffles": ctx.shuffles,
            "phases": ctx.phases,
            "queries": ctx.queries,
            "cache_hits": ctx.cache_hits,
            "kv_bytes": ctx.kv_bytes,
        }
        rec["ok"] = self._correct(rec, result)
        self.calls.append(rec)
        return rec

    def _correct(self, rec: dict, result) -> bool:
        from workloads import AMPC_SHUFFLES

        model = rec["model"]
        if rec["error"] is not None:
            why = f"raised\n{rec['error']}"
        elif result != self.expected:
            why = "output differs from the oracle"
        elif model == "ampc" and rec["counts"]["shuffles"] != AMPC_SHUFFLES:
            why = f"{rec['counts']['shuffles']} shuffles, expected {AMPC_SHUFFLES}"
        else:
            return True
        print(f"FAILED {rec['kind']} {model}: {why}", file=sys.stderr)
        return False

    def warm_up(self) -> float:
        """Run both call paths once on the workload's own input; return
        the wall. On a 4-core host, after a warm-up on a tiny graph, the
        first call on the real one still ran 20-70 % slower than later
        calls."""
        return sum(self.run_call(model, "warmup")["wall_s"] for model in ("ampc", "mpc"))

    def measure(
        self, seconds: float, kind: str = "timed", tracer=None, after_call=None
    ) -> None:
        """Closed loop: AMPC and MPC calls alternate, while the next call
        is expected to end within ``seconds``. Each runs at least once,
        and the two get the same number of calls, give or take one."""
        last: dict[str, float] = {}
        t0 = time.perf_counter()
        for model in itertools.cycle(("ampc", "mpc")):
            if len(last) == 2 and time.perf_counter() - t0 + last[model] > seconds:
                return
            rec = self.run_call(model, kind, tracer)
            if after_call is not None:
                after_call(rec)
            last[model] = rec["wall_s"]

    def of(self, kind: str, model: str | None = None) -> list[dict]:
        return [
            c for c in self.calls if c["kind"] == kind and model in (None, c["model"])
        ]


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _count_drift(calls: list[dict]) -> list[str]:
    """Counts that differ between calls of one implementation; should be none."""
    drift = []
    for model in ("ampc", "mpc"):
        seen = {json.dumps(c["counts"], sort_keys=True) for c in calls if c["model"] == model}
        if len(seen) > 1:
            drift.append(f"{model}: {sorted(seen)}")
    return drift


def _end_to_end(runner: Runner, setup_s: float) -> dict:
    timed = runner.of("timed")
    return {
        "ampc_s": (_median([c["wall_s"] for c in runner.of("timed", "ampc")]), "s"),
        "mpc_s": (_median([c["wall_s"] for c in runner.of("timed", "mpc")]), "s"),
        "edges_per_s": (
            sum(c["edges"] for c in timed) / sum(c["wall_s"] for c in timed),
            "edges/s",
        ),
        "setup_s": (setup_s, "s"),
        "driver_peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "MB",
        ),
    }


def _layer_row(c: dict, lay: dict, stage: dict, untraced_wall: float) -> dict:
    """Per-layer numbers of one traced call (README.md, "Per-layer metrics")."""
    from repro.ampc.cost import modeled_time

    counts = c["counts"]
    row = {
        "graphs.input_s": lay["input_s"],
        "core.finish_s": lay["finish_s"],
        "runtime.shuffles": counts["shuffles"],
        "spark.jobs": stage["jobs"],
        "spark.shuffle_write_bytes": stage["shuffle_write_bytes"],
        "spark.executor_run_s": stage["executor_run_s"],
        "spark.action_s": lay["action_s"],
        "spark.driver_s": lay["wall_s"] - lay["action_s"],
    }
    if c["model"] == "ampc":
        q, hits = counts["queries"], counts["cache_hits"]
        row |= {
            "dht.build_s": lay["dht_build_s"],
            "dht.payload_bytes": lay["dht_payload_bytes"],
            "dht.broadcast_s": lay["dht_broadcast_s"],
            "core.self_s": lay["self_s"],
            "core.queries": q,
            "core.us_per_query": lay["self_s"] / q * 1e6 if q else 0.0,
            "core.cache_hit_ratio": hits / (q + hits) if q + hits else 0.0,
            "cost.rdma_s": modeled_time(untraced_wall, q, "rdma"),
            "cost.tcp_s": modeled_time(untraced_wall, q, "tcp"),
        }
    else:
        phases = counts["phases"]
        loop_s = lay["wall_s"] - lay["input_s"] - lay["finish_s"]
        row |= {
            "runtime.phases": phases,
            "runtime.barrier_s": lay["barrier_s"],
            "runtime.s_per_phase": loop_s / phases if phases else 0.0,
        }
    return row


def _per_layer(runner: Runner, layers: dict, stats: dict, generate_s: float) -> dict:
    out: dict[str, float] = {}
    for model in ("ampc", "mpc"):
        untraced_wall = _median([c["wall_s"] for c in runner.of("timed", model)])
        rows = [
            _layer_row(c, layers[c["span"]], stats[c["span"]], untraced_wall)
            for c in runner.of("traced", model)
        ]
        for key in rows[0]:  # median_low keeps counts whole and observed
            out[f"{model}.{key}"] = statistics.median_low([r[key] for r in rows])
    out["graphs.generate_s"] = generate_s
    # Median wall per implementation, summed over the two, traced vs untraced.
    traced, untraced = (
        sum(_median([c["wall_s"] for c in runner.of(kind, m)]) for m in ("ampc", "mpc"))
        for kind in ("traced", "timed")
    )
    out["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
    return out


_UNITS = {
    "s_per_phase": "s",
    "_s": "s",
    "_bytes": "bytes",
    "_pct": "%",
    "_ratio": "ratio",
    "_per_query": "us",
}


def _unit(name: str) -> str:
    for suffix, unit in _UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def _trace_checks(runner: Runner, layers: dict) -> list[str]:
    """Consistency of the trace: child spans fit in their call, self >= 0."""
    problems = []
    for c in runner.of("traced"):
        lay = layers[c["span"]]
        if lay["children_s"] > lay["wall_s"]:
            problems.append(
                f"{c['model']} children {lay['children_s']} > wall {lay['wall_s']}"
            )
        if lay["self_s"] < 0:
            problems.append(f"{c['model']} core.self_s {lay['self_s']} < 0")
    return problems


def _traced_run(
    spark, runner: Runner, seconds: float, generate_s: float, config: dict
) -> dict:
    """Untraced calls for reference, then traced calls; per-layer metrics."""
    import spans

    runner.measure(seconds / 2)
    tracer = spans.Tracer()
    stats: dict[int, dict] = {}

    def read_stats(rec: dict) -> None:
        stats[rec["span"]] = spans.group_stats(spark.sparkContext, rec["group"])

    with spans.instrument(tracer, spark):
        runner.measure(seconds / 2, "traced", tracer, read_stats)
    layers = {c["span"]: spans.call_layers(tracer, c["span"]) for c in runner.of("traced")}
    metrics = _per_layer(runner, layers, stats, generate_s)
    problems = _trace_checks(runner, layers)
    path = OUT / f"trace-{config['workload']}-seed{config['seed']}.json"
    tracer.dump(
        path,
        config=config,
        calls=[{k: v for k, v in c.items() if k != "error"} for c in runner.calls],
        layers=layers,
        stage_stats=stats,
        problems=problems,
    )
    print(f"trace written to {path.relative_to(ROOT)}")
    for p in problems:
        print(f"TRACE CHECK FAILED: {p}")
    return metrics


def main(argv=None) -> int:
    args = _parse(argv)
    _bootstrap()
    sys.path.insert(0, str(BENCH))
    from repro.mpc import DEFAULT_CUTOFF_EDGES
    from workloads import WORKLOADS, make_input, oracle

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; have {sorted(WORKLOADS)}")

    t0 = time.perf_counter()
    conf = SPARK_CONF | (TRACE_CONF if args.trace else {})
    spark = _start_spark(conf)
    try:
        start_s = time.perf_counter() - t0
        t0 = time.perf_counter()
        g = make_input(args.workload, args.seed)
        generate_s = time.perf_counter() - t0
        # The oracle is the benchmark's own cost: outside every timing.
        t0 = time.perf_counter()
        expected = oracle(g)
        oracle_s = time.perf_counter() - t0

        runner = Runner(spark, g, expected)
        warmup_s = runner.warm_up()
        setup_s = start_s + generate_s + warmup_s

        config = {
            "workload": args.workload,
            "seed": args.seed,
            "n": g.n,
            "m": g.m,
            "master": spark.sparkContext.master,
            "defaultParallelism": spark.sparkContext.defaultParallelism,
            "driver_memory": DRIVER_MEMORY,
            "cutoff_edges": DEFAULT_CUTOFF_EDGES,
            "spark_conf": conf,
        }
        print("config " + json.dumps(config, sort_keys=True))
        if args.trace:
            metrics = _traced_run(spark, runner, args.seconds, generate_s, config)
        else:
            runner.measure(args.seconds)
            metrics = _end_to_end(runner, setup_s)
    finally:
        _stop_spark(spark)

    failed = sum(not c["ok"] for c in runner.calls)
    print(
        f"setup: start_s {start_s} generate_s {generate_s} "
        f"warmup_s {warmup_s} oracle_s {oracle_s}"
    )
    for model in ("ampc", "mpc"):
        walls = {
            kind: [c["wall_s"] for c in runner.of(kind, model)]
            for kind in ("warmup", "timed", "traced")
        }
        counts = runner.of("warmup", model)[0]["counts"]
        print(f"{model} walls_s {json.dumps(walls)} counts {json.dumps(counts, sort_keys=True)}")
    for drift in _count_drift(runner.calls):
        print(f"COUNT DRIFT {drift}")
    print(f"failed_share {failed}/{len(runner.calls)}")
    result = {
        "correct": failed == 0,
        "attempted": len(runner.calls),
        "failed": failed,
        "metrics": {},
    }
    for name, value in metrics.items():
        value, unit = value if isinstance(value, tuple) else (value, _unit(name))
        print(f"metric {name} {value} {unit}")
        result["metrics"][name] = {"value": value, "unit": unit}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
