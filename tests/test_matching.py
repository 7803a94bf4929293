"""Maximal matching: AMPC (both Theorem 2 variants) + MPC vs greedy oracle,
the rootset phase MPC matching shares with MPC MIS, and the phase plans
and session scope of every MPC loop (rootset and contraction)."""
import re

import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.ampc.dht import CSRStore, Meter
from repro.core.cycle import mpc_cycle_cc
from repro.core.matching import (
    _vertex_process,
    ampc_matching_loglog,
    ampc_maximal_matching,
    mpc_maximal_matching,
)
from repro.core.mis import mpc_mis
from repro.core.msf import mpc_msf
from repro.graphs import generators as gen
from repro.hashing import edge_rank
from repro.runtime import RoundContext


def _path(n):
    return gen.GraphData(
        n=n,
        edges=pd.DataFrame(
            {"u": np.arange(n - 1, dtype=np.int64), "v": np.arange(1, n, dtype=np.int64)}
        ),
        name="path",
    )


GRAPHS = [
    ("path", _path(9)),
    ("cycle", gen.cycle_graph(14, two=False)),
    ("two_cycles", gen.cycle_graph(12, two=True)),
    ("cl_small", gen.chung_lu(60, 5, 2.2, seed=1)),
    ("cl_mid", gen.chung_lu(150, 8, 2.0, seed=2)),
]


@pytest.mark.parametrize("name,g", GRAPHS, ids=[n for n, _ in GRAPHS])
@pytest.mark.parametrize("seed", [0, 7])
def test_ampc_matching_equals_greedy(spark, name, g, seed):
    got = ampc_maximal_matching(spark, g, seed=seed).edges
    want = ref.greedy_matching(g.n, g.u(), g.v(), seed)
    assert got == want


@pytest.mark.parametrize("name,g", GRAPHS[:4], ids=[n for n, _ in GRAPHS[:4]])
def test_mpc_matching_equals_greedy(spark, name, g):
    got = mpc_maximal_matching(spark, g, seed=0, cutoff_edges=0).edges
    want = ref.greedy_matching(g.n, g.u(), g.v(), 0)
    assert got == want


def test_ampc_and_mpc_identical(spark):
    g = gen.chung_lu(120, 6, 2.1, seed=3)
    a = ampc_maximal_matching(spark, g, seed=5).edges
    b = mpc_maximal_matching(spark, g, seed=5, cutoff_edges=0).edges
    assert a == b


def test_ampc_matching_single_shuffle_untruncated(spark):
    g = gen.chung_lu(100, 6, 2.2, seed=1)
    ctx = RoundContext(model="ampc")
    ampc_maximal_matching(spark, g, seed=0, ctx=ctx)
    assert ctx.shuffles == 1 and ctx.phases == 1
    assert ctx.queries > 0


def test_ampc_matching_truncated_multiround(spark):
    """Lemma 4.7: with a finite n^eps budget the process needs a few
    applications but still produces the exact greedy matching."""
    g = gen.chung_lu(100, 8, 2.0, seed=2)
    ctx = RoundContext(model="ampc")
    got = ampc_maximal_matching(spark, g, seed=0, budget=24, ctx=ctx).edges
    assert got == ref.greedy_matching(g.n, g.u(), g.v(), 0)
    assert ctx.phases >= 1  # may need several applications


def test_edge_row_order_leaves_queries_unchanged(spark):
    """Edge ingest never changes query semantics: the per-partition caches
    follow the vertex frame, not the order of the edge rows."""
    g = gen.chung_lu(500, 8, 2.2, seed=0)
    runs = []
    for perm_seed in (1, 2):
        perm = np.random.default_rng(perm_seed).permutation(g.m)
        shuffled = gen.GraphData(n=g.n, edges=g.edges.iloc[perm].reset_index(drop=True))
        ctx = RoundContext(model="ampc")
        edges = ampc_maximal_matching(spark, shuffled, seed=0, ctx=ctx).edges
        runs.append((edges, ctx.queries, ctx.cache_hits, ctx.kv_bytes))
    assert runs[0] == runs[1]
    assert runs[0][0] == ref.greedy_matching(g.n, g.u(), g.v(), 0)


@pytest.mark.parametrize(
    "cache,budget,queries,hits,unsettled",
    [
        (True, 0, 1754, 248, []),
        (False, 0, 7778, 2793, []),
        (True, 24, 1750, 232, [28, 40, 44, 68, 84, 131, 135, 209]),
    ],
    ids=["cache", "no_cache", "budget24"],
)
def test_vertex_process_pinned(cache, budget, queries, hits, unsettled):
    """The round's per-partition query process with every vertex in one
    partition, on the edge-rank CSR of ``chung_lu(500, 8, 2.2)``: pinned
    query and cache-hit counts. Rows are the greedy matching's, except
    that a vertex cut off by its budget reads ``(x, -1, False)``."""
    g = gen.chung_lu(500, 8, 2.2)
    src, dst = np.r_[g.u(), g.v()], np.r_[g.v(), g.u()]
    store = CSRStore.from_rows(src, dst, edge_rank(src, dst, 0))
    ids = np.unique(src).tolist()
    meter = Meter()
    rows = _vertex_process(ids, store, meter, cache, budget)
    matching = ref.greedy_matching(g.n, g.u(), g.v(), 0)
    mate = {x: y for a, b in matching for x, y in ((a, b), (b, a))}
    assert rows == [
        (x, -1, False) if x in unsettled else (x, mate.get(x, -1), True) for x in ids
    ]
    assert (meter.queries, meter.cache_hits) == (queries, hits)


def test_ampc_matching_cache_reduces_queries(spark):
    g = gen.chung_lu(140, 8, 2.0, seed=2)
    on, off = RoundContext(model="ampc"), RoundContext(model="ampc")
    r_on = ampc_maximal_matching(spark, g, seed=0, cache=True, ctx=on)
    r_off = ampc_maximal_matching(spark, g, seed=0, cache=False, ctx=off)
    assert r_on.edges == r_off.edges
    assert off.queries > on.queries


@pytest.mark.parametrize("seed", [0, 3])
def test_ampc_matching_valid_and_maximal(spark, seed):
    g = gen.chung_lu(200, 7, 2.1, seed=6)
    m = ampc_maximal_matching(spark, g, seed=seed).edges
    assert ref.is_matching(m)
    assert ref.is_maximal_matching(g.u(), g.v(), m)


@pytest.mark.parametrize("name,g", GRAPHS[:3] + GRAPHS[4:], ids=lambda p: p if isinstance(p, str) else "")
def test_loglog_variant_equals_greedy(spark, name, g):
    got = ampc_matching_loglog(spark, g, seed=0).edges
    want = ref.greedy_matching(g.n, g.u(), g.v(), 0)
    assert got == want


def test_mpc_matching_shuffle_accounting(spark):
    g = gen.chung_lu(90, 6, 2.2, seed=1)
    ctx = RoundContext(model="mpc")
    mpc_maximal_matching(spark, g, seed=0, cutoff_edges=0, ctx=ctx)
    assert ctx.phases >= 1
    assert ctx.shuffles == 2 * ctx.phases


class _PlanCtx(RoundContext):
    """Records the executed plan of every barrier."""

    def __init__(self, **kw):
        super().__init__(**kw)
        self.plans: list[str] = []

    def barrier(self, df, shuffles=1):
        self.plans.append(df._jdf.queryExecution().executedPlan().toString())
        return super().barrier(df, shuffles)


_PYTHON_NODES = ("MapInPandas", "PythonMapInArrow", "ArrowEvalPython", "BatchEvalPython")


def _check_phase_plans(spark, fn):
    """Each phase of ``fn`` is one barrier whose executed plan exchanges
    exactly its 2 logical shuffles, each over partially aggregated
    messages, and runs no Python: the adjacency relation keeps its
    partitioning on ``id`` through ``localCheckpoint`` and is never
    exchanged again."""
    g = gen.chung_lu(90, 6, 2.2, seed=1)
    ctx = _PlanCtx(model="mpc")
    fn(spark, g, seed=0, cutoff_edges=0, ctx=ctx)
    assert len(ctx.plans) == ctx.phases >= 2
    for plan in ctx.plans:
        lines = plan.splitlines()
        exchanges = [i for i, line in enumerate(lines) if re.match(r"[\s:+-]*Exchange ", line)]
        assert len(exchanges) == 2, plan
        assert all("partial_" in lines[i + 1] for i in exchanges), plan
        assert not any(node in plan for node in _PYTHON_NODES), plan


def test_mpc_matching_phase_plan_has_two_exchanges(spark):
    _check_phase_plans(spark, mpc_maximal_matching)


def test_mpc_mis_phase_plan_has_two_exchanges(spark):
    _check_phase_plans(spark, mpc_mis)


def _star(leaves):
    return gen.GraphData(
        n=leaves + 1,
        edges=pd.DataFrame({"u": np.zeros(leaves, np.int64), "v": np.arange(1, leaves + 1)}),
    )


def _components():
    a, b = gen.chung_lu(60, 5, 2.2, seed=1), gen.chung_lu(40, 4, 2.2, seed=2)
    edges = pd.concat([a.edges, b.edges + a.n], ignore_index=True)
    return gen.GraphData(n=a.n + b.n, edges=edges)


SHAPES = [
    ("star", _star(8)),
    ("path", _path(9)),
    ("disjoint_edges", gen.GraphData(
        n=10, edges=pd.DataFrame({"u": np.arange(0, 10, 2), "v": np.arange(1, 10, 2)}))),
    ("isolated", gen.GraphData(n=12, edges=gen.cycle(7, offset=2))),
    ("two_components", _components()),
]


def _on_shapes(test):
    test = pytest.mark.parametrize("mid_cutoff", [False, True], ids=["cutoff0", "cutoff_mid"])(test)
    return pytest.mark.parametrize("name,g", SHAPES, ids=[n for n, _ in SHAPES])(test)


def _check_shape(spark, fn, output, oracle, g, mid_cutoff):
    """``fn``'s ``output`` equals its oracle with the in-memory finish
    at no edges or at half of them, in 2 shuffles per phase."""
    ctx = RoundContext(model="mpc")
    cutoff = g.m // 2 if mid_cutoff else 0
    got = getattr(fn(spark, g, seed=0, cutoff_edges=cutoff, ctx=ctx), output)
    assert got == oracle(g.n, g.u(), g.v(), 0)
    assert ctx.phases >= 1 and ctx.shuffles == 2 * ctx.phases


@_on_shapes
def test_mpc_matching_shapes_equal_greedy(spark, name, g, mid_cutoff):
    _check_shape(spark, mpc_maximal_matching, "edges", ref.greedy_matching, g, mid_cutoff)


@_on_shapes
def test_mpc_mis_shapes_equal_greedy(spark, name, g, mid_cutoff):
    _check_shape(spark, mpc_mis, "members", ref.greedy_mis, g, mid_cutoff)


def _check_contraction_plans(spark, monkeypatch, fn, g, cutoff):
    """Every frame a contraction loop materialises, its relabel barriers
    and its shuffle-1 and residual collects, runs no Python, in 3
    shuffles per phase (on inputs where every phase merges: a phase that
    merges nothing runs only its shuffle 1)."""
    ctx = _PlanCtx(model="mpc")
    collects: list[str] = []
    frame = type(spark.range(1))
    to_pandas = frame.toPandas

    def spy(df):
        collects.append(df._jdf.queryExecution().executedPlan().toString())
        return to_pandas(df)

    monkeypatch.setattr(frame, "toPandas", spy)
    fn(spark, g, seed=0, cutoff_edges=cutoff, ctx=ctx)
    assert ctx.phases >= 2 and ctx.shuffles == 3 * ctx.phases
    assert len(ctx.plans) == 2 * ctx.phases and len(collects) == ctx.phases + 1
    for plan in ctx.plans + collects:
        assert not any(node in plan for node in _PYTHON_NODES), plan


def test_mpc_msf_phase_runs_no_python(spark, monkeypatch):
    g = gen.with_degree_weights(gen.chung_lu(100, 6, 2.2, seed=1))
    _check_contraction_plans(spark, monkeypatch, mpc_msf, g, cutoff=0)


def test_mpc_cycle_phase_runs_no_python(spark, monkeypatch):
    g = gen.cycle_graph(500, two=False)
    _check_contraction_plans(spark, monkeypatch, mpc_cycle_cc, g, cutoff=50)


_SCOPED = ("spark.sql.shuffle.partitions", "spark.sql.adaptive.enabled")
_LOOPS = [
    ("matching", mpc_maximal_matching, gen.chung_lu(60, 5, 2.2, seed=1)),
    ("mis", mpc_mis, gen.chung_lu(60, 5, 2.2, seed=1)),
    ("msf", mpc_msf, gen.with_degree_weights(gen.chung_lu(60, 5, 2.2, seed=1))),
    ("cycle", mpc_cycle_cc, gen.cycle_graph(200, two=True)),
]


@pytest.mark.parametrize("fn,g", [loop[1:] for loop in _LOOPS], ids=[loop[0] for loop in _LOOPS])
def test_mpc_loop_restores_session_conf(spark, fn, g):
    """The MPC loop scope pins its confs only inside the call, and the
    caller's values come back also when the call raises."""
    saved = {key: spark.conf.get(key) for key in _SCOPED}
    caller = {"spark.sql.shuffle.partitions": "7", "spark.sql.adaptive.enabled": "true"}
    try:
        for key, value in caller.items():
            spark.conf.set(key, value)
        fn(spark, g, seed=0, cutoff_edges=0)
        assert {key: spark.conf.get(key) for key in _SCOPED} == caller
        with pytest.raises(RuntimeError, match="converge"):
            fn(spark, g, seed=0, cutoff_edges=0, max_phases=0)
        assert {key: spark.conf.get(key) for key in _SCOPED} == caller
    finally:
        for key, value in saved.items():
            spark.conf.set(key, value)


def test_mpc_matching_cutoff_pure_inmemory(spark):
    g = gen.chung_lu(80, 5, 2.2, seed=4)
    ctx = RoundContext(model="mpc")
    got = mpc_maximal_matching(spark, g, seed=0, cutoff_edges=10**9, ctx=ctx).edges
    assert got == ref.greedy_matching(g.n, g.u(), g.v(), 0)
    assert ctx.shuffles == 0


def test_single_edge_graph(spark):
    g = gen.GraphData(n=2, edges=pd.DataFrame({"u": [0], "v": [1]}), name="e")
    assert ampc_maximal_matching(spark, g).edges == {(0, 1)}
