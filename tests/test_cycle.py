"""1-vs-2-Cycle: both models must distinguish the inputs exactly."""
import numpy as np
import pandas as pd
import pytest

from repro.core.cycle import ampc_one_vs_two_cycle, mpc_cycle_cc
from repro.graphs import generators as gen
from repro.runtime import RoundContext


@pytest.mark.parametrize("n", [64, 1000])
@pytest.mark.parametrize("two", [False, True])
def test_ampc_cycle_answer(spark, n, two):
    g = gen.cycle_graph(n, two=two)
    res = ampc_one_vs_two_cycle(spark, g, p=1 / 8, seed=0)
    assert res.n_components == (2 if two else 1)


def _cycles(*sizes):
    offsets = np.cumsum((0,) + sizes[:-1])
    edges = pd.concat([gen.cycle(k, offset=o) for k, o in zip(sizes, offsets)], ignore_index=True)
    return gen.GraphData(n=sum(sizes), edges=edges)


# Small cycles contract to a single vertex, and leave the relation,
# long before the cutoff; they must still be counted.
MPC_CYCLES = [
    ("False", gen.cycle_graph(600, two=False), 1),
    ("True", gen.cycle_graph(600, two=True), 2),
    ("c3+c597", _cycles(3, 597), 2),
    ("3xc3+c591", _cycles(3, 3, 3, 591), 4),
]


@pytest.mark.parametrize("g,want", [c[1:] for c in MPC_CYCLES], ids=[c[0] for c in MPC_CYCLES])
def test_mpc_cycle_answer(spark, g, want):
    assert mpc_cycle_cc(spark, g, seed=0, cutoff_edges=50).n_components == want


def test_ampc_cycle_single_shuffle_and_queries(spark):
    g = gen.cycle_graph(512, two=True)
    ctx = RoundContext(model="ampc")
    ampc_one_vs_two_cycle(spark, g, p=1 / 8, seed=0, ctx=ctx)
    assert ctx.shuffles == 1
    assert ctx.queries == 2 * g.m  # each edge walked exactly twice


def test_ampc_cycle_seed_robust(spark):
    g = gen.cycle_graph(256, two=True)
    for seed in range(4):
        assert ampc_one_vs_two_cycle(spark, g, p=1 / 8, seed=seed).n_components == 2


def test_ampc_cycle_unsampled_cycle_detected(spark):
    """With absurdly small p, the coverage invariant must trip, not
    silently return a wrong answer."""
    g = gen.cycle_graph(64, two=True)
    with pytest.raises(ValueError):
        # p tuned so that (w.h.p. for this seed) one cycle has no sample.
        ampc_one_vs_two_cycle(spark, g, p=1 / 60, seed=3)


def test_mpc_cycle_shuffle_accounting(spark):
    g = gen.cycle_graph(500, two=False)
    ctx = RoundContext(model="mpc")
    mpc_cycle_cc(spark, g, seed=0, cutoff_edges=50, ctx=ctx)
    assert ctx.phases >= 2
    assert ctx.shuffles == 3 * ctx.phases


def test_mpc_cycle_pure_inmemory(spark):
    g = gen.cycle_graph(100, two=True)
    ctx = RoundContext(model="mpc")
    res = mpc_cycle_cc(spark, g, seed=0, cutoff_edges=10**6, ctx=ctx)
    assert res.n_components == 2 and ctx.shuffles == 0


def test_mpc_cycle_shrink_factor(spark):
    """The baseline's per-iteration shrink is a constant factor (~1.6x),
    so iterations grow ~log(n) — the Table 4 shape driver."""
    small = RoundContext(model="mpc")
    big = RoundContext(model="mpc")
    mpc_cycle_cc(spark, gen.cycle_graph(400, two=False), cutoff_edges=20, ctx=small)
    mpc_cycle_cc(spark, gen.cycle_graph(3200, two=False), cutoff_edges=20, ctx=big)
    assert big.phases > small.phases


def _graph(n, u, v):
    edges = pd.DataFrame({"u": np.array(u, dtype=np.int64), "v": np.array(v, dtype=np.int64)})
    return gen.GraphData(n=n, edges=edges)


NOT_2_REGULAR = [
    ("edgeless", _graph(5, [], [])),
    ("path4", _graph(4, [0, 1, 2], [1, 2, 3])),
    ("chung_lu", gen.chung_lu(20, 4, 2.2, seed=0)),
]


@pytest.mark.parametrize("algo", [ampc_one_vs_two_cycle, mpc_cycle_cc])
@pytest.mark.parametrize("name,g", NOT_2_REGULAR, ids=[n for n, _ in NOT_2_REGULAR])
def test_cycle_rejects_non_2_regular(algo, name, g):
    """Both models reject inputs that are not unions of cycles with the
    same clear error, on the driver before any Spark job: no session is
    passed (``match=``: PySpark errors also subclass ValueError)."""
    with pytest.raises(ValueError, match="degree 2"):
        algo(None, g, seed=0)
