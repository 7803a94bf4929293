"""Every Table-3 algorithm on a graph with vertices but no edges."""
import numpy as np
import pandas as pd
import pytest

from repro import reference as ref
from repro.core.kkt import msf_kkt
from repro.core.matching import ampc_maximal_matching, mpc_maximal_matching
from repro.core.mis import ampc_mis, mpc_mis
from repro.core.msf import ampc_msf, mpc_msf
from repro.core.ternarize import msf_via_ternarization
from repro.graphs.generators import GraphData

N = 5
_NONE = np.empty(0, dtype=np.int64)
EDGELESS = GraphData(n=N, edges=pd.DataFrame({"u": _NONE, "v": _NONE}), name="edgeless")
WEIGHTED = GraphData(
    n=N,
    edges=pd.DataFrame({"u": _NONE, "v": _NONE, "w": np.empty(0, dtype=np.float64)}),
    name="edgeless_w",
)


@pytest.mark.parametrize("algo", [ampc_mis, mpc_mis])
def test_mis_edgeless(spark, algo):
    want = ref.greedy_mis(N, _NONE, _NONE, 0)
    assert want == set(range(N))
    assert algo(spark, EDGELESS, seed=0).members == want


@pytest.mark.parametrize("algo", [ampc_maximal_matching, mpc_maximal_matching])
def test_matching_edgeless(spark, algo):
    assert algo(spark, EDGELESS, seed=0).edges == ref.greedy_matching(N, _NONE, _NONE, 0)


@pytest.mark.parametrize("algo", [ampc_msf, mpc_msf, msf_via_ternarization, msf_kkt])
def test_msf_edgeless(spark, algo):
    want = ref.kruskal_msf(N, _NONE, _NONE, np.empty(0))
    assert algo(spark, WEIGHTED, seed=0).edges == want
