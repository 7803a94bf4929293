"""Table harnesses: structure, the gates on the committed results and
the paper's headline round-complexity claims (Table 1/3: AMPC rounds
are constant, MPC rounds grow)."""
import json

import pytest

from repro.core.mis import ampc_mis, mpc_mis
from repro.graphs import generators as gen
from repro.runtime import RoundContext
from repro.tables import (
    RESULTS_DIR,
    format_table,
    gates,
    main,
    table2_rows,
    table3_rows,
    table4_rows,
)

# A tiny dataset registry so harness tests stay fast.
TINY = {
    "T1": lambda seed=0: gen.chung_lu(80, 5, 2.2, seed=seed, name="T1"),
    "T2": lambda seed=0: gen.chung_lu(120, 6, 2.1, seed=seed, name="T2"),
}


@pytest.fixture(autouse=True)
def tiny_registry(monkeypatch):
    monkeypatch.setattr(gen, "DATASETS", {**gen.DATASETS, **TINY})


def test_table2_structure(spark):
    rows = table2_rows(spark, datasets=("T1", "T2"))
    assert rows[0]["Dataset"] == "2 x k"
    assert [r["Dataset"] for r in rows[1:]] == ["T1", "T2"]
    for r in rows[1:]:
        assert r["n"] > 0 and r["m"] > 0 and r["Num. CC"] >= 1


def test_table3_structure_and_constant_ampc_rounds(spark):
    timings: dict = {}
    rows = table3_rows(
        spark, datasets=("T1", "T2"), cutoff=0, collect_timings=timings
    )
    by_algo = {r["Algorithm"]: r for r in rows}
    # Table 3's headline: AMPC rows are constant across datasets.
    assert by_algo["AMPC Maximal Independent Set"]["T1"] == 1
    assert by_algo["AMPC Maximal Independent Set"]["T2"] == 1
    assert by_algo["AMPC Maximal Matching"]["T1"] == 1
    assert by_algo["AMPC Minimum Spanning Forest"]["T1"] == 5
    assert by_algo["AMPC Minimum Spanning Forest"]["T2"] == 5
    # MPC rows exceed AMPC rows on every dataset.
    for prob in ("Maximal Independent Set", "Maximal Matching", "Minimum Spanning Forest"):
        for d in ("T1", "T2"):
            assert by_algo[f"MPC {prob}"][d] > by_algo[f"AMPC {prob}"][d]
    assert timings[("MPC Maximal Independent Set", "T1")]["phases"] >= 1


def test_table4_structure(spark):
    rows = table4_rows(
        spark, cycle_sizes=(), mis_datasets=("T1",), cutoff=0
    )
    by_algo = {r["Algorithm"]: r for r in rows}
    assert by_algo["MIS (RDMA)"]["T1"] == 1.0
    assert by_algo["MIS (TCP/IP)"]["T1"] >= 1.0  # deterministic model property
    # MPC wall time on an 80-vertex toy graph is dominated by Spark
    # fixed overhead either way — assert presence, not a speedup (the
    # real comparison is the benchmark on full-size stand-ins).
    assert by_algo["MPC MIS"]["T1"] > 0
    assert "MIS (RDMA) [seconds]" in by_algo


def test_mpc_rounds_grow_with_n(spark):
    """The 1-vs-2-Cycle conjecture's empirical shadow: MPC phase count
    grows with input size while the AMPC algorithms stay constant."""
    small, big = RoundContext(model="mpc"), RoundContext(model="mpc")
    mpc_mis(spark, gen.chung_lu(60, 5, 2.2, seed=1), cutoff_edges=0, ctx=small)
    mpc_mis(spark, gen.chung_lu(800, 8, 2.1, seed=1), cutoff_edges=0, ctx=big)
    assert big.shuffles > small.shuffles
    a_small, a_big = RoundContext(model="ampc"), RoundContext(model="ampc")
    ampc_mis(spark, gen.chung_lu(60, 5, 2.2, seed=1), ctx=a_small)
    ampc_mis(spark, gen.chung_lu(800, 8, 2.1, seed=1), ctx=a_big)
    assert a_small.shuffles == a_big.shuffles == 1


def test_format_table_renders():
    rows = [{"a": 1, "b": "x"}, {"a": 22, "b": "yy"}]
    s = format_table(rows)
    assert "a" in s and "22" in s and "|" in s
    assert format_table([]) == "(empty)"


def _committed(table):
    return json.loads((RESULTS_DIR / f"table{table}.json").read_text())


@pytest.mark.parametrize("table", [2, 3, 4])
def test_gates_pass_on_committed_results(table):
    assert gates(table, _committed(table)) == []


def _set(rows, label, col, value):
    key = "Dataset" if "Dataset" in rows[0] else "Algorithm"
    next(r for r in rows if r[key] == label)[col] = value
    return rows


def _table4_mpc_at_rdma(col):
    rows = _committed(4)
    prefix, mpc = ("2-Cyc.", "MPC 2-Cyc.") if col.startswith("2e") else ("MIS", "MPC MIS")
    rdma = next(r for r in rows if r["Algorithm"] == f"{prefix} (RDMA) [seconds]")[col]
    return _set(rows, f"{mpc} [seconds]", col, rdma)


DOCTORED = {
    "hl_one_component": (2, lambda: _set(_committed(2), "HL", "Num. CC", 1)),
    "dataset_missing": (2, lambda: _committed(2)[:-1]),
    "ampc_mis_2": (3, lambda: _set(_committed(3), "AMPC Maximal Independent Set", "HL", 2)),
    "mpc_msf_at_ampc": (3, lambda: _set(_committed(3), "MPC Minimum Spanning Forest", "OK", 5)),
    "mpc_mm_below_ampc": (3, lambda: _set(_committed(3), "MPC Maximal Matching", "CW", 0)),
    "row_missing": (3, lambda: _committed(3)[:-1]),
    "mpc_mis_at_rdma": (4, lambda: _table4_mpc_at_rdma("CW")),
    "mpc_cycle_at_rdma": (4, lambda: _table4_mpc_at_rdma("2e5")),
    "tcp_below_rdma": (4, lambda: _set(_committed(4), "MIS (TCP/IP) [seconds]", "OK", 0.1)),
    "tcp_above_5x_mpc": (
        4, lambda: _set(_committed(4), "2-Cyc. (TCP/IP) [seconds]", "2e6", 10_000.0)
    ),
}


@pytest.mark.parametrize("case", DOCTORED)
def test_gates_flag_doctored_results(case):
    table, doctor = DOCTORED[case]
    msgs = gates(table, doctor())
    assert msgs and all(m.startswith(f"table {table}: ") for m in msgs)


def test_cli_accepts_only_table_numbers(capsys):
    assert main(["3", "--seed=1"]) == 2
    assert main(["5"]) == 2
    assert "usage" in capsys.readouterr().err
