"""tools/oracle_work.py, the oracle's and SPOC's line-search counts on the c04 draws."""

import importlib.util
from pathlib import Path

import pytest

from chainflow import build_scenario, oracle, table_row

_spec = importlib.util.spec_from_file_location(
    "oracle_work", Path(__file__).resolve().parents[1] / "tools" / "oracle_work.py")
oracle_work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(oracle_work)


@pytest.mark.parametrize("solver", ["oracle", "spoc"])
def test_counted_solve_keeps_its_traces(solver):
    # the wrapped searches and _bisect return what the real ones do, and the
    # module globals are the real ones again after the block
    s = build_scenario(table_row("abilene"), 2)
    real = (oracle._exact_line_search, oracle._sparse_line_search, oracle._bisect)
    want = oracle_work.solve(solver, s)
    with oracle_work.counting() as tally:
        got = oracle_work.solve(solver, s)
    assert (oracle._exact_line_search, oracle._sparse_line_search, oracle._bisect) == real
    assert repr(got.cost_trace) == repr(want.cost_trace)
    assert repr(got.gap_trace) == repr(want.gap_trace)
    assert tally["exact"] >= 1 and tally["sparse"] >= 1 and tally["newton"] > 0


@pytest.mark.parametrize("row, draw", [("connected-er", 4), ("fog", 4), ("abilene", 2)])
def test_converged_solve_makes_one_exact_search_per_iteration(row, draw):
    # a converged solve takes one conditional-gradient step, so one exact
    # search, per gap check after the first; the last check stops it
    with oracle_work.counting() as tally:
        res = oracle_work.solve("oracle", build_scenario(table_row(row), draw))
    assert res.converged and res.iterations >= 1
    assert tally["exact"] == res.iterations
    assert tally["newton"] <= tally["deriv"]
