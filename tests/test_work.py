"""tools/work.py: GP's slot and candidate counts, the calls and plan rows
per GP slot, and the oracle's and SPOC's line-search counts."""

import pytest

from chainflow import GpConfig, build_scenario, gp, oracle, run_gp, table_row
from chainflow.errors import CapacityExceeded

import work
from conftest import random_scenario


def _count_candidates(monkeypatch, fail_after=None):
    """Count run_gp's candidate evaluations; from call `fail_after` on,
    every candidate raises CapacityExceeded, so the run stops at the floor."""
    calls, real = [], gp._Slot.step

    def counted(*args, **kwargs):
        calls.append(1)
        if fail_after is not None and len(calls) > fail_after:
            raise CapacityExceeded("scripted")
        return real(*args, **kwargs)

    monkeypatch.setattr(gp._Slot, "step", counted)
    return calls


def test_counts_match_the_candidates_evaluated(monkeypatch):
    # the counts are the slots that made a step and the candidates the run
    # evaluated, retries included, whether it converges or runs out of slots
    calls = _count_candidates(monkeypatch)
    s = random_scenario(1, link_bound=10.0, comp_bound=10.0)
    for config in (GpConfig(stepsize=1.0, max_iters=40, tol=1e-9),
                   GpConfig(stepsize=1.0, max_iters=400, tol=1e-4)):
        calls.clear()
        res = run_gp(s, config=config)
        assert work.work(res) == (res.iterations, len(calls))
        assert res.iterations < len(calls)
    assert res.converged


def test_counts_of_a_run_stopped_at_the_floor(monkeypatch):
    # the last slot evaluates candidates down to the stepsize floor and
    # makes no step: it adds candidates, not a slot
    calls = _count_candidates(monkeypatch, fail_after=5)
    res = run_gp(random_scenario(1, link_bound=10.0, comp_bound=10.0),
                 config=GpConfig(stepsize=1.0, max_iters=40, tol=1e-9))
    assert not res.converged and res.iterations < len(res.history) < 40
    assert work.work(res) == (res.iterations, len(calls))
    assert len(calls) > 40


def test_counts_repeat_and_match_the_run(monkeypatch):
    # the counts depend on no timing: two profiles of one case agree, and
    # the slots, candidates and plan rows are those of the run profiled
    first = work.calls("abilene", 1)
    assert work.calls("abilene", 1) == first
    assert gp.UpdatePlan.__name__ == "UpdatePlan"     # put back after counting
    plans = []

    class Seen(gp.UpdatePlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(gp, "UpdatePlan", Seen)
    res = run_gp(build_scenario(table_row("abilene"), 1), config=work.C04)
    slots, candidates, calls, screened, kept = first
    assert slots == len(res.history)
    assert candidates == len(res.history) - res.converged + sum(
        row["halvings"] for row in res.history)
    assert calls > 100 * slots
    assert len(plans) == len(res.history) - res.converged
    assert kept == sum(plan.rows.size for plan in plans) > 0
    assert screened == sum(plan.screened for plan in plans) >= kept


@pytest.mark.parametrize("solver", ["oracle", "spoc"])
def test_counted_solve_keeps_its_traces(solver):
    # the wrapped searches and _bisect return what the real ones do, and the
    # module globals are the real ones again after the block
    s = build_scenario(table_row("abilene"), 2)
    real = (oracle._exact_line_search, oracle._sparse_line_search, oracle._bisect)
    want = work.solve(solver, s)
    with work.counting() as tally:
        got = work.solve(solver, s)
    assert (oracle._exact_line_search, oracle._sparse_line_search, oracle._bisect) == real
    assert repr(got.cost_trace) == repr(want.cost_trace)
    assert repr(got.gap_trace) == repr(want.gap_trace)
    assert tally["exact"] >= 1 and tally["sparse"] >= 1 and tally["newton"] > 0


@pytest.mark.parametrize("row, draw", [("connected-er", 4), ("fog", 4), ("abilene", 2)])
def test_converged_solve_makes_one_exact_search_per_iteration(row, draw):
    # a converged solve takes one conditional-gradient step, so one exact
    # search, per gap check after the first; the last check stops it
    with work.counting() as tally:
        res = work.solve("oracle", build_scenario(table_row(row), draw))
    assert res.converged and res.iterations >= 1
    assert tally["exact"] == res.iterations
    assert tally["newton"] <= tally["deriv"]
