"""tools/slot_calls.py, cProfile function calls and plan rows per GP slot."""

import importlib.util
from pathlib import Path

from chainflow import build_scenario, gp, run_gp, table_row

_spec = importlib.util.spec_from_file_location(
    "slot_calls", Path(__file__).resolve().parents[1] / "tools" / "slot_calls.py")
slot_calls = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(slot_calls)


def test_counts_repeat_and_match_the_run(monkeypatch):
    # the counts depend on no timing: two profiles of one case agree, and
    # the slots, candidates and plan rows are those of the run profiled
    first = slot_calls.calls("abilene", 1)
    assert slot_calls.calls("abilene", 1) == first
    assert gp.UpdatePlan.__name__ == "UpdatePlan"     # put back after counting
    plans = []

    class Seen(gp.UpdatePlan):
        def __init__(self, *args):
            super().__init__(*args)
            plans.append(self)

    monkeypatch.setattr(gp, "UpdatePlan", Seen)
    res = run_gp(build_scenario(table_row("abilene"), 1), config=slot_calls.C04)
    slots, candidates, calls, screened, kept = first
    assert slots == len(res.history)
    assert candidates == len(res.history) - res.converged + sum(
        row["halvings"] for row in res.history)
    assert calls > 100 * slots
    assert len(plans) == len(res.history) - res.converged
    assert kept == sum(plan.rows.size for plan in plans) > 0
    assert screened == sum(plan.screened for plan in plans) >= kept
