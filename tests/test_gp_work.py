"""tools/gp_work.py, GP's slot and candidate counts on the c04 draws."""

import importlib.util
from pathlib import Path

from chainflow import GpConfig, gp, run_gp
from chainflow.errors import CapacityExceeded

from conftest import random_scenario

_spec = importlib.util.spec_from_file_location(
    "gp_work", Path(__file__).resolve().parents[1] / "tools" / "gp_work.py")
gp_work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gp_work)


def _count_candidates(monkeypatch, fail_after=None):
    """Count run_gp's candidate evaluations; from call `fail_after` on,
    every candidate raises CapacityExceeded, so the run stops at the floor."""
    calls, real = [], gp._sloped_step

    def counted(*args, **kwargs):
        calls.append(1)
        if fail_after is not None and len(calls) > fail_after:
            raise CapacityExceeded("scripted")
        return real(*args, **kwargs)

    monkeypatch.setattr(gp, "_sloped_step", counted)
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
        assert gp_work.work(res) == (res.iterations, len(calls))
        assert res.iterations < len(calls)
    assert res.converged


def test_counts_of_a_run_stopped_at_the_floor(monkeypatch):
    # the last slot evaluates candidates down to the stepsize floor and
    # makes no step: it adds candidates, not a slot
    calls = _count_candidates(monkeypatch, fail_after=5)
    res = run_gp(random_scenario(1, link_bound=10.0, comp_bound=10.0),
                 config=GpConfig(stepsize=1.0, max_iters=40, tol=1e-9))
    assert not res.converged and res.iterations < len(res.history) < 40
    assert gp_work.work(res) == (res.iterations, len(calls))
    assert len(calls) > 40
