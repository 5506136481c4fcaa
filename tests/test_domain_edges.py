"""Inputs at the edges of the domain: scenarios whose applications all
drop out (no application has a positive rate), and parameters that are NaN,
infinite, negative or of the wrong shape, which the range checks must refuse
before any solver runs."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from chainflow import (AlphaFair, Application, CostSpec, GpConfig, Linear, LinearUtility,
                       Queue, Scenario, adapt, build_scenario, compute_flows, extend_scenario,
                       feasible_start, generate_topology, init_strategy, lcof, lpr_sc, run_gp,
                       run_gp_cc, solve_flow_domain, spoc, utility_eval)
from chainflow.cli import main as cli_main
from chainflow.flows import compiled
from chainflow.serialize import scenario_to_jsonable

from conftest import random_scenario

TREE = {"name": "tree", "topology": {"kind": "balanced_tree", "depth": 3},
        "num_apps": 1, "sources_per_app": 2, "chain_length": 1,
        "link_cost": {"kind": "queue", "bound": 60.0},
        "comp_cost": {"kind": "queue", "bound": 60.0}}


def _base():
    return build_scenario(TREE, 1)


def _no_apps():
    return _base().with_rates({})


def _cost(res) -> float:
    return res.state.total_cost


class TestNoApplications:
    def test_build_scenario_without_apps(self):
        s = build_scenario({**TREE, "num_apps": 0}, 1)
        assert s.applications == ()
        assert compute_flows(s, init_strategy(s)).total_cost == 0.0

    @pytest.mark.parametrize("entry", [
        lambda s: compute_flows(s, init_strategy(s)).total_cost,
        lambda s: compute_flows(s, feasible_start(s)).total_cost,
        lambda s: _cost(lcof(s)),
        lambda s: _cost(spoc(s)),
        lambda s: _cost(lpr_sc(s)),
        lambda s: solve_flow_domain(s).total_cost,
        lambda s: run_gp_cc(extend_scenario(s, {}, {})).total_cost,
    ], ids=["init_strategy", "feasible_start", "lcof", "spoc", "lpr_sc", "oracle",
            "run_gp_cc"])
    def test_entry_point_costs_zero(self, entry):
        assert entry(_no_apps()) == 0.0

    def test_gp_converges_at_slot_zero(self):
        res = run_gp(_no_apps())
        assert res.converged and res.iterations == 0 and res.state.total_cost == 0.0

    def test_adapt_onto_no_rates(self):
        base = _base()
        res = adapt(base, base.with_rates({}), run_gp(base).phi)
        assert res.converged and res.iterations == 0 and res.state.total_cost == 0.0

    def test_cc_utility_minus_cost_is_positive_zero(self):
        res = run_gp_cc(extend_scenario(_no_apps(), {}, {}))
        assert res.converged
        assert math.copysign(1.0, res.utility_minus_cost) == 1.0


class TestNoApplicationsCli:
    def _run(self, tmp_path, exp) -> int:
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(exp))
        return cli_main(["run", "--config", str(cfg)])

    def test_run_without_apps(self, tmp_path, capsys):
        exp = {"scenarios": [{**TREE, "num_apps": 0}], "seeds": [1]}
        assert self._run(tmp_path, exp) == 0
        assert "4 records (4 feasible)" in capsys.readouterr().out

    def test_run_rate_scale_zero(self, tmp_path, capsys):
        exp = {"scenarios": [TREE], "seeds": [1],
               "sweep": {"kind": "rate_scale", "values": [0, 1]}}
        assert self._run(tmp_path, exp) == 0
        assert "8 records" in capsys.readouterr().out

    def test_cc_cap_scale_zero(self, tmp_path, capsys):
        cfg = tmp_path / "cc.json"
        cfg.write_text(json.dumps({"scenario": TREE, "seed": 1, "cap_scale": 0}))
        assert cli_main(["cc", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert "utility-minus-cost=0 " in out and "converged=True" in out


def _scenario_with_rate(rate):
    s = _base()
    pair = next(iter(s.input_rates))
    return Scenario(graph=s.graph, applications=s.applications, link_costs=s.link_costs,
                    comp_costs=s.comp_costs, input_rates={**s.input_rates, pair: rate})


def _extended_with_cap(cap):
    s = _base()
    pair = next(iter(s.input_rates))
    return extend_scenario(s, {pair: cap}, {pair: LinearUtility(1.0, cap=1.0)})


NAN, INF = math.nan, math.inf


class TestRangeChecks:
    @pytest.mark.parametrize("make", [
        lambda x: Linear(x),
        lambda x: Queue(x),
        lambda x: Application(id="a", chain_length=1, destination=0, packet_sizes=(1.0, x)),
        _scenario_with_rate,
        lambda x: CostSpec(link_bound=x),
        lambda x: CostSpec(comp_bound=x),
        lambda x: AlphaFair(alpha=x),
        lambda x: AlphaFair(alpha=1.0, eps=x),
        lambda x: AlphaFair(alpha=1.0, cap=x),
        lambda x: LinearUtility(slope=x),
        lambda x: LinearUtility(slope=1.0, cap=x),
        _extended_with_cap,
        lambda x: GpConfig(stepsize=x),
    ], ids=["linear-slope", "queue-capacity", "packet-size", "input-rate", "link-bound",
            "comp-bound", "alpha", "eps", "alpha-fair-cap", "utility-slope",
            "linear-utility-cap", "ext-cap", "stepsize"])
    @pytest.mark.parametrize("bad", [NAN, INF], ids=["nan", "inf"])
    def test_non_finite_refused(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)

    def test_nan_tol_refused(self):
        with pytest.raises(ValueError):
            GpConfig(tol=NAN)
        assert GpConfig(tol=INF).tol == INF    # a tolerance that accepts any point

    @pytest.mark.parametrize("edit", ["rate", "capacity"])
    def test_solve_nan_scenario_exit_1(self, tmp_path, capsys, edit):
        data = scenario_to_jsonable(_base())
        if edit == "rate":
            data["input_rates"][0][2] = NAN
        else:
            data["link_costs"][0][2]["param"] = NAN
        cfg = tmp_path / "s.json"
        cfg.write_text(json.dumps(data))         # json writes the NaN literal
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "invalid configuration:" in capsys.readouterr().err


def _with_weights(s, w):
    """s with its one application's comp_weights set to w."""
    return replace(s, applications=(replace(s.applications[0], comp_weights=w),))


class TestCompWeights:
    @pytest.mark.parametrize("w", [-1.0, {1: (-1.0,)}, {1: (NAN,)}, NAN, {1: ()}, {1: (1.0, 2.0)}],
                             ids=["negative", "negative-at-node", "nan-at-node", "nan",
                                  "empty-sequence", "too-long-sequence"])
    def test_refused(self, e1, w):
        with pytest.raises(ValueError):
            _with_weights(e1, w)

    def test_inf_marks_a_task_not_performable(self, e1):
        # node 1 cannot run the task, so the raw data goes to node 2:
        # link 2 (two bits at slope 1) + CPU 3 (one packet at slope 3)
        res = run_gp(_with_weights(e1, {1: (INF,)}))
        assert res.converged and res.state.total_cost == pytest.approx(5.0)


class TestSmallWorldChords:
    @pytest.mark.parametrize("long", [3, -1])
    def test_more_chords_than_pairs_or_negative_refused(self, long):
        # a 4-ring with short 1 leaves 2 of the 6 node pairs unlinked
        with pytest.raises(ValueError, match="long"):
            generate_topology("small_world", {"n": 4, "short": 1, "long": long})

    def test_every_unlinked_pair_drawn(self):
        g = generate_topology("small_world", {"n": 4, "short": 1, "long": 2})
        assert g.num_undirected_edges == 6

    def test_solve_exit_1(self, tmp_path, capsys):
        spec = {**TREE, "topology": {"kind": "small_world", "n": 4, "short": 1, "long": 3}}
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({**spec, "seed": 1}))
        assert cli_main(["solve", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 1
        assert "invalid configuration:" in capsys.readouterr().err


class TestCandidateConstants:
    def test_inputs_from_rate_entries(self):
        # a rate table read entry by entry skips nodes and applications
        # the scenario lacks, and equals the lookup of every stage-0 cell
        s = random_scenario(2, n=6, num_apps=2, K=1)
        comp = compiled(s)
        rates = {pair: 0.5 + i for i, pair in enumerate(s.input_rates)}
        rates.update({("nowhere", s.applications[0].id): 9.0, (s.graph.nodes[0], "ghost"): 9.0})
        want = np.zeros((len(comp.keys), comp.n))
        for app in comp.apps:
            want[app.s0] = [rates.get((node, app.id), 0.0) for node in comp.nodes]
        assert comp.inputs(rates).tobytes() == want.tobytes()
        assert comp.inputs(dict(s.input_rates)).tobytes() == comp.r.tobytes()

    def test_rejection_cost_keeps_its_sum(self):
        s = random_scenario(3, n=6, num_apps=2, K=1)
        utils = {p: AlphaFair(alpha=0.5 + i / 4, eps=0.1, cap=r)
                 for i, (p, r) in enumerate(s.input_rates.items())}
        ext = extend_scenario(s, dict(s.input_rates), utils)
        admit = {p: 0.25 + i / 10 for i, p in enumerate(ext.pairs)}
        want = 0.0
        for p in ext.pairs:
            want += utility_eval(utils[p], utils[p].cap) - utility_eval(utils[p],
                                                                      ext.caps[p] * admit[p])
        assert repr(ext.rejection_cost(admit)) == repr(want)
