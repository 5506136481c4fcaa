import csv
import json
import math
import os
import re

import numpy as np
import pytest

from chainflow import (ExperimentConfig, NotConverged, compute_flows, hop_metrics,
                       run_experiment, table_row, trend_inversions)
from chainflow.cli import main as cli_main
from chainflow.serialize import load_scenario, load_strategy

from conftest import make_strategy, random_scenario, unconverged_lcof_scenario


class TestHopMetrics:
    def test_e1_strategy_a(self, e1, e1_strategy_a):
        st = compute_flows(e1, e1_strategy_a)
        m = hop_metrics(e1, e1_strategy_a, st)
        assert (m.H_data, m.H_result) == (0.0, 1.0)

    def test_e1_strategy_b(self, e1, e1_strategy_b):
        st = compute_flows(e1, e1_strategy_b)
        m = hop_metrics(e1, e1_strategy_b, st)
        assert (m.H_data, m.H_result) == (1.0, 0.0)

    def test_fifty_fifty_split(self, e1):
        phi = make_strategy(e1, {
            (1, "a", 0): {"cpu": 0.5, 2: 0.5},
            (2, "a", 0): {"cpu": 1.0},
            (1, "a", 1): {2: 1.0},
        })
        st = compute_flows(e1, phi)
        m = hop_metrics(e1, phi, st)
        assert m.H_data == pytest.approx(0.5)
        assert m.H_result == pytest.approx(0.5)


def _mini_config(tmp_path=None, seeds=(1, 2)):
    spec = {"name": "mini", "topology": {"kind": "balanced_tree", "depth": 3},
            "num_apps": 2, "sources_per_app": 2, "chain_length": 1,
            "link_cost": {"kind": "queue", "bound": 60.0},
            "comp_cost": {"kind": "queue", "bound": 60.0}}
    return ExperimentConfig(scenarios=[spec], seeds=list(seeds),
                            gp={"tol": 1e-5, "max_iters": 800},
                            out_dir=str(tmp_path) if tmp_path else None)


class TestRunExperiment:
    def test_records_shape_and_gp_wins(self, tmp_path):
        config = _mini_config(tmp_path)
        records = run_experiment(config)
        assert len(records) == 2 * 4  # seeds x algorithms
        for seed in (1, 2):
            group = [r for r in records if r["seed"] == seed]
            gp = next(r for r in group if r["algorithm"] == "gp")
            for r in group:
                if math.isfinite(r["T"]):
                    assert gp["T"] <= r["T"] + 1e-6

    def test_normalization_worst_is_one(self, tmp_path):
        records = run_experiment(_mini_config(tmp_path))
        for seed in (1, 2):
            group = [r for r in records if r["seed"] == seed and math.isfinite(r["T"])]
            assert max(r["T_norm"] for r in group) == pytest.approx(1.0)

    def test_csv_determinism(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        run_experiment(_mini_config(a_dir, seeds=(3,)))
        run_experiment(_mini_config(b_dir, seeds=(3,)))
        assert (a_dir / "records.csv").read_bytes() == (b_dir / "records.csv").read_bytes()

    def test_record_reevaluates(self, tmp_path):
        config = _mini_config(tmp_path, seeds=(5,))
        records = run_experiment(config)
        for rec in records:
            if not rec["strategy_file"]:
                continue
            phi = load_strategy(tmp_path / rec["strategy_file"])
            scen = load_scenario(tmp_path / f"scenario_mini_None_{rec['seed']}.json")
            st = compute_flows(scen, phi)
            assert abs(st.total_cost - rec["T"]) <= 1e-9

    def test_infeasible_reason_in_records_csv(self, tmp_path):
        # LPR-SC's congestion-blind plan overflows a link on this draw
        config = ExperimentConfig(scenarios=["abilene"], seeds=[0], algorithms=("lpr-sc",),
                                  out_dir=str(tmp_path))
        records = run_experiment(config)
        assert not records[0]["feasible"]
        with open(tmp_path / "records.csv", newline="", encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        assert "capacity" in rows[0]["reason"]
        # the reason names the most overloaded link or CPU and its load ratio
        found = re.search(r"(link \(.+\)|CPU of node .+) at ([0-9.e+]+) x capacity$",
                          rows[0]["reason"])
        assert found is not None
        assert float(found.group(2)) >= 1.0

    def test_raised_error_keeps_its_message(self, prop1):
        # LCOF needs every source to run the chain; prop1's source has no CPU
        from chainflow import GpConfig
        from chainflow.experiments import run_algorithm
        rec = run_algorithm("lcof", prop1, GpConfig())
        assert not rec["feasible"]
        assert rec["reason"].startswith("LocalComputationInfeasible: ")
        assert "cannot run task" in rec["reason"]

    def test_table_row_lookup(self):
        row = table_row("abilene")
        assert row["num_apps"] == 3
        with pytest.raises(KeyError):
            table_row("nope")


class TestTrendHelpers:
    def test_inversion_count(self):
        assert trend_inversions([3, 2, 2, 1]) == 0
        assert trend_inversions([3, 2, 2.5, 1]) == 1
        assert trend_inversions([1, 2, 3], nonincreasing=False) == 0


class TestCli:
    def _scenario_config(self, path):
        spec = {"name": "cli", "topology": {"kind": "balanced_tree", "depth": 3},
                "num_apps": 1, "sources_per_app": 2, "chain_length": 1,
                "link_cost": {"kind": "queue", "bound": 60.0},
                "comp_cost": {"kind": "queue", "bound": 60.0}, "seed": 4}
        path.write_text(json.dumps(spec))
        return str(path)

    def test_solve_check_oracle_round_trip(self, tmp_path):
        cfg = self._scenario_config(tmp_path / "scenario.json")
        out = tmp_path / "run1"
        assert cli_main(["solve", "--algo", "gp", "--config", cfg,
                         "--out", str(out), "--tol", "1e-6"]) == 0
        assert (out / "strategy.json").exists()
        assert (out / "trace.csv").exists()
        assert (out / "metrics.json").exists()
        assert cli_main(["check", str(out / "strategy.json")]) == 0
        assert cli_main(["oracle", "--config", str(out / "scenario.json"),
                         "--out", str(tmp_path / "orc"), "--tol", "1e-7"]) == 0
        metrics = json.loads((out / "metrics.json").read_text())
        assert metrics["sufficient_holds"]

    def test_oracle_export_reproduces_totals(self, tmp_path):
        from chainflow import solve_flow_domain
        from chainflow.cli import _load_scenario_config
        from chainflow.flows import compiled
        from chainflow.oracle import _totals
        cfg = self._scenario_config(tmp_path / "scenario.json")
        assert cli_main(["oracle", "--config", cfg, "--out", str(tmp_path),
                         "--tol", "1e-7"]) == 0
        s = _load_scenario_config(cfg)
        comp = compiled(s)
        F, G = _totals(comp, *solve_flow_domain(s, tol=1e-7).flows.arrays(comp))
        apps = {app.id: app for app in comp.apps}
        index = {str(v): i for i, v in enumerate(comp.nodes)}
        F_csv, G_csv = np.zeros_like(F), np.zeros_like(G)
        kinds = set()
        with open(tmp_path / "flows.csv", newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                app, k, flow = apps[row["app"]], int(row["stage"]), float(row["flow"])
                i = index[row["from"]]
                kinds.add(row["kind"])
                if row["kind"] == "link":
                    F_csv[comp.eid[i, index[row["to"]]]] += app.L[k] * flow
                else:
                    G_csv[i] += app.w[i, k] * flow
        assert kinds == {"link", "cpu"}
        assert np.max(np.abs(F_csv - F)) <= 1e-12 * max(1.0, np.max(F))
        assert np.max(np.abs(G_csv - G)) <= 1e-12 * max(1.0, np.max(G))

    def test_check_rejects_suboptimal(self, tmp_path, e1, e1_strategy_b):
        from chainflow.serialize import dump_scenario, dump_strategy
        scen = tmp_path / "e1.json"
        strat = tmp_path / "phi.json"
        dump_scenario(e1, scen)
        dump_strategy(e1_strategy_b, strat, scenario_path=scen)
        assert cli_main(["check", str(strat)]) == 1

    def test_check_strategy_for_other_nodes_exit_1(self, tmp_path, capsys):
        from chainflow import init_strategy
        from chainflow.serialize import dump_scenario, dump_strategy
        from test_flows import path_scenario
        small, big = tmp_path / "small.json", tmp_path / "big_phi.json"
        dump_scenario(path_scenario([1, 2, 3, 4]), small)
        dump_strategy(init_strategy(path_scenario([1, 2, 3, 4, 5])), big)
        assert cli_main(["check", str(big), "--config", str(small)]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_solve_baseline_unconverged_exit_2(self, tmp_path):
        # LCOF's forwarding stops at its slot budget here (see test_baselines)
        from chainflow.serialize import dump_scenario
        scen, out = tmp_path / "s.json", tmp_path / "o"
        dump_scenario(unconverged_lcof_scenario(), scen)
        assert cli_main(["solve", "--algo", "lcof", "--config", str(scen),
                         "--out", str(out)]) == 2
        assert json.loads((out / "metrics.json").read_text())["converged"] is False

    def _path_strategy(self, tmp_path, edit):
        """A strategy file of the 3-node path's tree strategy, with its
        JSON rows edited by `edit`, and its scenario file."""
        from chainflow import init_strategy
        from chainflow.serialize import dump_scenario
        from test_flows import path_scenario
        s = path_scenario([1, 2, 3])
        scen, strat = tmp_path / "path.json", tmp_path / "phi.json"
        dump_scenario(s, scen)
        data = dict(init_strategy(s).to_jsonable(), scenario=str(scen))
        edit(data["rows"])
        strat.write_text(json.dumps(data))
        return str(strat)

    def test_check_reports_lost_traffic_exit_1(self, tmp_path, capsys):
        # without its source row the strategy sends nothing, at zero cost
        strat = self._path_strategy(tmp_path, lambda rows: rows.pop("0/a/0"))
        assert cli_main(["check", strat]) == 1
        report = json.loads(capsys.readouterr().out)
        assert report == {"violations": [{"stage": ["a", 0], "node": 1,
                                          "error": "row sums to 0.000000000, expected 1.0"}]}

    @pytest.mark.parametrize("key", ["-1/a/0", "9/a/0"])
    def test_check_row_key_outside_the_layout_exit_1(self, tmp_path, capsys, key):
        # -1 must not wrap to node 3's row, nor 9 end in a traceback
        strat = self._path_strategy(tmp_path, lambda rows: rows.update({key: rows.pop("0/a/0")}))
        assert cli_main(["check", strat]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_invalid_config_exit_1(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{\"topology\": {\"kind\": \"banana\"}}")
        assert cli_main(["solve", "--config", str(bad), "--out", str(tmp_path / "o")]) == 1

    @pytest.mark.parametrize("argv", [
        ["run", "--tol", "1e-6"], ["run", "--alpha", "0.1"], ["run", "--max-iters", "5"],
        ["check", "--out", "o"], ["check", "--alpha", "0.1"], ["check", "--max-iters", "5"],
        ["check", "--format", "json"], ["oracle", "--alpha", "0.1"],
        ["oracle", "--max-iters", "5"], ["oracle", "--format", "json"],
        ["solve", "--out", "o", "--format", "json"], ["cc", "--format", "json"]])
    def test_flag_the_subcommand_does_not_read_refused(self, argv, capsys):
        # each subcommand accepts only the flags it reads
        extra = ["strategy.json"] if argv[0] == "check" else ["--config", "c.json"]
        with pytest.raises(SystemExit) as exc:
            cli_main(argv + extra)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_solve_without_out_refused(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli_main(["solve", "--config", "c.json"])
        assert exc.value.code == 2
        assert "--out" in capsys.readouterr().err

    def test_run_command(self, tmp_path):
        exp = {"scenarios": [{"name": "mini",
                              "topology": {"kind": "balanced_tree", "depth": 3},
                              "num_apps": 1, "sources_per_app": 2, "chain_length": 1,
                              "link_cost": {"kind": "queue", "bound": 60.0},
                              "comp_cost": {"kind": "queue", "bound": 60.0}}],
               "seeds": [1], "algorithms": ["gp", "lpr-sc"],
               "gp": {"tol": 1e-4, "max_iters": 300}}
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(exp))
        out = tmp_path / "results"
        assert cli_main(["run", "--config", str(cfg), "--out", str(out)]) == 0
        assert (out / "records.csv").exists()

    @pytest.mark.parametrize("key", ["tolerance", "adaptive_stepsize", "tol_mass",
                                     "min_stepsize_factor", "max_stepsize_factor"])
    def test_run_unknown_gp_setting_exit_1(self, tmp_path, capsys, key):
        exp = {"scenarios": ["abilene"], "seeds": [1], "algorithms": ["gp"],
               "gp": {key: 1e-4}}
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(exp))
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    @pytest.mark.parametrize("chain_length, ratios, match", [
        (0, [1.0, 2.0], "chain_length"),           # sizes over a chain of no tasks
        (None, [2.0, -0.5], "size ratios"),        # a negative ratio's roots are complex
        (None, [math.inf], "size ratios"),
        (1, [math.nan], "size ratios")])
    def test_run_unbuildable_size_ratio_sweep_exit_1(self, tmp_path, capsys, chain_length,
                                                       ratios, match):
        spec = {"name": "mini", "topology": {"kind": "balanced_tree", "depth": 3}}
        if chain_length is not None:
            spec["chain_length"] = chain_length
        exp = {"scenarios": [spec], "seeds": [1], "algorithms": ["gp"],
               "sweep": {"kind": "size_ratio", "values": ratios}}
        with pytest.raises(ValueError, match=match):
            ExperimentConfig.from_jsonable(exp)
        cfg = tmp_path / "exp.json"
        cfg.write_text(json.dumps(exp))
        assert cli_main(["run", "--config", str(cfg)]) == 1
        assert "invalid configuration" in capsys.readouterr().err

    def test_size_ratio_zero_stays_allowed(self):
        from chainflow.experiments import _apply_sweep
        spec = {"name": "mini", "topology": {"kind": "balanced_tree", "depth": 3}}
        ExperimentConfig(scenarios=[spec], seeds=[1],
                         sweep={"kind": "size_ratio", "values": [0, 0.0, 1]})
        assert _apply_sweep(spec, "size_ratio", 0)["packet_sizes"] == [0.0, 0.0, 1.0]

    def test_zero_tol_reaches_check_and_oracle(self, tmp_path, monkeypatch, capsys, e1,
                                               e1_strategy_b):
        # an explicit --tol 0 must not fall back to the 1e-6 default
        import chainflow.cli as cli
        from chainflow.serialize import dump_scenario, dump_strategy
        seen = []

        def recording(fn):
            def wrapped(*args, tol, **kw):
                seen.append((fn.__name__, tol))
                return fn(*args, tol=tol, **kw)
            return wrapped

        def oracle_stub(scenario, tol):
            seen.append(("solve_flow_domain", tol))
            raise NotConverged("stub")

        monkeypatch.setattr(cli, "check_kkt", recording(cli.check_kkt))
        monkeypatch.setattr(cli, "check_sufficient", recording(cli.check_sufficient))
        monkeypatch.setattr(cli, "solve_flow_domain", oracle_stub)
        scen = tmp_path / "e1.json"
        strat = tmp_path / "phi.json"
        dump_scenario(e1, scen)
        dump_strategy(e1_strategy_b, strat, scenario_path=scen)
        assert cli_main(["check", str(strat), "--tol", "0"]) == 1
        capsys.readouterr()
        assert cli_main(["oracle", "--config", str(scen), "--tol", "0"]) == 2
        assert capsys.readouterr().err == "stub\n"     # reported once, by main
        assert seen == [("check_kkt", 0.0), ("check_sufficient", 0.0),
                        ("solve_flow_domain", 0.0)]

    def test_cc_seed_zero_overrides_config(self, tmp_path, monkeypatch):
        # an explicit --seed 0 must win over the config's seed
        import chainflow.cli as cli
        seen = []

        def build_stub(spec, seed):
            seen.append(seed)
            raise NotConverged("stub")

        monkeypatch.setattr(cli, "build_scenario", build_stub)
        cfg = tmp_path / "cc.json"
        cfg.write_text(json.dumps({"scenario": {"topology": {"kind": "abilene"}}, "seed": 5}))
        assert cli_main(["cc", "--config", str(cfg), "--seed", "0"]) == 2
        assert cli_main(["cc", "--config", str(cfg)]) == 2
        assert seen == [0, 5]

    def test_cc_command(self, tmp_path):
        cc = {"scenario": {"name": "mini",
                           "topology": {"kind": "balanced_tree", "depth": 3},
                           "num_apps": 1, "sources_per_app": 2, "chain_length": 1,
                           "link_cost": {"kind": "queue", "bound": 40.0},
                           "comp_cost": {"kind": "queue", "bound": 40.0}},
              "seed": 2, "cap_scale": 2.0,
              "utility": {"kind": "alpha_fair", "alpha": 1.0, "eps": 0.1}}
        cfg = tmp_path / "cc.json"
        cfg.write_text(json.dumps(cc))
        out = tmp_path / "ccout"
        code = cli_main(["cc", "--config", str(cfg), "--out", str(out),
                         "--tol", "1e-4", "--max-iters", "3000"])
        assert code == 0
        assert (out / "admitted.csv").exists()
