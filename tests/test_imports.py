"""chainflow needs numpy alone: it imports, solves, runs its CLI and finds
a looping strategy's cycles without networkx, which serves only the tests
and tools. Each blocking mode runs in one fresh interpreter."""

import os
import subprocess
import sys
import textwrap

import pytest

import chainflow

SRC = os.path.dirname(os.path.dirname(os.path.abspath(chainflow.__file__)))


def _run_fresh(script: str, *args):
    """Run `script` with `args` in a fresh interpreter that imports this
    chainflow."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", textwrap.dedent(script), *map(str, args)],
                          env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr[-3000:]


SOLVE_PATHS = """
    import json, os, sys
    tmp, block = sys.argv[1], sys.argv[2] == "True"
    if block:
        sys.modules["networkx"] = None      # any import of networkx raises ImportError
    from chainflow import (Application, ExperimentConfig, GpConfig, GpResult, Graph, Linear,
                           LinearUtility, Scenario, Strategy, adapt, build_scenario,
                           detect_loops, extend_scenario, lcof, lpr_sc, run_experiment, run_gp,
                           run_gp_cc, solve_flow_domain, spoc, table_row)
    from chainflow.cli import main
    assert sys.modules.get("networkx") is None

    # the e1 two-cycle of tests/test_flows.py::TestDetectLoops::test_two_cycle_detected
    g = Graph.from_undirected_edges([1, 2], [(1, 2)])
    app = Application(id="a", chain_length=1, destination=2, packet_sizes=(2.0, 1.0))
    e1 = Scenario(graph=g, applications=(app,),
                  link_costs={(1, 2): Linear(1.0), (2, 1): Linear(1.0)},
                  comp_costs={1: Linear(1.0), 2: Linear(3.0)},
                  input_rates={(1, "a"): 1.0})
    phi = Strategy.zeros(e1)
    phi.set_row(1, "a", 0, {"cpu": 1.0})
    phi.set_row(2, "a", 0, {"cpu": 1.0})
    phi.set_row(1, "a", 1, {2: 1.0})
    assert detect_loops(phi) == {}
    phi.set_row(1, "a", 0, {2: 0.5, "cpu": 0.5})
    phi.set_row(2, "a", 0, {1: 0.5, "cpu": 0.5})
    loops = detect_loops(phi)
    assert list(loops) == [("a", 0)]
    assert sorted(loops[("a", 0)][0]) == [1, 2]

    cfg = GpConfig(tol=1e-4)
    sw_spec = {"name": "sw", "topology": {"kind": "small_world", "n": 12, "short": 2,
                                          "long": 3},
               "num_apps": 2, "sources_per_app": 2, "chain_length": 1}
    sw = build_scenario(sw_spec, seed=1)
    s = build_scenario(table_row("abilene"), seed=1)

    base = run_gp(s, config=cfg)
    assert base.converged
    faster = s.with_rates({key: 1.1 * r for key, r in s.input_rates.items()})
    assert adapt(s, faster, base.phi, cfg).converged
    for u, v in sorted(s.graph.links, key=str):
        gone = {(u, v), (v, u)}
        try:
            g = Graph(nodes=s.graph.nodes, links=s.graph.links - gone)
        except ValueError:          # the link is a bridge
            continue
        down = Scenario(graph=g, applications=s.applications,
                        link_costs={l: c for l, c in s.link_costs.items() if l not in gone},
                        comp_costs=s.comp_costs, input_rates=s.input_rates)
        break
    assert adapt(s, down, base.phi, cfg).converged

    assert solve_flow_domain(s, tol=1e-6).total_cost <= base.total_cost * (1 + 1e-4)
    for baseline in (spoc, lcof, lpr_sc):
        baseline(s)

    caps = {pair: 2.0 * r for pair, r in sw.input_rates.items()}
    ext = extend_scenario(sw, caps, {pair: LinearUtility(5.0, cap=c) for pair, c in caps.items()})
    assert isinstance(run_gp_cc(ext, cfg), GpResult)

    records = run_experiment(ExperimentConfig(scenarios=["abilene"], seeds=[1],
                                              gp={"tol": 1e-4}))
    assert len(records) == 4

    with open(os.path.join(tmp, "sw.json"), "w", encoding="utf-8") as fh:
        json.dump(dict(sw_spec, seed=1), fh)
    assert main(["solve", "--config", os.path.join(tmp, "sw.json"),
                 "--out", os.path.join(tmp, "out"), "--tol", "1e-4"]) == 0
    loaded = [m for m, mod in sys.modules.items()
              if m.split(".")[0] == "networkx" and mod is not None]
    assert loaded == [], loaded[:5]
"""


@pytest.mark.parametrize("block", [True, False])
def test_solve_paths_run_without_networkx(tmp_path, block):
    # blocked: nothing may import networkx; unblocked: nothing does, a
    # looping strategy's detect_loops included
    _run_fresh(SOLVE_PATHS, tmp_path, block)
    assert (tmp_path / "out" / "strategy.json").exists()

