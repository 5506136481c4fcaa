import itertools
import math

import networkx as nx
import numpy as np
import pytest

from chainflow import (GpConfig, LocalComputationInfeasible, build_scenario, eval_cost_prime,
                       lcof, lpr_sc, run_gp, spoc, table_row, validate_strategy)
from chainflow.baselines import BASELINES

from conftest import random_scenario


class TestSpoc:
    def test_e1_computes_at_source(self, e1):
        res = spoc(e1)
        assert res.feasible
        assert res.total_cost == pytest.approx(2.0, abs=1e-6)
        # the whole split sits on node 1's CPU
        assert res.phi.rows[("a", 0)][0, 0] == pytest.approx(1.0, abs=1e-6)

    def test_prop1_routes_long_path(self, prop1):
        res = spoc(prop1)
        assert res.total_cost == pytest.approx(0.3, abs=1e-6)

    def test_output_valid(self):
        for seed in range(4):
            s = random_scenario(seed)
            res = spoc(s)
            assert validate_strategy(s, res.phi) == []


class TestLcof:
    def test_e1(self, e1):
        res = lcof(e1)
        assert res.total_cost == pytest.approx(2.0, abs=1e-6)

    def test_prop1_infeasible(self, prop1):
        with pytest.raises(LocalComputationInfeasible):
            lcof(prop1)

    def test_only_final_stage_rows_touched(self):
        s = random_scenario(2)
        from chainflow import init_strategy
        start = init_strategy(s, "shortest_path_then_local_comp")
        res = lcof(s)
        for key, mat in res.phi.rows.items():
            if key[1] < s.app(key[0]).chain_length:
                assert np.array_equal(mat, start.rows[key])

    @pytest.mark.parametrize("make", [
        lambda: random_scenario(0, packet_sizes=(4.0, 2.0, 1.5)),
        lambda: build_scenario(dict(table_row("abilene"), packet_sizes=[3, 2, 1]), 2),
    ], ids=["random-0", "abilene-2"])
    def test_forwards_results_optimally(self, make):
        # nonzero result sizes: LCOF has results to forward, and its cost is
        # the local computation's plus the optimal forwarding of the results
        from chainflow import (Application, Scenario, compute_flows, eval_cost,
                               init_strategy, solve_flow_domain)
        s = make()
        start = init_strategy(s, "shortest_path_then_local_comp")
        local = compute_flows(s, start)
        cpu = sum(eval_cost(c, local.G(v)) for v, c in s.comp_costs.items() if c is not None)
        results = Scenario(graph=s.graph, link_costs=s.link_costs, comp_costs=s.comp_costs,
                           input_rates=s.input_rates, applications=tuple(
                               Application(a.id, 0, a.destination, a.packet_sizes[-1:])
                               for a in s.applications))
        forward = solve_flow_domain(results, tol=1e-10).total_cost
        res = lcof(s)
        assert res.total_cost < local.total_cost
        assert res.total_cost == pytest.approx(cpu + forward, rel=1e-9)
        for key, mat in res.phi.rows.items():
            if key[1] < s.app(key[0]).chain_length:
                assert np.array_equal(mat, start.rows[key])

    def test_unconverged_forwarding_reported(self):
        # run_gp stops here at its 4,000-slot budget with a gap near 8e-7,
        # above LCOF's tol 1e-7
        res = lcof(random_scenario(11, link_bound=15.0, packet_sizes=(2.0, 1.0, 2.0)))
        assert res.feasible and not res.converged

    def test_unconverged_forwarding_recorded(self):
        from chainflow.experiments import run_algorithm
        rec = run_algorithm("lcof", random_scenario(11, link_bound=15.0,
                                                    packet_sizes=(2.0, 1.0, 2.0)), GpConfig())
        assert rec["feasible"] and rec["converged"] is False

    def test_capacity_infeasible(self):
        from chainflow import Application, Graph, Queue, Scenario
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=1, destination=2, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={(1, 2): Queue(100.0), (2, 1): Queue(100.0)},
                     comp_costs={1: Queue(0.5), 2: Queue(100.0)},
                     input_rates={(1, "a"): 1.0})
        with pytest.raises(LocalComputationInfeasible):
            lcof(s)


class TestLprSc:
    def test_e1_estimates_and_choice(self, e1):
        res = lpr_sc(e1)
        assert res.feasible
        # estimate compute@1 = comp 1 + result hop 1 = 2; compute@2 = 2 + 3 = 5
        assert res.phi.rows[("a", 0)][0, 0] == 1.0   # node 1 computes
        assert res.total_cost == pytest.approx(2.0, abs=1e-9)

    def test_single_cpu_forced(self, prop1):
        res = lpr_sc(prop1)
        assert res.feasible
        # only node 4 has a CPU: placement forced there, shortest path used
        assert res.phi.rows[("p", 0)][3, 0] == 1.0
        assert res.total_cost == pytest.approx(0.3, abs=1e-9)

    def test_capacity_reported_infeasible(self):
        from chainflow import Application, Graph, Queue, Scenario
        g = Graph.from_undirected_edges([1, 2, 3], [(1, 2), (2, 3)])
        app = Application(id="a", chain_length=1, destination=3,
                          packet_sizes=(3.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Queue(2.0) for e in g.links},
                     comp_costs={1: None, 2: None, 3: Queue(50.0)},
                     input_rates={(1, "a"): 1.0})
        res = lpr_sc(s)   # must push 3 bits/s of data through a 2-capacity link
        assert not res.feasible
        assert res.total_cost == math.inf

    def test_output_valid(self):
        for seed in range(4):
            s = random_scenario(seed)
            res = lpr_sc(s)
            assert validate_strategy(s, res.phi) == []

    @pytest.mark.parametrize("K", [1, 2, 3])
    def test_sites_minimize_the_linear_estimate(self, K):
        # reference: the estimate of every one of the n^K site tuples, on
        # networkx's zero-flow distances; a tie may pick either tuple, so
        # estimates are compared, not sites
        for seed in range(6):
            s = random_scenario(seed, n=6, num_apps=2, K=K,
                                packet_sizes=(4.0, 1.5, 2.5, 1.0)[:K + 1])
            g = nx.DiGraph()
            g.add_weighted_edges_from((u, v, eval_cost_prime(c, 0.0))
                                      for (u, v), c in s.link_costs.items() if c is not None)
            dist = dict(nx.all_pairs_dijkstra_path_length(g))
            res = lpr_sc(s)
            for app in s.applications:
                rates = {v: r for (v, a), r in s.input_rates.items() if a == app.id and r > 0}
                R, L = sum(rates.values()), app.packet_sizes

                def estimate(sites):
                    est = sum(r * L[0] * dist[v][sites[0]] for v, r in rates.items())
                    for k, v in enumerate(sites):
                        cpu = s.comp_costs[v]
                        est += R * (math.inf if cpu is None
                                    else app.weight(v, k) * eval_cost_prime(cpu, 0.0))
                        est += R * L[k + 1] * dist[v][(*sites, app.destination)[k + 1]]
                    return est

                picked = [s.graph.nodes[i] for k in range(K)
                          for i in np.flatnonzero(res.phi.rows[(app.id, k)][:, 0] == 1.0)]
                assert len(picked) == K
                best = min(map(estimate, itertools.product(s.graph.nodes, repeat=K)))
                assert estimate(picked) == pytest.approx(best, rel=1e-12, abs=0)


class TestDominance:
    def test_gp_beats_all_baselines(self):
        for seed in range(4):
            s = random_scenario(seed, n=7, num_apps=2, K=2)
            gp = run_gp(s, config=GpConfig(tol=1e-7, max_iters=6000))
            assert gp.converged
            for name, algo in BASELINES.items():
                try:
                    res = algo(s)
                except LocalComputationInfeasible:
                    continue
                assert gp.total_cost <= res.total_cost + 1e-6, name
