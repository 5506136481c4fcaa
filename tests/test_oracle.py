import numpy as np
import pytest

from chainflow import (GpConfig, LoopDetected, TooLarge, check_sufficient, compute_flows,
                       enumerate_bruteforce, run_gp, solve_flow_domain,
                       strategy_from_flows, validate_strategy)
from chainflow.flows import compiled
from chainflow.oracle import (FlowVector, _blocks, _delta_entries, _exact_line_search,
                              _extract_path, _greedy_start, _sparse_line_search, _totals,
                              cheapest_extended_paths, enumerate_extended_paths, flow_cost)

from conftest import random_loopfree_strategy, random_scenario


class TestSolveFlowDomain:
    def test_e1_optimum(self, e1):
        res = solve_flow_domain(e1, tol=1e-8)
        assert res.converged
        assert res.total_cost == pytest.approx(2.0, abs=1e-6)

    def test_prop1_optimum(self, prop1):
        res = solve_flow_domain(prop1, tol=1e-8)
        assert res.total_cost == pytest.approx(0.3, abs=1e-6)

    def test_gap_certificate(self):
        s = random_scenario(4, n=7, num_apps=2, K=1)
        res = solve_flow_domain(s, tol=1e-6)
        assert res.converged
        assert res.gap <= 1e-6 * max(1.0, res.total_cost)
        assert res.gap_trace[-1] == res.gap

    def test_cost_trace_nonincreasing(self):
        s = random_scenario(6, n=7, num_apps=2, K=2)
        res = solve_flow_domain(s, tol=1e-6)
        diffs = np.diff(res.cost_trace)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(res.cost_trace[:-1])))


class TestLineSearches:
    def test_exact_and_sparse_agree_on_swaps(self):
        # both searches bisect the same 1-D convex cost, one over dense
        # (n, n) deltas and one over the touched entries only
        interior = 0
        for seed in range(6):
            s = random_scenario(seed, n=6, num_apps=2, K=1, link_bound=20.0,
                                comp_bound=10.0)
            comp = compiled(s)
            registry = {block: {} for block in _blocks(comp)}
            F, G = _totals(comp, _greedy_start(comp, registry))
            Dp, Cp = comp.links.deriv(F), comp.cpus.deriv(G)
            for (app, src, rate), atoms in registry.items():
                _, succ = cheapest_extended_paths(comp, app, Dp, Cp)
                target = _extract_path(app, succ, src)
                for worst in atoms:
                    ef, eg = _delta_entries(app, target, worst)
                    ef = {e: rate * d for e, d in ef.items()}
                    eg = {v: rate * d for v, d in eg.items()}
                    dF, dG = np.zeros_like(F), np.zeros_like(G)
                    for e, d in ef.items():
                        dF[e] = d
                    for v, d in eg.items():
                        dG[v] = d
                    dense = _exact_line_search(comp, F, G, dF, dG)
                    sparse = _sparse_line_search(comp, F, G, ef, eg, 1.0)
                    assert abs(dense - sparse) <= 1e-12
                    interior += 0.0 < sparse < 1.0
        assert interior >= 5


class TestBruteforce:
    def test_e1_agrees(self, e1):
        brute = enumerate_bruteforce(e1)
        assert brute.total_cost == pytest.approx(2.0, abs=1e-6)
        fw = solve_flow_domain(e1, tol=1e-8)
        assert abs(fw.total_cost - brute.total_cost) <= 1e-5

    def test_prop1_agrees(self, prop1):
        brute = enumerate_bruteforce(prop1)
        assert brute.total_cost == pytest.approx(0.3, abs=1e-6)

    def test_single_path_forced(self):
        from chainflow import Application, Graph, Linear, Scenario
        g = Graph.from_undirected_edges([0, 1, 2], [(0, 1), (1, 2)])
        app = Application(id="a", chain_length=1, destination=2, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Linear(1.0) for e in g.links},
                     comp_costs={0: None, 1: None, 2: Linear(2.0)},
                     input_rates={(0, "a"): 1.0})
        brute = enumerate_bruteforce(s)
        # forced: 0->1->2, compute at 2: data hops 2, comp 2
        assert brute.total_cost == pytest.approx(1.0 + 1.0 + 2.0, abs=1e-8)

    def test_cross_oracle_agreement_random(self):
        for seed in range(6):
            s = random_scenario(seed, n=5, num_apps=2, K=1, R=2,
                                link_bound=40.0, comp_bound=30.0)
            fw = solve_flow_domain(s, tol=1e-8)
            brute = enumerate_bruteforce(s, tol=1e-10, max_paths=5000)
            assert abs(fw.total_cost - brute.total_cost) <= 1e-5 * max(1.0, fw.total_cost)

    def test_too_large(self):
        s = random_scenario(0, n=8, num_apps=2, K=2)
        with pytest.raises(TooLarge):
            enumerate_bruteforce(s)

    def test_path_enumeration_structure(self, e1):
        paths = enumerate_extended_paths(e1, "a", 1)
        # expected: compute at 1 then ship; ship then compute at 2;
        # plus the detour 1->2 (data) back 2->1 compute at 1, ship 1->2
        assert (("C", 0, 0), ("L", 1, 0, 1)) in paths
        assert (("L", 0, 0, 1), ("C", 0, 1)) in paths
        for p in paths:
            assert sum(1 for st in p if st[0] == "C") == 1


class TestStrategyFromFlows:
    def test_e1_recovers_strategy_a(self, e1, e1_strategy_a):
        res = solve_flow_domain(e1, tol=1e-10)
        phi = strategy_from_flows(e1, res.flows)
        for key, mat in e1_strategy_a.rows.items():
            assert np.allclose(phi.rows[key], mat, atol=1e-9)

    def test_uniform_split_normalization(self, e1):
        comp = compiled(e1)
        fv = FlowVector(comp.nodes,
                        {k: np.zeros((2, 2)) for k in comp.stage_keys},
                        {k: np.zeros(2) for k in comp.stage_keys})
        # half computed at 1, half shipped and computed at 2
        fv.cpu_flows[("a", 0)][0] = 0.5
        fv.link_flows[("a", 0)][0, 1] = 0.5
        fv.cpu_flows[("a", 0)][1] = 0.5
        fv.link_flows[("a", 1)][0, 1] = 0.5
        phi = strategy_from_flows(e1, fv)
        assert phi.rows[("a", 0)][0, 0] == pytest.approx(0.5)
        assert phi.rows[("a", 0)][0, 2] == pytest.approx(0.5)

    @pytest.mark.parametrize("circling", [1.0, 1e-8])
    def test_cyclic_flow_refused(self, circling):
        # raw data circles 1 -> 2 -> 1 before node 2 computes it; on this
        # 6-node chain a small circling rate lets the marginal sweep settle
        # within its n + 1 sweeps, so the refusal cannot rest on the sweep
        from chainflow import Application, Graph, Linear, Scenario
        g = Graph.from_undirected_edges(range(1, 7), [(i, i + 1) for i in range(1, 6)])
        app = Application(id="a", chain_length=1, destination=6, packet_sizes=(2.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Linear(1.0) for e in g.links},
                     comp_costs={v: Linear(1.0) for v in g.nodes},
                     input_rates={(1, "a"): 1.0})
        comp = compiled(s)
        fv = FlowVector(comp.nodes,
                        {k: np.zeros((6, 6)) for k in comp.stage_keys},
                        {k: np.zeros(6) for k in comp.stage_keys})
        fv.link_flows[("a", 0)][0, 1] = 1.0 + circling
        fv.link_flows[("a", 0)][1, 0] = circling
        fv.cpu_flows[("a", 0)][1] = 1.0
        for i in range(1, 5):
            fv.link_flows[("a", 1)][i, i + 1] = 1.0
        with pytest.raises(LoopDetected):
            strategy_from_flows(s, fv)

    def test_round_trip_reproduces_totals(self):
        for seed in range(4):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = solve_flow_domain(s, tol=1e-9)
            phi = strategy_from_flows(s, res.flows)
            assert validate_strategy(s, phi) == []
            st = compute_flows(s, phi)
            comp = compiled(s)
            from chainflow.oracle import _totals
            F, G = _totals(comp, res.flows)
            assert np.max(np.abs(st.link_bits - F)) <= 1e-9
            assert np.max(np.abs(st.workload - G)) <= 1e-9

    def test_oracle_strategy_satisfies_sufficient(self):
        for seed in range(3):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = solve_flow_domain(s, tol=1e-9)
            phi = strategy_from_flows(s, res.flows)
            assert check_sufficient(s, phi, tol=1e-4).holds


class TestTwoSidedOptimality:
    def test_oracle_lower_bounds_all_strategies(self):
        for seed in range(4):
            s = random_scenario(seed, n=6, num_apps=1, K=1)
            tstar = solve_flow_domain(s, tol=1e-8).total_cost
            for j in range(3):
                phi = random_loopfree_strategy(s, 100 * seed + j)
                T = compute_flows(s, phi).total_cost
                assert tstar <= T + 1e-6
                if check_sufficient(s, phi).holds:
                    assert T <= tstar + 1e-6 * max(1.0, tstar)

    def test_gp_meets_oracle(self):
        s = random_scenario(9, n=7, num_apps=2, K=1)
        gp = run_gp(s, config=GpConfig(tol=1e-7, max_iters=6000))
        assert gp.converged
        tstar = solve_flow_domain(s, tol=1e-8).total_cost
        assert gp.total_cost <= tstar * 1.01 + 1e-9
        assert tstar <= gp.total_cost + 1e-6 * max(1.0, tstar)
