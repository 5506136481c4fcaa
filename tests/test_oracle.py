import re

import numpy as np
import pytest

from chainflow import (GpConfig, LoopDetected, NotConverged, Scenario, TooLarge,
                       build_scenario, check_sufficient, compute_flows, enumerate_bruteforce,
                       modified_marginals, run_gp, solve_flow_domain, strategy_from_flows,
                       table_row, traffic_marginals, validate_strategy)
from chainflow.flows import compiled
from chainflow.oracle import (FlowVector, _bisect, _blocks, _delta_entries, _exact_line_search,
                              _extract_path, _greedy_start, _rebuild, _sparse_line_search,
                              _totals, cheapest_extended_paths, enumerate_extended_paths,
                              flow_cost, path_cost)

from conftest import (hub_scenario, layered_dijkstra, make_strategy, random_loopfree_strategy,
                      random_scenario)
from test_acceptance import _loaded_scenario


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

    def test_iteration_budget(self):
        # two iterations do not reach tol 1e-10 on this tight draw (it needs 6)
        s = random_scenario(1, n=8, num_apps=2, K=2, link_bound=15.0, comp_bound=10.0)
        with pytest.raises(NotConverged, match="after 2 iterations"):
            solve_flow_domain(s, tol=1e-10, max_iters=2)
        res = solve_flow_domain(s, tol=1e-10, max_iters=2, strict=False)
        assert not res.converged and res.iterations == 2
        assert len(res.cost_trace) == len(res.gap_trace) == 2
        assert res.total_cost == res.cost_trace[-1]
        assert res.gap == res.gap_trace[-1] > 1e-10 * res.total_cost
        # the flows returned are the ones whose cost and gap were evaluated
        assert flow_cost(s, res.flows) == res.total_cost
        for strict in (True, False):
            with pytest.raises(NotConverged, match="allows no iteration"):
                solve_flow_domain(s, tol=1e-10, max_iters=0, strict=strict)

    def test_cost_trace_nonincreasing(self):
        s = random_scenario(6, n=7, num_apps=2, K=2)
        res = solve_flow_domain(s, tol=1e-6)
        diffs = np.diff(res.cost_trace)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(res.cost_trace[:-1])))


class TestFlowVector:
    @pytest.mark.parametrize("kind", ["link", "cpu", "absent link"])
    def test_misshaped_blocks_refused(self, kind):
        # one extra zero column or entry per block must not be read by
        # position, and flow on a link the scenario lacks must not vanish
        s = random_scenario(1, n=6, num_apps=2, K=1)
        res = solve_flow_domain(s, tol=1e-6)
        links, cpus = dict(res.flows.link_flows), dict(res.flows.cpu_flows)
        refusal = "block has shape"
        if kind == "link":
            links = {key: np.pad(block, ((0, 0), (0, 1))) for key, block in links.items()}
        elif kind == "cpu":
            cpus = {key: np.append(block, 0.0) for key, block in cpus.items()}
        else:
            links = {key: block.copy() for key, block in links.items()}
            u, v = next((u, v) for u, v in np.argwhere(~compiled(s).adj) if u != v)
            links[next(iter(links))][u, v] = 5.0
            refusal = "which the scenario lacks"
        fv = FlowVector(res.flows.nodes, links, cpus)
        first = next(iter(links))
        with pytest.raises(ValueError, match=re.escape(f"stage {first!r}")):
            flow_cost(s, fv)
        with pytest.raises(ValueError, match=refusal):
            strategy_from_flows(s, fv)

    def test_view_from_scenario_with_one_more_link_read_block_by_block(self):
        # flows laid out on the triangle with link (1, 3) read on the
        # triangle without it when they carry nothing there, as a strategy
        # does, and are refused when they do
        from test_flows import triangle
        full, cut = triangle([(1, 2), (2, 3), (1, 3)]), triangle([(1, 2), (2, 3)])
        comp = compiled(full)
        around = compute_flows(full, make_strategy(full, {(1, "a", 0): {2: 1.0},
                                                          (2, "a", 0): {3: 1.0}}))
        fv = FlowVector._on(comp, around.edge_flows, around.cpu_stack)
        assert flow_cost(cut, fv) == flow_cost(full, fv) == 2.0
        direct = solve_flow_domain(full, tol=1e-9).flows
        assert direct.link_flows[("a", 0)][0, 2] > 0
        with pytest.raises(ValueError, match=r"node 1 .*\(1, 3\), which the scenario lacks"):
            flow_cost(cut, direct)

    def test_view_blocks_are_read_only(self):
        # an edit to a view block, on the layout or off it, raises instead
        # of changing the engine's arrays or vanishing
        s = random_scenario(1, n=6, num_apps=1, K=1)
        res = solve_flow_domain(s, tol=1e-6)
        cost = flow_cost(s, res.flows)
        phi = strategy_from_flows(s, res.flows)
        state = compute_flows(s, phi)
        delta = modified_marginals(s, state, traffic_marginals(s, phi, state))
        key = next(iter(res.flows.link_flows))
        u, v = next((u, v) for u, v in np.argwhere(~compiled(s).adj) if u != v)
        i, j = np.argwhere(compiled(s).adj)[0]
        for block, at in [(res.flows.link_flows[key], (u, v)), (res.flows.link_flows[key], (i, j)),
                          (res.flows.cpu_flows[key], 0), (state.traffic[key], 0),
                          (delta[key], (0, 0))]:
            with pytest.raises(ValueError, match="read-only"):
                block[at] += 5.0
        assert flow_cost(s, res.flows) == cost
        assert flow_cost(s, FlowVector(s.graph.nodes, dict(res.flows.link_flows),
                                       dict(res.flows.cpu_flows))) == cost


class TestGreedyStart:
    def test_split_block_flows_match_registry(self):
        # on this tight-CPU draw one block only fits in two halves, so a
        # whole placement was tried and rejected first; none of its flow may
        # stay in the returned vector
        s = _loaded_scenario(25)
        comp = compiled(s)
        registry = {block: {} for block in _blocks(comp)}
        fv = _greedy_start(comp, registry)
        assert any(w < 1.0 for atoms in registry.values() for w in atoms.values())
        for got, want in zip(fv.arrays(comp), _rebuild(comp, registry).arrays(comp)):
            assert np.max(np.abs(got - want)) <= 1e-12
        F, G = _totals(comp, fv)
        assert not comp.links.saturated(F, 1e-12)
        assert not comp.cpus.saturated(G, 1e-12)


class TestLineSearches:
    def test_exact_and_sparse_agree_on_swaps(self):
        # both searches bisect the same 1-D convex cost, one over deltas on
        # every edge and node and one over the touched entries only
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
                target = _extract_path(succ, src)
                for worst in atoms:
                    ef, eg = _delta_entries(comp, app, target, worst)
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


def _bisect_100(deriv, hi):
    """`_bisect` without its early stop: always 100 bisections."""
    if hi <= 0:
        return 0.0
    if deriv(0.0) >= 0:
        return 0.0
    if deriv(hi) <= 0:
        return hi
    lo, up = 0.0, hi
    for _ in range(100):
        mid = 0.5 * (lo + up)
        if deriv(mid) <= 0:
            lo = mid
        else:
            up = mid
    return lo


class TestBisect:
    @pytest.mark.parametrize("seed", range(6))
    def test_early_stop_returns_the_100_step_result(self, seed):
        # derivatives of M/M/1 sums along a direction, shifted so that the
        # root lies at `where` * hi: near 0, mid-interval and near hi
        rng = np.random.default_rng(seed)
        for where in (1e-12, 1e-6, rng.uniform(0.2, 0.8), 1 - 1e-6, 1 - 1e-12):
            hi = rng.uniform(0.1, 1.0)
            c = rng.uniform(1.0, 10.0, 8)
            x = rng.uniform(0.1, 0.4, 8) * c
            d = rng.uniform(-0.1, 0.5, 8) * c / hi      # x + hi * d <= 0.9 c

            def mm1(gamma):
                return float(np.sum(d * c / (c - x - gamma * d) ** 2))

            shift, calls = mm1(where * hi), []

            def counted(gamma):
                calls.append(gamma)
                return mm1(gamma) - shift

            got = _bisect(counted, hi)
            early = len(calls)
            assert got == _bisect_100(counted, hi)
            assert early < len(calls) - early
            if 1e-6 <= where <= 1 - 1e-6:
                assert 0.0 < got < hi


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


class TestCheapestExtendedPaths:
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_enumeration(self, masked):
        # the draws of test_cross_oracle_agreement_random, priced at the flows
        # of a random strategy; masked, each application may only use the
        # links of its zero-flow tree to the destination, as in SPOC
        for seed in range(6):
            s = random_scenario(seed, n=5, num_apps=2, K=1, R=2,
                                link_bound=40.0, comp_bound=30.0)
            comp = compiled(s)
            state = compute_flows(s, random_loopfree_strategy(s, seed))
            Dp, Cp = comp.links.deriv(state.edge_bits), comp.cpus.deriv(state.workload)
            for app in comp.apps:
                adj = None
                if masked:
                    _, succ = comp.zero_flow_tree(np.arange(comp.n) == app.dest)
                    adj = np.zeros((comp.n, comp.n), dtype=bool)
                    on = succ >= 0
                    adj[on, succ[on]] = True
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp, {app.id: adj})
                for src in range(comp.n):
                    costs = [path_cost(comp, app, p, Dp, Cp)
                             for p in enumerate_extended_paths(s, app.id, src, 5000)
                             if adj is None or all(adj[st[2], st[3]] for st in p if st[0] == "L")]
                    best = min(costs, default=np.inf)
                    if not np.isfinite(best):
                        assert dist[0, src] == np.inf and succ[0, src] == -3
                        continue
                    assert dist[0, src] == pytest.approx(best, rel=1e-12, abs=0.0)
                    path = _extract_path(succ, src)
                    assert path_cost(comp, app, path, Dp, Cp) == pytest.approx(best, rel=1e-12)


    @pytest.mark.parametrize("draw", ["random", "hub"])
    def test_matches_layered_dijkstra(self, draw):
        # every third node has no CPU, so its CPU steps cost inf * 0 = nan;
        # odd seeds also mask a random half of each application's links
        for seed in range(3):
            base = random_scenario(seed, n=9) if draw == "random" else hub_scenario(seed)
            s = Scenario(graph=base.graph, applications=base.applications,
                         link_costs=base.link_costs, input_rates=base.input_rates,
                         comp_costs={v: None if i % 3 == 0 else cost
                                     for i, (v, cost) in enumerate(base.comp_costs.items())})
            comp = compiled(s)
            rng = np.random.default_rng(seed)
            Dp = rng.uniform(0.1, 1.0, comp.E)
            Cp = rng.uniform(0.1, 1.0, comp.n) * comp.has_cpu
            masks = {app.id: rng.random((comp.n, comp.n)) < 0.5 for app in comp.apps}
            masks = masks if seed % 2 else None
            for app in comp.apps:
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp, masks)
                link_w = np.outer(app.L, Dp)
                if masks:
                    link_w[:, ~masks[app.id][comp.src, comp.dst]] = np.inf
                with np.errstate(invalid="ignore"):
                    cpu_w = app.w.T * Cp
                seeds = np.full(dist.shape, np.inf)
                seeds[app.K, app.dest] = 0.0
                assert np.array_equal(dist, layered_dijkstra(comp, link_w, seeds, cpu_w))
                assert (succ[np.isinf(dist)] == -3).all()
                for src in np.flatnonzero(np.isfinite(dist[0])):
                    path = _extract_path(succ, src)
                    assert path_cost(comp, app, path, Dp, Cp) == pytest.approx(dist[0, src],
                                                                                rel=1e-12)

    def test_zero_size_final_stage_gives_trees(self):
        # default packet sizes (10, 5, 0): every final-stage link costs 0
        # and all final-stage labels tie at 0; a successor is taken only on
        # strict improvement, so the final-stage successors still form a
        # tree into the destination and every source's path ends
        for seed in range(4):
            s = random_scenario(seed, n=10, K=2)
            comp = compiled(s)
            state = compute_flows(s, random_loopfree_strategy(s, seed))
            Dp, Cp = comp.links.deriv(state.edge_bits), comp.cpus.deriv(state.workload)
            for app in comp.apps:
                assert app.L[app.K] == 0.0
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp)
                assert (dist[app.K] == 0.0).all()
                for v in range(comp.n):
                    for _ in range(comp.n):
                        if v == app.dest:
                            break
                        v = succ[app.K, v]
                    assert v == app.dest
                for src in range(comp.n):
                    path = _extract_path(succ, src)
                    assert path_cost(comp, app, path, Dp, Cp) == pytest.approx(dist[0, src],
                                                                                rel=1e-12)

    def test_all_applications_at_once_match_per_application(self):
        # the oracle's gap loop searches every application in one call; on
        # sw-queue draw 1 at the greedy start's marginals, unmasked and with
        # SPOC's tree masks, its rows are bit-equal to per-application calls
        s = build_scenario(table_row("sw-queue"), 1)
        comp = compiled(s)
        F, G = _totals(comp, _greedy_start(comp, {block: {} for block in _blocks(comp)}))
        Dp, Cp = comp.links.deriv(F), comp.cpus.deriv(G)
        masks = {}
        for app in comp.apps:
            _, nxt = comp.zero_flow_tree(np.arange(comp.n) == app.dest)
            masks[app.id] = np.zeros((comp.n, comp.n), dtype=bool)
            masks[app.id][nxt >= 0, nxt[nxt >= 0]] = True
        for m in (None, masks):
            dist, succ = cheapest_extended_paths(comp, None, Dp, Cp, m)
            for app in comp.apps:
                one = cheapest_extended_paths(comp, app, Dp, Cp, m)
                assert np.array_equal(dist[app.stages], one[0])
                assert np.array_equal(succ[app.stages], one[1])


class TestStrategyFromFlows:
    def test_e1_recovers_strategy_a(self, e1, e1_strategy_a):
        res = solve_flow_domain(e1, tol=1e-10)
        phi = strategy_from_flows(e1, res.flows)
        for key, mat in e1_strategy_a.rows.items():
            assert np.allclose(phi.rows[key], mat, atol=1e-9)

    def test_uniform_split_normalization(self, e1):
        comp = compiled(e1)
        fv = FlowVector(comp.nodes,
                        {k: np.zeros((2, 2)) for k in comp.keys},
                        {k: np.zeros(2) for k in comp.keys})
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
                        {k: np.zeros((6, 6)) for k in comp.keys},
                        {k: np.zeros(6) for k in comp.keys})
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
            assert np.max(np.abs(st.edge_bits - F)) <= 1e-9
            assert np.max(np.abs(st.workload - G)) <= 1e-9

    def test_positive_traffic_rows_untouched(self):
        # rows of nodes that carry traffic are the flows over the traffic;
        # only zero-traffic rows are filled, each with one unit direction
        for seed in range(4):
            s = random_scenario(seed, n=6, num_apps=2, K=2)
            res = solve_flow_domain(s, tol=1e-6)
            phi = strategy_from_flows(s, res.flows)
            comp = compiled(s)
            for app in comp.apps:
                for k in range(app.K + 1):
                    key = (app.id, k)
                    f = np.where(res.flows.link_flows[key] < 1e-12, 0.0,
                                 res.flows.link_flows[key])
                    g = np.where(res.flows.cpu_flows[key] < 1e-12, 0.0,
                                 res.flows.cpu_flows[key])
                    inj = app.r if k == 0 else res.flows.cpu_flows[(app.id, k - 1)]
                    t = f.sum(axis=0) + inj
                    mat = phi.rows[key]
                    for i in range(comp.n):
                        if k == app.K and i == app.dest:
                            assert not mat[i].any()
                        elif t[i] > 1e-12:
                            row = np.concatenate(([g[i]], f[i])) / t[i]
                            assert np.allclose(mat[i], row / row.sum(), rtol=0, atol=1e-12)
                        else:
                            assert sorted(mat[i][mat[i] != 0]) == [1.0]

    def test_zero_traffic_rows_take_cheapest_direction(self):
        # flows of random strategies are far from optimal, so a traffic
        # carrying node's marginal is often above what a zero-traffic detour
        # through it would offer; filled rows must still point at a minimal
        # modified marginal of the returned strategy
        filled = 0
        for seed in range(6):
            s = random_scenario(seed, n=10, num_apps=2, K=1 + seed % 2)
            state = compute_flows(s, random_loopfree_strategy(s, seed))
            fv = FlowVector(state.nodes, dict(state.link_flows), dict(state.cpu_flows))
            phi = strategy_from_flows(s, fv)
            new_state = compute_flows(s, phi)
            delta = modified_marginals(s, new_state, traffic_marginals(s, phi, new_state))
            comp = compiled(s)
            for app in comp.apps:
                for k in range(app.K + 1):
                    key = (app.id, k)
                    for i in np.flatnonzero(state.traffic[key] <= 1e-12):
                        if k == app.K and i == app.dest:
                            continue
                        row, d = phi.rows[key][i], delta[key][i]
                        assert d[row == 1.0][0] <= d.min() + 1e-12 * max(1.0, abs(d.min()))
                        filled += 1
        assert filled >= 50

    def test_oracle_strategy_satisfies_sufficient(self):
        for seed in range(3):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = solve_flow_domain(s, tol=1e-9)
            phi = strategy_from_flows(s, res.flows)
            assert check_sufficient(s, phi, tol=1e-4).holds

    def test_scenario_without_input(self):
        # no application has a positive input rate, so the scenario keeps
        # none: the oracle's flows are empty, and so is their strategy
        base = random_scenario(0, n=6, num_apps=2, K=1)
        s = Scenario(graph=base.graph, applications=base.applications,
                     link_costs=base.link_costs, comp_costs=base.comp_costs, input_rates={})
        phi = strategy_from_flows(s, solve_flow_domain(s).flows)
        assert validate_strategy(s, phi) == [] and compute_flows(s, phi).total_cost == 0.0


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
