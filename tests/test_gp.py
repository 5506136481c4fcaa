import numpy as np
import pytest

from chainflow import (GpConfig, Strategy, adapt, check_sufficient, compute_flows,
                       detect_loops, gp_step, run_gp, validate_strategy)
from chainflow.flows import compiled
from chainflow.marginals import (blocked_sets, modified_marginals,
                                 traffic_marginals)

from conftest import make_strategy, random_loopfree_strategy, random_scenario


def _single_row_case(alpha, deltas, fractions, blocked_to=None):
    """Drive gp_step on a 3-node star where node 0's final-stage row has the
    given deltas: done via a synthetic delta table on a real scenario.
    `blocked_to` names a node whose link from node 0 is flagged blocked."""
    from chainflow import Application, Graph, Linear, Scenario
    g = Graph.from_undirected_edges([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    app = Application(id="a", chain_length=0, destination=1, packet_sizes=(1.0,))
    s = Scenario(graph=g, applications=(app,),
                 link_costs={e: Linear(1.0) for e in g.links},
                 comp_costs={0: None, 1: None, 2: None},
                 input_rates={(0, "a"): 1.0})
    phi = make_strategy(s, {(0, "a", 0): {1: fractions[0], 2: fractions[1]},
                            (2, "a", 0): {1: 1.0}})
    state = compute_flows(s, phi)
    lam = traffic_marginals(s, phi, state)
    delta = modified_marginals(s, state, lam)
    d = delta[("a", 0)]
    d[0, 2] = deltas[0]   # toward node 1
    d[0, 3] = deltas[1]   # toward node 2
    blocked = blocked_sets(s, phi, lam)
    blocked.masks[("a", 0)][:] = False
    blocked.masks[("a", 0)][:, 0] = True  # self column unused anyway
    blocked.masks[("a", 0)][0, 0] = True
    if blocked_to is not None:
        blocked.masks[("a", 0)][0, blocked_to] = True
    cfg = GpConfig(stepsize=alpha)
    nxt = gp_step(s, phi, cfg, state, lam, delta, blocked)
    return nxt.rows[("a", 0)][0, 2], nxt.rows[("a", 0)][0, 3]


class TestGpStep:
    def test_reduction_example(self):
        # deltas (5, 2), fractions (0.4, 0.6), alpha 0.1:
        # e = (3, 0); move min(0.4, 0.3) = 0.3 onto the minimal direction
        f1, f2 = _single_row_case(0.1, (5.0, 2.0), (0.4, 0.6))
        assert f1 == pytest.approx(0.1)
        assert f2 == pytest.approx(0.9)

    def test_blocked_direction_zeroed(self, e1, e1_strategy_b):
        # a flagged direction without mass is blocked and stays at zero,
        # even with the row's minimum marginal (Gallager 1977)
        assert _single_row_case(0.1, (2.0, 5.0), (0.0, 1.0), blocked_to=1) == (0.0, 1.0)
        # a flagged direction with mass is not blocked: its mass leaves at
        # the stepsize rate, like that of any other non-minimal direction
        state = compute_flows(e1, e1_strategy_b)
        lam = traffic_marginals(e1, e1_strategy_b, state)
        delta = modified_marginals(e1, state, lam)
        blocked = blocked_sets(e1, e1_strategy_b, lam)
        # force-block node 1's link (1,2) on the data stage
        blocked.masks[("a", 0)][0, 1] = True
        nxt = gp_step(e1, e1_strategy_b, GpConfig(stepsize=0.05),
                      state, lam, delta, blocked)
        d = delta[("a", 0)][0]
        move = 0.05 * (d[2] - d[0])
        assert 0.0 < move < 1.0
        assert nxt.rows[("a", 0)][0, 2] == pytest.approx(1.0 - move)
        assert nxt.rows[("a", 0)][0, 0] == pytest.approx(move)

    def test_fixed_point_at_sufficient(self, e1, e1_strategy_a):
        assert check_sufficient(e1, e1_strategy_a).holds
        nxt = gp_step(e1, e1_strategy_a, GpConfig())
        for key, mat in e1_strategy_a.rows.items():
            assert np.array_equal(nxt.rows[key], mat)

    def test_fixed_point_iff_sufficient_random(self):
        for seed in range(6):
            s = random_scenario(seed)
            phi = random_loopfree_strategy(s, seed + 7)
            nxt = gp_step(s, phi, GpConfig())
            unchanged = all(np.allclose(nxt.rows[k], phi.rows[k], atol=1e-15)
                            for k in phi.rows)
            holds = check_sufficient(s, phi, tol=1e-9).holds
            assert unchanged == holds


class TestRunGp:
    def test_e1_from_b_converges_to_optimum(self, e1, e1_strategy_b):
        res = run_gp(e1, e1_strategy_b, GpConfig(tol=1e-8))
        assert res.converged
        assert res.total_cost == pytest.approx(2.0, abs=1e-3)
        assert check_sufficient(e1, res.phi).holds

    def test_trace_nonincreasing_adaptive(self):
        for seed in range(4):
            s = random_scenario(seed)
            res = run_gp(s, config=GpConfig(max_iters=300, tol=1e-5))
            diffs = np.diff(res.trace)
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(res.trace[:-1])))

    def test_history_counts_halvings(self, tmp_path):
        # on tight capacities a unit stepsize overshoots: such slots are
        # retried at half the stepsize, and each retry is counted
        s = random_scenario(1, link_bound=10.0, comp_bound=10.0)
        res = run_gp(s, config=GpConfig(stepsize=1.0, max_iters=40, tol=1e-9))
        assert sum(row["halvings"] for row in res.history) > 0
        for row, nxt in zip(res.history, res.history[1:]):
            halved = row["stepsize"] * 0.5 ** row["halvings"]
            assert nxt["stepsize"] in (halved, 2 * halved)
        res.write_trace_csv(tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "iter,T,max_gap,stepsize,halvings"
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:]] == \
            [row["halvings"] for row in res.history]

    def test_every_iterate_feasible_and_loop_free(self):
        s = random_scenario(2)
        phi0 = random_loopfree_strategy(s, 21)
        seen = []

        def cb(i, phi, state):
            seen.append(i)
            assert validate_strategy(s, phi) == []
            assert detect_loops(phi) == {}

        run_gp(s, phi0, config=GpConfig(max_iters=60, tol=1e-5, on_iterate=cb))
        assert len(seen) >= 2

    def test_converged_point_satisfies_sufficient(self):
        for seed in range(3):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = run_gp(s, config=GpConfig(max_iters=3000, tol=1e-6))
            assert res.converged
            assert check_sufficient(s, res.phi, tol=1e-5).holds

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_converged_means_check_sufficient_holds_at_tol(self, seed):
        # the GP gap and check_sufficient are one rule: converged at tol is
        # check_sufficient holding at tol, and the gap is the checker's edge
        s = random_scenario(seed, link_bound=15.0, comp_bound=10.0)
        phi0 = random_loopfree_strategy(s, seed, full_support=True)
        assert not check_sufficient(s, phi0, tol=1e-6).holds
        res = run_gp(s, phi0, GpConfig(tol=1e-6, max_iters=3000))
        assert res.converged and res.iterations > 0
        assert check_sufficient(s, res.phi, tol=1e-6).holds
        assert check_sufficient(s, res.phi, tol=res.final_gap).holds
        if res.final_gap > 0:
            below = np.nextafter(res.final_gap, 0.0)
            assert not check_sufficient(s, res.phi, tol=below).holds

    def test_row_filter_restricts_updates(self):
        s = random_scenario(1)
        phi0 = random_loopfree_strategy(s, 11)
        final = s.applications[0].chain_length
        keep = {k: v.copy() for k, v in phi0.rows.items()}
        res = run_gp(s, phi0, GpConfig(max_iters=40, tol=1e-9,
                                       row_filter=lambda key: key[1] == final))
        for key, mat in res.phi.rows.items():
            if key[1] != final:
                assert np.array_equal(mat, keep[key])


class TestAdapt:
    def test_repair_cycle_rebuilt(self):
        # removing (2,3) dumps node 2's mass on its only neighbor, node 1,
        # which forwards to 2: the repair must rebuild the cyclic stage
        from chainflow import Application, Graph, Linear, Scenario
        app = Application(id="a", chain_length=0, destination=3, packet_sizes=(1.0,))

        def triangle(edges):
            g = Graph.from_undirected_edges([1, 2, 3], edges)
            return Scenario(graph=g, applications=(app,),
                            link_costs={e: Linear(1.0) for e in g.links},
                            comp_costs={1: None, 2: None, 3: None},
                            input_rates={(1, "a"): 1.0})

        s = triangle([(1, 2), (2, 3), (1, 3)])
        s2 = triangle([(1, 2), (1, 3)])
        phi = make_strategy(s, {(1, "a", 0): {2: 1.0}, (2, "a", 0): {3: 1.0}})
        res = adapt(s, s2, phi, GpConfig(tol=1e-8))
        assert validate_strategy(s2, res.phi) == []
        assert detect_loops(res.phi) == {}
        assert res.converged
        assert res.total_cost == pytest.approx(1.0)

    def test_start_without_finite_cost_refused(self):
        # the only route of the new scenario's rate overflows its link
        from chainflow import Application, Graph, NoFeasibleStrategy, Queue, Scenario
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=0, destination=2, packet_sizes=(1.0,))

        def at(rate):
            return Scenario(graph=g, applications=(app,),
                            link_costs={e: Queue(2.0) for e in g.links},
                            comp_costs={1: None, 2: None}, input_rates={(1, "a"): rate})

        s = at(1.0)
        with pytest.raises(NoFeasibleStrategy, match="repair could not restore finite cost"):
            adapt(s, at(3.0), run_gp(s).phi)

    def test_no_change_zero_iterations(self):
        s = random_scenario(3, n=6, num_apps=1, K=1)
        base = run_gp(s, config=GpConfig(tol=1e-7, max_iters=3000))
        assert base.converged
        res = adapt(s, s, base.phi, GpConfig(tol=1e-7, max_iters=100))
        assert res.iterations == 0
        for key, mat in base.phi.rows.items():
            assert np.allclose(res.phi.rows[key], mat, atol=1e-12)

    def test_removed_link_stays_unused(self):
        from chainflow import Scenario
        s = random_scenario(5, n=6, num_apps=1, K=1)
        base = run_gp(s, config=GpConfig(tol=1e-6, max_iters=3000))
        # remove one link carrying positive flow if possible, else any link
        comp = compiled(s)
        F = base.state.link_bits
        cand = sorted(((u, v) for (u, v) in s.graph.links), key=str)
        pick = None
        for (u, v) in cand:
            i, j = comp.index[u], comp.index[v]
            deg_u = int(comp.adj[i].sum())
            deg_v = int(comp.adj[j].sum())
            if deg_u > 1 and deg_v > 1:
                pick = (u, v)
                if F[i, j] > 0:
                    break
        u, v = pick
        new_links = frozenset(e for e in s.graph.links if e not in {(u, v), (v, u)})
        from chainflow import Graph
        g2 = Graph(nodes=s.graph.nodes, links=new_links)
        s2 = Scenario(graph=g2, applications=s.applications,
                      link_costs={e: c for e, c in s.link_costs.items() if e in new_links},
                      comp_costs=s.comp_costs, input_rates=s.input_rates, seed=s.seed)
        res = adapt(s, s2, base.phi, GpConfig(tol=1e-6, max_iters=2000))
        assert validate_strategy(s2, res.phi) == []
        iu = comp.index[u]
        iv = comp.index[v]
        for key, mat in res.phi.rows.items():
            assert mat[iu, 1 + iv] == 0.0
            assert mat[iv, 1 + iu] == 0.0

    def test_warm_start_tracks_small_perturbations(self):
        s = random_scenario(7, n=6, num_apps=1, K=1)
        cfg = GpConfig(tol=1e-7, max_iters=4000)
        base = run_gp(s, config=cfg)
        assert base.converged
        rng = np.random.default_rng(0)
        direction = {k: rng.uniform(-1, 1) for k in s.input_rates}
        drift = []
        for size in (0.04, 0.02, 0.01):
            rates = {k: v * (1 + size * direction[k]) for k, v in s.input_rates.items()}
            res = adapt(s, s.with_rates(rates), base.phi, cfg)
            dmax = max(float(np.max(np.abs(res.phi.rows[key] - base.phi.rows[key])))
                       for key in base.phi.rows)
            drift.append(dmax)
        assert drift[2] <= drift[1] + 1e-9
        assert drift[1] <= drift[0] + 1e-9


def _without(s, nodes=(), links=()):
    """s without the given nodes, their links and the given undirected links."""
    from chainflow import Graph, Scenario
    gone = {l for link in links for l in (link, link[::-1])}
    gone |= {l for l in s.graph.links if l[0] in nodes or l[1] in nodes}
    keep = tuple(v for v in s.graph.nodes if v not in nodes)
    g = Graph(nodes=keep, links=frozenset(s.graph.links - gone))
    return Scenario(graph=g, applications=s.applications,
                    link_costs={l: c for l, c in s.link_costs.items() if l not in gone},
                    comp_costs={v: c for v, c in s.comp_costs.items() if v in keep},
                    input_rates={key: r for key, r in s.input_rates.items() if key[0] in keep})


class TestAdaptRobustness:
    CFG = GpConfig(tol=1e-6, max_iters=3000)

    def _check(self, s, s2, phi, nodes=(), links=()):
        from chainflow import solve_flow_domain
        res = adapt(s, s2, phi, self.CFG)
        assert res.converged
        assert validate_strategy(s2, res.phi) == []
        assert detect_loops(res.phi) == {}
        optimum = solve_flow_domain(s2, tol=1e-10).total_cost
        assert res.total_cost == pytest.approx(optimum, rel=1e-9)
        comp = compiled(s2)
        assert not any(v in comp.index for v in nodes)
        for u, v in links:
            i, j = comp.index[u], comp.index[v]
            assert all(m[i, 1 + j] == 0 and m[j, 1 + i] == 0 for m in res.phi.rows.values())

    def test_link_down_does_not_stall(self):
        # removing the second-busiest link leaves mass on two links that
        # blocked_sets flags; zeroing that mass in one move raised the cost
        # at every stepsize, so the run stopped at slot 0, 8% above the
        # optimum
        s = random_scenario(21, n=7, num_apps=2, K=1)
        self._check(s, _without(s, links=[(0, 5)]), run_gp(s, config=self.CFG).phi,
                    links=[(0, 5)])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_link_removal(self, seed):
        import networkx as nx
        s = random_scenario(seed, n=7, num_apps=2, K=1)
        base = run_gp(s, config=self.CFG)
        F, index, g = base.state.link_bits, compiled(s).index, nx.Graph(list(s.graph.links))
        loaded = sorted((u, v) for u, v in g.edges
                        if F[index[u], index[v]] + F[index[v], index[u]] > 0
                        and nx.is_connected(nx.restricted_view(g, [], [(u, v)])))
        link = loaded[int(np.random.default_rng(seed).integers(len(loaded)))]
        self._check(s, _without(s, links=[link]), base.phi, links=[link])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_node_removal(self, seed):
        import networkx as nx
        s = random_scenario(seed, n=7, num_apps=2, K=1)
        base = run_gp(s, config=self.CFG)
        g = nx.Graph(list(s.graph.links))
        dests = {a.destination for a in s.applications}
        spare = sorted(v for v in g.nodes if v not in dests
                       and nx.is_connected(nx.restricted_view(g, [v], [])))
        node = spare[int(np.random.default_rng(seed).integers(len(spare)))]
        self._check(s, _without(s, nodes=[node]), base.phi, nodes=[node])


# ---------------------------------------------------------------------------
# adapt's repair: the start it hands to run_gp (max_iters=0 runs no slot)
# ---------------------------------------------------------------------------

def _chain_scenario(nodes, edges, slopes=None, cpus=None):
    """One task, then results to node 3; unit input at node 1, unit packet
    sizes and workloads, Linear links (slope 1 unless given) and CPUs."""
    from chainflow import Application, Graph, Linear, Scenario
    g = Graph.from_undirected_edges(nodes, edges)
    slopes = slopes or {}
    app = Application(id="a", chain_length=1, destination=3, packet_sizes=(1.0, 1.0))
    return Scenario(graph=g, applications=(app,),
                    link_costs={(u, v): Linear(slopes.get(frozenset((u, v)), 1.0))
                                for (u, v) in g.links},
                    comp_costs={v: Linear(1.0) for v in nodes} if cpus is None else cpus,
                    input_rates={(1, "a"): 1.0})


def _repaired(old, new, phi):
    return adapt(old, new, phi, GpConfig(max_iters=0)).phi


class TestRepair:
    ROWS = {(1, "a", 0): {"cpu": 1.0}, (2, "a", 0): {"cpu": 1.0}, (3, "a", 0): {"cpu": 1.0},
            (1, "a", 1): {2: 1.0}, (2, "a", 1): {3: 1.0}}

    def _rows(self, phi, nodes):
        return {(v, "a", k): phi.row(v, "a", k) for v in nodes for k in (0, 1)
                if (v, k) != (3, 1)}

    def test_node_added_gets_fresh_rows(self):
        old = _chain_scenario([1, 2, 3], [(1, 2), (2, 3)])
        new = _chain_scenario([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)])
        phi = _repaired(old, new, make_strategy(old, self.ROWS))
        # node 4 computes where its data sits and sends results toward 3
        assert self._rows(phi, [1, 2, 3, 4]) == {**self.ROWS, (4, "a", 0): {"cpu": 1.0},
                                                  (4, "a", 1): {2: 1.0}}

    def test_node_removed_frees_its_share(self):
        old = _chain_scenario([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
        rows = {**self.ROWS, (4, "a", 0): {"cpu": 1.0}, (4, "a", 1): {3: 1.0},
                (2, "a", 1): {3: 0.5, 4: 0.5}}
        new = _chain_scenario([1, 2, 3], [(1, 2), (2, 3)])
        phi = _repaired(old, new, make_strategy(old, rows))
        # the half sent to 4 joins the cheaper remaining link (2,3)
        assert self._rows(phi, [1, 2, 3]) == self.ROWS

    def test_cpu_lost_moves_mass_to_cheapest_link(self):
        from chainflow import Linear
        slopes = {frozenset((1, 3)): 5.0}
        edges = [(1, 2), (2, 3), (1, 3)]
        old = _chain_scenario([1, 2, 3], edges, slopes)
        rows = {**self.ROWS, (1, "a", 0): {"cpu": 0.6, 3: 0.4}, (1, "a", 1): {3: 1.0}}
        new = _chain_scenario([1, 2, 3], edges, slopes,
                              cpus={1: None, 2: Linear(1.0), 3: Linear(1.0)})
        phi = _repaired(old, new, make_strategy(old, rows))
        # stage-0 modified marginals at node 1: (1,2) costs 1 + (1 + 1) = 3,
        # (1,3) costs 5 + 1 = 6, so the CPU's 0.6 goes to node 2
        assert self._rows(phi, [1, 2, 3]) == {**rows, (1, "a", 0): {2: 0.6, 3: 0.4}}

    def test_freed_mass_tie_goes_to_first_direction(self):
        # without the diagonal (1,3), node 1's results can go via 2 or via 4
        # at exactly equal modified marginals, 1 + 1 = 2: the first wins
        edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
        old = _chain_scenario([1, 2, 3, 4], edges + [(1, 3)])
        rows = {**self.ROWS, (4, "a", 0): {"cpu": 1.0}, (1, "a", 1): {3: 1.0},
                (4, "a", 1): {3: 1.0}}
        new = _chain_scenario([1, 2, 3, 4], edges)
        phi = _repaired(old, new, make_strategy(old, rows))
        assert self._rows(phi, [1, 2, 3, 4]) == {**rows, (1, "a", 1): {2: 1.0}}

    def test_link_added_starts_empty(self):
        old = _chain_scenario([1, 2, 3], [(1, 2), (2, 3)])
        new = _chain_scenario([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        phi = _repaired(old, new, make_strategy(old, self.ROWS))
        assert self._rows(phi, [1, 2, 3]) == self.ROWS

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_random_removals(self, seed):
        import networkx as nx
        from chainflow import Graph, Scenario
        s = random_scenario(seed, n=7, num_apps=2, K=1)
        base = run_gp(s, config=GpConfig(tol=1e-4, max_iters=300))
        rng = np.random.default_rng(seed)
        # remove a node, a link that keeps the rest connected, and a CPU
        g = nx.Graph(list(s.graph.links))
        dests = {a.destination for a in s.applications}
        movable = [v for v in s.graph.nodes if v not in dests
                   and nx.is_connected(g.subgraph(set(g) - {v}))]
        gone = movable[rng.integers(len(movable))]
        g.remove_node(gone)
        bridges = {tuple(sorted(b)) for b in nx.bridges(g)}
        cut = sorted({tuple(sorted(l)) for l in g.edges} - bridges)
        down = cut[rng.integers(len(cut))] if cut else None
        nodes = tuple(v for v in s.graph.nodes if v != gone)
        no_cpu = nodes[rng.integers(len(nodes))]
        removed = {down, down[::-1]} if down else set()
        kept = frozenset(l for l in s.graph.links
                         if l not in removed and gone not in l)
        s2 = Scenario(graph=Graph(nodes=nodes, links=kept), applications=s.applications,
                      link_costs={l: s.link_costs[l] for l in kept},
                      comp_costs={v: None if v == no_cpu else s.comp_costs[v] for v in nodes},
                      input_rates={p: r for p, r in s.input_rates.items() if p[0] != gone},
                      seed=s.seed)
        for cfg in (GpConfig(max_iters=0), GpConfig(tol=1e-4, max_iters=200)):
            res = adapt(s, s2, base.phi, cfg)
            assert validate_strategy(s2, res.phi) == []
            assert detect_loops(res.phi) == {}
            assert np.isfinite(res.total_cost)
            assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
            for (app_id, k), mat in res.phi.rows.items():
                i = nodes.index(no_cpu)
                assert mat[i, 0] == 0.0
                for u, v in removed:
                    assert mat[nodes.index(u), 1 + nodes.index(v)] == 0.0
