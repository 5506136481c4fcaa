import re

import numpy as np
import pytest

from chainflow import (Application, CapacityExceeded, Graph, Linear, LoopDetected,
                       NoFeasibleStrategy, Queue, Scenario, Strategy, check_kkt,
                       check_sufficient, compute_flows, detect_loops, init_strategy,
                       max_conservation_residual, run_gp, validate_strategy)
from chainflow.flows import INIT_MODES, Segments, StageLevels, cheapest_to_go, compiled

from conftest import (hub_scenario, layered_dijkstra, make_strategy, random_loopfree_strategy,
                      random_scenario)


def path_scenario(nodes):
    """Routing only (no task) along a path of unit-slope links, from the
    first node to the last, at unit rate: the only route costs len - 1."""
    g = Graph(nodes=tuple(nodes), links=frozenset(
        l for u, v in zip(sorted(nodes), sorted(nodes)[1:]) for l in ((u, v), (v, u))))
    app = Application(id="a", chain_length=0, destination=max(nodes), packet_sizes=(1.0,))
    return Scenario(graph=g, applications=(app,),
                    link_costs={l: Linear(1.0) for l in g.links},
                    comp_costs={v: None for v in nodes}, input_rates={(1, "a"): 1.0})


def triangle(links):
    """Routing only on the triangle 1, 2, 3 with the given unit-slope
    links, from node 1 to node 3 at unit rate."""
    g = Graph.from_undirected_edges([1, 2, 3], links)
    app = Application(id="a", chain_length=0, destination=3, packet_sizes=(1.0,))
    return Scenario(graph=g, applications=(app,),
                    link_costs={l: Linear(1.0) for l in g.links},
                    comp_costs={v: None for v in g.nodes}, input_rates={(1, "a"): 1.0})


class TestValidate:
    def test_e1_strategy_a_ok(self, e1, e1_strategy_a):
        assert validate_strategy(e1, e1_strategy_a) == []

    def test_destination_final_row_must_sum_zero(self, e1, e1_strategy_a):
        assert validate_strategy(e1, e1_strategy_a) == []
        bad = e1_strategy_a.copy()
        bad.set_row(2, "a", 1, {1: 1.0})
        errors = validate_strategy(e1, bad)
        assert any("row sums" in v["error"] for v in errors)

    def test_fraction_above_one(self, e1, e1_strategy_a):
        bad = e1_strategy_a.copy()
        bad.rows[("a", 0)][0, 0] = 1.2
        errors = validate_strategy(e1, bad)
        assert any("outside [0, 1]" in v["error"] for v in errors)

    def test_cpu_fraction_at_final_stage(self, e1, e1_strategy_a):
        bad = e1_strategy_a.copy()
        bad.set_row(1, "a", 1, {"cpu": 0.5, 2: 0.5})
        errors = validate_strategy(e1, bad)
        assert any("CPU fraction at final stage" in v["error"] for v in errors)

    def test_fraction_on_absent_link(self, prop1, prop1_kkt_strategy):
        bad = prop1_kkt_strategy.copy()
        bad.set_row(1, "p", 0, {3: 1.0})  # (1,3) is not a link
        errors = validate_strategy(prop1, bad)
        assert any(v["error"] == "fraction on absent link" for v in errors)

    def test_absent_link_mass_is_not_row_mass(self, prop1, prop1_kkt_strategy):
        # the engine never reads (1,3), so the row it evaluates is empty
        bad = prop1_kkt_strategy.copy()
        bad.set_row(1, "p", 0, {3: 1.0})
        errors = [v["error"] for v in validate_strategy(prop1, bad)]
        assert errors == ["row sums to 0.000000000, expected 1.0", "fraction on absent link"]

    def test_mass_on_missing_link_refused(self):
        # node 1 sends everything over (1, 3); evaluated on the triangle
        # without that link, the mass must not vanish from the cost
        full, cut = triangle([(1, 2), (2, 3), (1, 3)]), triangle([(1, 2), (2, 3)])
        dense = init_strategy(full)
        assert dense.rows[("a", 0)][0, 3] == 1.0   # rows unpacks it to dense blocks
        assert dense.row(1, "a", 0) == {3: 1.0}
        for phi in (dense, init_strategy(full)):
            with pytest.raises(ValueError, match=r"stage \('a', 0\): node 1 .*\(1, 3\)"):
                compute_flows(cut, phi)
            assert "fraction on absent link" in [v["error"] for v in validate_strategy(cut, phi)]

    def test_strategy_from_scenario_with_one_more_link_read_there(self):
        # laid out on the triangle with link (1, 3) but sending nothing
        # over it, a strategy reads on the triangle without it as it is
        full, cut = triangle([(1, 2), (2, 3), (1, 3)]), triangle([(1, 2), (2, 3)])
        phi = Strategy._stacked(compiled(full), make_strategy(full, {
            (1, "a", 0): {2: 1.0}, (2, "a", 0): {3: 1.0}}).fractions(compiled(full)))
        assert validate_strategy(cut, phi) == []
        assert compute_flows(cut, phi).total_cost == compute_flows(full, phi).total_cost == 2.0

    @pytest.mark.parametrize("value", [1e-12, -0.5])
    def test_off_layout_mass_of_any_size_reported(self, prop1, prop1_kkt_strategy, value):
        # the engine refuses every nonzero fraction off the layout, however
        # small and of either sign, so validation reports each one
        bad = prop1_kkt_strategy.copy()
        bad.rows[("p", 0)][0, 3] = value    # (1, 3) is not a link
        assert {"stage": ("p", 0), "node": 1, "dest": 3,
                "error": "fraction on absent link"} in validate_strategy(prop1, bad)
        with pytest.raises(ValueError, match="which the scenario lacks"):
            bad.fractions(compiled(prop1))

    def test_reading_leaves_engine_strategy_stacked(self, prop1):
        # only rows, the edit path, unpacks the engine's array
        phi = init_strategy(prop1)
        readers = [detect_loops, lambda p: p.row(1, "p", 0), Strategy.to_jsonable,
                   lambda p: validate_strategy(prop1, p)]
        for read in readers:
            read(phi)
            assert phi._rows is None
        cost = compute_flows(prop1, phi).total_cost
        phi.rows
        assert phi._view is None and compute_flows(prop1, phi).total_cost == cost

    def test_missing_or_misshaped_block_reported(self, e1, e1_strategy_a):
        missing, misshaped = e1_strategy_a.copy(), e1_strategy_a.copy()
        del missing.rows[("a", 1)]
        misshaped.rows[("a", 1)] = np.zeros((2, 2))
        for bad in (missing, misshaped):
            assert validate_strategy(e1, bad) == [
                {"stage": ("a", 1), "error": "missing or misshaped row block"}]

    def test_set_row_on_engine_strategy_keeps_missing_link_mass(self, prop1):
        # a strategy the engine built holds its stacked array; set_row must
        # still reach the engine's check, not vanish off the layout
        phi = init_strategy(prop1)
        phi.set_row(1, "p", 0, {3: 1.0})   # (1, 3) is not a link
        with pytest.raises(ValueError, match=r"stage \('p', 0\): node 1 .*\(1, 3\)"):
            compute_flows(prop1, phi)
        assert "fraction on absent link" in [v["error"] for v in validate_strategy(prop1, phi)]

    def test_other_node_set_reported(self):
        phi = init_strategy(path_scenario([1, 2, 3, 4, 5]))
        errors = validate_strategy(path_scenario([1, 2, 3, 4]), phi)
        assert len(errors) == 1 and "nodes" in errors[0]["error"]

    def test_cpu_where_not_performable(self, prop1, prop1_kkt_strategy):
        bad = prop1_kkt_strategy.copy()
        bad.set_row(2, "p", 0, {"cpu": 1.0})  # node 2 has no CPU
        errors = validate_strategy(prop1, bad)
        assert any("not performable" in v["error"] for v in errors)


class TestValidationAgreesWithEngine:
    """validate_strategy reports a block or an entry the engine cannot read
    exactly when Strategy.fractions raises ValueError."""

    REFUSALS = {"fraction on absent link", "missing or misshaped row block"}

    def _refused(self, s, phi) -> bool:
        reported = bool(self.REFUSALS & {v["error"] for v in validate_strategy(s, phi)})
        try:
            phi.fractions(compiled(s))
        except ValueError:
            assert reported
            return True
        assert not reported
        return False

    def _defects(self, s, phi, rng):
        comp = compiled(s)
        key = comp.keys[rng.integers(len(comp.keys))]
        i, j = rng.permutation(np.argwhere(~comp.adj))[0]
        for value in (1e-12, -0.5, 1.0):
            bad = phi.copy()
            bad.rows[key][i, 1 + j] = value
            yield bad
        missing, misshaped = phi.copy(), phi.copy()
        del missing.rows[key]
        misshaped.rows[key] = np.zeros((comp.n, comp.n))
        yield from (missing, misshaped)

    @pytest.mark.parametrize("seed", range(4))
    def test_seeded_defects(self, seed):
        from test_gp import _without
        rng = np.random.default_rng(seed)
        s = random_scenario(seed, n=6, K=1)
        comp = compiled(s)
        dense = random_loopfree_strategy(s, seed)
        for phi in (dense, Strategy._stacked(comp, dense.fractions(comp))):
            assert not self._refused(s, phi)
            for bad in self._defects(s, phi, rng):
                assert self._refused(s, bad)
        # a strategy laid out on s, read on s without one of its links:
        # refused exactly when it sends mass over that link either way
        u, v = s.graph.nodes[comp.src[0]], s.graph.nodes[comp.dst[0]]
        cut = _without(s, links=[(u, v)])
        for phi in (init_strategy(s), random_loopfree_strategy(s, seed, full_support=True)):
            stacked = Strategy._stacked(comp, phi.fractions(comp))
            lost = any(phi.row(a, *key).get(b, 0.0) > 0
                       for key in comp.keys for a, b in ((u, v), (v, u)))
            assert self._refused(cut, stacked) == lost


class TestDetectLoops:
    def test_e1_strategy_a_loop_free(self, e1, e1_strategy_a):
        assert detect_loops(e1_strategy_a) == {}

    def test_two_cycle_detected(self, e1, e1_strategy_a):
        bad = e1_strategy_a.copy()
        bad.set_row(1, "a", 0, {2: 0.5, "cpu": 0.5})
        bad.set_row(2, "a", 0, {1: 0.5, "cpu": 0.5})
        loops = detect_loops(bad)
        assert ("a", 0) in loops
        assert sorted(loops[("a", 0)][0]) == [1, 2]

    def test_cross_stage_concatenation_not_reported(self):
        # destination is the data source: data 1->2, results 2->1; the cycle
        # exists only by concatenating the two stages
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=1, destination=1, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={(1, 2): Linear(1.0), (2, 1): Linear(1.0)},
                     comp_costs={1: None, 2: Linear(1.0)},
                     input_rates={(1, "a"): 1.0})
        phi = make_strategy(s, {
            (1, "a", 0): {2: 1.0},
            (2, "a", 0): {"cpu": 1.0},
            (2, "a", 1): {1: 1.0},
        })
        assert detect_loops(phi) == {}
        st = compute_flows(s, phi)
        assert st.total_cost == pytest.approx(1.0 + 1.0 + 1.0)


class TestComputeFlows:
    def test_e1_strategy_a_values(self, e1, e1_strategy_a):
        st = compute_flows(e1, e1_strategy_a)
        assert st.g(1, "a", 0) == pytest.approx(1.0)
        assert st.F(1, 2) == pytest.approx(1.0)
        assert st.total_cost == pytest.approx(2.0)

    def test_e1_strategy_b_values(self, e1, e1_strategy_b):
        st = compute_flows(e1, e1_strategy_b)
        assert st.F(1, 2) == pytest.approx(2.0)
        assert st.G(2) == pytest.approx(1.0)
        assert st.total_cost == pytest.approx(5.0)

    def test_queue_capacity_exceeded(self):
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=0, destination=2, packet_sizes=(1.0,))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={(1, 2): Queue(2.0), (2, 1): Queue(2.0)},
                     comp_costs={1: None, 2: None},
                     input_rates={(1, "a"): 2.5})
        phi = make_strategy(s, {(1, "a", 0): {2: 1.0}})
        with pytest.raises(CapacityExceeded):
            compute_flows(s, phi)

    @pytest.mark.parametrize("share", [1.0, 1e-6])
    def test_loop_rejected(self, e1, e1_strategy_a, share):
        # a cycle is refused however little of the stage's traffic it carries
        bad = e1_strategy_a.copy()
        bad.set_row(1, "a", 0, {"cpu": 1.0 - share, 2: share})
        bad.set_row(2, "a", 0, {"cpu": 1.0 - share, 1: share})
        with pytest.raises(LoopDetected, match=r"stage \('a', 0\)"):
            compute_flows(e1, bad)

    def test_destination_sink(self, e1, e1_strategy_a):
        st = compute_flows(e1, e1_strategy_a)
        assert st.traffic[("a", 1)][1] == pytest.approx(1.0)  # arrives at node 2
        assert np.all(st.link_flows[("a", 1)][1] == 0)
        assert st.cpu_flows[("a", 1)][1] == 0

    def test_conservation_on_random_scenarios(self):
        for seed in range(6):
            s = random_scenario(seed)
            phi = random_loopfree_strategy(s, seed + 100)
            st = compute_flows(s, phi)
            assert max_conservation_residual(s, st) <= 1e-9

    def test_linear_cost_homogeneity(self):
        s = random_scenario(3, link_kind="linear", comp_kind="linear",
                            link_bound=2.0, comp_bound=2.0)
        phi = random_loopfree_strategy(s, 5)
        base = compute_flows(s, phi).total_cost
        for c in (0.5, 2.0, 3.7):
            scaled = {k: c * v for k, v in s.input_rates.items()}
            got = compute_flows(s, phi, rates=scaled).total_cost
            assert got == pytest.approx(c * base, rel=1e-12)

    def test_extra_injections(self, e1, e1_strategy_a):
        st = compute_flows(e1, e1_strategy_a, extra_injections={(2, ("a", 0)): 0.5})
        # injected data at node 2 is computed there (cost 3 * 0.5)
        assert st.total_cost == pytest.approx(2.0 + 1.5)

    @pytest.mark.parametrize("made_for, evaluated_on", [
        ([1, 2, 3, 4, 5], [1, 2, 3, 4]), ([1, 2, 3, 4], [1, 2, 3, 4, 5]),
        ([1, 2, 3, 4], [4, 3, 2, 1])])
    def test_strategy_for_other_nodes_rejected(self, made_for, evaluated_on):
        # read by position, the 5-node path's strategy would cost 1.0 on
        # the 4-node path, whose only route costs 3.0
        phi = init_strategy(path_scenario(made_for))
        for strategy in (phi, Strategy.from_jsonable(phi.to_jsonable())):
            with pytest.raises(ValueError, match="nodes"):
                compute_flows(path_scenario(evaluated_on), strategy)

    def test_final_result_cannot_vanish_into_a_cpu(self):
        # node 0 sends its final results to its CPU instead of on to the
        # destination; no task runs at a final stage, so that flow is refused
        s = random_scenario(1, n=6, num_apps=1, K=1)
        phi = init_strategy(s)
        assert compute_flows(s, phi).t(0, "app0", 1) > 0
        phi.set_row(0, "app0", 1, {"cpu": 1.0})
        assert "CPU fraction at final stage" in [v["error"] for v in validate_strategy(s, phi)]
        for evaluate in (compute_flows, check_kkt, check_sufficient):
            with pytest.raises(CapacityExceeded, match=r"stage \('app0', 1\)"):
                evaluate(s, phi)

    def test_misshaped_block_rejected(self, e1, e1_strategy_a):
        bad = e1_strategy_a.copy()
        bad.rows[("a", 1)] = np.zeros((3, 3))
        with pytest.raises(ValueError, match="shape"):
            compute_flows(e1, bad)

    def test_zero_traffic_rows_tolerated(self, prop1, prop1_kkt_strategy):
        st = compute_flows(prop1, prop1_kkt_strategy)
        assert st.total_cost == pytest.approx(1.0)
        assert st.t(2, "p", 0) == 0.0

    def test_dense_strategy_without_applications(self):
        s = random_scenario(0, n=6, num_apps=2, K=1)
        empty = Scenario(graph=s.graph, applications=s.applications, link_costs=s.link_costs,
                         comp_costs=s.comp_costs, input_rates={})
        assert compute_flows(empty, Strategy.zeros(empty)).total_cost == 0.0
        assert run_gp(empty, Strategy.zeros(empty)).converged

    def test_link_bits_read_only(self):
        # an edit would make F(u, v) disagree with edge_bits and total_cost
        s = random_scenario(1, n=6, num_apps=1, K=1)
        state = compute_flows(s, init_strategy(s))
        comp = compiled(s)
        i, j = int(comp.src[0]), int(comp.dst[0])
        u, v = comp.nodes[i], comp.nodes[j]
        before = (state.F(u, v), state.edge_bits.copy(), state.total_cost)
        with pytest.raises(ValueError):
            state.link_bits[i, j] += 5.0
        assert state.F(u, v) == before[0] == state.edge_bits[0]
        assert np.array_equal(state.edge_bits, before[1])
        assert state.total_cost == before[2] == (comp.links.total(state.edge_bits)
                                                 + comp.cpus.total(state.workload))


class TestInitStrategy:
    def test_e1_both_modes_finite(self, e1):
        for mode in INIT_MODES:
            phi = init_strategy(e1, mode=mode)
            assert validate_strategy(e1, phi) == []
            assert detect_loops(phi) == {}
            st = compute_flows(e1, phi)
            assert np.isfinite(st.total_cost)

    def test_random_scenarios_valid(self):
        for seed in range(5):
            s = random_scenario(seed, num_apps=2, K=2)
            for mode in INIT_MODES:
                phi = init_strategy(s, mode=mode)
                assert validate_strategy(s, phi) == []
                assert detect_loops(phi) == {}

    def test_no_feasible_strategy(self):
        # total workload exceeds every CPU capacity however placed
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=1, destination=2, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={(1, 2): Linear(1.0), (2, 1): Linear(1.0)},
                     comp_costs={1: Queue(0.5), 2: Queue(0.5)},
                     input_rates={(1, "a"): 2.0})
        for mode in INIT_MODES:
            with pytest.raises(NoFeasibleStrategy):
                init_strategy(s, mode=mode)

    def test_prop1_routes_and_computes_at_4(self, prop1):
        phi = init_strategy(prop1, mode="shortest_path_comp_at_destination")
        st = compute_flows(prop1, phi)
        assert st.total_cost == pytest.approx(0.3)


class TestZeroFlowTree:
    def test_multi_target_distances_match_networkx(self):
        import networkx as nx
        for seed in range(8):
            s = random_scenario(seed, n=9, link_kind="linear" if seed % 2 else "queue")
            comp = compiled(s)
            metric = comp.zero_flow_metric
            g = nx.DiGraph()   # reversed links: distances from the targets
            g.add_nodes_from(range(comp.n))
            for e, (u, v) in enumerate(zip(comp.src, comp.dst)):
                g.add_edge(int(v), int(u), weight=float(metric[e]))
            rng = np.random.default_rng(seed)
            sets = np.zeros((3, comp.n), dtype=bool)
            for size, targets in zip((1, 2, 3), sets):
                targets[rng.choice(comp.n, size=size, replace=False)] = True
            # the three sets are solved in one sweep; single sets read them back
            stacked = comp.zero_flow_tree(sets)
            for row, targets in enumerate(sets):
                dist, succ = comp.zero_flow_tree(targets)
                assert np.array_equal(stacked[0][row], dist)
                assert np.array_equal(stacked[1][row], succ)
                expect = nx.multi_source_dijkstra_path_length(
                    g, {int(i) for i in np.flatnonzero(targets)})
                for i in range(comp.n):
                    assert dist[i] == pytest.approx(expect[i], rel=1e-12, abs=0.0)
                    if targets[i]:
                        assert succ[i] == -1
                    else:
                        j = int(succ[i])
                        assert comp.adj[i, j]
                        assert dist[i] == dist[j] + metric[comp.edge_flat == i * comp.n + j][0]

    @pytest.mark.parametrize("src, middle, dest", [(1, (2, 3), 4), (4, (2, 3), 1),
                                                    (2, (1, 4), 3)])
    def test_diamond_tie_takes_smaller_index(self, src, middle, dest):
        # src reaches dest at exactly the same zero-flow cost through either
        # middle node; both offers arrive in the same sweep, and the first
        # minimal direction, toward the smaller index, wins
        g = Graph.from_undirected_edges([1, 2, 3, 4], [(src, m) for m in middle]
                                        + [(m, dest) for m in middle])
        app = Application(id="a", chain_length=1, destination=dest, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Queue(10.0) for e in g.links},
                     comp_costs={v: Queue(10.0) if v == dest else None for v in g.nodes},
                     input_rates={(src, "a"): 1.0})
        comp = compiled(s)
        _, succ = comp.zero_flow_tree(np.arange(4) == comp.index[dest])
        assert comp.nodes[succ[comp.index[src]]] == min(middle)
        phi = init_strategy(s)
        assert phi.row(src, "a", 1) == {min(middle): 1.0}


class TestCheapestToGo:
    @pytest.mark.parametrize("draw", ["random", "hub"])
    def test_labels_match_layered_dijkstra(self, draw):
        # masked (inf) links, CPU offers that are nan (no CPU) or inf, and
        # fixed entries, which keep their seeds and the caller's successors
        for seed in range(4):
            s = random_scenario(seed, n=9) if draw == "random" else hub_scenario(seed)
            comp = compiled(s)
            assert (comp.pad is None) == (draw == "hub")
            rng = np.random.default_rng(seed)
            shape = (5, comp.n)
            link_w = rng.uniform(0.0, 1.0, (shape[0], comp.E))
            link_w[rng.random(link_w.shape) < 0.2] = np.inf
            seeds = np.where(rng.random(shape) < 0.15, rng.uniform(0.0, 2.0, shape), np.inf)
            offer = rng.uniform(0.5, 3.0, shape)
            offer[rng.random(shape) < 0.3] = np.nan
            offer[rng.random(shape) < 0.2] = np.inf
            fixed = rng.random(shape) < 0.2
            dist, succ = seeds.copy(), np.where(fixed, 77, -5)
            cheapest_to_go(comp, link_w, dist, succ, offer, fixed)
            joined = np.where(fixed, seeds, np.fmin(seeds, offer))
            assert np.array_equal(dist, layered_dijkstra(comp, link_w, joined, fixed=fixed))
            assert np.array_equal(dist[fixed], seeds[fixed]) and (succ[fixed] == 77).all()
            assert (succ[~fixed & (dist == seeds)] == -5).all()
            # an improved label is its step's cost plus the label it leads
            # to, and following successors ends at a CPU, a seed or a fixed
            # entry
            for r, v in zip(*np.nonzero(~fixed & (dist < seeds))):
                for _ in range(comp.n):
                    j = succ[r, v]
                    if j == -1:
                        assert dist[r, v] == offer[r, v]
                        break
                    if j in (-5, 77):
                        break
                    assert comp.adj[v, j]
                    assert dist[r, v] == link_w[r, comp.eid[v, j]] + dist[r, j]
                    v = j
                else:
                    pytest.fail("successors loop")


class TestCompiledLayout:
    def test_stage_arrays_on_edge_inputs(self):
        # node 2 has no CPU, node 3 cannot run task 2 of "c", "c" sends
        # zero-size packets at stage 1 and "z" is a chain of length 0
        from chainflow import solve_flow_domain, strategy_from_flows
        g = Graph.from_undirected_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (4, 1)])
        apps = (Application("z", 0, 4, (2.0,)),
                Application("c", 2, 1, (3.0, 0.0, 1.0), comp_weights={3: (1.0, np.inf)}))
        s = Scenario(graph=g, applications=apps,
                     link_costs={e: Queue(12.0) for e in g.links},
                     comp_costs={1: Queue(9.0), 2: None, 3: Queue(8.0), 4: Linear(2.0)},
                     input_rates={(1, "z"): 0.5, (2, "c"): 0.3, (3, "c"): 0.4})
        comp = compiled(s)
        inf = np.inf
        assert comp.keys == [("z", 0), ("c", 0), ("c", 1), ("c", 2)]
        assert comp.L.tolist() == [2.0, 3.0, 0.0, 1.0]
        assert comp.w.tolist() == [[inf, inf, inf, inf], [1.0, inf, 1.0, 1.0],
                                   [1.0, inf, inf, 1.0], [inf, inf, inf, inf]]
        assert comp.r.tolist() == [[0.5, 0, 0, 0], [0, 0.3, 0.4, 0], [0] * 4, [0] * 4]
        assert comp.dest.tolist() == [3, 0, 0, 0]
        assert comp.k.tolist() == [0, 0, 1, 2]
        assert comp.prev.tolist() == [-1, -1, 1, 2]
        assert comp.next.tolist() == [-1, 2, 3, -1]
        assert comp.final.tolist() == [True, False, False, True]
        assert np.argwhere(~comp.active).tolist() == [[0, 3], [3, 0]]
        # an application's packet sizes, workloads and rates are views of
        # the stage arrays, stored once
        app = comp.apps[1]
        assert (app.id, app.K, app.dest, app.s0) == ("c", 2, 0, 1)
        for view, whole in ((app.L, comp.L), (app.w, comp.w), (app.r, comp.r)):
            assert np.shares_memory(view, whole)
        assert np.array_equal(app.w, comp.w[1:3].T)

        res = solve_flow_domain(s, tol=1e-10)
        phi = strategy_from_flows(s, res.flows)
        assert compute_flows(s, phi).total_cost == pytest.approx(res.total_cost, rel=1e-9)


    def test_rate_copies_share_the_layout(self):
        # with_rates keeps the graph, the costs and (here) every application,
        # so only the input rates are rebuilt; the result reads as a fresh
        # compile of the same scenario
        s = random_scenario(2, n=7, num_apps=2, K=1)
        comp = compiled(s)
        rates = {key: 1.5 * r for key, r in s.input_rates.items()}
        copied = s.with_rates(rates)
        plain = Scenario(graph=s.graph, applications=s.applications,
                         link_costs=s.link_costs, comp_costs=s.comp_costs, input_rates=rates)
        twin, fresh = compiled(copied), compiled(plain)
        for name in ("L", "w", "r", "dest", "prev", "next", "k", "active", "src", "dst",
                     "seg", "edge_pos", "eid"):
            assert np.array_equal(getattr(twin, name), getattr(fresh, name)), name
        assert twin.keys == fresh.keys and twin.src is comp.src
        assert np.array_equal(twin.r, 1.5 * comp.r)
        assert all(np.array_equal(a.r, b.r) for a, b in zip(twin.apps, fresh.apps))
        phi = init_strategy(copied)
        assert compute_flows(copied, phi).total_cost == compute_flows(plain, phi).total_cost
        # an application left without input is dropped: a fresh compile
        kept = s.applications[1].id
        fewer = compiled(s.with_rates({k: r for k, r in s.input_rates.items() if k[1] == kept}))
        assert [key[0] for key in fewer.keys] == [kept, kept]


class TestLevelMemo:
    """The compiled scenario keeps the last support it peeled and its levels."""

    FIELDS = ("level", "src", "dst", "x", "pos", "cuts", "cyclic")

    @staticmethod
    def fresh(comp, X):
        return StageLevels(X[:, comp.edge_pos], comp.src, comp.dst, comp.n, comp.k)

    def assert_same(self, levels, fresh):
        for name in self.FIELDS:
            assert np.array_equal(getattr(levels, name), getattr(fresh, name)), name

    @pytest.mark.parametrize("seed", range(4))
    def test_same_support_other_values(self, seed):
        s = random_scenario(seed)
        comp = compiled(s)
        X = random_loopfree_strategy(s, seed).fractions(comp)
        first = comp.peel(X[:, comp.edge_pos])
        Y = X * np.random.default_rng(seed).uniform(0.5, 1.5, X.shape)
        again = comp.peel(Y[:, comp.edge_pos])
        assert again.level is first.level           # the memo served it
        self.assert_same(again, self.fresh(comp, Y))
        self.assert_same(first, self.fresh(comp, X))

    @pytest.mark.parametrize("seed", range(4))
    def test_other_support_rebuilds(self, seed):
        s = random_scenario(seed)
        comp = compiled(s)
        X = random_loopfree_strategy(s, seed).fractions(comp)
        first = comp.peel(X[:, comp.edge_pos])
        other = random_loopfree_strategy(s, seed + 10).fractions(comp)
        assert not np.array_equal(other[:, comp.edge_pos] > 0, X[:, comp.edge_pos] > 0)
        fewer = X.copy()                        # one support link fewer
        stage, e = np.argwhere(X[:, comp.edge_pos] > 0)[0]
        fewer[stage, comp.edge_pos[e]] = 0.0
        for Y in (other, fewer):
            levels = comp.peel(Y[:, comp.edge_pos])
            assert levels.level is not first.level
            self.assert_same(levels, self.fresh(comp, Y))

    def test_cyclic_support_raises_on_every_call(self):
        s = random_scenario(3)
        phi = random_loopfree_strategy(s, 10)
        comp = compiled(s)
        app = comp.apps[1]
        key = (app.id, 1)
        u = next(i for i in range(comp.n) if i != app.dest)
        v = next(j for j in np.flatnonzero(comp.adj[u]) if j != app.dest)
        for i, j in ((u, v), (v, u)):
            row = phi.rows[key][i]
            row *= 0.99
            row[1 + j] += 0.01
        for _ in range(2):      # the second call finds the cyclic support kept
            with pytest.raises(LoopDetected, match=re.escape(f"stage {key!r} has")):
                compute_flows(s, phi)
        xe = phi.fractions(comp)[:, comp.edge_pos]
        assert comp.peel(xe).cyclic.tolist() == [comp.stage_index[key]]

    def test_rate_copy_evaluates_as_fresh_compile(self):
        # a with_rates copy shares the compiled scenario, its kept levels
        # included, and evaluates as a fresh compile of the same scenario
        s = random_scenario(2, n=7, num_apps=2, K=1)
        phi = random_loopfree_strategy(s, 2)
        compute_flows(s, phi)
        rates = {key: 1.5 * r for key, r in s.input_rates.items()}
        copied = s.with_rates(rates)
        plain = Scenario(graph=s.graph, applications=s.applications,
                         link_costs=s.link_costs, comp_costs=s.comp_costs, input_rates=rates)
        a, b = compute_flows(copied, phi), compute_flows(plain, phi)
        assert compiled(copied)._peeled is compiled(s)._peeled
        for name in ("traffic_stack", "cpu_stack", "edge_flows", "edge_bits", "workload"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
        assert a.total_cost == b.total_cost
        self.assert_same(a.levels, b.levels)


class TestSegments:
    @staticmethod
    def draw(rng, shape):
        a = rng.normal(size=shape)
        a[rng.random(shape) < 0.2] = np.inf
        a[rng.random(shape) < 0.05] = -np.inf
        a[rng.random(shape) < 0.05] = np.nan
        return a

    @pytest.mark.parametrize("seed", range(4))
    def test_row_min_matches_reduceat(self, seed):
        comp = compiled(random_scenario(seed, n=10))
        a = self.draw(np.random.default_rng(seed), (len(comp.keys), comp.n + comp.E))
        want = np.minimum.reduceat(a, comp.seg, axis=1)
        assert np.array_equal(comp.row_min(a), want, equal_nan=True)

    @pytest.mark.parametrize("lengths", [[1, 3, 9, 2, 1, 7], [300] + [2] * 100, [5]])
    def test_segments_match_reduceat(self, lengths):
        # the second layout has one wide segment, where padding would cost
        # more than reduceat's call per segment
        seg = np.concatenate(([0], np.cumsum(lengths)[:-1]))
        segs = Segments(seg, sum(lengths))
        assert (segs.pad is None) == (lengths[0] == 300)
        a = self.draw(np.random.default_rng(len(lengths)), (6, sum(lengths)))
        want = np.minimum.reduceat(a, seg, axis=1)
        assert np.array_equal(segs.row_min(a), want, equal_nan=True)
        assert np.array_equal(segs.dnode, np.repeat(np.arange(len(seg)), lengths))
        # argmins: the first minimum of each segment, on rows without nan
        a[np.isnan(a)] = np.inf
        a[:, :2] = -np.inf      # ties at the minimum
        want = [[b + np.argmin(row[b:e]) for b, e in zip(seg, np.append(seg[1:], a.shape[1]))]
                for row in a]
        assert np.array_equal(segs.row_argmin(a), want)


class TestStrategySerialization:
    def test_round_trip(self, e1, e1_strategy_a):
        data = e1_strategy_a.to_jsonable()
        back = Strategy.from_jsonable(data)
        for key, mat in e1_strategy_a.rows.items():
            assert np.array_equal(back.rows[key], mat)

    @pytest.mark.parametrize("key, entry", [
        ("-1/a/0", {"cpu": 1.0}), ("9/a/0", {"cpu": 1.0}), ("0/a/0", {"2": 1.0}),
        ("0/a/0", {"-1": 1.0}), ("0/a/5", {"cpu": 1.0}), ("0/b/0", {"cpu": 1.0}),
    ], ids=["negative node", "node past n", "destination past n", "negative destination",
            "unlisted k", "unlisted app"])
    def test_row_keys_outside_the_layout_refused(self, e1_strategy_a, key, entry):
        # a negative index must not wrap to another node's row or column
        data = e1_strategy_a.to_jsonable()
        data["rows"][key] = entry
        with pytest.raises(ValueError, match=re.escape(f"row {key!r} lies outside")):
            Strategy.from_jsonable(data)
