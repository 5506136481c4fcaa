import gc
import math

import networkx as nx
import numpy as np
import pytest

from chainflow import (CapacityExceeded, CostSpec, Graph, Linear, Queue,
                       Scenario, eval_cost, eval_cost_prime, generate_topology,
                       sample_scenario, topology_file)
from chainflow.network import (LINEAR, QUEUE, CostArray, default_packet_sizes,
                               queue_prime, queue_room, queue_value)
from chainflow.serialize import scenario_bytes


def _check_graph_invariants(g: Graph):
    assert all((v, u) in g.links for (u, v) in g.links)
    assert all(u != v for (u, v) in g.links)
    ug = nx.Graph()
    ug.add_nodes_from(g.nodes)
    ug.add_edges_from(g.links)
    assert nx.is_connected(ug)


class TestTopologies:
    def test_balanced_tree_counts(self):
        g = generate_topology("balanced_tree", {"depth": 4})
        assert len(g.nodes) == 15
        assert g.num_undirected_edges == 14
        assert len(g.links) == 28

    def test_connected_er_is_connected_with_min_edges(self):
        g = generate_topology("connected_er", {"n": 20, "p": 0.1}, seed=3)
        assert len(g.nodes) == 20
        assert g.num_undirected_edges >= 19
        _check_graph_invariants(g)

    def test_from_file_abilene(self):
        g = generate_topology("abilene")
        assert len(g.nodes) == 11
        assert g.num_undirected_edges == 14

    def test_from_file_lhc_geant(self):
        lhc = generate_topology("lhc")
        assert (len(lhc.nodes), lhc.num_undirected_edges) == (16, 31)
        geant = generate_topology("geant")
        assert (len(geant.nodes), geant.num_undirected_edges) == (22, 33)

    def test_from_file_explicit_path(self):
        from importlib import resources
        with resources.as_file(topology_file("abilene")) as p:
            g = generate_topology("from_file", {"path": p})
        assert (len(g.nodes), g.num_undirected_edges) == (11, 14)
        _check_graph_invariants(g)

    def test_fog_counts(self):
        g = generate_topology("fog")
        assert (len(g.nodes), g.num_undirected_edges) == (19, 30)

    def test_small_world_counts(self):
        g = generate_topology("small_world", {"n": 100, "short": 3, "long": 20}, seed=1)
        assert (len(g.nodes), g.num_undirected_edges) == (100, 320)

    def test_generators_always_satisfy_graph_invariants(self):
        for seed in range(8):
            _check_graph_invariants(generate_topology("connected_er", {"n": 12, "p": 0.15}, seed))
            _check_graph_invariants(generate_topology("small_world", {"n": 24, "short": 2, "long": 5}, seed))
        _check_graph_invariants(generate_topology("balanced_tree", {"depth": 3}))
        _check_graph_invariants(generate_topology("fog"))

    def test_determinism(self):
        a = generate_topology("connected_er", {"n": 15, "p": 0.2}, seed=9)
        b = generate_topology("connected_er", {"n": 15, "p": 0.2}, seed=9)
        assert a.links == b.links

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            generate_topology("banana")

    def test_malformed_file(self, tmp_path):
        bad = tmp_path / "bad.edges"
        bad.write_text("a\n")
        with pytest.raises(ValueError):
            generate_topology("from_file", {"path": bad})

    def test_disconnected_file(self, tmp_path):
        bad = tmp_path / "disc.edges"
        bad.write_text("a b\nc d\n")
        with pytest.raises(ValueError):
            generate_topology("from_file", {"path": bad})


def _accepted(nodes, links) -> bool:
    """Whether Graph accepts the bidirectional `links`; a refusal must be
    the connectivity error."""
    try:
        Graph(nodes=tuple(nodes), links=frozenset(links))
    except ValueError as exc:
        assert str(exc) == "graph is not connected"
        return False
    return True


def _nx_connected(nodes, links) -> bool:
    ug = nx.Graph()
    ug.add_nodes_from(nodes)
    ug.add_edges_from(links)
    return len(ug) <= 1 or nx.is_connected(ug)


GRAPHS = ([(kind, seed) for kind in ("connected_er", "balanced_tree", "fog", "small_world")
           for seed in range(5)]
          + [(kind, 0) for kind in ("abilene", "lhc", "geant")])


class TestConnectivity:
    """Graph's own breadth-first check against networkx.is_connected."""

    @pytest.mark.parametrize("kind,seed", GRAPHS, ids=[f"{k}-{s}" for k, s in GRAPHS])
    def test_agrees_with_networkx_under_link_removal(self, kind, seed):
        g = generate_topology(kind, seed=seed)
        assert _accepted(g.nodes, g.links)
        edges = sorted({tuple(sorted(l, key=str)) for l in g.links}, key=str)
        if len(edges) > 40:     # the large graphs: a seeded sample of 20 links
            rng = np.random.default_rng(seed)
            edges = [edges[i] for i in rng.choice(len(edges), size=20, replace=False)]
        refused = 0
        for (u, v) in edges:
            links = g.links - {(u, v), (v, u)}
            connected = _nx_connected(g.nodes, links)
            assert _accepted(g.nodes, links) == connected, (u, v)
            refused += not connected
        if kind == "balanced_tree":     # every link of a tree is a bridge
            assert refused == len(edges)

    @pytest.mark.parametrize("nodes,edges,ok", [
        ((1,), [], True),
        ((1, 2), [], False),
        ((1, 2, 3), [(1, 2)], False),            # isolated node
        ((3, 1, 2), [(1, 2)], False),            # the search starts at the isolated node
        ((1, 2, 3, 4), [(1, 2), (3, 4)], False),  # two components
        ((1, 2, 3, 4), [(1, 2), (3, 4), (2, 3)], True),
    ])
    def test_explicit_cases(self, nodes, edges, ok):
        links = {l for (u, v) in edges for l in ((u, v), (v, u))}
        assert _nx_connected(nodes, links) == ok
        assert _accepted(nodes, links) == ok


class TestCosts:
    def test_queue_value(self):
        assert eval_cost(Queue(2.0), 1.0) == pytest.approx(1.0)

    def test_linear_value(self):
        assert eval_cost(Linear(3.0), 2.0) == pytest.approx(6.0)

    def test_queue_derivative_matches_finite_difference(self):
        c = Queue(2.0)
        assert eval_cost_prime(c, 1.0) == pytest.approx(2.0)
        rng = np.random.default_rng(0)
        for c, hi in [(Queue(2.0), 1.6), (Queue(9.0), 7.0), (Linear(0.7), 10.0)]:
            for _ in range(20):
                x = rng.uniform(0.05, hi)
                h = 1e-6 * max(1.0, x)
                fd = (eval_cost(c, x + h) - eval_cost(c, x - h)) / (2 * h)
                assert eval_cost_prime(c, x) == pytest.approx(fd, rel=1e-8)

    def test_capacity_exceeded(self):
        with pytest.raises(CapacityExceeded):
            eval_cost(Queue(2.0), 2.0)
        with pytest.raises(CapacityExceeded):
            eval_cost_prime(Queue(2.0), 2.5)

    def test_midpoint_convexity(self):
        rng = np.random.default_rng(1)
        for c, hi in [(Queue(5.0), 4.9), (Linear(2.0), 50.0)]:
            for _ in range(50):
                x1, x2 = sorted(rng.uniform(0, hi, size=2))
                mid = eval_cost(c, (x1 + x2) / 2)
                assert mid <= (eval_cost(c, x1) + eval_cost(c, x2)) / 2 + 1e-12


class _MaskedCosts:
    """CostArray's formulas on boolean masks of its kinds, as they were
    before the index sets: the reference the kernel must equal bit for bit."""

    def __init__(self, costs):
        self.c, self.lin, self.que = costs, costs.kind == LINEAR, costs.kind == QUEUE

    def saturated(self, x, margin):
        p = self.c.param
        return bool(np.any(x[self.que] >= p[self.que] * (1 - margin)))

    def message(self, x):
        ratio = np.where(self.que, x, 0.0) / np.where(self.que, self.c.param, 1.0)
        worst = np.unravel_index(np.argmax(ratio), ratio.shape)
        return f"{self.c.overflow}: {self.c.label(*worst)} at {ratio[worst]:.6g} x capacity"

    def total(self, x):
        lin, que, p = self.lin, self.que, self.c.param
        return float(np.sum(p[lin] * x[lin])) + float(np.sum(queue_value(p[que], x[que])))

    def deriv(self, x):
        D = np.zeros_like(x)
        D[self.lin] = self.c.param[self.lin]
        D[self.que] = queue_prime(self.c.param[self.que], x[self.que])
        return D

    def room(self, x, dx):
        grow = self.que & (dx > 0)
        if not grow.any():
            return math.inf
        return float(np.min(queue_room(self.c.param[grow], x[grow], dx[grow])))


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


class TestCostArray:
    @staticmethod
    def _draw(seed, kinds="lqa"):
        """A CostArray whose entries mix Linear, Queue and absent costs (of
        the given kinds), loads below every capacity and a direction with
        zero, growing and shrinking entries."""
        rng = np.random.default_rng(seed)
        size = int(rng.integers(1, 300))
        pick = rng.choice(list(kinds), size=size)
        slope, cap = rng.uniform(0.0, 3.0, size), rng.uniform(0.5, 50.0, size)
        slope[rng.random(size) < 0.1] = 0.0
        costs = CostArray(size, ((i, {"l": Linear(float(slope[i])), "q": Queue(float(cap[i])),
                                      "a": None}[k]) for i, k in enumerate(pick)),
                          "load at or above capacity", lambda i: f"entry {i}")
        x = np.where(pick == "q", cap * rng.uniform(0.0, 0.999, size), rng.uniform(0, 9, size))
        x[rng.random(size) < 0.2] = 0.0
        dx = rng.normal(size=size) * (rng.random(size) < 0.6)
        return costs, x, dx

    @pytest.mark.parametrize("kinds", ["lqa", "q", "l", "a", "la", "qa"])
    def test_equals_the_mask_formulas(self, kinds):
        for seed in range(20):
            costs, x, dx = self._draw(seed, kinds)
            ref = _MaskedCosts(costs)
            assert _bits(costs.deriv(x)) == _bits(ref.deriv(x))
            assert _bits(costs.total(x)) == _bits(ref.total(x))
            assert _bits(costs.room(x, dx)) == _bits(ref.room(x, dx))
            assert _bits(costs.room(x, -np.abs(dx))) == _bits(ref.room(x, -np.abs(dx)))
            for margin in (0.0, 1e-12):
                assert costs.saturated(x, margin) is ref.saturated(x, margin) is False

    @pytest.mark.parametrize("kinds", ["l", "q", "lqa", "a"])
    def test_capacity_checks_by_kind(self, kinds):
        # all-Linear, all-Queue, mixed and absent-only arrays: check returns
        # the queue loads; an overloaded queue makes total, deriv and check
        # raise the mask formulas' message; without queues no load is too much
        for seed in range(10):
            costs, x, _ = self._draw(seed, kinds)
            ref = _MaskedCosts(costs)
            que = np.flatnonzero(costs.kind == QUEUE)
            assert _bits(costs.check(x)) == _bits(x[que])
            if not que.size:
                x = x + 1e6
                for margin in (0.0, 1e-12):
                    assert costs.saturated(x, margin) is ref.saturated(x, margin) is False
                assert _bits(costs.check(x)) == _bits(x[que])
                assert _bits(costs.total(x)) == _bits(ref.total(x))
                assert _bits(costs.deriv(x)) == _bits(ref.deriv(x))
                continue
            q = que[seed % que.size]
            x[q] = costs.param[q] * (1.0 + seed)        # exactly at capacity for seed 0
            for margin in (0.0, 1e-12):
                assert costs.saturated(x, margin) is ref.saturated(x, margin) is True
            for evaluate in (costs.total, costs.deriv, costs.check):
                with pytest.raises(CapacityExceeded) as err:
                    evaluate(x)
                assert str(err.value) == ref.message(x)

    def test_saturation_at_the_margins(self):
        costs, x, _ = self._draw(3)
        ref = _MaskedCosts(costs)
        q = int(np.flatnonzero(costs.kind == QUEUE)[0])
        cap = costs.param[q]
        for load in (cap * (1 - 2e-12), cap * (1 - 1e-12), np.nextafter(cap, 0.0), cap):
            x[q] = load
            for margin in (0.0, 1e-12):
                assert costs.saturated(x, margin) is ref.saturated(x, margin)
        assert costs.saturated(x, 0.0) and costs.saturated(x, 1e-12)

    def test_overflow_names_the_worst_entry(self):
        for seed in range(10):
            costs, x, _ = self._draw(seed)
            ref = _MaskedCosts(costs)
            que = np.flatnonzero(costs.kind == QUEUE)
            if len(que) < 2:
                continue
            x[que[0]] = costs.param[que[0]] * 1.5
            x[que[-1]] = costs.param[que[-1]] * (1.75 + seed)
            for evaluate in (costs.deriv, costs.total, costs.check):
                with pytest.raises(CapacityExceeded) as err:
                    evaluate(x)
                assert str(err.value) == ref.message(x)
                assert f"entry {que[-1]} at {1.75 + seed:.6g} x capacity" in str(err.value)

    def test_unlabelled_overflow_is_the_bare_message(self):
        costs = CostArray(2, [(0, Queue(2.0)), (1, Linear(1.0))], "too much")
        with pytest.raises(CapacityExceeded, match="^too much$"):
            costs.deriv(np.array([2.0, 0.0]))


class TestSampleScenario:
    def _abilene_scenario(self, seed=7):
        topo = generate_topology("abilene")
        spec = CostSpec(link_kind="queue", link_bound=15, comp_kind="queue", comp_bound=10)
        return sample_scenario(topo, 3, 2, 3, (0.5, 1.5), spec, seed=seed)

    def test_sources_and_rates(self):
        s = self._abilene_scenario()
        assert len(s.applications) == 3
        for app in s.applications:
            sources = [v for v in s.graph.nodes if s.rate(v, app.id) > 0]
            assert len(sources) == 3
            for v in sources:
                assert 0.5 <= s.rate(v, app.id) <= 1.5

    def test_default_packet_sizes(self):
        assert default_packet_sizes(2) == (10.0, 5.0, 0.0)
        s = self._abilene_scenario()
        assert s.applications[0].packet_sizes == (10.0, 5.0, 0.0)

    def test_every_node_a_source_when_R_equals_V(self):
        topo = generate_topology("balanced_tree", {"depth": 3})
        spec = CostSpec(link_kind="linear", link_bound=2, comp_kind="linear", comp_bound=2)
        s = sample_scenario(topo, 1, 1, len(topo.nodes), (0.5, 1.5), spec, seed=1)
        assert all(s.rate(v, "app0") > 0 for v in topo.nodes)

    def test_too_many_sources(self):
        topo = generate_topology("balanced_tree", {"depth": 2})
        spec = CostSpec()
        with pytest.raises(ValueError):
            sample_scenario(topo, 1, 1, 99, (0.5, 1.5), spec, seed=1)

    def test_empty_rate_range(self):
        topo = generate_topology("balanced_tree", {"depth": 2})
        with pytest.raises(ValueError):
            sample_scenario(topo, 1, 1, 2, (1.5, 0.5), CostSpec(), seed=1)

    def test_rejected_draw_leaves_no_reference_cycle(self):
        # seed 7 redraws once; the rejected draw's error must not hold its
        # frames in a cycle that only the garbage collector frees (the first
        # call warms one-time caches)
        self._abilene_scenario(seed=7)
        gc.collect()
        gc.disable()
        try:
            self._abilene_scenario(seed=7)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_same_seed_identical_bytes(self):
        a = self._abilene_scenario(seed=11)
        b = self._abilene_scenario(seed=11)
        assert scenario_bytes(a) == scenario_bytes(b)

    def test_different_seed_differs(self):
        assert scenario_bytes(self._abilene_scenario(1)) != scenario_bytes(self._abilene_scenario(2))

    def test_cost_params_within_bounds(self):
        s = self._abilene_scenario()
        for c in s.link_costs.values():
            assert 7.5 <= c.capacity <= 15.0
        for c in s.comp_costs.values():
            assert 5.0 <= c.capacity <= 10.0


class TestScenario:
    def test_rateless_apps_dropped(self, e1):
        from chainflow import Application
        extra = Application(id="ghost", chain_length=0, destination=2, packet_sizes=(1.0,))
        s = Scenario(graph=e1.graph, applications=e1.applications + (extra,),
                     link_costs=e1.link_costs, comp_costs=e1.comp_costs,
                     input_rates=e1.input_rates)
        assert [a.id for a in s.applications] == ["a"]

    def test_serialization_round_trip(self, prop1):
        from chainflow.serialize import scenario_from_jsonable, scenario_to_jsonable
        again = scenario_from_jsonable(scenario_to_jsonable(prop1))
        assert scenario_bytes(again) == scenario_bytes(prop1)

    def test_per_node_weights_round_trip(self, e1):
        import json

        from chainflow import Application, compute_flows, init_strategy
        from chainflow.serialize import scenario_from_jsonable, scenario_to_jsonable
        app = Application(id="a", chain_length=1, destination=2, packet_sizes=(2.0, 1.0),
                          comp_weights={1: (2.5,)})   # node 2 keeps the default 1.0
        s = Scenario(graph=e1.graph, applications=(app,), link_costs=e1.link_costs,
                     comp_costs=e1.comp_costs, input_rates=e1.input_rates)
        again = scenario_from_jsonable(json.loads(json.dumps(scenario_to_jsonable(s))))
        assert again.applications[0].comp_weights == {1: (2.5,)}
        assert scenario_bytes(again) == scenario_bytes(s)
        cost = compute_flows(s, init_strategy(s)).total_cost
        assert cost == 2.5 + 1.0     # computed at node 1 at weight 2.5, one result hop
        assert compute_flows(again, init_strategy(again)).total_cost == cost

    def test_immutable_after_construction(self, e1):
        import dataclasses

        from chainflow import compute_flows, init_strategy
        cost = compute_flows(e1, init_strategy(e1)).total_cost   # compiles and caches
        with pytest.raises(TypeError):
            e1.input_rates[(1, "a")] = 1.5
        with pytest.raises(TypeError):
            e1.link_costs[(1, 2)] = Linear(5.0)
        with pytest.raises(TypeError):
            e1.comp_costs[1] = None
        for name, value in (("input_rates", {(1, "a"): 1.5}), ("link_costs", {}),
                            ("applications", ())):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(e1, name, value)
        assert compute_flows(e1, init_strategy(e1)).total_cost == cost
        faster = e1.with_rates({(1, "a"): 1.5})
        assert compute_flows(faster, init_strategy(faster)).total_cost > cost

    def test_application_keeps_its_own_sizes_and_weights(self, e1):
        from chainflow import Application, compute_flows, init_strategy
        weights, sizes = {1: [2.0], 2: [3.0]}, [2.0, 1.0]
        app = Application(id="a", chain_length=1, destination=2, packet_sizes=sizes,
                          comp_weights=weights)
        s = Scenario(graph=e1.graph, applications=(app,), link_costs=e1.link_costs,
                     comp_costs=e1.comp_costs, input_rates=e1.input_rates)
        phi = init_strategy(s)
        cost = compute_flows(s, phi).total_cost    # compiles and caches
        weights[1][0] = 5.0
        sizes[1] = 9.0
        assert app.weight(1, 0) == 2.0
        assert app.packet_sizes == (2.0, 1.0)
        with pytest.raises(TypeError):
            app.comp_weights[1] = (5.0,)
        # the cached compile and a fresh one of the same application agree
        fresh = Scenario(graph=s.graph, applications=(app,), link_costs=s.link_costs,
                         comp_costs=s.comp_costs, input_rates=s.input_rates)
        assert compute_flows(s, phi).total_cost == cost
        assert compute_flows(fresh, phi).total_cost == cost
