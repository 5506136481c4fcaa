import numpy as np
import pytest

from chainflow import (Application, CostSpec, Graph, Linear, Queue, Scenario,
                       Strategy, generate_topology, sample_scenario)


@pytest.fixture
def e1():
    """Two nodes, one app with a single task, destination node 2.

    Packet sizes (2, 1); link 1<->2 linear slope 1; CPU slopes 1 at node 1 and
    3 at node 2; unit input at node 1.
    """
    g = Graph.from_undirected_edges([1, 2], [(1, 2)])
    app = Application(id="a", chain_length=1, destination=2, packet_sizes=(2.0, 1.0))
    return Scenario(
        graph=g, applications=(app,),
        link_costs={(1, 2): Linear(1.0), (2, 1): Linear(1.0)},
        comp_costs={1: Linear(1.0), 2: Linear(3.0)},
        input_rates={(1, "a"): 1.0})


def _strategy(scenario, assignments):
    phi = Strategy.zeros(scenario)
    for (node, app_id, k), fracs in assignments.items():
        phi.set_row(node, app_id, k, fracs)
    return phi


@pytest.fixture
def e1_strategy_a(e1):
    """Compute at node 1, ship the result over (1,2)."""
    return _strategy(e1, {
        (1, "a", 0): {"cpu": 1.0},
        (2, "a", 0): {"cpu": 1.0},
        (1, "a", 1): {2: 1.0},
        # row (2, a, 1) is the destination final stage: all zero
    })


@pytest.fixture
def e1_strategy_b(e1):
    """Ship raw data over (1,2), compute at node 2."""
    return _strategy(e1, {
        (1, "a", 0): {2: 1.0},
        (2, "a", 0): {"cpu": 1.0},
        (1, "a", 1): {2: 1.0},
    })


@pytest.fixture
def prop1():
    """Four-node instance where a KKT point is 1/0.3 times worse than optimal.

    Only node 4 (the destination) has a CPU, with zero marginal cost. The
    direct link (1,4) has slope 1 while the path 1-2-3-4 has slope 0.1 per
    hop; chord (2,4) has slope 1. Unit input at node 1, unit packet sizes.
    """
    g = Graph.from_undirected_edges([1, 2, 3, 4], [(1, 2), (2, 3), (3, 4), (1, 4), (2, 4)])
    slopes = {(1, 2): 0.1, (2, 3): 0.1, (3, 4): 0.1, (1, 4): 1.0, (2, 4): 1.0}
    link_costs = {}
    for (u, v), s in slopes.items():
        link_costs[(u, v)] = Linear(s)
        link_costs[(v, u)] = Linear(s)
    app = Application(id="p", chain_length=1, destination=4, packet_sizes=(1.0, 1.0))
    return Scenario(
        graph=g, applications=(app,), link_costs=link_costs,
        comp_costs={1: None, 2: None, 3: None, 4: Linear(0.0)},
        input_rates={(1, "p"): 1.0})


@pytest.fixture
def prop1_kkt_strategy(prop1):
    """Routes all traffic on the direct link (1,4); satisfies KKT but not the
    sufficient condition (zero-traffic nodes 2 and 3 point at the chord)."""
    return _strategy(prop1, {
        (1, "p", 0): {4: 1.0},
        (2, "p", 0): {4: 1.0},
        (3, "p", 0): {4: 1.0},
        (4, "p", 0): {"cpu": 1.0},
        (1, "p", 1): {4: 1.0},
        (2, "p", 1): {4: 1.0},
        (3, "p", 1): {4: 1.0},
    })


def make_strategy(scenario, assignments):
    return _strategy(scenario, assignments)


def random_scenario(seed, topology_kind="connected_er", n=8, num_apps=2, K=2, R=2,
                    link_kind="queue", comp_kind="queue", link_bound=60.0,
                    comp_bound=40.0, rate_range=(0.5, 1.5), packet_sizes=None):
    """Small random scenario with generous capacities (used by property tests)."""
    topo = generate_topology(topology_kind, {"n": n, "p": 0.3}, seed=seed)
    spec = CostSpec(link_kind=link_kind, link_bound=link_bound,
                    comp_kind=comp_kind, comp_bound=comp_bound)
    return sample_scenario(topo, num_apps, K, R, rate_range, spec, seed=seed,
                           packet_sizes=packet_sizes)


def unconverged_lcof_scenario():
    """A scenario whose LCOF forwarding ends at its slot budget unconverged:
    the one such case a scan of random_scenario seeds 0-39 with one source
    per application (R=1, link_bound=10, packet sizes (1, 1, 3)) found."""
    return random_scenario(13, R=1, link_bound=10.0, packet_sizes=(1.0, 1.0, 3.0))


def random_loopfree_strategy(scenario, seed, full_support=False):
    """Random loop-free strategy: per stage, fractions only follow a random
    topological order, so the support is a DAG by construction.

    With full_support=True every node spreads over all order-respecting
    directions and (where possible) its CPU, which keeps traffic positive at
    every node when every node injects.
    """
    import networkx as nx

    from chainflow.flows import compiled

    comp = compiled(scenario)
    rng = np.random.default_rng(seed)
    phi = Strategy.zeros(scenario)
    g = nx.Graph()
    g.add_nodes_from(range(comp.n))
    g.add_edges_from(zip(*np.nonzero(comp.adj)))
    for app in comp.apps:
        hops = nx.single_source_shortest_path_length(g, app.dest)
        for k in range(app.K + 1):
            # farthest-from-destination first: every node keeps at least one
            # neighbor (one hop closer to the destination) later in the order
            jitter = rng.random(comp.n)
            order = sorted(range(comp.n), key=lambda v: (-hops[v], jitter[v]))
            pos = {v: p for p, v in enumerate(order)}
            mat = phi.rows[(app.id, k)]
            for i in range(comp.n):
                if k == app.K and i == app.dest:
                    continue
                forward = [j for j in np.flatnonzero(comp.adj[i]) if pos[j] > pos[i]]
                can_compute = k < app.K and np.isfinite(app.w[i, k])
                dests = ([0] if can_compute else []) + [1 + j for j in forward]
                w = rng.uniform(0.2, 1.0, size=len(dests))
                if not full_support and len(dests) > 1 and rng.random() < 0.5:
                    keep = int(rng.integers(1, len(dests) + 1))
                    mask = np.zeros(len(dests))
                    mask[rng.choice(len(dests), size=keep, replace=False)] = 1.0
                    w = w * mask
                mat[i, dests] = w / w.sum()
    return phi


def hub_scenario(seed, n=30):
    """Random scenario on a hub: node 0 links to every other node and a few
    chords join the rest. The hub's direction segment is so wide that the
    compiled scenario keeps no padded segment index (Segments.pad is None)."""
    rng = np.random.default_rng(seed)
    chords = [(int(u), int(v)) for u, v in rng.choice(np.arange(1, n), size=(n // 3, 2)) if u != v]
    topo = Graph.from_undirected_edges(range(n), [(0, v) for v in range(1, n)] + chords)
    spec = CostSpec(link_kind="queue", link_bound=60.0, comp_kind="queue", comp_bound=40.0)
    return sample_scenario(topo, 2, 2, 3, (0.5, 1.5), spec, seed=seed)


def layered_dijkstra(comp, link_w, seeds, cpu_w=None, fixed=None):
    """Reference labels for the cheapest-path searches: networkx's Dijkstra
    from a virtual source over the explicit graph of (row, node) pairs of a
    compiled scenario. The source joins every finite seed at its label, and
    the steps are reversed: link (u, v) of row r costs link_w[r, e] for its
    edge e, and the CPU step from (r, v) to (r+1, v) costs cpu_w[r, v].
    Non-finite costs leave a step out, and so does a `fixed` start."""
    import networkx as nx

    R, n = seeds.shape
    fixed = np.zeros(seeds.shape, dtype=bool) if fixed is None else fixed
    g = nx.DiGraph()
    for r, v in zip(*np.nonzero(np.isfinite(seeds))):
        g.add_edge("source", (r, v), weight=float(seeds[r, v]))
    for r in range(R):
        for e, (u, v) in enumerate(zip(comp.src, comp.dst)):
            if np.isfinite(link_w[r, e]) and not fixed[r, u]:
                g.add_edge((r, v), (r, u), weight=float(link_w[r, e]))
        for v in range(n):
            if cpu_w is not None and r + 1 < R and np.isfinite(cpu_w[r, v]) and not fixed[r, v]:
                g.add_edge((r + 1, v), (r, v), weight=float(cpu_w[r, v]))
    label = nx.single_source_dijkstra_path_length(g, "source") if g else {}
    return np.array([[label.get((r, v), np.inf) for v in range(n)] for r in range(R)])
