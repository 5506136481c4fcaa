"""Network model: graphs, congestion-dependent cost functions, service-chain
applications, and random scenario generation.

A scenario bundles everything an algorithm needs: a strongly connected
bidirectional graph, per-link transmission costs, per-node computation costs,
a set of service-chain applications, and exogenous input rates.
"""

from __future__ import annotations

import math
from collections.abc import Mapping
from dataclasses import dataclass
from importlib import resources
from types import MappingProxyType

import numpy as np

from .errors import CapacityExceeded, NoFeasibleStrategy

DEFAULT_BASE_PACKET_SIZE = 10.0
DEFAULT_PACKET_SIZE_DECREMENT = 5.0


# ---------------------------------------------------------------------------
# cost functions
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Linear:
    """Linear cost d(x) = slope * x."""

    slope: float

    def __post_init__(self):
        if self.slope < 0:
            raise ValueError("linear cost slope must be >= 0")


@dataclass(frozen=True)
class Queue:
    """M/M/1-style queueing cost d(x) = x / (capacity - x) on [0, capacity).

    The value is the average number of packets waiting or in service, so the
    cost blows up at the capacity and acts as a smooth barrier.
    """

    capacity: float

    def __post_init__(self):
        if self.capacity <= 0:
            raise ValueError("queue capacity must be > 0")


CostFunction = Linear | Queue

# entry kinds of a CostArray
ABSENT, LINEAR, QUEUE = -1, 0, 1


def queue_value(capacity, x):
    """Queue cost x / (capacity - x), for scalars or elementwise on arrays."""
    return x / (capacity - x)


def queue_prime(capacity, x):
    """Derivative capacity / (capacity - x)^2 of the queue cost."""
    return capacity / (capacity - x) ** 2


def queue_room(capacity, x, dx):
    """Step along a growing load direction dx that brings load x to capacity."""
    return (capacity - x) / dx


class CostArray:
    """The cost functions of a set of links or CPUs, laid out as a vector.

    This is the one implementation of the Linear and Queue value,
    derivative, domain check and room to capacity; everything that
    evaluates costs goes through it or through the queue_* formulas above.
    `kind` holds LINEAR, QUEUE or ABSENT per entry, `param` the slope or
    capacity; `lin` and `que` index the Linear and Queue entries in order, as
    masks would, and `p_lin`, `p_que` are their params. `overflow` is the
    message of the CapacityExceeded raised at a queue capacity; a `label`
    adds the most overloaded entry, label(index), and its load over capacity.
    """

    def __init__(self, size, costs, overflow: str, label=None):
        """`costs` yields (index, cost function or None) pairs."""
        self.kind = np.full(size, ABSENT, dtype=np.int8)
        self.param = np.zeros(size)
        for index, cost in costs:
            if isinstance(cost, Linear):
                self.kind[index], self.param[index] = LINEAR, cost.slope
            elif cost is not None:
                self.kind[index], self.param[index] = QUEUE, cost.capacity
        self.lin, self.que = (np.flatnonzero(self.kind == kind) for kind in (LINEAR, QUEUE))
        self.p_lin, self.p_que = self.param[self.lin], self.param[self.que]
        self.overflow = overflow
        self.label = label

    def limit(self, margin: float) -> np.ndarray:
        """Per entry, the load that saturates it: (1 - margin) of a queue's
        capacity, inf elsewhere."""
        lim = np.full(self.param.shape, np.inf)
        lim[self.que] = self.p_que * (1 - margin)
        return lim

    def saturated(self, x, margin: float) -> bool:
        """Whether some (finite) load reaches its limit: a queue load (1 -
        margin) of its capacity."""
        return bool((x >= self.limit(margin)).any())

    def check(self, x):
        """The queue loads x[que]. Raises CapacityExceeded when one reaches
        its capacity."""
        if np.count_nonzero((xq := x[self.que]) >= self.p_que):
            raise CapacityExceeded(self._overflow_message(x))
        return xq

    def _overflow_message(self, x) -> str:
        if self.label is None:
            return self.overflow
        que = self.kind == QUEUE
        worst = int(np.argmax(ratio := np.where(que, x, 0.0) / np.where(que, self.param, 1.0)))
        return f"{self.overflow}: {self.label(worst)} at {ratio[worst]:.6g} x capacity"

    def total(self, x) -> float:
        """Summed cost of the loads x. Raises CapacityExceeded outside the domain."""
        xq = self.check(x)
        # an empty kind sums to 0.0
        lin = float((self.p_lin * x[self.lin]).sum()) if self.lin.size else 0.0
        return lin + (float(queue_value(self.p_que, xq).sum()) if xq.size else 0.0)

    def deriv(self, x):
        """Marginal cost of every entry at loads x (0 on absent entries)."""
        xq = self.check(x)
        D = np.zeros(x.shape)
        D[self.lin] = self.p_lin
        D[self.que] = queue_prime(self.p_que, xq)
        return D

    def room(self, x, dx) -> float:
        """Largest step along dx that keeps every queue below capacity
        (inf when no queue load grows)."""
        grow = (d := dx[self.que]) > 0
        if not grow.any():
            return math.inf
        return float(np.min(queue_room(self.p_que[grow], x[self.que][grow], d[grow])))


def _single(c: CostFunction, x: float) -> CostArray:
    if x < 0:
        raise ValueError(f"flow must be nonnegative, got {x}")
    return CostArray(1, [(0, c)], f"flow {x} at or above the capacity of {c}")


def eval_cost(c: CostFunction, x: float) -> float:
    """Cost value at flow x. Raises CapacityExceeded outside the domain."""
    return _single(c, x).total(np.array([x], dtype=float))


def eval_cost_prime(c: CostFunction, x: float) -> float:
    """First derivative of the cost at flow x (the marginal cost)."""
    return float(_single(c, x).deriv(np.array([x], dtype=float))[0])


# ---------------------------------------------------------------------------
# graph
# ---------------------------------------------------------------------------

def _sorted_nodes(nodes):
    try:
        return tuple(sorted(nodes))
    except TypeError:
        return tuple(sorted(nodes, key=str))


@dataclass(frozen=True)
class Graph:
    """Directed, strongly connected graph with bidirectional links.

    ``links`` holds ordered pairs; for every (i, j) the reverse (j, i) is
    present as well and self-links are forbidden.
    """

    nodes: tuple
    links: frozenset

    def __post_init__(self):
        adj = {u: [] for u in self.nodes}
        for (u, v) in self.links:
            if u == v:
                raise ValueError(f"self-link {u}->{v} not allowed")
            if u not in adj or v not in adj:
                raise ValueError(f"link {u}->{v} references unknown node")
            if (v, u) not in self.links:
                raise ValueError(f"link {u}->{v} has no reverse link")
            adj[u].append(v)
        reached = list(self.nodes[:1])     # breadth-first from nodes[0]
        seen = set(reached)
        for u in reached:
            for v in adj[u]:
                if v not in seen:
                    seen.add(v)
                    reached.append(v)
        if len(self.nodes) > 1 and len(seen) < len(adj):
            raise ValueError("graph is not connected")

    @classmethod
    def from_undirected_edges(cls, nodes, edges) -> "Graph":
        links = set()
        for (u, v) in edges:
            links.add((u, v))
            links.add((v, u))
        return cls(nodes=_sorted_nodes(nodes), links=frozenset(links))

    @property
    def num_undirected_edges(self) -> int:
        return len(self.links) // 2


# ---------------------------------------------------------------------------
# topology generators
# ---------------------------------------------------------------------------

def _connected_er(n: int, p: float, rng) -> Graph:
    # spanning chain guarantees connectivity, extra edges drawn u.a.r.
    if n < 2:
        raise ValueError("connected_er needs n >= 2")
    if not 0 <= p <= 1:
        raise ValueError("edge probability must be in [0, 1]")
    edges = {(i, i + 1) for i in range(n - 1)}
    for i in range(n):
        for j in range(i + 1, n):
            if (i, j) in edges:
                continue
            if rng.random() < p:
                edges.add((i, j))
    return Graph.from_undirected_edges(range(n), edges)


def _balanced_tree(depth: int) -> Graph:
    # complete binary tree with `depth` levels: 2**depth - 1 nodes
    if depth < 1:
        raise ValueError("balanced_tree needs depth >= 1")
    n = 2 ** depth - 1
    edges = set()
    for i in range(1, n):
        edges.add(((i - 1) // 2, i))
    return Graph.from_undirected_edges(range(n), edges)


def _fog(layers=(1, 2, 4, 12)) -> Graph:
    """Fog-computing topology: a tree of layers (cloud, routers, servers,
    devices). Nodes of intermediate layers are chained linearly; leaf-layer
    nodes are chained within sibling groups only.
    """
    if len(layers) < 2 or any(s < 1 for s in layers):
        raise ValueError("fog layers must be a sequence of positive sizes")
    starts, total = [], 0
    for s in layers:
        starts.append(total)
        total += s
    edges = set()
    # tree edges: children of layer l-1 are spread evenly over layer l-1 nodes
    for l in range(1, len(layers)):
        parents, children = layers[l - 1], layers[l]
        for c in range(children):
            parent = starts[l - 1] + (c * parents) // children
            edges.add((parent, starts[l] + c))
    # intra-layer chains
    last = len(layers) - 1
    for l in range(1, len(layers)):
        for c in range(layers[l] - 1):
            u, v = starts[l] + c, starts[l] + c + 1
            if l == last:
                # leaves: only chain nodes that share a parent
                pu = (c * layers[l - 1]) // layers[l]
                pv = ((c + 1) * layers[l - 1]) // layers[l]
                if pu != pv:
                    continue
            edges.add((u, v))
    return Graph.from_undirected_edges(range(total), edges)


def _small_world(n: int, short: int, long: int, rng) -> Graph:
    """Ring lattice with chords to all nodes within ring distance `short`,
    plus `long` extra chords drawn uniformly at random."""
    if n < 4:
        raise ValueError("small_world needs n >= 4")
    if short < 1 or 2 * short >= n:
        raise ValueError("short-range distance out of range")
    edges = set()
    for i in range(n):
        for d in range(1, short + 1):
            j = (i + d) % n
            edges.add((min(i, j), max(i, j)))
    added = 0
    while added < long:
        i, j = int(rng.integers(n)), int(rng.integers(n))
        if i == j:
            continue
        e = (min(i, j), max(i, j))
        if e in edges:
            continue
        edges.add(e)
        added += 1
    return Graph.from_undirected_edges(range(n), edges)


def _from_file(path) -> Graph:
    nodes, edges = set(), set()
    with open(path, "r", encoding="utf-8") as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) < 2:
                raise ValueError(f"malformed edge line in {path!r}: {line!r}")
            u, v = parts[0], parts[1]
            if u == v:
                raise ValueError(f"self-link in topology file: {line!r}")
            nodes.update((u, v))
            edges.add((u, v))
    if not edges:
        raise ValueError(f"no edges found in topology file {path!r}")
    g = Graph.from_undirected_edges(nodes, edges)
    return g


def topology_file(name: str):
    """Path to a packaged edge-list topology file ('abilene', 'lhc', 'geant')."""
    ref = resources.files("chainflow.data").joinpath(f"{name}.edges")
    if not ref.is_file():
        raise ValueError(f"unknown packaged topology {name!r}")
    return ref


def generate_topology(kind: str, params: dict | None = None, seed: int = 0) -> Graph:
    """Build a graph of the given kind. Deterministic for fixed (kind, params, seed)."""
    params = dict(params or {})
    rng = np.random.default_rng(seed)
    if kind == "connected_er":
        return _connected_er(int(params.get("n", 20)), float(params.get("p", 0.1)), rng)
    if kind == "balanced_tree":
        return _balanced_tree(int(params.get("depth", 4)))
    if kind == "fog":
        return _fog(tuple(params.get("layers", (1, 2, 4, 12))))
    if kind == "small_world":
        return _small_world(int(params.get("n", 100)), int(params.get("short", 3)),
                            int(params.get("long", 20)), rng)
    if kind == "from_file":
        return _from_file(params["path"])
    if kind in ("abilene", "lhc", "geant"):
        with resources.as_file(topology_file(kind)) as p:
            return _from_file(p)
    raise ValueError(f"unknown topology kind {kind!r}")


# ---------------------------------------------------------------------------
# applications and scenarios
# ---------------------------------------------------------------------------

def default_packet_sizes(chain_length: int) -> tuple:
    """Stage packet sizes 10 - 5k (clipped at 0) for stages k = 0..K."""
    return tuple(max(0.0, DEFAULT_BASE_PACKET_SIZE - DEFAULT_PACKET_SIZE_DECREMENT * k)
                 for k in range(chain_length + 1))


@dataclass(frozen=True)
class Application:
    """A service chain: `chain_length` tasks applied in order to a data flow,
    with final results delivered to `destination`.

    `packet_sizes[k]` is the bit size of a stage-k packet (k=0 raw data,
    k=chain_length final results). `comp_weights` gives the workload
    w_i(a,k) for node i to run task k+1 on one stage-k packet: either a
    scalar applied everywhere or a mapping node -> sequence of length K.
    Use math.inf to mark a task as not performable at a node. Both are kept
    as read-only copies: later edits to the caller's objects do not reach it.
    """

    id: str
    chain_length: int
    destination: object
    packet_sizes: tuple
    comp_weights: object = 1.0

    def __post_init__(self):
        object.__setattr__(self, "packet_sizes", tuple(float(x) for x in self.packet_sizes))
        if not np.isscalar(self.comp_weights):
            object.__setattr__(self, "comp_weights", MappingProxyType(
                {node: tuple(seq) for node, seq in self.comp_weights.items()}))
        if self.chain_length < 0:
            raise ValueError("chain_length must be >= 0")
        if len(self.packet_sizes) != self.chain_length + 1:
            raise ValueError("packet_sizes must have chain_length + 1 entries")
        if any(s < 0 for s in self.packet_sizes):
            raise ValueError("packet sizes must be >= 0")

    def weight(self, node, k: int) -> float:
        if np.isscalar(self.comp_weights):
            return float(self.comp_weights)
        seq = self.comp_weights.get(node)
        if seq is None:
            return 1.0
        return float(seq[k])


@dataclass(frozen=True)
class CostSpec:
    """Kinds and parameter upper bounds for randomly drawn link/CPU costs."""

    link_kind: str = "queue"     # "queue" | "linear"
    link_bound: float = 15.0     # capacity (queue) or slope (linear) upper bound
    comp_kind: str = "queue"
    comp_bound: float = 10.0

    def __post_init__(self):
        for kind in (self.link_kind, self.comp_kind):
            if kind not in ("queue", "linear"):
                raise ValueError(f"unknown cost kind {kind!r}")
        if self.link_bound <= 0 or self.comp_bound <= 0:
            raise ValueError("cost parameter bounds must be > 0")


def _make_cost(kind: str, value: float) -> CostFunction:
    return Queue(capacity=value) if kind == "queue" else Linear(slope=value)


@dataclass(frozen=True)
class Scenario:
    """A complete problem instance, immutable after construction.

    Applications with no positive input rate are dropped. `comp_costs` maps a
    node to its CPU cost function, or None for nodes without a CPU.
    `link_costs`, `comp_costs` and `input_rates` are kept as read-only
    copies of the given mappings, and the fields cannot be reassigned, so
    the compiled arrays cached on a scenario never go stale; derive a
    changed scenario with `with_rates` or a new constructor call instead.
    """

    graph: Graph
    applications: tuple
    link_costs: Mapping
    comp_costs: Mapping
    input_rates: Mapping
    seed: int = 0
    name: str = ""

    def __post_init__(self):
        link_costs, rates = dict(self.link_costs), dict(self.input_rates)
        for link in self.graph.links:
            if link not in link_costs:
                raise ValueError(f"missing cost function for link {link}")
        for (node, app_id), r in rates.items():
            if r < 0:
                raise ValueError(f"negative input rate at {(node, app_id)}")
        nodes = set(self.graph.nodes)
        fed = {app_id for (node, app_id), r in rates.items() if r > 0 and node in nodes}
        # the dataclass is frozen: fields are set once, here
        object.__setattr__(self, "link_costs", MappingProxyType(link_costs))
        object.__setattr__(self, "comp_costs", MappingProxyType(dict(self.comp_costs)))
        object.__setattr__(self, "input_rates", MappingProxyType(rates))
        object.__setattr__(self, "applications",
                           tuple(app for app in self.applications if app.id in fed))
        ids = [a.id for a in self.applications]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate application ids")

    def app(self, app_id) -> Application:
        for a in self.applications:
            if a.id == app_id:
                return a
        raise KeyError(app_id)

    def rate(self, node, app_id) -> float:
        return self.input_rates.get((node, app_id), 0.0)

    def with_rates(self, input_rates: dict) -> "Scenario":
        from .flows import share_compiled  # deferred: flows depends on this module

        new = Scenario(graph=self.graph, applications=self.applications,
                       link_costs=self.link_costs, comp_costs=self.comp_costs,
                       input_rates=dict(input_rates), seed=self.seed, name=self.name)
        share_compiled(self, new)
        return new


def sample_scenario(topology: Graph, num_apps: int, chain_length: int,
                    sources_per_app: int, rate_range, cost_spec: CostSpec,
                    seed: int = 0, packet_sizes=None, name: str = "") -> Scenario:
    """Draw a random scenario on the given topology.

    Each application gets `sources_per_app` distinct sources with rates
    uniform in `rate_range`; cost parameters are uniform in
    [0.5 * bound, bound] per link / node. The draw is redone
    (deterministically), up to 25 times, until flows.feasible_start finds a
    strategy with finite cost, so the returned scenario always lies in the
    stability region.
    """
    from .flows import feasible_start  # deferred: flows depends on this module

    n = len(topology.nodes)
    if sources_per_app > n:
        raise ValueError("more sources per app than nodes")
    lo, hi = float(rate_range[0]), float(rate_range[1])
    if not (0 <= lo <= hi) or hi <= 0:
        raise ValueError("empty or invalid rate range")
    if packet_sizes is None:
        packet_sizes = default_packet_sizes(chain_length)

    rng = np.random.default_rng(seed)
    undirected = sorted({(min(u, v, key=str), max(u, v, key=str)) for (u, v) in topology.links},
                        key=str)
    for _ in range(25):
        link_costs = {}
        for (u, v) in undirected:
            value = rng.uniform(0.5 * cost_spec.link_bound, cost_spec.link_bound)
            link_costs[(u, v)] = _make_cost(cost_spec.link_kind, value)
            link_costs[(v, u)] = _make_cost(cost_spec.link_kind, value)
        comp_costs = {}
        for node in topology.nodes:
            value = rng.uniform(0.5 * cost_spec.comp_bound, cost_spec.comp_bound)
            comp_costs[node] = _make_cost(cost_spec.comp_kind, value)
        applications, input_rates = [], {}
        for a in range(num_apps):
            dest = topology.nodes[int(rng.integers(n))]
            applications.append(Application(
                id=f"app{a}", chain_length=chain_length, destination=dest,
                packet_sizes=tuple(packet_sizes)))
            src_idx = rng.choice(n, size=sources_per_app, replace=False)
            for idx in sorted(src_idx):
                input_rates[(topology.nodes[int(idx)], f"app{a}")] = float(rng.uniform(lo, hi))
        scenario = Scenario(graph=topology, applications=tuple(applications),
                            link_costs=link_costs, comp_costs=comp_costs,
                            input_rates=input_rates, seed=seed, name=name)
        try:
            feasible_start(scenario)
            return scenario
        except NoFeasibleStrategy as err:
            last_err = str(err)     # not err: its traceback holds this frame, a cycle
    raise NoFeasibleStrategy(f"no finite-cost draw found in 25 attempts: {last_err}")
