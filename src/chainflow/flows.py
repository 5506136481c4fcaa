"""Forwarding strategies and the flow engine.

A strategy assigns, per (node, stage), a fraction row over {CPU} ∪ neighbors.
The engine evaluates the induced per-stage traffic, link flows, CPU flows,
and the total transmission + computation cost. Only loop-free strategies are
evaluated: per-stage traffic then follows from one pass along the stage's
levels (stage_levels) instead of a cyclic linear system.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

import networkx as nx
import numpy as np

from .errors import CapacityExceeded, LoopDetected, NoFeasibleStrategy
from .network import ABSENT, CostArray, Scenario

INIT_MODES = ("shortest_path_then_local_comp", "shortest_path_comp_at_destination")


# ---------------------------------------------------------------------------
# compiled scenario (internal arrays, cached on the scenario object)
# ---------------------------------------------------------------------------

class _CompiledApp:
    __slots__ = ("id", "K", "dest", "L", "w", "r")

    def __init__(self, app_id, K, dest, L, w, r):
        self.id = app_id
        self.K = K
        self.dest = dest      # node index
        self.L = L            # (K+1,) packet sizes
        self.w = w            # (n, K) workloads, inf where not performable
        self.r = r            # (n,) exogenous input rates


class _Compiled:
    """Array view of a scenario: node indexing, adjacency, cost parameters."""

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.nodes = tuple(scenario.graph.nodes)
        self.index = {v: i for i, v in enumerate(self.nodes)}
        n = self.n = len(self.nodes)

        self.links = CostArray(
            (n, n), (((self.index[u], self.index[v]), cost)
                     for (u, v), cost in scenario.link_costs.items()),
            "link flow at or above queue capacity")
        self.adj = self.links.kind != ABSENT
        self.cpus = CostArray(n, ((self.index[node], cost)
                                  for node, cost in scenario.comp_costs.items()),
                              "workload at or above CPU capacity")
        self.has_cpu = self.cpus.kind != ABSENT

        self.apps = []
        for app in scenario.applications:
            K = app.chain_length
            w = np.full((n, K), np.inf)
            for i, node in enumerate(self.nodes):
                if not self.has_cpu[i]:
                    continue
                for k in range(K):
                    w[i, k] = app.weight(node, k)
            r = np.zeros(n)
            for i, node in enumerate(self.nodes):
                r[i] = scenario.rate(node, app.id)
            if app.destination not in self.index:
                raise ValueError(f"destination {app.destination!r} not in graph")
            self.apps.append(_CompiledApp(app.id, K, self.index[app.destination],
                                          np.asarray(app.packet_sizes, dtype=float), w, r))
        self.stage_keys = [(a.id, k) for a in self.apps for k in range(a.K + 1)]

    def cost_total(self, F, G) -> float:
        """Total link cost of bit rates F plus CPU cost of workloads G."""
        total = self.links.total(F) + self.cpus.total(G)
        if np.any(G[~self.has_cpu] > 0):
            raise CapacityExceeded("workload on a node without CPU")
        return total

    def zero_flow_link_metric(self):
        """Marginal link cost at zero flow, +inf on absent links."""
        links = self.links
        M = np.full((self.n, self.n), np.inf)
        M[links.lin] = links.param[links.lin]
        # 1/c rather than queue_prime(c, 0) = c/c^2, which can round
        # differently and would change how initial strategies break ties
        M[links.que] = 1.0 / links.param[links.que]
        return M


def compiled(scenario: Scenario) -> _Compiled:
    cache = scenario.__dict__.get("_compiled")
    if cache is None:
        cache = _Compiled(scenario)
        scenario.__dict__["_compiled"] = cache
    return cache


# ---------------------------------------------------------------------------
# strategy
# ---------------------------------------------------------------------------

class Strategy:
    """Per-(node, stage) forwarding fractions.

    ``rows[(app_id, k)]`` is an (n, n+1) array: column 0 is the CPU fraction,
    column 1+j the fraction toward the node with index j. Rows sum to 1,
    except the destination's final-stage row which sums to 0.
    """

    def __init__(self, nodes, rows):
        self.nodes = tuple(nodes)
        self.rows = rows

    @classmethod
    def zeros(cls, scenario: Scenario) -> "Strategy":
        comp = compiled(scenario)
        rows = {key: np.zeros((comp.n, comp.n + 1)) for key in comp.stage_keys}
        return cls(comp.nodes, rows)

    def copy(self) -> "Strategy":
        return Strategy(self.nodes, {k: v.copy() for k, v in self.rows.items()})

    def row(self, node, app_id, k: int) -> dict:
        """Fraction row as a mapping {dest: fraction}, dest 'cpu' or a node id."""
        i = self.nodes.index(node)
        raw = self.rows[(app_id, k)][i]
        out = {}
        if raw[0] > 0:
            out["cpu"] = float(raw[0])
        for j, f in enumerate(raw[1:]):
            if f > 0:
                out[self.nodes[j]] = float(f)
        return out

    def set_row(self, node, app_id, k: int, fractions: dict):
        i = self.nodes.index(node)
        row = np.zeros(len(self.nodes) + 1)
        for dest, f in fractions.items():
            if dest == "cpu":
                row[0] = f
            else:
                row[1 + self.nodes.index(dest)] = f
        self.rows[(app_id, k)][i] = row

    def to_jsonable(self) -> dict:
        rows = {}
        for (app_id, k), mat in sorted(self.rows.items(), key=lambda kv: (kv[0][0], kv[0][1])):
            for i in range(mat.shape[0]):
                entry = {}
                if mat[i, 0] != 0:
                    entry["cpu"] = mat[i, 0]
                for j in range(mat.shape[0]):
                    if mat[i, 1 + j] != 0:
                        entry[str(j)] = mat[i, 1 + j]
                if entry:
                    rows[f"{i}/{app_id}/{k}"] = entry
        return {"nodes": list(self.nodes),
                "stages": [[app_id, k] for (app_id, k) in sorted(self.rows)],
                "rows": rows}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Strategy":
        nodes = tuple(data["nodes"])
        n = len(nodes)
        rows = {(app_id, int(k)): np.zeros((n, n + 1)) for app_id, k in data["stages"]}
        for key, entry in data["rows"].items():
            # key layout: "<node_idx>/<app_id>/<k>"; app ids may contain '/'
            i_s, rest = key.split("/", 1)
            app_id, k_s = rest.rsplit("/", 1)
            mat = rows[(app_id, int(k_s))]
            i = int(i_s)
            for dest, f in entry.items():
                if dest == "cpu":
                    mat[i, 0] = f
                else:
                    mat[i, 1 + int(dest)] = f
        return cls(nodes, rows)


# ---------------------------------------------------------------------------
# validation, loop detection and stage order
# ---------------------------------------------------------------------------

def validate_strategy(scenario: Scenario, phi: Strategy) -> list:
    """Check conservation row sums, support, and fraction ranges.

    Returns a list of violation dicts; an empty list means the strategy is
    valid. Nothing is raised.
    """
    comp = compiled(scenario)
    out = []
    tol = 1e-9
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            mat = phi.rows.get(key)
            if mat is None or mat.shape != (comp.n, comp.n + 1):
                out.append({"stage": key, "error": "missing or misshaped row block"})
                continue
            if np.any(mat < -tol) or np.any(mat > 1 + tol):
                bad = np.argwhere((mat < -tol) | (mat > 1 + tol))
                for i, j in bad:
                    out.append({"stage": key, "node": comp.nodes[i],
                                "error": "fraction outside [0, 1]",
                                "value": float(mat[i, j])})
            sums = mat.sum(axis=1)
            for i in range(comp.n):
                want = 0.0 if (k == app.K and i == app.dest) else 1.0
                if abs(sums[i] - want) > 1e-6:
                    out.append({"stage": key, "node": comp.nodes[i],
                                "error": f"row sums to {sums[i]:.9f}, expected {want}"})
            off_support = (mat[:, 1:] > tol) & ~comp.adj
            for i, j in np.argwhere(off_support):
                out.append({"stage": key, "node": comp.nodes[i],
                            "dest": comp.nodes[j], "error": "fraction on absent link"})
            if k == app.K:
                for i in np.flatnonzero(mat[:, 0] > tol):
                    out.append({"stage": key, "node": comp.nodes[i],
                                "error": "CPU fraction at final stage"})
            else:
                bad_cpu = (mat[:, 0] > tol) & ~np.isfinite(app.w[:, k])
                for i in np.flatnonzero(bad_cpu):
                    out.append({"stage": key, "node": comp.nodes[i],
                                "error": "CPU fraction where task not performable"})
    return out


def stage_levels(P: np.ndarray, key) -> list:
    """Node masks of stage `key`'s positive-fraction support P, sinks first.

    Every link of the support leads from a node to one in an earlier level,
    so solving along the levels, or along them reversed, visits each node
    after everything it depends on. This is the one loop check: a support
    that does not peel down to nothing has a cycle, reported as LoopDetected.
    """
    M = P > 0
    left = np.ones(len(M), dtype=bool)
    levels = []
    while left.any():
        level = left & ~M.any(axis=1)
        if not level.any():
            raise LoopDetected(f"stage {key} has a cyclic support")
        levels.append(level)
        left &= ~level
        M[:, level] = False
    return levels


def detect_loops(phi: Strategy) -> dict:
    """Directed cycles among positive-fraction links, per stage.

    Returns {(app_id, k): [cycle, ...]} for stages with loops; an empty dict
    means the strategy is loop-free. Cycles formed only by concatenating
    different stages are not reported.
    """
    out = {}
    for key, mat in phi.rows.items():
        try:
            stage_levels(mat[:, 1:], key)
        except LoopDetected:
            g = nx.DiGraph()
            g.add_nodes_from(range(len(mat)))
            g.add_edges_from(zip(*np.nonzero(mat[:, 1:] > 0)))
            out[key] = [[phi.nodes[i] for i in cyc] for cyc in nx.simple_cycles(g)]
    return out


# ---------------------------------------------------------------------------
# flow evaluation
# ---------------------------------------------------------------------------

@dataclass
class FlowState:
    """Per-stage traffic and flows plus network totals for one strategy."""

    nodes: tuple
    traffic: dict          # (app_id, k) -> (n,) packets/sec
    link_flows: dict       # (app_id, k) -> (n, n) packets/sec
    cpu_flows: dict        # (app_id, k) -> (n,) packets/sec
    link_bits: np.ndarray  # (n, n) total bits/sec F_ij
    workload: np.ndarray   # (n,) total workload G_i
    total_cost: float
    levels: dict           # (app_id, k) -> stage_levels of the strategy's rows

    def t(self, node, app_id, k: int) -> float:
        return float(self.traffic[(app_id, k)][self.nodes.index(node)])

    def f(self, u, v, app_id, k: int) -> float:
        return float(self.link_flows[(app_id, k)][self.nodes.index(u), self.nodes.index(v)])

    def g(self, node, app_id, k: int) -> float:
        return float(self.cpu_flows[(app_id, k)][self.nodes.index(node)])

    def F(self, u, v) -> float:
        return float(self.link_bits[self.nodes.index(u), self.nodes.index(v)])

    def G(self, node) -> float:
        return float(self.workload[self.nodes.index(node)])


def dag_sweep(b: np.ndarray, A: np.ndarray, levels) -> np.ndarray:
    """Solve x = b + A x in one pass over a stage's levels.

    Pass the levels sinks first when A is the stage's fraction matrix P (the
    reverse marginal recursion) and reversed when A = P.T (forward flow and
    hop-mass propagation). Each level takes its rows of the full product
    A @ x: the rows of A[level] @ x can round differently.
    """
    x = np.zeros_like(b)
    for level in levels:
        x[level] = (b + A @ x)[level]
    return x


def compute_flows(scenario: Scenario, phi: Strategy, extra_injections: dict | None = None,
                  rates: dict | None = None) -> FlowState:
    """Evaluate a loop-free strategy into a :class:`FlowState`.

    `extra_injections` maps (node, (app_id, k)) to an additional exogenous
    packet rate injected directly at that stage (used for finite-difference
    probing). `rates` optionally replaces the scenario input rates, given as
    {(node, app_id): rate}.
    """
    comp = compiled(scenario)
    n = comp.n
    extra = extra_injections or {}
    traffic, link_flows, cpu_flows, levels = {}, {}, {}, {}
    F = np.zeros((n, n))
    G = np.zeros(n)
    for app in comp.apps:
        g_prev = None
        for k in range(app.K + 1):
            key = (app.id, k)
            mat = phi.rows[key]
            P, c0 = mat[:, 1:], mat[:, 0]
            levels[key] = stage_levels(P, key)
            if k == 0:
                if rates is None:
                    inj = app.r.copy()
                else:
                    inj = np.zeros(n)
                    for i, node in enumerate(comp.nodes):
                        inj[i] = rates.get((node, app.id), 0.0)
            else:
                inj = g_prev.copy()
            for (node, stage), rate in extra.items():
                if stage == key:
                    inj[comp.index[node]] += rate
            t = dag_sweep(inj, P.T, levels[key][::-1])
            f = t[:, None] * P
            g = t * c0
            if np.any(t < 0):
                raise ValueError("negative traffic (bad injections?)")
            traffic[key], link_flows[key], cpu_flows[key] = t, f, g
            F += app.L[k] * f
            if k < app.K:
                active = g > 0
                if np.any(active & ~np.isfinite(app.w[:, k])):
                    raise CapacityExceeded(
                        f"stage {key} sends flow to a CPU that cannot run the task")
                G[active] += app.w[active, k] * g[active]
            g_prev = g
    total = comp.cost_total(F, G)
    return FlowState(nodes=comp.nodes, traffic=traffic, link_flows=link_flows,
                     cpu_flows=cpu_flows, link_bits=F, workload=G, total_cost=total,
                     levels=levels)


def max_conservation_residual(scenario: Scenario, phi: Strategy, state: FlowState,
                              rates: dict | None = None) -> float:
    """Largest absolute violation of per-(node, stage) flow conservation."""
    comp = compiled(scenario)
    worst = 0.0
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            inflow = state.link_flows[key].sum(axis=0)
            if k == 0:
                if rates is None:
                    inflow = inflow + app.r
                else:
                    for i, node in enumerate(comp.nodes):
                        inflow[i] += rates.get((node, app.id), 0.0)
            else:
                inflow = inflow + state.cpu_flows[(app.id, k - 1)]
            worst = max(worst, float(np.max(np.abs(state.traffic[key] - inflow))))
    return worst


# ---------------------------------------------------------------------------
# initial strategies
# ---------------------------------------------------------------------------

def _successor_tree(comp: _Compiled, metric: np.ndarray, targets: np.ndarray):
    """Cheapest next hop toward the target set under the given link metric.

    Returns (dist, succ) with succ[i] = -1 at targets. Deterministic: ties
    break toward the smaller node index.
    """
    n = comp.n
    dist = np.full(n, np.inf)
    succ = np.full(n, -2, dtype=int)
    heap = []
    for i in np.flatnonzero(targets):
        dist[i] = 0.0
        succ[i] = -1
        heapq.heappush(heap, (0.0, int(i)))
    seen = np.zeros(n, dtype=bool)
    while heap:
        d, j = heapq.heappop(heap)
        if seen[j] or d > dist[j]:
            continue
        seen[j] = True
        for i in np.flatnonzero(comp.adj[:, j]):
            nd = d + metric[i, j]
            if nd < dist[i] - 1e-15 or (abs(nd - dist[i]) <= 1e-15 and succ[i] > j >= 0):
                dist[i] = nd
                succ[i] = j
                heapq.heappush(heap, (nd, int(i)))
    return dist, succ


def tree_rows(comp: _Compiled, app, k: int, succ, compute_at=None) -> np.ndarray:
    """Row block of stage (app, k) that forwards along the successor tree
    `succ`; nodes flagged in `compute_at` send everything to their CPU
    instead."""
    mat = np.zeros((comp.n, comp.n + 1))
    for i in range(comp.n):
        if k == app.K and i == app.dest:
            continue
        if compute_at is not None and compute_at[i]:
            mat[i, 0] = 1.0
        else:
            mat[i, 1 + succ[i]] = 1.0
    return mat


def init_strategy(scenario: Scenario, mode: str = "shortest_path_then_local_comp",
                  require_finite: bool = True) -> Strategy:
    """A feasible, loop-free starting strategy with finite total cost.

    'shortest_path_then_local_comp' computes every chain task where the data
    sits (falling back to the nearest capable node) and routes final results
    on zero-flow-marginal shortest paths. 'shortest_path_comp_at_destination'
    forwards everything to the destination and computes there when possible.
    Raises NoFeasibleStrategy when the built strategy has infinite cost
    (require_finite=False skips that check; callers that inject lower rates
    than the scenario's, like admission control, start feasible anyway).
    """
    if mode not in INIT_MODES:
        raise ValueError(f"unknown init mode {mode!r}")
    comp = compiled(scenario)
    n = comp.n
    metric = comp.zero_flow_link_metric()
    phi = Strategy.zeros(scenario)
    for app in comp.apps:
        dest_targets = np.zeros(n, dtype=bool)
        dest_targets[app.dest] = True
        _, succ_dest = _successor_tree(comp, metric, dest_targets)
        for k in range(app.K + 1):
            key = (app.id, k)
            if k == app.K:
                phi.rows[key] = tree_rows(comp, app, k, succ_dest)
                continue
            capable = np.isfinite(app.w[:, k]) & comp.has_cpu
            if not capable.any():
                raise NoFeasibleStrategy(
                    f"no node can perform task {k + 1} of {app.id}")
            if mode == "shortest_path_comp_at_destination" and capable[app.dest]:
                phi.rows[key] = tree_rows(comp, app, k, succ_dest, compute_at=dest_targets)
                continue
            # compute locally where possible, else head to the nearest capable node
            _, succ_cap = _successor_tree(comp, metric, capable)
            phi.rows[key] = tree_rows(comp, app, k, succ_cap, compute_at=capable)
    if require_finite:
        try:
            compute_flows(scenario, phi)
        except CapacityExceeded as err:
            raise NoFeasibleStrategy(f"init mode {mode!r} saturates a capacity: {err}") from err
    return phi


def feasible_start(scenario: Scenario) -> Strategy:
    """First finite-cost strategy among the init modes."""
    last = None
    for mode in INIT_MODES:
        try:
            return init_strategy(scenario, mode=mode)
        except NoFeasibleStrategy as err:
            last = err
    raise NoFeasibleStrategy(str(last))
