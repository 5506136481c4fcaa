"""Forwarding strategies and the flow engine.

A strategy assigns, per (node, stage), a fraction row over {CPU} ∪ neighbors.
The engine evaluates the induced per-stage traffic, link flows, CPU flows,
and the total transmission + computation cost. Only loop-free strategies are
evaluated: per-stage traffic then follows from one pass along the stages'
levels (stage_levels) instead of a cyclic linear system.

The engine works on one layout, the stage stack (_Stack): a directed edge
index of the graph and every stage of every application stacked on one
axis. A strategy is an (S, n+E) array of direction fractions there, so the
work of a GP slot scales with E * S, not n^2 * S. The dense per-stage
blocks of the public API are views built from it on access.
"""

from __future__ import annotations

import heapq
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

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
        nodes = self.nodes

        self.adj = np.zeros((n, n), dtype=bool)
        for (u, v), cost in scenario.link_costs.items():
            self.adj[self.index[u], self.index[v]] = cost is not None
        self.cpus = CostArray(n, ((self.index[node], cost)
                                  for node, cost in scenario.comp_costs.items()),
                              "workload at or above CPU capacity",
                              lambda i: f"CPU of node {nodes[i]!r}")
        self.has_cpu = self.cpus.kind != ABSENT

        self.apps = []
        rates = dict(scenario.input_rates)
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
                r[i] = rates.get((node, app.id), 0.0)
            if app.destination not in self.index:
                raise ValueError(f"destination {app.destination!r} not in graph")
            self.apps.append(_CompiledApp(app.id, K, self.index[app.destination],
                                          np.asarray(app.packet_sizes, dtype=float), w, r))
        self.stage_keys = [(a.id, k) for a in self.apps for k in range(a.K + 1)]
        self._trees = {}

    @cached_property
    def stack(self) -> "_Stack":
        """The engine's layout, built on first use."""
        return _Stack(self)

    def cost_total(self, F, G) -> float:
        """Total link cost of bit rates F, one per edge of the stage stack,
        plus CPU cost of workloads G."""
        total = self.stack.links.total(F) + self.cpus.total(G)
        if np.any(G[~self.has_cpu] > 0):
            raise CapacityExceeded("workload on a node without CPU")
        return total

    @cached_property
    def zero_flow_metric(self) -> np.ndarray:
        """Marginal cost of every edge of the stage stack at zero flow."""
        links = self.stack.links
        M = links.param.copy()
        # 1/c rather than queue_prime(c, 0) = c/c^2, which can round
        # differently and would change how initial strategies break ties
        M[links.que] = 1.0 / links.param[links.que]
        return M

    def zero_flow_tree(self, targets):
        """(dist, succ) of the cheapest zero-flow paths to the nodes flagged
        in `targets`: succ[i] is node i's next node, -1 at targets and -2
        where no path leads. Built once per target set and read-only."""
        key = targets.tobytes()
        tree = self._trees.get(key)
        if tree is None:
            dist = np.where(targets, 0.0, np.inf)
            succ = np.where(targets, -1, -2)
            cheapest_to_go(self.stack, self.zero_flow_metric[None], dist[None], succ[None])
            tree = self._trees[key] = (dist, succ)
            for a in tree:
                a.flags.writeable = False
        return tree


def compiled(scenario: Scenario) -> _Compiled:
    cache = scenario.__dict__.get("_compiled")
    if cache is None:
        cache = _Compiled(scenario)
        scenario.__dict__["_compiled"] = cache
    return cache


# ---------------------------------------------------------------------------
# the stage stack: edge index, stacked stages and dense views
# ---------------------------------------------------------------------------

class _Stack:
    """The engine's layout of a compiled scenario.

    Edges are the directed links in row-major (u, v) order, as np.nonzero
    of the adjacency gives them. Directions are CPU columns and edges: node
    i owns the segment of n + E directions starting at seg[i], its CPU
    column first and then its out-links, so no segment is ever empty and
    per-row minima, sums and counts are reduceat over `seg`. `eid[u, v]` is
    the edge of link (u, v), -1 off the links, and `into[v]` lists node v's
    in-edges as (source, edge) pairs of Python ints, sources increasing, for
    cheapest_to_go. Stage s is comp.stage_keys[s]; the per-stage arrays give
    its packet size L, the workloads w of its task (inf at final stages and
    where the task cannot run), its input rates, its application's
    destination, the previous and next stage of its application (-1 at the
    ends), its position k in the chain, and which rows must sum to one
    (`active`: all but the destination's final-stage row).
    """

    def __init__(self, comp: _Compiled):
        n = self.n = comp.n
        self.nodes = comp.nodes
        self.keys = comp.stage_keys
        self.index = {key: s for s, key in enumerate(self.keys)}
        self.src, self.dst = np.nonzero(comp.adj)
        E = self.E = len(self.src)
        outdeg = np.bincount(self.src, minlength=n)
        self.seg = np.concatenate(([0], np.cumsum(outdeg + 1)[:-1]))
        self.edge_pos = self.src + np.arange(E) + 1
        self.dnode = np.repeat(np.arange(n), outdeg + 1)
        col = np.zeros(n + E, dtype=int)
        col[self.edge_pos] = 1 + self.dst
        self.dir_flat = self.dnode * (n + 1) + col    # direction -> (n, n+1) flat
        self.edge_flat = self.src * n + self.dst      # edge -> (n, n) flat
        self.eid = np.full((n, n), -1)
        self.eid[self.src, self.dst] = np.arange(E)
        self.into = [[] for _ in range(n)]            # node -> [(source, edge)]
        for e, (u, v) in enumerate(zip(self.src.tolist(), self.dst.tolist())):
            self.into[v].append((u, e))
        nodes = comp.nodes
        self.links = CostArray(
            E, ((e, comp.scenario.link_costs[(nodes[u], nodes[v])])
                for e, (u, v) in enumerate(zip(self.src, self.dst))),
            "link flow at or above queue capacity",
            lambda e: f"link {(nodes[self.src[e]], nodes[self.dst[e]])!r}")

        S = len(self.keys)
        self.L = np.zeros(S)
        self.w = np.full((S, n), np.inf)
        self.r = np.zeros((S, n))
        self.dest = np.zeros(S, dtype=int)
        self.prev = np.full(S, -1)
        self.next = np.full(S, -1)
        self.k = np.zeros(S, dtype=int)
        self.active = np.ones((S, n), dtype=bool)
        s = 0
        for app in comp.apps:
            for k in range(app.K + 1):
                self.L[s], self.k[s], self.dest[s] = app.L[k], k, app.dest
                if k < app.K:
                    self.w[s] = app.w[:, k]
                    self.next[s] = s + 1
                else:
                    self.active[s, app.dest] = False
                if k == 0:
                    self.r[s] = app.r
                else:
                    self.prev[s] = s - 1
                s += 1
        self.final = self.next < 0
        self.groups = [np.flatnonzero(self.k == k) for k in range(self.k.max(initial=0) + 1)]

    def same_as(self, other: "_Stack") -> bool:
        """Whether arrays laid out for `other` read the same here."""
        return other is self or (other.n == self.n and other.keys == self.keys
                                 and np.array_equal(other.src, self.src)
                                 and np.array_equal(other.dst, self.dst))

    def row_mask(self, row_filter=None) -> np.ndarray:
        """(S, n) mask of the rows to update: the active rows of the stages
        that `row_filter` accepts."""
        if row_filter is None:
            return self.active
        return self.active & np.array([bool(row_filter(key)) for key in self.keys])[:, None]

    def row_sum(self, a):
        """Per-node sums of an (S, n+E) direction array."""
        return np.add.reduceat(a, self.seg, axis=1)

    def row_min(self, a):
        """Per-node minima of an (S, n+E) direction array."""
        return np.minimum.reduceat(a, self.seg, axis=1)

    def inputs(self, rates=None) -> np.ndarray:
        """(S, n) exogenous input rates: the scenario's, or those given as
        {(node, app_id): rate}."""
        if rates is None:
            return self.r
        inj = np.zeros_like(self.r)
        for s in self.groups[0]:
            inj[s] = [rates.get((node, self.keys[s][0]), 0.0) for node in self.nodes]
        return inj

    def totals(self, fe, g):
        """Link bits F per edge and CPU workloads G per node of (S, E) link
        flows and (S, n) CPU flows, each added stage by stage. This is the
        one accumulation of F and G. Raises CapacityExceeded for CPU flow
        where the stage's task cannot run."""
        F = (self.L[:, None] * fe).sum(axis=0)
        on = (g > 0) & ~self.final[:, None]
        cannot = (on & ~np.isfinite(self.w)).any(axis=1)
        if cannot.any():
            raise CapacityExceeded(f"stage {self.keys[np.argmax(cannot)]} sends flow to a CPU "
                                   "that cannot run the task")
        return F, (np.where(on, self.w, 0.0) * g).sum(axis=0)

    def inflow(self, fe) -> np.ndarray:
        """(S, n) per-node sums of an (S, E) edge array over the in-edges,
        added in edge order."""
        S = len(fe)
        into = (np.arange(S)[:, None] * self.n + self.dst).ravel()
        return np.bincount(into, weights=fe.ravel(), minlength=S * self.n).reshape(S, self.n)

    def point(self, X, s, i, nxt):
        """Give rows (s, i) of the direction array X a unit fraction toward
        node nxt, or toward their CPU where nxt is negative, in place."""
        cpu = nxt < 0
        X[s[cpu], self.seg[i[cpu]]] = 1.0
        X[s[~cpu], self.edge_pos[self.eid[i[~cpu], nxt[~cpu]]]] = 1.0

    def trees(self, succ) -> np.ndarray:
        """(S, n+E) fractions along per-stage successor trees (S, n), as
        _Compiled.zero_flow_tree gives them: each active row sends
        everything to its next node, and a tree's targets (-1) send it to
        their CPU."""
        X = np.zeros((len(succ), self.n + self.E))
        s, i = np.nonzero(self.active)
        self.point(X, s, i, succ[s, i])
        return X

    def pack(self, rows) -> np.ndarray:
        """(S, n+E) direction array of dense blocks {key: (n, n+1)}: row
        blocks of a strategy, or a modified-marginal table."""
        if isinstance(rows, DenseView):
            return rows.stacked(self)
        X = np.empty((len(self.keys), self.n + self.E))
        for s, key in enumerate(self.keys):
            block = rows[key]
            if block.shape != (self.n, self.n + 1):
                raise ValueError(f"stage {key} block has shape {block.shape}, "
                                 f"not {(self.n, self.n + 1)}")
            X[s] = block.ravel()[self.dir_flat]
        return X

    def pack_edges(self, table) -> np.ndarray:
        """(S, E) edge array of dense link blocks {key: (n, n)}."""
        if isinstance(table, DenseView):
            return table.stacked(self)
        return np.stack([table[key].ravel()[self.edge_flat] for key in self.keys])

    def peel(self, X) -> "StageLevels":
        """The levels of the direction fractions X, cyclic stages included."""
        return StageLevels(X[:, self.edge_pos], self.src, self.dst, self.n, self.k)

    def unpack(self, X) -> dict:
        """Dense row blocks {key: (n, n+1)} of (S, n+E) direction fractions."""
        return {key: _block(X[s], (self.n, self.n + 1), self.dir_flat, 0.0)
                for s, key in enumerate(self.keys)}

    def node_view(self, a) -> dict:
        """{key: row of a} for an (S, n) node array."""
        return dict(zip(self.keys, a))

    def node_stack(self, table) -> np.ndarray:
        """(S, n) array of a {key: (n,)} node table."""
        if isinstance(table, DenseView):
            return table.stacked(self)
        return np.stack([table[key] for key in self.keys])

    def direction_view(self, a) -> "DenseView":
        """Dense (n, n+1) blocks of an (S, n+E) direction array, +inf on
        absent directions."""
        return DenseView(self, a, (self.n, self.n + 1), self.dir_flat, np.inf)

    def edge_view(self, a, fill) -> "DenseView":
        """Dense (n, n) blocks of an (S, E) edge array, `fill` off the links."""
        return DenseView(self, a, (self.n, self.n), self.edge_flat, fill)


def cheapest_to_go(stack: _Stack, link_w, dist, succ, cpu_w=None, fixed=None):
    """Backward Dijkstra over layers of the stack's edge index, in place.

    dist[k, v] becomes the cheapest cost from node v in layer k to a seed:
    a link hop (u, v) in layer k costs link_w[k, e] for its edge e, and the
    step from (k, v) to (k+1, v) costs cpu_w[k, v]. Non-finite costs mark
    unusable steps; costs must be nonnegative. Finite entries of `dist` on
    entry are the seeds, and rows flagged in the boolean `fixed` (dist's
    shape) keep their seed labels. Whenever a label improves, `succ` takes
    the next node, or -1 for the step to the next layer; other entries keep
    what the caller put there.

    Tie rule: a label changes only on strict improvement, and the one heap
    of all layers pops in (cost, layer, node) order, so of two exactly equal
    offers the one from the label settled first wins.
    """
    into = stack.into
    D, S, W = dist.tolist(), succ.tolist(), link_w.tolist()
    C = None if cpu_w is None else cpu_w.tolist()
    Fx = [[False] * stack.n] * len(D) if fixed is None else fixed.tolist()
    ks, vs = np.nonzero(np.isfinite(dist))
    heap = [(D[k][v], k, v) for k, v in zip(ks.tolist(), vs.tolist())]
    heapq.heapify(heap)
    while heap:
        d, k, v = heapq.heappop(heap)
        if d > D[k][v]:
            continue
        Dk, Sk, Wk, Fk = D[k], S[k], W[k], Fx[k]
        for u, e in into[v]:
            cand = d + Wk[e]
            if cand < Dk[u] and not Fk[u]:
                Dk[u], Sk[u] = cand, v
                heapq.heappush(heap, (cand, k, u))
        if k and C is not None:
            cand = d + C[k - 1][v]
            if cand < D[k - 1][v] and not Fx[k - 1][v]:
                D[k - 1][v], S[k - 1][v] = cand, -1
                heapq.heappush(heap, (cand, k - 1, v))
    dist[...] = D
    succ[...] = S


def _block(row, shape, flat, fill):
    out = np.full(shape, fill, dtype=row.dtype)
    out.ravel()[flat] = row
    return out


class DenseView(Mapping):
    """{(app_id, k): dense block} over a stacked (S, ...) array.

    Each block is built on first access and kept, so edits to it persist;
    `stacked()` returns the stacked array with those edits read back.
    """

    def __init__(self, stack: _Stack, a, shape, flat, fill):
        self._stack, self._a = stack, a
        self._shape, self._flat, self._fill = shape, flat, fill
        self._blocks = {}

    def __getitem__(self, key):
        block = self._blocks.get(key)
        if block is None:
            block = _block(self._a[self._stack.index[key]], self._shape, self._flat, self._fill)
            self._blocks[key] = block
        return block

    def __iter__(self):
        return iter(self._stack.keys)

    def __len__(self):
        return len(self._stack.keys)

    def stacked(self, stack: _Stack) -> np.ndarray:
        if not stack.same_as(self._stack):
            raise ValueError("table laid out for another scenario")
        if not self._blocks:
            return self._a
        a = self._a.copy()
        for key, block in self._blocks.items():
            a[self._stack.index[key]] = block.ravel()[self._flat]
        return a


# ---------------------------------------------------------------------------
# strategy
# ---------------------------------------------------------------------------

class Strategy:
    """Per-(node, stage) forwarding fractions.

    ``rows[(app_id, k)]`` is an (n, n+1) array: column 0 is the CPU fraction,
    column 1+j the fraction toward the node with index j. Rows sum to 1,
    except the destination's final-stage row which sums to 0.

    Every strategy the package makes (init_strategy, run_gp, adapt, the
    baselines, strategy_from_flows) holds the (S, n+E) direction array of
    its stage stack instead. The dense blocks are the public form, for
    strategies built by hand (`zeros` and `set_row`), for inspection and
    for JSON; inside the package only these methods and detect_loops,
    which has no scenario to lay a stack out on, read `rows`. A strategy
    holds one form, never both: the first access to `rows` unpacks the
    array into dense blocks and drops it, and the engine packs a dense
    strategy's rows on every use, so edits to `rows` always count. A
    strategy is evaluated only on a scenario with the same node tuple.
    """

    def __init__(self, nodes, rows):
        self.nodes = tuple(nodes)
        self._rows = rows
        self._packed = None   # (stack, X)

    @classmethod
    def _stacked(cls, stack: _Stack, X) -> "Strategy":
        phi = cls(stack.nodes, None)
        phi._packed = (stack, X)
        return phi

    @property
    def rows(self) -> dict:
        if self._rows is None:
            stack, X = self._packed
            self._rows, self._packed = stack.unpack(X), None
        return self._rows

    def fractions(self, stack: _Stack) -> np.ndarray:
        """The (S, n+E) direction fractions on `stack`. Do not edit them.
        Raises ValueError for a strategy on other nodes, with a block that
        is not (n, n+1) or with mass on a link the scenario lacks."""
        if self.nodes != stack.nodes:
            raise ValueError(f"strategy for nodes {self.nodes!r} evaluated on a scenario "
                             f"with nodes {stack.nodes!r}")
        rows = self._foreign_rows(stack)
        if rows is None:
            return self._packed[1]
        X = stack.pack(rows)
        s, i, j = np.nonzero([(rows[key][:, 1:] != 0) & (stack.eid < 0) for key in stack.keys])
        if s.size:
            u, v = self.nodes[i[0]], self.nodes[j[0]]
            raise ValueError(f"stage {stack.keys[s[0]]}: node {u!r} sends mass over link "
                             f"{(u, v)!r}, which the scenario lacks")
        return X

    def _foreign_rows(self, stack: _Stack):
        """None when the strategy holds an array laid out on `stack`, else
        its dense row blocks (without unpacking the strategy)."""
        if self._packed is None:
            return self._rows
        own, X = self._packed
        return None if stack.same_as(own) else own.unpack(X)

    @classmethod
    def zeros(cls, scenario: Scenario) -> "Strategy":
        comp = compiled(scenario)
        rows = {key: np.zeros((comp.n, comp.n + 1)) for key in comp.stage_keys}
        return cls(comp.nodes, rows)

    def copy(self) -> "Strategy":
        if self._packed is not None:
            stack, X = self._packed
            return Strategy._stacked(stack, X.copy())
        return Strategy(self.nodes, {k: v.copy() for k, v in self._rows.items()})

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

    Returns a list of violation dicts, stage by stage; an empty list means
    the strategy is valid. Nothing is raised. The checks read the
    directions the engine evaluates; the blocks of a strategy not laid out
    on the scenario's stage stack are also checked for their shape and for
    mass on absent links, which the engine refuses.
    """
    comp = compiled(scenario)
    st = comp.stack
    if phi.nodes != comp.nodes:
        return [{"error": f"strategy for nodes {phi.nodes!r}, scenario has {comp.nodes!r}"}]
    tol = 1e-9
    misshaped, absent = set(), {}
    rows = phi._foreign_rows(st)
    if rows is None:
        X = phi.fractions(st)
    else:
        blocks = {}
        for key in st.keys:
            mat = rows.get(key)
            if mat is None or mat.shape != (st.n, st.n + 1):
                misshaped.add(key)
                mat = np.zeros((st.n, st.n + 1))
            blocks[key] = mat
            absent[key] = [{"stage": key, "node": comp.nodes[i], "dest": comp.nodes[j],
                            "error": "fraction on absent link"}
                           for i, j in np.argwhere((mat[:, 1:] > tol) & ~comp.adj)]
        X = st.pack(blocks)
    outside = (X < -tol) | (X > 1 + tol)
    sums = st.row_sum(X)
    want = st.active.astype(float)
    bad_cpu = (X[:, st.seg] > tol) & ~np.isfinite(st.w)
    out = []
    for s, key in enumerate(st.keys):
        if key in misshaped:
            out.append({"stage": key, "error": "missing or misshaped row block"})
            continue
        for p in np.flatnonzero(outside[s]):
            out.append({"stage": key, "node": comp.nodes[st.dnode[p]],
                        "error": "fraction outside [0, 1]", "value": float(X[s, p])})
        for i in np.flatnonzero(np.abs(sums[s] - want[s]) > 1e-6):
            out.append({"stage": key, "node": comp.nodes[i],
                        "error": f"row sums to {sums[s, i]:.9f}, expected {want[s, i]}"})
        out += absent.get(key, [])
        for i in np.flatnonzero(bad_cpu[s]):
            out.append({"stage": key, "node": comp.nodes[i],
                        "error": "CPU fraction at final stage" if st.final[s]
                        else "CPU fraction where task not performable"})
    return out


class StageLevels:
    """Level numbers of every stage's positive-fraction support, all stages
    peeled at once.

    `xe` (S, E) holds each stage's fractions on the edges (src, dst) of an
    n-node graph and `group` (S,) the position of each stage in its chain.
    `level[s, i]` is the length of the longest support path from node i to
    a sink of stage s, so every support link leads to a lower level. Nodes
    on or upstream of a cycle keep level -1, and `cyclic` lists their
    stages: a support that does not peel down to nothing has a cycle.
    """

    def __init__(self, xe, src, dst, n, group):
        S = len(xe)
        self.n, self.S, self.group = n, S, group
        s, e = np.nonzero(xe > 0)
        gsrc, gdst = s * n + src[e], s * n + dst[e]
        left = np.bincount(gsrc, minlength=S * n)
        level = np.where(left == 0, 0, -1)
        rest = np.arange(len(gsrc))
        depth = 0
        while rest.size:
            done = level[gdst[rest]] >= 0
            if not done.any():
                break
            depth += 1
            left -= np.bincount(gsrc[rest[done]], minlength=S * n)
            rest = rest[~done]
            level[(left == 0) & (level < 0)] = depth
        self.level = level.reshape(S, n)
        self.cyclic = np.flatnonzero((self.level < 0).any(axis=1))
        if self.cyclic.size:
            return
        # support edges in (chain position, level of their source) order;
        # cuts[k] bounds the edges of group k leaving levels 1, 2, ...
        key = group[s] * (n + 1) + level[gsrc]
        order = np.argsort(key, kind="stable")
        self.src, self.dst = gsrc[order], gdst[order]
        self.x = xe[s, e][order]
        self.pos = (s * xe.shape[1] + e)[order]
        steps = np.arange(1, depth + 2)
        groups = np.arange(group.max(initial=0) + 1)
        self.cuts = np.searchsorted(key[order], groups[:, None] * (n + 1) + steps[None, :])

    def _levels(self, k, keep_stage=None):
        """Index sets of group k's support edges, one per level, increasing."""
        cuts = self.cuts[k]
        if keep_stage is not None:
            idx = cuts[0] + np.flatnonzero(keep_stage[self.src[cuts[0]:cuts[-1]] // self.n])
            c = np.searchsorted(idx, cuts)
            return [idx[a:b] for a, b in zip(c[:-1], c[1:]) if b > a]
        return [slice(a, b) for a, b in zip(cuts[:-1], cuts[1:]) if b > a]

    def solve(self, x, k, forward: bool):
        """Solve x = b + A x in place on the stages at chain position k.

        x is (S, n) and holds b on entry. A is each stage's link-fraction
        matrix P (the reverse marginal recursion x_i = b_i + sum_j P_ij x_j)
        or, with `forward`, its transpose (flow propagation). Stages whose b
        is all zero solve to exact zeros and are skipped.
        """
        if k >= len(self.cuts):
            return
        mine = self.group == k
        nonzero = x.any(axis=1)
        if not nonzero[mine].any():
            return
        parts = self._levels(k, None if nonzero[mine].all() else nonzero)
        xf = x.reshape(-1)
        if forward:
            for part in reversed(parts):
                xf += np.bincount(self.dst[part], weights=xf[self.src[part]] * self.x[part],
                                  minlength=xf.size)
        else:
            for part in parts:
                xf += np.bincount(self.src[part], weights=self.x[part] * xf[self.dst[part]],
                                  minlength=xf.size)

    def flags(self, improper) -> np.ndarray:
        """(S, n) flags: some support path of the stage from the node uses
        a link that the (S, E) edge mask `improper` marks."""
        flag = np.zeros(self.S * self.n, dtype=bool)
        hit_edge = improper.reshape(-1)[self.pos]
        # no improper link, no flag: no stage of a cold GP run on sw-queue
        # or Abilene has one, so the pass rarely runs there
        if hit_edge.any():
            for k in range(len(self.cuts)):
                for part in self._levels(k):
                    hit = hit_edge[part] | flag[self.dst[part]]
                    flag[self.src[part][hit]] = True
        return flag.reshape(self.S, self.n)


def stage_levels(stack: _Stack, X) -> StageLevels:
    """The levels of every stage of the direction fractions X on `stack`.

    This is the one loop check: it raises LoopDetected naming the first
    stage, in stage order, whose support has a cycle. Flow propagation, the
    marginal recursion, hop metrics, strategy_from_flows and the blocked
    flags all solve along these levels.
    """
    levels = stack.peel(X)
    if levels.cyclic.size:
        raise LoopDetected(f"stage {stack.keys[levels.cyclic[0]]} has a cyclic support")
    return levels


def marginal_sweep(st: _Stack, X, Dp, Cp, levels: StageLevels, settle=None) -> np.ndarray:
    """(S, n) marginal costs dT/dt of the direction fractions X on st.

    Dp holds the links' marginal costs per edge, Cp the CPUs' per node, and
    `levels` are X's stage_levels. The recursion runs over chain positions
    in decreasing order, all applications' stage k together, each solved
    along its levels, sinks first, from dT/dt = 0 at the destination's
    final stage. `settle(k, lam)`, when given, runs once position k is
    solved and may change that position's rows of lam before the position
    below reads them.
    """
    link = np.zeros_like(X)
    link[:, st.edge_pos] = X[:, st.edge_pos] * (st.L[:, None] * Dp)
    link = st.row_sum(link)
    c0 = X[:, st.seg]
    lam = np.zeros_like(link)
    for k in reversed(range(len(st.groups))):
        group = st.groups[k]
        lam[group] = link[group]
        mid = group[~st.final[group]]
        if mid.size:
            on = c0[mid] > 0
            with np.errstate(invalid="ignore"):
                cpu = c0[mid] * (st.w[mid] * Cp + lam[st.next[mid]])
            lam[mid] += np.where(on, cpu, 0.0)
        levels.solve(lam, k, forward=False)
        if settle is not None:
            settle(k, lam)
    return lam


def detect_loops(phi: Strategy) -> dict:
    """Directed cycles among positive-fraction links, per stage.

    Returns {(app_id, k): [cycle, ...]} for stages with loops; an empty dict
    means the strategy is loop-free. Cycles formed only by concatenating
    different stages are not reported.
    """
    rows = phi.rows
    keys = list(rows)
    if not keys:
        return {}
    n = len(phi.nodes)
    src, dst = np.nonzero(np.logical_or.reduce([rows[key][:, 1:] > 0 for key in keys]))
    xe = np.stack([rows[key][src, 1 + dst] for key in keys])
    levels = StageLevels(xe, src, dst, n, np.zeros(len(keys), dtype=int))
    out = {}
    for s in levels.cyclic:
        g = nx.DiGraph()
        g.add_nodes_from(range(n))
        g.add_edges_from(zip(src[xe[s] > 0], dst[xe[s] > 0]))
        out[keys[s]] = [[phi.nodes[i] for i in cyc] for cyc in nx.simple_cycles(g)]
    return out


# ---------------------------------------------------------------------------
# flow evaluation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FlowState:
    """Per-stage traffic and flows plus network totals for one strategy.

    The engine's arrays are stacked over the stage stack `stack`:
    `traffic_stack` and `cpu_stack` (S, n) and `edge_flows` (S, E) in
    packets/sec, `edge_bits` (E,) the total bits/sec F per edge and
    `workload` (n,) the total workload G; `levels` are the stage_levels of
    the strategy. The dense views `traffic`, `cpu_flows` ({(app_id, k):
    (n,)}), `link_flows` ({(app_id, k): (n, n)}) and `link_bits` ((n, n)
    F_ij) are built on first access.
    """

    stack: _Stack
    traffic_stack: np.ndarray
    cpu_stack: np.ndarray
    edge_flows: np.ndarray
    edge_bits: np.ndarray
    workload: np.ndarray
    total_cost: float
    levels: StageLevels

    @property
    def nodes(self) -> tuple:
        return self.stack.nodes

    @cached_property
    def traffic(self) -> dict:
        return self.stack.node_view(self.traffic_stack)

    @cached_property
    def cpu_flows(self) -> dict:
        return self.stack.node_view(self.cpu_stack)

    @cached_property
    def link_flows(self) -> DenseView:
        return self.stack.edge_view(self.edge_flows, 0.0)

    @cached_property
    def link_bits(self) -> np.ndarray:
        return _block(self.edge_bits, (self.stack.n, self.stack.n), self.stack.edge_flat, 0.0)

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


def compute_flows(scenario: Scenario, phi: Strategy, extra_injections: dict | None = None,
                  rates: dict | None = None) -> FlowState:
    """Evaluate a loop-free strategy into a :class:`FlowState`.

    `extra_injections` maps (node, (app_id, k)) to an additional exogenous
    packet rate injected directly at that stage (used for finite-difference
    probing). `rates` optionally replaces the scenario input rates, given as
    {(node, app_id): rate}.
    """
    comp = compiled(scenario)
    st = comp.stack
    X = phi.fractions(st)
    levels = stage_levels(st, X)
    inj = st.inputs(rates)
    extra = None
    if extra_injections:
        extra = np.zeros_like(st.r)
        for (node, stage), rate in extra_injections.items():
            if stage in st.index:
                extra[st.index[stage], comp.index[node]] += rate
    c0 = X[:, st.seg]
    t = np.zeros_like(st.r)
    for k, group in enumerate(st.groups):
        prev = st.prev[group]
        b = inj[group] if k == 0 else t[prev] * c0[prev]
        t[group] = b if extra is None else b + extra[group]
        levels.solve(t, k, forward=True)
    if np.any(t < 0):
        raise ValueError("negative traffic (bad injections?)")
    g = t * c0
    fe = t[:, st.src] * X[:, st.edge_pos]
    F, G = st.totals(fe, g)
    total = comp.cost_total(F, G)
    return FlowState(st, t, g, fe, F, G, total, levels)


def max_conservation_residual(scenario: Scenario, phi: Strategy, state: FlowState,
                              rates: dict | None = None) -> float:
    """Largest absolute violation of per-(node, stage) flow conservation."""
    st = compiled(scenario).stack
    inflow = st.inflow(state.edge_flows) + st.inputs(rates)
    later = st.prev >= 0
    inflow[later] += state.cpu_stack[st.prev[later]]
    return float(np.max(np.abs(state.traffic_stack - inflow), initial=0.0))


# ---------------------------------------------------------------------------
# initial strategies
# ---------------------------------------------------------------------------

def tree_fractions(comp: _Compiled, at_destination: bool = False) -> np.ndarray:
    """(S, n+E) fractions on zero-flow shortest-path trees: each task runs
    where its data sits when that node can run it, else at the nearest node
    that can (with `at_destination`, at the destination when it can run
    the task). Final results, and stages that no node can run, head for
    the destination."""
    st = comp.stack
    succ = np.empty((len(st.keys), st.n), dtype=int)
    for s in range(len(st.keys)):
        dest = np.arange(st.n) == st.dest[s]
        capable = np.isfinite(st.w[s])
        if at_destination and capable[st.dest[s]]:
            capable = dest
        succ[s] = comp.zero_flow_tree(capable if capable.any() else dest)[1]
    return st.trees(succ)


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
    st = comp.stack
    for s in np.flatnonzero(~st.final):
        if not np.isfinite(st.w[s]).any():
            app_id, k = st.keys[s]
            raise NoFeasibleStrategy(f"no node can perform task {k + 1} of {app_id}")
    phi = Strategy._stacked(st, tree_fractions(comp, mode == INIT_MODES[1]))
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
