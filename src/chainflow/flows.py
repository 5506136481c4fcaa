"""Forwarding strategies and the flow engine.

A strategy assigns, per (node, stage), a fraction row over {CPU} ∪ neighbors.
The engine evaluates the induced per-stage traffic, link flows, CPU flows,
and the total transmission + computation cost. Only loop-free strategies are
evaluated: per-stage traffic then follows from one pass along the stages'
levels (stage_levels) instead of a cyclic linear system.

The engine works on one layout, the stage stack, which compiled() builds
once per scenario: a directed edge index of the graph, the cost arrays of
its links and CPUs, and every stage of every application stacked on one
axis. A strategy is an (S, n+E) array of direction fractions there, so the
work of a GP slot scales with E * S, not n^2 * S. The dense per-stage
blocks of the public API are views built from it on access.
"""

from __future__ import annotations

import contextlib
import copy
from collections.abc import Mapping
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import CapacityExceeded, LoopDetected, NoFeasibleStrategy
from .network import ABSENT, CostArray, Scenario

INIT_MODES = ("shortest_path_then_local_comp", "shortest_path_comp_at_destination")


# ---------------------------------------------------------------------------
# compiled scenario: the stage stack (internal arrays, cached on the scenario)
# ---------------------------------------------------------------------------

class _App:
    """An application's stages s0 .. s0 + K, the slice `stages`, of a compiled
    scenario. L (K+1,), w (n, K) and r (n,) are views of the stage arrays."""

    __slots__ = ("id", "K", "dest", "s0", "stages", "L", "w", "r")

    def __init__(self, comp: "_Compiled", app_id, K: int, dest: int, s0: int):
        self.id, self.K, self.dest, self.s0 = app_id, K, dest, s0
        self.stages = slice(s0, s0 + K + 1)
        self.L = comp.L[s0:s0 + K + 1]
        self.w = comp.w[s0:s0 + K].T
        self.r = comp.r[s0]


class _Position:
    """Chain position k of a compiled scenario: its stage `rows`, every
    application's (an index array) or one application's (a slice counted
    from its first stage, _Compiled.chain), and of those the rows that are
    not final, `mid`, counted alike, with their workloads `w` and next
    stages `next`. `prev` holds the previous stages of every application's
    rows. `inf` says whether one of the workloads is inf, a node that
    cannot run the task, where a CPU step meets 0 * inf. `keep` says
    whether the rows are inert stages (_Compiled.inert), whose search does
    not depend on the marginals: links weigh 0 and CPU steps are unusable.
    `part` flags mid among the rows where it is some but not all of them."""

    __slots__ = ("rows", "prev", "mid", "w", "next", "inf", "keep", "part")

    def __init__(self, rows, prev, mid, w, nxt, keep, part=None):
        self.rows, self.prev, self.mid, self.w, self.next = rows, prev, mid, w, nxt
        self.keep, self.part = keep, part
        self.inf = bool(np.isinf(w).any())

    def step(self, Cp, lab):
        """The CPU steps' costs to go from the rows `mid`: w * Cp at CPU
        marginals Cp plus the next row's label in `lab`; nan (unusable)
        where an inf workload meets Cp = 0."""
        with np.errstate(invalid="ignore") if self.inf else contextlib.nullcontext():
            return self.w * Cp + lab[self.next]

    def offer(self, Cp, lab):
        """step on every row, inf at final rows; None where every row is
        final."""
        if self.part is None:
            return self.step(Cp, lab) if len(self.w) else None
        offer = np.full((len(self.part), len(Cp)), np.inf)
        offer[self.part] = self.step(Cp, lab)
        return offer


class _Stages:
    """Stages of a compiled scenario, their indices `index` in stage order,
    with the per-stage arrays that a GP slot reads there gathered once: the
    packet sizes L, the next stages, the workloads w, cannot_run and the
    active rows (see _Compiled)."""

    __slots__ = ("index", "L", "next", "w", "cannot_run", "active")

    def __init__(self, comp: "_Compiled", index):
        self.index = index
        self.L, self.next, self.w = comp.L[index], comp.next[index], comp.w[index]
        self.cannot_run, self.active = comp.cannot_run[index], comp.active[index]


class Segments:
    """Rows of an array laid out in column segments: segment i starts at
    column seg[i] and runs up to the next one, and dnode[j] is the segment
    of column j (the node, on the compiled scenario). Segments are never
    empty; segment i has width[i] columns, and a row has `size`.

    Per-segment sums are np.add.reduceat. Per-segment minima and maxima
    (what np.minimum.reduceat gives) and argmins go through `pad`, an
    (segments, widest segment) column index that repeats each segment's
    last column: one gather and one reduction instead of one call per
    segment. When a few wide segments would make that block more than four
    times the size of a row, `pad` is None and reduceat is used.
    """

    def __init__(self, seg, size: int):
        self.seg, self.size = seg, size
        length = self.width = np.diff(seg, append=size)
        self.dnode = np.repeat(np.arange(len(seg)), length)
        pad = seg[:, None] + np.minimum(np.arange(length.max(initial=1)), length[:, None] - 1)
        self.pad = pad if pad.size <= 4 * size else None

    def row_sum(self, a):
        """Per-segment sums of the rows of a."""
        return np.add.reduceat(a, self.seg, axis=1)

    def spans(self, rows, i):
        """(flat, starts, width) of segment i[k] of row rows[k], for every
        k: the flat indices into a C-ordered array of rows of every column
        of each, span after span, where each span starts in `flat`, and its
        width. np.add.reduceat over `starts` of values gathered through
        `flat` adds each segment's columns in their order, so its sums
        round as row_sum's."""
        width = self.width.take(i)
        ends = width.cumsum()
        starts = ends - width
        first = (rows * self.size + self.seg.take(i) - starts).repeat(width)
        return first + np.arange(ends[-1] if ends.size else 0), starts, width

    def row_min(self, a):
        """Per-segment minima of the rows of a."""
        if self.pad is None:
            return np.minimum.reduceat(a, self.seg, axis=1)
        return np.minimum.reduce(a[:, self.pad], axis=2)

    def row_max(self, a):
        """Per-segment maxima of the rows of a."""
        if self.pad is None:
            return np.maximum.reduceat(a, self.seg, axis=1)
        return np.maximum.reduce(a[:, self.pad], axis=2)

    def row_argmin(self, a):
        """Per-segment argmins of the rows of a, which hold no nan: the
        column of each segment's first minimum."""
        if self.pad is None:
            cols = np.arange(a.shape[1])
            first = np.where(a == self.row_min(a)[:, self.dnode], cols, len(cols))
            return np.minimum.reduceat(first, self.seg, axis=1)
        return self.pad[np.arange(len(self.seg)), a[:, self.pad].argmin(axis=2)]


class _Compiled(Segments):
    """The engine's layout of a scenario: the stage stack.

    Nodes are numbered in graph order (`index`) and `adj` is the (n, n)
    adjacency. Edges are the directed links in row-major (u, v) order, as
    np.nonzero of the adjacency gives them; `links` holds their cost
    functions, one per edge, and `cpus` the nodes'. Directions are CPU
    columns and edges: node i owns the segment of n + E directions starting
    at seg[i], its CPU column first and then its out-links, so no segment
    is ever empty and per-row minima and sums are those of Segments.
    `eid[u, v]` is the edge of link (u, v), -1 off the links, and
    `toward[p]` the node that direction p leads to, -1 on CPU columns.
    Stage s is keys[s], every stage of every application on one axis; the
    per-stage arrays give its packet size L, the workloads w of its task
    (inf at final stages and where the task cannot run: `cannot_run`), its
    input rates r, its application's destination, the previous and next
    stage of its application (-1 at the ends), its position k in the chain,
    and which rows must sum to one (`active`: all but the destination's
    final-stage row). The final stages of packet size 0 are `inert`: their
    results cost nothing to forward, so their marginals are 0 on every link
    and inf at the CPU, and no GP slot moves their rows; the others are
    live. `apps` holds each application's slice of the stages, and
    `positions` each chain position's stages with the constants that the
    engine reads there.
    """

    def __init__(self, scenario: Scenario):
        nodes = self.nodes = tuple(scenario.graph.nodes)
        index = self.index = {v: i for i, v in enumerate(nodes)}
        n = self.n = len(nodes)
        self.cpus = CostArray(n, ((index[v], cost) for v, cost in scenario.comp_costs.items()),
                              "workload at or above CPU capacity",
                              lambda i: f"CPU of node {nodes[i]!r}")
        self.has_cpu = self.cpus.kind != ABSENT

        # edges in row-major (u, v) order, as np.nonzero of the adjacency
        edges = sorted((index[u], index[v], cost)
                       for (u, v), cost in scenario.link_costs.items() if cost is not None)
        src = self.src = np.array([u for u, _, _ in edges], dtype=int)
        dst = self.dst = np.array([v for _, v, _ in edges], dtype=int)
        E = self.E = len(edges)
        self.adj = np.zeros((n, n), dtype=bool)
        self.adj[src, dst] = True
        self.links = CostArray(E, enumerate(cost for _, _, cost in edges),
                               "link flow at or above queue capacity",
                               lambda e: f"link {(nodes[src[e]], nodes[dst[e]])!r}")
        outdeg = np.bincount(src, minlength=n)
        super().__init__(np.concatenate(([0], np.cumsum(outdeg + 1)[:-1])), n + E)
        self.edge_pos = src + np.arange(E) + 1
        col = np.zeros(n + E, dtype=int)
        col[self.edge_pos] = 1 + dst
        self.toward = col - 1
        self.dir_flat = self.dnode * (n + 1) + col    # direction -> (n, n+1) flat
        self.edge_flat = src * n + dst                # edge -> (n, n) flat
        self.kinds = {"direction": ((n, n + 1), self.dir_flat),
                      "edge": ((n, n), self.edge_flat), "node": ((n,), np.arange(n))}
        self.eid = np.full((n, n), -1)
        self.eid[src, dst] = np.arange(E)

        # the stages, built as lists and converted once
        self.keys, L, dest, prev, nxt, w, firsts = [], [], [], [], [], [], []
        for app in scenario.applications:
            if app.destination not in index:
                raise ValueError(f"destination {app.destination!r} not in graph")
            K, d, s = app.chain_length, index[app.destination], len(self.keys)
            firsts.append((app.id, K, d, s))
            self.keys += [(app.id, k) for k in range(K + 1)]
            L += app.packet_sizes
            dest += [d] * (K + 1)
            prev += [-1, *range(s, s + K)]
            nxt += [*range(s + 1, s + K + 1), -1]
            w.append(self._workloads(app))
        S = len(self.keys)
        self.stage_index = {key: s for s, key in enumerate(self.keys)}
        self.L = np.array(L, dtype=float)
        self.w = np.concatenate(w) if w else np.empty((0, n))
        self.cannot_run = ~np.isfinite(self.w)
        self.dest = np.array(dest, dtype=int)
        self.prev, self.next = np.array(prev, dtype=int), np.array(nxt, dtype=int)
        self.k = np.array([k for _, k in self.keys], dtype=int)
        self.final = self.next < 0
        self.active = np.ones((S, n), dtype=bool)
        self.active[self.final, self.dest[self.final]] = False
        self.inert = self.final & (self.L == 0)
        self.positions = []
        for k in range(self.k.max(initial=0) + 1):
            rows = (self.k == k).nonzero()[0]
            on = ~self.final[rows]
            mid = rows[on]
            self.positions.append(_Position(rows, self.prev[rows], mid, self.w[mid], self.next[mid],
                                            bool(self.inert[rows].all()),
                                            None if mid.size in (0, rows.size) else on))
        self.r = self.inputs(scenario.input_rates)
        self.apps = [_App(self, *first) for first in firsts]
        self._trees = {}
        self._chains = {}       # chain(app) by first stage
        self._peeled = None     # (support, levels) of the last peel

    def _workloads(self, app) -> np.ndarray:
        """(K+1, n) workloads of the application's stages: w_i(a, k) of its
        tasks (Application.weight), inf where a node has no CPU and at the
        final stage."""
        K, weights = app.chain_length, app.comp_weights
        w = np.full((K + 1, self.n), np.inf)
        if np.isscalar(weights):
            w[:K, self.has_cpu] = float(weights)
        else:
            seqs = [weights.get(v) for v, cpu in zip(self.nodes, self.has_cpu) if cpu]
            cols = [[1.0] * K if seq is None else [float(seq[k]) for k in range(K)]
                    for seq in seqs]
            w[:K, self.has_cpu] = np.array(cols, dtype=float).reshape(len(cols), K).T
        return w

    def cost_total(self, F, G) -> float:
        """Total link cost of bit rates F, one per edge, plus CPU cost of
        workloads G (from totals, so zero on nodes without a CPU)."""
        return self.links.total(F) + self.cpus.total(G)

    @cached_property
    def zero_flow_metric(self) -> np.ndarray:
        """Marginal cost of every edge at zero flow."""
        M = self.links.param.copy()
        # 1/c rather than queue_prime(c, 0) = c/c^2, which can round
        # differently and would change how initial strategies break ties
        M[self.links.que] = 1.0 / self.links.param[self.links.que]
        return M

    def zero_flow_tree(self, targets):
        """(dist, succ) of the cheapest zero-flow paths to the nodes flagged
        in `targets`: succ[i] is node i's next node, -1 at targets and -2
        where no path leads. Rows of stacked target sets get rows of dist
        and succ. Each set is solved once, the new sets of a call in one
        sweep, and kept read-only; a single set gets the kept arrays."""
        sets = np.atleast_2d(targets)
        new = {t.tobytes(): t for t in sets if t.tobytes() not in self._trees}
        if new:
            todo = np.array(list(new.values()))
            dist, succ = np.where(todo, 0.0, np.inf), np.where(todo, -1, -2)
            cheapest_to_go(self, self.zero_flow_metric, dist, succ)
            dist.flags.writeable = succ.flags.writeable = False
            self._trees.update(zip(new, zip(dist, succ)))
        trees = [self._trees[t.tobytes()] for t in sets]
        if targets.ndim == 1:
            return trees[0]
        return tuple(np.array([tree[i] for tree in trees], dtype=dt).reshape(len(trees), self.n)
                     for i, dt in ((0, float), (1, int)))

    def chain(self, app=None) -> list:
        """The chain positions of an application, rows counted from its
        first stage, or of every application (None), the last first. An
        application's are built on its first use and kept."""
        if app is None:
            return self.positions[::-1]
        if (chain := self._chains.get(app.s0)) is None:
            s0, K = app.s0, app.K
            chain = self._chains[s0] = [_Position(slice(K, K + 1), None, slice(K, K),
                                                  self.w[s0 + K:s0 + K], None,
                                                  bool(self.inert[s0 + K]))]
            chain += [_Position(slice(j, j + 1), None, slice(j, j + 1), self.w[s0 + j:s0 + j + 1],
                                slice(j + 1, j + 2), False) for j in reversed(range(K))]
        return chain

    def slot_stages(self, X) -> _Stages:
        """The stages whose rows the GP slots of a run from the direction
        fractions X visit: the live ones, and an inert one with an active
        row that holds CPU mass or does not sum to exactly 1, which the slot
        update moves or renormalizes. An inert stage left out is never
        changed, so the choice holds for the whole run."""
        off = ((self.row_sum(X) != 1.0) | (X[:, self.seg] != 0.0)) & self.active
        return _Stages(self, np.flatnonzero(~self.inert | off.any(axis=1)))

    def every_stage(self) -> _Stages:
        """All the stages, as slot_stages gives them."""
        return _Stages(self, np.arange(len(self.keys)))

    def same_as(self, other: "_Compiled") -> bool:
        """Whether arrays laid out for `other` read the same here."""
        return other is self or (other.n == self.n and other.keys == self.keys
                                 and np.array_equal(other.src, self.src)
                                 and np.array_equal(other.dst, self.dst))

    def on_directions(self, a) -> np.ndarray:
        """The per-edge values a on an (n+E,) direction row, 0 on CPU columns."""
        row = np.zeros(self.n + self.E)
        row[self.edge_pos] = a
        return row

    @cached_property
    def wide(self):
        """(nodes, cols, starts) of the segments of more than 8 columns:
        their nodes, all their columns in order, and where each segment
        starts among those columns; None where every segment is narrower."""
        nodes = np.flatnonzero(self.width > 8)
        if not nodes.size:
            return None
        width = self.width[nodes]
        starts = width.cumsum() - width
        return nodes, (self.seg[nodes] - starts).repeat(width) + np.arange(width.sum()), starts

    def support_sum(self, X, levels, Dp=None) -> np.ndarray:
        """row_sum(X), bit for bit, taken over X's support: each row's CPU
        column and its links of positive fraction, which X's StageLevels
        `levels` hold. With Dp, the links' marginal costs per edge, the
        sums of X * (L[:, None] * on_directions(Dp)) instead: marginal_sweep's
        link terms.

        reduceat adds a segment as a0 + (a1 + a2 + ...). Up to 8 columns
        the sum in parentheses runs left to right from 0, so the zeros off
        the support drop out exactly, and np.bincount adds each row's
        links in the same order. Past 8 columns it runs in 8 interleaved
        partial sums, where the zeros' places count, so those segments
        (`wide`) are summed whole. A link fraction that is not positive
        reads as 0, as in the solves along the levels."""
        x = levels.x
        if Dp is not None:
            s, e = np.divmod(levels.pos, self.E)
            x = x * (self.L[s] * Dp[e])
        S = X.shape[0]
        out = np.bincount(levels.src, weights=x, minlength=S * self.n).reshape(S, self.n)
        if not x.size:          # np.bincount counts in ints without links
            out = out.astype(float)
        if Dp is None:
            out += X.take(self.seg, 1)
        if self.wide is not None:
            nodes, cols, starts = self.wide
            a = X[:, cols]
            if Dp is not None:
                a *= self.L[:, None] * self.on_directions(Dp)[cols]
            out[:, nodes] = np.add.reduceat(a, starts, axis=1)
        return out

    def inputs(self, rates=None) -> np.ndarray:
        """(S, n) exogenous input rates: the scenario's, or those given as
        {(node, app_id): rate}."""
        if rates is None:
            return self.r
        inj = np.zeros((len(self.keys), self.n))
        for (node, app_id), r in rates.items():     # nodes and applications not here are skipped
            if node in self.index and (s := self.stage_index.get((app_id, 0))) is not None:
                inj[s, self.index[node]] = r
        return inj

    def totals(self, fe, g):
        """Link bits F per edge and CPU workloads G per node of (S, E) link
        flows and (S, n) CPU flows, each added stage by stage. This is the
        one accumulation of F and G. Raises CapacityExceeded for CPU flow
        where the stage's task cannot run, final stages included."""
        F = (self.L[:, None] * fe).sum(axis=0)
        on = g > 0
        if (cannot := on & self.cannot_run).any():
            raise CapacityExceeded(f"stage {self.keys[np.argmax(cannot.any(axis=1))]} sends "
                                   "flow to a CPU that cannot run the task")
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
        zero_flow_tree gives them: each active row sends everything to its
        next node, and a tree's targets (-1) send it to their CPU."""
        X = np.zeros((len(succ), self.n + self.E))
        s, i = np.nonzero(self.active)
        self.point(X, s, i, succ[s, i])
        return X

    def peel(self, xe) -> "StageLevels":
        """The levels of the (S, E) edge fractions xe, X[:, edge_pos] of
        direction fractions X, cyclic stages included.

        The levels depend on xe only through its support: the last support
        peeled (its bytes, xe's shape being the scenario's) and its levels
        are kept, and a repeated support gets them back with xe's fractions
        read through `pos`."""
        support = (xe > 0).tobytes()
        if self._peeled is not None and self._peeled[0] == support:
            return self._peeled[1].reread(xe)
        levels = StageLevels(xe, self.src, self.dst, self.n, self.k)
        self._peeled = (support, levels)
        return levels

    def view(self, a, kind: str, fill=0.0) -> "DenseView":
        """Dense per-stage blocks of a stacked array: (n, n+1) blocks of an
        (S, n+E) "direction" array, (n, n) blocks of an (S, E) "edge" array
        or (n,) rows of an (S, n) "node" array, `fill` where the block has
        no direction or link."""
        return DenseView(self, a, kind, fill)

    def read(self, table, kind: str, what=None):
        """(X, faults) of a table {key: dense block} of `kind` (see view):
        its stacked array X and, in stage order, its faults as (s, i, j).
        Stage s's block is missing or misshaped where i < 0, and X[s] then
        reads 0. When `what` names what the table carries (strategies and
        flows), every nonzero entry off the layout is a fault too, node i's
        toward node j, which X drops. A view laid out here is its own array,
        without faults; any other table is read block by block."""
        if isinstance(table, DenseView) and self.same_as(table._comp):
            return table._a, []
        shape, flat = self.kinds[kind]
        rows, faults = [], []
        for s, key in enumerate(self.keys):
            block = table.get(key)
            if np.shape(block) != shape:
                faults.append((s, -1, -1))
                block = np.zeros(shape)
            rows.append(np.ravel(block)[flat])
            if what is not None:
                off = np.asarray(block) != 0
                off.ravel()[flat] = False
                faults += [(s, i, j - shape[1] + self.n) for i, j in zip(*np.nonzero(off))]
        return np.array(rows).reshape(len(self.keys), len(flat)), faults

    def pack(self, table, kind: str, what=None) -> np.ndarray:
        """The stacked array of a table (see read). Raises ValueError naming
        the stage of its first fault."""
        X, faults = self.read(table, kind, what)
        if not faults:
            return X
        s, i, j = faults[0]
        key = self.keys[s]
        if i >= 0:
            u, v = self.nodes[i], self.nodes[j]
            raise ValueError(f"stage {key}: node {u!r} sends {what} over link {(u, v)!r}, "
                             "which the scenario lacks")
        if key not in table:
            raise ValueError(f"stage {key} has no {kind} block")
        raise ValueError(f"stage {key} {kind} block has shape {np.shape(table[key])}, "
                         f"not {self.kinds[kind][0]}")


def compiled(scenario: Scenario) -> _Compiled:
    cache = scenario.__dict__.get("_compiled")
    if cache is None:
        cache = _Compiled(scenario)
        scenario.__dict__["_compiled"] = cache
    return cache


def share_compiled(scenario: Scenario, other: Scenario):
    """Give `other`, a copy of `scenario` with other input rates, the
    compiled scenario of `scenario` with its input rates replaced, when
    `scenario` is compiled and `other` keeps all its applications. Every
    other array, and the zero-flow trees, are shared."""
    comp = scenario.__dict__.get("_compiled")
    if comp is None or len(other.applications) != len(comp.apps):
        return
    twin = copy.copy(comp)
    twin.r = comp.inputs(other.input_rates)
    twin.apps = [_App(twin, app.id, app.K, app.dest, app.s0) for app in comp.apps]
    other.__dict__["_compiled"] = twin


def cheapest_to_go(comp: _Compiled, link_w, dist, succ, offer=None, fixed=None):
    """Cheapest costs to go over independent rows of the edge index, in
    place, by min-plus sweeps (Bellman-Ford).

    dist[r, v] becomes the cheapest cost from node v to a seed of row r: a
    link hop (v, u) costs link_w[r, e] for its edge e (nonnegative, inf if
    unusable; one row of link_w may serve all), and the step to v's CPU
    costs offer[r, v] all the way (nan or inf if none). Finite entries of
    `dist` on entry are the seeds, and entries flagged in the boolean
    `fixed` keep them. The CPU offers join the seeds, then Jacobi sweeps of
    dist = min(dist, row_min(cand)), cand = link_w + dist[dst] on each
    out-link, run until nothing changes. An improved label's `succ` is its
    next node, or -1 for the CPU; other entries keep what the caller put
    there.

    Tie rule: a label changes only on strict improvement, and only then
    does its successor change, to the first minimal direction of its
    segment (row_argmin: the CPU, then out-links by head node). That
    successor was labelled in an earlier sweep, so the successors form
    trees even where links cost zero.
    """
    free = None if fixed is None else ~fixed
    if offer is not None:
        take = offer < dist if free is None else (offer < dist) & free
        np.copyto(dist, offer, where=take)
        np.copyto(succ, -1, where=take)
    W = np.full((len(dist), comp.n + comp.E), np.inf)
    W[:, comp.edge_pos] = link_w
    flat = np.arange(len(dist))[:, None] * W.shape[1]
    while True:
        # CPU columns read node -1's label through toward, and stay inf
        cand = W + dist[:, comp.toward]
        col = comp.row_argmin(cand)
        m = cand.ravel()[col + flat]
        better = m < dist if free is None else (m < dist) & free
        if not better.any():
            return
        np.copyto(succ, comp.toward[col], where=better)
        np.copyto(dist, m, where=better)


class DenseView(Mapping):
    """{(app_id, k): dense block} over a stacked (S, ...) array, of one of
    the kinds of _Compiled.view.

    Each access builds a read-only snapshot of the stage's block, so an
    edit raises ValueError instead of changing nothing. _Compiled.read of a
    view laid out on its scenario is the stacked array itself.
    """

    def __init__(self, comp: _Compiled, a, kind: str, fill):
        self._comp, self._a, self._fill = comp, a, fill
        self._shape, self._flat = comp.kinds[kind]

    def __getitem__(self, key):
        block = np.full(self._shape, self._fill, dtype=self._a.dtype)
        block.ravel()[self._flat] = self._a[self._comp.stage_index[key]]
        block.flags.writeable = False
        return block

    def __iter__(self):
        return iter(self._comp.keys)

    def __len__(self):
        return len(self._comp.keys)


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
    for JSON. A strategy holds one form, never both. Reading it (the
    engine, validate_strategy, `row`, `to_jsonable`, detect_loops) goes
    through `_table` and leaves it as it is; only `rows`, which hands out
    blocks to edit, unpacks the array into dense blocks and drops it. The
    engine packs a dense strategy's rows on every use, so edits to `rows`
    always count. A strategy is evaluated only on a scenario with the same
    node tuple.
    """

    def __init__(self, nodes, rows):
        self.nodes = tuple(nodes)
        self._rows = rows
        self._view = None   # the direction array, as a view

    @classmethod
    def _stacked(cls, comp: _Compiled, X) -> "Strategy":
        phi = cls(comp.nodes, None)
        phi._view = comp.view(X, "direction")
        return phi

    @property
    def _table(self):
        """{key: (n, n+1) block}, without unpacking: the dense rows, or a
        view of the direction array."""
        return self._view if self._rows is None else self._rows

    @property
    def rows(self) -> dict:
        if self._rows is None:
            self._rows = {key: block.copy() for key, block in self._view.items()}
            self._view = None
        return self._rows

    def fractions(self, comp: _Compiled) -> np.ndarray:
        """The (S, n+E) direction fractions on `comp`. Do not edit them.
        Raises ValueError for a strategy on other nodes, with a block that
        is missing or not (n, n+1) or with mass on a link the scenario
        lacks."""
        if self.nodes != comp.nodes:
            raise ValueError(f"strategy for nodes {self.nodes!r} evaluated on a scenario "
                             f"with nodes {comp.nodes!r}")
        return comp.pack(self._table, "direction", "mass")

    @classmethod
    def zeros(cls, scenario: Scenario) -> "Strategy":
        comp = compiled(scenario)
        rows = {key: np.zeros((comp.n, comp.n + 1)) for key in comp.keys}
        return cls(comp.nodes, rows)

    def copy(self) -> "Strategy":
        if self._view is not None:
            return Strategy._stacked(self._view._comp, self._view._a.copy())
        return Strategy(self.nodes, {k: v.copy() for k, v in self._rows.items()})

    def row(self, node, app_id, k: int) -> dict:
        """Fraction row as a mapping {dest: fraction}, dest 'cpu' or a node id."""
        i = self.nodes.index(node)
        raw = self._table[(app_id, k)][i]
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
        table = self._table
        stages, rows = sorted(table), {}
        for app_id, k in stages:
            mat = table[(app_id, k)]
            for i, c in zip(*np.nonzero(mat)):
                entry = rows.setdefault(f"{i}/{app_id}/{k}", {})
                entry["cpu" if c == 0 else str(c - 1)] = mat[i, c]
        return {"nodes": list(self.nodes), "stages": [list(key) for key in stages], "rows": rows}

    @classmethod
    def from_jsonable(cls, data: dict) -> "Strategy":
        """The strategy of to_jsonable's dict. Raises ValueError for a row
        of a stage that is not listed or naming a node index outside [0, n)."""
        nodes = tuple(data["nodes"])
        n = len(nodes)
        rows = {(app_id, int(k)): np.zeros((n, n + 1)) for app_id, k in data["stages"]}

        for key, entry in data["rows"].items():
            # key layout: "<node_idx>/<app_id>/<k>"; app ids may contain '/'
            i_s, rest = key.split("/", 1)
            app_id, k_s = rest.rsplit("/", 1)
            i, mat = int(i_s), rows.get((app_id, int(k_s)))
            if mat is None or not all(0 <= j < n for j in [i, *map(int, entry.keys() - {"cpu"})]):
                raise ValueError(f"row {key!r} lies outside the stages listed or nodes [0, {n})")
            for dest, f in entry.items():
                mat[i, 0 if dest == "cpu" else 1 + int(dest)] = f
        return cls(nodes, rows)


# ---------------------------------------------------------------------------
# validation, loop detection and stage order
# ---------------------------------------------------------------------------

def validate_strategy(scenario: Scenario, phi: Strategy) -> list:
    """Check conservation row sums, support, and fraction ranges.

    Returns a list of violation dicts, stage by stage; an empty list means
    the strategy is valid. Nothing is raised. The blocks are read as the
    engine reads them (_Compiled.read): a missing or misshaped block and
    every nonzero fraction on a link the scenario lacks, which the engine
    refuses, are reported, and the other checks read the directions the
    engine evaluates.
    """
    comp = compiled(scenario)
    if phi.nodes != comp.nodes:
        return [{"error": f"strategy for nodes {phi.nodes!r}, scenario has {comp.nodes!r}"}]
    tol = 1e-9
    X, faults = comp.read(phi._table, "direction", "mass")
    outside = ~((X >= -tol) & (X <= 1 + tol))     # nan too
    sums = comp.row_sum(X)
    want = comp.active.astype(float)
    bad_sum = np.abs(sums - want) > 1e-6
    bad_cpu = (X[:, comp.seg] > tol) & comp.cannot_run
    out = []
    if not (faults or outside.any() or bad_sum.any() or bad_cpu.any()):
        return out
    for s, key in enumerate(comp.keys):
        lost = [(i, j) for f, i, j in faults if f == s]
        if (-1, -1) in lost:
            out.append({"stage": key, "error": "missing or misshaped row block"})
            continue
        for p in np.flatnonzero(outside[s]):
            out.append({"stage": key, "node": comp.nodes[comp.dnode[p]],
                        "error": "fraction outside [0, 1]", "value": float(X[s, p])})
        for i in np.flatnonzero(bad_sum[s]):
            out.append({"stage": key, "node": comp.nodes[i],
                        "error": f"row sums to {sums[s, i]:.9f}, expected {want[s, i]}"})
        out += [{"stage": key, "node": comp.nodes[i], "dest": comp.nodes[j],
                 "error": "fraction on absent link"} for i, j in lost]
        for i in np.flatnonzero(bad_cpu[s]):
            out.append({"stage": key, "node": comp.nodes[i],
                        "error": "CPU fraction at final stage" if comp.final[s]
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
    The support links, cyclic stages included, are listed by chain
    position and level of their source: `src` and `dst` hold their ends as
    s * n + i, `x` their fractions and `pos` their places s * E + e in xe.
    The links of one source keep their edge order there, which is their
    column order in its row (_Compiled.support_sum).
    """

    def __init__(self, xe, src, dst, n, group):
        S = len(xe)
        self.n, self.S = n, S
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
        # support edges in (chain position, level of their source) order
        key = group[s] * (n + 1) + level[gsrc]
        order = np.argsort(key, kind="stable")
        self.src, self.dst = gsrc[order], gdst[order]
        self.x = xe[s, e][order]
        self.pos = (s * xe.shape[1] + e)[order]
        self.cyclic = np.flatnonzero((self.level < 0).any(axis=1))
        if self.cyclic.size:
            return
        # cuts[k] bounds the edges of group k leaving levels 1, 2, ...; the
        # schedule holds per chain position its stages and, per nonempty
        # level in increasing order, (edges, their sources, their heads),
        # the last two views of src and dst
        steps = np.arange(1, depth + 2)
        groups = np.arange(group.max(initial=0) + 1)
        cuts = np.searchsorted(key[order], groups[:, None] * (n + 1) + steps[None, :])
        self.schedule = [(np.flatnonzero(group == k),
                          [(part, self.src[part], self.dst[part])
                           for part in map(slice, bounds[:-1], bounds[1:])
                           if part.stop > part.start])
                         for k, bounds in enumerate(cuts.tolist())]

    def reread(self, xe) -> "StageLevels":
        """These levels with the fractions of `xe`, which has the same
        support."""
        levels = object.__new__(StageLevels)
        levels.__dict__.update(self.__dict__)
        levels.x = xe.reshape(-1)[self.pos]
        return levels

    def solve(self, x, k, forward: bool):
        """Solve x = b + A x in place on the stages at chain position k.

        x is (S, n) and holds b on entry. A is each stage's link-fraction
        matrix P (the reverse marginal recursion x_i = b_i + sum_j P_ij x_j)
        or, with `forward`, its transpose (flow propagation). A position
        whose b is all zero solves to exact zeros and is skipped; otherwise
        every stage there is solved, its zero stages adding exact zeros.
        """
        rows, steps = self.schedule[k]
        if not np.count_nonzero(x[rows]):     # any(), at a third of its cost
            return
        xf, frac = x.reshape(-1), self.x
        if forward:
            for part, src, dst in reversed(steps):
                xf += np.bincount(dst, weights=xf[src] * frac[part], minlength=xf.size)
        else:
            for part, src, dst in steps:
                xf += np.bincount(src, weights=frac[part] * xf[dst], minlength=xf.size)

    def flags(self, improper) -> np.ndarray:
        """(S, n) flags: some support path of the stage from the node uses
        a link that the (S, E) edge mask `improper` marks."""
        flag = np.zeros(self.S * self.n, dtype=bool)
        hit_edge = improper.reshape(-1)[self.pos]
        # no improper link, no flag: no stage of a cold GP run on sw-queue
        # or Abilene has one, so the pass rarely runs there
        if hit_edge.any():
            for _, steps in self.schedule:
                for part, src, dst in steps:
                    flag[src[hit_edge[part] | flag[dst]]] = True
        return flag.reshape(self.S, self.n)


def stage_levels(comp: _Compiled, xe) -> StageLevels:
    """The levels of every stage of the edge fractions xe on `comp`, the
    columns X[:, comp.edge_pos] of direction fractions X.

    This is the one loop check: it raises LoopDetected naming the first
    stage, in stage order, whose support has a cycle. Flow propagation, the
    marginal recursion, hop metrics, strategy_from_flows and the blocked
    flags all solve along these levels.
    """
    levels = comp.peel(xe)
    if levels.cyclic.size:
        raise LoopDetected(f"stage {comp.keys[levels.cyclic[0]]} has a cyclic support")
    return levels


def marginal_sweep(comp: _Compiled, X, Dp, Cp, levels: StageLevels, settle=None) -> np.ndarray:
    """(S, n) marginal costs dT/dt of the direction fractions X on comp.

    Dp holds the links' marginal costs per edge, Cp the CPUs' per node, and
    `levels` are X's stage_levels. The recursion runs over chain positions
    in decreasing order, all applications' stage k together, each solved
    along its levels, sinks first, from dT/dt = 0 at the destination's
    final stage. The link terms sum over X's support (support_sum).
    `settle(k, lam)`, when given, runs once position k is solved and may
    change that position's rows of lam before the position below reads
    them.
    """
    # each position's rows start from their link terms: the solves above
    # them add exact zeros there
    lam = comp.support_sum(X, levels, Dp)
    c0 = X[:, comp.seg]
    for k, at in reversed(list(enumerate(comp.positions))):
        if at.mid.size:
            c = c0[at.mid]
            with np.errstate(invalid="ignore") if at.inf else contextlib.nullcontext():
                lam[at.mid] += np.where(c > 0, c * at.step(Cp, lam), 0.0)  # 0 * inf where c = 0
        levels.solve(lam, k, forward=False)
        if settle is not None:
            settle(k, lam)
    return lam


def detect_loops(phi: Strategy) -> dict:
    """One directed cycle among the positive-fraction links of each stage
    whose support has one: the peel's cyclic stages (StageLevels).

    Returns {(app_id, k): [cycle]}, the cycle in node labels; an empty dict
    means the strategy is loop-free. Cycles formed only by concatenating
    different stages are not reported. A node the peel leaves at level -1
    has a support link to another such node, or the peel would have
    reached it, so a walk along such links closes within the stage's nodes.
    """
    table = phi._table
    keys = list(table)
    if not keys:
        return {}
    n = len(phi.nodes)
    blocks = [table[key][:, 1:] for key in keys]
    src, dst = np.nonzero(np.logical_or.reduce([block > 0 for block in blocks]))
    xe = np.stack([block[src, dst] for block in blocks])
    levels = StageLevels(xe, src, dst, n, np.zeros(len(keys), dtype=int))
    out = {}
    for s in levels.cyclic:
        stuck = levels.level[s] < 0
        on = (xe[s] > 0) & stuck[src] & stuck[dst]
        nxt = dict(zip(src[on].tolist(), dst[on].tolist()))
        i, seen = int(np.argmax(stuck)), {}     # seen: the walk, node -> step
        while i not in seen:
            seen[i] = len(seen)
            i = nxt[i]
        out[keys[s]] = [[phi.nodes[j] for j in list(seen)[seen[i]:]]]
    return out


# ---------------------------------------------------------------------------
# flow evaluation
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FlowState:
    """Per-stage traffic and flows plus network totals for one strategy.

    The engine's arrays are stacked over the stage stack of `comp`:
    `traffic_stack` and `cpu_stack` (S, n) and `edge_flows` (S, E) in
    packets/sec, `edge_bits` (E,) the total bits/sec F per edge and
    `workload` (n,) the total workload G; `levels` are the stage_levels of
    the strategy. The dense views `traffic`, `cpu_flows` ({(app_id, k):
    (n,)}), `link_flows` ({(app_id, k): (n, n)}) and `link_bits` ((n, n)
    F_ij) are read-only; they are built on first access, and so are the
    marginal costs of the links and CPUs at these totals, `link_marginals`
    (E,) and `cpu_marginals` (n,), which the marginal tables share.
    """

    comp: _Compiled
    traffic_stack: np.ndarray
    cpu_stack: np.ndarray
    edge_flows: np.ndarray
    edge_bits: np.ndarray
    workload: np.ndarray
    total_cost: float
    levels: StageLevels

    @property
    def nodes(self) -> tuple:
        return self.comp.nodes

    @cached_property
    def traffic(self) -> DenseView:
        return self.comp.view(self.traffic_stack, "node")

    @cached_property
    def cpu_flows(self) -> DenseView:
        return self.comp.view(self.cpu_stack, "node")

    @cached_property
    def link_flows(self) -> DenseView:
        return self.comp.view(self.edge_flows, "edge")

    @cached_property
    def link_marginals(self) -> np.ndarray:
        """(E,) marginal cost of every link at its bits F."""
        return self.comp.links.deriv(self.edge_bits)

    @cached_property
    def cpu_marginals(self) -> np.ndarray:
        """(n,) marginal cost of every CPU at its workload G."""
        return self.comp.cpus.deriv(self.workload)

    @cached_property
    def link_bits(self) -> np.ndarray:
        F = np.zeros((self.comp.n, self.comp.n))
        F[self.comp.src, self.comp.dst] = self.edge_bits
        F.flags.writeable = False
        return F

    def t(self, node, app_id, k: int) -> float:
        return float(self.traffic[(app_id, k)][self.nodes.index(node)])

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
    X = phi.fractions(comp)
    xe = X[:, comp.edge_pos]
    levels = stage_levels(comp, xe)
    t = comp.inputs(rates).copy()
    for (node, stage), rate in (extra_injections or {}).items():
        if stage in comp.stage_index:
            t[comp.stage_index[stage], comp.index[node]] += rate
    c0 = X[:, comp.seg]
    for k, at in enumerate(comp.positions):
        if k:
            t[at.rows] += t[at.prev] * c0[at.prev]
        levels.solve(t, k, forward=True)
    if (t < 0).any():
        raise ValueError("negative traffic (bad injections?)")
    g = t * c0
    fe = t[:, comp.src] * xe
    F, G = comp.totals(fe, g)
    total = comp.cost_total(F, G)
    return FlowState(comp, t, g, fe, F, G, total, levels)


def max_conservation_residual(scenario: Scenario, state: FlowState,
                              rates: dict | None = None) -> float:
    """Largest absolute violation of per-(node, stage) flow conservation."""
    comp = compiled(scenario)
    inflow = comp.inflow(state.edge_flows) + comp.inputs(rates)
    later = comp.prev >= 0
    inflow[later] += state.cpu_stack[comp.prev[later]]
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
    dest = np.arange(comp.n) == comp.dest[:, None]
    capable = np.isfinite(comp.w)
    if at_destination:
        capable = np.where(capable[dest][:, None], dest, capable)
    targets = np.where(capable.any(axis=1)[:, None], capable, dest)
    return comp.trees(comp.zero_flow_tree(targets)[1])


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
    for s in np.flatnonzero(~comp.final):
        if not np.isfinite(comp.w[s]).any():
            app_id, k = comp.keys[s]
            raise NoFeasibleStrategy(f"no node can perform task {k + 1} of {app_id}")
    phi = Strategy._stacked(comp, tree_fractions(comp, mode == INIT_MODES[1]))
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
            last = str(err)     # not err: its traceback holds this frame, a cycle
    raise NoFeasibleStrategy(last)
