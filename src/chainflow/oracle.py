"""Flow-domain optimality oracle.

The joint forwarding/offloading problem is convex in the per-stage link and
CPU flows, so a conditional-gradient solver over that domain certifies the
global optimum that the fraction-domain algorithms aim for. Each iteration
linearizes the cost and finds, per application and source, the cheapest
*extended path*: a walk through K+1 stage layers whose intra-layer steps are
link hops and whose layer transitions are computation steps at the current
node. The duality gap of that linear subproblem is the optimality
certificate.

A separate brute-force enumerator solves tiny instances by listing all
extended paths and running projected gradient over the per-source path-flow
simplices; it shares no solver machinery with the conditional-gradient route.
"""

from __future__ import annotations

import math
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, NoFeasibleStrategy, NotConverged, TooLarge
from .flows import Strategy, cheapest_to_go, compiled, marginal_sweep, stage_levels
from .network import QUEUE, Scenario, queue_room


# ---------------------------------------------------------------------------
# flow vectors
# ---------------------------------------------------------------------------

class FlowVector:
    """Per-stage flows (packets/sec): `link_flows` maps each stage (app_id,
    k) to its (n, n) link flows and `cpu_flows` to its (n,) CPU flows.

    The oracle's flow vectors hold the (S, E) link and (S, n) CPU flows of
    the stage stack; the maps are views whose blocks are read-only
    snapshots built on access. Any other table, dense dicts or views laid
    out on another scenario, is read block by block on every engine use,
    as a Strategy's is (_Compiled.read)."""

    def __init__(self, nodes, link_flows, cpu_flows):
        self.nodes = tuple(nodes)
        self.link_flows, self.cpu_flows = link_flows, cpu_flows

    @classmethod
    def _on(cls, comp, fe, g) -> "FlowVector":
        return cls(comp.nodes, comp.view(fe, "edge"), comp.view(g, "node"))

    def arrays(self, comp):
        """(S, E) link flows and (S, n) CPU flows on the compiled scenario
        comp: the oracle's own arrays, which it edits in place. Raises
        ValueError for flows on other nodes, with a misshaped block or on a
        link the scenario lacks."""
        if self.nodes != comp.nodes:
            raise ValueError(f"flows for nodes {self.nodes!r}, scenario has {comp.nodes!r}")
        return comp.pack(self.link_flows, "edge", "flow"), comp.pack(self.cpu_flows, "node")


def _totals(comp, fe, g):
    """Link bits per edge and CPU workloads per node of (S, E) and (S, n) flows."""
    return comp.totals(fe, g)


def flow_cost(scenario: Scenario, fv: FlowVector) -> float:
    comp = compiled(scenario)
    F, G = _totals(comp, *fv.arrays(comp))
    return comp.cost_total(F, G)


# ---------------------------------------------------------------------------
# extended paths
# ---------------------------------------------------------------------------
# A path is a tuple of steps: ("L", k, u, v) for a stage-k hop on link (u, v)
# and ("C", k, v) for running task k+1 at node v (consuming stage-k packets),
# read below as (kind, k, v, *to) with to = [head of the link] or [].
# Link marginals Dp are per edge, CPU marginals Cp per node.

def path_cost(comp, app, path, Dp, Cp) -> float:
    c = 0.0
    for _, k, v, *to in path:
        c += app.L[k] * Dp[comp.eid[v, to[0]]] if to else app.w[v, k] * Cp[v]
    return float(c)


def _add_path(comp, fe, g, app, path, amount: float):
    for _, k, v, *to in path:
        if to:
            fe[app.s0 + k, comp.eid[v, to[0]]] += amount
        else:
            g[app.s0 + k, v] += amount


class _PathTable:
    """The extended paths of one solve, interned: `ids` maps (application's
    first stage, path) to an id, in first-seen order; row id of `cell` and
    `coef` holds its steps' flat cells on an (S, E+n+1) layout (links, CPUs,
    a spare column) and their packet sizes or workloads, padded with the
    spare cell of stage 0 and coefficient 0."""

    def __init__(self, comp):
        self.comp, self.ids, self.paths, self.width = comp, {}, [], comp.E + comp.n + 1
        self.cell, self.coef = np.full((64, 16), self.width - 1), np.zeros((64, 16))

    def id(self, app, path) -> int:
        pid = self.ids.setdefault((app.s0, path), len(self.paths))
        if pid == len(self.paths):      # first sight
            comp, (rows, cols) = self.comp, self.cell.shape
            if pid == rows or len(path) > cols:
                grow = ((0, rows * (pid == rows)), (0, max(0, len(path) - cols)))
                self.cell = np.pad(self.cell, grow, constant_values=self.width - 1)
                self.coef = np.pad(self.coef, grow)
            for j, (_, k, v, *to) in enumerate(path):
                col, coef = (comp.eid[v, to[0]], app.L[k]) if to else (comp.E + v, app.w[v, k])
                self.cell[pid, j], self.coef[pid, j] = (app.s0 + k) * self.width + col, coef
            self.paths.append(path)
        return pid

    def costs(self, ids, Dp, Cp):
        """path_cost of each path in ids: np.cumsum adds a row step by step."""
        D, ids = np.concatenate((Dp, Cp, [0.0])), np.array(ids, dtype=int)
        return np.cumsum(self.coef[ids] * D[self.cell[ids] % self.width], axis=1)[:, -1]


def cheapest_extended_paths(comp, app, Dp, Cp, barred=None, memo=None):
    """Cheapest cost-to-go over the stage-layered graph of one application,
    or of every application when `app` is None: one cheapest_to_go per
    chain position, the last first, over the stages there.

    Returns (dist, succ) with a row per stage, the application's or the
    stack's: dist[k, v] is the cheapest cost-to-go from (stage k, node v)
    to (stage K, destination), succ[k, v] = -1 for the CPU transition,
    j >= 0 for the link to node j, -2 at the terminal and -3 where the
    destination is out of reach. `barred` optionally flags the (S, E) links
    each stage may not use (barred_links; baselines pin routing to fixed
    paths with it).

    `memo`, a dict kept for one barred-link array, holds per `app` the rows
    of a chain position of final stages with packet size 0: whatever Dp and
    Cp, its links weigh 0 (inf where barred) and its CPU steps are unusable.
    The chain positions are built once per compile (_Compiled.chain).
    """
    stages = slice(None) if app is None else app.stages
    link_w = _link_weights(comp, stages, Dp, barred)
    dist, succ = np.full((len(link_w), comp.n), np.inf), np.full((len(link_w), comp.n), -3)
    terminal = (comp.final, comp.dest[comp.final]) if app is None else (app.K, app.dest)
    dist[terminal], succ[terminal] = 0.0, -2
    for at in comp.chain(app):
        rows = at.rows
        if at.keep and memo is not None and app in memo:
            dist[rows], succ[rows] = memo[app]
            continue
        d, s = dist[rows], succ[rows]
        cheapest_to_go(comp, link_w[rows], d, s, at.offer(Cp, dist))
        if not isinstance(rows, slice):     # d and s are copies, not views
            dist[rows], succ[rows] = d, s
        if at.keep and memo is not None:
            memo[app] = d.copy(), s.copy()
    return dist, succ


def barred_links(comp, masks):
    """(S, E) flags of the links a stage's application may not use under
    `masks`, which maps application ids to their admissible links, an (n, n)
    boolean array (else ValueError) or None; None where nothing is barred."""
    barred = np.zeros((len(comp.keys), comp.E), dtype=bool)
    for a in comp.apps:
        if (mask := (masks or {}).get(a.id)) is not None:
            if getattr(mask, "dtype", None) != bool or mask.shape != (comp.n, comp.n):
                raise ValueError(f"link mask of application {a.id!r} is not an "
                                 f"({comp.n}, {comp.n}) boolean array")
            barred[a.stages] = ~mask[comp.src, comp.dst]
    return barred if barred.any() else None


def _link_weights(comp, stages, Dp, barred):
    """The link weights of a search's `stages`: packet size times marginal,
    inf on the links `barred` (barred_links) bars."""
    link_w = comp.L[stages, None] * Dp
    if barred is not None:
        np.putmask(link_w, barred[stages], np.inf)
    return link_w


def _extract_path(succ, src) -> tuple:
    steps = []
    k, v = 0, int(src)
    while (s := succ.item(k, v)) != -2:
        if s == -3:
            raise NoFeasibleStrategy("no extended path reaches the destination")
        if s == -1:
            steps.append(("C", k, v))
            k += 1
        else:
            steps.append(("L", k, v, s))
            v = s
    return tuple(steps)


# ---------------------------------------------------------------------------
# conditional-gradient solver
# ---------------------------------------------------------------------------

@dataclass
class OracleResult:
    total_cost: float
    flows: FlowVector
    gap: float
    converged: bool
    iterations: int
    cost_trace: list = field(default_factory=list)
    gap_trace: list = field(default_factory=list)
    time_trace: list = field(default_factory=list)  # seconds since the last record (or start)


def _blocks(comp):
    return [(app, int(s), float(app.r[s])) for app in comp.apps for s in np.flatnonzero(app.r > 0)]


def _atoms(registry):
    """Ids and weight * rate of the registry's atoms, in order, where that is > 0."""
    ids = np.array([p for atoms in registry.values() for p in atoms], dtype=int)
    amount = np.array([w * r for (_, _, r), atoms in registry.items() for w in atoms.values()])
    return ids[amount > 0], amount[amount > 0]


def _inner(table, registry, Dp, Cp) -> float:
    """Sum over the atoms of weight * rate * path cost, added one by one."""
    ids, amount = _atoms(registry)
    return float(np.cumsum(np.append(0.0, amount * table.costs(ids, Dp, Cp)))[-1])


def _held_gap(registry, moving, costs, to_go) -> float:
    """The part of the duality gap that the blocks of `moving`, (block,
    target) pairs, hold: rate times the sum over the block's atoms of weight
    * (path cost, `costs` by id, - cheapest cost to go from its source)."""
    return sum(block[2] * sum(w * (costs[p] - to_go[block[1]]) for p, w in registry[block].items())
               for block, _ in moving)


def _rebuild(comp, registry, table):
    """(S, E) link and (S, n) CPU flows of the registry's atoms, ids of
    `table`. np.add.at adds in index order, so every cell sums and rounds
    as adding the atoms one by one with _add_path does."""
    ids, amount = _atoms(registry)
    flat = np.zeros((len(comp.keys), table.width))
    np.add.at(flat.reshape(-1), table.cell[ids].ravel(), np.repeat(amount, table.cell.shape[1]))
    return flat[:, :comp.E].copy(), flat[:, comp.E:-1].copy()


def _bisect(deriv, hi: float, newton=None) -> float:
    """Exact line search on [0, hi] for a convex cost with nondecreasing
    derivative `deriv`: the step where the derivative crosses zero, by up to
    100 bisections, or an end point when it does not change sign. Once the
    midpoint rounds to an end the bracket can no longer move, so it stops.

    `newton`, where given, returns deriv(gamma), the same float, with its
    own derivative. Newton steps then narrow a bracket [a, b] with
    deriv(a) <= 0 < deriv(b) first, and the bisections are replayed with
    deriv evaluated only strictly inside it: outside, deriv's monotonicity
    gives the sign, so the step is the same."""
    if hi <= 0:
        return 0.0
    d0, c0 = (deriv(0.0), None) if newton is None else newton(0.0)
    if d0 >= 0:
        return 0.0
    if deriv(hi) <= 0:
        return hi
    a, b = (0.0, hi) if newton is None else _newton_bracket(newton, hi, d0, c0)
    lo, up = 0.0, hi
    for _ in range(100):
        mid = 0.5 * (lo + up)
        if mid == lo or mid == up:
            break
        if mid <= a or (mid < b and deriv(mid) <= 0):
            lo = mid
        else:
            up = mid
    return lo


def _newton_bracket(newton, hi: float, d: float, c: float):
    """[a, b] within [0, hi] with deriv(a) <= 0 < deriv(b), from deriv(0) =
    d < 0 < deriv(hi) and its derivative c at 0, by Newton steps (at least
    an ulp) kept inside the bracket, else to its midpoint while one end is
    still 0 or hi. A step that leaves the sign and at least half the value
    where it was doubles the next: on a plateau of rounding, Newton alone
    would crawl. It stops once the bracket is within 16 ulps; when both
    ends come from steps and the next step would leave it; or at the fifth
    derivative of exactly 0 inside it, as a plateau of zeros can be wide.
    From there the bisection does no worse."""
    a, b, x, grow, zeros = 0.0, hi, 0.0, 1.0, 0
    for _ in range(60):
        step = grow * max(abs(d) / c if c > 0 else math.inf, math.ulp(x))
        nxt = x + step if d <= 0 else x - step
        if not a < nxt < b:
            if 0.0 < a and b < hi:
                break
            nxt = 0.5 * (a + b)
        nd, c = newton(nxt)
        grow = 2.0 * grow if (nd <= 0) == (d <= 0) and abs(nd) >= 0.5 * abs(d) else 1.0
        if nd <= 0:
            a = nxt
        else:
            b = nxt
        x, d = nxt, nd
        zeros += d == 0 and b < hi
        if b - a <= 16 * math.ulp(b) or zeros > 4:
            break
    return a, b


def _exact_line_search(comp, F, G, dF, dG):
    """Step in [0, 1] along (dF, dG) that minimizes the total cost inside the
    queue domains: the zero of the kernels' sum(deriv(x + gamma dx) * dx),
    Newton-bracketed by its curvature, 2 c d^2 / (c - x - gamma d)^3 on queues."""
    moves = ((comp.links, F, dF), (comp.cpus, G, dG))
    hi = min(1.0, comp.links.room(F, dF) * (1 - 1e-9), comp.cpus.room(G, dG) * (1 - 1e-9))
    queues = [(cost.p_que, x[cost.que], dx[cost.que]) for cost, x, dx in moves]

    def deriv(gamma):
        return float(sum(np.sum(cost.deriv(x + gamma * dx) * dx) for cost, x, dx in moves))

    def newton(gamma):
        return deriv(gamma), sum(float(np.sum(2 * p * dq * dq / (p - (xq + gamma * dq)) ** 3))
                                 for p, xq, dq in queues)

    return _bisect(deriv, hi, newton)


def _deltas(comp, app, plus, minus):
    """Sparse bit/workload deltas, per edge and per node, of a unit-rate
    swap from extended path `minus` of application `app` to path `plus`,
    each in first-seen order, as Python scalars."""
    ef, eg = {}, {}
    for sign, path in ((1.0, plus), (-1.0, minus)):
        for _, k, v, *to in path:
            if to:
                e = comp.eid.item(v, to[0])
                ef[e] = ef.get(e, 0.0) + sign * app.L.item(k)
            else:
                eg[v] = eg.get(v, 0.0) + sign * app.w.item(v, k)
    return ({e: d for e, d in ef.items() if d != 0.0},
            {v: d for v, d in eg.items() if d != 0.0})


def _sparse_line_search(comp, F, G, ef, eg, hi_cap):
    """Exact line search touching only the entries in (ef, eg).

    The derivative is a scalar sum over the entries taken left to right,
    links first. Its rounding steers the oracle's trajectory, so it must not
    be vectorized: a numpy sum adds in another order and squares arrays by
    multiplication where scalars use pow.
    """
    entries = [(cost.kind.item(i) == QUEUE, cost.param.item(i), x.item(i), float(d))
               for cost, x, delta in ((comp.links, F, ef), (comp.cpus, G, eg))
               for i, d in delta.items()]
    hi = min([hi_cap] + [queue_room(p, x, d) * (1 - 1e-9) for que, p, x, d in entries
                         if d > 0 and que])

    def deriv(gamma):
        total = 0.0
        for que, p, x, d in entries:
            total += (p / (p - (x + gamma * d)) ** 2 if que else p) * d   # queue_prime inline
        return total

    def newton(gamma):
        total = curv = 0.0
        for que, p, x, d in entries:
            if que:
                room = p - (x + gamma * d)
                total += p / room ** 2 * d      # as deriv adds it
                curv += 2 * p * d * d / room ** 3
            else:
                total += p * d
        return total, curv

    return _bisect(deriv, hi, newton)


def _apply_swap(comp, app, fe, g, F, G, plus, minus, amount, ef, eg):
    """Shift `amount` packets/sec from extended path `minus` of application
    `app` to path `plus`, adding the flows with _add_path and updating the
    network totals in place; (ef, eg) are the swap's unit deltas from _deltas."""
    _add_path(comp, fe, g, app, plus, amount)
    _add_path(comp, fe, g, app, minus, -amount)
    for e, d in ef.items():
        F[e] += amount * d
    for v, d in eg.items():
        G[v] += amount * d


class _Search:
    """One application's cheapest extended path search at loads (F, G), and
    when a walk of its `succ` is what a fresh search would give.

    Loads only raise marginals. A walk whose weighted elements (link steps
    at stages of packet size > 0, CPU steps) keep their marginals, as
    Linear costs and Queue loads that did not move do, keeps its cost,
    which was the cheapest, while every other walk costs at least what it
    did. So the walk stays cheapest, its labels stay, and every other
    candidate of its nodes costs at least what it did. Where each of its
    link steps was the unique cheapest candidate of its node (`unique`), a
    fresh search takes the same steps: the tie rule of cheapest_to_go has
    nothing to choose, and a CPU step is taken whenever no link is strictly
    cheaper. A zero-size final position's rows do not depend on the
    marginals at all. Marginals that fall, as a rolled-back trial's do,
    void the argument."""

    def __init__(self, comp, app, barred, F, G, memo):
        self.comp, self.app, self.F, self.G = comp, app, F.copy(), G.copy()
        Dp = comp.links.deriv(F)
        dist, self.succ = cheapest_extended_paths(comp, app, Dp, comp.cpus.deriv(G), barred, memo)
        W = np.full((len(dist), comp.n + comp.E), np.inf)
        W[:, comp.edge_pos] = _link_weights(comp, app.stages, Dp, barred)
        # cheapest_to_go's candidates at its labels, and how many reach the label
        ties = comp.row_sum((W + dist[:, comp.toward] == dist[:, comp.dnode]).astype(int))
        self.unique = ties == 1
        self.unique[app.K] |= comp.chain(app)[0].keep

    def walk(self, app, src, F, G):
        """The path from node src that a fresh search at loads (F, G) would
        give, when it is known to be this search's; else None."""
        if app is not self.app:
            return None
        try:
            path = _extract_path(self.succ, src)
        except NoFeasibleStrategy:
            return None
        links, cpus = self.comp.links, self.comp.cpus
        for _, k, v, *to in path:
            if to:
                e = self.comp.eid[v, to[0]]
                if not self.unique[k, v] or (app.L[k] > 0 and F[e] != self.F[e]
                                             and links.kind[e] == QUEUE):
                    return None
            elif G[v] != self.G[v] and cpus.kind[v] == QUEUE:
                return None
        return path


def _greedy_start(comp, registry, table, barred=None, memo=None):
    """Load the blocks of `registry`, which have no atoms yet, one at a time
    on currently-cheapest extended paths, splitting a block when a whole
    placement would blow a capacity; an accepted trial's paths become ids
    of `table`. A trial loads the (S, E) link and (S, n) CPU flows returned
    and their totals in place; a rejected one puts back the columns it
    changed. A source or chunk takes the path of its application's last
    search when _Search.walk knows it for the path a fresh search would give."""
    links, cpus = comp.links, comp.cpus
    fe, g = np.zeros((len(comp.keys), comp.E)), np.zeros((len(comp.keys), comp.n))
    F, G = _totals(comp, fe, g)
    # the totals start at 0, below these limits, and a load moves only the
    # columns it touches, so only those can reach them (links.saturated)
    F_lim, G_lim = links.limit(1e-12), cpus.limit(1e-12)
    last = None
    for block in sorted(registry, key=lambda b: (b[0].id, b[1])):
        app, src, rate = block
        for chunks in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            trial, part, undo = {}, rate / chunks, []
            for _ in range(chunks):
                path = last and last.walk(app, src, F, G)
                if path is None:
                    # the totals are zero or passed the saturation check below
                    last = _Search(comp, app, barred, F, G, memo)
                    try:
                        path = _extract_path(last.succ, src)
                    except NoFeasibleStrategy:
                        break
                e = sorted({comp.eid[step[2], step[3]] for step in path if step[0] == "L"})
                v = sorted({step[2] for step in path if step[0] == "C"})
                undo.append((e, fe[:, e], F[e], v, g[:, v], G[v]))
                _add_path(comp, fe, g, app, path, part)
                # sequential column sums round as comp.totals' sums over all columns do
                F[e] = F_e = np.cumsum(comp.L[:, None] * fe[:, e], axis=0)[-1]
                g_v = g[:, v]
                if ((on := g_v > 0) & comp.cannot_run[:, v]).any():
                    comp.totals(fe, g)      # raises CapacityExceeded naming the stage
                G[v] = G_v = np.cumsum(np.where(on, comp.w[:, v], 0.0) * g_v, axis=0)[-1]
                if (F_e >= F_lim[e]).any() or (G_v >= G_lim[v]).any():
                    break
                trial[path] = trial.get(path, 0.0) + 1.0 / chunks
            else:
                registry[block] = {table.id(app, p): w for p, w in trial.items()}
                break
            last = None     # the rollback lowers marginals that it saw
            for e, fe_e, F_e, v, g_v, G_v in reversed(undo):
                fe[:, e], F[e], g[:, v], G[v] = fe_e, F_e, g_v, G_v
        else:
            raise NoFeasibleStrategy(
                f"could not load source {comp.nodes[src]} of {app.id} within capacities")
    return fe, g


def solve_flow_domain(scenario: Scenario, tol: float = 1e-6, max_iters: int = 20000,
                      pairwise: bool = True, app_link_masks: dict | None = None,
                      strict: bool = True) -> OracleResult:
    """Conditional gradient with exact line search and per-source pairwise
    mass moves. Terminates when the duality gap is <= tol * max(1, T).

    An iteration is one gap check, then a step toward the all-cheapest-paths
    vertex, then a pairwise pass. The pass visits each application in turn,
    searching its cheapest paths and moving each of its sources' worst atoms
    toward them. A visit that moved mass, where the application held more
    than its share tol * max(1, T) / A of the gap before the moves (A
    applications, T the cost at the gap check), queues the application again
    behind the rest, at most max_iters visits in one pass. `iterations`,
    `cost_trace`, `gap_trace` and `time_trace` of the result count gap
    checks, not visits.

    `app_link_masks` optionally restricts each application's admissible links
    (boolean (n, n) per app id). Raises NoFeasibleStrategy when no finite-cost
    loading exists and NotConverged when the iteration budget runs out
    (strict=False returns the last iterate evaluated instead, with its cost
    and gap) or allows no iteration.
    """
    clock = time.perf_counter()
    comp = compiled(scenario)
    registry = {block: {} for block in _blocks(comp)}
    if not registry:        # no application has a source, so there is no stage
        return OracleResult(0.0, FlowVector(comp.nodes, {}, {}), 0.0, True, 0)
    if max_iters < 1:
        raise NotConverged(f"flow-domain solver: max_iters {max_iters} allows no iteration")
    memo = {}       # cheapest_extended_paths' zero-size final positions, for this `barred`
    barred, table = barred_links(comp, app_link_masks), _PathTable(comp)
    fe, g = _greedy_start(comp, registry, table, barred, memo)
    blocks_of = {app: [] for app in comp.apps}     # the registry's blocks, fixed from here on
    for block in registry:                          # (by application, then source)
        blocks_of[block[0]].append(block)
    links, paths = comp.links, table.paths
    cost_trace, gap_trace, time_trace = traces = [], [], []
    for it in range(max_iters):
        if it and it % 25 == 0:
            fe, g = _rebuild(comp, registry, table)  # shed float drift from in-place moves
        F, G = _totals(comp, fe, g)
        T = comp.cost_total(F, G)
        Dp, Cp = links.deriv(F), comp.cpus.deriv(G)
        best, lower = {}, np.float64(0.0)
        dist, succ = cheapest_extended_paths(comp, None, Dp, Cp, barred, memo)
        for app, blocks in blocks_of.items():
            rows, to_go = succ[app.stages], dist[app.s0].tolist()
            for block in blocks:
                best[block] = table.id(app, _extract_path(rows, block[1]))
                lower += block[2] * to_go[block[1]]
        gap = _inner(table, registry, Dp, Cp) - lower
        cost_trace.append(T)
        gap_trace.append(gap)
        time_trace.append(-clock + (clock := time.perf_counter()))
        if gap <= tol * max(1.0, abs(T)):
            return OracleResult(T, FlowVector._on(comp, fe, g), gap, True, it, *traces)
        if it == max_iters - 1:
            break       # budget spent: no step that would go unevaluated

        # classic conditional-gradient step toward the all-best-paths vertex
        sF, sG = _totals(comp, *_rebuild(comp, {block: {path: 1.0}
                                                for block, path in best.items()}, table))
        gamma = _exact_line_search(comp, F, G, sF - F, sG - G)
        if gamma > 0:
            keep = 1 - gamma
            for block, atoms in registry.items():
                scaled = {p: w * keep for p, w in atoms.items()}
                scaled[best[block]] = scaled.get(best[block], 0.0) + gamma
                registry[block] = {p: w for p, w in scaled.items() if w > 1e-15}
            fe, g = _rebuild(comp, registry, table)

        if pairwise:
            # per visit of an application: one marginal refresh and one
            # cheapest-path search, then shift mass from each of its sources'
            # worst atoms toward the target path; line searches stay exact on
            # the live totals, so every move is a descent step. A visit that
            # moved, and found its application holding more than its share of
            # the gap, queues it again behind the others.
            F, G = _totals(comp, fe, g)
            Dp, share = None, tol * max(1.0, abs(T)) / len(blocks_of)
            queue, visits = deque(blocks_of.items()), dict.fromkeys(blocks_of, 0)
            while queue:
                app, blocks = queue.popleft()
                visits[app] += 1
                if Dp is None:      # the totals moved since the last refresh
                    Dp, Cp = links.deriv(F), comp.cpus.deriv(G)
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp, barred, memo)
                # a block whose one atom is its target has nothing to move
                moving = []
                for block in blocks:
                    target = table.id(app, _extract_path(succ, block[1]))
                    if len(registry[block]) > 1 or target not in registry[block]:
                        moving.append((block, target))
                if not moving:
                    continue
                to_go = dist[0].tolist()
                ids = [p for block, _ in moving for p in registry[block]]
                costs = dict(zip(ids, table.costs(ids, Dp, Cp).tolist()))
                held = _held_gap(registry, moving, costs, to_go)
                for block, target in moving:
                    _, src, rate = block
                    atoms = registry[block]
                    worst = max(atoms, key=lambda p: (costs[p], paths[p]))
                    if target == worst or costs[worst] - to_go[src] <= 0:
                        continue
                    plus, minus = paths[target], paths[worst]
                    ef, eg = _deltas(comp, app, plus, minus)
                    move = _sparse_line_search(
                        comp, F, G,
                        {e: rate * d for e, d in ef.items()},
                        {v: rate * d for v, d in eg.items()},
                        hi_cap=atoms[worst])
                    if move <= 0:
                        continue
                    _apply_swap(comp, app, fe, g, F, G, plus, minus, move * rate, ef, eg)
                    Dp = None
                    atoms[worst] = max(atoms[worst] - move, 0.0)
                    atoms[target] = atoms.get(target, 0.0) + move
                    registry[block] = {p: w for p, w in atoms.items() if w > 1e-15}
                if Dp is None and held > share and visits[app] < max_iters:   # the visit moved
                    queue.append((app, blocks))
    if strict:
        raise NotConverged(f"flow-domain solver: gap {gap:.3e} after {max_iters} iterations")
    return OracleResult(T, FlowVector._on(comp, fe, g), gap, False, max_iters, *traces)


# ---------------------------------------------------------------------------
# brute-force enumeration oracle
# ---------------------------------------------------------------------------

def enumerate_extended_paths(scenario: Scenario, app_id, src, max_paths: int = 200):
    """All extended paths from a source to the destination: stage segments are
    simple (no node revisited within a stage), computation steps restart the
    segment at the current node."""
    comp = compiled(scenario)
    app = next(a for a in comp.apps if a.id == app_id)
    src_i = comp.index[src] if src in comp.index else src
    out = []

    def walk(v, k, visited, steps):
        if len(out) > max_paths:
            raise TooLarge(f"more than {max_paths} extended paths")
        if k == app.K and v == app.dest:
            out.append(tuple(steps))
            return
        if k < app.K and np.isfinite(app.w[v, k]):
            steps.append(("C", k, v))
            walk(v, k + 1, {v}, steps)
            steps.pop()
        for u in np.flatnonzero(comp.adj[v]):
            u = int(u)
            if u in visited:
                continue
            steps.append(("L", k, v, u))
            visited.add(u)
            walk(u, k, visited, steps)
            visited.remove(u)
            steps.pop()

    walk(src_i, 0, {src_i}, [])
    return out


def _project_simplex(v: np.ndarray, total: float) -> np.ndarray:
    """Euclidean projection onto {x >= 0, sum x = total}."""
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - total
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    theta = css[cond][-1] / rho
    return np.maximum(v - theta, 0.0)


@dataclass
class BruteResult:
    total_cost: float
    allocation: dict   # (app_id, source node) -> {path: packets/sec}
    gap: float
    iterations: int


def enumerate_bruteforce(scenario: Scenario, tol: float = 1e-8,
                         max_paths: int = 200) -> BruteResult:
    """Exhaustive extended-path optimizer for tiny instances.

    Enumerates every extended path per (application, source) and minimizes the
    convex cost over the product of path-flow simplices by projected gradient
    with backtracking, for at most 50,000 iterations. Instances beyond ~6
    nodes / K > 2 / 2 apps or with more than `max_paths` paths are refused
    with TooLarge.
    """
    comp = compiled(scenario)
    if comp.n > 6 or len(comp.apps) > 2 or any(a.K > 2 for a in comp.apps):
        raise TooLarge("brute-force oracle limited to <= 6 nodes, <= 2 apps, K <= 2")
    blocks = _blocks(comp)
    paths = {}
    total_paths = 0
    for (app, src, rate) in blocks:
        plist = enumerate_extended_paths(scenario, app.id, comp.nodes[src], max_paths)
        if not plist:
            raise NoFeasibleStrategy("a source has no extended path to the destination")
        total_paths += len(plist)
        if total_paths > max_paths:
            raise TooLarge(f"more than {max_paths} extended paths in total")
        paths[(app, src, rate)] = plist

    def flows_from(x):
        fe, g = np.zeros((len(comp.keys), comp.E)), np.zeros((len(comp.keys), comp.n))
        for block, plist in paths.items():
            for p, amount in zip(plist, x[block]):
                if amount > 0:
                    _add_path(comp, fe, g, block[0], p, amount)
        return fe, g

    def cost_of(x):
        F, G = _totals(comp, *flows_from(x))
        return comp.cost_total(F, G)

    # start: everything on the zero-flow cheapest path, else spread uniformly
    x = {}
    Dp0 = comp.links.deriv(np.zeros(comp.E))
    Cp0 = comp.cpus.deriv(np.zeros(comp.n))
    for block, plist in paths.items():
        app, src, rate = block
        costs = [path_cost(comp, app, p, Dp0, Cp0) for p in plist]
        x[block] = np.zeros(len(plist))
        x[block][int(np.argmin(costs))] = rate
    try:
        T = cost_of(x)
    except CapacityExceeded:
        for block, plist in paths.items():
            x[block] = np.full(len(plist), block[2] / len(plist))
        try:
            T = cost_of(x)
        except CapacityExceeded as err:
            raise NoFeasibleStrategy(f"no feasible path loading found: {err}") from err

    eta = 0.1
    gap = np.inf
    for it in range(50000):
        F, G = _totals(comp, *flows_from(x))
        Dp = comp.links.deriv(F)
        Cp = comp.cpus.deriv(G)
        grad = {block: np.array([path_cost(comp, block[0], p, Dp, Cp)
                                 for p in paths[block]]) for block in paths}
        gap = sum(float(np.dot(grad[b], x[b]) - b[2] * np.min(grad[b])) for b in paths)
        if gap <= tol:
            break
        for _ in range(80):
            trial = {b: _project_simplex(x[b] - eta * grad[b], b[2]) for b in paths}
            try:
                T_trial = cost_of(trial)
            except CapacityExceeded:
                eta *= 0.5
                continue
            if T_trial <= T + 1e-15:
                x, T = trial, T_trial
                eta *= 1.25
                break
            eta *= 0.5
        else:
            break
    allocation = {}
    for block, plist in paths.items():
        app, src, rate = block
        allocation[(app.id, comp.nodes[src])] = {
            p: float(v) for p, v in zip(plist, x[block]) if v > 1e-14}
    return BruteResult(total_cost=T, allocation=allocation, gap=float(gap), iterations=it)


# ---------------------------------------------------------------------------
# flows -> strategy
# ---------------------------------------------------------------------------

_PRUNE = 1e-12   # strategy_from_flows counts flows and traffic below this as zero


def strategy_from_flows(scenario: Scenario, fv: FlowVector) -> Strategy:
    """Normalize a conserving flow vector into forwarding fractions.

    Positive-traffic rows are f/t; zero-traffic rows get a unit fraction on
    the direction with the smallest modified marginal evaluated at the flow
    solution, one cheapest_to_go per chain position with the positive-traffic
    rows fixed, whose tie rule keeps the filled rows free of loops. The
    result is meaningful to check_sufficient everywhere.
    """
    comp = compiled(scenario)
    fe, g = fv.arrays(comp)
    F, G = _totals(comp, fe, g)
    Dp = comp.links.deriv(F)
    Cp = comp.cpus.deriv(G)
    inj = comp.r.copy()
    inj[comp.prev >= 0] = g[comp.prev[comp.prev >= 0]]
    fe = np.where(fe < _PRUNE, 0.0, fe)
    g = np.where(g < _PRUNE, 0.0, g)
    t = comp.inflow(fe) + inj
    on = (t > _PRUNE) & comp.active
    X = np.zeros((len(comp.keys), comp.n + comp.E))
    X[:, comp.edge_pos] = np.divide(fe, t[:, comp.src], out=np.zeros_like(fe),
                                    where=on[:, comp.src])
    X[:, comp.seg] = np.divide(g, t, out=np.zeros_like(g), where=on)
    pos = on | ~comp.active
    sums = comp.row_sum(X)
    X /= np.where(pos & (sums > 0.5), sums, 1.0)[:, comp.dnode]
    link_w = comp.L[:, None] * Dp

    def settle(k, lam):
        # fill zero-traffic rows toward the cheapest settled value
        at = comp.positions[k]
        group, fixed = at.rows, pos[at.rows]
        dist = np.where(fixed, lam[group], np.inf)
        choice = np.full(dist.shape, -9)
        cheapest_to_go(comp, link_w[group], dist, choice, at.offer(Cp, lam), fixed)
        r, i = np.nonzero(~fixed)
        stuck = np.flatnonzero(choice[r, i] < -1)
        if stuck.size:
            raise NoFeasibleStrategy(f"cannot route zero-traffic node {comp.nodes[i[stuck[0]]]} "
                                     f"at stage {comp.keys[group[r[stuck[0]]]]}")
        comp.point(X, group[r], i, choice[r, i])
        lam[group[r], i] = dist[r, i]

    marginal_sweep(comp, X, Dp, Cp, stage_levels(comp, X[:, comp.edge_pos]), settle)
    return Strategy._stacked(comp, X)
