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

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, NoFeasibleStrategy, NotConverged, TooLarge
from .flows import Strategy, cheapest_to_go, compiled, marginal_sweep, stage_levels
from .network import Scenario, queue_prime, queue_room


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


def _totals(comp, fv: FlowVector):
    """Link bits per edge and CPU workloads per node of a flow vector."""
    return comp.totals(*fv.arrays(comp))


def flow_cost(scenario: Scenario, fv: FlowVector) -> float:
    comp = compiled(scenario)
    F, G = _totals(comp, fv)
    return comp.cost_total(F, G)


# ---------------------------------------------------------------------------
# extended paths
# ---------------------------------------------------------------------------
# A path is a tuple of steps: ("L", k, u, v) for a stage-k hop on link (u, v)
# and ("C", k, v) for running task k+1 at node v (consuming stage-k packets).
# Link marginals Dp are per edge, CPU marginals Cp per node.

def path_cost(comp, app, path, Dp, Cp) -> float:
    eid = comp.eid
    c = 0.0
    for step in path:
        if step[0] == "L":
            _, k, u, v = step
            c += app.L[k] * Dp[eid[u, v]]
        else:
            _, k, v = step
            c += app.w[v, k] * Cp[v]
    return float(c)


def _add_path(comp, fv: FlowVector, app, path, amount: float):
    fe, g = fv.arrays(comp)
    s0 = app.s0
    for step in path:
        if step[0] == "L":
            _, k, u, v = step
            fe[s0 + k, comp.eid[u, v]] += amount
        else:
            _, k, v = step
            g[s0 + k, v] += amount


def cheapest_extended_paths(comp, app, Dp, Cp, masks=None):
    """Cheapest cost-to-go over the stage-layered graph of one application,
    or of every application when `app` is None: one cheapest_to_go per
    chain position, the last first, over the stages there.

    Returns (dist, succ) with a row per stage, the application's or the
    stack's: dist[k, v] is the cheapest cost-to-go from (stage k, node v)
    to (stage K, destination), succ[k, v] = -1 for the CPU transition,
    j >= 0 for the link to node j, -2 at the terminal and -3 where the
    destination is out of reach. `masks` optionally maps application ids
    to their admissible (n, n) links (used by baselines that pin routing
    to fixed paths).
    """
    stages, base = (slice(None), 0) if app is None else (app.stages, app.s0)
    link_w = comp.L[stages, None] * Dp
    for a in comp.apps if app is None else [app]:
        if (masks or {}).get(a.id) is not None:
            link_w[a.s0 - base:a.s0 - base + a.K + 1, ~masks[a.id][comp.src, comp.dst]] = np.inf
    with np.errstate(invalid="ignore"):
        cpu_w = comp.w[stages] * Cp          # nan (unusable) where inf * 0
    terminal = ~comp.active[stages]
    dist, succ = np.where(terminal, 0.0, np.inf), np.where(terminal, -2, -3)
    # a final stage's CPU step is unusable, whatever row follows it
    nxt = np.minimum(np.arange(1, len(dist) + 1), len(dist) - 1)
    for j in reversed(range(len(comp.groups) if app is None else app.K + 1)):
        rows = comp.groups[j] if app is None else slice(j, j + 1)
        d, s = dist[rows], succ[rows]
        cheapest_to_go(comp, link_w[rows], d, s, cpu_w[rows] + dist[nxt[rows]])
        dist[rows], succ[rows] = d, s
    return dist, succ


def _extract_path(succ, src) -> tuple:
    steps = []
    k, v = 0, src
    while (s := succ[k, v]) != -2:
        if s == -3:
            raise NoFeasibleStrategy("no extended path reaches the destination")
        if s == -1:
            steps.append(("C", k, int(v)))
            k += 1
        else:
            steps.append(("L", k, int(v), int(s)))
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


def _zero_flows(comp) -> FlowVector:
    S = len(comp.keys)
    return FlowVector._on(comp, np.zeros((S, comp.E)), np.zeros((S, comp.n)))


def _blocks(comp):
    return [(app, int(s), float(app.r[s])) for app in comp.apps for s in np.flatnonzero(app.r > 0)]


def _rebuild(comp, registry) -> FlowVector:
    fv = _zero_flows(comp)
    for (app, src, rate), atoms in registry.items():
        for path, wgt in atoms.items():
            if wgt > 0:
                _add_path(comp, fv, app, path, wgt * rate)
    return fv


def _bisect(deriv, hi: float) -> float:
    """Exact line search on [0, hi] for a convex cost with nondecreasing
    derivative `deriv`: the step where the derivative crosses zero, by up to
    100 bisections, or an end point when it does not change sign. Once the
    midpoint rounds to an end the bracket can no longer move, so it stops."""
    if hi <= 0:
        return 0.0
    if deriv(0.0) >= 0:
        return 0.0
    if deriv(hi) <= 0:
        return hi
    lo, up = 0.0, hi
    for _ in range(100):
        mid = 0.5 * (lo + up)
        if mid == lo or mid == up:
            break
        if deriv(mid) <= 0:
            lo = mid
        else:
            up = mid
    return lo


def _exact_line_search(comp, F, G, dF, dG):
    """Step in [0, 1] along the direction (dF, dG), per edge and per node,
    that minimizes the total cost, kept inside the queue domains."""
    hi = min(1.0, comp.links.room(F, dF) * (1 - 1e-9), comp.cpus.room(G, dG) * (1 - 1e-9))

    def deriv(gamma):
        return float(np.sum(comp.links.deriv(F + gamma * dF) * dF)
                     + np.sum(comp.cpus.deriv(G + gamma * dG) * dG))

    return _bisect(deriv, hi)


def _delta_entries(comp, app, path_plus, path_minus):
    """Sparse bit/workload deltas, per edge and per node, of a unit-rate swap
    path_minus -> path_plus."""
    eid = comp.eid
    ef, eg = {}, {}
    for sign, path in ((1.0, path_plus), (-1.0, path_minus)):
        for step in path:
            if step[0] == "L":
                _, k, u, v = step
                e = int(eid[u, v])
                ef[e] = ef.get(e, 0.0) + sign * app.L[k]
            else:
                _, k, v = step
                eg[v] = eg.get(v, 0.0) + sign * app.w[v, k]
    return ({e: d for e, d in ef.items() if d != 0.0},
            {v: d for v, d in eg.items() if d != 0.0})


def _sparse_line_search(comp, F, G, ef, eg, hi_cap):
    """Exact line search touching only the entries in (ef, eg).

    The derivative is a scalar sum over the entries taken left to right,
    links first. Its rounding steers the oracle's trajectory, so it must not
    be vectorized: a numpy sum adds in another order and squares arrays by
    multiplication where scalars use pow.
    """
    links, cpus = comp.links, comp.cpus
    entries = [(links.que[e], float(links.param[e]), float(F[e]), float(d))
               for e, d in ef.items()]
    entries += [(cpus.que[v], float(cpus.param[v]), float(G[v]), float(d))
                for v, d in eg.items()]
    hi = hi_cap
    for que, p, x, d in entries:
        if d > 0 and que:
            hi = min(hi, queue_room(p, x, d) * (1 - 1e-9))

    def deriv(gamma):
        total = 0.0
        for que, p, x, d in entries:
            total += (queue_prime(p, x + gamma * d) if que else p) * d
        return total

    return _bisect(deriv, hi)


def _apply_swap(comp, app, fv, F, G, target, worst, amount, ef, eg):
    """Shift `amount` packets/sec from path `worst` to `target`, updating the
    flow vector and network totals in place; (ef, eg) are the swap's unit
    deltas from _delta_entries."""
    _add_path(comp, fv, app, target, amount)
    _add_path(comp, fv, app, worst, -amount)
    for e, d in ef.items():
        F[e] += amount * d
    for v, d in eg.items():
        G[v] += amount * d


def _greedy_start(comp, registry, masks=None):
    """Load the blocks of `registry`, which have no atoms yet, one at a time
    on currently-cheapest extended paths, splitting a block when a whole
    placement would blow a capacity."""
    links, cpus = comp.links, comp.cpus
    fv = _rebuild(comp, registry)
    F, G = _totals(comp, fv)
    for block in sorted(registry, key=lambda b: (b[0].id, b[1])):
        app, src, rate = block
        for chunks in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            # a trial loads copies of the flow arrays; a rejected one is dropped
            trial = dict(registry[block])
            part = rate / chunks
            fv_try, F_try, G_try = FlowVector._on(comp, *(a.copy() for a in fv.arrays(comp))), F, G
            for _ in range(chunks):
                # the totals are zero or passed the saturation check below
                _, succ = cheapest_extended_paths(comp, app, links.deriv(F_try),
                                                  cpus.deriv(G_try), masks)
                try:
                    path = _extract_path(succ, src)
                except NoFeasibleStrategy:
                    break
                _add_path(comp, fv_try, app, path, part)
                F_try, G_try = _totals(comp, fv_try)
                if links.saturated(F_try, 1e-12) or cpus.saturated(G_try, 1e-12):
                    break
                trial[path] = trial.get(path, 0.0) + 1.0 / chunks
            else:
                registry[block] = trial
                fv, F, G = fv_try, F_try, G_try
                break
        else:
            raise NoFeasibleStrategy(
                f"could not load source {comp.nodes[src]} of {app.id} within capacities")
    return fv


def solve_flow_domain(scenario: Scenario, tol: float = 1e-6, max_iters: int = 20000,
                      pairwise: bool = True, app_link_masks: dict | None = None,
                      strict: bool = True) -> OracleResult:
    """Conditional gradient with exact line search and per-source pairwise
    mass moves. Terminates when the duality gap is <= tol * max(1, T).

    `app_link_masks` optionally restricts each application's admissible links
    (boolean (n, n) per app id). Raises NoFeasibleStrategy when no finite-cost
    loading exists and NotConverged when the iteration budget runs out
    (strict=False returns the last iterate evaluated instead, with its cost
    and gap) or allows no iteration.
    """
    comp = compiled(scenario)
    registry = {block: {} for block in _blocks(comp)}
    if not registry:
        return OracleResult(0.0, _zero_flows(comp), 0.0, True, 0)
    if max_iters < 1:
        raise NotConverged(f"flow-domain solver: max_iters {max_iters} allows no iteration")
    fv = _greedy_start(comp, registry, app_link_masks)
    links = comp.links
    cost_trace, gap_trace = [], []
    for it in range(max_iters):
        if it and it % 25 == 0:
            fv = _rebuild(comp, registry)  # shed float drift from in-place moves
        F, G = _totals(comp, fv)
        T = comp.cost_total(F, G)
        Dp = links.deriv(F)
        Cp = comp.cpus.deriv(G)
        best = {}
        lower = 0.0
        inner = 0.0
        dist, succ = cheapest_extended_paths(comp, None, Dp, Cp, app_link_masks)
        for block, atoms in registry.items():
            app, src, rate = block
            best[block] = _extract_path(succ[app.stages], src)
            lower += rate * dist[app.s0, src]
            for path, wgt in atoms.items():
                if wgt > 0:
                    inner += wgt * rate * path_cost(comp, app, path, Dp, Cp)
        gap = inner - lower
        cost_trace.append(T)
        gap_trace.append(gap)
        if gap <= tol * max(1.0, abs(T)):
            return OracleResult(T, fv, gap, True, it, cost_trace, gap_trace)
        if it == max_iters - 1:
            break       # budget spent: no step that would go unevaluated

        # classic conditional-gradient step toward the all-best-paths vertex
        sF, sG = _totals(comp, _rebuild(comp, {block: {path: 1.0}
                                               for block, path in best.items()}))
        gamma = _exact_line_search(comp, F, G, sF - F, sG - G)
        if gamma > 0:
            for block, atoms in registry.items():
                scaled = {p: w * (1 - gamma) for p, w in atoms.items()}
                scaled[best[block]] = scaled.get(best[block], 0.0) + gamma
                registry[block] = {p: w for p, w in scaled.items() if w > 1e-15}
            fv = _rebuild(comp, registry)

        if pairwise:
            # per application: one marginal refresh and one cheapest-path
            # search, then shift mass from each of its sources' worst atoms
            # toward the target path; line searches stay exact on the live
            # totals, so every move is a descent step
            F, G = _totals(comp, fv)
            for app in comp.apps:
                Dp = links.deriv(F)
                Cp = comp.cpus.deriv(G)
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp, app_link_masks)
                for block in sorted((b for b in registry if b[0] is app), key=lambda b: b[1]):
                    _, src, rate = block
                    atoms = registry[block]
                    costs = {p: path_cost(comp, app, p, Dp, Cp) for p in atoms}
                    worst = max(costs, key=lambda p: (costs[p], p))
                    target = _extract_path(succ, src)
                    if target == worst or costs[worst] - dist[0, src] <= 0:
                        continue
                    ef, eg = _delta_entries(comp, app, target, worst)
                    move = _sparse_line_search(
                        comp, F, G,
                        {e: rate * d for e, d in ef.items()},
                        {v: rate * d for v, d in eg.items()},
                        hi_cap=atoms[worst])
                    if move <= 0:
                        continue
                    _apply_swap(comp, app, fv, F, G, target, worst, move * rate, ef, eg)
                    atoms[worst] = max(atoms[worst] - move, 0.0)
                    atoms[target] = atoms.get(target, 0.0) + move
                    registry[block] = {p: w for p, w in atoms.items() if w > 1e-15}
    if strict:
        raise NotConverged(f"flow-domain solver: gap {gap:.3e} after {max_iters} iterations")
    return OracleResult(T, fv, gap, False, max_iters, cost_trace, gap_trace)


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
        fv = _zero_flows(comp)
        for block, plist in paths.items():
            for p, amount in zip(plist, x[block]):
                if amount > 0:
                    _add_path(comp, fv, block[0], p, amount)
        return fv

    def cost_of(x):
        F, G = _totals(comp, flows_from(x))
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
        F, G = _totals(comp, flows_from(x))
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
    F, G = _totals(comp, fv)
    Dp = comp.links.deriv(F)
    Cp = comp.cpus.deriv(G)
    fe, g = fv.arrays(comp)
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
        group = comp.groups[k]
        fixed = pos[group]
        dist = np.where(fixed, lam[group], np.inf)
        choice = np.full(dist.shape, -9)
        with np.errstate(invalid="ignore"):
            cpu = comp.w[group] * Cp + lam[comp.next[group]]
        cheapest_to_go(comp, link_w[group], dist, choice, cpu, fixed)
        r, i = np.nonzero(~fixed)
        stuck = np.flatnonzero(choice[r, i] < -1)
        if stuck.size:
            raise NoFeasibleStrategy(f"cannot route zero-traffic node {comp.nodes[i[stuck[0]]]} "
                                     f"at stage {comp.keys[group[r[stuck[0]]]]}")
        comp.point(X, group[r], i, choice[r, i])
        lam[group[r], i] = dist[r, i]

    marginal_sweep(comp, X, Dp, Cp, stage_levels(comp, X[:, comp.edge_pos]), settle)
    return Strategy._stacked(comp, X)
