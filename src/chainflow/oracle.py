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

import heapq
from dataclasses import dataclass, field

import numpy as np

from .errors import (CapacityExceeded, LoopDetected, NoFeasibleStrategy, NotConverged,
                     TooLarge)
from .flows import Strategy, _support_is_acyclic, compiled, dag_sweep
from .network import Scenario, queue_prime, queue_room


# ---------------------------------------------------------------------------
# flow vectors
# ---------------------------------------------------------------------------

@dataclass
class FlowVector:
    """Per-stage link and CPU flows (packets/sec)."""

    nodes: tuple
    link_flows: dict   # (app_id, k) -> (n, n)
    cpu_flows: dict    # (app_id, k) -> (n,)

    def copy(self) -> "FlowVector":
        return FlowVector(self.nodes,
                          {k: v.copy() for k, v in self.link_flows.items()},
                          {k: v.copy() for k, v in self.cpu_flows.items()})


def _totals(comp, fv: FlowVector):
    F = np.zeros((comp.n, comp.n))
    G = np.zeros(comp.n)
    for app in comp.apps:
        for k in range(app.K + 1):
            F += app.L[k] * fv.link_flows[(app.id, k)]
            if k < app.K:
                g = fv.cpu_flows[(app.id, k)]
                on = g > 0
                G[on] += app.w[on, k] * g[on]
    return F, G


def flow_cost(scenario: Scenario, fv: FlowVector) -> float:
    comp = compiled(scenario)
    F, G = _totals(comp, fv)
    return comp.cost_total(F, G)


# ---------------------------------------------------------------------------
# extended paths
# ---------------------------------------------------------------------------
# A path is a tuple of steps: ("L", k, u, v) for a stage-k hop on link (u, v)
# and ("C", k, v) for running task k+1 at node v (consuming stage-k packets).

def path_cost(comp, app, path, Dp, Cp) -> float:
    c = 0.0
    for step in path:
        if step[0] == "L":
            _, k, u, v = step
            c += app.L[k] * Dp[u, v]
        else:
            _, k, v = step
            c += app.w[v, k] * Cp[v]
    return float(c)


def _add_path(fv: FlowVector, app_id, path, amount: float):
    for step in path:
        if step[0] == "L":
            _, k, u, v = step
            fv.link_flows[(app_id, k)][u, v] += amount
        else:
            _, k, v = step
            fv.cpu_flows[(app_id, k)][v] += amount


def cheapest_extended_paths(comp, app, Dp, Cp, adj=None):
    """Backward Dijkstra over the stage-layered graph.

    Returns (dist, succ) where dist[k, v] is the cheapest cost-to-go from
    (stage k, node v) to (stage K, destination), succ[k, v] = -1 for the CPU
    transition, j >= 0 for the link to node j, and -2 at the terminal.
    `adj` optionally restricts the admissible links (used by baselines that
    pin routing to fixed paths).
    """
    K, n = app.K, comp.n
    if adj is None:
        adj = comp.adj
    dist = np.full((K + 1, n), np.inf)
    succ = np.full((K + 1, n), -3, dtype=int)
    dist[K, app.dest] = 0.0
    succ[K, app.dest] = -2
    heap = [(0.0, K, app.dest)]
    settled = np.zeros((K + 1, n), dtype=bool)
    while heap:
        d, k, v = heapq.heappop(heap)
        if settled[k, v] or d > dist[k, v]:
            continue
        settled[k, v] = True
        # relax intra-layer link edges (u, v)
        for u in np.flatnonzero(adj[:, v]):
            cand = d + app.L[k] * Dp[u, v]
            if cand < dist[k, u] - 1e-18:
                dist[k, u] = cand
                succ[k, u] = v
                heapq.heappush(heap, (cand, k, int(u)))
        # relax the computation edge from layer k-1 at the same node
        if k > 0 and np.isfinite(app.w[v, k - 1]):
            cand = d + app.w[v, k - 1] * Cp[v]
            if cand < dist[k - 1, v] - 1e-18:
                dist[k - 1, v] = cand
                succ[k - 1, v] = -1
                heapq.heappush(heap, (cand, k - 1, int(v)))
    return dist, succ


def _extract_path(app, succ, src) -> tuple:
    steps = []
    k, v = 0, src
    while not (k == app.K and succ[k, v] == -2):
        s = succ[k, v]
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
    return FlowVector(comp.nodes,
                      {key: np.zeros((comp.n, comp.n)) for key in comp.stage_keys},
                      {key: np.zeros(comp.n) for key in comp.stage_keys})


def _blocks(comp):
    out = []
    for app in comp.apps:
        for s in np.flatnonzero(app.r > 0):
            out.append((app, int(s), float(app.r[s])))
    return out


def _rebuild(comp, registry) -> FlowVector:
    fv = _zero_flows(comp)
    for (app, src, rate), atoms in registry.items():
        for path, wgt in atoms.items():
            if wgt > 0:
                _add_path(fv, app.id, path, wgt * rate)
    return fv


def _bisect(deriv, hi: float) -> float:
    """Exact line search on [0, hi] for a convex cost with nondecreasing
    derivative `deriv`: the step where the derivative crosses zero, by 100
    bisections, or an end point when it does not change sign."""
    if hi <= 0:
        return 0.0
    if deriv(0.0) >= 0:
        return 0.0
    if deriv(hi) <= 0:
        return hi
    lo, up = 0.0, hi
    for _ in range(100):
        mid = 0.5 * (lo + up)
        if deriv(mid) <= 0:
            lo = mid
        else:
            up = mid
    return lo


def _exact_line_search(comp, F, G, dF, dG):
    """Step in [0, 1] along the dense direction (dF, dG) that minimizes the
    total cost, kept inside the queue domains."""
    hi = min(1.0, comp.links.room(F, dF) * (1 - 1e-9), comp.cpus.room(G, dG) * (1 - 1e-9))

    def deriv(gamma):
        Dp = comp.links.deriv(F + gamma * dF)
        Cp = comp.cpus.deriv(G + gamma * dG)
        return float(np.sum(Dp * dF) + np.sum(Cp * dG))

    return _bisect(deriv, hi)


def _delta_entries(app, path_plus, path_minus):
    """Sparse bit/workload deltas of a unit-rate swap path_minus -> path_plus."""
    ef, eg = {}, {}
    for sign, path in ((1.0, path_plus), (-1.0, path_minus)):
        for step in path:
            if step[0] == "L":
                _, k, u, v = step
                ef[(u, v)] = ef.get((u, v), 0.0) + sign * app.L[k]
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


def _apply_swap(comp, app, fv, F, G, target, worst, amount):
    """Shift `amount` packets/sec from path `worst` to `target`, updating the
    flow vector and network totals in place."""
    _add_path(fv, app.id, target, amount)
    _add_path(fv, app.id, worst, -amount)
    ef, eg = _delta_entries(app, target, worst)
    for (u, v), d in ef.items():
        F[u, v] += amount * d
    for v, d in eg.items():
        G[v] += amount * d


def _greedy_start(comp, registry, masks=None):
    """Load blocks one at a time on currently-cheapest extended paths,
    splitting a block when a whole placement would blow a capacity."""
    masks = masks or {}
    fv = _rebuild(comp, registry)
    for block in sorted(registry, key=lambda b: (b[0].id, b[1])):
        app, src, rate = block
        for chunks in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            trial = {p: w for p, w in registry[block].items()}
            ok = True
            part = rate / chunks
            fv_try = fv.copy()
            for _ in range(chunks):
                F, G = _totals(comp, fv_try)
                try:
                    Dp = comp.links.deriv(F)
                    Cp = comp.cpus.deriv(G)
                except CapacityExceeded:
                    ok = False
                    break
                _, succ = cheapest_extended_paths(comp, app, Dp, Cp,
                                                  adj=masks.get(app.id))
                try:
                    path = _extract_path(app, succ, src)
                except NoFeasibleStrategy:
                    ok = False
                    break
                _add_path(fv_try, app.id, path, part)
                F, G = _totals(comp, fv_try)
                if comp.links.saturated(F, 1e-12) or comp.cpus.saturated(G, 1e-12):
                    ok = False
                    break
                trial[path] = trial.get(path, 0.0) + 1.0 / chunks
            if ok:
                registry[block] = trial
                fv = fv_try
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
    (strict=False returns the best iterate instead).
    """
    comp = compiled(scenario)
    registry = {block: {} for block in _blocks(comp)}
    if not registry:
        return OracleResult(0.0, _zero_flows(comp), 0.0, True, 0)
    fv = _greedy_start(comp, registry, app_link_masks)
    cost_trace, gap_trace = [], []
    for it in range(max_iters):
        if it and it % 25 == 0:
            fv = _rebuild(comp, registry)  # shed float drift from in-place moves
        F, G = _totals(comp, fv)
        T = comp.cost_total(F, G)
        Dp = comp.links.deriv(F)
        Cp = comp.cpus.deriv(G)
        best = {}
        lower = 0.0
        inner = 0.0
        for app in comp.apps:
            dist, succ = cheapest_extended_paths(
                comp, app, Dp, Cp,
                adj=None if app_link_masks is None else app_link_masks.get(app.id))
            for block in registry:
                if block[0] is app:
                    path = _extract_path(app, succ, block[1])
                    best[block] = path
                    lower += block[2] * dist[0, block[1]]
        for block, atoms in registry.items():
            app, src, rate = block
            for path, wgt in atoms.items():
                if wgt > 0:
                    inner += wgt * rate * path_cost(comp, app, path, Dp, Cp)
        gap = inner - lower
        cost_trace.append(T)
        gap_trace.append(gap)
        if gap <= tol * max(1.0, abs(T)):
            return OracleResult(T, fv, gap, True, it, cost_trace, gap_trace)

        # classic conditional-gradient step toward the all-best-paths vertex
        sv = _zero_flows(comp)
        for block, path in best.items():
            _add_path(sv, block[0].id, path, block[2])
        sF, sG = _totals(comp, sv)
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
            by_app = {}
            for block in registry:
                by_app.setdefault(block[0].id, []).append(block)
            for app in comp.apps:
                blocks_here = sorted(by_app.get(app.id, []), key=lambda b: b[1])
                if not blocks_here:
                    continue
                Dp = comp.links.deriv(F)
                Cp = comp.cpus.deriv(G)
                dist, succ = cheapest_extended_paths(
                    comp, app, Dp, Cp,
                    adj=None if app_link_masks is None else app_link_masks.get(app.id))
                for block in blocks_here:
                    _, src, rate = block
                    atoms = registry[block]
                    if not atoms:
                        continue
                    costs = {p: path_cost(comp, app, p, Dp, Cp) for p in atoms}
                    worst = max(costs, key=lambda p: (costs[p], p))
                    target = _extract_path(app, succ, src)
                    if target == worst or costs[worst] - dist[0, src] <= 0:
                        continue
                    ef, eg = _delta_entries(app, target, worst)
                    move = _sparse_line_search(
                        comp, F, G,
                        {e: rate * d for e, d in ef.items()},
                        {v: rate * d for v, d in eg.items()},
                        hi_cap=atoms[worst])
                    if move <= 0:
                        continue
                    _apply_swap(comp, app, fv, F, G, target, worst, move * rate)
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
                         max_iters: int = 50000, max_paths: int = 200) -> BruteResult:
    """Exhaustive extended-path optimizer for tiny instances.

    Enumerates every extended path per (application, source) and minimizes the
    convex cost over the product of path-flow simplices by projected gradient
    with backtracking. Instances beyond ~6 nodes / K > 2 / 2 apps or with more
    than `max_paths` paths are refused with TooLarge.
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
                    _add_path(fv, block[0].id, p, amount)
        return fv

    def cost_of(x):
        F, G = _totals(comp, flows_from(x))
        return comp.cost_total(F, G)

    # start: everything on the zero-flow cheapest path, else spread uniformly
    x = {}
    Dp0 = comp.links.deriv(np.zeros((comp.n, comp.n)))
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
    for it in range(max_iters):
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

def strategy_from_flows(scenario: Scenario, fv: FlowVector,
                        prune: float = 1e-12) -> Strategy:
    """Normalize a conserving flow vector into forwarding fractions.

    Positive-traffic rows are f/t; zero-traffic rows get a unit fraction on
    the direction with the smallest modified marginal evaluated at the flow
    solution, settled in a Dijkstra order so the filled rows cannot form
    loops. The result is meaningful to check_sufficient everywhere.
    """
    comp = compiled(scenario)
    n = comp.n
    F, G = _totals(comp, fv)
    Dp = comp.links.deriv(F)
    Cp = comp.cpus.deriv(G)
    phi = Strategy.zeros(scenario)
    for app in comp.apps:
        lam_next = None
        for k in range(app.K, -1, -1):
            key = (app.id, k)
            f = fv.link_flows[key].copy()
            g = fv.cpu_flows[key].copy()
            f[f < prune] = 0.0
            g[g < prune] = 0.0
            inj = app.r if k == 0 else fv.cpu_flows[(app.id, k - 1)]
            t = f.sum(axis=0) + inj
            pos = t > prune
            mat = phi.rows[key]
            mat[pos, 1:] = f[pos] / t[pos, None]
            mat[pos, 0] = g[pos] / t[pos]
            if k == app.K:
                mat[app.dest, :] = 0.0
                pos[app.dest] = True
            sums = mat.sum(axis=1)
            fix = pos & (sums > 0.5)
            mat[fix] /= sums[fix, None]
            if not _support_is_acyclic(mat[:, 1:] > 0):
                raise LoopDetected(f"stage {key} flows around a cycle")
            # marginals on the positive part (zero rows contribute nothing yet)
            base = (mat[:, 1:] * (app.L[k] * Dp)).sum(axis=1)
            if k < app.K:
                on = mat[:, 0] > 0
                base[on] += mat[on, 0] * (app.w[on, k] * Cp[on] + lam_next[on])
            lam = dag_sweep(base, mat[:, 1:])
            # fill zero-traffic rows toward the cheapest settled value
            dist = np.where(pos, lam, np.inf)
            choice = np.full(n, -9, dtype=int)
            if k == app.K:
                dist[app.dest] = 0.0
            heap = [(float(dist[i]), int(i)) for i in np.flatnonzero(pos)]
            for i in np.flatnonzero(~pos):
                if k < app.K and np.isfinite(app.w[i, k]):
                    cand = app.w[i, k] * Cp[i] + lam_next[i]
                    if cand < dist[i]:
                        dist[i] = cand
                        choice[i] = -1  # CPU
                        heap.append((float(cand), int(i)))
            heapq.heapify(heap)
            settled = np.zeros(n, dtype=bool)
            while heap:
                d, j = heapq.heappop(heap)
                if settled[j] or d > dist[j]:
                    continue
                settled[j] = True
                for i in np.flatnonzero(comp.adj[:, j]):
                    if pos[i] or settled[i]:
                        continue
                    cand = d + app.L[k] * Dp[i, j]
                    if cand < dist[i]:
                        dist[i] = cand
                        choice[i] = j
                        heapq.heappush(heap, (float(cand), int(i)))
            for i in np.flatnonzero(~pos):
                if choice[i] == -1:
                    mat[i, 0] = 1.0
                elif choice[i] >= 0:
                    mat[i, 1 + choice[i]] = 1.0
                else:
                    raise NoFeasibleStrategy(
                        f"cannot route zero-traffic node {comp.nodes[i]} at stage {key}")
                lam[i] = dist[i]
            lam_next = lam
    return phi
