"""Distributed gradient projection on forwarding fractions.

Each slot, every (node, stage) row moves mass away from blocked and
higher-marginal directions onto its minimum-marginal ones:

- blocked destinations are zeroed outright,
- a direction with marginal gap e > 0 loses min(phi, alpha * e),
- the removed mass is split equally over the N minimal directions.

The update is synchronous (all rows move on the same slot's marginal tables),
keeps rows on their simplices, and preserves loop-freedom through the blocked
sets. The stepsize is always adaptive, so the cost trace is nonincreasing: a
slot that would raise the cost (or blow a capacity) is retried with alpha
halved, and alpha doubles after three accepted slots in a row. run_gp and the
congestion-control solver share that stepsize loop (_adaptive_descent).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityExceeded, LoopDetected, NoFeasibleStrategy
from .flows import (FlowState, Strategy, compiled, compute_flows, detect_loops,
                    feasible_start, tree_rows, validate_strategy, _successor_tree)
from .marginals import (BlockedSets, _active_rows, blocked_sets, modified_marginals,
                        traffic_marginals)
from .network import Scenario

_TIE_REL = 1e-11


@dataclass
class GpConfig:
    stepsize: float = 0.05          # initial fraction moved per unit marginal gap
    max_iters: int = 2000
    tol: float = 1e-6               # convergence: max positive-mass delta gap
    tol_mass: float = 1e-9
    # the stepsize always adapts: halved on a rejected slot, never below
    # min_stepsize_factor * stepsize (the run then stops), doubled after three
    # accepted slots, never above max_stepsize_factor * stepsize
    min_stepsize_factor: float = 2.0 ** -40
    max_stepsize_factor: float = 64.0
    row_filter: object = None       # optional (app_id, k) -> bool (rows to touch)
    on_iterate: object = None       # optional callback(slot, phi, state) per accepted slot

    def __post_init__(self):
        if self.stepsize <= 0 or self.tol <= 0:
            raise ValueError("stepsize and tol must be > 0")


@dataclass
class StepDiagnostics:
    gaps: dict           # (app_id, k) -> (n, n+1) marginal gaps e (inf = unavailable)
    n_min: dict          # (app_id, k) -> (n,) count of minimal directions
    transferred: dict    # (app_id, k) -> (n,) removed mass S_i
    blocked: BlockedSets


def sufficient_gap(comp, phi: Strategy, delta: dict, tol_mass: float,
                   row_filter=None) -> float:
    """Largest modified-marginal gap over positive-fraction directions; the
    convergence measure (0 at a point satisfying the sufficient condition)."""
    worst = 0.0
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            mat, d = phi.rows[key], delta[key]
            active = _active_rows(comp, app, k, row_filter)
            if not active.any():
                continue
            with np.errstate(invalid="ignore"):
                dmin = np.min(np.where(np.isfinite(d), d, np.inf), axis=1)
                gap = np.where(mat > tol_mass, d - dmin[:, None], 0.0)
            gap = gap[active]
            if gap.size:
                worst = max(worst, float(np.max(gap)))
    return worst


def gp_step(scenario: Scenario, phi: Strategy, config: GpConfig,
            state: FlowState | None = None, marginals: dict | None = None,
            delta: dict | None = None, blocked: BlockedSets | None = None):
    """One synchronous slot update. Returns (phi_next, StepDiagnostics)."""
    comp = compiled(scenario)
    if state is None:
        state = compute_flows(scenario, phi)
    if marginals is None:
        marginals = traffic_marginals(scenario, phi, state)
    if delta is None:
        delta = modified_marginals(scenario, state, marginals)
    if blocked is None:
        blocked = blocked_sets(scenario, phi, marginals)

    alpha = config.stepsize
    out = phi.copy()
    gaps, n_min, transferred = {}, {}, {}
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            mat = out.rows[key]
            d = delta[key]
            n = comp.n
            B = np.zeros((n, n + 1), dtype=bool)
            B[:, 1:] = blocked.masks[key]
            avail = ~B & np.isfinite(d)
            with np.errstate(invalid="ignore"):
                dmin = np.min(np.where(avail, d, np.inf), axis=1)
                rows = _active_rows(comp, app, k, config.row_filter) & np.isfinite(dmin)
                e = np.clip(d - dmin[:, None], 0.0, None)
                tie = _TIE_REL * np.maximum(1.0, np.abs(dmin))[:, None]
                minimal = avail & (e <= tie)
                shrink = ~B & ~minimal
                red = np.where(B, mat, 0.0) \
                    + np.where(shrink, np.minimum(mat, alpha * e), 0.0)
            red[~rows] = 0.0
            S = red.sum(axis=1)
            N = minimal.sum(axis=1)
            new = mat - red
            give = np.zeros(n)
            give[rows] = S[rows] / N[rows]
            new += minimal * give[:, None]
            sums = new.sum(axis=1)
            norm = rows & (sums > 0)
            new[norm] /= sums[norm, None]
            out.rows[key] = np.where(rows[:, None], new, mat)

            gaps[key] = np.where(avail | B, e, np.inf)
            n_min[key] = N
            transferred[key] = S
    return out, StepDiagnostics(gaps=gaps, n_min=n_min, transferred=transferred,
                                blocked=blocked)


def robust_start(scenario: Scenario) -> Strategy:
    """Feasible start: shortest-path inits first, then a capacity-aware
    greedy loading of cheapest extended paths for tightly loaded instances."""
    from .oracle import _blocks, _greedy_start, strategy_from_flows

    try:
        return feasible_start(scenario)
    except NoFeasibleStrategy:
        pass
    comp = compiled(scenario)
    registry = {block: {} for block in _blocks(comp)}
    fv = _greedy_start(comp, registry)
    try:
        phi = strategy_from_flows(scenario, fv)
        compute_flows(scenario, phi)
    except (CapacityExceeded, LoopDetected) as err:
        raise NoFeasibleStrategy(f"greedy start failed: {err}") from err
    return phi


@dataclass
class GpResult:
    phi: Strategy
    state: FlowState
    trace: list                       # total cost per slot (slot 0 = start)
    history: list = field(default_factory=list)  # dicts: iter, T, max_gap, stepsize
    iterations: int = 0               # accepted (productive) slots
    converged: bool = False
    final_gap: float = float("inf")

    @property
    def total_cost(self) -> float:
        return self.state.total_cost

    def write_trace_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "T", "max_gap", "stepsize"])
            for row in self.history:
                w.writerow([row["iter"], repr(row["T"]), repr(row["max_gap"]),
                            repr(row["stepsize"])])


def _adaptive_descent(start, config: GpConfig, slot, step):
    """The adaptive-stepsize loop shared by run_gp and run_gp_cc.

    An iterate is a tuple that starts with the strategy and its FlowState
    (what config.on_iterate receives); `start` is (iterate, cost). Pass it
    as a temporary, so that the start is freed once the descent moves on.
    Each slot, slot(point) returns (gap, tables) and the loop stops once
    gap <= config.tol. Otherwise step(point, tables, step_cfg) returns a
    candidate (iterate, cost) for the stepsize step_cfg.stepsize, or None
    when the candidate cannot be evaluated (capacity or loop). A candidate
    that does not raise the cost is accepted; else the slot is retried at
    half the stepsize, and a stepsize below its floor ends the run at the
    current iterate. Returns (point, trace, history, iterations, converged,
    gap).
    """
    (point, cost), start = start, None
    step_cfg = replace(config)
    alpha = config.stepsize
    alpha_floor = config.stepsize * config.min_stepsize_factor
    alpha_ceil = config.stepsize * config.max_stepsize_factor
    trace, history = [cost], []
    iterations, converged, streak = 0, False, 0
    gap = float("inf")
    if config.on_iterate is not None:
        config.on_iterate(0, point[0], point[1])
    for slot_index in range(config.max_iters):
        gap, tables = slot(point)
        history.append({"iter": slot_index, "T": cost, "max_gap": gap, "stepsize": alpha})
        if gap <= config.tol:
            converged = True
            break
        while True:
            step_cfg.stepsize = alpha
            cand = step(point, tables, step_cfg)
            if cand is not None and cand[1] <= cost + 1e-12 * max(1.0, abs(cost)):
                streak += 1
                if streak >= 3 and alpha < alpha_ceil:
                    alpha = min(alpha_ceil, 2 * alpha)
                    streak = 0
                break
            streak = 0
            alpha *= 0.5
            if alpha < alpha_floor:
                cand = None
                break
        if cand is None:
            break  # stepsize exhausted: keep current iterate
        point, cost = cand
        trace.append(cost)
        iterations += 1
        if config.on_iterate is not None:
            config.on_iterate(iterations, point[0], point[1])
    return point, trace, history, iterations, converged, gap


def _gp_start(scenario, phi0):
    """run_gp's validated start iterate and its cost."""
    phi = phi0.copy() if phi0 is not None else robust_start(scenario)
    problems = validate_strategy(scenario, phi)
    if problems:
        raise ValueError(f"initial strategy invalid: {problems[:3]}")
    state = compute_flows(scenario, phi)
    return (phi, state), state.total_cost


def run_gp(scenario: Scenario, phi0: Strategy | None = None,
           config: GpConfig | None = None) -> GpResult:
    """Iterate gp_step until the sufficient-condition gap falls below tol.

    Returns the best iterate with converged=False when the slot budget runs
    out. Slots whose evaluation fails (capacity) or raises the cost are
    retried at half the stepsize, so the trace is nonincreasing.
    """
    config = config or GpConfig()
    comp = compiled(scenario)

    def slot(point):
        phi, state = point
        marg = traffic_marginals(scenario, phi, state)
        delta = modified_marginals(scenario, state, marg)
        blocked = blocked_sets(scenario, phi, marg)
        gap = sufficient_gap(comp, phi, delta, config.tol_mass, config.row_filter)
        return gap, (marg, delta, blocked)

    def step(point, tables, step_cfg):
        phi, state = point
        cand, _ = gp_step(scenario, phi, step_cfg, state, *tables)
        try:
            cand_state = compute_flows(scenario, cand)
        except (CapacityExceeded, LoopDetected):
            return None
        return (cand, cand_state), cand_state.total_cost

    (phi, state), trace, history, iterations, converged, gap = _adaptive_descent(
        _gp_start(scenario, phi0), config, slot, step)
    return GpResult(phi=phi, state=state, trace=trace, history=history,
                    iterations=iterations, converged=converged, final_gap=gap)


# ---------------------------------------------------------------------------
# adaptation to input / topology changes
# ---------------------------------------------------------------------------

def _fresh_rows(comp, app, k):
    """Row block used where rows must be rebuilt from scratch: compute at
    capable nodes, else follow zero-flow shortest paths to the nearest
    capable node (to the destination at the final stage)."""
    metric = comp.zero_flow_link_metric()
    if k < app.K:
        capable = np.isfinite(app.w[:, k]) & comp.has_cpu
        if capable.any():
            _, succ = _successor_tree(comp, metric, capable)
            return tree_rows(comp, app, k, succ, compute_at=capable)
    targets = np.zeros(comp.n, dtype=bool)
    targets[app.dest] = True
    _, succ = _successor_tree(comp, metric, targets)
    return tree_rows(comp, app, k, succ)


def _repair_strategy(old_scenario, new_scenario, phi_prev):
    comp_old = compiled(old_scenario)
    comp_new = compiled(new_scenario)
    try:
        state_old = compute_flows(old_scenario, phi_prev)
        lam_old = traffic_marginals(old_scenario, phi_prev, state_old)
        delta_old = modified_marginals(old_scenario, state_old, lam_old)
    except (CapacityExceeded, LoopDetected) as err:
        raise NoFeasibleStrategy(f"previous strategy unusable: {err}") from err

    phi = Strategy.zeros(new_scenario)
    for app in comp_new.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            fresh = _fresh_rows(comp_new, app, k)
            mat = phi.rows[key]
            old_mat = phi_prev.rows.get(key)
            d_old = delta_old.get(key)
            for i, node in enumerate(comp_new.nodes):
                if k == app.K and i == app.dest:
                    continue
                oi = comp_old.index.get(node) if old_mat is not None else None
                if oi is None:
                    mat[i] = fresh[i]   # new node: fresh conservation-satisfying row
                    continue
                row = np.zeros(comp_new.n + 1)
                freed = 0.0
                keep_cpu = k < app.K and np.isfinite(app.w[i, k])
                if old_mat[oi, 0] > 0 and keep_cpu:
                    row[0] = old_mat[oi, 0]
                else:
                    freed += old_mat[oi, 0]
                for oj, onode in enumerate(comp_old.nodes):
                    frac = old_mat[oi, 1 + oj]
                    if frac <= 0:
                        continue
                    nj = comp_new.index.get(onode)
                    if nj is not None and comp_new.adj[i, nj]:
                        row[1 + nj] = frac
                    else:
                        freed += frac   # removed link or removed node
                if freed > 0:
                    # dump freed mass on the remaining direction with the
                    # smallest old modified marginal
                    best, best_val = None, np.inf
                    if keep_cpu and np.isfinite(d_old[oi, 0]):
                        best, best_val = 0, d_old[oi, 0]
                    for nj in np.flatnonzero(comp_new.adj[i]):
                        onj = comp_old.index.get(comp_new.nodes[nj])
                        val = d_old[oi, 1 + onj] if onj is not None else np.inf
                        if val < best_val:
                            best, best_val = 1 + nj, val
                    if best is None:
                        row[:] = fresh[i]
                    else:
                        row[best] += freed
                s = row.sum()
                if s > 0:
                    row /= s
                mat[i] = row
    # repairs can stitch kept rows into a cycle: rebuild offending stages
    loops = detect_loops(phi)
    for key in loops:
        app = next(a for a in comp_new.apps if a.id == key[0])
        phi.rows[key] = _fresh_rows(comp_new, app, key[1])
    return phi


def adapt(old_scenario: Scenario, new_scenario: Scenario, phi_prev: Strategy,
          config: GpConfig | None = None) -> GpResult:
    """Warm-started re-optimization after input-rate or topology changes.

    Removed links lose their fractions (mass goes to the remaining direction
    with the smallest previous modified marginal); new links start at zero;
    new nodes get fresh rows. Raises NoFeasibleStrategy when the repaired
    strategy has no finite cost.
    """
    phi0 = _repair_strategy(old_scenario, new_scenario, phi_prev)
    try:
        compute_flows(new_scenario, phi0)
    except (CapacityExceeded, LoopDetected) as err:
        raise NoFeasibleStrategy(f"repair could not restore finite cost: {err}") from err
    return run_gp(new_scenario, phi0, config)
