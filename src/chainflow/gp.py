"""Distributed gradient projection on forwarding fractions.

Each slot, every (node, stage) row moves mass away from its
higher-marginal directions onto its minimum-marginal ones:

- a direction with marginal gap e > 0 loses min(phi, alpha * e),
- the removed mass is split equally over the N minimal directions.

Only a direction that carries no mass is blocked, as in Gallager's (1977)
minimum-delay routing (Bertsekas & Gallager, Data Networks, sec. 5.7): it
receives none. Mass on a link that blocked_sets flags leaves it at the
stepsize rate, like mass on any other non-minimal direction.

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
from .flows import (FlowState, Strategy, compiled, compute_flows, feasible_start,
                    tree_fractions, validate_strategy)
from .marginals import DEFAULT_TOL, BlockedSets, excess, slot_tables
from .network import Scenario

_TIE_REL = 1e-11
# the stepsize always adapts: halved on a rejected slot, never below
# MIN_STEPSIZE_FACTOR * stepsize (the run then stops), doubled after three
# accepted slots, never above MAX_STEPSIZE_FACTOR * stepsize
MIN_STEPSIZE_FACTOR = 2.0 ** -40
MAX_STEPSIZE_FACTOR = 64.0


@dataclass
class GpConfig:
    stepsize: float = 0.05          # initial fraction moved per unit marginal gap
    max_iters: int = 2000
    tol: float = DEFAULT_TOL        # convergence: check_sufficient holds at tol
    row_filter: object = None       # optional (app_id, k) -> bool (rows to touch)
    on_iterate: object = None       # optional callback(slot, phi, state) per accepted slot

    def __post_init__(self):
        if self.stepsize <= 0 or self.tol <= 0:
            raise ValueError("stepsize and tol must be > 0")


def sufficient_gap(comp, phi: Strategy, delta, row_filter=None) -> float:
    """Largest excess of the modified marginals delta (marginals.excess) on
    the rows that row_filter accepts; the convergence measure. With every
    row accepted, gap <= tol is check_sufficient holding at tol."""
    e, _ = excess(comp.pack(delta, "direction"), phi.fractions(comp), comp.seg,
                  comp.row_mask(row_filter))
    return float(e.max(initial=0.0))


def gp_step(scenario: Scenario, phi: Strategy, config: GpConfig,
            state: FlowState | None = None, marginals: dict | None = None,
            delta=None, blocked: BlockedSets | None = None) -> Strategy:
    """One synchronous slot update. Returns the next strategy.

    Every row of every stage moves at once on the stage stack; row minima,
    sums and counts are reductions over the nodes' direction segments. The
    slot's tables are built from `state` (marginals.slot_tables) unless
    delta and blocked are both given.
    """
    comp = compiled(scenario)
    if delta is None or blocked is None:
        _, _, delta, blocked = slot_tables(scenario, phi, state)

    alpha = config.stepsize
    X = phi.fractions(comp)
    d = comp.pack(delta, "direction")
    B = np.zeros(X.shape, dtype=bool)
    B[:, comp.edge_pos] = comp.pack(blocked.masks, "edge")
    B &= X <= 0.0
    avail = ~B & np.isfinite(d)
    with np.errstate(invalid="ignore"):
        dmin = comp.row_min(np.where(avail, d, np.inf))
        rows = comp.row_mask(config.row_filter) & np.isfinite(dmin)
        e = np.clip(d - dmin[:, comp.dnode], 0.0, None)
        tie = (_TIE_REL * np.maximum(1.0, np.abs(dmin)))[:, comp.dnode]
        minimal = avail & (e <= tie)
        red = np.where(minimal, 0.0, np.minimum(X, alpha * e))
    on = rows[:, comp.dnode]
    red[~on] = 0.0
    give = np.zeros(rows.shape)
    give[rows] = comp.row_sum(red)[rows] / comp.row_sum(minimal.astype(int))[rows]
    new = X - red
    new += minimal * give[:, comp.dnode]
    sums = comp.row_sum(new)
    new /= np.where(rows & (sums > 0), sums, 1.0)[:, comp.dnode]
    return Strategy._stacked(comp, np.where(on, new, X))


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
    history: list = field(default_factory=list)  # dicts: iter, T, max_gap, stepsize, halvings
    iterations: int = 0               # accepted (productive) slots
    converged: bool = False
    final_gap: float = float("inf")

    @property
    def total_cost(self) -> float:
        return self.state.total_cost

    def write_trace_csv(self, path):
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["iter", "T", "max_gap", "stepsize", "halvings"])
            for row in self.history:
                w.writerow([row["iter"], repr(row["T"]), repr(row["max_gap"]),
                            repr(row["stepsize"]), row["halvings"]])


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
    current iterate. Each slot's history row counts its retries at half the
    stepsize as `halvings`. Returns (point, trace, history, iterations,
    converged, gap).
    """
    (point, cost), start = start, None
    step_cfg = replace(config)
    alpha = config.stepsize
    alpha_floor = config.stepsize * MIN_STEPSIZE_FACTOR
    alpha_ceil = config.stepsize * MAX_STEPSIZE_FACTOR
    trace, history = [cost], []
    iterations, converged, streak = 0, False, 0
    gap = float("inf")
    if config.on_iterate is not None:
        config.on_iterate(0, point[0], point[1])
    for slot_index in range(config.max_iters):
        gap, tables = slot(point)
        row = {"iter": slot_index, "T": cost, "max_gap": gap, "stepsize": alpha,
               "halvings": 0}
        history.append(row)
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
            row["halvings"] += 1
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
        _, marg, delta, blocked = slot_tables(scenario, phi, state)
        return sufficient_gap(comp, phi, delta, config.row_filter), (marg, delta, blocked)

    def step(point, tables, step_cfg):
        phi, state = point
        cand = gp_step(scenario, phi, step_cfg, state, *tables)
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

def _repair_strategy(old_scenario, new_scenario, phi_prev):
    """phi_prev carried over to the new scenario's stage stack.

    A row keeps its fractions on the directions that still exist; a CPU
    keeps its own only where it can still run the task. The freed mass goes
    to the first remaining direction, CPU first, with the smallest previous
    modified marginal, and the row is renormalized. New nodes and stages,
    and rows whose freed mass finds no such direction, get fresh rows
    (tree_fractions); stages that the repair leaves cyclic are rebuilt
    fresh.
    """
    old, new = compiled(old_scenario), compiled(new_scenario)
    try:
        d_old = old.pack(slot_tables(old_scenario, phi_prev, blocked=False)[2], "direction")
    except (CapacityExceeded, LoopDetected) as err:
        raise NoFeasibleStrategy(f"previous strategy unusable: {err}") from err
    X_old = phi_prev.fractions(old)

    # the old stage, node and direction behind each new one, -1 for none
    so = np.array([old.stage_index.get(key, -1) for key in new.keys], dtype=int)
    oi = np.array([old.index.get(v, -1) for v in new.nodes], dtype=int)
    op = np.full(new.n + new.E, -1)
    op[new.seg[oi >= 0]] = old.seg[oi[oi >= 0]]
    ou, ov = oi[new.src], oi[new.dst]
    oe = np.where((ou >= 0) & (ov >= 0), old.eid[ou, ov], -1)
    op[new.edge_pos[oe >= 0]] = old.edge_pos[oe[oe >= 0]]
    has = (so >= 0)[:, None] & (op >= 0)[None, :] & new.active[:, new.dnode]
    has[:, new.seg] &= np.isfinite(new.w)
    X = np.where(has, X_old[so][:, op], 0.0)
    marginal = np.where(has, d_old[so][:, op], np.inf)

    # mass on old directions that were not carried over goes to the first
    # direction, in segment order, with the smallest old modified marginal
    carried = np.zeros((len(new.keys), X_old.shape[1]), dtype=bool)
    s, p = np.nonzero(has)
    carried[s, op[p]] = True
    freed = old.row_sum(np.where(carried, 0.0, X_old[so]))[:, oi]
    lo = new.row_min(marginal)
    moved = (freed > 0) & np.isfinite(lo)
    first = np.where(marginal == lo[:, new.dnode], np.arange(new.n + new.E), new.n + new.E)
    s, i = np.nonzero(moved)
    X[s, np.minimum.reduceat(first, new.seg, axis=1)[s, i]] += freed[s, i]
    sums = new.row_sum(X)
    X /= np.where(sums > 0, sums, 1.0)[:, new.dnode]

    renew = ((so < 0)[:, None] | (oi < 0)[None, :] | (freed > 0) & ~moved) & new.active
    if renew.any():
        X = np.where(renew[:, new.dnode], tree_fractions(new), X)
    cyclic = new.peel(X).cyclic
    if cyclic.size:
        X[cyclic] = tree_fractions(new)[cyclic]
    return Strategy._stacked(new, X)


def adapt(old_scenario: Scenario, new_scenario: Scenario, phi_prev: Strategy,
          config: GpConfig | None = None) -> GpResult:
    """Warm-started re-optimization after input-rate or topology changes.

    Removed links, and CPUs that can no longer run a task, lose their
    fractions (mass goes to the remaining direction with the smallest
    previous modified marginal); new links start at zero; new nodes get
    fresh rows. Raises NoFeasibleStrategy when the repaired strategy has no
    finite cost.
    """
    phi0 = _repair_strategy(old_scenario, new_scenario, phi_prev)
    try:
        # run_gp evaluates the start; its descent catches these per candidate
        return run_gp(new_scenario, phi0, config)
    except (CapacityExceeded, LoopDetected) as err:
        raise NoFeasibleStrategy(f"repair could not restore finite cost: {err}") from err
