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
slot that would raise the cost (or blow a capacity) is retried at a smaller
alpha. Each candidate comes with its slope, the first-order cost change
sum t_i * delta_ij * (phi'_ij - phi_ij) of its move (Gallager's
dT/dphi_ij = t_i * delta_ij). Where that slope is clearly negative and the
measured change lies above it, the quadratic through both gives the next
stepsize: a rejected candidate is retried at alpha * clip(s*, 0.1, 0.5) and
an accepted one starts the next slot at alpha * clip(s*, 0.5, 2). Otherwise
alpha is halved on a rejection and doubled after three accepted slots in a
row. run_gp and the congestion-control solver share that stepsize loop
(_adaptive_descent). What a slot's update does not owe to alpha is one
UpdatePlan, which its candidate stepsizes share.

A slot works on the live stack. At a final stage of packet size 0
(_Compiled.inert) results cost nothing to forward: the marginals are 0 on
every link and inf at the CPU, the gap is 0 and no row moves. So a run's
slots build their modified marginals, gap and plan on the stages of
_Compiled.slot_stages alone, decided once from the start strategy, and
give the same bits as on the whole stack.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import CapacityExceeded, LoopDetected, NoFeasibleStrategy
from .flows import (FlowState, Strategy, compiled, compute_flows, feasible_start,
                    tree_fractions, validate_strategy)
from .marginals import (DEFAULT_TOL, DEFAULT_TOL_MASS, BlockedSets, direction_marginals,
                        slot_tables)
from .network import Scenario

_TIE_REL = 1e-11
# the stepsize always adapts (_adaptive_descent): it stays within
# [MIN_STEPSIZE_FACTOR, MAX_STEPSIZE_FACTOR] * stepsize, and a retry that
# would cut it below the floor ends the run at the current iterate
MIN_STEPSIZE_FACTOR = 2.0 ** -40
MAX_STEPSIZE_FACTOR = 64.0


@dataclass
class GpConfig:
    stepsize: float = 0.05          # initial fraction moved per unit marginal gap
    max_iters: int = 2000
    tol: float = DEFAULT_TOL        # convergence: check_sufficient holds at tol
    on_iterate: object = None       # optional callback(slot, phi, state) per accepted slot

    def __post_init__(self):
        if self.stepsize <= 0 or self.tol <= 0:
            raise ValueError("stepsize and tol must be > 0")


def sufficient_gap(comp, phi: Strategy, delta, stages=None) -> float:
    """Largest excess (marginals.excess) of the modified marginals delta on
    the active rows: gap <= tol is check_sufficient holding at tol. Given
    `stages` (_Compiled.slot_stages), delta holds the rows of those stages
    alone (modified_marginals); an inert stage left out has excess 0.

    The gap is taken by rows: a row's largest d on the directions whose
    fraction exceeds DEFAULT_TOL_MASS less its smallest d. Rounding is
    monotone, so fl(max_j d_j - lo) is the largest fl(d_j - lo), and the
    gap is excess's largest entry bit for bit."""
    if stages is None:
        stages, delta = comp.every_stage(), comp.pack(delta, "direction")
    X = phi.fractions(comp).take(stages.index, 0)
    hi = comp.row_max(np.where(X > DEFAULT_TOL_MASS, delta, -np.inf))
    gap = (hi - comp.row_min(delta))[stages.active]
    return float(np.maximum.reduce(gap, initial=0.0))


class UpdatePlan:
    """The stepsize-independent half of one slot update.

    Built once per slot from the strategy's fractions X, the modified
    marginals d of the stages `stages` and the (S, E) link flags of its
    blocked sets, on the rows of those stages: blocked directions (flagged
    and massless), each row's smallest available marginal, each
    direction's gap e above it, the minimal directions (within the tie
    tolerance) and the rows that move. A row with no mass off its minimal
    directions loses nothing and gains nothing, so the update only
    renormalizes it, which leaves it as it is when it sums to exactly 1.
    The plan keeps the other rows, in (S, n) order: those with mass on a
    non-minimal direction and those whose sum is not exactly 1. It holds
    every column of their segments, one span per row (`Segments.spans`),
    so that its row sums round as row_sum's on whole rows, and `apply`
    moves just these entries of X for a stepsize.
    """

    def __init__(self, comp, X, d, flagged, stages):
        self.X = X
        X, flagged = X.take(stages.index, 0), flagged.take(stages.index, 0)
        B = np.zeros(X.shape, dtype=bool)
        B[:, comp.edge_pos] = flagged
        B &= X <= 0.0
        avail = ~B & np.isfinite(d)
        with np.errstate(invalid="ignore"):
            dmin = comp.row_min(np.where(avail, d, np.inf))
            gap = d - dmin[:, comp.dnode]
            tie = (_TIE_REL * np.maximum(1.0, np.abs(dmin)))[:, comp.dnode]
            minimal = avail & (gap <= tie)
        moves = (X != 0.0) & ~minimal
        # a moving entry makes its row's sum nan, which is not 1 either
        keep = comp.row_sum(np.where(moves, np.nan, X)) != 1.0
        keep &= stages.active & np.isfinite(dmin)
        k, i = keep.nonzero()
        at, self.starts, self.width = comp.spans(k, i)   # on the rows of `stages`
        s = stages.index.take(k)
        self.rows = s * comp.n + i      # each kept row's index on (S, n)
        self.flat = at + ((s - k) * comp.size).repeat(self.width)
        self.x, self.d = X.take(at), d.take(at)
        self.minimal, self.moves = minimal.take(at), moves.take(at)
        self.e = np.where(self.moves, np.maximum(gap.take(at), 0.0), 0.0)
        self.count = np.add.reduceat(self.minimal, self.starts, dtype=int)

    def row_sums(self, v) -> np.ndarray:
        """The row sums of the values v on the plan's entries, one per kept
        row, added as row_sum adds whole rows."""
        return np.add.reduceat(v, self.starts)

    def apply(self, alpha: float) -> np.ndarray:
        """The next fractions at stepsize alpha: each entry with gap e loses
        min(x, alpha * e), its row's minimal entries share what the row lost
        equally, and the row is renormalized."""
        red = np.where(self.moves, np.minimum(self.x, alpha * self.e), 0.0)
        new = self.x - red
        give = (self.row_sums(red) / self.count).repeat(self.width)
        np.add(new, give, out=new, where=self.minimal)
        total = self.row_sums(new)
        new /= np.where(total > 0, total, 1.0).repeat(self.width)
        out = self.X.copy()
        out.put(self.flat, new)
        return out

    def slope(self, out, traffic) -> float:
        """The first-order cost change of moving to the fractions `out` (an
        `apply` result): sum of t_i * d_ij * (out_ij - x_ij), Gallager's
        dT/dphi_ij = t_i * d_ij, with t the (S, n) traffic of the plan's
        strategy. Entries that did not change are left out, so no 0 * inf
        arises; a moved entry with an infinite marginal gives a slope that
        is not finite."""
        dx = out.take(self.flat) - self.x
        prod = np.zeros_like(dx)
        np.multiply(self.d, dx, out=prod, where=dx != 0.0)
        return float(traffic.take(self.rows) @ self.row_sums(prod))


def update_plan(comp, phi: Strategy, delta, blocked: BlockedSets, stages=None) -> UpdatePlan:
    """The UpdatePlan of phi's slot on the tables delta and blocked, kept on
    `blocked` with the arrays it was built from: every candidate stepsize of
    a slot shares one, and an edited table or another strategy gets a new
    one. Given `stages`, delta holds the rows of those stages alone
    (modified_marginals) and the plan covers just them."""
    if stages is None:
        stages, delta = comp.every_stage(), comp.pack(delta, "direction")
    key = (phi.fractions(comp), delta, comp.pack(blocked.masks, "edge"))
    memo = blocked._plan
    if memo is not None and all(a is b for a, b in zip(memo[0], key)):
        return memo[1]
    plan = UpdatePlan(comp, *key, stages)
    blocked._plan = (key, plan)
    return plan


def gp_step(scenario: Scenario, phi: Strategy, config: GpConfig,
            state: FlowState | None = None, delta=None,
            blocked: BlockedSets | None = None) -> Strategy:
    """One synchronous slot update. Returns the next strategy.

    Every row of every stage moves at once on the stage stack. The slot's
    tables are built from `state` (marginals.slot_tables) unless delta and
    blocked are both given; the update applies config.stepsize to the
    slot's UpdatePlan, which the candidates of one slot share.
    """
    comp = compiled(scenario)
    if delta is None or blocked is None:
        _, _, delta, blocked = slot_tables(scenario, phi, state)
    plan = update_plan(comp, phi, delta, blocked)
    return Strategy._stacked(comp, plan.apply(config.stepsize))


def _sloped_step(comp, phi: Strategy, alpha, state: FlowState, delta, blocked, stages):
    """gp_step at stepsize alpha on the slot's tables, delta on the stages
    `stages`, with the candidate's slope (UpdatePlan.slope on state's
    traffic): (candidate, slope)."""
    plan = update_plan(comp, phi, delta, blocked, stages)
    out = plan.apply(alpha)
    return Strategy._stacked(comp, out), plan.slope(out, state.traffic_stack)


def robust_start(scenario: Scenario) -> Strategy:
    """Feasible start: shortest-path inits first, then a capacity-aware
    greedy loading of cheapest extended paths for tightly loaded instances."""
    from .oracle import FlowVector, _blocks, _greedy_start, _PathTable, strategy_from_flows

    try:
        return feasible_start(scenario)
    except NoFeasibleStrategy:
        pass
    comp = compiled(scenario)
    fe, g = _greedy_start(comp, {block: {} for block in _blocks(comp)}, _PathTable(comp))
    try:
        phi = strategy_from_flows(scenario, FlowVector._on(comp, fe, g))
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


def _model_minimizer(cand, cost, slack):
    """The minimizer s* = -g / (2c), in units of the candidate's stepsize,
    of the quadratic cost + g*s + c*s**2 that has the candidate's slope g at
    s = 0 and its cost at s = 1 (Nocedal & Wright, Numerical Optimization,
    sec. 3.5). None when the candidate (iterate, cost[, slope]) gives no
    slope, when g is not finite or not below -slack, or when c <= 0."""
    g = cand[2] if len(cand) > 2 else None
    if g is None or not math.isfinite(g) or g >= -slack:
        return None
    c = (cand[1] - cost) - g
    return -g / (2.0 * c) if c > 0 else None


def _adaptive_descent(start, config: GpConfig, slot, step):
    """The adaptive-stepsize loop shared by run_gp and run_gp_cc.

    An iterate is a tuple that starts with the strategy and its FlowState
    (what config.on_iterate receives); `start` is (iterate, cost). Pass it
    as a temporary, so that the start is freed once the descent moves on.
    Each slot, slot(point) returns (gap, tables) and the loop stops once
    gap <= config.tol. Otherwise step(point, tables, step_cfg) returns a
    candidate (iterate, cost) or (iterate, cost, slope) for the stepsize
    step_cfg.stepsize, where the slope g is the candidate's predicted
    first-order cost change; one whose step raises CapacityExceeded or
    LoopDetected is rejected. A candidate that does not raise the cost by
    more than the slack 1e-12 * max(1, |cost|) is accepted; else the slot is
    retried at a smaller stepsize, and a stepsize below its floor ends the
    run at the current iterate.

    The next stepsize comes from the quadratic model along the step
    (_model_minimizer) when the candidate's g is finite and below -slack
    and its cost change exceeds g: a retry is made at alpha * clip(s*, 0.1,
    0.5), and after an accepted candidate the next slot starts at alpha *
    clip(s*, 0.5, 2), kept between the floor and the ceiling. Without a
    model the stepsize halves on a rejection and doubles after three
    accepted slots in a row. A model's retry can cut alpha tenfold, so a
    slot can reach the floor in 12 retries rather than 40 halvings.
    Each slot's history row counts its retries at a smaller stepsize as
    `halvings`. Returns (point, trace, history, iterations, converged, gap).
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
        slack = 1e-12 * max(1.0, abs(cost))
        while True:
            step_cfg.stepsize = alpha
            try:
                cand = step(point, tables, step_cfg)
            except (CapacityExceeded, LoopDetected):
                cand = None     # cannot be evaluated: rejected like a cost rise
            s = None if cand is None else _model_minimizer(cand, cost, slack)
            if cand is not None and cand[1] <= cost + slack:
                if s is not None:
                    alpha = min(alpha_ceil, max(alpha_floor, alpha * min(max(s, 0.5), 2.0)))
                    streak = 0
                else:
                    streak += 1
                    if streak >= 3 and alpha < alpha_ceil:
                        alpha = min(alpha_ceil, 2 * alpha)
                        streak = 0
                break
            streak = 0
            alpha *= 0.5 if s is None else min(max(s, 0.1), 0.5)
            if alpha < alpha_floor:
                cand = None
                break
            row["halvings"] += 1
        if cand is None:
            break  # stepsize exhausted: keep current iterate
        point, cost = cand[:2]
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
    retried at a smaller stepsize (_adaptive_descent), so the trace is
    nonincreasing.
    """
    config = config or GpConfig()
    comp = compiled(scenario)
    stages = None

    def slot(point):
        nonlocal stages
        phi, state = point
        if stages is None:      # once per run, from its start
            stages = comp.slot_stages(phi.fractions(comp))
        _, marg, delta, blocked = slot_tables(scenario, phi, state, stages=stages)
        phi._marginals = (marg, state.link_marginals, state.cpu_marginals)  # for adapt's repair
        return sufficient_gap(comp, phi, delta, stages), (delta, blocked)

    def step(point, tables, step_cfg):
        phi, state = point
        cand, g = _sloped_step(comp, phi, step_cfg.stepsize, state, *tables, stages)
        cand_state = compute_flows(scenario, cand)
        return (cand, cand_state), cand_state.total_cost, g

    (phi, state), trace, history, iterations, converged, gap = _adaptive_descent(
        _gp_start(scenario, phi0), config, slot, step)
    return GpResult(phi=phi, state=state, trace=trace, history=history,
                    iterations=iterations, converged=converged, final_gap=gap)


# ---------------------------------------------------------------------------
# adaptation to input / topology changes
# ---------------------------------------------------------------------------

def _last_marginals(comp, phi: Strategy):
    """The (S, n+E) modified marginals on comp of a strategy that run_gp
    returned, from what its last slot kept on it (its traffic marginals
    and marginal costs), or None where phi keeps none for comp. They are
    read once: phi drops them."""
    kept = phi._marginals
    if kept is None or kept[0]._comp is not comp:
        return None
    phi._marginals = None
    marg, Dp, Cp = kept
    return direction_marginals(comp, marg._a, Dp, Cp, comp.every_stage())


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
    d_old = _last_marginals(old, phi_prev)
    if d_old is None:
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
    s, i = np.nonzero(moved)
    X[s, new.row_argmin(marginal)[s, i]] += freed[s, i]
    sums = new.row_sum(X)
    X /= np.where(sums > 0, sums, 1.0)[:, new.dnode]

    renew = ((so < 0)[:, None] | (oi < 0)[None, :] | (freed > 0) & ~moved) & new.active
    if renew.any():
        X = np.where(renew[:, new.dnode], tree_fractions(new), X)
    cyclic = new.peel(X[:, new.edge_pos]).cyclic
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
