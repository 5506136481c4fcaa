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
(_adaptive_descent). One slot is one _Slot: the traffic marginals, the
modified marginals and blocked sets broadcast back to the nodes, the gap,
and the UpdatePlan (the half of the update that does not owe to alpha)
that its candidate stepsizes share.

A slot works on the live stack. At a final stage of packet size 0
(_Compiled.inert) results cost nothing to forward: the marginals are 0 on
every link and inf at the CPU, the gap is 0 and no row moves. So a run's
slots build their modified marginals, gap and plan on the stages of
_Compiled.slot_stages alone, decided once from the start strategy, and
give the same bits as on the whole stack.

Within those stages a slot passes over whole tables once, for the gap
(sufficient_gap), which keeps each row's spread. As in the distributed
algorithm, a node whose mass already sits on its minimum has nothing to
do, so UpdatePlan tests only the rows that its spread, its fractions or
its sum single out; UpdatePlan says why that screen is exact.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityExceeded, LoopDetected, NoFeasibleStrategy
from .flows import (FlowState, Strategy, compiled, compute_flows, feasible_start,
                    tree_fractions, validate_strategy)
from .marginals import (DEFAULT_TOL, DEFAULT_TOL_MASS, blocked_sets, modified_marginals,
                        traffic_marginals)
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
        if not (0 < self.stepsize < math.inf and self.tol > 0):
            raise ValueError("stepsize must be finite and > 0, and tol > 0")


def sufficient_gap(comp, phi: Strategy, delta, stages, out=None) -> float:
    """Largest excess (marginals.excess) of the modified marginals delta on
    the active rows: gap <= tol is check_sufficient holding at tol. delta
    holds the rows of the stages `stages` alone (_Compiled.slot_stages, or
    every_stage for the whole stack); an inert stage left out has excess 0.

    The gap is taken by rows, as the largest spread of an active row: its
    largest d on the directions whose fraction exceeds DEFAULT_TOL_MASS
    (-inf where none does) less its smallest d. Rounding is monotone, so
    fl(max_j d_j - lo) is the largest fl(d_j - lo), and the gap is
    excess's largest entry bit for bit. Given `out`, a (len(stages.index),
    n) array, every row's spread is written there: the screen of the
    slot's UpdatePlan, which says why it is exact."""
    X = phi.fractions(comp).take(stages.index, 0)
    hi = comp.row_max(np.where(X > DEFAULT_TOL_MASS, delta, -np.inf))
    spread = np.subtract(hi, comp.row_min(delta), out=out)
    return float(np.maximum.reduce(spread[stages.active], initial=0.0))


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

    The per-entry tests run on the screened active rows alone, in spans
    gathered from X, d and the flags; no other row can be kept. A row is
    screened when
    - its spread (sufficient_gap's hi - lo) is above _TIE_REL or nan.
      Else every direction j with a fraction above DEFAULT_TOL_MASS has a
      finite d_j <= hi and is available, so the row's available minimum
      dmin is at least lo, and by monotone rounding fl(d_j - dmin) <=
      fl(hi - lo) <= _TIE_REL, the floor of the tie: j is minimal;
    - it holds a fraction that is nonzero and not above DEFAULT_TOL_MASS,
      which `moves` (X != 0) sees and the spread does not: on the CPU
      column or a support link of X's StageLevels `levels`, or, negative
      or nan, anywhere;
    - its sum (support_sum over `levels`, which adds as reduceat does) is
      not exactly 1.
    `spread` holds the spreads of the rows of `stages`, from
    sufficient_gap; `screened` counts the rows tested.
    """

    def __init__(self, comp, X, d, flagged, stages, levels, spread):
        self.X = X
        # rows with a fraction in (0, DEFAULT_TOL_MASS], on the CPU column
        # or a support link, or one below 0 or nan (seldom) anywhere
        cpu = X.take(comp.seg, 1)
        stray = (cpu > 0.0) != (cpu > DEFAULT_TOL_MASS)
        stray.flat[levels.src[levels.x <= DEFAULT_TOL_MASS]] = True
        if not np.minimum.reduce(X, None, initial=0.0) >= 0.0:
            r, p = (~(X >= 0.0)).nonzero()
            stray[r, comp.dnode[p]] = True
        screen = (stray | (comp.support_sum(X, levels) != 1.0)).take(stages.index, 0)
        screen |= ~(spread <= _TIE_REL)
        screen &= stages.active
        k, i = screen.nonzero()
        self.screened = k.size
        at, starts, width = comp.spans(k, i)    # on the rows of `stages`
        own = np.arange(k.size).repeat(width)   # each entry's row, counted in k
        s = stages.index[k]
        rows = s * comp.n + i       # each row's index on (S, n)
        flat = at + ((s - k) * comp.size)[own]
        x, d = X.take(flat), d.take(at)
        # column p of node i is edge p - i - 1, so the flag of the entry at
        # s * (n + E) + p is at s * E + p - i - 1, n * s + i + 1 before it;
        # the CPU column, which starts each span, is never blocked
        B = flagged.take(flat - (rows + 1)[own])
        B[starts] = False
        B &= x <= 0.0
        avail = ~B & np.isfinite(d)
        dmin = np.minimum.reduceat(np.where(avail, d, np.inf), starts)
        # a row without an available direction is not kept: its dmin (inf)
        # reads as 0, so that no inf - inf arises
        keep = np.isfinite(dmin)
        dmin[~keep] = 0.0
        gap = d - dmin[own]
        minimal = avail & (gap <= (_TIE_REL * np.maximum(1.0, np.abs(dmin)))[own])
        moves = (x != 0.0) & ~minimal
        # a moving entry makes its row's sum nan, which is not 1 either
        keep &= np.add.reduceat(np.where(moves, np.nan, x), starts) != 1.0
        if not np.logical_and.reduce(keep):     # seldom: the screen is tight
            on = keep[own]
            rows, width = rows[keep], width[keep]
            starts = width.cumsum() - width
            own = np.arange(rows.size).repeat(width)
            flat, x, d, gap, minimal, moves = (a[on] for a in (flat, x, d, gap, minimal, moves))
        self.rows, self.flat, self.starts, self.own = rows, flat, starts, own
        self.x, self.d, self.minimal, self.moves = x, d, minimal, moves
        self.e = np.where(moves, np.maximum(gap, 0.0), 0.0)
        self.count = np.add.reduceat(minimal, starts, dtype=int)

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
        give = (self.row_sums(red) / self.count)[self.own]
        np.add(new, give, out=new, where=self.minimal)
        total = self.row_sums(new)
        new /= np.where(total > 0, total, 1.0)[self.own]
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


class _Slot:
    """One GP slot at the iterate phi with FlowState `state`, on the stages
    `stages` (_Compiled.slot_stages(phi) when None): its traffic marginals,
    the modified marginals of those stages, the blocked sets, the gap with
    each row's spread (the plan's screen), and its UpdatePlan, built on the
    first candidate from the state's levels and shared by the slot's
    retries at a smaller stepsize."""

    def __init__(self, comp, scenario: Scenario, phi: Strategy, state: FlowState, stages=None):
        if stages is None:
            stages = comp.slot_stages(phi.fractions(comp))
        self.comp, self.phi, self.state, self.stages = comp, phi, state, stages
        self.marginals = traffic_marginals(scenario, phi, state)
        self.delta = modified_marginals(scenario, state, self.marginals, stages)
        self.blocked = blocked_sets(scenario, phi, self.marginals, state)
        self.spread = np.empty((stages.index.size, comp.n))
        self.gap = sufficient_gap(comp, phi, self.delta, stages, self.spread)
        self._plan = None

    @property
    def plan(self) -> UpdatePlan:
        if self._plan is None:
            self._plan = UpdatePlan(self.comp, self.phi.fractions(self.comp), self.delta,
                                    self.comp.pack(self.blocked.masks, "edge"), self.stages,
                                    self.state.levels, self.spread)
        return self._plan

    def step(self, alpha: float):
        """The candidate at stepsize alpha and its slope (UpdatePlan.slope
        on the slot's traffic): (candidate, slope)."""
        plan = self.plan
        out = plan.apply(alpha)
        return Strategy._stacked(self.comp, out), plan.slope(out, self.state.traffic_stack)


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
    sec. 3.5), for a candidate (iterate, cost, slope). None when g is not
    finite or not below -slack, or when c <= 0."""
    g = cand[2]
    if not math.isfinite(g) or g >= -slack:
        return None
    c = (cand[1] - cost) - g
    return -g / (2.0 * c) if c > 0 else None


def _adaptive_descent(start, config: GpConfig, slot, step):
    """The adaptive-stepsize loop shared by run_gp and run_gp_cc.

    An iterate is a tuple that starts with the strategy and its FlowState
    (what config.on_iterate receives); `start` is (iterate, cost). Pass it
    as a temporary, so that the start is freed once the descent moves on.
    Each slot, slot(point, prev) returns (gap, tables), given the previous
    slot's tables as prev (None at the first slot), and the loop stops once
    gap <= config.tol. Otherwise step(point, tables, alpha) returns the
    candidate (iterate, cost, slope) at the stepsize alpha, where the slope
    g is its predicted first-order cost change; one whose step raises
    CapacityExceeded or LoopDetected is rejected. A candidate that does not
    raise the cost by more than the slack 1e-12 * max(1, |cost|) is
    accepted; else the slot is retried at a smaller stepsize, and a
    stepsize below its floor ends the run at the current iterate.

    The next stepsize comes from the quadratic model along the step
    (_model_minimizer) when the candidate's g is finite and below -slack
    and its cost change exceeds g: a retry is made at alpha * clip(s*, 0.1,
    0.5), and after an accepted candidate the next slot starts at alpha *
    clip(s*, 0.5, 2), kept between the floor and the ceiling. Without a
    model the stepsize halves on a rejection and doubles after three
    accepted slots in a row. A model's retry can cut alpha tenfold, so a
    slot can reach the floor in 12 retries rather than 40 halvings.
    Each slot's history row counts its retries at a smaller stepsize as
    `halvings`. Returns (point, record): the last iterate and the run's
    GpResult, whose phi and state are the iterate's first two items.
    """
    (point, cost), start = start, None
    alpha = config.stepsize
    alpha_floor = config.stepsize * MIN_STEPSIZE_FACTOR
    alpha_ceil = config.stepsize * MAX_STEPSIZE_FACTOR
    trace, history = [cost], []
    iterations, converged, streak = 0, False, 0
    gap, tables = float("inf"), None
    if config.on_iterate is not None:
        config.on_iterate(0, point[0], point[1])
    for slot_index in range(config.max_iters):
        gap, tables = slot(point, tables)
        row = {"iter": slot_index, "T": cost, "max_gap": gap, "stepsize": alpha,
               "halvings": 0}
        history.append(row)
        if gap <= config.tol:
            converged = True
            break
        slack = 1e-12 * max(1.0, abs(cost))
        while True:
            try:
                cand = step(point, tables, alpha)
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
    return point, GpResult(point[0], point[1], trace, history, iterations, converged, gap)


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
    """Iterate GP slots (_Slot) until the sufficient-condition gap falls
    below tol.

    Returns the best iterate with converged=False when the slot budget runs
    out. Slots whose evaluation fails (capacity) or raises the cost are
    retried at a smaller stepsize (_adaptive_descent), so the trace is
    nonincreasing.
    """
    config = config or GpConfig()
    comp = compiled(scenario)

    def slot(point, prev):
        phi, state = point
        # the first slot picks the run's stages from its start
        tables = _Slot(comp, scenario, phi, state, None if prev is None else prev.stages)
        return tables.gap, tables

    def step(point, tables, alpha):
        cand, g = tables.step(alpha)
        cand_state = compute_flows(scenario, cand)
        return (cand, cand_state), cand_state.total_cost, g

    return _adaptive_descent(_gp_start(scenario, phi0), config, slot, step)[1]


# ---------------------------------------------------------------------------
# adaptation to input / topology changes
# ---------------------------------------------------------------------------

def _repair_strategy(old_scenario, new_scenario, phi_prev):
    """phi_prev carried over to the new scenario's stage stack.

    A row keeps its fractions on the directions that still exist; a CPU
    keeps its own only where it can still run the task. The row is then
    renormalized, so the mass freed by a lost direction spreads over the
    surviving ones in proportion to their fractions, as in Gallager's
    (1977) routing after a topology change. New nodes and stages, and rows
    that keep no mass, get fresh rows (tree_fractions); stages that the
    repair leaves cyclic are rebuilt fresh. Nothing is evaluated.
    """
    old, new = compiled(old_scenario), compiled(new_scenario)
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
    sums = new.row_sum(X)
    X /= np.where(sums > 0, sums, 1.0)[:, new.dnode]

    renew = ((so < 0)[:, None] | (oi < 0)[None, :] | ~(sums > 0)) & new.active
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
    fractions, and each row is renormalized over the directions it keeps:
    its freed mass spreads over them in proportion to their fractions, and
    phi_prev is not evaluated. New links start at zero; new nodes and rows
    that keep no mass get fresh rows. Raises NoFeasibleStrategy when the
    repaired strategy has no finite cost.
    """
    phi0 = _repair_strategy(old_scenario, new_scenario, phi_prev)
    try:
        # run_gp evaluates the start; its descent catches these per candidate
        return run_gp(new_scenario, phi0, config)
    except (CapacityExceeded, LoopDetected) as err:
        raise NoFeasibleStrategy(f"repair could not restore finite cost: {err}") from err
