"""Traffic marginals, modified marginals, blocked-node sets, and the
optimality checkers.

The marginal table holds dT/dt_i(a,k), computed by the same recursion a
distributed marginal-cost broadcast would run: stage K first, then k = K-1
down to 0, each stage solved along its levels (stage_levels), sinks first.
A node only ever combines its own measured link/CPU marginals with the
values of its downstream neighbors, so the computation ports mechanically
to real message passing. The tables are computed on the stage stack (all
applications' stage k at once) and returned as per-stage views.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroTrafficNode
from .flows import FlowState, Strategy, compiled, compute_flows, marginal_sweep, stage_levels
from .network import Scenario

DEFAULT_TOL = 1e-6
DEFAULT_TOL_MASS = 1e-9


# ---------------------------------------------------------------------------
# traffic marginals (Eq-style recursion, reverse sweeps)
# ---------------------------------------------------------------------------

def traffic_marginals(scenario: Scenario, phi: Strategy, state: FlowState) -> dict:
    """dT/dt_i(a,k) for every node and stage, as {(app_id, k): (n,) array}.

    Requires a loop-free strategy and its evaluated FlowState; the recursion
    runs in decreasing k, each stage along its levels sinks first, starting
    from dT/dt = 0 at the destination's final stage.
    """
    comp = compiled(scenario)
    lam = marginal_sweep(comp, phi.fractions(comp), state.link_marginals, state.cpu_marginals,
                         state.levels)
    return comp.view(lam, "node")


def modified_marginals(scenario: Scenario, state: FlowState, marginals: dict, stages=None):
    """Per-direction modified marginals, {(app_id, k): (n, n+1) array}.

    Column 0 is the CPU direction, column 1+j the link toward node j; absent
    directions (non-links, CPU at the final stage, non-performable tasks)
    carry +inf. The blocks are dense views of the stage stack's (S, n+E)
    direction array (direction_marginals), built on access. Given `stages`
    (what a GP slot visits, _Compiled.slot_stages), it returns the rows of
    those stages alone, a (len(stages.index), n+E) array: the inert stages
    left out read 0 on every link and inf at the CPU.
    """
    comp = compiled(scenario)
    d = direction_marginals(comp, comp.pack(marginals, "node"), state.link_marginals,
                            state.cpu_marginals,
                            comp.every_stage() if stages is None else stages)
    return d if stages is not None else comp.view(d, "direction", np.inf)


def direction_marginals(comp, lam, Dp, Cp, stages) -> np.ndarray:
    """The modified marginals of the stages `stages` (flows._Stages) on the
    direction layout, one row per stage, from the (S, n) traffic marginals
    lam and the marginal costs of the links (Dp, per edge) and CPUs (Cp,
    per node)."""
    # the CPU columns read node -1 through toward until they are overwritten
    d = stages.L[:, None] * comp.on_directions(Dp) + lam.take(stages.index, 0)[:, comp.toward]
    # w is inf at final stages, where comp.next points nowhere
    with np.errstate(invalid="ignore"):
        d[:, comp.seg] = np.where(stages.cannot_run, np.inf,
                                  stages.w * Cp + lam.take(stages.next, 0))
    return d


# ---------------------------------------------------------------------------
# blocked node sets
# ---------------------------------------------------------------------------

@dataclass
class BlockedSets:
    """Forbidden link destinations per (node, stage). CPU is never blocked.

    `masks` are dense (n, n) views of the stage stack's (S, E) edge flags,
    True = blocked; absent links read as blocked.
    """

    nodes: tuple
    masks: object  # (app_id, k) -> (n, n) bool

    def is_blocked(self, node, app_id, k: int, dest) -> bool:
        i = self.nodes.index(node)
        j = self.nodes.index(dest)
        return bool(self.masks[(app_id, k)][i, j])


_BLOCK_REL = 1e-9


def blocked_sets(scenario: Scenario, phi: Strategy, marginals: dict,
                 state: FlowState | None = None) -> BlockedSets:
    """Destinations each node must not use next slot.

    A link destination j is blocked for node i at stage (a,k) when
    (1) dT/dt_j > dT/dt_i, or (2) the stage's positive-fraction subgraph
    downstream of j contains a link (p,q) with dT/dt_q > dT/dt_p (the flag a
    broadcast would piggy-back), or (3) (i,j) is not a link.

    Comparisons carry a small relative hysteresis: marginals equal to within
    _BLOCK_REL do not block. Without it, ties at convergence make the
    improper flags flap and the update sloshes blocked mass forever. The
    flags propagate in one pass along the stage levels of `state` (phi's
    FlowState), which are rebuilt when it is not given.
    """
    comp = compiled(scenario)
    lam = comp.pack(marginals, "node")
    slack = _BLOCK_REL * np.maximum(1.0, np.abs(lam))
    higher = lam[:, comp.dst] > (lam + slack)[:, comp.src]
    levels = (state.levels if state is not None
              else stage_levels(comp, phi.fractions(comp)[:, comp.edge_pos]))
    flag = levels.flags(higher)
    masks = comp.view(higher | flag[:, comp.dst], "edge", True)
    return BlockedSets(nodes=comp.nodes, masks=masks)


# ---------------------------------------------------------------------------
# optimality checkers
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    holds: bool
    violations: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {"holds": self.holds, "violations": self.violations}


def _state_and_delta(scenario: Scenario, phi: Strategy, state: FlowState | None = None):
    """(state, delta) of phi: its FlowState (evaluated when not given) and
    its (S, n+E) modified marginals on every stage, which the checkers and
    adapt's repair read."""
    if state is None:
        state = compute_flows(scenario, phi)
    delta = modified_marginals(scenario, state, traffic_marginals(scenario, phi, state),
                               compiled(scenario).every_stage())
    return state, delta


def excess(d, X, segs, rows=None):
    """The sufficient condition's one rule, on values d over the directions
    of rows laid out as the Segments `segs` (the compiled scenario's
    (S, n+E) layout or the gateways' two-direction rows). Returns (e, lo):
    lo holds each direction's row minimum of d, and e how far d exceeds it
    on the directions whose fraction in X exceeds DEFAULT_TOL_MASS, in the
    rows flagged in `rows` (all when None), and 0 elsewhere. The condition
    holds at tol when no entry of e exceeds tol; run_gp's gap is the largest
    entry, which gp.sufficient_gap takes row by row, on the stages a slot
    visits (the inert stages, left out, have excess 0)."""
    lo = segs.row_min(d)[:, segs.dnode]
    on = X > DEFAULT_TOL_MASS
    if rows is not None:
        on &= rows[:, segs.dnode]
    return np.subtract(d, lo, out=np.zeros(d.shape), where=on), lo


def _check(comp, phi, g, rows, tol, name) -> CheckResult:
    """Directions of the (S, n) rows `rows` whose excess in g is above tol,
    stage by stage, node by node, CPU first."""
    e, lo = excess(g, phi.fractions(comp), comp, rows)
    violations = [{"node": comp.nodes[comp.dnode[p]], "stage": list(comp.keys[s]),
                   "dest": "cpu" if comp.toward[p] < 0 else comp.nodes[comp.toward[p]],
                   name: float(g[s, p]), "row_min": float(lo[s, p])}
                  for s, p in zip(*np.nonzero(e > tol))]
    return CheckResult(holds=not violations, violations=violations)


def check_kkt(scenario: Scenario, phi: Strategy, tol: float = DEFAULT_TOL,
              state: FlowState | None = None) -> CheckResult:
    """KKT stationarity on dT/dphi = t * delta: every positive-fraction
    direction must achieve the row minimum within tol. Rows with zero traffic
    satisfy the condition vacuously."""
    comp = compiled(scenario)
    state, delta = _state_and_delta(scenario, phi, state)
    t = state.traffic_stack
    with np.errstate(invalid="ignore"):     # 0 * inf on absent directions
        grad = t[:, comp.dnode] * delta
    return _check(comp, phi, grad, comp.active & (t > DEFAULT_TOL_MASS), tol, "value")


def check_sufficient(scenario: Scenario, phi: Strategy, tol: float = DEFAULT_TOL,
                     state: FlowState | None = None) -> CheckResult:
    """Global-optimality sufficient condition: positive-fraction directions
    achieve the row-minimum modified marginal, at every node including
    zero-traffic ones."""
    comp = compiled(scenario)
    delta = _state_and_delta(scenario, phi, state)[1]
    return _check(comp, phi, delta, comp.active, tol, "delta")


# ---------------------------------------------------------------------------
# geodesic convexity probe
# ---------------------------------------------------------------------------

def geodesic_probe(scenario: Scenario, phi1: Strategy, phi2: Strategy) -> float:
    """Largest violation of midpoint convexity along the flow-domain geodesic.

    Maps both strategies to flow space, interpolates linearly, and evaluates
    the total cost at 11 points of the segment (the cost of the geodesic
    strategy, by the strategy/flow bijection at strictly positive traffic).
    Returns max_t T(gamma(t)) - [(1-t) T(phi1) + t T(phi2)]; a convex
    objective keeps this <= 0 up to roundoff. Refuses scenarios where any
    (node, stage) traffic is zero under either endpoint.
    """
    s1 = compute_flows(scenario, phi1)
    s2 = compute_flows(scenario, phi2)
    for s in (s1, s2):
        for key, t in s.traffic.items():
            if np.any(t <= 0):
                raise ZeroTrafficNode(f"zero traffic at stage {key}")
    comp = compiled(scenario)
    worst = -np.inf
    for t in np.linspace(0.0, 1.0, 11):
        F, G = comp.totals((1 - t) * s1.edge_flows + t * s2.edge_flows,
                         (1 - t) * s1.cpu_stack + t * s2.cpu_stack)
        chord = (1 - t) * s1.total_cost + t * s2.total_cost
        worst = max(worst, comp.cost_total(F, G) - chord)
    return float(worst)
