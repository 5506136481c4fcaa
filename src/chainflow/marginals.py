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
    lam = marginal_sweep(comp, phi.fractions(comp), comp.links.deriv(state.edge_bits),
                         comp.cpus.deriv(state.workload), state.levels)
    return comp.view(lam, "node")


def modified_marginals(scenario: Scenario, state: FlowState, marginals: dict):
    """Per-direction modified marginals, {(app_id, k): (n, n+1) array}.

    Column 0 is the CPU direction, column 1+j the link toward node j; absent
    directions (non-links, CPU at the final stage, non-performable tasks)
    carry +inf. The blocks are dense views of the stage stack's (S, n+E)
    direction array, built on access.
    """
    comp = compiled(scenario)
    lam = comp.pack(marginals, "node")
    Dp = comp.links.deriv(state.edge_bits)
    Cp = comp.cpus.deriv(state.workload)
    d = np.empty((len(comp.keys), comp.n + comp.E))
    d[:, comp.edge_pos] = comp.L[:, None] * Dp + lam[:, comp.dst]
    # w is inf at final stages, where comp.next points nowhere
    with np.errstate(invalid="ignore"):
        d[:, comp.seg] = np.where(np.isfinite(comp.w), comp.w * Cp + lam[comp.next], np.inf)
    return comp.view(d, "direction", np.inf)


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
    levels = state.levels if state is not None else stage_levels(comp, phi.fractions(comp))
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


def slot_tables(scenario: Scenario, phi: Strategy, state: FlowState | None = None,
                blocked: bool = True):
    """(state, marginals, delta, blocked sets) of phi: its FlowState
    (evaluated when not given) and the tables a GP slot reads off it. The
    blocked sets are None when `blocked` is False."""
    if state is None:
        state = compute_flows(scenario, phi)
    marg = traffic_marginals(scenario, phi, state)
    delta = modified_marginals(scenario, state, marg)
    return state, marg, delta, blocked_sets(scenario, phi, marg, state) if blocked else None


def excess(d, X, seg, rows=None, tol_mass: float = DEFAULT_TOL_MASS):
    """The sufficient condition's one rule, on values d over the directions
    of rows that start at columns `seg` (the compiled scenario's (S, n+E)
    layout or the gateways' two-direction rows). Returns (e, lo): lo holds
    each direction's row minimum of d, and e how far d exceeds it on the
    directions whose fraction in X exceeds tol_mass, in the rows flagged in
    `rows` (all when None), and 0 elsewhere. The condition holds at tol
    when no entry of e exceeds tol; run_gp's gap is the largest entry."""
    size = np.concatenate((seg[1:], [d.shape[1]])) - seg
    lo = np.repeat(np.minimum.reduceat(d, seg, axis=1), size, axis=1)
    on = X > tol_mass
    if rows is not None:
        on &= np.repeat(rows, size, axis=1)
    return np.subtract(d, lo, out=np.zeros_like(d), where=on), lo


def _check(comp, phi, g, rows, tol, tol_mass, name) -> CheckResult:
    """Directions of the (S, n) rows `rows` whose excess in g is above tol,
    stage by stage, node by node, CPU first."""
    e, lo = excess(g, phi.fractions(comp), comp.seg, rows, tol_mass)
    col = comp.dir_flat % (comp.n + 1)
    violations = [{"node": comp.nodes[comp.dnode[p]], "stage": list(comp.keys[s]),
                   "dest": "cpu" if col[p] == 0 else comp.nodes[col[p] - 1],
                   name: float(g[s, p]), "row_min": float(lo[s, p])}
                  for s, p in zip(*np.nonzero(e > tol))]
    return CheckResult(holds=not violations, violations=violations)


def check_kkt(scenario: Scenario, phi: Strategy, tol: float = DEFAULT_TOL,
              tol_mass: float = DEFAULT_TOL_MASS, state: FlowState | None = None) -> CheckResult:
    """KKT stationarity on dT/dphi = t * delta: every positive-fraction
    direction must achieve the row minimum within tol. Rows with zero traffic
    satisfy the condition vacuously."""
    comp = compiled(scenario)
    state, _, delta, _ = slot_tables(scenario, phi, state, blocked=False)
    t = state.traffic_stack
    with np.errstate(invalid="ignore"):     # 0 * inf on absent directions
        grad = t[:, comp.dnode] * comp.pack(delta, "direction")
    return _check(comp, phi, grad, comp.active & (t > tol_mass), tol, tol_mass, "value")


def check_sufficient(scenario: Scenario, phi: Strategy, tol: float = DEFAULT_TOL,
                     tol_mass: float = DEFAULT_TOL_MASS,
                     state: FlowState | None = None) -> CheckResult:
    """Global-optimality sufficient condition: positive-fraction directions
    achieve the row-minimum modified marginal, at every node including
    zero-traffic ones."""
    comp = compiled(scenario)
    delta = slot_tables(scenario, phi, state, blocked=False)[2]
    return _check(comp, phi, comp.pack(delta, "direction"), comp.active, tol, tol_mass, "delta")


# ---------------------------------------------------------------------------
# geodesic convexity probe
# ---------------------------------------------------------------------------

def geodesic_probe(scenario: Scenario, phi1: Strategy, phi2: Strategy,
                   n_samples: int = 11) -> float:
    """Largest violation of midpoint convexity along the flow-domain geodesic.

    Maps both strategies to flow space, interpolates linearly, and evaluates
    the total cost along the segment (which is the cost of the geodesic
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
    for t in np.linspace(0.0, 1.0, n_samples):
        F, G = comp.totals((1 - t) * s1.edge_flows + t * s2.edge_flows,
                         (1 - t) * s1.cpu_stack + t * s2.cpu_stack)
        chord = (1 - t) * s1.total_cost + t * s2.total_cost
        worst = max(worst, comp.cost_total(F, G) - chord)
    return float(worst)
