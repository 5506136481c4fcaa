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
from .flows import FlowState, Strategy, compiled, compute_flows, stage_levels
from .network import Scenario
from .oracle import FlowVector, flow_cost

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
    st = comp.stack
    X = phi.fractions(st)
    Dp = st.links.deriv(state.edge_bits)
    Cp = comp.cpus.deriv(state.workload)
    link = np.zeros_like(X)
    link[:, st.edge_pos] = X[:, st.edge_pos] * (st.L[:, None] * Dp)
    link = st.row_sum(link)
    c0 = X[:, st.seg]
    lam = np.zeros_like(link)
    for k in reversed(range(len(st.groups))):
        group = st.groups[k]
        lam[group] = link[group]
        mid = group[~st.final[group]]
        if mid.size:
            on = c0[mid] > 0
            with np.errstate(invalid="ignore"):
                cpu = c0[mid] * (st.w[mid] * Cp + lam[st.next[mid]])
            lam[mid] += np.where(on, cpu, 0.0)
        state.levels.solve(lam, k, forward=False)
    return st.node_view(lam)


def modified_marginals(scenario: Scenario, state: FlowState, marginals: dict):
    """Per-direction modified marginals, {(app_id, k): (n, n+1) array}.

    Column 0 is the CPU direction, column 1+j the link toward node j; absent
    directions (non-links, CPU at the final stage, non-performable tasks)
    carry +inf. The blocks are dense views of the stage stack's (S, n+E)
    direction array, built on access.
    """
    comp = compiled(scenario)
    st = comp.stack
    lam = st.node_stack(marginals)
    Dp = st.links.deriv(state.edge_bits)
    Cp = comp.cpus.deriv(state.workload)
    d = np.empty((len(st.keys), st.n + st.E))
    d[:, st.edge_pos] = st.L[:, None] * Dp + lam[:, st.dst]
    # w is inf at final stages, where st.next points nowhere
    with np.errstate(invalid="ignore"):
        d[:, st.seg] = np.where(np.isfinite(st.w), st.w * Cp + lam[st.next], np.inf)
    return st.direction_view(d)


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

    def blocked_of(self, node, app_id, k: int) -> set:
        i = self.nodes.index(node)
        row = self.masks[(app_id, k)][i]
        return {self.nodes[j] for j in np.flatnonzero(row)}


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
    st = comp.stack
    lam = st.node_stack(marginals)
    slack = _BLOCK_REL * np.maximum(1.0, np.abs(lam))
    higher = lam[:, st.dst] > (lam + slack)[:, st.src]
    levels = state.levels if state is not None else stage_levels(st, phi.fractions(st))
    flag = levels.flags(higher)
    return BlockedSets(nodes=comp.nodes, masks=st.edge_view(higher | flag[:, st.dst], True))


# ---------------------------------------------------------------------------
# optimality checkers
# ---------------------------------------------------------------------------

@dataclass
class CheckResult:
    holds: bool
    violations: list = field(default_factory=list)

    def to_jsonable(self) -> dict:
        return {"holds": self.holds, "violations": self.violations}


def _tables(scenario, phi, state):
    if state is None:
        state = compute_flows(scenario, phi)
    marg = traffic_marginals(scenario, phi, state)
    delta = modified_marginals(scenario, state, marg)
    return state, marg, delta


def check_kkt(scenario: Scenario, phi: Strategy, tol: float = DEFAULT_TOL,
              tol_mass: float = DEFAULT_TOL_MASS, state: FlowState | None = None) -> CheckResult:
    """KKT stationarity on dT/dphi = t * delta: every positive-fraction
    direction must achieve the row minimum within tol. Rows with zero traffic
    satisfy the condition vacuously."""
    comp = compiled(scenario)
    state, marg, delta = _tables(scenario, phi, state)
    active = comp.stack.node_view(comp.stack.active)
    violations = []
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            t = state.traffic[key]
            d = delta[key]
            mat = phi.rows[key]
            for i in np.flatnonzero(active[key] & (t > tol_mass)):
                grad = t[i] * d[i]
                row_min = np.min(grad)
                for j in np.flatnonzero(mat[i] > tol_mass):
                    if grad[j] > row_min + tol:
                        violations.append({
                            "node": comp.nodes[i], "stage": list(key),
                            "dest": "cpu" if j == 0 else comp.nodes[j - 1],
                            "value": float(grad[j]), "row_min": float(row_min)})
    return CheckResult(holds=not violations, violations=violations)


def check_sufficient(scenario: Scenario, phi: Strategy, tol: float = DEFAULT_TOL,
                     tol_mass: float = DEFAULT_TOL_MASS,
                     state: FlowState | None = None) -> CheckResult:
    """Global-optimality sufficient condition: positive-fraction directions
    achieve the row-minimum modified marginal, at every node including
    zero-traffic ones."""
    comp = compiled(scenario)
    state, marg, delta = _tables(scenario, phi, state)
    active = comp.stack.node_view(comp.stack.active)
    violations = []
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            d = delta[key]
            mat = phi.rows[key]
            for i in np.flatnonzero(active[key]):
                row_min = np.min(d[i])
                for j in np.flatnonzero(mat[i] > tol_mass):
                    if d[i, j] > row_min + tol:
                        violations.append({
                            "node": comp.nodes[i], "stage": list(key),
                            "dest": "cpu" if j == 0 else comp.nodes[j - 1],
                            "delta": float(d[i, j]), "row_min": float(row_min)})
    return CheckResult(holds=not violations, violations=violations)


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
    worst = -np.inf
    for t in np.linspace(0.0, 1.0, n_samples):
        fv = FlowVector(s1.nodes,
                        {key: (1 - t) * f + t * s2.link_flows[key]
                         for key, f in s1.link_flows.items()},
                        {key: (1 - t) * g + t * s2.cpu_flows[key]
                         for key, g in s1.cpu_flows.items()})
        chord = (1 - t) * s1.total_cost + t * s2.total_cost
        worst = max(worst, flow_cost(scenario, fv) - chord)
    return float(worst)
