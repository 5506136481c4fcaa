"""Traffic marginals, modified marginals, blocked-node sets, and the
optimality checkers.

The marginal table holds dT/dt_i(a,k), computed by the same recursion a
distributed marginal-cost broadcast would run: stage K first, then k = K-1
down to 0, each stage swept against the direction of its support DAG. A node
only ever combines its own measured link/CPU marginals with the values of its
downstream neighbors, so the computation ports mechanically to real message
passing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ZeroTrafficNode
from .flows import FlowState, Strategy, compiled, compute_flows, dag_sweep
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
    runs in decreasing k, each stage against its support DAG, starting from
    dT/dt = 0 at the destination's final stage.
    """
    comp = compiled(scenario)
    Dp = comp.links.deriv(state.link_bits)
    Cp = comp.cpus.deriv(state.workload)
    lam = {}
    for app in comp.apps:
        lam_next = None
        for k in range(app.K, -1, -1):
            mat = phi.rows[(app.id, k)]
            P, c0 = mat[:, 1:], mat[:, 0]
            base = (P * (app.L[k] * Dp)).sum(axis=1)
            if k < app.K:
                cpu = np.zeros(comp.n)
                on = c0 > 0
                cpu[on] = c0[on] * (app.w[on, k] * Cp[on] + lam_next[on])
                base = base + cpu
            lam[(app.id, k)] = dag_sweep(base, P)
            lam_next = lam[(app.id, k)]
    return lam


def modified_marginals(scenario: Scenario, state: FlowState, marginals: dict) -> dict:
    """Per-direction modified marginals, {(app_id, k): (n, n+1) array}.

    Column 0 is the CPU direction, column 1+j the link toward node j; absent
    directions (non-links, CPU at the final stage, non-performable tasks)
    carry +inf.
    """
    comp = compiled(scenario)
    Dp = comp.links.deriv(state.link_bits)
    Cp = comp.cpus.deriv(state.workload)
    delta = {}
    for app in comp.apps:
        for k in range(app.K + 1):
            d = np.full((comp.n, comp.n + 1), np.inf)
            if k < app.K:
                ok = np.isfinite(app.w[:, k])
                d[ok, 0] = app.w[ok, k] * Cp[ok] + marginals[(app.id, k + 1)][ok]
            link = app.L[k] * Dp + marginals[(app.id, k)][None, :]
            d[:, 1:] = np.where(comp.adj, link, np.inf)
            delta[(app.id, k)] = d
    return delta


# ---------------------------------------------------------------------------
# blocked node sets
# ---------------------------------------------------------------------------

@dataclass
class BlockedSets:
    """Forbidden link destinations per (node, stage). CPU is never blocked."""

    nodes: tuple
    masks: dict  # (app_id, k) -> (n, n) bool, True = blocked

    def is_blocked(self, node, app_id, k: int, dest) -> bool:
        i = self.nodes.index(node)
        j = self.nodes.index(dest)
        return bool(self.masks[(app_id, k)][i, j])

    def blocked_of(self, node, app_id, k: int) -> set:
        i = self.nodes.index(node)
        row = self.masks[(app_id, k)][i]
        return {self.nodes[j] for j in np.flatnonzero(row)}


def blocked_sets(scenario: Scenario, phi: Strategy, marginals: dict,
                 rel_tol: float = 1e-9) -> BlockedSets:
    """Destinations each node must not use next slot.

    A link destination j is blocked for node i at stage (a,k) when
    (1) dT/dt_j > dT/dt_i, or (2) the stage's positive-fraction subgraph
    downstream of j contains a link (p,q) with dT/dt_q > dT/dt_p (the flag a
    broadcast would piggy-back), or (3) (i,j) is not a link.

    Comparisons carry a small relative hysteresis: marginals equal to within
    rel_tol do not block. Without it, ties at convergence make the improper
    flags flap and the update sloshes blocked mass forever.
    """
    comp = compiled(scenario)
    masks = {}
    for key, mat in phi.rows.items():
        lam = marginals[key]
        slack = rel_tol * np.maximum(1.0, np.abs(lam))
        higher = lam[None, :] > (lam + slack)[:, None]
        support = mat[:, 1:] > 0
        improper = support & higher
        flag = np.zeros(comp.n, dtype=bool)
        for _ in range(comp.n + 1):
            nxt = (support & (improper | flag[None, :])).any(axis=1)
            if np.array_equal(nxt, flag):
                break
            flag = nxt
        masks[key] = (~comp.adj) | higher | flag[None, :]
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


def _active_rows(comp, app, k, row_filter=None):
    """Node mask of the rows that must sum to one at stage (app, k): all but
    the destination's final-stage row, and none when `row_filter` rejects
    the stage."""
    active = np.ones(comp.n, dtype=bool)
    if k == app.K:
        active[app.dest] = False
    if row_filter is not None and not row_filter((app.id, k)):
        active[:] = False
    return active


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
    violations = []
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            t = state.traffic[key]
            d = delta[key]
            mat = phi.rows[key]
            for i in np.flatnonzero(_active_rows(comp, app, k) & (t > tol_mass)):
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
    violations = []
    for app in comp.apps:
        for k in range(app.K + 1):
            key = (app.id, k)
            d = delta[key]
            mat = phi.rows[key]
            for i in np.flatnonzero(_active_rows(comp, app, k)):
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
