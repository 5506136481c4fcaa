"""Utility-based congestion control on the virtual-gateway extended graph.

Each physical node gets a virtual admission gateway. The gateway receives the
full offered rate of an application and splits it between an admission link
into the physical node (zero cost) and a rejection link straight to the
destination whose cost is the utility lost by rejecting. Maximizing
utility-minus-cost is then an ordinary cost minimization on the extended
graph, and the same marginal comparisons drive the admission fractions: admit
more while the marginal utility exceeds the marginal network cost of carrying
one more packet.
"""

from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass

import numpy as np

from .flows import FlowState, Segments, Strategy, compiled, compute_flows, init_strategy
from .gp import GpConfig, GpResult, _adaptive_descent, _Slot
from .marginals import DEFAULT_TOL, CheckResult, check_sufficient, excess, traffic_marginals
from .network import Scenario

_PRIME_FLOOR = 1e-9   # derivative of sub-1 fairness is evaluated at >= this rate


# ---------------------------------------------------------------------------
# utilities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class AlphaFair:
    """alpha-fairness, normalized so the utility of zero admitted rate is 0.

    alpha=0 is plain throughput, alpha=1 proportional fairness via
    log(r + eps) - log(eps), larger alpha more egalitarian.
    """

    alpha: float
    eps: float = 0.1
    cap: float = 1.0

    def __post_init__(self):
        if self.alpha < 0 or self.eps <= 0 or self.cap < 0:
            raise ValueError("need alpha >= 0, eps > 0, cap >= 0")


@dataclass(frozen=True)
class LinearUtility:
    slope: float
    cap: float = 1.0

    def __post_init__(self):
        if self.slope < 0 or self.cap < 0:
            raise ValueError("need slope >= 0, cap >= 0")


Utility = AlphaFair | LinearUtility


def _admitted(u: Utility, r: float) -> float:
    """Admitted rate r clamped to [0, cap]; ValueError where it lies
    outside by more than rounding."""
    if r < -1e-12 or r > u.cap * (1 + 1e-9) + 1e-12:
        raise ValueError(f"rate {r} outside [0, {u.cap}]")
    return min(max(r, 0.0), u.cap)


def utility_eval(u: Utility, r: float) -> float:
    """Utility of admitted rate r, normalized so utility_eval(u, 0) == 0."""
    r = _admitted(u, r)
    if isinstance(u, LinearUtility):
        return u.slope * r
    a = u.alpha
    if a == 1.0:
        return math.log(r + u.eps) - math.log(u.eps)
    if a < 1.0:
        return r ** (1 - a) / (1 - a)
    return ((r + u.eps) ** (1 - a) - u.eps ** (1 - a)) / (1 - a)


def utility_prime(u: Utility, r: float) -> float:
    """Marginal utility at admitted rate r.

    For 0 < alpha < 1 the derivative diverges at r = 0; it is evaluated at
    max(r, 1e-9) so admission updates stay finite.
    """
    r = _admitted(u, r)
    if isinstance(u, LinearUtility):
        return u.slope
    a = u.alpha
    if a == 0.0:
        return 1.0
    if a < 1.0:
        return max(r, _PRIME_FLOOR) ** (-a)
    return (r + u.eps) ** (-a)


# ---------------------------------------------------------------------------
# extended scenario
# ---------------------------------------------------------------------------

@dataclass
class ExtendedScenario:
    """Base network plus one virtual admission gateway per physical node.

    `base` carries the offered-rate caps as its input rates (the virtual
    inputs are fixed to the caps); the actually admitted rates are
    cap * admit_fraction and enter the engine as a rate override. `pairs`
    lists the (node, app_id) combinations that have a gateway row; it is
    read from `caps` once, so caps are not to be edited afterwards.
    """

    base: Scenario
    caps: dict        # (node, app_id) -> offered-rate cap
    utilities: dict   # (node, app_id) -> Utility

    def __post_init__(self):
        for pair, cap in self.caps.items():
            if cap < 0:
                raise ValueError(f"negative cap at {pair}")
            u = self.utilities[pair]
            if abs(u.cap - cap) > 1e-9 * max(1.0, cap):
                raise ValueError(f"utility cap mismatch at {pair}")

    @functools.cached_property
    def pairs(self):
        return tuple(sorted((p for p in self.caps if self.caps[p] > 0), key=str))

    def admitted_rates(self, admit: dict) -> dict:
        return {pair: self.caps[pair] * admit.get(pair, 0.0) for pair in self.pairs}

    def rejection_cost(self, admit: dict) -> float:
        total = 0.0
        for pair in self.pairs:
            u = self.utilities[pair]
            r = self.caps[pair] * admit.get(pair, 0.0)
            total += utility_eval(u, u.cap) - utility_eval(u, r)
        return total


def extend_scenario(scenario: Scenario, caps: dict, utilities: dict) -> ExtendedScenario:
    """Build the congestion-control extension of a scenario.

    The base input rates are replaced by the offered-rate caps; admission
    fractions then decide how much of each cap enters the physical network.
    """
    base = scenario.with_rates({pair: cap for pair, cap in caps.items() if cap > 0})
    return ExtendedScenario(base=base, caps=dict(caps), utilities=dict(utilities))


def extended_cost(ext: ExtendedScenario, phi: Strategy, admit: dict):
    """Total cost on the extended graph: physical cost at the admitted rates
    plus the utility-loss cost on the rejection links."""
    rates = ext.admitted_rates(admit)
    state = compute_flows(ext.base, phi, rates=rates)
    return state.total_cost + ext.rejection_cost(admit), state


def utility_minus_cost(ext: ExtendedScenario, phi: Strategy, admit: dict,
                       state: FlowState | None = None) -> float:
    """Utility of the admitted rates minus the physical cost; `state` is
    phi's FlowState at those rates, evaluated when not given."""
    rates = ext.admitted_rates(admit)
    if state is None:
        state = compute_flows(ext.base, phi, rates=rates)
    total = -state.total_cost
    for pair in ext.pairs:
        total += utility_eval(ext.utilities[pair], rates[pair])
    return total


# ---------------------------------------------------------------------------
# optimization from reject-all
# ---------------------------------------------------------------------------

@dataclass(kw_only=True)
class CcResult(GpResult):
    """run_gp_cc's GpResult: its `trace` is the extended cost, its `state`
    and `total_cost` the physical flows and cost at the admitted rates."""
    admit: dict                  # (node, app_id) -> admitted fraction of cap
    admitted: dict               # (node, app_id) -> admitted packets/sec
    utility_minus_cost: float


def _virtual_deltas(ext, marginals, admit):
    """{pair: (network, utility) marginal} of each gateway: the marginal
    cost of its first data stage and the marginal utility at its admitted
    rate."""
    comp = compiled(ext.base)
    lam = comp.pack(marginals, "node")
    out = {}
    for pair in ext.pairs:
        node, app_id = pair
        lam0 = lam[comp.stage_index[(app_id, 0)], comp.index[node]]
        uprime = utility_prime(ext.utilities[pair], ext.caps[pair] * admit.get(pair, 0.0))
        out[pair] = (float(lam0), float(uprime))
    return out


@functools.lru_cache(maxsize=16)
def _gateway_rows(count: int) -> Segments:
    """`count` gateways as rows of two directions, admit and reject."""
    return Segments(np.arange(0, 2 * count, 2), 2 * count)


def _gateway_excess(deltas, admit):
    """marginals.excess on the gateways, in the order of deltas, as a
    (pairs, 2) array: each gateway is a row of two directions, admit and
    reject, whose values are its (network, utility) marginals and whose
    fractions are its admitted and rejected shares of the offered rate."""
    d = np.array(list(deltas.values()), dtype=float).reshape(1, -1)
    a = np.array([admit.get(pair, 0.0) for pair in deltas], dtype=float)
    X = np.stack([a, 1.0 - a], axis=1).reshape(1, -1)
    return excess(d, X, _gateway_rows(len(a)))[0].reshape(-1, 2)


def _cc_start(ext):
    """run_gp_cc's start iterate (reject all) and its extended-graph cost."""
    phi = init_strategy(ext.base, mode="shortest_path_then_local_comp", require_finite=False)
    admit = {pair: 0.0 for pair in ext.pairs}
    T_ext, state = extended_cost(ext, phi, admit)
    return (phi, state, admit), T_ext


def run_gp_cc(ext: ExtendedScenario, config: GpConfig | None = None) -> CcResult:
    """Joint admission control and forwarding optimization.

    Starts from reject-all (always feasible with zero cost) and runs the same
    slot updates and adaptive stepsize as run_gp, with one extra
    two-direction row per gateway: admit versus reject, compared through the
    marginal network cost of the first data stage against the marginal
    utility of the admitted rate. The extended-graph cost trace is
    nonincreasing.
    """
    config = config or GpConfig()
    comp = compiled(ext.base)

    def slot(point, prev):
        phi, state, admit = point
        # the first slot picks the run's stages from its start
        tables = _Slot(comp, ext.base, phi, state, None if prev is None else prev[0].stages)
        vdelta = _virtual_deltas(ext, tables.marginals, admit)
        gap = max(tables.gap, float(_gateway_excess(vdelta, admit).max(initial=0.0)))
        return gap, (tables, vdelta)

    def step(point, tables, alpha):
        _, _, admit = point
        gp_slot, vdelta = tables
        cand, g = gp_slot.step(alpha)
        cand_admit = {}
        for pair, (d_admit, d_reject) in vdelta.items():
            a = admit[pair]
            if d_admit < d_reject:
                a += min(1.0 - a, alpha * (d_reject - d_admit))
            elif d_reject < d_admit:
                a -= min(a, alpha * (d_admit - d_reject))
            cand_admit[pair] = a
            g += ext.caps[pair] * (d_admit - d_reject) * (a - admit[pair])
        T_cand, cand_state = extended_cost(ext, cand, cand_admit)
        return (cand, cand_state, cand_admit), T_cand, g

    (phi, state, admit), res = _adaptive_descent(_cc_start(ext), config, slot, step)
    return CcResult(**vars(res), admit=admit, admitted=ext.admitted_rates(admit),
                    utility_minus_cost=utility_minus_cost(ext, phi, admit, state))


def check_sufficient_cc(ext: ExtendedScenario, phi: Strategy, admit: dict,
                        tol: float = DEFAULT_TOL) -> CheckResult:
    """Sufficient optimality on the extended graph: the physical condition at
    the admitted rates plus, per gateway, admit-mass only when the network
    marginal is (weakly) below the marginal utility and vice versa."""
    state = compute_flows(ext.base, phi, rates=ext.admitted_rates(admit))
    violations = check_sufficient(ext.base, phi, tol, state).violations
    deltas = _virtual_deltas(ext, traffic_marginals(ext.base, phi, state), admit)
    for (pair, (d_admit, d_reject)), row in zip(deltas.items(),
                                                _gateway_excess(deltas, admit)):
        for side, e in zip(("admit", "reject"), row):
            if e > tol:
                violations.append({"gateway": list(pair), "side": side,
                                   "network_marginal": d_admit, "utility_marginal": d_reject})
    return CheckResult(holds=not violations, violations=violations)


def write_admission_report(ext: ExtendedScenario, result: CcResult, path):
    """CSV report: node, app, cap, admitted rate, marginal utility, marginal
    network cost of the first data stage."""
    marg = traffic_marginals(ext.base, result.phi, result.state)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(["node", "app", "cap", "admitted", "utility_marginal",
                    "network_marginal"])
        for pair, (network, utility) in _virtual_deltas(ext, marg, result.admit).items():
            w.writerow([*pair, repr(ext.caps[pair]), repr(result.admitted[pair]),
                        repr(utility), repr(network)])
