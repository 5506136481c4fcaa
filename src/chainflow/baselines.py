"""Comparison algorithms. All of them produce ordinary strategies and are
evaluated by the same flow engine as the gradient-projection optimizer; none
keeps a private cost model.

SPOC pins routing to zero-flow-marginal shortest paths and optimizes only the
on-path computation splits. LCOF computes whole chains at the data sources
and optimizes only final-result forwarding. LPR-SC picks one computation node
per task by a congestion-blind linear estimate and routes integrally.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CapacityExceeded, LocalComputationInfeasible, NoFeasibleStrategy
from .flows import FlowState, Strategy, compiled, compute_flows, init_strategy
from .gp import GpConfig, run_gp
from .network import Application, Scenario
from .oracle import _extract_path, cheapest_extended_paths, solve_flow_domain, strategy_from_flows


@dataclass
class BaselineResult:
    name: str
    phi: Strategy | None
    state: FlowState | None
    feasible: bool
    reason: str = ""

    @property
    def total_cost(self) -> float:
        return self.state.total_cost if self.feasible else float("inf")


def spoc(scenario: Scenario) -> BaselineResult:
    """Shortest Path, Optimal Computation placement.

    Routing is frozen to the per-application shortest-path tree toward the
    destination under zero-flow marginal link costs; the only freedom left is
    how much each on-path node computes. That restriction is a convex flow
    problem on the tree, solved by the conditional-gradient machinery with
    the admissible links limited to the tree edges, to tol 1e-8 within 20,000
    iterations.
    """
    comp = compiled(scenario)
    _, succ = comp.zero_flow_tree(np.arange(comp.n) == comp.dest[[a.s0 for a in comp.apps], None])
    masks = {}
    for app, nxt in zip(comp.apps, succ):
        masks[app.id] = np.zeros((comp.n, comp.n), dtype=bool)
        masks[app.id][nxt >= 0, nxt[nxt >= 0]] = True
    try:
        res = solve_flow_domain(scenario, tol=1e-8, max_iters=20000,
                                app_link_masks=masks, strict=False)
        phi = strategy_from_flows(scenario, res.flows)
        state = compute_flows(scenario, phi)
    except (NoFeasibleStrategy, CapacityExceeded) as err:
        raise NoFeasibleStrategy(f"no feasible on-path placement: {err}") from err
    return BaselineResult(name="spoc", phi=phi, state=state, feasible=True)


def lcof(scenario: Scenario) -> BaselineResult:
    """Local Computation, Optimal Forwarding.

    Every source runs the full chain locally, so no link carries an earlier
    stage. Forwarding the final results is then minimum-delay routing with
    fixed injections (Gallager 1977), which run_gp solves on a results-only
    scenario to tol 1e-7 within 4,000 slots.
    """
    comp = compiled(scenario)
    for app in comp.apps:
        sources = np.flatnonzero(app.r > 0)
        for k in range(app.K):
            bad = [comp.nodes[i] for i in sources if not np.isfinite(app.w[i, k])]
            if bad:
                raise LocalComputationInfeasible(
                    f"sources {bad} cannot run task {k + 1} of {app.id}")
    try:
        # local-compute rows everywhere, shortest-path trees for final results
        phi = init_strategy(scenario, mode="shortest_path_then_local_comp")
    except NoFeasibleStrategy as err:
        raise LocalComputationInfeasible(
            f"local computation saturates a capacity: {err}") from err
    # each chain reduced to its final results, injected at its sources
    apps = tuple(Application(a.id, 0, comp.nodes[a.dest], (float(a.L[a.K]),)) for a in comp.apps)
    results = Scenario(scenario.graph, apps, scenario.link_costs, scenario.comp_costs,
                       scenario.input_rates)
    X = phi.fractions(comp).copy()
    res = run_gp(results, Strategy._stacked(compiled(results), X[comp.final]),
                 GpConfig(tol=1e-7, max_iters=4000))
    X[comp.final] = res.phi.fractions(compiled(results))
    phi = Strategy._stacked(comp, X)
    return BaselineResult(name="lcof", phi=phi, state=compute_flows(scenario, phi),
                          feasible=True)


def lpr_sc(scenario: Scenario) -> BaselineResult:
    """Linear-program-style rounding extended to service chains.

    Per application, one computation node per task is chosen by minimizing a
    linear, congestion-blind estimate: zero-flow link marginals along
    shortest paths for every chain segment plus w * C'(0) per task, which
    after the first task is a cheapest extended path of the oracle. Routing
    is integral along those shortest paths. The resulting plan is evaluated
    with the true nonlinear costs; a blown capacity is reported as an
    infinite-cost result.
    """
    comp = compiled(scenario)
    Cp0 = comp.cpus.deriv(np.zeros(comp.n))
    # zero-flow trees to every node: dist_to[u, v] is the cost u -> v
    dist_to, succ_to = (a.T for a in comp.zero_flow_tree(np.eye(comp.n, dtype=bool)))
    # per-packet estimate from every (stage, node) on: cheapest extended paths
    togo, succ = cheapest_extended_paths(comp, None, comp.zero_flow_metric, Cp0)
    # integral routing: stage k of an application heads for the node that
    # runs task k+1 and computes there, its final stage for the destination
    target = comp.dest.copy()
    for app in comp.apps:
        if app.K == 0:
            continue
        s0, rate_total = app.s0, float(app.r.sum())
        # the first site gathers every source's data, the later ones follow
        # the cheapest extended path from there
        first = np.zeros(comp.n)
        for s in np.flatnonzero(app.r > 0):
            first += app.r[s] * app.L[0] * dist_to[s, :]
        with np.errstate(invalid="ignore"):
            first += np.where(comp.cannot_run[s0], np.inf, app.w[:, 0] * Cp0) * rate_total
        first += rate_total * togo[s0 + 1]
        if not np.isfinite(first).any():
            raise NoFeasibleStrategy(f"no placement can run the chain of {app.id}")
        site = int(np.argmin(first))
        path = _extract_path(succ[s0 + 1:s0 + app.K + 1], site)
        target[s0:s0 + app.K] = [site] + [step[2] for step in path if step[0] == "C"]
    phi = Strategy._stacked(comp, comp.trees(succ_to[:, target].T))
    try:
        state = compute_flows(scenario, phi)
    except CapacityExceeded as err:
        return BaselineResult(name="lpr-sc", phi=phi, state=None, feasible=False,
                              reason=str(err))
    return BaselineResult(name="lpr-sc", phi=phi, state=state, feasible=True)


BASELINES = {"spoc": spoc, "lcof": lcof, "lpr-sc": lpr_sc}
