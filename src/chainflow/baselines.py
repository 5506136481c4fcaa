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
from .flows import (FlowState, Strategy, _successor_tree, compiled, compute_flows,
                    init_strategy, tree_rows)
from .gp import GpConfig, run_gp
from .network import Scenario
from .oracle import solve_flow_domain, strategy_from_flows


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


def spoc(scenario: Scenario, tol: float = 1e-8, max_iters: int = 20000) -> BaselineResult:
    """Shortest Path, Optimal Computation placement.

    Routing is frozen to the per-application shortest-path tree toward the
    destination under zero-flow marginal link costs; the only freedom left is
    how much each on-path node computes. That restriction is a convex flow
    problem on the tree, solved by the conditional-gradient machinery with
    the admissible links limited to the tree edges.
    """
    comp = compiled(scenario)
    metric = comp.zero_flow_link_metric()
    masks = {}
    for app in comp.apps:
        targets = np.zeros(comp.n, dtype=bool)
        targets[app.dest] = True
        _, succ = _successor_tree(comp, metric, targets)
        mask = np.zeros((comp.n, comp.n), dtype=bool)
        for i in range(comp.n):
            if succ[i] >= 0:
                mask[i, succ[i]] = True
        masks[app.id] = mask
    try:
        res = solve_flow_domain(scenario, tol=tol, max_iters=max_iters,
                                app_link_masks=masks, strict=False)
        phi = strategy_from_flows(scenario, res.flows)
        state = compute_flows(scenario, phi)
    except (NoFeasibleStrategy, CapacityExceeded) as err:
        raise NoFeasibleStrategy(f"no feasible on-path placement: {err}") from err
    return BaselineResult(name="spoc", phi=phi, state=state, feasible=True)


def lcof(scenario: Scenario, config: GpConfig | None = None) -> BaselineResult:
    """Local Computation, Optimal Forwarding.

    Every source runs the full chain locally; only the final-result
    forwarding rows are then optimized by gradient projection.
    """
    import dataclasses

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
    finals = {(a.id, a.K) for a in comp.apps}
    cfg = config or GpConfig(tol=1e-7, max_iters=4000)
    cfg = dataclasses.replace(cfg, row_filter=lambda key: key in finals)
    res = run_gp(scenario, phi, cfg)
    return BaselineResult(name="lcof", phi=res.phi, state=res.state, feasible=True)


def lpr_sc(scenario: Scenario) -> BaselineResult:
    """Linear-program-style rounding extended to service chains.

    Per application, one computation node per task is chosen by minimizing a
    linear, congestion-blind estimate: zero-flow link marginals along
    shortest paths for every chain segment plus w * C'(0) per task. Routing
    is integral along those shortest paths. The resulting plan is evaluated
    with the true nonlinear costs; a blown capacity is reported as an
    infinite-cost result.
    """
    comp = compiled(scenario)
    metric = comp.zero_flow_link_metric()
    Cp0 = comp.cpus.deriv(np.zeros(comp.n))
    n = comp.n
    # all-pairs zero-flow distances and per-target successor trees
    dist_to = np.zeros((n, n))   # dist_to[u, v]: cost u -> v
    succ_to = np.zeros((n, n), dtype=int)
    for v in range(n):
        targets = np.zeros(n, dtype=bool)
        targets[v] = True
        d, s = _successor_tree(comp, metric, targets)
        dist_to[:, v] = d
        succ_to[:, v] = s
    phi = Strategy.zeros(scenario)
    for app in comp.apps:
        rate_total = float(app.r.sum())
        if app.K == 0:
            phi.rows[(app.id, 0)] = tree_rows(comp, app, 0, succ_to[:, app.dest])
            continue
        # DP over task placements; layer k holds the best cost of finishing
        # tasks 1..k+1 with task k+1 at node v
        def task_cost(k):
            with np.errstate(invalid="ignore"):
                return np.where(np.isfinite(app.w[:, k]),
                                app.w[:, k] * Cp0, np.inf) * rate_total

        data = np.zeros(n)
        for s in np.flatnonzero(app.r > 0):
            data += app.r[s] * app.L[0] * dist_to[s, :]
        best = data + task_cost(0)
        back = np.full((app.K, n), -1, dtype=int)
        for k in range(1, app.K):
            hop = rate_total * app.L[k] * dist_to   # (u, v)
            cand = best[:, None] + hop
            back[k] = np.argmin(cand, axis=0)
            best = cand[back[k], np.arange(n)] + task_cost(k)
        final = best + rate_total * app.L[app.K] * dist_to[:, app.dest]
        if not np.isfinite(final).any():
            raise NoFeasibleStrategy(f"no placement can run the chain of {app.id}")
        sites = [int(np.argmin(final))]
        for k in range(app.K - 1, 0, -1):
            sites.append(int(back[k][sites[-1]]))
        sites.reverse()   # sites[k] hosts task k+1
        # integral routing: stage k heads for sites[k], final stage for dest
        for k in range(app.K + 1):
            target = app.dest if k == app.K else sites[k]
            compute_at = None
            if k < app.K:
                compute_at = np.zeros(n, dtype=bool)
                compute_at[sites[k]] = True
            phi.rows[(app.id, k)] = tree_rows(comp, app, k, succ_to[:, target],
                                              compute_at=compute_at)
    try:
        state = compute_flows(scenario, phi)
    except CapacityExceeded as err:
        return BaselineResult(name="lpr-sc", phi=phi, state=None, feasible=False,
                              reason=str(err))
    return BaselineResult(name="lpr-sc", phi=phi, state=state, feasible=True)


BASELINES = {"spoc": spoc, "lcof": lcof, "lpr-sc": lpr_sc}
