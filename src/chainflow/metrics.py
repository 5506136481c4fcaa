"""Flow-weighted hop-count metrics.

H_data is the expected number of link hops a raw data packet travels from its
injection point to the node that runs the first task on it; H_result the
expected hops of a final-result packet from where it was generated to the
destination. Both are computed by forward accumulation of hop mass along the
stages' levels, weighted by the actual flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import FlowState, Strategy, compiled
from .network import Scenario


@dataclass
class Metrics:
    total_cost: float
    H_data: float
    H_result: float
    iterations: int = 0

    def to_jsonable(self) -> dict:
        return {"total_cost": self.total_cost, "H_data": self.H_data,
                "H_result": self.H_result, "iterations": self.iterations}


def hop_metrics(scenario: Scenario, phi: Strategy, state: FlowState,
                iterations: int = 0) -> Metrics:
    comp = compiled(scenario)
    # hop mass M = inflow + P^T M: total (rate x hops) arriving at each
    # node, where packets enter their stage with zero hops
    M = comp.inflow(state.edge_flows)
    for k in range(len(comp.positions)):
        state.levels.solve(M, k, forward=True)
    c0 = phi.fractions(comp)[:, comp.seg]
    data_num = data_den = 0.0
    res_num = res_den = 0.0
    for app in comp.apps:
        s = app.s0
        if app.K > 0:
            data_num += float(np.sum(c0[s] * M[s]))
            data_den += float(state.cpu_stack[s].sum())
        res_num += float(M[s + app.K, app.dest])
        res_den += float(state.traffic_stack[s + app.K, app.dest])
    return Metrics(total_cost=state.total_cost,
                   H_data=data_num / data_den if data_den > 0 else 0.0,
                   H_result=res_num / res_den if res_den > 0 else 0.0,
                   iterations=iterations)
