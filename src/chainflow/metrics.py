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
    st = comp.stack
    # hop mass M = inflow + P^T M: total (rate x hops) arriving at each
    # node, where packets enter their stage with zero hops
    M = st.inflow(state.edge_flows)
    for k in range(len(st.groups)):
        state.levels.solve(M, k, forward=True)
    c0 = phi.fractions(st)[:, st.seg]
    data_num = data_den = 0.0
    res_num = res_den = 0.0
    s = 0
    for app in comp.apps:
        if app.K > 0:
            data_num += float(np.sum(c0[s] * M[s]))
            data_den += float(state.cpu_stack[s].sum())
        s += app.K
        res_num += float(M[s, app.dest])
        res_den += float(state.traffic_stack[s, app.dest])
        s += 1
    return Metrics(total_cost=state.total_cost,
                   H_data=data_num / data_den if data_den > 0 else 0.0,
                   H_result=res_num / res_den if res_den > 0 else 0.0,
                   iterations=iterations)
