"""Flow-weighted hop-count metrics.

H_data is the expected number of link hops a raw data packet travels from its
injection point to the node that runs the first task on it; H_result the
expected hops of a final-result packet from where it was generated to the
destination. Both are computed by forward accumulation of hop mass along the
stage's support DAG, weighted by the actual flows.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .flows import FlowState, Strategy, compiled, dag_sweep
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


def _hop_mass(P: np.ndarray, f: np.ndarray) -> np.ndarray:
    """Fixed point of M = P^T M + inflow: total (rate x hops) arriving at
    each node, where packets enter their stage with zero hops."""
    return dag_sweep(f.sum(axis=0), P.T)


def hop_metrics(scenario: Scenario, phi: Strategy, state: FlowState,
                iterations: int = 0) -> Metrics:
    comp = compiled(scenario)
    data_num = data_den = 0.0
    res_num = res_den = 0.0
    for app in comp.apps:
        key0 = (app.id, 0)
        mat0 = phi.rows[key0]
        if app.K > 0:
            M = _hop_mass(mat0[:, 1:], state.link_flows[key0])
            data_num += float(np.sum(mat0[:, 0] * M))
            data_den += float(state.cpu_flows[key0].sum())
        keyK = (app.id, app.K)
        matK = phi.rows[keyK]
        M = _hop_mass(matK[:, 1:], state.link_flows[keyK])
        res_num += float(M[app.dest])
        res_den += float(state.traffic[keyK][app.dest])
    return Metrics(total_cost=state.total_cost,
                   H_data=data_num / data_den if data_den > 0 else 0.0,
                   H_result=res_num / res_den if res_den > 0 else 0.0,
                   iterations=iterations)
