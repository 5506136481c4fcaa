"""Print how closely warm adapt tracks a trace of changes on Abilene, per
number of slots it runs per event.

    PYTHONPATH=src python3 tools/online_track.py

The trace is criterion c12's: 36 events on Abilene draw 1 (rate, rate,
link down, rate, rate, link up; every rate event jitters the base rates by
up to 5%). The down events remove the most loaded link at the cold optimum
whose removal keeps the graph connected. Each event is re-solved by a warm
adapt from the strategy left by the previous one, with k = 1, 2, 4 and 8
slots per event and then at the c04 settings (tol 1e-4, 1000 slots), the
`tol` line. A line gives k, the mean and the worst excess over the events'
optima (solve_flow_domain at tol 1e-9), and the adapt slots that made a
step and the candidate evaluations over the trace (gp_work.work). The
numbers depend on no timing, so two checkouts compare directly. Takes about
1 s on one core of a 2-core Xeon VM.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import numpy as np

from chainflow import (GpConfig, Graph, Scenario, adapt, build_scenario, run_gp,
                       solve_flow_domain, table_row)
from chainflow.experiments import _gp_config
from chainflow.flows import compiled

_spec = importlib.util.spec_from_file_location("gp_work", Path(__file__).with_name("gp_work.py"))
gp_work = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gp_work)

EVENTS = 36
# the slots per event, then the c04 settings
LADDER = [*((str(k), GpConfig(tol=1e-4, max_iters=k)) for k in (1, 2, 4, 8)),
          ("tol", _gp_config({}))]


def trace():
    """(base, cold, events): Abilene draw 1, its cold GP result at the c04
    settings and the scenarios after each of the trace's events."""
    base = build_scenario(table_row("abilene"), seed=1)
    cold = run_gp(base, config=_gp_config({}))
    comp = compiled(base)

    def without(s, gone):
        links = base.graph.links - gone
        return Scenario(graph=Graph(nodes=base.graph.nodes, links=links),
                        applications=s.applications, comp_costs=s.comp_costs,
                        link_costs={l: c for l, c in base.link_costs.items() if l in links},
                        input_rates=s.input_rates)

    # the down events remove the most loaded link at the cold optimum whose
    # removal keeps the graph connected (Graph raises ValueError otherwise)
    for e in np.argsort(-cold.state.edge_bits, kind="stable"):
        u, v = comp.nodes[comp.src[e]], comp.nodes[comp.dst[e]]
        try:
            without(base, {(u, v), (v, u)})
            break
        except ValueError:
            continue
    rng = np.random.default_rng(12)
    keys = sorted(base.input_rates, key=str)
    cur, events = base, []
    for e in range(EVENTS):
        kind = ("rate", "rate", "down", "rate", "rate", "up")[e % 6]
        if kind == "rate":
            jitter = rng.uniform(-0.05, 0.05, size=len(keys))
            cur = cur.with_rates({k: base.input_rates[k] * (1 + j) for k, j in zip(keys, jitter)})
        elif kind == "down":
            cur = without(cur, {(u, v), (v, u)})
        else:
            cur = base.with_rates(cur.input_rates)
        events.append(cur)
    return base, cold, events


def track(base, phi, events, optima, config):
    """Warm adapt through `events` from phi on base at `config`: (excess,
    slots, candidates), the excess of each event's cost over its optimum in
    `optima` (results with total_cost) and the work summed over the
    events."""
    prev, excess, slots, candidates = base, [], 0, 0
    for s, opt in zip(events, optima):
        res = adapt(prev, s, phi, config)
        prev, phi = s, res.phi
        excess.append(res.total_cost / opt.total_cost - 1.0)
        done, tried = gp_work.work(res)
        slots, candidates = slots + done, candidates + tried
    return excess, slots, candidates


def main():
    base, cold, events = trace()
    optima = [solve_flow_domain(s, tol=1e-9) for s in events]
    print(f"{'k':>4} {'mean excess':>12} {'worst excess':>12} {'slots':>6} {'candidates':>10}")
    for label, config in LADDER:
        excess, slots, candidates = track(base, cold.phi, events, optima, config)
        print(f"{label:>4} {np.mean(excess):>12.3e} {max(excess):>12.3e} {slots:>6} {candidates:>10}")


if __name__ == "__main__":
    main()
