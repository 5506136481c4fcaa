"""Record the reference optima the benchmark checks its outputs against.

    python3 perfbench/make_reference.py

Run once, on the commit that defines the benchmark; later commits must keep
matching it. For every panel draw it stores the oracle optimum and its
duality gap and which baselines are feasible; for abilene-online it stores
the links that down events may remove and the oracle optimum after every
event of each of the workloads.ONLINE_TRACES traces (a seed runs trace
seed % ONLINE_TRACES, so every seed has stored references). The GP
tolerance is derived from the GP-oracle agreement measured on the same
problems.
"""

import json
import os

from worker import HERE, import_chainflow

import_chainflow()
import networkx as nx  # noqa: E402

import chainflow  # noqa: E402
import workloads  # noqa: E402

ORACLE_REL_TOL = 1e-9      # oracle optima must not move by more than this, relative
GP_TOL_MARGIN = 100.0      # GP tolerance = margin x worst measured agreement
TOPOLOGY_CHOICES = 3
OUT = os.path.join(HERE, "reference.json")


def panel_refs(agreement):
    out = {}
    draws = [("sw-queue", d) for d in workloads.SWQ_PANEL]
    draws += [("abilene", d) for d in workloads.SMOKE_PANEL]
    cfg = workloads.gp_config()
    for row, draw in draws:
        s = chainflow.build_scenario(chainflow.table_row(row), draw)
        orc = chainflow.solve_flow_domain(s, tol=workloads.ORACLE_TOL)
        gp = chainflow.experiments.run_algorithm("gp", s, cfg)
        agreement.append(abs(gp["T"] - orc.total_cost) / orc.total_cost)
        feasible = {alg: chainflow.experiments.run_algorithm(alg, s, cfg)["feasible"]
                    for alg in workloads.SwqBaselines.baselines}
        out[f"{row}/{draw}"] = {"T": orc.total_cost, "gap": float(orc.gap),
                                "feasible": feasible}
        print(f"{row}/{draw}: T={orc.total_cost!r} gap={orc.gap:.3g} "
              f"gp_rel={agreement[-1]:.3g} {feasible}", flush=True)
    return out


def topology_choices(base):
    """Most-loaded links at the GP optimum whose removal keeps the graph
    connected."""
    res = chainflow.run_gp(base, config=workloads.gp_config())
    comp = chainflow.flows.compiled(base)
    F = res.state.link_bits
    g = nx.Graph(list(base.graph.links))
    ranked = sorted(((F[comp.index[u], comp.index[v]] + F[comp.index[v], comp.index[u]],
                      str(u), str(v)) for (u, v) in base.graph.links if str(u) < str(v)),
                    reverse=True)
    links = []
    for _, u, v in ranked:
        h = g.copy()
        h.remove_edge(u, v)
        if nx.is_connected(h):
            links.append([u, v])
        if len(links) == TOPOLOGY_CHOICES:
            return links
    raise RuntimeError("too few removable links")


def online_refs(agreement):
    base = chainflow.build_scenario(chainflow.table_row("abilene"), workloads.ONLINE_DRAW)
    orc = chainflow.solve_flow_domain(base, tol=workloads.ORACLE_TOL)
    online = {"base": {"T": orc.total_cost, "gap": float(orc.gap)},
              "links": topology_choices(base), "events": {}}
    refs = {"online": online}
    for trace in range(workloads.ONLINE_TRACES):
        wl = workloads.AbileneOnline(trace, smoke=False)
        built = wl.build(refs)
        run = workloads.Run()
        wl.round(built, run)
        optima = []
        for ev in built[1]:
            res = chainflow.solve_flow_domain(ev.scenario, tol=workloads.ORACLE_TOL)
            optima.append(res.total_cost)
        for ev, res in run.outcomes:
            # a run that stopped early says nothing about agreement
            if ev is not None and not isinstance(res, chainflow.CcResult) and res.converged:
                T = optima[ev.index]
                agreement.append(abs(res.total_cost - T) / T)
        online["events"][str(trace)] = optima
        print(f"online trace {trace}: {len(optima)} events, worst gp_rel so far "
              f"{max(agreement):.3g}", flush=True)
    return online


def main():
    agreement = []
    panels = panel_refs(agreement)
    online = online_refs(agreement)
    worst = max(agreement)
    refs = {
        "tolerances": {"oracle_rel": ORACLE_REL_TOL, "gp_rel": GP_TOL_MARGIN * worst,
                       "gp_oracle_worst_rel": worst},
        "panels": panels,
        "online": online,
    }
    with open(OUT, "w", encoding="utf-8") as fh:
        json.dump(refs, fh, indent=1)
        fh.write("\n")
    print(f"wrote {OUT}: gp_rel tolerance {GP_TOL_MARGIN * worst:.3g}")


if __name__ == "__main__":
    main()
