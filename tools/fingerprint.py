"""Print a fingerprint of chainflow's results, one line per result.

Each line holds the repr of costs, a GP cost trace or its per-slot gaps, or
a numeric summary of strategy rows: per stage, a fixed-weight dot product
of the stage's dense row block. Two checkouts whose results must agree are
compared with tools/fpdiff.py, which wants counts, flags and oracle lines
equal and every other number equal to 1e-12 relative:

    PYTHONPATH=/path/to/parent/src python3 tools/fingerprint.py > before.txt
    PYTHONPATH=src python3 tools/fingerprint.py > after.txt
    python3 tools/fpdiff.py before.txt after.txt

It covers cold GP at the benchmark-study settings (tol 1e-4, 1000 slots) on
sw-queue draws 1 and 3 with their hop metrics; the oracle, its
strategy_from_flows strategy, SPOC, LCOF and LPR-SC on draw 1; and a fixed
sequence of rate, link-down and link-up events on Abilene draw 1, each
re-solved by a warm adapt, with an admission-control run_gp_cc solve after
some of them. It also covers the zero-flow shortest-path trees: both
init_strategy modes and the LPR-SC rows on every TABLE_ROWS row at seeds
1-5, and SPOC on Abilene draw 1. Takes no options; about 20 s on one core
of a 2-core Xeon VM.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from chainflow import (BASELINES, TABLE_ROWS, AlphaFair, ChainflowError, GpConfig, Graph,
                       Scenario, adapt, build_scenario, extend_scenario, hop_metrics,
                       init_strategy, lpr_sc, run_gp, run_gp_cc, solve_flow_domain, spoc,
                       strategy_from_flows, table_row)

GP = dict(tol=1e-4, max_iters=1000)
EVENT_CYCLES = 8
PATTERN = ("rate", "rate", "down", "rate", "rate", "up")
ADMIT_AFTER = (1, 4)


def rows_summary(phi) -> str:
    """Per stage, in key order, the dot product of its row block with fixed
    weights in [1, 2): equal rows give equal numbers, whatever order the
    engine summed in."""
    out = []
    for key in sorted(phi.rows, key=repr):
        mat = phi.rows[key]
        weights = np.random.default_rng(len(out)).uniform(1.0, 2.0, size=mat.shape)
        out.append(float(np.sum(mat * weights)))
    return repr(out)


def gp_lines(tag, res):
    print(tag, "trace", repr(res.trace))
    print(tag, "gaps", repr([row["max_gap"] for row in res.history]))
    print(tag, "result", repr((res.iterations, res.converged, res.final_gap)),
          rows_summary(res.phi))


def sw_queue():
    for draw in (1, 3):
        s = build_scenario(table_row("sw-queue"), draw)
        res = run_gp(s, config=GpConfig(**GP))
        gp_lines(f"sw-queue/{draw} gp", res)
        m = hop_metrics(s, res.phi, res.state)
        print(f"sw-queue/{draw} hops", repr((m.H_data, m.H_result)))
    s = build_scenario(table_row("sw-queue"), 1)
    opt = solve_flow_domain(s, tol=1e-6)
    print("sw-queue/1 oracle", repr((opt.total_cost, opt.iterations, opt.gap)))
    print("sw-queue/1 strategy_from_flows", rows_summary(strategy_from_flows(s, opt.flows)))
    for name in ("spoc", "lcof", "lpr-sc"):
        res = BASELINES[name](s)
        print(f"sw-queue/1 {name}", repr(res.total_cost), rows_summary(res.phi))


def without_link(s, base, link, present):
    """Copy of s with the undirected link removed (or restored from base)."""
    pair = {link, link[::-1]}
    links = s.graph.links | pair if present else s.graph.links - pair
    costs = {l: base.link_costs[l] for l in links}
    return Scenario(graph=Graph(nodes=s.graph.nodes, links=frozenset(links)),
                    applications=s.applications, link_costs=costs,
                    comp_costs=s.comp_costs, input_rates=dict(s.input_rates),
                    seed=s.seed, name=s.name)


def busiest_removable_link(s, state):
    """The most-loaded undirected link whose removal keeps s connected."""
    g = nx.Graph(list(s.graph.links))
    index = {v: i for i, v in enumerate(state.nodes)}
    for u, v in sorted(s.graph.links, key=lambda l: (-state.link_bits[index[l[0]], index[l[1]]],
                                                      repr(l))):
        g.remove_edge(u, v)
        connected = nx.is_connected(g)
        g.add_edge(u, v)
        if connected:
            return (u, v)
    raise RuntimeError("no removable link")


def abilene():
    base = build_scenario(table_row("abilene"), 1)
    cfg = GpConfig(**GP)
    res = run_gp(base, config=cfg)
    gp_lines("abilene cold", res)
    rng = np.random.default_rng(2)
    keys = sorted(base.input_rates, key=repr)
    cur, phi, state, removed = base, res.phi, res.state, None
    for e in range(EVENT_CYCLES * len(PATTERN)):
        kind = PATTERN[e % len(PATTERN)]
        if kind == "rate":
            jitter = rng.uniform(-0.05, 0.05, size=len(keys))
            nxt = cur.with_rates({k: base.input_rates[k] * (1 + j) for k, j in zip(keys, jitter)})
        elif kind == "down":
            removed = busiest_removable_link(cur, state)
            nxt = without_link(cur, base, removed, present=False)
        else:
            nxt = without_link(cur, base, removed, present=True)
        tag = f"abilene event {e} {kind}"
        try:
            res = adapt(cur, nxt, phi, cfg)
        except ChainflowError as err:
            print(tag, "raised", type(err).__name__)
        else:
            gp_lines(tag, res)
            cur, phi, state = nxt, res.phi, res.state
        if e % len(PATTERN) in ADMIT_AFTER:
            caps = {k: 2.0 * r for k, r in cur.input_rates.items()}
            ext = extend_scenario(cur, caps, {k: AlphaFair(1.0, cap=c) for k, c in caps.items()})
            cc = run_gp_cc(ext, cfg)
            print(tag, "admission", repr(cc.trace), repr(cc.utility_minus_cost),
                  repr((cc.iterations, cc.converged, cc.final_gap)), rows_summary(cc.phi))


def trees():
    """Strategies built on zero-flow shortest-path trees, whose ties the
    search breaks: they must match row for row."""
    for row in TABLE_ROWS:
        for seed in range(1, 6):
            s = build_scenario(dict(row), seed)
            tag = f"trees {row['name']}/{seed}"
            for mode in ("shortest_path_then_local_comp", "shortest_path_comp_at_destination"):
                try:
                    phi = init_strategy(s, mode=mode, require_finite=False)
                except ChainflowError as err:
                    print(tag, mode, "raised", type(err).__name__)
                else:
                    print(tag, mode, rows_summary(phi))
            try:
                res = lpr_sc(s)
            except ChainflowError as err:
                print(tag, "lpr-sc raised", type(err).__name__)
            else:
                print(tag, "lpr-sc", repr(res.total_cost), rows_summary(res.phi))
    res = spoc(build_scenario(table_row("abilene"), 1))
    print("trees abilene/1 spoc", repr(res.total_cost), rows_summary(res.phi))


if __name__ == "__main__":
    sw_queue()
    abilene()
    trees()
