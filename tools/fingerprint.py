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
strategy_from_flows strategy, SPOC, LCOF and LPR-SC on draw 1; the oracle
and SPOC on sw-linear draw 1, whose Linear costs let the greedy start reuse
every search after an application's first; run_gp started from
robust_start's greedy loading on a 3-node line where no init_strategy
mode fits, and the oracle on a tight-CPU random draw whose greedy start
splits a block, as the greedy paths the rows above never take; a fixed
sequence of rate, link-down and link-up events on Abilene draw 1, each
re-solved by a warm adapt, with an admission-control run_gp_cc solve after
some of them; and LCOF, the oracle and SPOC on Abilene draw 2 with packet
sizes (3, 2, 1), whose final results cost something to forward, so that
LCOF's GP run moves rows (on the table rows LCOF returns its start) and the
oracle's searches reuse no final-position result. Both oracle solves print
their whole cost and gap traces. It also covers the zero-flow
shortest-path trees: both init_strategy modes and the LPR-SC rows on every
TABLE_ROWS row at seeds 1-5, and SPOC on Abilene draw 1. The optimality
checkers print their verdicts and full violation lists at GP slot 0 and at
the final slot on sw-queue draw 1 and Abilene draw 1, and on random
loop-free strategies of small random scenarios, which also give
max_conservation_residual (with and without a rate override) and
validate_strategy on perturbed copies. Last come adapt's repaired starts
(max_iters=0) on Abilene draw 1 after a link goes down, a node is removed,
a node loses its CPU and a node is added.
Takes no options; about 12 s on one core of a 2-core Xeon VM.
"""

from __future__ import annotations

import networkx as nx
import numpy as np

from chainflow import (BASELINES, TABLE_ROWS, AlphaFair, Application, ChainflowError, CostSpec,
                       GpConfig, Graph, Linear, Queue, Scenario, Strategy, adapt, build_scenario,
                       check_kkt, check_sufficient, compute_flows, extend_scenario,
                       generate_topology, hop_metrics, init_strategy, lcof, lpr_sc,
                       max_conservation_residual, run_gp, run_gp_cc, sample_scenario,
                       solve_flow_domain, spoc, strategy_from_flows, table_row,
                       validate_strategy)

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


def oracle_lines(tag, s):
    """The oracle's result and its cost and gap traces, on lines tagged
    " oracle ", which tools/fpdiff.py compares byte for byte: the whole
    trajectory must repeat, not only where it ends."""
    opt = solve_flow_domain(s, tol=1e-6)
    print(tag, "oracle", repr((opt.total_cost, opt.iterations, opt.gap)))
    print(tag, "oracle trace", repr(opt.cost_trace), repr([float(g) for g in opt.gap_trace]))
    return opt


def checker_lines(tag, s, phi):
    """Verdicts and full violation lists of both optimality checkers."""
    for name, check in (("kkt", check_kkt), ("sufficient", check_sufficient)):
        res = check(s, phi)
        print(tag, name, repr(res.holds), repr(res.violations))


def checked_gp(tag, s):
    """Cold GP with the checkers run on its slot-0 and final strategies."""
    starts = []

    def keep_start(slot, phi, state):
        if slot == 0:
            starts.append(phi)

    res = run_gp(s, config=GpConfig(**GP, on_iterate=keep_start))
    checker_lines(f"{tag} slot 0", s, starts[0])
    checker_lines(f"{tag} final", s, res.phi)
    print(tag, "residual", repr(max_conservation_residual(s, res.state)))
    return res


def sw_queue():
    for draw in (1, 3):
        s = build_scenario(table_row("sw-queue"), draw)
        if draw == 1:
            res = checked_gp(f"sw-queue/{draw} gp", s)
        else:
            res = run_gp(s, config=GpConfig(**GP))
        gp_lines(f"sw-queue/{draw} gp", res)
        m = hop_metrics(s, res.phi, res.state)
        print(f"sw-queue/{draw} hops", repr((m.H_data, m.H_result)))
    s = build_scenario(table_row("sw-queue"), 1)
    opt = oracle_lines("sw-queue/1", s)
    print("sw-queue/1 strategy_from_flows", rows_summary(strategy_from_flows(s, opt.flows)))
    for name in ("spoc", "lcof", "lpr-sc"):
        res = BASELINES[name](s)
        print(f"sw-queue/1 {name}", repr(res.total_cost), rows_summary(res.phi))


def sw_linear():
    """The oracle and SPOC on sw-linear draw 1. Linear costs keep every
    marginal, so the greedy start of both reuses each application's first
    search for all its sources."""
    s = build_scenario(table_row("sw-linear"), 1)
    oracle_lines("sw-linear/1", s)
    res = spoc(s)
    print("sw-linear/1 spoc", repr(res.total_cost), rows_summary(res.phi))


def greedy_splits():
    """The greedy start where a whole placement of a source does not fit:
    run_gp from robust_start's greedy loading on the line 1 - 2 - 3 whose
    two CPUs (Queue(0.8), at the ends) cannot run the unit rate alone, so
    no init_strategy mode is feasible; and the oracle on the tight-CPU
    random draw 25 (test_acceptance's loaded-scenario recipe), whose greedy
    start rejects a whole placement and splits the block."""
    g = Graph.from_undirected_edges([1, 2, 3], [(1, 2), (2, 3)])
    app = Application(id="a", chain_length=1, destination=3, packet_sizes=(1.0, 1.0))
    s = Scenario(graph=g, applications=(app,), link_costs={e: Linear(1.0) for e in g.links},
                 comp_costs={1: Queue(0.8), 2: None, 3: Queue(0.8)},
                 input_rates={(1, "a"): 1.0})
    gp_lines("line 1-2-3 greedy gp", run_gp(s, config=GpConfig(**GP)))
    rng = np.random.default_rng(1000 + 25)
    n = int(rng.integers(6, 13))
    topo = generate_topology("connected_er", {"n": n, "p": 0.3}, seed=25)
    spec = CostSpec(link_kind="queue", link_bound=18.0, comp_kind="queue", comp_bound=8.0)
    s = sample_scenario(topo, int(rng.integers(2, 4)), 2, min(3, n), (0.5, 1.5), spec, seed=25)
    oracle_lines("loaded/25", s)


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
    res = checked_gp("abilene cold", base)
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
    s = build_scenario(dict(table_row("abilene"), packet_sizes=[3, 2, 1]), 2)
    res = lcof(s)
    print("abilene/2 sizes 3,2,1 lcof", repr(res.total_cost), rows_summary(res.phi))
    oracle_lines("abilene/2 sizes 3,2,1", s)
    res = spoc(s)
    print("abilene/2 sizes 3,2,1 spoc", repr(res.total_cost), rows_summary(res.phi))


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


def random_loopfree(s, rng, full_support):
    """Random loop-free strategy built through the public API: per stage,
    fractions only follow a random order that puts every node after some
    neighbour closer to the destination, so the support is a DAG."""
    g = nx.DiGraph(list(s.graph.links))
    g.add_nodes_from(s.graph.nodes)
    phi = Strategy.zeros(s)
    for app in s.applications:
        hops = nx.shortest_path_length(g.reverse(), app.destination)
        for k in range(app.chain_length + 1):
            jitter = dict(zip(s.graph.nodes, rng.random(len(s.graph.nodes))))
            order = sorted(s.graph.nodes, key=lambda v: (-hops[v], jitter[v], repr(v)))
            pos = {v: p for p, v in enumerate(order)}
            for v in s.graph.nodes:
                if k == app.chain_length and v == app.destination:
                    continue
                dests = [u for u in sorted(g.successors(v), key=pos.get) if pos[u] > pos[v]]
                if (k < app.chain_length and s.comp_costs.get(v) is not None
                        and np.isfinite(app.weight(v, k))):
                    dests.insert(0, "cpu")
                w = rng.uniform(0.2, 1.0, size=len(dests))
                if not full_support and len(dests) > 1 and rng.random() < 0.5:
                    w[rng.choice(len(dests), size=int(rng.integers(1, len(dests))),
                                 replace=False)] = 0.0
                phi.set_row(v, app.id, k, {d: f for d, f in zip(dests, w / w.sum()) if f > 0})
    return phi


def perturbed(s, phi):
    """(name, copy of phi with one defect) for each defect validate_strategy
    reports on directions the scenario has."""
    app = s.applications[0]
    final = (app.id, app.chain_length)
    dest = app.destination
    v = next(u for u in s.graph.nodes if u != dest)
    to_v = sorted(u for (w, u) in s.graph.links if w == v)[0]
    to_dest = sorted(u for (w, u) in s.graph.links if w == dest)[0]
    edits = {
        "negative": lambda p: p.set_row(v, app.id, 0, {"cpu": 1.5, to_v: -0.5}),
        "short": lambda p: p.set_row(v, app.id, 0, {to_v: 0.7}),
        "final cpu": lambda p: p.set_row(v, *final, {"cpu": 0.25, to_v: 0.75}),
        "destination row": lambda p: p.set_row(dest, *final, {to_dest: 1.0}),
        "missing": lambda p: p.rows.pop((app.id, 0)),
        "misshaped": lambda p: p.rows.__setitem__(final, np.zeros((2, 2))),
    }
    out = []
    for name, edit in edits.items():
        bad = phi.copy()
        edit(bad)
        out.append((name, bad))
    return out


def random_checks():
    """Checkers, conservation residuals and validation on random loop-free
    strategies of small random scenarios."""
    rng = np.random.default_rng(11)
    for seed in range(1, 7):
        topo = generate_topology("connected_er", {"n": 8, "p": 0.3}, seed=seed)
        s = sample_scenario(topo, 2, 2, 2, (0.5, 1.5),
                            CostSpec(link_bound=60.0, comp_bound=40.0), seed=seed)
        rates = {pair: 0.5 * r for pair, r in s.input_rates.items()}
        for full in (False, True):
            tag = f"random {seed} full={full}"
            phi = random_loopfree(s, rng, full)
            try:
                checker_lines(tag, s, phi)
                print(tag, "residual", repr(max_conservation_residual(
                    s, compute_flows(s, phi))), repr(max_conservation_residual(
                        s, compute_flows(s, phi, rates=rates), rates=rates)))
            except ChainflowError as err:
                print(tag, "raised", type(err).__name__)
            print(tag, "valid", repr(validate_strategy(s, phi)))
            for name, bad in perturbed(s, phi):
                print(tag, name, repr(validate_strategy(s, bad)))


def edited(s, nodes=None, links=None, comp_costs=None):
    """Copy of s with the given nodes, links or CPU costs. Links and input
    rates of removed nodes go too; a new link costs Linear(1) and a new
    node's CPU Queue(8)."""
    nodes = tuple(s.graph.nodes if nodes is None else nodes)
    links = frozenset(l for l in (s.graph.links if links is None else links)
                      if l[0] in nodes and l[1] in nodes)
    comp = dict(s.comp_costs if comp_costs is None else comp_costs)
    return Scenario(graph=Graph(nodes=nodes, links=links), applications=s.applications,
                    link_costs={l: s.link_costs.get(l, Linear(1.0)) for l in links},
                    comp_costs={v: comp.get(v, Queue(8.0)) for v in nodes},
                    input_rates={p: r for p, r in s.input_rates.items() if p[0] in nodes},
                    seed=s.seed, name=s.name)


def repairs():
    """adapt's repaired starts after topology events on Abilene draw 1."""
    base = build_scenario(table_row("abilene"), 1)
    res = run_gp(base, config=GpConfig(**GP))
    state = res.state
    dests = {a.destination for a in base.applications}
    g = nx.Graph(list(base.graph.links))
    down = busiest_removable_link(base, state)
    by_load = sorted(base.graph.nodes, key=lambda v: (-state.G(v), repr(v)))
    gone = next(v for v in by_load
                if v not in dests and nx.is_connected(g.subgraph(set(g) - {v})))
    light = [v for v in by_load if state.G(v) > 0][-1]
    added = "Boston"
    near = sorted(base.graph.nodes)[:2]
    events = {
        "link down": edited(base, links=base.graph.links - {down, down[::-1]}),
        "node removed": edited(base, nodes=[v for v in base.graph.nodes if v != gone]),
        "cpu lost": edited(base, comp_costs={**base.comp_costs, light: None}),
        "node added": edited(base, nodes=sorted(base.graph.nodes + (added,)),
                             links=base.graph.links | {(added, u) for u in near}
                             | {(u, added) for u in near}),
    }
    for name, s in events.items():
        tag = f"repair abilene/1 {name}"
        try:
            start = adapt(base, s, res.phi, GpConfig(**dict(GP, max_iters=0)))
        except ChainflowError as err:
            print(tag, "raised", type(err).__name__)
            continue
        print(tag, "trace", repr(start.trace), repr(validate_strategy(s, start.phi)),
              rows_summary(start.phi))
        checker_lines(tag, s, start.phi)


if __name__ == "__main__":
    sw_queue()
    sw_linear()
    greedy_splits()
    abilene()
    trees()
    random_checks()
    repairs()
