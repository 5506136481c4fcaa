"""The stacked flow engine against an independent dense reference.

The reference solves every stage on its own, with dense (n, n+1) rows:
traffic from (I - P^T) t = b and marginals from (I - P) lam = base by
np.linalg.solve, costs from the cost functions themselves, and the slot
update (modified marginals, blocked sets, sufficient gap, gp_step) as
per-stage dense array code. The engine sums in other orders, so results
agree to 1e-12 relative, not bit for bit.
"""

import re

import numpy as np
import pytest

from chainflow import (Application, GpConfig, Linear, LoopDetected, Queue, Scenario,
                       blocked_sets, compute_flows, detect_loops, generate_topology, gp_step,
                       modified_marginals, traffic_marginals)
from chainflow.gp import sufficient_gap
from chainflow.flows import compiled

from conftest import random_loopfree_strategy, random_scenario

REL = 1e-12
BLOCK_REL = 1e-9     # marginals._BLOCK_REL
TIE_REL = 1e-11      # gp._TIE_REL


# ---------------------------------------------------------------------------
# dense reference
# ---------------------------------------------------------------------------

def _value(c, x):
    return c.slope * x if isinstance(c, Linear) else x / (c.capacity - x)


def _prime(c, x):
    return c.slope if isinstance(c, Linear) else c.capacity / (c.capacity - x) ** 2


def _stages(s):
    """(key, app, k, L_k, w_k or None, input rates) per stage, in stage order."""
    nodes = list(s.graph.nodes)
    out = []
    for app in s.applications:
        for k in range(app.chain_length + 1):
            w = None
            if k < app.chain_length:
                w = np.array([app.weight(v, k) if s.comp_costs.get(v) is not None else np.inf
                              for v in nodes])
            r = np.array([s.rate(v, app.id) for v in nodes])
            out.append(((app.id, k), app, k, app.packet_sizes[k], w, r))
    return out


def reference(s, phi, rates=None, extra=None):
    """Traffic, link and CPU flows, F, G, total cost and marginals."""
    nodes = list(s.graph.nodes)
    n = len(nodes)
    idx = {v: i for i, v in enumerate(nodes)}
    I = np.eye(n)
    traffic, flows, cpu = {}, {}, {}
    F, G = np.zeros((n, n)), np.zeros(n)
    prev = None
    for key, app, k, L, w, r in _stages(s):
        mat = phi.rows[key]
        P, c0 = mat[:, 1:], mat[:, 0]
        if k == 0:
            b = r if rates is None else np.array([rates.get((v, app.id), 0.0) for v in nodes])
        else:
            b = prev.copy()
        b = b.astype(float)
        for (node, stage), rate in (extra or {}).items():
            if stage == key:
                b[idx[node]] += rate
        t = np.linalg.solve(I - P.T, b)
        traffic[key], flows[key], cpu[key] = t, t[:, None] * P, t * c0
        F += L * flows[key]
        if w is not None:
            G += np.where(cpu[key] > 0, w, 0.0) * cpu[key]
        prev = cpu[key]
    total = sum(_value(s.link_costs[(u, v)], F[idx[u], idx[v]]) for (u, v) in s.graph.links)
    total += sum(_value(c, G[idx[v]]) for v, c in s.comp_costs.items() if c is not None)
    Dp = np.zeros((n, n))
    for (u, v) in s.graph.links:
        Dp[idx[u], idx[v]] = _prime(s.link_costs[(u, v)], F[idx[u], idx[v]])
    Cp = np.array([0.0 if s.comp_costs.get(v) is None else _prime(s.comp_costs[v], G[i])
                   for i, v in enumerate(nodes)])
    lam = {}
    for key, app, k, L, w, r in reversed(_stages(s)):
        mat = phi.rows[key]
        P, c0 = mat[:, 1:], mat[:, 0]
        base = (P * (L * Dp)).sum(axis=1)
        if w is not None:
            on = c0 > 0
            base[on] += c0[on] * (w[on] * Cp[on] + lam[(app.id, k + 1)][on])
        lam[key] = np.linalg.solve(I - P, base)
    return dict(traffic=traffic, link_flows=flows, cpu_flows=cpu, F=F, G=G, total=total,
                marginals=lam, Dp=Dp, Cp=Cp)


def reference_slot(s, phi, ref, alpha):
    """Modified marginals, blocked masks, sufficient gap and next rows."""
    nodes = list(s.graph.nodes)
    n = len(nodes)
    adj = np.zeros((n, n), dtype=bool)
    for (u, v) in s.graph.links:
        adj[nodes.index(u), nodes.index(v)] = True
    lam, Dp, Cp = ref["marginals"], ref["Dp"], ref["Cp"]
    delta, masks, nxt = {}, {}, {}
    gap = 0.0
    for key, app, k, L, w, r in _stages(s):
        mat = phi.rows[key]
        d = np.full((n, n + 1), np.inf)
        if w is not None:
            ok = np.isfinite(w)
            d[ok, 0] = w[ok] * Cp[ok] + lam[(app.id, k + 1)][ok]
        d[:, 1:] = np.where(adj, L * Dp + lam[key][None, :], np.inf)
        delta[key] = d
        slack = BLOCK_REL * np.maximum(1.0, np.abs(lam[key]))
        higher = lam[key][None, :] > (lam[key] + slack)[:, None]
        support = mat[:, 1:] > 0
        flag = np.zeros(n, dtype=bool)
        for _ in range(n):   # fixed point of the downstream improper flag
            flag = (support & ((support & higher) | flag[None, :])).any(axis=1)
        masks[key] = ~adj | higher | flag[None, :]
        active = np.ones(n, dtype=bool)
        if w is None:
            active[nodes.index(app.destination)] = False
        dmin = np.min(d, axis=1)
        rowgap = np.where(mat > 1e-9, d - dmin[:, None], 0.0)[active]
        if rowgap.size:
            gap = max(gap, float(np.max(rowgap)))
        # only a direction without mass is blocked (Gallager 1977)
        B = np.zeros((n, n + 1), dtype=bool)
        B[:, 1:] = masks[key] & (mat[:, 1:] <= 0)
        avail = ~B & np.isfinite(d)
        new = mat.copy()
        for i in np.flatnonzero(active):
            dm = np.min(np.where(avail[i], d[i], np.inf))
            if not np.isfinite(dm):
                continue
            e = np.clip(d[i] - dm, 0.0, None)
            minimal = avail[i] & (e <= TIE_REL * max(1.0, abs(dm)))
            red = np.where(~minimal, np.minimum(mat[i], alpha * e), 0.0)
            row = mat[i] - red + minimal * (red.sum() / minimal.sum())
            new[i] = row / row.sum() if row.sum() > 0 else row
        nxt[key] = new
    return delta, masks, gap, nxt


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def mixed_scenario(seed, n=9):
    """Linear and queue costs, nodes without a CPU, a task some CPUs cannot
    run, zero-size final packets and chains of lengths 0, 1 and 3."""
    rng = np.random.default_rng(seed)
    g = generate_topology("connected_er", {"n": n, "p": 0.35}, seed=seed)
    nodes = list(g.nodes)

    def cost(lo, hi):
        return Queue(rng.uniform(lo, hi)) if rng.random() < 0.7 else Linear(rng.uniform(0.2, 2.0))

    link_costs = {link: cost(40.0, 80.0) for link in sorted(g.links)}
    comp_costs = {v: None if i % 3 == 1 else cost(30.0, 60.0) for i, v in enumerate(nodes)}
    with_cpu = [v for v in nodes if comp_costs[v] is not None]
    dests = [with_cpu[i] for i in rng.choice(len(with_cpu), size=3)]
    weights = {v: (1.0, np.inf if i % 4 == 0 else 2.0, 0.5) for i, v in enumerate(nodes)}
    weights[dests[2]] = (1.0, 1.0, 1.0)
    apps = (Application("short", 0, dests[0], (3.0,)),
            Application("one", 1, dests[1], (4.0, 0.0)),
            Application("long", 3, dests[2], (5.0, 2.0, 1.0, 0.0), comp_weights=weights))
    rates = {(nodes[i], a.id): float(rng.uniform(0.2, 1.0))
             for a in apps for i in rng.choice(n, size=3, replace=False)}
    return Scenario(graph=g, applications=apps, link_costs=link_costs,
                    comp_costs=comp_costs, input_rates=rates)


def tightened(s, phi):
    """s with the busiest queue link and CPU at 99.5% of their capacity."""
    ref = reference(s, phi)
    idx = {v: i for i, v in enumerate(s.graph.nodes)}
    link_costs, comp_costs = dict(s.link_costs), dict(s.comp_costs)
    queues = [l for l, c in link_costs.items() if isinstance(c, Queue)]
    u, v = max(queues, key=lambda l: ref["F"][idx[l[0]], idx[l[1]]])
    link_costs[(u, v)] = Queue(ref["F"][idx[u], idx[v]] / 0.995)
    cpus = [x for x, c in comp_costs.items() if isinstance(c, Queue) and ref["G"][idx[x]] > 0]
    if cpus:
        x = max(cpus, key=lambda x: ref["G"][idx[x]])
        comp_costs[x] = Queue(ref["G"][idx[x]] / 0.995)
    return Scenario(graph=s.graph, applications=s.applications, link_costs=link_costs,
                    comp_costs=comp_costs, input_rates=s.input_rates)


def cases():
    """(scenario, strategy, rates, extra_injections) inputs."""
    out = []
    for seed in range(6):   # the draws of test_fixed_point_iff_sufficient_random
        s = random_scenario(seed)
        out.append((s, random_loopfree_strategy(s, seed + 7), None, None))
    for seed in range(4):
        s = mixed_scenario(seed)
        phi = random_loopfree_strategy(s, seed)
        out.append((s, phi, None, None))
        out.append((tightened(s, phi), phi, None, None))
        nodes = list(s.graph.nodes)
        rates = {(nodes[0], "long"): 0.7, (nodes[-1], "one"): 0.4}
        extra = {(nodes[1], ("long", 2)): 0.3, (nodes[2], ("one", 0)): 0.2}
        out.append((s, phi, rates, extra))
    return out


def assert_close(actual, expected):
    expected = np.asarray(expected, dtype=float)
    scale = np.max(np.abs(expected), initial=0.0)
    np.testing.assert_allclose(actual, expected, rtol=REL, atol=REL * scale)


# ---------------------------------------------------------------------------
# tests
# ---------------------------------------------------------------------------

class TestDenseReference:
    def test_flows_costs_and_marginals(self):
        for s, phi, rates, extra in cases():
            ref = reference(s, phi, rates, extra)
            state = compute_flows(s, phi, extra_injections=extra, rates=rates)
            for key in ref["traffic"]:
                assert_close(state.traffic[key], ref["traffic"][key])
                assert_close(state.link_flows[key], ref["link_flows"][key])
                assert_close(state.cpu_flows[key], ref["cpu_flows"][key])
            assert_close(state.link_bits, ref["F"])
            assert_close(state.workload, ref["G"])
            assert state.total_cost == pytest.approx(ref["total"], rel=REL)
            lam = traffic_marginals(s, phi, state)
            for key, expected in ref["marginals"].items():
                assert_close(lam[key], expected)
            # the blocked flags do not depend on where the stage levels come from
            plain = blocked_sets(s, phi, lam)
            shared = blocked_sets(s, phi, lam, state)
            for key in phi.rows:
                assert np.array_equal(plain.masks[key], shared.masks[key])

    def test_slot_update(self):
        for s, phi, rates, extra in cases():
            ref = reference(s, phi, rates, extra)
            delta, masks, gap, nxt = reference_slot(s, phi, ref, 0.05)
            state = compute_flows(s, phi, extra_injections=extra, rates=rates)
            lam = traffic_marginals(s, phi, state)
            d = modified_marginals(s, state, lam)
            blocked = blocked_sets(s, phi, lam, state)
            for key in delta:
                finite = np.isfinite(delta[key])
                assert np.array_equal(np.isfinite(d[key]), finite)
                assert_close(d[key][finite], delta[key][finite])
                assert np.array_equal(blocked.masks[key], masks[key])
            comp = compiled(s)
            got = sufficient_gap(comp, phi, comp.pack(d, "direction"), comp.every_stage())
            assert got == pytest.approx(gap, rel=1e-9, abs=1e-12)
            out = gp_step(s, phi, GpConfig(stepsize=0.05), state, d, blocked)
            for key, expected in nxt.items():
                np.testing.assert_allclose(out.rows[key], expected, rtol=0, atol=REL)

    def test_cycle_in_one_of_many_stages(self):
        s = random_scenario(3)
        phi = random_loopfree_strategy(s, 10)
        comp = compiled(s)
        app = comp.apps[1]
        key = (app.id, 1)
        u = next(i for i in range(comp.n) if i != app.dest)
        v = next(j for j in np.flatnonzero(comp.adj[u]) if j != app.dest)
        for i, j in ((u, v), (v, u)):
            row = phi.rows[key][i]
            row *= 0.99
            row[1 + j] += 0.01
        assert len(comp.keys) == 6
        with pytest.raises(LoopDetected, match=re.escape(f"stage {key!r}")):
            compute_flows(s, phi)
        assert list(detect_loops(phi)) == [key]
