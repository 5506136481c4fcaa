"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with `pytest tests/test_acceptance.py -v -s`). Tolerances are fixed
here, not tuned per run.
"""

import importlib.util
import math
import time
from pathlib import Path

import numpy as np
import pytest

from chainflow import (CostSpec, GpConfig, TABLE_ROWS, adapt, build_scenario,
                       check_kkt, check_sufficient, check_sufficient_cc,
                       compute_flows, detect_loops, enumerate_bruteforce,
                       extend_scenario, generate_topology, geodesic_probe,
                       hop_metrics, median, run_gp, run_gp_cc, sample_scenario,
                       solve_flow_domain, table_row, traffic_marginals,
                       utility_minus_cost, utility_prime, validate_strategy,
                       AlphaFair, CapacityExceeded)
from chainflow.experiments import (_gp_config, _scale_rates, run_algorithm,
                                   trend_inversions)

from conftest import random_loopfree_strategy, random_scenario

_spec = importlib.util.spec_from_file_location(
    "online_track", Path(__file__).resolve().parents[1] / "tools" / "online_track.py")
online_track = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(online_track)


def _report(criterion, ok, detail):
    print(f"\n[criterion {criterion:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def _loaded_scenario(seed, max_nodes=12):
    """Random small scenario with CPU capacities tight enough that the
    optimum genuinely spreads computation (GP has real work to do)."""
    rng = np.random.default_rng(1000 + seed)
    n = int(rng.integers(6, max_nodes + 1))
    topo = generate_topology("connected_er", {"n": n, "p": 0.3}, seed=seed)
    spec = CostSpec(link_kind="queue", link_bound=18.0,
                    comp_kind="queue", comp_bound=8.0)
    return sample_scenario(topo, int(rng.integers(2, 4)), 2, min(3, n),
                           (0.5, 1.5), spec, seed=seed)


def test_c01_oracle_optimality_theorem2():
    """GP converges to the sufficient condition and matches the flow-domain
    optimum within 1% on 10 random scenarios, each under 60 s."""
    worst_rel, worst_time = 0.0, 0.0
    problems = []
    for seed in range(1, 11):
        s = _loaded_scenario(seed)
        t0 = time.time()
        res = run_gp(s, config=GpConfig(tol=1e-5, max_iters=8000))
        orc = solve_flow_domain(s, tol=1e-7)
        elapsed = time.time() - t0
        worst_time = max(worst_time, elapsed)
        suff = check_sufficient(s, res.phi, tol=1e-5).holds
        rel = (res.total_cost - orc.total_cost) / max(orc.total_cost, 1e-12)
        worst_rel = max(worst_rel, rel)
        if not (res.converged and suff and rel <= 0.01 and elapsed <= 60):
            problems.append((seed, res.converged, suff, rel, elapsed))
    _report(1, not problems,
            f"10 scenarios: worst T/T*-1 = {worst_rel:.2e}, "
            f"slowest run {worst_time:.1f}s (limit 60s); problems={problems}")


def test_c02_oracle_oracle_agreement():
    """Conditional-gradient and brute-force enumeration agree to 1e-5 on 10
    tiny instances."""
    worst = 0.0
    problems = []
    for seed in range(1, 11):
        rng = np.random.default_rng(2000 + seed)
        n = int(rng.integers(4, 7))
        K = 2 if n <= 5 and rng.random() < 0.5 else 1
        topo = generate_topology("connected_er", {"n": n, "p": 0.12}, seed=seed)
        spec = CostSpec(link_kind="queue", link_bound=30.0,
                        comp_kind="queue", comp_bound=12.0)
        s = sample_scenario(topo, int(rng.integers(1, 3)), K, 2, (0.5, 1.5),
                            spec, seed=seed)
        fw = solve_flow_domain(s, tol=1e-8)
        brute = enumerate_bruteforce(s, tol=1e-10)
        err = abs(fw.total_cost - brute.total_cost) / max(1.0, fw.total_cost)
        worst = max(worst, err)
        if err > 1e-5:
            problems.append((seed, err))
    _report(2, not problems, f"10 tiny instances: worst |FW-brute| = {worst:.2e} "
                             f"(limit 1e-5); problems={problems}")


def test_c03_kkt_vs_sufficient_gap(prop1, prop1_kkt_strategy):
    """The constructed 4-node instance: a KKT point costing 1.0 while the
    global optimum is 0.300, ratio 0.3."""
    kkt = check_kkt(prop1, prop1_kkt_strategy).holds
    suff = check_sufficient(prop1, prop1_kkt_strategy).holds
    T = compute_flows(prop1, prop1_kkt_strategy).total_cost
    tstar = solve_flow_domain(prop1, tol=1e-9).total_cost
    ok = (kkt and not suff and abs(T - 1.0) <= 1e-9
          and abs(tstar - 0.300) <= 1e-6
          and abs(tstar / T - 0.3) <= 1e-6)
    _report(3, ok, f"kkt={kkt}, sufficient={suff}, T={T:.6f}, T*={tstar:.9f}, "
                   f"ratio={tstar / T:.9f}")


# shared by criteria 4 and 8: the full benchmark study
_STUDY = {}


def _study_records():
    if _STUDY:
        return _STUDY
    t0 = time.time()
    gp_cfg = _gp_config({"tol": 1e-4, "max_iters": 1000})
    records = {}
    for row in TABLE_ROWS:
        rows = []
        for seed in (1, 2, 3, 4, 5):
            scenario = build_scenario(row, seed)
            per_alg = {}
            for alg in ("gp", "spoc", "lcof", "lpr-sc"):
                per_alg[alg] = run_algorithm(alg, scenario, gp_cfg)
            rows.append((scenario, per_alg))
        records[row["name"]] = rows
    _STUDY["records"] = records
    _STUDY["runtime"] = time.time() - t0
    return _STUDY


_EXPECTED_SHAPE = {"balanced-tree": (15, 14), "fog": (19, 30), "abilene": (11, 14),
                   "lhc": (16, 31), "geant": (22, 33), "sw-linear": (100, 320),
                   "sw-queue": (100, 320), "connected-er": (20, None)}


def test_c04_benchmark_rows_gp_dominates():
    """All 8 scenario rows, 5 seeds each: median GP cost is lowest, and on
    sw-queue it beats the congestion-blind placement heuristic by >= 20%.
    Whole study under 30 minutes."""
    study = _study_records()
    problems = []
    details = []
    for name, rows in study["records"].items():
        scenario = rows[0][0]
        nV, nE = _EXPECTED_SHAPE[name]
        if len(scenario.graph.nodes) != nV or (nE and scenario.graph.num_undirected_edges != nE):
            problems.append((name, "shape", len(scenario.graph.nodes),
                             scenario.graph.num_undirected_edges))
        med = {alg: median([per[alg]["T"] for _, per in rows])
               for alg in ("gp", "spoc", "lcof", "lpr-sc")}
        for alg in ("spoc", "lcof", "lpr-sc"):
            if not med["gp"] <= med[alg] + 1e-6:
                problems.append((name, alg, med["gp"], med[alg]))
        details.append(f"{name}: gp={med['gp']:.4g}")
        if name == "sw-queue":
            improvement = 1.0 - (med["gp"] / med["lpr-sc"]
                                 if math.isfinite(med["lpr-sc"]) else 0.0)
            if improvement < 0.20:
                problems.append((name, "lpr-sc improvement", improvement))
            details.append(f"sw-queue improvement over lpr-sc: {improvement:.0%}")
    runtime_ok = study["runtime"] <= 1800
    if not runtime_ok:
        problems.append(("runtime", study["runtime"]))
    _report(4, not problems,
            f"{'; '.join(details)}; runtime {study['runtime']:.0f}s (limit 1800s); "
            f"problems={problems}")


def test_c05_rate_sweep_trend():
    """The advantage over the congestion-blind heuristic does not shrink as
    input rates scale up on Abilene."""
    factors = (0.5, 0.75, 1.0, 1.25, 1.5)
    gp_cfg = _gp_config({"tol": 1e-4, "max_iters": 2000})
    ratios = []
    for f in factors:
        per_seed = []
        for seed in (1, 2, 3, 4, 5):
            s = _scale_rates(build_scenario(table_row("abilene"), seed), f)
            gp = run_algorithm("gp", s, gp_cfg)
            lpr = run_algorithm("lpr-sc", s, gp_cfg)
            assert gp["feasible"], (seed, f)
            per_seed.append(lpr["T"] / gp["T"])
        ratios.append(median(per_seed))
    inversions = trend_inversions(ratios, nonincreasing=False)
    _report(5, inversions <= 1,
            f"median T_lpr/T_gp over factors {factors}: "
            f"{['%.3g' % r for r in ratios]}; inversions={inversions} (allowed 1)")


def test_c06_size_ratio_trend():
    """Computation moves toward the sources as data packets grow relative to
    results: H_data nonincreasing over ratios (one inversion allowed)."""
    from chainflow import size_ratio_sweep
    records = size_ratio_sweep(table_row("abilene"), ratios=(0.5, 1, 2, 4, 8),
                               seeds=(1, 2, 3, 4, 5),
                               gp={"tol": 1e-4, "max_iters": 1500})
    by_ratio = {}
    for rec in records:
        assert math.isfinite(rec["T"])
        by_ratio.setdefault(rec["sweep"], []).append(rec["H_data"])
    ratios = sorted(by_ratio)
    meds = [median(by_ratio[r]) for r in ratios]
    inversions = trend_inversions(meds, nonincreasing=True)
    _report(6, inversions <= 1,
            f"median H_data over ratios {ratios}: {['%.3f' % m for m in meds]}; "
            f"inversions={inversions} (allowed 1)")


def test_c07_marginal_finite_difference():
    """Broadcast-recursion marginals match injection finite differences to
    relative error 1e-5: 20 random (scenario, strategy) pairs, 5 probes each."""
    eps = 1e-6
    rng = np.random.default_rng(7)
    worst = 0.0
    checked = 0
    for pair in range(20):
        s = random_scenario(pair % 10, n=8, num_apps=2, K=2)
        phi = random_loopfree_strategy(s, 300 + pair)
        st = compute_flows(s, phi)
        lam = traffic_marginals(s, phi, st)
        keys = list(lam)
        probes = 0
        while probes < 5:
            key = keys[rng.integers(len(keys))]
            node = s.graph.nodes[rng.integers(len(s.graph.nodes))]
            app = s.app(key[0])
            if key[1] == app.chain_length and node == app.destination:
                continue
            bumped = compute_flows(s, phi, extra_injections={(node, key): eps})
            fd = (bumped.total_cost - st.total_cost) / eps
            want = lam[key][s.graph.nodes.index(node)]
            err = abs(fd - want) / max(abs(want), 1e-9)
            worst = max(worst, err)
            probes += 1
            checked += 1
    _report(7, worst <= 1e-5,
            f"{checked} probes: worst relative error {worst:.2e} (limit 1e-5)")


def test_c08_descent_and_loop_freedom():
    """Adaptive GP traces never increase and every iterate stays feasible and
    loop-free (verified on the criterion-1 scenario set)."""
    problems = []
    for seed in range(1, 11):
        s = _loaded_scenario(seed)

        def cb(i, phi, state):
            if validate_strategy(s, phi) or detect_loops(phi):
                problems.append((seed, i))

        res = run_gp(s, config=GpConfig(tol=1e-5, max_iters=8000, on_iterate=cb))
        diffs = np.diff(res.trace)
        if np.any(diffs > 1e-12 * np.maximum(1.0, np.abs(res.trace[:-1]))):
            problems.append((seed, "trace increased"))
    _report(8, not problems, f"10 runs, every slot checked; problems={problems}")


def test_c09_geodesic_convexity():
    """Midpoint convexity along the flow-domain geodesic, 10 strategy pairs
    with strictly positive traffic."""
    worst = -np.inf
    for seed in range(10):
        s = random_scenario(seed, n=6, num_apps=1, K=1, R=6,
                            link_bound=200.0, comp_bound=200.0)
        p1 = random_loopfree_strategy(s, 500 + seed, full_support=True)
        p2 = random_loopfree_strategy(s, 700 + seed, full_support=True)
        worst = max(worst, geodesic_probe(s, p1, p2))
    _report(9, worst <= 1e-8,
            f"10 pairs: max midpoint-convexity violation {worst:.2e} (limit 1e-8)")


def test_c10_congestion_control_theorem4():
    """Admission control from reject-all converges; partially admitted
    sources equate marginal utility and marginal network cost within 1e-4;
    utility-minus-cost dominates reject-all and clipped full admission."""
    problems = []
    checked_partial = 0
    for seed in range(1, 6):
        s = random_scenario(seed, n=7, num_apps=2, K=1,
                            link_bound=25.0, comp_bound=12.0)
        caps = {p: 2.0 * r for p, r in s.input_rates.items()}
        utils = {p: AlphaFair(alpha=1.0, eps=0.1, cap=c) for p, c in caps.items()}
        ext = extend_scenario(s, caps, utils)
        res = run_gp_cc(ext, GpConfig(tol=1e-6, max_iters=8000))
        if not res.converged:
            problems.append((seed, "not converged", res.final_gap))
            continue
        if not check_sufficient_cc(ext, res.phi, res.admit, tol=1e-5).holds:
            problems.append((seed, "theorem-4 condition"))
        marg = traffic_marginals(ext.base, res.phi, res.state)
        for pair in ext.pairs:
            a = res.admit[pair]
            if 1e-4 < a < 1 - 1e-4:
                lam0 = marg[(pair[1], 0)][list(ext.base.graph.nodes).index(pair[0])]
                up = utility_prime(utils[pair], res.admitted[pair])
                checked_partial += 1
                if abs(lam0 - up) > 1e-4:
                    problems.append((seed, pair, abs(lam0 - up)))
        if res.utility_minus_cost < -1e-9:
            problems.append((seed, "worse than reject-all"))
        try:
            full = utility_minus_cost(ext, res.phi, {p: 1.0 for p in ext.pairs})
            if res.utility_minus_cost < full - 1e-6:
                problems.append((seed, "worse than admit-all", full))
        except CapacityExceeded:
            pass  # full admission infeasible here: nothing to dominate
    _report(10, not problems,
            f"5 scenarios, {checked_partial} partially-admitted sources "
            f"checked at 1e-4; problems={problems}")


def test_c11_stability_warm_start():
    """After small input perturbations the warm-started optimum moves
    continuously (drift shrinks with the perturbation) and re-convergence is
    cheaper than solving cold (medians over 10 seeds)."""
    cfg = GpConfig(tol=1e-5, max_iters=8000)
    drifts = {0.04: [], 0.02: [], 0.01: []}
    warm_iters, cold_iters = [], []
    for seed in range(1, 11):
        s = _loaded_scenario(seed, max_nodes=9)
        base = run_gp(s, config=cfg)
        assert base.converged
        rng = np.random.default_rng(seed)
        direction = {k: rng.uniform(-1, 1) for k in s.input_rates}
        for size in (0.04, 0.02, 0.01):
            rates = {k: v * (1 + size * direction[k]) for k, v in s.input_rates.items()}
            s2 = s.with_rates(rates)
            warm = adapt(s, s2, base.phi, cfg)
            drift = max(float(np.max(np.abs(warm.phi.rows[key] - base.phi.rows[key])))
                        for key in base.phi.rows)
            drifts[size].append(drift)
            if size == 0.01:
                warm_iters.append(warm.iterations)
                cold_iters.append(run_gp(s2, config=cfg).iterations)
    med = {size: median(v) for size, v in drifts.items()}
    mono = med[0.01] <= med[0.02] + 1e-12 and med[0.02] <= med[0.04] + 1e-12
    fewer = median(warm_iters) < median(cold_iters)
    _report(11, mono and fewer,
            f"median drift 4%/2%/1% = {med[0.04]:.3e}/{med[0.02]:.3e}/{med[0.01]:.3e} "
            f"(monotone={mono}); median iterations warm {median(warm_iters):.0f} "
            f"vs cold {median(cold_iters):.0f}")


def test_c12_online_tracking_trend():
    """Tracking a 36-event trace on Abilene draw 1 (rate, rate, link down,
    rate, rate, link up, rates jittered by up to 5%) by warm adapt with k
    slots per event: the mean excess over each event's optimum falls
    strictly from k = 1 to 2, 4, 8 and to the c04 tolerance, and the to-tol
    run stays within its bound of the optimum. The trace and the ladder of
    k are tools/online_track.py's, which prints the same table."""
    # fixed before the run: 200 times the worst to-tol excess that the same
    # tracking read over the 240 events of each of the abilene-online
    # benchmark's traces 1 and 2 (5.3e-10), and below the mean excess of 8
    # slots per event there (1.1e-6), so a run that stopped short of tol
    # would exceed it
    to_tol_bound = 1e-7
    base, cold, events = online_track.trace()
    optima = [solve_flow_domain(s, tol=1e-9) for s in events]

    means = []
    for _, cfg in online_track.LADDER:
        excess = online_track.track(base, cold.phi, events, optima, cfg)[0]
        means.append(float(np.mean(excess)))
    falls = all(b < a for a, b in zip(means, means[1:]))
    # the certified gap bounds the oracle's cost above the true optimum
    within = [-opt.gap / opt.total_cost <= x <= to_tol_bound for x, opt in zip(excess, optima)]
    _report(12, falls and all(within),
            f"mean excess k = 1/2/4/8/tol: {'/'.join(f'{m:.1e}' for m in means)} "
            f"(falls={falls}); worst to-tol excess {max(excess):.1e} "
            f"(bound {to_tol_bound:.0e}), {within.count(False)} events outside")
