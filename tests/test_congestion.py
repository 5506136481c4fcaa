import math

import numpy as np
import pytest

from chainflow import (AlphaFair, Application, GpConfig, Graph, Linear,
                       LinearUtility, Queue, Scenario, check_sufficient_cc,
                       extend_scenario, run_gp_cc, utility_eval,
                       utility_minus_cost, utility_prime)

from conftest import random_loopfree_strategy, random_scenario


class TestUtilities:
    def test_alpha_zero_is_throughput(self):
        u = AlphaFair(alpha=0.0, cap=5.0)
        assert utility_eval(u, 2.0) == pytest.approx(2.0)

    def test_normalized_at_zero(self):
        for u in (AlphaFair(0.0, cap=2.0), AlphaFair(0.5, cap=2.0),
                  AlphaFair(1.0, eps=0.1, cap=2.0), AlphaFair(2.0, eps=0.1, cap=2.0),
                  LinearUtility(3.0, cap=2.0)):
            assert utility_eval(u, 0.0) == 0.0

    def test_prime_matches_finite_difference(self):
        u = AlphaFair(alpha=1.0, eps=0.1, cap=10.0)
        for r in (0.3, 1.0, 4.2):
            assert utility_prime(u, r) == pytest.approx(1.0 / (r + 0.1))
            h = 1e-6
            fd = (utility_eval(u, r + h) - utility_eval(u, r - h)) / (2 * h)
            assert utility_prime(u, r) == pytest.approx(fd, rel=1e-8)

    def test_monotone_concave(self):
        rng = np.random.default_rng(3)
        for u in (AlphaFair(0.7, cap=8.0), AlphaFair(2.5, eps=0.2, cap=8.0),
                  LinearUtility(1.4, cap=8.0)):
            for _ in range(30):
                r1, r2 = sorted(rng.uniform(0.0, 8.0, size=2))
                assert utility_eval(u, r1) <= utility_eval(u, r2) + 1e-12
                mid = utility_eval(u, (r1 + r2) / 2)
                assert mid >= (utility_eval(u, r1) + utility_eval(u, r2)) / 2 - 1e-9

    def test_domain(self):
        with pytest.raises(ValueError):
            utility_eval(LinearUtility(1.0, cap=1.0), 2.0)


def _two_node_line(u_slope, d_slope=1.0, cap=1.0):
    g = Graph.from_undirected_edges([1, 2], [(1, 2)])
    app = Application(id="a", chain_length=0, destination=2, packet_sizes=(1.0,))
    s = Scenario(graph=g, applications=(app,),
                 link_costs={(1, 2): Linear(d_slope), (2, 1): Linear(d_slope)},
                 comp_costs={1: None, 2: None},
                 input_rates={(1, "a"): cap})
    caps = {(1, "a"): cap}
    utils = {(1, "a"): LinearUtility(u_slope, cap=cap)}
    return extend_scenario(s, caps, utils)


class TestExtendScenario:
    def test_node_count_doubles(self):
        from chainflow import generate_topology, sample_scenario, CostSpec
        topo = generate_topology("abilene")
        s = random_scenario(1, n=8)
        ext = extend_scenario(s, {p: r for p, r in s.input_rates.items()},
                              {p: LinearUtility(1.0, cap=r)
                               for p, r in s.input_rates.items()})
        assert ext.num_extended_nodes == 2 * len(s.graph.nodes)

    def test_zero_rejection_cost_at_full_admission(self):
        ext = _two_node_line(u_slope=2.0)
        assert ext.rejection_cost({(1, "a"): 1.0}) == pytest.approx(0.0)

    def test_objective_identity(self):
        # utility-minus-cost == sum U(cap) - extended cost, for random states
        rng = np.random.default_rng(5)
        s = random_scenario(3, n=6, num_apps=2, K=1)
        caps = {p: r for p, r in s.input_rates.items()}
        utils = {p: AlphaFair(alpha=rng.uniform(0, 2), eps=0.1, cap=r)
                 for p, r in caps.items()}
        ext = extend_scenario(s, caps, utils)
        from chainflow.congestion import extended_cost
        for trial in range(5):
            phi = random_loopfree_strategy(ext.base, 60 + trial)
            admit = {p: float(rng.uniform(0, 1)) for p in ext.pairs}
            total_u_cap = sum(utility_eval(utils[p], caps[p]) for p in ext.pairs)
            T_ext, _ = extended_cost(ext, phi, admit)
            umc = utility_minus_cost(ext, phi, admit)
            assert abs(umc - (total_u_cap - T_ext)) <= 1e-9

    def test_virtual_links_listed(self):
        ext = _two_node_line(u_slope=2.0)
        assert ("1^V", 1) in ext.virtual_links()
        assert ("1^V", 2) in ext.virtual_links()


class TestRunGpCc:
    def test_admit_all_when_utility_dominates(self):
        ext = _two_node_line(u_slope=2.0)   # U' = 2 > marginal path cost 1
        res = run_gp_cc(ext, GpConfig(tol=1e-6, max_iters=2000))
        assert res.converged
        assert res.admitted[(1, "a")] == pytest.approx(1.0, abs=1e-6)
        assert check_sufficient_cc(ext, res.phi, res.admit).holds

    def test_reject_all_when_utility_weak(self):
        ext = _two_node_line(u_slope=0.5)   # U' = 0.5 < marginal path cost 1
        res = run_gp_cc(ext, GpConfig(tol=1e-6, max_iters=2000))
        assert res.converged
        assert res.admitted[(1, "a")] == pytest.approx(0.0, abs=1e-6)
        assert res.utility_minus_cost >= -1e-9

    def test_interior_admission_equates_marginals(self):
        # queue link: marginal cost grows with admission; alpha-fair utility
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=0, destination=2, packet_sizes=(1.0,))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={(1, 2): Queue(2.0), (2, 1): Queue(2.0)},
                     comp_costs={1: None, 2: None},
                     input_rates={(1, "a"): 1.5})
        caps = {(1, "a"): 1.5}
        utils = {(1, "a"): LinearUtility(3.0, cap=1.5)}
        ext = extend_scenario(s, caps, utils)
        res = run_gp_cc(ext, GpConfig(tol=1e-7, max_iters=4000))
        assert res.converged
        r = res.admitted[(1, "a")]
        assert 0.0 < r < 1.5
        # M/M/1 marginal: 2/(2-r)^2 == 3  =>  r = 2 - sqrt(2/3)
        assert r == pytest.approx(2 - math.sqrt(2.0 / 3.0), abs=1e-4)
        from chainflow import traffic_marginals
        marg = traffic_marginals(ext.base, res.phi, res.state)
        assert abs(marg[("a", 0)][0] - 3.0) <= 1e-4

    def test_umc_no_worse_than_endpoints(self):
        for seed in range(3):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            caps = {p: 2 * r for p, r in s.input_rates.items()}
            utils = {p: AlphaFair(alpha=1.0, eps=0.1, cap=c) for p, c in caps.items()}
            ext = extend_scenario(s, caps, utils)
            res = run_gp_cc(ext, GpConfig(tol=1e-5, max_iters=3000))
            assert res.utility_minus_cost >= -1e-9   # reject-all gives 0
            assert np.all(np.diff(res.trace) <= 1e-9)

    def test_trace_follows_acceptance_rule(self):
        # the stepsize loop shared with run_gp accepts a slot only when it
        # does not raise the extended-graph cost beyond a 1e-12 relative slack
        for seed in range(4):
            s = random_scenario(seed, n=7, num_apps=2, K=2)
            caps = {p: 3 * r for p, r in s.input_rates.items()}
            utils = {p: AlphaFair(alpha=0.5 + seed % 2, eps=0.1, cap=c)
                     for p, c in caps.items()}
            res = run_gp_cc(extend_scenario(s, caps, utils),
                            GpConfig(tol=1e-6, max_iters=400))
            assert len(res.trace) == res.iterations + 1 > 1
            for a, b in zip(res.trace, res.trace[1:]):
                assert b <= a + 1e-12 * max(1.0, abs(a))
            # the shared loop's per-slot history, stepsize halvings included
            assert [row["T"] for row in res.history] == res.trace[:len(res.history)]
            assert all(row["halvings"] >= 0 for row in res.history)

    @pytest.mark.parametrize("seed", range(5))
    def test_converged_means_check_sufficient_cc_holds_at_tol(self, seed):
        # the gateway rows share the physical rows' excess rule: the run's
        # gap is exactly the tolerance at which check_sufficient_cc turns
        s = random_scenario(seed, link_bound=15.0, comp_bound=10.0)
        caps = {p: 3 * r for p, r in s.input_rates.items()}
        utils = {p: AlphaFair(alpha=1.0, cap=c) for p, c in caps.items()}
        ext = extend_scenario(s, caps, utils)
        res = run_gp_cc(ext, GpConfig(tol=1e-6, max_iters=3000))
        assert res.converged and res.iterations > 0
        assert all(0.0 < a < 1.0 for a in res.admit.values())
        assert check_sufficient_cc(ext, res.phi, res.admit, tol=1e-6).holds
        assert check_sufficient_cc(ext, res.phi, res.admit, tol=res.final_gap).holds
        below = np.nextafter(res.final_gap, 0.0)
        assert not check_sufficient_cc(ext, res.phi, res.admit, tol=below).holds

    def test_reject_all_with_zero_utility_holds(self):
        ext = _two_node_line(u_slope=0.0)
        from chainflow import init_strategy
        phi = init_strategy(ext.base, require_finite=False)
        assert check_sufficient_cc(ext, phi, {(1, "a"): 0.0}).holds

    def test_admission_monotone_in_utility_slope(self):
        for seed in range(5):
            s = random_scenario(seed, n=6, num_apps=1, K=1,
                                link_kind="queue", comp_kind="queue")
            caps = {p: 2 * r for p, r in s.input_rates.items()}
            lo = {p: LinearUtility(0.8, cap=c) for p, c in caps.items()}
            hi = {p: LinearUtility(2.0, cap=c) for p, c in caps.items()}
            r_lo = run_gp_cc(extend_scenario(s, caps, lo),
                             GpConfig(tol=1e-6, max_iters=4000))
            r_hi = run_gp_cc(extend_scenario(s, caps, hi),
                             GpConfig(tol=1e-6, max_iters=4000))
            for p in caps:
                assert r_hi.admitted[p] >= r_lo.admitted[p] - 1e-5
