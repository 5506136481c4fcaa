import math

import numpy as np
import pytest

from chainflow import (Application, Scenario, ZeroTrafficNode, blocked_sets, build_scenario,
                       check_kkt, check_sufficient, compute_flows, geodesic_probe, init_strategy,
                       modified_marginals, table_row, traffic_marginals)
from chainflow.flows import compiled

from conftest import random_loopfree_strategy, random_scenario


def tables(scenario, phi):
    st = compute_flows(scenario, phi)
    lam = traffic_marginals(scenario, phi, st)
    delta = modified_marginals(scenario, st, lam)
    return st, lam, delta


class TestTrafficMarginals:
    def test_e1_strategy_a_values(self, e1, e1_strategy_a):
        st, lam, _ = tables(e1, e1_strategy_a)
        assert lam[("a", 1)][0] == pytest.approx(1.0)   # node 1, result stage
        assert lam[("a", 0)][0] == pytest.approx(2.0)   # node 1, data stage
        assert lam[("a", 0)][1] == pytest.approx(3.0)   # node 2, data stage

    def test_destination_boundary_zero(self, e1, e1_strategy_a, prop1, prop1_kkt_strategy):
        _, lam, _ = tables(e1, e1_strategy_a)
        assert lam[("a", 1)][1] == 0.0
        _, lam, _ = tables(prop1, prop1_kkt_strategy)
        assert lam[("p", 1)][3] == 0.0

    def test_finite_difference_agreement(self):
        eps = 1e-6
        rng = np.random.default_rng(42)
        for seed in range(4):
            s = random_scenario(seed)
            phi = random_loopfree_strategy(s, seed + 50)
            st, lam, _ = tables(s, phi)
            keys = list(lam)
            for _ in range(4):
                key = keys[rng.integers(len(keys))]
                node = s.graph.nodes[rng.integers(len(s.graph.nodes))]
                if key[1] == s.app(key[0]).chain_length and node == s.app(key[0]).destination:
                    continue
                bumped = compute_flows(s, phi, extra_injections={(node, key): eps})
                fd = (bumped.total_cost - st.total_cost) / eps
                want = lam[key][s.graph.nodes.index(node)]
                assert fd == pytest.approx(want, rel=1e-5, abs=1e-9)


class TestModifiedMarginals:
    def test_e1_strategy_a_values(self, e1, e1_strategy_a):
        _, _, delta = tables(e1, e1_strategy_a)
        d0 = delta[("a", 0)]
        assert d0[0, 0] == pytest.approx(2.0)    # node 1 CPU
        assert d0[0, 2] == pytest.approx(5.0)    # node 1 -> node 2
        assert delta[("a", 1)][0, 2] == pytest.approx(1.0)

    def test_absent_directions_infinite(self, prop1, prop1_kkt_strategy):
        _, _, delta = tables(prop1, prop1_kkt_strategy)
        d0 = delta[("p", 0)]
        assert d0[0, 0] == math.inf          # node 1 has no CPU
        assert d0[0, 3] == math.inf          # (1,3) is not a link
        assert np.all(delta[("p", 1)][:, 0] == math.inf)  # final stage CPU

    def test_row_identity_phi_delta_equals_marginal(self):
        for seed in range(5):
            s = random_scenario(seed)
            phi = random_loopfree_strategy(s, seed + 10)
            st, lam, delta = tables(s, phi)
            for key, d in delta.items():
                mat = phi.rows[key]
                mix = np.where(mat > 0, mat * np.where(np.isfinite(d), d, 0.0), 0.0).sum(axis=1)
                sums = mat.sum(axis=1)
                err = np.abs(mix - lam[key])[sums > 0.5]
                assert np.max(err) <= 1e-9

    def test_inert_rows_on_sw_queue(self):
        # sw-queue draw 1: the final results of its K = 2 chains have size
        # 0, so 30 of its 90 stages are inert, and there the modified
        # marginals read exactly 0 on every link and inf at every CPU, at
        # the start and after a few GP slots; a GP slot's rows are the full
        # table's rows of its stages
        from chainflow import GpConfig, run_gp
        s = build_scenario(table_row("sw-queue"), 1)
        comp = compiled(s)
        assert (comp.inert.sum(), len(comp.keys)) == (30, 90)
        for phi in (init_strategy(s), run_gp(s, config=GpConfig(max_iters=5)).phi):
            st, lam, delta = tables(s, phi)
            d = comp.pack(delta, "direction")[comp.inert]
            assert np.all(d[:, comp.edge_pos] == 0.0) and not np.signbit(d).any()
            assert np.all(d[:, comp.seg] == math.inf)
            stages = comp.slot_stages(phi.fractions(comp))
            assert np.array_equal(stages.index, np.flatnonzero(~comp.inert))
            assert np.array_equal(modified_marginals(s, st, lam, stages),
                                  comp.pack(delta, "direction")[stages.index])


def _odd_cpus(seed):
    """random_scenario(seed)'s graph and costs, its first node without a
    CPU, and applications of chain lengths 1 and 2, whose first task its
    second node cannot run, fed at every node: chain position 1 holds a
    final stage and a middle one."""
    base = random_scenario(seed, n=8)
    nodes = base.graph.nodes
    one, two = (a.destination for a in base.applications[:2])
    apps = (Application("one", 1, one, (2.0, 1.0)),
            Application("two", 2, two, (3.0, 2.0, 1.0), comp_weights={nodes[1]: (math.inf, 1.0)}))
    return Scenario(graph=base.graph, applications=apps, link_costs=base.link_costs,
                    comp_costs={**base.comp_costs, nodes[0]: None},
                    input_rates={(v, a.id): 0.2 for a in apps for v in nodes})


class TestCpuStep:
    @pytest.mark.parametrize("case", ["sw-queue 1", "odd cpus 3"])
    def test_step_is_the_modified_marginals_cpu_column(self, case):
        # a chain position's CPU step, w * C' plus the next stage's
        # marginal, is the CPU column of the modified marginals bit for bit
        # on its rows that are not final, wherever that column is finite;
        # it is not finite where the task cannot run. An application's own
        # chain offers what every application's positions offer on its rows.
        s = (build_scenario(table_row("sw-queue"), 1) if case == "sw-queue 1"
             else _odd_cpus(int(case.split()[-1])))
        comp = compiled(s)
        st, lam, delta = tables(s, init_strategy(s))
        lam, Cp = comp.pack(lam, "node"), st.cpu_marginals
        cpu = comp.read(delta, "direction")[0][:, comp.seg]
        assert case == "sw-queue 1" or (comp.cannot_run & ~comp.final[:, None]).any()
        for at in comp.positions:
            got, want = at.step(Cp, lam), cpu[at.mid]
            finite = np.isfinite(want)
            assert got[finite].tobytes() == want[finite].tobytes()
            assert np.array_equal(finite, ~comp.cannot_run[at.mid])
            assert not np.isfinite(got[~finite]).any()
        for app in comp.apps:
            for j, at in zip(reversed(range(app.K + 1)), comp.chain(app)):
                whole = comp.positions[j]
                mine = np.flatnonzero(whole.rows == app.s0 + j)
                want = whole.offer(Cp, lam)
                got = at.offer(Cp, lam[app.stages])
                if got is None:
                    assert j == app.K and (want is None or np.isinf(want[mine]).all())
                else:
                    assert got.tobytes() == want[mine].tobytes()


class TestBlockedSets:
    def test_higher_marginal_neighbor_blocked(self, e1, e1_strategy_b):
        st, lam, _ = tables(e1, e1_strategy_b)
        blocked = blocked_sets(e1, e1_strategy_b, lam)
        # under strategy B: lam(node1, stage0)=5 > lam(node2, stage0)=3
        assert blocked.is_blocked(2, "a", 0, 1)
        assert not blocked.is_blocked(1, "a", 0, 2)

    def test_non_neighbors_blocked(self, prop1, prop1_kkt_strategy):
        _, lam, _ = tables(prop1, prop1_kkt_strategy)
        blocked = blocked_sets(prop1, prop1_kkt_strategy, lam)
        assert blocked.is_blocked(1, "p", 0, 3)

    def test_improper_link_flag_propagates(self):
        # 3-node chain 1->2->3; synthetic marginals make the downstream hop
        # (2,3) improper, which must block node 2 for node 1 via the
        # piggy-backed flag even though lam_2 < lam_1
        from chainflow import Application, Graph, Linear, Scenario
        from conftest import make_strategy

        g = Graph.from_undirected_edges([1, 2, 3], [(1, 2), (2, 3)])
        app = Application(id="a", chain_length=0, destination=3, packet_sizes=(1.0,))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={(1, 2): Linear(1.0), (2, 1): Linear(1.0),
                                 (2, 3): Linear(5.0), (3, 2): Linear(5.0)},
                     comp_costs={1: None, 2: None, 3: None},
                     input_rates={(1, "a"): 1.0})
        phi = make_strategy(s, {(1, "a", 0): {2: 1.0}, (2, "a", 0): {3: 1.0}})
        lam = traffic_marginals(s, phi, compute_flows(s, phi))
        assert not blocked_sets(s, phi, lam).is_blocked(1, "a", 0, 2)
        lam = {key: block.copy() for key, block in lam.items()}
        lam[("a", 0)][2] = 9.0  # pretend node 3 got expensive: (2,3) now improper
        blocked = blocked_sets(s, phi, lam)
        assert blocked.is_blocked(1, "a", 0, 2)   # rule 2, flag propagated upstream
        assert blocked.is_blocked(2, "a", 0, 3)   # rule 1 at node 2 itself

    def test_cpu_never_blocked(self, e1, e1_strategy_b):
        _, lam, _ = tables(e1, e1_strategy_b)
        blocked = blocked_sets(e1, e1_strategy_b, lam)
        for key in blocked.masks:
            assert blocked.masks[key].shape == (2, 2)  # links only; CPU has no column

    def test_clean_downstream_not_blocked(self, prop1, prop1_kkt_strategy):
        _, lam, _ = tables(prop1, prop1_kkt_strategy)
        blocked = blocked_sets(prop1, prop1_kkt_strategy, lam)
        # lam(3) = 0.1 < lam(1) = 1 and 3's downstream (3->4) is proper
        assert not blocked.is_blocked(1, "p", 0, 4)


class TestCheckers:
    def test_prop1_kkt_holds(self, prop1, prop1_kkt_strategy):
        assert check_kkt(prop1, prop1_kkt_strategy).holds

    def test_e1_a_kkt_holds(self, e1, e1_strategy_a):
        assert check_kkt(e1, e1_strategy_a).holds

    def test_e1_b_kkt_fails_at_node1(self, e1, e1_strategy_b):
        res = check_kkt(e1, e1_strategy_b)
        assert not res.holds
        assert any(v["node"] == 1 and v["stage"] == ["a", 0] for v in res.violations)

    def test_prop1_sufficient_fails_at_node2(self, prop1, prop1_kkt_strategy):
        res = check_sufficient(prop1, prop1_kkt_strategy)
        assert not res.holds
        assert any(v["node"] == 2 and v["stage"] == ["p", 0] for v in res.violations)

    def test_e1_a_sufficient_holds(self, e1, e1_strategy_a):
        assert check_sufficient(e1, e1_strategy_a).holds

    def test_sufficient_implies_kkt(self):
        for seed in range(8):
            s = random_scenario(seed)
            phi = random_loopfree_strategy(s, seed + 3)
            if check_sufficient(s, phi).holds:
                assert check_kkt(s, phi).holds

    def test_sufficient_implies_kkt_on_e1(self, e1, e1_strategy_a):
        assert check_sufficient(e1, e1_strategy_a).holds
        assert check_kkt(e1, e1_strategy_a).holds

    def test_checkers_keep_the_engine_layout(self):
        # the checkers and validate_strategy read run_gp's strategy as the
        # engine stores it, without unpacking dense row blocks
        from chainflow import GpConfig, max_conservation_residual, run_gp, validate_strategy
        s = random_scenario(2, n=6, num_apps=1, K=1)
        res = run_gp(s, config=GpConfig(tol=1e-4, max_iters=300))
        check_kkt(s, res.phi)
        check_sufficient(s, res.phi)
        assert validate_strategy(s, res.phi) == []
        assert max_conservation_residual(s, res.state) <= 1e-12
        assert res.phi._rows is None

    def test_marginals_nonincreasing_along_support_at_optimum(self):
        # with the sufficient condition satisfied, dT/dt never increases along
        # a positive-fraction link, strictly decreasing where traffic flows
        from chainflow import GpConfig, run_gp
        for seed in range(3):
            s = random_scenario(seed, n=7, num_apps=2, K=1)
            res = run_gp(s, config=GpConfig(tol=1e-7, max_iters=6000))
            assert res.converged
            assert check_sufficient(s, res.phi, tol=1e-6).holds
            lam = traffic_marginals(s, res.phi, res.state)
            for key, mat in res.phi.rows.items():
                t = res.state.traffic[key]
                for i, j in zip(*np.nonzero(mat[:, 1:] > 1e-9)):
                    assert lam[key][j] <= lam[key][i] + 1e-6
                    if t[i] > 1e-9:
                        assert lam[key][j] < lam[key][i]


class TestGeodesicProbe:
    def _positive_scenario(self, seed):
        # every node injects, so traffic is positive everywhere under a
        # full-support order strategy
        s = random_scenario(seed, n=6, num_apps=1, K=1, R=6,
                            link_bound=200.0, comp_bound=200.0)
        return s

    def test_identical_strategies_zero(self):
        s = self._positive_scenario(0)
        phi = random_loopfree_strategy(s, 7, full_support=True)
        assert geodesic_probe(s, phi, phi) == pytest.approx(0.0, abs=1e-12)

    def test_random_pairs_convex(self):
        for seed in range(4):
            s = self._positive_scenario(seed)
            p1 = random_loopfree_strategy(s, seed + 20, full_support=True)
            p2 = random_loopfree_strategy(s, seed + 40, full_support=True)
            assert geodesic_probe(s, p1, p2) <= 1e-8

    def test_zero_traffic_refused(self, e1, e1_strategy_a):
        with pytest.raises(ZeroTrafficNode):
            geodesic_probe(e1, e1_strategy_a, e1_strategy_a)
