import numpy as np
import pytest

from chainflow import (AlphaFair, Application, GpConfig, Graph, Linear, NoFeasibleStrategy,
                       Queue, Scenario, Strategy, adapt, check_sufficient, compute_flows,
                       detect_loops, extend_scenario, feasible_start, gp, gp_step, run_gp,
                       solve_flow_domain, validate_strategy)
from chainflow import marginals
from chainflow.flows import DenseView, FlowState, compiled, tree_fractions
from chainflow.gp import UpdatePlan, robust_start, sufficient_gap
from chainflow.marginals import (DEFAULT_TOL_MASS, BlockedSets, _state_and_delta, blocked_sets,
                                 direction_marginals, excess, modified_marginals,
                                 traffic_marginals)

from conftest import hub_scenario, make_strategy, random_loopfree_strategy, random_scenario


def _editable(table):
    """A plain-dict copy of a table of read-only view blocks, for editing."""
    return {key: block.copy() for key, block in table.items()}


def _slot_plan(s, phi, state=None):
    """(slot, plan): phi's _Slot on every stage, from `state` (evaluated
    when not given), and the UpdatePlan built from its tables."""
    comp = compiled(s)
    slot = gp._Slot(comp, s, phi, compute_flows(s, phi) if state is None else state,
                    comp.every_stage())
    return slot, UpdatePlan(comp, phi.fractions(comp), slot.delta,
                            comp.pack(slot.blocked.masks, "edge"), slot.stages)


def _single_row_case(alpha, deltas, fractions, blocked_to=None):
    """Drive gp_step on a 3-node star where node 0's final-stage row has the
    given deltas: done via a synthetic delta table on a real scenario.
    `blocked_to` names a node whose link from node 0 is flagged blocked."""
    from chainflow import Application, Graph, Linear, Scenario
    g = Graph.from_undirected_edges([0, 1, 2], [(0, 1), (0, 2), (1, 2)])
    app = Application(id="a", chain_length=0, destination=1, packet_sizes=(1.0,))
    s = Scenario(graph=g, applications=(app,),
                 link_costs={e: Linear(1.0) for e in g.links},
                 comp_costs={0: None, 1: None, 2: None},
                 input_rates={(0, "a"): 1.0})
    phi = make_strategy(s, {(0, "a", 0): {1: fractions[0], 2: fractions[1]},
                            (2, "a", 0): {1: 1.0}})
    state = compute_flows(s, phi)
    lam = traffic_marginals(s, phi, state)
    delta = _editable(modified_marginals(s, state, lam))
    d = delta[("a", 0)]
    d[0, 2] = deltas[0]   # toward node 1
    d[0, 3] = deltas[1]   # toward node 2
    blocked = blocked_sets(s, phi, lam)
    blocked.masks = _editable(blocked.masks)
    blocked.masks[("a", 0)][:] = False
    blocked.masks[("a", 0)][:, 0] = True  # self column unused anyway
    blocked.masks[("a", 0)][0, 0] = True
    if blocked_to is not None:
        blocked.masks[("a", 0)][0, blocked_to] = True
    cfg = GpConfig(stepsize=alpha)
    nxt = gp_step(s, phi, cfg, state, delta, blocked)
    return nxt.rows[("a", 0)][0, 2], nxt.rows[("a", 0)][0, 3]


class TestGpStep:
    def test_reduction_example(self):
        # deltas (5, 2), fractions (0.4, 0.6), alpha 0.1:
        # e = (3, 0); move min(0.4, 0.3) = 0.3 onto the minimal direction
        f1, f2 = _single_row_case(0.1, (5.0, 2.0), (0.4, 0.6))
        assert f1 == pytest.approx(0.1)
        assert f2 == pytest.approx(0.9)

    def test_blocked_direction_zeroed(self, e1, e1_strategy_b):
        # a flagged direction without mass is blocked and stays at zero,
        # even with the row's minimum marginal (Gallager 1977)
        assert _single_row_case(0.1, (2.0, 5.0), (0.0, 1.0), blocked_to=1) == (0.0, 1.0)
        # a flagged direction with mass is not blocked: its mass leaves at
        # the stepsize rate, like that of any other non-minimal direction
        state = compute_flows(e1, e1_strategy_b)
        lam = traffic_marginals(e1, e1_strategy_b, state)
        delta = modified_marginals(e1, state, lam)
        blocked = blocked_sets(e1, e1_strategy_b, lam)
        # force-block node 1's link (1,2) on the data stage
        blocked.masks = _editable(blocked.masks)
        blocked.masks[("a", 0)][0, 1] = True
        nxt = gp_step(e1, e1_strategy_b, GpConfig(stepsize=0.05), state, delta, blocked)
        d = delta[("a", 0)][0]
        move = 0.05 * (d[2] - d[0])
        assert 0.0 < move < 1.0
        assert nxt.rows[("a", 0)][0, 2] == pytest.approx(1.0 - move)
        assert nxt.rows[("a", 0)][0, 0] == pytest.approx(move)

    def test_fixed_point_at_sufficient(self, e1, e1_strategy_a):
        assert check_sufficient(e1, e1_strategy_a).holds
        nxt = gp_step(e1, e1_strategy_a, GpConfig())
        for key, mat in e1_strategy_a.rows.items():
            assert np.array_equal(nxt.rows[key], mat)

    def test_fixed_point_iff_sufficient_random(self):
        for seed in range(6):
            s = random_scenario(seed)
            phi = random_loopfree_strategy(s, seed + 7)
            nxt = gp_step(s, phi, GpConfig())
            unchanged = all(np.allclose(nxt.rows[k], phi.rows[k], atol=1e-15)
                            for k in phi.rows)
            holds = check_sufficient(s, phi, tol=1e-9).holds
            assert unchanged == holds


def _full_array_step(comp, X, d, blocked, alpha):
    """The slot update written on whole (S, n+E) arrays: every direction of
    every row, with row minima, sums and counts by np.*.reduceat."""
    B = np.zeros(X.shape, dtype=bool)
    B[:, comp.edge_pos] = blocked
    B &= X <= 0.0
    avail = ~B & np.isfinite(d)
    with np.errstate(invalid="ignore"):
        dmin = np.minimum.reduceat(np.where(avail, d, np.inf), comp.seg, axis=1)
        rows = comp.active & np.isfinite(dmin)
        e = np.clip(d - dmin[:, comp.dnode], 0.0, None)
        tie = (1e-11 * np.maximum(1.0, np.abs(dmin)))[:, comp.dnode]
        minimal = avail & (e <= tie)
        red = np.where(minimal, 0.0, np.minimum(X, alpha * e))
    on = rows[:, comp.dnode]
    red[~on] = 0.0
    give = np.zeros(rows.shape)
    give[rows] = (np.add.reduceat(red, comp.seg, axis=1)[rows]
                  / np.add.reduceat(minimal.astype(int), comp.seg, axis=1)[rows])
    new = X - red
    new += minimal * give[:, comp.dnode]
    sums = np.add.reduceat(new, comp.seg, axis=1)
    new /= np.where(rows & (sums > 0), sums, 1.0)[:, comp.dnode]
    return np.where(on, new, X)


class TestUpdatePlan:
    """One slot's UpdatePlan serves every candidate stepsize of the slot."""

    @staticmethod
    def assert_plan_matches(s, phi, state=None):
        # the plan on every stage, from the tables of phi's slot at `state`
        # (evaluated when not given), as the iterates of run_gp hold phi
        comp = compiled(s)
        phi = Strategy._stacked(comp, phi.fractions(comp))
        slot, plan = _slot_plan(s, phi, state)
        X = phi.fractions(comp)
        moved = False
        for alpha in (0.2, 0.1, 0.05):
            got = plan.apply(alpha)
            want = _full_array_step(comp, X, slot.delta,
                                    comp.pack(slot.blocked.masks, "edge"), alpha)
            assert np.array_equal(got, want)
            # gp_step from its state alone: new tables, a new plan
            cfg = GpConfig(stepsize=alpha)
            assert np.array_equal(gp_step(s, phi, cfg, slot.state).fractions(comp), got)
            moved |= not np.array_equal(got, X)
        assert moved

    @pytest.mark.parametrize("seed", range(4))
    def test_plan_matches_full_array_update(self, seed):
        s = random_scenario(seed)
        phi = random_loopfree_strategy(s, seed, full_support=seed % 2 == 1)
        self.assert_plan_matches(s, phi)

    def test_admission_slot(self):
        # run_gp_cc's slot: the state at the admitted rates
        s = random_scenario(1, link_bound=15.0, comp_bound=10.0)
        caps = {p: 3 * r for p, r in s.input_rates.items()}
        ext = extend_scenario(s, caps, {p: AlphaFair(alpha=1.0, cap=c) for p, c in caps.items()})
        phi = random_loopfree_strategy(ext.base, 5, full_support=True)
        admit = {pair: 0.4 for pair in ext.pairs}
        state = compute_flows(ext.base, phi, rates=ext.admitted_rates(admit))
        self.assert_plan_matches(ext.base, phi, state)

    @pytest.mark.parametrize("seed", range(3))
    def test_hub_row_wider_than_eight(self, seed):
        # reduceat adds a segment of more than 8 columns in 8 interleaved
        # partial sums, so the plan's row sums must see every column of the
        # hub's row in its place
        s = hub_scenario(seed)
        comp = compiled(s)
        X = tree_fractions(comp)
        # the hub spreads its first stage over every second one of its
        # neighbors that run the task themselves, so that zeros lie between
        stage = comp.stage_index[(s.applications[0].id, 0)]
        cols = np.arange(comp.seg[0] + 1, comp.seg[1])
        spread = cols[X[stage, comp.seg[comp.toward[cols]]] == 1.0][::2]
        weights = np.random.default_rng(seed).uniform(0.2, 1.0, size=spread.size)
        X[stage, comp.seg[0]:comp.seg[1]] = 0.0
        X[stage, spread] = weights / weights.sum()
        assert spread.size > 8
        phi = Strategy._stacked(comp, X)
        self.assert_plan_matches(s, phi)

    @pytest.mark.parametrize("off", [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
    def test_still_row_an_ulp_off_one_is_renormalized(self, off):
        # a row whose mass sits whole on a minimal direction does not move,
        # but the update renormalizes it all the same
        s = random_scenario(0)
        comp = compiled(s)
        phi = random_loopfree_strategy(s, 0)
        X = phi.fractions(comp).copy()
        d = _state_and_delta(s, phi)[1]
        still = (X == 1.0) & (d == comp.row_min(d)[:, comp.dnode]) & comp.active[:, comp.dnode]
        k, p = np.argwhere(still)[0]
        X[k, p] = off
        phi = Strategy._stacked(comp, X)
        self.assert_plan_matches(s, phi)
        got = _slot_plan(s, phi)[1].apply(0.1)
        assert got[k, p] == 1.0

    def test_converged_strategy_gets_an_empty_plan(self, e1, e1_strategy_a):
        # every row sums to exactly 1 and holds mass only on minimal
        # directions: nothing can change
        comp = compiled(e1)
        phi = Strategy._stacked(comp, e1_strategy_a.fractions(comp))
        X = phi.fractions(comp)
        assert np.array_equal(comp.row_sum(X), comp.active.astype(float))
        plan = _slot_plan(e1, phi)[1]
        assert plan.flat.size == 0
        for alpha in (0.2, 3.2):
            assert np.array_equal(plan.apply(alpha), X)

    def test_other_strategy_or_edited_table_gets_a_new_plan(self):
        s = random_scenario(0)
        comp = compiled(s)
        phi, other = (Strategy._stacked(comp, random_loopfree_strategy(s, seed).fractions(comp))
                      for seed in (0, 1))
        state = compute_flows(s, phi)
        lam = traffic_marginals(s, phi, state)
        delta, blocked = modified_marginals(s, state, lam), blocked_sets(s, phi, lam, state)
        edited = _editable(delta)      # an edited copy of the modified marginals
        edited[comp.keys[0]][:, 0] *= 0.5
        seen = []
        for p, d in ((phi, delta), (phi, edited), (other, edited)):
            got = gp_step(s, p, GpConfig(stepsize=0.2), state, d, blocked)
            want = _full_array_step(comp, p.fractions(comp), comp.pack(d, "direction"),
                                    comp.pack(blocked.masks, "edge"), 0.2)
            assert np.array_equal(got.fractions(comp), want)
            assert not any(np.array_equal(want, other) for other in seen)
            seen.append(want)

    def test_one_plan_per_slot(self, monkeypatch):
        # the retries of a slot at half the stepsize reuse its plan
        built = []

        class Counted(gp.UpdatePlan):
            def __init__(self, *args):
                built.append(1)
                super().__init__(*args)

        monkeypatch.setattr(gp, "UpdatePlan", Counted)
        s = random_scenario(1, link_bound=10.0, comp_bound=10.0)
        res = run_gp(s, config=GpConfig(stepsize=1.0, max_iters=40, tol=1e-9))
        halvings = sum(row["halvings"] for row in res.history)
        assert halvings > 0
        assert len(built) == len(res.history) - res.converged

    # run_gp's slot visits the stages of _Compiled.slot_stages: it skips the
    # inert ones (final stages of packet size 0) unless a row there is one
    # that the update would move or renormalize

    @staticmethod
    def assert_slot_plan_matches(s, X):
        # the slot's tables on its stages are the full tables' rows, and its
        # plan moves X as the full-array update does
        comp = compiled(s)
        phi = Strategy._stacked(comp, X)
        stages = comp.slot_stages(X)
        slot = gp._Slot(comp, s, phi, compute_flows(s, phi), stages)
        full = _state_and_delta(s, phi, slot.state)[1]
        assert np.array_equal(slot.delta, full[stages.index])
        plan = slot.plan
        moved = False
        for alpha in (0.2, 0.1, 0.05):
            got = plan.apply(alpha)
            want = _full_array_step(comp, X, full, comp.pack(slot.blocked.masks, "edge"), alpha)
            assert np.array_equal(got, want)
            moved |= not np.array_equal(got, X)
        assert moved
        return stages, plan

    @pytest.mark.parametrize("off", [np.nextafter(1.0, 0.0), np.nextafter(1.0, 2.0)])
    def test_inert_row_an_ulp_off_one_is_renormalized(self, off):
        s = random_scenario(0)
        comp = compiled(s)
        X = tree_fractions(comp)
        live = np.flatnonzero(~comp.inert)
        assert comp.inert.any() and np.array_equal(comp.slot_stages(X).index, live)
        k, p = np.argwhere((X == 1.0) & (comp.inert[:, None] & comp.active)[:, comp.dnode])[0]
        X[k, p] = off
        stages, plan = self.assert_slot_plan_matches(s, X)
        assert np.array_equal(stages.index, np.union1d(live, [k]))
        assert plan.apply(0.1)[k, p] == 1.0

    def test_inert_row_with_cpu_mass_moves(self):
        # a final row without traffic may hold a trace of CPU mass, which
        # the update moves to its links
        s = random_scenario(0)
        comp = compiled(s)
        X = tree_fractions(comp)
        state = compute_flows(s, Strategy._stacked(comp, X))
        k, i = np.argwhere(comp.inert[:, None] & comp.active & (state.traffic_stack == 0.0))[0]
        X[k, comp.seg[i]] = 1e-12
        assert validate_strategy(s, Strategy._stacked(comp, X)) == []
        stages, plan = self.assert_slot_plan_matches(s, X)
        assert k in stages.index
        assert plan.apply(0.1)[k, comp.seg[i]] == 0.0

    def test_no_inert_stage(self):
        # final results that cost something to forward: every stage is live
        s = random_scenario(1, packet_sizes=(3.0, 2.0, 1.0))
        comp = compiled(s)
        X = random_loopfree_strategy(s, 1).fractions(comp)
        assert not comp.inert.any()
        stages, _ = self.assert_slot_plan_matches(s, X)
        assert np.array_equal(stages.index, np.arange(len(comp.keys)))

    @pytest.mark.parametrize("seed", range(3))
    def test_run_equals_the_run_on_every_stage(self, seed, monkeypatch):
        # skipping the inert stages changes no bit of a run, from an exact
        # start or from one with an inert row an ulp off one
        s = random_scenario(seed, link_bound=15.0, comp_bound=10.0)
        comp = compiled(s)
        X = robust_start(s).fractions(comp)
        off = X.copy()
        k, p = np.argwhere((X == 1.0) & (comp.inert[:, None] & comp.active)[:, comp.dnode])[0]
        off[k, p] = np.nextafter(1.0, 0.0)
        cfg = GpConfig(stepsize=1.0, max_iters=60, tol=1e-9)
        runs = []
        for every in (False, True):
            if every:
                monkeypatch.setattr(type(comp), "slot_stages", lambda self, X: self.every_stage())
            runs.append([run_gp(s, Strategy._stacked(comp, start), cfg) for start in (X, off)])
        for live, every in zip(*runs):
            assert np.array_equal(live.phi.fractions(comp), every.phi.fractions(comp))
            assert live.history == every.history
            assert live.iterations > 0


    def test_first_slot_picks_the_stages_of_the_run(self, monkeypatch):
        # later slots are handed the stages of the slot before
        s = random_scenario(1, link_bound=10.0, comp_bound=10.0)
        comp = compiled(s)
        picked, real = [], type(comp).slot_stages
        monkeypatch.setattr(type(comp), "slot_stages",
                            lambda self, X: picked.append(1) or real(self, X))
        res = run_gp(s, config=GpConfig(stepsize=1.0, max_iters=40, tol=1e-9))
        assert len(res.history) > 1 and picked == [1]


class TestSufficientGap:
    """run_gp's gap, taken by rows, is marginals.excess's largest entry."""

    @pytest.mark.parametrize("seed", range(6))
    def test_gap_is_the_largest_excess(self, seed):
        s = random_scenario(seed, packet_sizes=None if seed % 2 else (3.0, 2.0, 1.0))
        comp = compiled(s)
        rng = np.random.default_rng(seed)
        X = random_loopfree_strategy(s, seed, full_support=seed % 3 == 0).fractions(comp).copy()
        d = _state_and_delta(s, Strategy._stacked(comp, X))[1].copy()
        # masses at and next to the mass tolerance, and infinite marginals
        # on directions with mass
        some = rng.choice(X.size, size=X.size // 4, replace=False)
        X.flat[some] = rng.choice([DEFAULT_TOL_MASS, np.nextafter(DEFAULT_TOL_MASS, 0.0),
                                   np.nextafter(DEFAULT_TOL_MASS, 1.0), 1e-300, 0.0],
                                  size=some.size)
        massive = np.flatnonzero((X > DEFAULT_TOL_MASS).ravel())
        d.flat[rng.choice(massive, size=3, replace=False)] = np.inf
        phi = Strategy._stacked(comp, X)
        want = excess(d, X, comp, comp.active)[0].max(initial=0.0)
        assert sufficient_gap(comp, phi, d, comp.every_stage()) == want
        stages = comp.slot_stages(X)
        assert sufficient_gap(comp, phi, d[stages.index], stages) == want
        if np.isinf(want):
            # without the infinite marginals: a finite gap, bit for bit
            d = np.where(np.isinf(d) & (X > 0), 1.0, d)
            want = excess(d, X, comp, comp.active)[0].max(initial=0.0)
            assert np.isfinite(want)
            assert sufficient_gap(comp, phi, d[stages.index], stages) == want


class TestRunGp:
    def test_e1_from_b_converges_to_optimum(self, e1, e1_strategy_b):
        res = run_gp(e1, e1_strategy_b, GpConfig(tol=1e-8))
        assert res.converged
        assert res.total_cost == pytest.approx(2.0, abs=1e-3)
        assert check_sufficient(e1, res.phi).holds

    def test_greedy_start_where_no_init_mode_fits(self):
        # line 1-2-3 with CPUs of capacity 0.8 at both ends: running all of
        # the unit rate at the source or at the destination saturates a
        # CPU, so run_gp starts from robust_start's greedy loading
        g = Graph.from_undirected_edges([1, 2, 3], [(1, 2), (2, 3)])
        app = Application(id="a", chain_length=1, destination=3, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Linear(1.0) for e in g.links},
                     comp_costs={1: Queue(0.8), 2: None, 3: Queue(0.8)},
                     input_rates={(1, "a"): 1.0})
        with pytest.raises(NoFeasibleStrategy):
            feasible_start(s)
        start = gp.robust_start(s)
        assert validate_strategy(s, start) == []
        res = run_gp(s, config=GpConfig(tol=1e-8))
        assert res.converged
        assert res.trace[0] == compute_flows(s, start).total_cost
        assert res.total_cost == pytest.approx(solve_flow_domain(s, tol=1e-10).total_cost,
                                               rel=1e-6)
        assert validate_strategy(s, res.phi) == []

    def test_invalid_start_refused(self, e1, e1_strategy_a):
        bad = e1_strategy_a.copy()
        bad.set_row(1, "a", 0, {"cpu": 0.5})
        with pytest.raises(ValueError, match="initial strategy invalid"):
            run_gp(e1, bad)

    def test_stepsize_floor_keeps_current_iterate(self):
        # every candidate raises the cost: the slot halves the stepsize down
        # to its floor, 2**-40 of the initial one, and the run stops there
        start, calls, seen = ("phi", "state"), [], []

        def step(point, tables, cfg):
            calls.append(cfg.stepsize)
            return ("worse", "state"), 2.0

        config = GpConfig(stepsize=0.5, on_iterate=lambda *args: seen.append(args))
        point, trace, history, iterations, converged, gap = gp._adaptive_descent(
            (start, 1.0), config, lambda point, prev: (3.0, None), step)
        assert point is start and trace == [1.0] and iterations == 0
        assert not converged and gap == 3.0
        assert calls == [0.5 * 2.0 ** -m for m in range(41)]
        assert history == [{"iter": 0, "T": 1.0, "max_gap": 3.0, "stepsize": 0.5,
                            "halvings": 40}]
        assert seen == [(0, "phi", "state")]

    def test_trace_nonincreasing_adaptive(self):
        for seed in range(4):
            s = random_scenario(seed)
            res = run_gp(s, config=GpConfig(max_iters=300, tol=1e-5))
            diffs = np.diff(res.trace)
            assert np.all(diffs <= 1e-12 * np.maximum(1.0, np.abs(res.trace[:-1])))

    def test_history_counts_halvings(self, tmp_path):
        # on tight capacities a unit stepsize overshoots: such slots are
        # retried at a smaller stepsize, and each retry is counted. A retry
        # scales the stepsize by 0.1 to 0.5 (0.5 without a model), and the
        # next slot starts at 0.5 to 2 times the accepted stepsize
        s = random_scenario(1, link_bound=10.0, comp_bound=10.0)
        res = run_gp(s, config=GpConfig(stepsize=1.0, max_iters=40, tol=1e-9))
        assert sum(row["halvings"] for row in res.history) > 0
        for row, nxt in zip(res.history, res.history[1:]):
            alpha, h = row["stepsize"], row["halvings"]
            lo, hi = 0.5 * alpha * 0.1 ** h, 2.0 * alpha * 0.5 ** h
            assert lo * (1 - 1e-12) <= nxt["stepsize"] <= hi * (1 + 1e-12)
        res.write_trace_csv(tmp_path / "trace.csv")
        with open(tmp_path / "trace.csv", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        assert lines[0] == "iter,T,max_gap,stepsize,halvings"
        assert [int(line.rsplit(",", 1)[1]) for line in lines[1:]] == \
            [row["halvings"] for row in res.history]

    def test_every_iterate_feasible_and_loop_free(self):
        s = random_scenario(2)
        phi0 = random_loopfree_strategy(s, 21)
        seen = []

        def cb(i, phi, state):
            seen.append(i)
            assert validate_strategy(s, phi) == []
            assert detect_loops(phi) == {}

        run_gp(s, phi0, config=GpConfig(max_iters=60, tol=1e-5, on_iterate=cb))
        assert len(seen) >= 2

    def test_converged_point_satisfies_sufficient(self):
        for seed in range(3):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = run_gp(s, config=GpConfig(max_iters=3000, tol=1e-6))
            assert res.converged
            assert check_sufficient(s, res.phi, tol=1e-5).holds

    @pytest.mark.parametrize("seed", [0, 1, 4])
    def test_converged_means_check_sufficient_holds_at_tol(self, seed):
        # the GP gap and check_sufficient are one rule: converged at tol is
        # check_sufficient holding at tol, and the gap is the checker's edge
        s = random_scenario(seed, link_bound=15.0, comp_bound=10.0)
        phi0 = random_loopfree_strategy(s, seed, full_support=True)
        assert not check_sufficient(s, phi0, tol=1e-6).holds
        res = run_gp(s, phi0, GpConfig(tol=1e-6, max_iters=3000))
        assert res.converged and res.iterations > 0
        assert check_sufficient(s, res.phi, tol=1e-6).holds
        assert check_sufficient(s, res.phi, tol=res.final_gap).holds
        if res.final_gap > 0:
            below = np.nextafter(res.final_gap, 0.0)
            assert not check_sufficient(s, res.phi, tol=below).holds


def _quadratic_descent(stepsize, slope=lambda g, dT: g, max_iters=2):
    """_adaptive_descent on T(x) = x**2 from x = 1, each candidate stepping
    x - alpha * T'(x) and handing the descent slope(g, dT), where g is the
    exact first-order change T'(x) * (x' - x) and dT the change in cost; a
    slope of None hands no slope. Returns the stepsizes tried and the
    history."""
    tried = []

    def step(point, tables, cfg):
        x = point[0]
        tried.append(cfg.stepsize)
        new = x - cfg.stepsize * 2.0 * x
        g = slope(2.0 * x * (new - x), new * new - x * x)
        return ((new, None), new * new) + (() if g is None else (g,))

    config = GpConfig(stepsize=stepsize, max_iters=max_iters, tol=1e-12)
    history = gp._adaptive_descent(((1.0, None), 1.0), config,
                                   lambda point, prev: (abs(2.0 * point[0]), None), step)[2]
    return tried, history


class TestModelStepsize:
    # on T(x) = x**2 a candidate at stepsize alpha has s* = 1 / (2 alpha),
    # so the model's stepsize alpha * s* is the exact minimizer 0.5

    @pytest.mark.parametrize("stepsize, tried, retries", [
        (4.0, [4.0, 0.5], 1),          # rejected, s* = 0.125: the minimizer
        (10.0, [10.0, 1.0, 0.5], 1),   # rejected, s* = 0.05 clipped to 0.1; T
                                       # unchanged at 1.0 is accepted, s* = 0.5
        (0.4, [0.4, 0.5], 0),          # accepted, s* = 1.25: the minimizer
        (0.1, [0.1, 0.2], 0),          # accepted, s* = 5 clipped to 2
    ])
    def test_next_stepsize_is_clipped_minimizer(self, stepsize, tried, retries):
        got, history = _quadratic_descent(stepsize)
        assert got == pytest.approx(tried, rel=1e-12)
        assert [row["halvings"] for row in history] == [retries, 0]

    def test_accepted_stepsize_kept_under_ceiling(self):
        # s* = 5 asks for twice the stepsize; the ceiling is 64 times the
        # initial one, reached here after six slots
        got, _ = _quadratic_descent(1e-3, max_iters=9)
        assert got == pytest.approx([1e-3 * 2 ** min(m, 6) for m in range(9)], rel=1e-12)

    def test_accepted_stepsize_kept_over_floor(self):
        # every candidate leaves the cost as it is with slope -1e-6, so
        # s* = 0.5 halves the stepsize after each accepted slot; it stops at
        # the floor, 2**-40 of the initial one, and the run goes on stepping
        tried = []

        def step(point, tables, cfg):
            tried.append(cfg.stepsize)
            return point, 1.0, -1e-6

        out = gp._adaptive_descent(((None, None), 1.0), GpConfig(stepsize=1.0, max_iters=50),
                                   lambda point, prev: (1.0, None), step)
        assert out[3] == 50 and not out[4]
        assert tried == [2.0 ** -min(m, 40) for m in range(50)]

    @pytest.mark.parametrize("slope", [
        lambda g, dT: None,              # no slope
        lambda g, dT: float("nan"),
        lambda g, dT: float("inf"),
        lambda g, dT: -float("inf"),
        lambda g, dT: -1e-13,            # within the slack 1e-12 * max(1, T)
        lambda g, dT: dT,                # c = dT - g = 0
        lambda g, dT: 0.5 * dT,          # c < 0 on an accepted candidate
    ], ids=["none", "nan", "inf", "-inf", "noise", "c-zero", "c-negative"])
    def test_without_model_halves_and_doubles(self, slope):
        # halved twice from 4 to 1 (x = 1 -> -1, T unchanged); the third
        # accepted slot doubles to 2, which is rejected and halved again
        got, history = _quadratic_descent(4.0, slope, max_iters=4)
        assert got == [4.0, 2.0, 1.0, 1.0, 1.0, 2.0, 1.0]
        assert [row["halvings"] for row in history] == [2, 0, 0, 1]

    @pytest.mark.parametrize("seed", range(4))
    def test_slope_is_directional_derivative(self, seed):
        s = random_scenario(seed)
        comp = compiled(s)
        phi = random_loopfree_strategy(s, seed, full_support=True)
        slot, plan = _slot_plan(s, phi)
        state = slot.state
        errors = []
        for alpha in (1e-3, 1e-4, 1e-5):
            X = plan.apply(alpha)
            dT = compute_flows(s, Strategy._stacked(comp, X)).total_cost - state.total_cost
            g = plan.slope(X, state.traffic_stack)
            assert g < 0
            errors.append(abs(dT - g) / abs(g))
            assert errors[-1] <= 10 * alpha
        assert errors[2] < 0.2 * errors[1] < 0.04 * errors[0]

    def test_admission_slope_is_directional_derivative(self, monkeypatch):
        # run_gp_cc's own step, after three slots: the physical rows' slope
        # plus the gateways' cap * (d_admit - d_reject) * change in admission
        from chainflow import congestion
        probe, real = {}, congestion._adaptive_descent

        def capture(start, config, slot, step):
            out = real(start, config, slot, step)
            probe.update(point=out[0], cost=out[1][-1], slot=slot, step=step)
            return out

        monkeypatch.setattr(congestion, "_adaptive_descent", capture)
        s = random_scenario(1, link_bound=15.0, comp_bound=10.0)
        caps = {p: 3 * r for p, r in s.input_rates.items()}
        ext = extend_scenario(s, caps, {p: AlphaFair(alpha=1.0, cap=c) for p, c in caps.items()})
        congestion.run_gp_cc(ext, GpConfig(max_iters=3))
        point = probe["point"]
        assert all(0.0 < a < 1.0 for a in point[2].values())
        tables = probe["slot"](point, None)[1]
        errors = []
        for alpha in (1e-3, 1e-4, 1e-5):
            _, T, g = probe["step"](point, tables, GpConfig(stepsize=alpha))
            assert g < 0
            errors.append(abs(T - probe["cost"] - g) / abs(g))
            assert errors[-1] <= 10 * alpha
        assert errors[2] < 0.2 * errors[1] < 0.04 * errors[0]

    @pytest.mark.parametrize("start", [2, 10])
    def test_chatter_case_converges(self, start):
        # these full-support starts ran 3,000 slots unconverged under
        # halving and doubling alone, the cost within 6.4e-13 of the optimum
        # and the gap between 2.2e-6 and 4.5e-6
        s = random_scenario(2, link_bound=15.0, comp_bound=10.0)
        res = run_gp(s, random_loopfree_strategy(s, start, full_support=True),
                     GpConfig(tol=1e-6, max_iters=3000))
        assert res.converged
        assert res.total_cost == pytest.approx(solve_flow_domain(s, tol=1e-10).total_cost,
                                               rel=1e-9)

    @pytest.mark.xfail(strict=True, reason=(
        "row (app1, 1) at node index 3 carries no traffic, so no move changes the cost "
        "and the model never applies; at the 64x ceiling the row moves only alpha * e = "
        "2e-4 of its mass per slot, and the gap stays at 6.4e-5"))
    def test_zero_traffic_row_converges(self):
        s = _without(random_scenario(10, n=6, num_apps=2, K=1), links=[(4, 5)])
        assert run_gp(s, config=GpConfig(tol=1e-6, max_iters=3000)).converged


class TestAdapt:
    def test_repair_cycle_rebuilt(self):
        # removing (2,3) dumps node 2's mass on its only neighbor, node 1,
        # which forwards to 2: the repair must rebuild the cyclic stage
        from chainflow import Application, Graph, Linear, Scenario
        app = Application(id="a", chain_length=0, destination=3, packet_sizes=(1.0,))

        def triangle(edges):
            g = Graph.from_undirected_edges([1, 2, 3], edges)
            return Scenario(graph=g, applications=(app,),
                            link_costs={e: Linear(1.0) for e in g.links},
                            comp_costs={1: None, 2: None, 3: None},
                            input_rates={(1, "a"): 1.0})

        s = triangle([(1, 2), (2, 3), (1, 3)])
        s2 = triangle([(1, 2), (1, 3)])
        phi = make_strategy(s, {(1, "a", 0): {2: 1.0}, (2, "a", 0): {3: 1.0}})
        res = adapt(s, s2, phi, GpConfig(tol=1e-8))
        assert validate_strategy(s2, res.phi) == []
        assert detect_loops(res.phi) == {}
        assert res.converged
        assert res.total_cost == pytest.approx(1.0)

    def test_start_without_finite_cost_refused(self):
        # the only route of the new scenario's rate overflows its link
        from chainflow import Application, Graph, NoFeasibleStrategy, Queue, Scenario
        g = Graph.from_undirected_edges([1, 2], [(1, 2)])
        app = Application(id="a", chain_length=0, destination=2, packet_sizes=(1.0,))

        def at(rate):
            return Scenario(graph=g, applications=(app,),
                            link_costs={e: Queue(2.0) for e in g.links},
                            comp_costs={1: None, 2: None}, input_rates={(1, "a"): rate})

        s = at(1.0)
        with pytest.raises(NoFeasibleStrategy, match="repair could not restore finite cost"):
            adapt(s, at(3.0), run_gp(s).phi)

    def test_no_change_zero_iterations(self):
        s = random_scenario(3, n=6, num_apps=1, K=1)
        base = run_gp(s, config=GpConfig(tol=1e-7, max_iters=3000))
        assert base.converged
        res = adapt(s, s, base.phi, GpConfig(tol=1e-7, max_iters=100))
        assert res.iterations == 0
        for key, mat in base.phi.rows.items():
            assert np.allclose(res.phi.rows[key], mat, atol=1e-12)

    def test_removed_link_stays_unused(self):
        from chainflow import Scenario
        s = random_scenario(5, n=6, num_apps=1, K=1)
        base = run_gp(s, config=GpConfig(tol=1e-6, max_iters=3000))
        # remove one link carrying positive flow if possible, else any link
        comp = compiled(s)
        F = base.state.link_bits
        cand = sorted(((u, v) for (u, v) in s.graph.links), key=str)
        pick = None
        for (u, v) in cand:
            i, j = comp.index[u], comp.index[v]
            deg_u = int(comp.adj[i].sum())
            deg_v = int(comp.adj[j].sum())
            if deg_u > 1 and deg_v > 1:
                pick = (u, v)
                if F[i, j] > 0:
                    break
        u, v = pick
        new_links = frozenset(e for e in s.graph.links if e not in {(u, v), (v, u)})
        from chainflow import Graph
        g2 = Graph(nodes=s.graph.nodes, links=new_links)
        s2 = Scenario(graph=g2, applications=s.applications,
                      link_costs={e: c for e, c in s.link_costs.items() if e in new_links},
                      comp_costs=s.comp_costs, input_rates=s.input_rates, seed=s.seed)
        res = adapt(s, s2, base.phi, GpConfig(tol=1e-6, max_iters=2000))
        assert validate_strategy(s2, res.phi) == []
        iu = comp.index[u]
        iv = comp.index[v]
        for key, mat in res.phi.rows.items():
            assert mat[iu, 1 + iv] == 0.0
            assert mat[iv, 1 + iu] == 0.0

    def test_repair_reads_the_last_slot_marginals(self, monkeypatch):
        # run_gp keeps what its last slot's modified marginals are made of
        # with the strategy it returns; the repair reads them once, inert
        # stages included, and repairs as from marginals it computes itself
        evaluated, real = [], gp._state_and_delta
        monkeypatch.setattr(gp, "_state_and_delta",
                            lambda *args: evaluated.append(1) or real(*args))
        s = random_scenario(4, link_bound=15.0, comp_bound=10.0)
        comp = compiled(s)
        cfg = GpConfig(tol=1e-6, max_iters=500)
        res = run_gp(s, config=cfg)
        want = real(s, res.phi)[1]
        lam, Dp, Cp = res.phi._marginals
        assert lam._comp is comp
        assert np.array_equal(direction_marginals(comp, lam._a, Dp, Cp, comp.every_stage()), want)
        loaded = res.state.edge_flows.sum(axis=0)
        u, v = comp.src[np.argmax(loaded)], comp.dst[np.argmax(loaded)]
        s2 = _without(s, links=[(comp.nodes[u], comp.nodes[v])])
        # kept for another compiled scenario: not read, and dropped
        gp._repair_strategy(random_scenario(4, link_bound=15.0, comp_bound=10.0), s2, res.phi)
        assert evaluated == [1] and res.phi._marginals is None
        phi = run_gp(s, config=cfg).phi
        assert phi._marginals is not None and phi.copy()._marginals is None
        kept = gp._repair_strategy(s, s2, phi)
        assert evaluated == [1]
        again = gp._repair_strategy(s, s2, phi)
        assert phi._marginals is None and evaluated == [1, 1]
        assert np.array_equal(kept.fractions(compiled(s2)), again.fractions(compiled(s2)))
        phi = run_gp(s, config=cfg).phi
        node, (app_id, _) = comp.nodes[0], comp.keys[0]
        phi.set_row(node, app_id, 0, phi.row(node, app_id, 0))
        assert phi._marginals is None

    def test_repair_without_kept_marginals_builds_no_slot(self, monkeypatch):
        # a strategy that keeps nothing (a copy, or one edited by set_row)
        # is evaluated again for its modified marginals alone: no blocked
        # sets, gap or plan; it repairs as from the kept marginals
        s = random_scenario(4, link_bound=15.0, comp_bound=10.0)
        comp = compiled(s)
        res = run_gp(s, config=GpConfig(tol=1e-6, max_iters=500))
        loaded = res.state.edge_flows.sum(axis=0)
        u, v = comp.src[np.argmax(loaded)], comp.dst[np.argmax(loaded)]
        s2 = _without(s, links=[(comp.nodes[u], comp.nodes[v])])
        copy, edited = res.phi.copy(), res.phi.copy()
        node, (app_id, _) = comp.nodes[0], comp.keys[0]
        edited.set_row(node, app_id, 0, edited.row(node, app_id, 0))
        built = []
        for module, name in ((gp, "blocked_sets"), (marginals, "blocked_sets"),
                             (gp, "sufficient_gap"), (gp, "UpdatePlan")):
            real = getattr(module, name)
            monkeypatch.setattr(module, name, lambda *args, real=real, name=name:
                                built.append(name) or real(*args))
        want = gp._repair_strategy(s, s2, res.phi).fractions(compiled(s2))
        for phi in (copy, edited):
            assert phi._marginals is None
            assert np.array_equal(gp._repair_strategy(s, s2, phi).fractions(compiled(s2)), want)
        assert built == []

    def test_result_keeps_only_the_repair_inputs(self):
        # the strategy run_gp returns keeps its fractions and, of its last
        # slot, the (S, n) traffic marginals and the (E,) and (n,) marginal
        # costs: no slot, plan, blocked sets, FlowState or (S, n+E)
        # modified-marginal table, which a caller that holds many results
        # would hold too
        s = random_scenario(4, link_bound=15.0, comp_bound=10.0)
        comp = compiled(s)
        phi = run_gp(s, config=GpConfig(tol=1e-6, max_iters=500)).phi
        held = []

        def walk(value):
            assert not isinstance(value, (gp._Slot, UpdatePlan, BlockedSets, FlowState))
            if isinstance(value, np.ndarray):
                held.append(value)
            elif isinstance(value, DenseView):
                walk(value._a)
            elif isinstance(value, (tuple, list)):
                for item in value:
                    walk(item)

        for value in vars(phi).values():
            walk(value)
        S, n, E = len(comp.keys), comp.n, comp.E
        assert sum(a.nbytes for a in held) == 8 * (S * (n + E) + S * n + E + n)

    def test_warm_start_tracks_small_perturbations(self):
        s = random_scenario(7, n=6, num_apps=1, K=1)
        cfg = GpConfig(tol=1e-7, max_iters=4000)
        base = run_gp(s, config=cfg)
        assert base.converged
        rng = np.random.default_rng(0)
        direction = {k: rng.uniform(-1, 1) for k in s.input_rates}
        drift = []
        for size in (0.04, 0.02, 0.01):
            rates = {k: v * (1 + size * direction[k]) for k, v in s.input_rates.items()}
            res = adapt(s, s.with_rates(rates), base.phi, cfg)
            dmax = max(float(np.max(np.abs(res.phi.rows[key] - base.phi.rows[key])))
                       for key in base.phi.rows)
            drift.append(dmax)
        assert drift[2] <= drift[1] + 1e-9
        assert drift[1] <= drift[0] + 1e-9


def _without(s, nodes=(), links=()):
    """s without the given nodes, their links and the given undirected links."""
    from chainflow import Graph, Scenario
    gone = {l for link in links for l in (link, link[::-1])}
    gone |= {l for l in s.graph.links if l[0] in nodes or l[1] in nodes}
    keep = tuple(v for v in s.graph.nodes if v not in nodes)
    g = Graph(nodes=keep, links=frozenset(s.graph.links - gone))
    return Scenario(graph=g, applications=s.applications,
                    link_costs={l: c for l, c in s.link_costs.items() if l not in gone},
                    comp_costs={v: c for v, c in s.comp_costs.items() if v in keep},
                    input_rates={key: r for key, r in s.input_rates.items() if key[0] in keep})


class TestAdaptRobustness:
    CFG = GpConfig(tol=1e-6, max_iters=3000)

    def _check(self, s, s2, phi, nodes=(), links=()):
        from chainflow import solve_flow_domain
        res = adapt(s, s2, phi, self.CFG)
        assert res.converged
        assert validate_strategy(s2, res.phi) == []
        assert detect_loops(res.phi) == {}
        optimum = solve_flow_domain(s2, tol=1e-10).total_cost
        assert res.total_cost == pytest.approx(optimum, rel=1e-9)
        comp = compiled(s2)
        assert not any(v in comp.index for v in nodes)
        for u, v in links:
            i, j = comp.index[u], comp.index[v]
            assert all(m[i, 1 + j] == 0 and m[j, 1 + i] == 0 for m in res.phi.rows.values())

    def test_link_down_does_not_stall(self):
        # removing the second-busiest link leaves mass on two links that
        # blocked_sets flags; zeroing that mass in one move raised the cost
        # at every stepsize, so the run stopped at slot 0, 8% above the
        # optimum
        s = random_scenario(21, n=7, num_apps=2, K=1)
        self._check(s, _without(s, links=[(0, 5)]), run_gp(s, config=self.CFG).phi,
                    links=[(0, 5)])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_link_removal(self, seed):
        import networkx as nx
        s = random_scenario(seed, n=7, num_apps=2, K=1)
        base = run_gp(s, config=self.CFG)
        F, index, g = base.state.link_bits, compiled(s).index, nx.Graph(list(s.graph.links))
        loaded = sorted((u, v) for u, v in g.edges
                        if F[index[u], index[v]] + F[index[v], index[u]] > 0
                        and nx.is_connected(nx.restricted_view(g, [], [(u, v)])))
        link = loaded[int(np.random.default_rng(seed).integers(len(loaded)))]
        self._check(s, _without(s, links=[link]), base.phi, links=[link])

    @pytest.mark.parametrize("seed", range(8))
    def test_random_node_removal(self, seed):
        import networkx as nx
        s = random_scenario(seed, n=7, num_apps=2, K=1)
        base = run_gp(s, config=self.CFG)
        g = nx.Graph(list(s.graph.links))
        dests = {a.destination for a in s.applications}
        spare = sorted(v for v in g.nodes if v not in dests
                       and nx.is_connected(nx.restricted_view(g, [v], [])))
        node = spare[int(np.random.default_rng(seed).integers(len(spare)))]
        self._check(s, _without(s, nodes=[node]), base.phi, nodes=[node])


# ---------------------------------------------------------------------------
# adapt's repair: the start it hands to run_gp (max_iters=0 runs no slot)
# ---------------------------------------------------------------------------

def _chain_scenario(nodes, edges, slopes=None, cpus=None):
    """One task, then results to node 3; unit input at node 1, unit packet
    sizes and workloads, Linear links (slope 1 unless given) and CPUs."""
    from chainflow import Application, Graph, Linear, Scenario
    g = Graph.from_undirected_edges(nodes, edges)
    slopes = slopes or {}
    app = Application(id="a", chain_length=1, destination=3, packet_sizes=(1.0, 1.0))
    return Scenario(graph=g, applications=(app,),
                    link_costs={(u, v): Linear(slopes.get(frozenset((u, v)), 1.0))
                                for (u, v) in g.links},
                    comp_costs={v: Linear(1.0) for v in nodes} if cpus is None else cpus,
                    input_rates={(1, "a"): 1.0})


def _repaired(old, new, phi):
    return adapt(old, new, phi, GpConfig(max_iters=0)).phi


class TestRepair:
    ROWS = {(1, "a", 0): {"cpu": 1.0}, (2, "a", 0): {"cpu": 1.0}, (3, "a", 0): {"cpu": 1.0},
            (1, "a", 1): {2: 1.0}, (2, "a", 1): {3: 1.0}}

    def _rows(self, phi, nodes):
        return {(v, "a", k): phi.row(v, "a", k) for v in nodes for k in (0, 1)
                if (v, k) != (3, 1)}

    def test_node_added_gets_fresh_rows(self):
        old = _chain_scenario([1, 2, 3], [(1, 2), (2, 3)])
        new = _chain_scenario([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4)])
        phi = _repaired(old, new, make_strategy(old, self.ROWS))
        # node 4 computes where its data sits and sends results toward 3
        assert self._rows(phi, [1, 2, 3, 4]) == {**self.ROWS, (4, "a", 0): {"cpu": 1.0},
                                                  (4, "a", 1): {2: 1.0}}

    def test_node_removed_frees_its_share(self):
        old = _chain_scenario([1, 2, 3, 4], [(1, 2), (2, 3), (2, 4), (3, 4)])
        rows = {**self.ROWS, (4, "a", 0): {"cpu": 1.0}, (4, "a", 1): {3: 1.0},
                (2, "a", 1): {3: 0.5, 4: 0.5}}
        new = _chain_scenario([1, 2, 3], [(1, 2), (2, 3)])
        phi = _repaired(old, new, make_strategy(old, rows))
        # the half sent to 4 joins the cheaper remaining link (2,3)
        assert self._rows(phi, [1, 2, 3]) == self.ROWS

    def test_cpu_lost_moves_mass_to_cheapest_link(self):
        from chainflow import Linear
        slopes = {frozenset((1, 3)): 5.0}
        edges = [(1, 2), (2, 3), (1, 3)]
        old = _chain_scenario([1, 2, 3], edges, slopes)
        rows = {**self.ROWS, (1, "a", 0): {"cpu": 0.6, 3: 0.4}, (1, "a", 1): {3: 1.0}}
        new = _chain_scenario([1, 2, 3], edges, slopes,
                              cpus={1: None, 2: Linear(1.0), 3: Linear(1.0)})
        phi = _repaired(old, new, make_strategy(old, rows))
        # stage-0 modified marginals at node 1: (1,2) costs 1 + (1 + 1) = 3,
        # (1,3) costs 5 + 1 = 6, so the CPU's 0.6 goes to node 2
        assert self._rows(phi, [1, 2, 3]) == {**rows, (1, "a", 0): {2: 0.6, 3: 0.4}}

    def test_freed_mass_tie_goes_to_first_direction(self):
        # without the diagonal (1,3), node 1's results can go via 2 or via 4
        # at exactly equal modified marginals, 1 + 1 = 2: the first wins
        edges = [(1, 2), (2, 3), (3, 4), (4, 1)]
        old = _chain_scenario([1, 2, 3, 4], edges + [(1, 3)])
        rows = {**self.ROWS, (4, "a", 0): {"cpu": 1.0}, (1, "a", 1): {3: 1.0},
                (4, "a", 1): {3: 1.0}}
        new = _chain_scenario([1, 2, 3, 4], edges)
        phi = _repaired(old, new, make_strategy(old, rows))
        assert self._rows(phi, [1, 2, 3, 4]) == {**rows, (1, "a", 1): {2: 1.0}}

    def test_link_added_starts_empty(self):
        old = _chain_scenario([1, 2, 3], [(1, 2), (2, 3)])
        new = _chain_scenario([1, 2, 3], [(1, 2), (2, 3), (1, 3)])
        phi = _repaired(old, new, make_strategy(old, self.ROWS))
        assert self._rows(phi, [1, 2, 3]) == self.ROWS

    @pytest.mark.parametrize("seed", range(1, 7))
    def test_random_removals(self, seed):
        import networkx as nx
        from chainflow import Graph, Scenario
        s = random_scenario(seed, n=7, num_apps=2, K=1)
        base = run_gp(s, config=GpConfig(tol=1e-4, max_iters=300))
        rng = np.random.default_rng(seed)
        # remove a node, a link that keeps the rest connected, and a CPU
        g = nx.Graph(list(s.graph.links))
        dests = {a.destination for a in s.applications}
        movable = [v for v in s.graph.nodes if v not in dests
                   and nx.is_connected(g.subgraph(set(g) - {v}))]
        gone = movable[rng.integers(len(movable))]
        g.remove_node(gone)
        bridges = {tuple(sorted(b)) for b in nx.bridges(g)}
        cut = sorted({tuple(sorted(l)) for l in g.edges} - bridges)
        down = cut[rng.integers(len(cut))] if cut else None
        nodes = tuple(v for v in s.graph.nodes if v != gone)
        no_cpu = nodes[rng.integers(len(nodes))]
        removed = {down, down[::-1]} if down else set()
        kept = frozenset(l for l in s.graph.links
                         if l not in removed and gone not in l)
        s2 = Scenario(graph=Graph(nodes=nodes, links=kept), applications=s.applications,
                      link_costs={l: s.link_costs[l] for l in kept},
                      comp_costs={v: None if v == no_cpu else s.comp_costs[v] for v in nodes},
                      input_rates={p: r for p, r in s.input_rates.items() if p[0] != gone},
                      seed=s.seed)
        for cfg in (GpConfig(max_iters=0), GpConfig(tol=1e-4, max_iters=200)):
            res = adapt(s, s2, base.phi, cfg)
            assert validate_strategy(s2, res.phi) == []
            assert detect_loops(res.phi) == {}
            assert np.isfinite(res.total_cost)
            assert all(b <= a for a, b in zip(res.trace, res.trace[1:]))
            for (app_id, k), mat in res.phi.rows.items():
                i = nodes.index(no_cpu)
                assert mat[i, 0] == 0.0
                for u, v in removed:
                    assert mat[nodes.index(u), 1 + nodes.index(v)] == 0.0
