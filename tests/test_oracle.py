import re
import time

import numpy as np
import pytest

from chainflow import (CapacityExceeded, GpConfig, LoopDetected, NoFeasibleStrategy,
                       NotConverged, Scenario, TooLarge, build_scenario, check_sufficient,
                       compute_flows, enumerate_bruteforce, modified_marginals, oracle, run_gp,
                       solve_flow_domain, strategy_from_flows, table_row, traffic_marginals,
                       validate_strategy)
from chainflow.flows import cheapest_to_go, compiled
from chainflow.oracle import (FlowVector, _add_path, _bisect, _blocks, _deltas,
                              _exact_line_search, _extract_path, _greedy_start, _inner,
                              _PathTable, _rebuild, _sparse_line_search, _totals,
                              barred_links, cheapest_extended_paths, enumerate_extended_paths,
                              flow_cost, path_cost)

from conftest import (hub_scenario, layered_dijkstra, make_strategy, random_loopfree_strategy,
                      random_scenario)
from test_acceptance import _loaded_scenario


def _spoc_masks(comp):
    """SPOC's admissible links: each application's zero-flow tree toward its
    destination."""
    masks = {}
    for app in comp.apps:
        _, nxt = comp.zero_flow_tree(np.arange(comp.n) == app.dest)
        masks[app.id] = np.zeros((comp.n, comp.n), dtype=bool)
        masks[app.id][nxt >= 0, nxt[nxt >= 0]] = True
    return masks


class TestSolveFlowDomain:
    def test_e1_optimum(self, e1):
        res = solve_flow_domain(e1, tol=1e-8)
        assert res.converged
        assert res.total_cost == pytest.approx(2.0, abs=1e-6)

    def test_prop1_optimum(self, prop1):
        res = solve_flow_domain(prop1, tol=1e-8)
        assert res.total_cost == pytest.approx(0.3, abs=1e-6)

    def test_gap_certificate(self):
        s = random_scenario(4, n=7, num_apps=2, K=1)
        res = solve_flow_domain(s, tol=1e-6)
        assert res.converged
        assert res.gap <= 1e-6 * max(1.0, res.total_cost)
        assert res.gap_trace[-1] == res.gap

    def test_iteration_budget(self):
        # one iteration, the greedy start alone, does not reach tol 1e-10 on
        # this tight draw (it needs 2 gap checks)
        s = random_scenario(1, n=8, num_apps=2, K=2, link_bound=15.0, comp_bound=10.0)
        with pytest.raises(NotConverged, match="after 1 iterations"):
            solve_flow_domain(s, tol=1e-10, max_iters=1)
        res = solve_flow_domain(s, tol=1e-10, max_iters=1, strict=False)
        assert not res.converged and res.iterations == 1
        assert len(res.cost_trace) == len(res.gap_trace) == 1
        assert res.total_cost == res.cost_trace[-1]
        assert res.gap == res.gap_trace[-1] > 1e-10 * res.total_cost
        # the flows returned are the ones whose cost and gap were evaluated
        assert flow_cost(s, res.flows) == res.total_cost
        for strict in (True, False):
            with pytest.raises(NotConverged, match="allows no iteration"):
                solve_flow_domain(s, tol=1e-10, max_iters=0, strict=strict)

    def test_time_trace_has_a_time_per_record(self):
        # one time per iteration whose cost and gap were recorded, whether
        # the solve converges (2 gap checks) or runs out of budget (1); the
        # times are successive, so they add up to less than the call's wall
        s = random_scenario(1, n=8, num_apps=2, K=2, link_bound=15.0, comp_bound=10.0)
        for max_iters in (1, 100):
            start = time.perf_counter()
            res = solve_flow_domain(s, tol=1e-10, max_iters=max_iters, strict=False)
            wall = time.perf_counter() - start
            assert res.converged == (max_iters == 100)
            assert len(res.time_trace) == len(res.cost_trace) == len(res.gap_trace)
            assert all(t > 0.0 for t in res.time_trace)
            assert sum(res.time_trace) <= wall

    def test_cost_trace_nonincreasing(self):
        s = random_scenario(6, n=7, num_apps=2, K=2)
        res = solve_flow_domain(s, tol=1e-6)
        diffs = np.diff(res.cost_trace)
        assert np.all(diffs <= 1e-9 * np.maximum(1.0, np.abs(res.cost_trace[:-1])))


def _revisit_cases():
    yield "sw-queue 1", build_scenario(table_row("sw-queue"), 1)
    for i in range(6):
        yield f"random {i}", random_scenario(i, R=4, link_bound=8.0, comp_bound=6.0)


class TestRevisits:
    """The pairwise pass visits an application again while its visit moved
    mass and it held more than tol * max(1, T) / A of the gap, at most
    max_iters times in one pass."""

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", [name for name, _ in _revisit_cases()])
    def test_same_optimum_in_no_more_iterations(self, monkeypatch, case, masked):
        # one visit per application and pass (the share check never
        # requeues) against the rule: each cost is certified by its own gap
        # as at most that much above the optimum, which the other's cost is
        # not below; the rule takes no more gap checks
        s = dict(_revisit_cases())[case]
        masks, tol = (_spoc_masks(compiled(s)), 1e-8) if masked else (None, 1e-6)
        rule = solve_flow_domain(s, tol=tol, app_link_masks=masks)
        monkeypatch.setattr(oracle, "_held_gap", lambda *args: 0.0)
        once = solve_flow_domain(s, tol=tol, app_link_masks=masks)
        slack = 1e-12 * once.total_cost     # rounding of the costs and gaps
        assert rule.total_cost - once.total_cost <= rule.gap + slack
        assert once.total_cost - rule.total_cost <= once.gap + slack
        assert rule.iterations <= once.iterations

    @pytest.mark.parametrize("case", ["loaded 25", "tight"])
    def test_visits_per_pass_within_the_budget(self, monkeypatch, case):
        # the visits of one application in one pass, counted by its
        # searches between two all-application searches (the gap checks);
        # the greedy start's searches come before the first
        s = _loaded_scenario(25) if case == "loaded 25" else \
            random_scenario(1, n=8, num_apps=2, K=2, link_bound=15.0, comp_bound=10.0)
        search, passes = oracle.cheapest_extended_paths, []

        def counted(comp, app, *args, **kwargs):
            if app is None:
                passes.append({})
            elif passes:
                passes[-1][app.id] = passes[-1].get(app.id, 0) + 1
            return search(comp, app, *args, **kwargs)

        monkeypatch.setattr(oracle, "cheapest_extended_paths", counted)
        for max_iters in (20000, 3):
            passes.clear()
            res = solve_flow_domain(s, tol=1e-6, max_iters=max_iters, strict=False)
            most = max(max(visits.values(), default=0) for visits in passes)
            assert 1 < most <= max_iters        # revisited, within the budget
            assert res.converged or max_iters == 3
        assert most == 3        # this budget binds


class TestFlowVector:
    @pytest.mark.parametrize("kind", ["link", "cpu", "absent link"])
    def test_misshaped_blocks_refused(self, kind):
        # one extra zero column or entry per block must not be read by
        # position, and flow on a link the scenario lacks must not vanish
        s = random_scenario(1, n=6, num_apps=2, K=1)
        res = solve_flow_domain(s, tol=1e-6)
        links, cpus = dict(res.flows.link_flows), dict(res.flows.cpu_flows)
        refusal = "block has shape"
        if kind == "link":
            links = {key: np.pad(block, ((0, 0), (0, 1))) for key, block in links.items()}
        elif kind == "cpu":
            cpus = {key: np.append(block, 0.0) for key, block in cpus.items()}
        else:
            links = {key: block.copy() for key, block in links.items()}
            u, v = next((u, v) for u, v in np.argwhere(~compiled(s).adj) if u != v)
            links[next(iter(links))][u, v] = 5.0
            refusal = "which the scenario lacks"
        fv = FlowVector(res.flows.nodes, links, cpus)
        first = next(iter(links))
        with pytest.raises(ValueError, match=re.escape(f"stage {first!r}")):
            flow_cost(s, fv)
        with pytest.raises(ValueError, match=refusal):
            strategy_from_flows(s, fv)

    def test_view_from_scenario_with_one_more_link_read_block_by_block(self):
        # flows laid out on the triangle with link (1, 3) read on the
        # triangle without it when they carry nothing there, as a strategy
        # does, and are refused when they do
        from test_flows import triangle
        full, cut = triangle([(1, 2), (2, 3), (1, 3)]), triangle([(1, 2), (2, 3)])
        comp = compiled(full)
        around = compute_flows(full, make_strategy(full, {(1, "a", 0): {2: 1.0},
                                                          (2, "a", 0): {3: 1.0}}))
        fv = FlowVector._on(comp, around.edge_flows, around.cpu_stack)
        assert flow_cost(cut, fv) == flow_cost(full, fv) == 2.0
        direct = solve_flow_domain(full, tol=1e-9).flows
        assert direct.link_flows[("a", 0)][0, 2] > 0
        with pytest.raises(ValueError, match=r"node 1 .*\(1, 3\), which the scenario lacks"):
            flow_cost(cut, direct)

    def test_view_blocks_are_read_only(self):
        # an edit to a view block, on the layout or off it, raises instead
        # of changing the engine's arrays or vanishing
        s = random_scenario(1, n=6, num_apps=1, K=1)
        res = solve_flow_domain(s, tol=1e-6)
        cost = flow_cost(s, res.flows)
        phi = strategy_from_flows(s, res.flows)
        state = compute_flows(s, phi)
        delta = modified_marginals(s, state, traffic_marginals(s, phi, state))
        key = next(iter(res.flows.link_flows))
        u, v = next((u, v) for u, v in np.argwhere(~compiled(s).adj) if u != v)
        i, j = np.argwhere(compiled(s).adj)[0]
        for block, at in [(res.flows.link_flows[key], (u, v)), (res.flows.link_flows[key], (i, j)),
                          (res.flows.cpu_flows[key], 0), (state.traffic[key], 0),
                          (delta[key], (0, 0))]:
            with pytest.raises(ValueError, match="read-only"):
                block[at] += 5.0
        assert flow_cost(s, res.flows) == cost
        assert flow_cost(s, FlowVector(s.graph.nodes, dict(res.flows.link_flows),
                                       dict(res.flows.cpu_flows))) == cost


def _copy_and_retry_greedy_start(comp, registry, masks=None):
    """The greedy start as it was before it loaded in place: each trial
    loads copies of the flow arrays and recomputes the totals from them
    after every path, and a rejected trial's copies are dropped."""
    links, cpus, barred = comp.links, comp.cpus, barred_links(comp, masks)
    fe, g = _rebuild_loop(comp, registry)
    F, G = comp.totals(fe, g)
    for block in sorted(registry, key=lambda b: (b[0].id, b[1])):
        app, src, rate = block
        for chunks in (1, 2, 4, 8, 16, 32, 64, 128, 256):
            trial = dict(registry[block])
            part = rate / chunks
            fe_try, g_try, F_try, G_try = fe.copy(), g.copy(), F, G
            for _ in range(chunks):
                _, succ = cheapest_extended_paths(comp, app, links.deriv(F_try),
                                                  cpus.deriv(G_try), barred)
                try:
                    path = _extract_path(succ, src)
                except NoFeasibleStrategy:
                    break
                _add_path(comp, fe_try, g_try, app, path, part)
                F_try, G_try = comp.totals(fe_try, g_try)
                if links.saturated(F_try, 1e-12) or cpus.saturated(G_try, 1e-12):
                    break
                trial[path] = trial.get(path, 0.0) + 1.0 / chunks
            else:
                registry[block] = trial
                fe, g, F, G = fe_try, g_try, F_try, G_try
                break
        else:
            raise NoFeasibleStrategy("could not load a source within capacities")
    return fe, g


def _mixed_chains(seed):
    """Two applications of chain lengths 1 and 3 on a random scenario's
    graph and costs, fed at its first three nodes: chain positions 1 and 3
    hold a final stage of one and a middle stage of the other."""
    from chainflow import Application
    base = random_scenario(seed, n=8)
    one, three = (a.destination for a in base.applications[:2])
    apps = (Application(id="one", chain_length=1, destination=one, packet_sizes=(2.0, 1.0)),
            Application(id="three", chain_length=3, destination=three,
                        packet_sizes=(4.0, 3.0, 2.0, 0.0)))
    return Scenario(graph=base.graph, applications=apps, link_costs=base.link_costs,
                    comp_costs=base.comp_costs,
                    input_rates={(v, a.id): 1.0 for a in apps for v in base.graph.nodes[:3]})


def _greedy_case(case):
    kind, seed = case.rsplit(" ", 1)
    return {"loaded": lambda i: _loaded_scenario(i),
            "sw-queue": lambda i: build_scenario(table_row("sw-queue"), i),
            "sw-linear": lambda i: build_scenario(table_row("sw-linear"), i),
            "geant": lambda i: build_scenario(table_row("geant"), i),
            "mixed": _mixed_chains,
            "random": lambda i: random_scenario(i)}[kind](int(seed))


def _line(link_kind, sources, tied=False):
    """Application "a" on the line 4 - 0 - 1 - 3, destination 3, K = 1 and
    packet sizes (1, 1), fed at `sources`; with `tied`, node 2 joins 0 and
    3 too, so two equal routes leave node 0. Links cost Linear(1) or
    Queue(20), and only the destination has a CPU."""
    from chainflow import Application, Graph, Linear, Queue, Scenario
    g = Graph.from_undirected_edges([0, 1, 2, 3, 4] if tied else [0, 1, 3, 4],
                                    [(4, 0), (0, 1), (1, 3)] + [(0, 2), (2, 3)] * tied)
    cost = Linear(1.0) if link_kind == "linear" else Queue(20.0)
    app = Application(id="a", chain_length=1, destination=3, packet_sizes=(1.0, 1.0))
    return Scenario(graph=g, applications=(app,),
                    link_costs={e: cost for e in g.links},
                    comp_costs={v: Linear(1.0) if v == 3 else None for v in g.nodes},
                    input_rates={(v, "a"): 1.0 for v in sources})


def _by_path(table, registry):
    """A registry of path ids of `table` with its atoms keyed by path."""
    return {b: {table.paths[p]: w for p, w in atoms.items()} for b, atoms in registry.items()}


def _counted_greedy_start(monkeypatch, comp, masks=None):
    """The greedy start's registry, keyed by path, and the number of
    searches it ran."""
    searches, real = [], oracle.cheapest_extended_paths

    def counted(*args):
        searches.append(args[1])
        return real(*args)

    monkeypatch.setattr(oracle, "cheapest_extended_paths", counted)
    registry, table = {block: {} for block in _blocks(comp)}, _PathTable(comp)
    _greedy_start(comp, registry, table, barred_links(comp, masks), {})
    monkeypatch.setattr(oracle, "cheapest_extended_paths", real)
    return _by_path(table, registry), len(searches)


class TestGreedyStart:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", ["loaded 25", "sw-queue 1", "sw-linear 1", "geant 3",
                                      "mixed 3", *(f"random {i}" for i in range(6))])
    def test_in_place_loading_equals_copy_and_retry(self, monkeypatch, case, masked):
        # loading in place, with totals refreshed at the touched columns,
        # the final position's search reused and a source or chunk taking
        # its application's last search where _Search.walk allows, must give
        # the flows, atoms and totals of the copy-and-retry loading, which
        # searches for every load, bit for bit; every search must see the
        # marginals of the full totals of the live flows; "loaded 25"
        # rejects a whole placement of a block before it fits
        s = _greedy_case(case)
        comp = compiled(s)
        masks = _spoc_masks(comp) if masked else None
        want_registry = {block: {} for block in _blocks(comp)}
        want = _copy_and_retry_greedy_start(comp, want_registry, masks)
        add, paths, live = oracle._add_path, oracle.cheapest_extended_paths, []

        def add_seen(comp, fe, g, *rest):
            live[:] = fe, g
            return add(comp, fe, g, *rest)

        def search_checked(comp, app, Dp, Cp, *rest):
            F, G = comp.totals(*live) if live else (np.zeros(comp.E), np.zeros(comp.n))
            assert Dp.tobytes() == comp.links.deriv(F).tobytes()
            assert Cp.tobytes() == comp.cpus.deriv(G).tobytes()
            return paths(comp, app, Dp, Cp, *rest)

        monkeypatch.setattr(oracle, "_add_path", add_seen)
        monkeypatch.setattr(oracle, "cheapest_extended_paths", search_checked)
        for memo in (None, {}):
            registry, table = {block: {} for block in _blocks(comp)}, _PathTable(comp)
            live.clear()
            got = _greedy_start(comp, registry, table, barred_links(comp, masks), memo)
            assert [list(atoms.items()) for atoms in _by_path(table, registry).values()] == \
                [list(atoms.items()) for atoms in want_registry.values()]
            for a, b in [*zip(got, want), *zip(comp.totals(*got), comp.totals(*want))]:
                assert a.tobytes() == b.tobytes()
        if case == "loaded 25" and not masked:
            assert any(w < 1.0 for atoms in registry.values() for w in atoms.values())

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", ["sw-queue 1", "sw-linear 1"])
    def test_one_search_per_application(self, monkeypatch, case, masked):
        # 240 blocks of 30 applications: each application's first search
        # serves all its sources, marginals (Queue) or not (Linear), on the
        # unmasked graph and on SPOC's trees
        comp = compiled(_greedy_case(case))
        registry, searches = _counted_greedy_start(
            monkeypatch, comp, _spoc_masks(comp) if masked else None)
        assert len(registry) == 240 and len(comp.apps) == 30
        assert searches <= 30

    @pytest.mark.parametrize("why", ["tie", "marginal"])
    def test_declined_walk_searches_again(self, monkeypatch, why):
        # sources 0 and 4 of one application; 4's walk leaves node 0 as
        # 0's did. Two equal routes out of node 0 (a tie), or Queue links
        # that 0's load made dearer (a marginal), decline the walk, and a
        # search runs for source 4; without either, it is reused
        walk = oracle._Search.walk
        for declined in (False, True):
            if why == "tie":
                s = _line("linear", (0, 4), tied=declined)
            else:
                s = _line("queue" if declined else "linear", (0, 4))
            comp = compiled(s)
            walks = []

            def recorded(self, *args):
                walks.append(walk(self, *args))
                return walks[-1]

            monkeypatch.setattr(oracle._Search, "walk", recorded)
            registry, searches = _counted_greedy_start(monkeypatch, comp)
            assert [w is None for w in walks] == [declined]
            assert searches == 1 + declined
            want = {block: {} for block in _blocks(comp)}
            _copy_and_retry_greedy_start(comp, want)
            assert [list(a.items()) for a in registry.values()] == \
                [list(a.items()) for a in want.values()]

    def test_cpu_flow_where_the_task_cannot_run_refused(self, monkeypatch):
        # the totals are refreshed at the touched columns only, yet a path
        # that sends CPU flow where the task cannot run (here: the final
        # stage at the destination) is refused with comp.totals' message
        s = random_scenario(0)
        comp = compiled(s)
        real = oracle._extract_path

        def past_the_end(succ, src):
            path = real(succ, src)
            return path + (("C", len(succ) - 1, path[-1][-1]),)

        monkeypatch.setattr(oracle, "_extract_path", past_the_end)
        with pytest.raises(CapacityExceeded, match="sends flow to a CPU that cannot run the task"):
            _greedy_start(comp, {block: {} for block in _blocks(comp)}, _PathTable(comp))

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", ["loaded 25", "sw-queue 1"])
    def test_table_holds_the_atoms_in_first_sight_order(self, case, masked):
        # the greedy start interns a trial's paths when it accepts the
        # trial, blocks in its (application id, source) order, so the table
        # holds exactly the atoms' distinct paths of each application, in
        # that order, also where a trial is rolled back ("loaded 25" rejects
        # a whole placement first); sw-queue's ids sort apart from the
        # registry's block order ("app10" before "app2"), so interning after
        # the greedy start, in registry order, fails here. Through the table
        # the ids give the copy-and-retry loading's path-keyed registry
        comp = compiled(_greedy_case(case))
        masks = _spoc_masks(comp) if masked else None
        want = {block: {} for block in _blocks(comp)}
        _copy_and_retry_greedy_start(comp, want, masks)
        registry, table = {block: {} for block in _blocks(comp)}, _PathTable(comp)
        _greedy_start(comp, registry, table, barred_links(comp, masks))
        seen = dict.fromkeys((b[0].s0, path) for b in sorted(want, key=lambda b: (b[0].id, b[1]))
                             for path in want[b])
        assert list(table.ids) == list(seen)
        assert table.paths == [path for _, path in seen]
        assert [(b, list(atoms.items())) for b, atoms in _by_path(table, registry).items()] == \
            [(b, list(atoms.items())) for b, atoms in want.items()]

    def test_split_block_flows_match_registry(self):
        # on this tight-CPU draw one block only fits in two halves, so a
        # whole placement was tried and rejected first; none of its flow may
        # stay in the returned vector
        s = _loaded_scenario(25)
        comp = compiled(s)
        registry, table = {block: {} for block in _blocks(comp)}, _PathTable(comp)
        flows = _greedy_start(comp, registry, table)
        assert any(w < 1.0 for atoms in registry.values() for w in atoms.values())
        for got, want in zip(flows, _rebuild(comp, registry, table)):
            assert np.max(np.abs(got - want)) <= 1e-12
        F, G = _totals(comp, *flows)
        assert not comp.links.saturated(F, 1e-12)
        assert not comp.cpus.saturated(G, 1e-12)


def _rebuild_loop(comp, registry, table=None):
    """_rebuild as a Python loop: the atoms of weight > 0 added path by path,
    each step by _add_path."""
    fe, g = np.zeros((len(comp.keys), comp.E)), np.zeros((len(comp.keys), comp.n))
    for (app, src, rate), atoms in registry.items():
        for path, wgt in atoms.items():
            if wgt > 0:
                path = path if table is None else table.paths[path]
                _add_path(comp, fe, g, app, path, wgt * rate)
    return fe, g


def _inner_loop(table, registry, Dp, Cp):
    """_inner as a Python loop of path_cost sums."""
    inner = 0.0
    for (app, src, rate), atoms in registry.items():
        for pid, wgt in atoms.items():
            if wgt > 0:
                inner += wgt * rate * path_cost(table.comp, app, table.paths[pid], Dp, Cp)
    return inner


def _path_cost_loop(table, ids, Dp, Cp):
    """_PathTable.costs as one path_cost call per id."""
    apps = {app.s0: app for app in table.comp.apps}
    key = {pid: s0 for (s0, _), pid in table.ids.items()}
    return np.array([path_cost(table.comp, apps[key[pid]], table.paths[pid], Dp, Cp)
                     for pid in ids], dtype=float)


def _many_atoms(s, seed):
    """A greedy start's registry with up to four more atoms per block, on
    the cheapest paths under random marginals, all with random weights, and
    one atom of weight 0; the registry of the same atoms as ids of a path
    table; and the marginals at the greedy start's flows."""
    comp = compiled(s)
    rng = np.random.default_rng(seed)
    registry, greedy = {block: {} for block in _blocks(comp)}, _PathTable(comp)
    F, G = _totals(comp, *_greedy_start(comp, registry, greedy))
    registry = _by_path(greedy, registry)
    start = comp.links.deriv(F), comp.cpus.deriv(G)
    for _ in range(4):
        Dp, Cp = np.exp(rng.normal(0.0, 1.5, comp.E)), np.exp(rng.normal(0.0, 1.5, comp.n))
        _, succ = cheapest_extended_paths(comp, None, Dp, Cp)
        for (app, src, rate), atoms in registry.items():
            atoms.setdefault(_extract_path(succ[app.stages], src), 0.0)
    for atoms in registry.values():
        for path in atoms:
            atoms[path] = float(rng.uniform(0.01, 1.0))
    atoms = next(a for a in registry.values() if len(a) > 1)
    atoms[next(iter(atoms))] = 0.0
    table = _PathTable(comp)
    ids = {b: {table.id(b[0], p): w for p, w in atoms.items()} for b, atoms in registry.items()}
    return comp, registry, table, ids, start


_TABLE_CASES = ["sw-queue 1", "loaded 25", *(f"random {i}" for i in range(6))]


def _table_case(case):
    kind, seed = case.rsplit(" ", 1)
    return {"loaded": lambda i: _loaded_scenario(i),
            "sw-queue": lambda i: build_scenario(table_row("sw-queue"), i),
            "random": lambda i: random_scenario(i, R=4)}[kind](int(seed))


class TestPathTable:
    @pytest.mark.parametrize("case", _TABLE_CASES)
    def test_rebuild_equals_the_loop(self, case):
        # one np.add.at over the table's cells adds in index order, so every
        # cell sums and rounds as the loop does; here atoms of two sources
        # of one application share (stage, edge) cells and weights are not
        # dyadic, so another order of adding would round apart
        comp, registry, table, ids, _ = _many_atoms(_table_case(case), 1)
        want = _rebuild_loop(comp, registry)
        for got in (_rebuild(comp, ids, table), _rebuild_loop(comp, ids, table)):
            for a, b in zip(got, want):
                assert a.tobytes() == b.tobytes()
        cells = {}
        for (app, src, _), atoms in registry.items():
            for path in atoms:
                for step in path:
                    if step[0] == "L":
                        cells.setdefault((app.s0 + step[1], step[2], step[3]), set()).add(src)
        assert any(len(srcs) > 1 for srcs in cells.values())
        assert sum(len(atoms) for atoms in registry.values()) > len(registry)

    @pytest.mark.parametrize("case", _TABLE_CASES)
    def test_costs_and_gap_sum_equal_path_cost_sums(self, case):
        # a row's np.cumsum adds its steps one by one as path_cost does, and
        # the gap's sum adds the atoms one by one as its loop did
        comp, registry, table, ids, start = _many_atoms(_table_case(case), 2)
        for Dp, Cp in [start, (np.linspace(0.5, 3.0, comp.E), np.linspace(0.25, 4.0, comp.n))]:
            every = list(range(len(table.paths)))
            assert table.costs(every, Dp, Cp).tobytes() == \
                _path_cost_loop(table, every, Dp, Cp).tobytes()
            got, want = _inner(table, ids, Dp, Cp), _inner_loop(table, ids, Dp, Cp)
            assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
        if case == "sw-queue 1":
            rows, cols = table.cell.shape      # the table grew past its first 64 rows
            assert rows > 64 and len(table.paths) > 64
        assert table.costs([], Dp, Cp).shape == (0,)
        assert _inner(table, {}, Dp, Cp) == 0.0

    def test_ids_follow_first_sight(self):
        # the table's order is the order paths were first interned, the same
        # run after run; one path of two applications gets two ids
        comp, registry, table, ids, _ = _many_atoms(random_scenario(0, R=4), 3)
        assert list(table.ids.values()) == list(range(len(table.paths)))
        seen = [(b[0].s0, p) for b, atoms in registry.items() for p in atoms]
        assert list(table.ids) == list(dict.fromkeys(seen))
        a, b = comp.apps[:2]
        path = (("C", 0, 0), ("C", 1, 0))
        assert table.id(a, path) != table.id(b, path) == table.id(b, path)
        u, v = int(comp.src[0]), int(comp.dst[0])
        # a path wider than the table's 16 columns
        long = tuple(("L", 0, *((u, v), (v, u))[i % 2]) for i in range(40))
        pid = table.id(a, long)
        assert table.cell.shape[1] == 40
        Dp, Cp = np.linspace(0.5, 3.0, comp.E), np.linspace(0.25, 4.0, comp.n)
        assert table.costs([pid], Dp, Cp).tobytes() == \
            np.float64(path_cost(comp, a, long, Dp, Cp)).tobytes()
        assert table.costs([0], Dp, Cp).tobytes() == _path_cost_loop(table, [0], Dp, Cp).tobytes()

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("seed", range(6))
    def test_solves_keep_their_traces_on_the_reference_loops(self, monkeypatch, seed, masked):
        # a full solve with _rebuild, the gap sum, the atom costs and the
        # exact line search put back to the Python loops and full arrays
        # they replaced takes the same trajectory and ends at the same flows
        s = random_scenario(seed, R=4, link_bound=8.0, comp_bound=6.0)   # 1-2 iterations
        assert _solve_on_the_reference_loops(monkeypatch, s, masked) >= 1

    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("seed", range(2))
    def test_frank_wolfe_runs_keep_their_traces_on_the_reference_loops(
            self, monkeypatch, seed, masked):
        # the same draws without pairwise moves run out their 30 iterations,
        # so the exact line search runs at each step and the periodic
        # _rebuild at iteration 25 runs too, which the solves above never reach
        s = random_scenario(seed, R=4, link_bound=8.0, comp_bound=6.0)
        assert _solve_on_the_reference_loops(monkeypatch, s, masked, max_iters=30,
                                             pairwise=False) == 30


def _solve_on_the_reference_loops(monkeypatch, s, masked, **kw):
    """Iterations of solve_flow_domain(s, tol=1e-9, **kw), after asserting
    that the solve with _rebuild, _inner, the atom costs and the exact line
    search put back to the reference loops has the same cost and gap traces
    and flows, bit for bit."""
    comp = compiled(s)
    kw.update(tol=1e-9, app_link_masks=_spoc_masks(comp) if masked else None, strict=False)
    got = solve_flow_domain(s, **kw)
    monkeypatch.setattr(oracle, "_rebuild", _rebuild_loop)
    monkeypatch.setattr(oracle, "_inner", _inner_loop)
    monkeypatch.setattr(oracle._PathTable, "costs", _path_cost_loop)
    monkeypatch.setattr(oracle, "_exact_line_search", _full_array_line_search)
    want = solve_flow_domain(s, **kw)
    assert got.iterations == want.iterations
    assert repr(got.cost_trace) == repr(want.cost_trace)
    assert repr(got.gap_trace) == repr(want.gap_trace)
    for a, b in zip(got.flows.arrays(comp), want.flows.arrays(comp)):
        assert a.tobytes() == b.tobytes()
    return got.iterations

def _swap_cases():
    """(comp, F, G, ef, eg, dF, dG) of the swaps from each greedy-start atom
    to its block's cheapest path on small random scenarios: the sparse
    deltas of a move at the block's rate and the same deltas as full
    (E,) and (n,) directions."""
    for seed in range(6):
        s = random_scenario(seed, n=6, num_apps=2, K=1, link_bound=20.0,
                            comp_bound=10.0)
        comp = compiled(s)
        registry, table = {block: {} for block in _blocks(comp)}, _PathTable(comp)
        F, G = _totals(comp, *_greedy_start(comp, registry, table))
        Dp, Cp = comp.links.deriv(F), comp.cpus.deriv(G)
        for (app, src, rate), atoms in registry.items():
            _, succ = cheapest_extended_paths(comp, app, Dp, Cp)
            target = _extract_path(succ, src)
            for worst in atoms:
                ef, eg = _deltas(*table.steps(table.id(app, target), worst))
                ef = {e: rate * d for e, d in ef.items()}
                eg = {v: rate * d for v, d in eg.items()}
                dF, dG = np.zeros_like(F), np.zeros_like(G)
                for e, d in ef.items():
                    dF[e] = d
                for v, d in eg.items():
                    dG[v] = d
                yield comp, F, G, ef, eg, dF, dG


def _full_array_line_search(comp, F, G, dF, dG):
    """_exact_line_search as plain bisection of the same derivative, from
    CostArray.deriv over every entry: the reference for its replay of the
    bisection inside a Newton bracket."""
    hi = min(1.0, comp.links.room(F, dF) * (1 - 1e-9), comp.cpus.room(G, dG) * (1 - 1e-9))

    def deriv(gamma):
        return float(np.sum(comp.links.deriv(F + gamma * dF) * dF)
                     + np.sum(comp.cpus.deriv(G + gamma * dG) * dG))

    return _bisect(deriv, hi)


class TestLineSearches:
    def test_exact_and_sparse_agree_on_swaps(self):
        # both searches bisect the same 1-D convex cost, one over deltas on
        # every edge and node and one over the touched entries only
        interior = 0
        for comp, F, G, ef, eg, dF, dG in _swap_cases():
            dense = _exact_line_search(comp, F, G, dF, dG)
            sparse = _sparse_line_search(comp, F, G, ef, eg, 1.0)
            assert abs(dense - sparse) <= 1e-12
            interior += 0.0 < sparse < 1.0
        assert interior >= 5

    def test_exact_equals_the_full_array_search(self):
        # the Newton bracket and the bisection replayed inside it must give
        # plain bisection's step bit for bit: on the swaps above and on
        # conditional-gradient directions toward every block's cheapest
        # path, with Queue, Linear and mixed link costs
        cases = [(comp, F, G, dF, dG) for comp, F, G, _, _, dF, dG in _swap_cases()]
        for s in [random_scenario(seed, link_kind=kind) for seed in range(4)
                  for kind in ("queue", "linear")] + [build_scenario(table_row("sw-queue"), 1)]:
            comp = compiled(s)
            registry = {block: {} for block in _blocks(comp)}
            F, G = _totals(comp, *_greedy_start(comp, registry, _PathTable(comp)))
            dist, succ = cheapest_extended_paths(comp, None, comp.links.deriv(F),
                                                 comp.cpus.deriv(G))
            best = {(app, src, rate): {_extract_path(succ[app.stages], src): 1.0}
                    for app, src, rate in registry}
            sF, sG = _totals(comp, *_rebuild_loop(comp, best))
            cases += [(comp, F, G, sF - F, sG - G), (comp, F, G, F - sF, G - sG),
                      (comp, F, G, 0.5 * (sF - F), np.zeros_like(G))]
        interior = 0
        for comp, F, G, dF, dG in cases:
            got = _exact_line_search(comp, F, G, dF, dG)
            assert np.float64(got).tobytes() == \
                np.float64(_full_array_line_search(comp, F, G, dF, dG)).tobytes()
            interior += 0.0 < got < 1.0
        assert interior >= 10
        for comp, F, G, dF, dG in cases[-3:]:
            assert _exact_line_search(comp, F, G, np.zeros_like(F), np.zeros_like(G)) == 0.0


def _bisect_100(deriv, hi):
    """`_bisect` without its early stop: always 100 bisections."""
    if hi <= 0:
        return 0.0
    if deriv(0.0) >= 0:
        return 0.0
    if deriv(hi) <= 0:
        return hi
    lo, up = 0.0, hi
    for _ in range(100):
        mid = 0.5 * (lo + up)
        if deriv(mid) <= 0:
            lo = mid
        else:
            up = mid
    return lo


class TestBisect:
    @pytest.mark.parametrize("seed", range(6))
    def test_early_stop_returns_the_100_step_result(self, seed):
        # derivatives of M/M/1 sums along a direction, shifted so that the
        # root lies at `where` * hi: near 0, mid-interval and near hi
        rng = np.random.default_rng(seed)
        for where in (1e-12, 1e-6, rng.uniform(0.2, 0.8), 1 - 1e-6, 1 - 1e-12):
            hi = rng.uniform(0.1, 1.0)
            c = rng.uniform(1.0, 10.0, 8)
            x = rng.uniform(0.1, 0.4, 8) * c
            d = rng.uniform(-0.1, 0.5, 8) * c / hi      # x + hi * d <= 0.9 c

            def mm1(gamma):
                return float(np.sum(d * c / (c - x - gamma * d) ** 2))

            shift, calls = mm1(where * hi), []

            def counted(gamma):
                calls.append(gamma)
                return mm1(gamma) - shift

            got = _bisect(counted, hi)
            early = len(calls)
            assert got == _bisect_100(counted, hi)
            assert early < len(calls) - early
            if 1e-6 <= where <= 1 - 1e-6:
                assert 0.0 < got < hi

    @pytest.mark.parametrize("seed", range(6))
    def test_newton_bracket_replays_the_100_step_result(self, seed):
        # the same M/M/1 cases, with the closed-form second derivative: the
        # bisection replayed inside the Newton bracket gives the 100-step
        # step, with at most a third of the early-stopping bisection's
        # evaluations where the root is mid-interval
        rng = np.random.default_rng(seed)
        for where in (1e-12, 1e-6, rng.uniform(0.2, 0.8), 1 - 1e-6, 1 - 1e-12):
            hi = rng.uniform(0.1, 1.0)
            c = rng.uniform(1.0, 10.0, 8)
            x = rng.uniform(0.1, 0.4, 8) * c
            d = rng.uniform(-0.1, 0.5, 8) * c / hi

            def mm1(gamma):
                return float(np.sum(d * c / (c - x - gamma * d) ** 2))

            shift, calls = mm1(where * hi), []

            def counted(gamma):
                calls.append(gamma)
                return mm1(gamma) - shift

            def newton(gamma):
                calls.append(gamma)
                return mm1(gamma) - shift, float(np.sum(2 * c * d * d / (c - x - gamma * d) ** 3))

            got, replayed = _bisect(counted, hi, newton), len(calls)
            calls.clear()
            plain, bisected = _bisect(counted, hi), len(calls)
            assert got == plain == _bisect_100(counted, hi)
            if 0.2 <= where <= 0.8:
                assert 3 * replayed <= bisected

    @pytest.mark.parametrize("width", [0, 1, 7, 40])
    def test_plateau_at_zero_around_the_root(self, width):
        # a derivative that is exactly 0 across `width` ulps on each side of
        # the root: Newton stalls there, the bracket must still hold the
        # 100-step result, and the search stays short (the bisection alone
        # takes 56 to 65 evaluations here)
        for root, hi in [(0.3, 1.0), (4.5e-5, 0.05), (0.07, 0.9)]:
            lo_end = root - width * np.spacing(root)
            up_end = root + width * np.spacing(root)
            calls = []

            def deriv(gamma):
                calls.append(gamma)
                return min(gamma - lo_end, 0.0) + max(gamma - up_end, 0.0)

            def newton(gamma):
                return deriv(gamma), 1.0

            got, evaluations = _bisect(deriv, hi, newton), len(calls)
            assert got == _bisect_100(deriv, hi)
            assert lo_end <= got <= up_end
            assert evaluations <= 20
            calls.clear()


class TestBruteforce:
    def test_e1_agrees(self, e1):
        brute = enumerate_bruteforce(e1)
        assert brute.total_cost == pytest.approx(2.0, abs=1e-6)
        fw = solve_flow_domain(e1, tol=1e-8)
        assert abs(fw.total_cost - brute.total_cost) <= 1e-5

    def test_prop1_agrees(self, prop1):
        brute = enumerate_bruteforce(prop1)
        assert brute.total_cost == pytest.approx(0.3, abs=1e-6)

    def test_single_path_forced(self):
        from chainflow import Application, Graph, Linear, Scenario
        g = Graph.from_undirected_edges([0, 1, 2], [(0, 1), (1, 2)])
        app = Application(id="a", chain_length=1, destination=2, packet_sizes=(1.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Linear(1.0) for e in g.links},
                     comp_costs={0: None, 1: None, 2: Linear(2.0)},
                     input_rates={(0, "a"): 1.0})
        brute = enumerate_bruteforce(s)
        # forced: 0->1->2, compute at 2: data hops 2, comp 2
        assert brute.total_cost == pytest.approx(1.0 + 1.0 + 2.0, abs=1e-8)

    def test_cross_oracle_agreement_random(self):
        for seed in range(6):
            s = random_scenario(seed, n=5, num_apps=2, K=1, R=2,
                                link_bound=40.0, comp_bound=30.0)
            fw = solve_flow_domain(s, tol=1e-8)
            brute = enumerate_bruteforce(s, tol=1e-10, max_paths=5000)
            assert abs(fw.total_cost - brute.total_cost) <= 1e-5 * max(1.0, fw.total_cost)

    def test_too_large(self):
        s = random_scenario(0, n=8, num_apps=2, K=2)
        with pytest.raises(TooLarge):
            enumerate_bruteforce(s)

    def test_path_enumeration_structure(self, e1):
        paths = enumerate_extended_paths(e1, "a", 1)
        # expected: compute at 1 then ship; ship then compute at 2;
        # plus the detour 1->2 (data) back 2->1 compute at 1, ship 1->2
        assert (("C", 0, 0), ("L", 1, 0, 1)) in paths
        assert (("L", 0, 0, 1), ("C", 0, 1)) in paths
        for p in paths:
            assert sum(1 for st in p if st[0] == "C") == 1


class TestCheapestExtendedPaths:
    @pytest.mark.parametrize("masked", [False, True])
    def test_matches_enumeration(self, masked):
        # the draws of test_cross_oracle_agreement_random, priced at the flows
        # of a random strategy; masked, each application may only use the
        # links of its zero-flow tree to the destination, as in SPOC
        for seed in range(6):
            s = random_scenario(seed, n=5, num_apps=2, K=1, R=2,
                                link_bound=40.0, comp_bound=30.0)
            comp = compiled(s)
            state = compute_flows(s, random_loopfree_strategy(s, seed))
            Dp, Cp = comp.links.deriv(state.edge_bits), comp.cpus.deriv(state.workload)
            for app in comp.apps:
                adj = None
                if masked:
                    _, succ = comp.zero_flow_tree(np.arange(comp.n) == app.dest)
                    adj = np.zeros((comp.n, comp.n), dtype=bool)
                    on = succ >= 0
                    adj[on, succ[on]] = True
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp,
                                                     barred_links(comp, {app.id: adj}))
                for src in range(comp.n):
                    costs = [path_cost(comp, app, p, Dp, Cp)
                             for p in enumerate_extended_paths(s, app.id, src, 5000)
                             if adj is None or all(adj[st[2], st[3]] for st in p if st[0] == "L")]
                    best = min(costs, default=np.inf)
                    if not np.isfinite(best):
                        assert dist[0, src] == np.inf and succ[0, src] == -3
                        continue
                    assert dist[0, src] == pytest.approx(best, rel=1e-12, abs=0.0)
                    path = _extract_path(succ, src)
                    assert path_cost(comp, app, path, Dp, Cp) == pytest.approx(best, rel=1e-12)


    @pytest.mark.parametrize("draw", ["random", "hub"])
    def test_matches_layered_dijkstra(self, draw):
        # every third node has no CPU, so its CPU steps cost inf * 0 = nan;
        # odd seeds also mask a random half of each application's links
        for seed in range(3):
            base = random_scenario(seed, n=9) if draw == "random" else hub_scenario(seed)
            s = Scenario(graph=base.graph, applications=base.applications,
                         link_costs=base.link_costs, input_rates=base.input_rates,
                         comp_costs={v: None if i % 3 == 0 else cost
                                     for i, (v, cost) in enumerate(base.comp_costs.items())})
            comp = compiled(s)
            rng = np.random.default_rng(seed)
            Dp = rng.uniform(0.1, 1.0, comp.E)
            Cp = rng.uniform(0.1, 1.0, comp.n) * comp.has_cpu
            masks = {app.id: rng.random((comp.n, comp.n)) < 0.5 for app in comp.apps}
            masks = masks if seed % 2 else None
            for app in comp.apps:
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp, barred_links(comp, masks))
                link_w = np.outer(app.L, Dp)
                if masks:
                    link_w[:, ~masks[app.id][comp.src, comp.dst]] = np.inf
                with np.errstate(invalid="ignore"):
                    cpu_w = app.w.T * Cp
                seeds = np.full(dist.shape, np.inf)
                seeds[app.K, app.dest] = 0.0
                assert np.array_equal(dist, layered_dijkstra(comp, link_w, seeds, cpu_w))
                assert (succ[np.isinf(dist)] == -3).all()
                for src in np.flatnonzero(np.isfinite(dist[0])):
                    path = _extract_path(succ, src)
                    assert path_cost(comp, app, path, Dp, Cp) == pytest.approx(dist[0, src],
                                                                                rel=1e-12)

    def test_zero_size_final_stage_gives_trees(self):
        # default packet sizes (10, 5, 0): every final-stage link costs 0
        # and all final-stage labels tie at 0; a successor is taken only on
        # strict improvement, so the final-stage successors still form a
        # tree into the destination and every source's path ends
        for seed in range(4):
            s = random_scenario(seed, n=10, K=2)
            comp = compiled(s)
            state = compute_flows(s, random_loopfree_strategy(s, seed))
            Dp, Cp = comp.links.deriv(state.edge_bits), comp.cpus.deriv(state.workload)
            for app in comp.apps:
                assert app.L[app.K] == 0.0
                dist, succ = cheapest_extended_paths(comp, app, Dp, Cp)
                assert (dist[app.K] == 0.0).all()
                for v in range(comp.n):
                    for _ in range(comp.n):
                        if v == app.dest:
                            break
                        v = succ[app.K, v]
                    assert v == app.dest
                for src in range(comp.n):
                    path = _extract_path(succ, src)
                    assert path_cost(comp, app, path, Dp, Cp) == pytest.approx(dist[0, src],
                                                                                rel=1e-12)

    def test_all_applications_at_once_match_per_application(self):
        # the oracle's gap loop searches every application in one call; on
        # sw-queue draw 1 at the greedy start's marginals, unmasked and with
        # SPOC's tree masks, its rows are bit-equal to per-application calls
        s = build_scenario(table_row("sw-queue"), 1)
        comp = compiled(s)
        F, G = _totals(comp, *_greedy_start(comp, {block: {} for block in _blocks(comp)},
                                            _PathTable(comp)))
        Dp, Cp = comp.links.deriv(F), comp.cpus.deriv(G)
        for m in (None, barred_links(comp, _spoc_masks(comp))):
            dist, succ = cheapest_extended_paths(comp, None, Dp, Cp, m)
            for app in comp.apps:
                one = cheapest_extended_paths(comp, app, Dp, Cp, m)
                assert np.array_equal(dist[app.stages], one[0])
                assert np.array_equal(succ[app.stages], one[1])


def _masked_search_reference(comp, app, Dp, Cp, masks):
    """cheapest_extended_paths as it was before the per-solve barred links:
    each application's (n, n) mask sets its rows' barred link weights to
    inf, one application at a time, and the seeds and CPU offers are built
    from the stage arrays on every call."""
    stages, base = (slice(None), 0) if app is None else (app.stages, app.s0)
    link_w = comp.L[stages, None] * Dp
    for a in comp.apps if app is None else [app]:
        if masks.get(a.id) is not None:
            link_w[a.s0 - base:a.s0 - base + a.K + 1, ~masks[a.id][comp.src, comp.dst]] = np.inf
    with np.errstate(invalid="ignore"):
        cpu_w = comp.w[stages] * Cp
    terminal = ~comp.active[stages]
    dist, succ = np.where(terminal, 0.0, np.inf), np.where(terminal, -2, -3)
    nxt = np.minimum(np.arange(1, len(dist) + 1), len(dist) - 1)
    for j in reversed(range(len(comp.positions) if app is None else app.K + 1)):
        rows = comp.positions[j].rows if app is None else slice(j, j + 1)
        d, s = dist[rows], succ[rows]
        cheapest_to_go(comp, link_w[rows], d, s, cpu_w[rows] + dist[nxt[rows]])
        dist[rows], succ[rows] = d, s
    return dist, succ


class TestBarredLinks:
    @pytest.mark.parametrize("fault", ["misshaped", "float"])
    def test_malformed_mask_refused(self, fault):
        # on Abilene draw 1 an (n - 1, n) mask raised a bare IndexError and a
        # float 0/1 mask a TypeError from `~`; either is now a ValueError
        # naming the application, from barred_links and from the solver
        s = build_scenario(table_row("abilene"), 1)
        comp = compiled(s)
        app = comp.apps[1]
        mask = comp.adj[:-1] if fault == "misshaped" else comp.adj.astype(float)
        refusal = re.escape(f"link mask of application {app.id!r} is not an (11, 11) boolean")
        with pytest.raises(ValueError, match=refusal):
            barred_links(comp, {app.id: mask})
        with pytest.raises(ValueError, match=refusal):
            solve_flow_domain(s, app_link_masks={comp.apps[0].id: comp.adj, app.id: mask})

    def test_mask_of_no_application_ignored(self):
        # Scenario drops applications without a positive rate, so masks may
        # name ids the compiled scenario lacks; those bar nothing, however
        # they are shaped
        comp = compiled(build_scenario(table_row("abilene"), 1))
        assert barred_links(comp, {"absent": comp.adj[:-1], "gone": np.ones(3)}) is None
        barred = barred_links(comp, {"absent": None, **_spoc_masks(comp)})
        assert barred.tobytes() == barred_links(comp, _spoc_masks(comp)).tobytes()

    @pytest.mark.parametrize("case", ["sw-queue 1", "mixed 3",
                                      *(f"random {i}" for i in range(4))])
    def test_barred_array_equals_per_application_masks(self, case):
        # SPOC's tree masks as one (S, E) barred-link array, built once per
        # solve, give every search, per application and for all of them at
        # once, the labels and successors of the masks applied one by one
        # with the seeds and offers built on every call, and so does the
        # search without masks; at the greedy start's marginals and at
        # random ones. "mixed 3" has chain positions of final and middle
        # stages together.
        s = _greedy_case(case)
        comp = compiled(s)
        masks = _spoc_masks(comp)
        barred = barred_links(comp, masks)
        assert barred.shape == (len(comp.keys), comp.E) and barred.any()
        F, G = _totals(comp, *_greedy_start(comp, {block: {} for block in _blocks(comp)},
                                            _PathTable(comp), barred))
        rng = np.random.default_rng(len(case))
        for Dp, Cp in [(comp.links.deriv(F), comp.cpus.deriv(G)),
                       (rng.uniform(0.1, 1.0, comp.E), rng.uniform(0.1, 1.0, comp.n))]:
            for app in [None, *comp.apps]:
                for m, searched in ((masks, (barred, barred_links(comp, masks))),
                                    ({}, (None, barred_links(comp, {})))):
                    want = _masked_search_reference(comp, app, Dp, Cp, m)
                    for got in (cheapest_extended_paths(comp, app, Dp, Cp, given)
                                for given in searched):
                        assert got[0].tobytes() == want[0].tobytes()
                        assert got[1].tobytes() == want[1].tobytes()
        # masks that admit every link bar nothing
        assert barred_links(comp, {a.id: comp.adj for a in comp.apps}) is None
        assert barred_links(comp, None) is None


class TestZeroSizeFinalPosition:
    @pytest.mark.parametrize("masked", [False, True])
    @pytest.mark.parametrize("case", ["sw-queue 1", "abilene 2 sizes 3,2,1"])
    def test_reused_rows_equal_a_fresh_search(self, monkeypatch, case, masked):
        # every search of a solve, its own or the greedy start's, must give
        # what a fresh search on its inputs gives; on sw-queue (sizes 10, 5,
        # 0) each application and the all-application group search their
        # final position once and reuse it after, and with a nonzero result
        # size nothing is reused
        if case == "sw-queue 1":
            s = build_scenario(table_row("sw-queue"), 1)
        else:
            s = build_scenario(dict(table_row("abilene"), packet_sizes=[3, 2, 1]), 2)
        comp = compiled(s)
        masks = _spoc_masks(comp) if masked else None
        search, paths = oracle.cheapest_to_go, oracle.cheapest_extended_paths
        searched, reused = [], {}

        def counted(*args, **kwargs):
            searched.append(1)
            return search(*args, **kwargs)

        def checked(comp, app, Dp, Cp, barred=None, memo=None):
            searched.clear()
            dist, succ = paths(comp, app, Dp, Cp, barred, memo)
            positions = len(comp.positions) if app is None else app.K + 1
            reused.setdefault(app, []).append(positions - len(searched))
            fresh = paths(comp, app, Dp, Cp, barred)
            assert dist.tobytes() == fresh[0].tobytes()
            assert succ.tobytes() == fresh[1].tobytes()
            return dist, succ

        monkeypatch.setattr(oracle, "cheapest_to_go", counted)
        monkeypatch.setattr(oracle, "cheapest_extended_paths", checked)
        assert solve_flow_domain(s, tol=1e-6, app_link_masks=masks).converged
        assert set(reused) == {None, *comp.apps}
        for counts in reused.values():
            assert counts == ([0] + [1] * (len(counts) - 1) if case == "sw-queue 1"
                              else [0] * len(counts))


class TestStrategyFromFlows:
    def test_e1_recovers_strategy_a(self, e1, e1_strategy_a):
        res = solve_flow_domain(e1, tol=1e-10)
        phi = strategy_from_flows(e1, res.flows)
        for key, mat in e1_strategy_a.rows.items():
            assert np.allclose(phi.rows[key], mat, atol=1e-9)

    def test_uniform_split_normalization(self, e1):
        comp = compiled(e1)
        fv = FlowVector(comp.nodes,
                        {k: np.zeros((2, 2)) for k in comp.keys},
                        {k: np.zeros(2) for k in comp.keys})
        # half computed at 1, half shipped and computed at 2
        fv.cpu_flows[("a", 0)][0] = 0.5
        fv.link_flows[("a", 0)][0, 1] = 0.5
        fv.cpu_flows[("a", 0)][1] = 0.5
        fv.link_flows[("a", 1)][0, 1] = 0.5
        phi = strategy_from_flows(e1, fv)
        assert phi.rows[("a", 0)][0, 0] == pytest.approx(0.5)
        assert phi.rows[("a", 0)][0, 2] == pytest.approx(0.5)

    @pytest.mark.parametrize("circling", [1.0, 1e-8])
    def test_cyclic_flow_refused(self, circling):
        # raw data circles 1 -> 2 -> 1 before node 2 computes it; on this
        # 6-node chain a small circling rate lets the marginal sweep settle
        # within its n + 1 sweeps, so the refusal cannot rest on the sweep
        from chainflow import Application, Graph, Linear, Scenario
        g = Graph.from_undirected_edges(range(1, 7), [(i, i + 1) for i in range(1, 6)])
        app = Application(id="a", chain_length=1, destination=6, packet_sizes=(2.0, 1.0))
        s = Scenario(graph=g, applications=(app,),
                     link_costs={e: Linear(1.0) for e in g.links},
                     comp_costs={v: Linear(1.0) for v in g.nodes},
                     input_rates={(1, "a"): 1.0})
        comp = compiled(s)
        fv = FlowVector(comp.nodes,
                        {k: np.zeros((6, 6)) for k in comp.keys},
                        {k: np.zeros(6) for k in comp.keys})
        fv.link_flows[("a", 0)][0, 1] = 1.0 + circling
        fv.link_flows[("a", 0)][1, 0] = circling
        fv.cpu_flows[("a", 0)][1] = 1.0
        for i in range(1, 5):
            fv.link_flows[("a", 1)][i, i + 1] = 1.0
        with pytest.raises(LoopDetected):
            strategy_from_flows(s, fv)

    def test_round_trip_reproduces_totals(self):
        for seed in range(4):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = solve_flow_domain(s, tol=1e-9)
            phi = strategy_from_flows(s, res.flows)
            assert validate_strategy(s, phi) == []
            st = compute_flows(s, phi)
            comp = compiled(s)
            from chainflow.oracle import _totals
            F, G = _totals(comp, *res.flows.arrays(comp))
            assert np.max(np.abs(st.edge_bits - F)) <= 1e-9
            assert np.max(np.abs(st.workload - G)) <= 1e-9

    def test_positive_traffic_rows_untouched(self):
        # rows of nodes that carry traffic are the flows over the traffic;
        # only zero-traffic rows are filled, each with one unit direction
        for seed in range(4):
            s = random_scenario(seed, n=6, num_apps=2, K=2)
            res = solve_flow_domain(s, tol=1e-6)
            phi = strategy_from_flows(s, res.flows)
            comp = compiled(s)
            for app in comp.apps:
                for k in range(app.K + 1):
                    key = (app.id, k)
                    f = np.where(res.flows.link_flows[key] < 1e-12, 0.0,
                                 res.flows.link_flows[key])
                    g = np.where(res.flows.cpu_flows[key] < 1e-12, 0.0,
                                 res.flows.cpu_flows[key])
                    inj = app.r if k == 0 else res.flows.cpu_flows[(app.id, k - 1)]
                    t = f.sum(axis=0) + inj
                    mat = phi.rows[key]
                    for i in range(comp.n):
                        if k == app.K and i == app.dest:
                            assert not mat[i].any()
                        elif t[i] > 1e-12:
                            row = np.concatenate(([g[i]], f[i])) / t[i]
                            assert np.allclose(mat[i], row / row.sum(), rtol=0, atol=1e-12)
                        else:
                            assert sorted(mat[i][mat[i] != 0]) == [1.0]

    def test_zero_traffic_rows_take_cheapest_direction(self):
        # flows of random strategies are far from optimal, so a traffic
        # carrying node's marginal is often above what a zero-traffic detour
        # through it would offer; filled rows must still point at a minimal
        # modified marginal of the returned strategy
        filled = 0
        for seed in range(6):
            s = random_scenario(seed, n=10, num_apps=2, K=1 + seed % 2)
            state = compute_flows(s, random_loopfree_strategy(s, seed))
            fv = FlowVector(state.nodes, dict(state.link_flows), dict(state.cpu_flows))
            phi = strategy_from_flows(s, fv)
            new_state = compute_flows(s, phi)
            delta = modified_marginals(s, new_state, traffic_marginals(s, phi, new_state))
            comp = compiled(s)
            for app in comp.apps:
                for k in range(app.K + 1):
                    key = (app.id, k)
                    for i in np.flatnonzero(state.traffic[key] <= 1e-12):
                        if k == app.K and i == app.dest:
                            continue
                        row, d = phi.rows[key][i], delta[key][i]
                        assert d[row == 1.0][0] <= d.min() + 1e-12 * max(1.0, abs(d.min()))
                        filled += 1
        assert filled >= 50

    def test_oracle_strategy_satisfies_sufficient(self):
        for seed in range(3):
            s = random_scenario(seed, n=6, num_apps=2, K=1)
            res = solve_flow_domain(s, tol=1e-9)
            phi = strategy_from_flows(s, res.flows)
            assert check_sufficient(s, phi, tol=1e-4).holds

    def test_scenario_without_input(self):
        # no application has a positive input rate, so the scenario keeps
        # none: the oracle's flows are empty, and so is their strategy
        base = random_scenario(0, n=6, num_apps=2, K=1)
        s = Scenario(graph=base.graph, applications=base.applications,
                     link_costs=base.link_costs, comp_costs=base.comp_costs, input_rates={})
        phi = strategy_from_flows(s, solve_flow_domain(s).flows)
        assert validate_strategy(s, phi) == [] and compute_flows(s, phi).total_cost == 0.0


class TestTwoSidedOptimality:
    def test_oracle_lower_bounds_all_strategies(self):
        for seed in range(4):
            s = random_scenario(seed, n=6, num_apps=1, K=1)
            tstar = solve_flow_domain(s, tol=1e-8).total_cost
            for j in range(3):
                phi = random_loopfree_strategy(s, 100 * seed + j)
                T = compute_flows(s, phi).total_cost
                assert tstar <= T + 1e-6
                if check_sufficient(s, phi).holds:
                    assert T <= tstar + 1e-6 * max(1.0, tstar)

    def test_gp_meets_oracle(self):
        s = random_scenario(9, n=7, num_apps=2, K=1)
        gp = run_gp(s, config=GpConfig(tol=1e-7, max_iters=6000))
        assert gp.converged
        tstar = solve_flow_domain(s, tol=1e-8).total_cost
        assert gp.total_cost <= tstar * 1.01 + 1e-9
        assert tstar <= gp.total_cost + 1e-6 * max(1.0, tstar)
