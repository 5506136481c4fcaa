"""Print the work of GP and of the oracle on the c04 draws, as three tables,
each followed by a blank line.

    PYTHONPATH=src python3 tools/work.py

Every count depends on no timing, so two checkouts compare directly: a
change to the stepsize rule, to per-call overhead or to a line search shows
here as counts, without the noise of a timed benchmark. GP runs cold
run_gp at the benchmark study's settings (tol 1e-4, 1000 slots), as c04 runs
it. Takes about 5 s on one core of a 2-core Xeon VM.

1. GP's work: each TABLE_ROWS row at seeds 1-5. A line gives the row, the
   draw, the slots that made a step, the candidate evaluations (those slots
   plus their retries at a smaller stepsize, one compute_flows each) and
   whether the run converged; the last line sums them.
2. Calls per slot: Abilene draw 1 and sw-queue draw 1, solved once to warm
   the compiled scenario's caches, then once under cProfile. A line gives
   the row, the draw, the run's slots (history rows, the converging one
   included), its candidate evaluations, the function calls that cProfile
   counted in the run and those calls per slot, then the (stage, node) rows
   whose entries the slots' UpdatePlans tested (`screened`; every row of
   the slot's stages where a plan has no screen) and the rows they kept,
   per slot, counted in the warm-up run.
3. Line searches: each TABLE_ROWS row at seeds 1-5, solved by the
   flow-domain oracle (solve_flow_domain at tol 1e-6) and by SPOC (spoc,
   whose one oracle solve runs on its shortest-path trees). A line gives
   the row, the draw, the solver, its iterations (gap checks after the
   first), its exact line searches (one per conditional-gradient step), its
   sparse line searches (one per pairwise move tried), and the derivative
   and Newton evaluations that _bisect makes for both kinds; the last lines
   sum them per solver.
"""

from __future__ import annotations

import cProfile
import pstats
from collections import Counter
from contextlib import contextmanager

from chainflow import (TABLE_ROWS, baselines, build_scenario, gp, oracle, run_gp,
                       solve_flow_domain, spoc, table_row)
from chainflow.experiments import _gp_config

C04 = _gp_config({})
CASES = (("abilene", 1), ("sw-queue", 1))
COLUMNS = ("iterations", "exact", "sparse", "deriv", "newton")


def draws():
    """(row name, draw, scenario) of the 40 c04 draws."""
    for row in TABLE_ROWS:
        for draw in range(1, 6):
            yield row["name"], draw, build_scenario(row, draw)


def work(res) -> tuple:
    """(slots with a step, candidate evaluations) of a GP result. Every
    history row but a converged last one evaluated one candidate and one
    more per retry; a last row that ran into the stepsize floor made no
    step, so the slots are res.iterations."""
    rows = len(res.history) - res.converged
    return res.iterations, rows + sum(row["halvings"] for row in res.history)


@contextmanager
def patched(module, **wrappers):
    """Inside the block, each named global of `module` is wrappers[name]
    applied to the real one; every one is put back afterwards."""
    real = {name: getattr(module, name) for name in wrappers}
    for name, wrap in wrappers.items():
        setattr(module, name, wrap(real[name]))
    try:
        yield
    finally:
        for name, fn in real.items():
            setattr(module, name, fn)


def calls(row: str, draw: int) -> tuple:
    """(slots, candidates, calls, screened, kept) of the profiled cold
    run_gp on a draw; screened and kept sum the rows of the warm-up run's
    update plans, which the same rows and the same slots make."""
    s = build_scenario(table_row(row), draw)
    rows = []

    def counted(plan):
        class Counted(plan):
            def __init__(self, comp, X, d, flagged, stages, *rest):
                super().__init__(comp, X, d, flagged, stages, *rest)
                rows.append((getattr(self, "screened", stages.index.size * comp.n), self.rows.size))
        return Counted

    with patched(gp, UpdatePlan=counted):
        run_gp(s, config=C04)
    profile = cProfile.Profile()
    res = profile.runcall(run_gp, s, config=C04)
    screened, kept = (sum(column) for column in zip((0, 0), *rows))
    return len(res.history), work(res)[1], pstats.Stats(profile).total_calls, screened, kept


@contextmanager
def counting():
    """A Counter of the line searches ('exact', 'sparse') and of _bisect's
    calls of their derivative ('deriv') and of its Newton variant ('newton')
    made inside the block."""
    tally = Counter()

    def counted(kind, fn):
        def call(*args, **kwargs):
            tally[kind] += 1
            return fn(*args, **kwargs)
        return call

    def bisect(real):
        return lambda deriv, hi, newton=None: real(
            counted("deriv", deriv), hi, None if newton is None else counted("newton", newton))

    with patched(oracle, _exact_line_search=lambda real: counted("exact", real),
                 _sparse_line_search=lambda real: counted("sparse", real), _bisect=bisect):
        yield tally


def solve(solver: str, scenario):
    """The OracleResult of the oracle's solve at tol 1e-6 ('oracle'), or of
    the one solve inside spoc(scenario) ('spoc')."""
    if solver == "oracle":
        return solve_flow_domain(scenario, tol=1e-6)
    results = []

    def kept(real):
        def call(*args, **kwargs):
            results.append(real(*args, **kwargs))
            return results[-1]
        return call

    with patched(baselines, solve_flow_domain=kept):
        spoc(scenario)
    return results[0]


def main():
    print(f"{'row':<14} {'draw':>4} {'slots':>6} {'candidates':>10}  converged")
    total_slots = total_candidates = converged = count = 0
    for name, draw, s in draws():
        res = run_gp(s, config=C04)
        slots, candidates = work(res)
        print(f"{name:<14} {draw:>4} {slots:>6} {candidates:>10}  {res.converged}")
        total_slots += slots
        total_candidates += candidates
        converged += res.converged
        count += 1
    print(f"{'total':<14} {count:>4} {total_slots:>6} {total_candidates:>10}  {converged}/{count}\n")

    print(f"{'row':<10} {'draw':>4} {'slots':>6} {'candidates':>10} {'calls':>9} {'calls/slot':>10} "
          f"{'screened/slot':>13} {'kept/slot':>9}")
    for row, draw in CASES:
        slots, candidates, total, screened, kept = calls(row, draw)
        print(f"{row:<10} {draw:>4} {slots:>6} {candidates:>10} {total:>9} "
              f"{total / slots:>10.1f} {screened / slots:>13.1f} {kept / slots:>9.1f}")
    print()

    print(f"{'row':<14} {'draw':>4} {'solver':<6} " + " ".join(f"{c:>10}" for c in COLUMNS))
    totals = {solver: Counter() for solver in ("oracle", "spoc")}
    for name, draw, s in draws():
        for solver, total in totals.items():
            with counting() as tally:
                tally["iterations"] = solve(solver, s).iterations
            print(f"{name:<14} {draw:>4} {solver:<6} " + " ".join(f"{tally[c]:>10}" for c in COLUMNS))
            total.update(tally)
    for solver, total in totals.items():
        print(f"{'total':<14} {'':>4} {solver:<6} " + " ".join(f"{total[c]:>10}" for c in COLUMNS))
    print()


if __name__ == "__main__":
    main()
