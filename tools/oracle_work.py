"""Print the oracle's and SPOC's line-search work on the 40 c04 draws.

    PYTHONPATH=src python3 tools/oracle_work.py

Each TABLE_ROWS row at seeds 1-5 is solved by the flow-domain oracle
(solve_flow_domain at tol 1e-6) and by SPOC (spoc, whose one oracle solve
runs on its shortest-path trees). A line gives the row, the draw, the solver,
its iterations (gap checks after the first), its exact line searches (one per
conditional-gradient step), its sparse line searches (one per pairwise move
tried), and the derivative and Newton evaluations that _bisect makes for
both kinds; the last lines sum them per solver. The counts come from
wrapping the module globals oracle._exact_line_search,
oracle._sparse_line_search and oracle._bisect, restored afterwards, and
depend on no timing, so two checkouts compare directly: a change to a line
search shows here as counts. Takes about 3 s on one core of a 2-core Xeon VM.
"""

from __future__ import annotations

from collections import Counter
from contextlib import contextmanager

from chainflow import TABLE_ROWS, baselines, build_scenario, oracle, solve_flow_domain, spoc

COLUMNS = ("iterations", "exact", "sparse", "deriv", "newton")


@contextmanager
def counting():
    """A Counter of the line searches ('exact', 'sparse') and of _bisect's
    calls of their derivative ('deriv') and of its Newton variant ('newton')
    made inside the block."""
    tally = Counter()
    real = {name: getattr(oracle, name)
            for name in ("_exact_line_search", "_sparse_line_search", "_bisect")}

    def search(kind):
        def counted(*args, **kwargs):
            tally[kind] += 1
            return real[f"_{kind}_line_search"](*args, **kwargs)
        return counted

    def counted_bisect(deriv, hi, newton=None):
        def counted_deriv(gamma):
            tally["deriv"] += 1
            return deriv(gamma)

        def counted_newton(gamma):
            tally["newton"] += 1
            return newton(gamma)

        return real["_bisect"](counted_deriv, hi, None if newton is None else counted_newton)

    oracle._exact_line_search, oracle._sparse_line_search = search("exact"), search("sparse")
    oracle._bisect = counted_bisect
    try:
        yield tally
    finally:
        for name, fn in real.items():
            setattr(oracle, name, fn)


def solve(solver: str, scenario):
    """The OracleResult of the oracle's solve at tol 1e-6 ('oracle'), or of
    the one solve inside spoc(scenario) ('spoc')."""
    if solver == "oracle":
        return solve_flow_domain(scenario, tol=1e-6)
    results, real = [], baselines.solve_flow_domain

    def kept(*args, **kwargs):
        results.append(real(*args, **kwargs))
        return results[-1]

    baselines.solve_flow_domain = kept
    try:
        spoc(scenario)
    finally:
        baselines.solve_flow_domain = real
    return results[0]


def main():
    print(f"{'row':<14} {'draw':>4} {'solver':<6} " + " ".join(f"{c:>10}" for c in COLUMNS))
    totals = {solver: Counter() for solver in ("oracle", "spoc")}
    for row in TABLE_ROWS:
        for draw in range(1, 6):
            s = build_scenario(row, draw)
            for solver, total in totals.items():
                with counting() as tally:
                    tally["iterations"] = solve(solver, s).iterations
                print(f"{row['name']:<14} {draw:>4} {solver:<6} "
                      + " ".join(f"{tally[c]:>10}" for c in COLUMNS))
                total.update(tally)
    for solver, total in totals.items():
        print(f"{'total':<14} {'':>4} {solver:<6} " + " ".join(f"{total[c]:>10}" for c in COLUMNS))


if __name__ == "__main__":
    main()
