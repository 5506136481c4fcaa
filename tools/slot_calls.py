"""Print the cProfile function calls per GP slot of cold run_gp, and the
rows its update plans screen and keep per slot.

    PYTHONPATH=src python3 tools/slot_calls.py

Abilene draw 1 and sw-queue draw 1 are solved by cold run_gp at the
benchmark study's settings (tol 1e-4, 1000 slots), as c04 runs them: once
to warm the compiled scenario's caches, then once under cProfile. A line
gives the row, the draw, the run's slots (history rows, the converging one
included), its candidate evaluations, the function calls that cProfile
counted in the run and those calls per slot, then the (stage, node) rows
whose entries the slots' UpdatePlans tested (`screened`; every row of the
slot's stages where a plan has no screen) and the rows they kept, per slot,
counted in the warm-up run. The counts depend on no timing, so two
checkouts compare directly: per-call overhead, which rules the many tiny
solves of Abilene, shows as a count that no machine changes. Takes about
1 s on one core of a 2-core Xeon VM.
"""

from __future__ import annotations

import cProfile
import pstats

from chainflow import GpConfig, build_scenario, gp, run_gp, table_row

C04 = GpConfig(tol=1e-4, max_iters=1000)
CASES = (("abilene", 1), ("sw-queue", 1))


def calls(row: str, draw: int) -> tuple:
    """(slots, candidates, calls, screened, kept) of the profiled cold
    run_gp on a draw; screened and kept sum the rows of the warm-up run's
    update plans, which the same rows and the same slots make."""
    s = build_scenario(table_row(row), draw)
    rows = []

    class Counted(gp.UpdatePlan):
        def __init__(self, comp, X, d, flagged, stages, *rest):
            super().__init__(comp, X, d, flagged, stages, *rest)
            rows.append((getattr(self, "screened", stages.index.size * comp.n), self.rows.size))

    plan, gp.UpdatePlan = gp.UpdatePlan, Counted
    try:
        run_gp(s, config=C04)
    finally:
        gp.UpdatePlan = plan
    profile = cProfile.Profile()
    res = profile.runcall(run_gp, s, config=C04)
    slots = len(res.history)
    candidates = slots - res.converged + sum(r["halvings"] for r in res.history)
    screened, kept = (sum(column) for column in zip((0, 0), *rows))
    return slots, candidates, pstats.Stats(profile).total_calls, screened, kept


def main():
    print(f"{'row':<10} {'draw':>4} {'slots':>6} {'candidates':>10} {'calls':>9} {'calls/slot':>10} "
          f"{'screened/slot':>13} {'kept/slot':>9}")
    for row, draw in CASES:
        slots, candidates, total, screened, kept = calls(row, draw)
        print(f"{row:<10} {draw:>4} {slots:>6} {candidates:>10} {total:>9} "
              f"{total / slots:>10.1f} {screened / slots:>13.1f} {kept / slots:>9.1f}")


if __name__ == "__main__":
    main()
