"""Print the cProfile function calls per GP slot of cold run_gp.

    PYTHONPATH=src python3 tools/slot_calls.py

Abilene draw 1 and sw-queue draw 1 are solved by cold run_gp at the
benchmark study's settings (tol 1e-4, 1000 slots), as c04 runs them: once
to warm the compiled scenario's caches, then once under cProfile. A line
gives the row, the draw, the run's slots (history rows, the converging one
included), its candidate evaluations, the function calls that cProfile
counted in the run and those calls per slot. The counts depend on no
timing, so two checkouts compare directly: per-call overhead, which rules
the many tiny solves of Abilene, shows as a count that no machine changes.
Takes about 1 s on one core of a 2-core Xeon VM.
"""

from __future__ import annotations

import cProfile
import pstats

from chainflow import GpConfig, build_scenario, run_gp, table_row

C04 = GpConfig(tol=1e-4, max_iters=1000)
CASES = (("abilene", 1), ("sw-queue", 1))


def calls(row: str, draw: int) -> tuple:
    """(slots, candidates, calls) of the profiled cold run_gp on a draw,
    after a warm-up run on the same scenario."""
    s = build_scenario(table_row(row), draw)
    run_gp(s, config=C04)
    profile = cProfile.Profile()
    res = profile.runcall(run_gp, s, config=C04)
    slots = len(res.history)
    candidates = slots - res.converged + sum(r["halvings"] for r in res.history)
    return slots, candidates, pstats.Stats(profile).total_calls


def main():
    print(f"{'row':<10} {'draw':>4} {'slots':>6} {'candidates':>10} {'calls':>9} {'calls/slot':>10}")
    for row, draw in CASES:
        slots, candidates, total = calls(row, draw)
        print(f"{row:<10} {draw:>4} {slots:>6} {candidates:>10} {total:>9} "
              f"{total / slots:>10.1f}")


if __name__ == "__main__":
    main()
