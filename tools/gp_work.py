"""Print GP's work on the 40 c04 draws, one line per draw.

    PYTHONPATH=src python3 tools/gp_work.py

Each TABLE_ROWS row at seeds 1-5 is solved by cold run_gp at the benchmark
study's settings (tol 1e-4, 1000 slots), as c04 runs it. A line gives the
row, the draw, the slots that made a step, the candidate evaluations (those
slots plus their retries at a smaller stepsize, one compute_flows each) and
whether the run converged; the last line sums them. The counts come from
each run's history and depend on no timing, so two checkouts compare
directly: a change to the stepsize rule shows here as counts, without the
noise of a timed benchmark. Takes about 2 s on one core of a 2-core Xeon VM.
"""

from __future__ import annotations

from chainflow import TABLE_ROWS, GpConfig, build_scenario, run_gp

C04 = GpConfig(tol=1e-4, max_iters=1000)


def work(res) -> tuple:
    """(slots with a step, candidate evaluations) of a GP result. Every
    history row but a converged last one evaluated one candidate and one
    more per retry; a last row that ran into the stepsize floor made no
    step, so the slots are res.iterations."""
    rows = len(res.history) - res.converged
    return res.iterations, rows + sum(row["halvings"] for row in res.history)


def main():
    print(f"{'row':<14} {'draw':>4} {'slots':>6} {'candidates':>10}  converged")
    total_slots = total_candidates = converged = draws = 0
    for row in TABLE_ROWS:
        for draw in range(1, 6):
            res = run_gp(build_scenario(row, draw), config=C04)
            slots, candidates = work(res)
            print(f"{row['name']:<14} {draw:>4} {slots:>6} {candidates:>10}  {res.converged}")
            total_slots += slots
            total_candidates += candidates
            converged += res.converged
            draws += 1
    print(f"{'total':<14} {draws:>4} {total_slots:>6} {total_candidates:>10}  "
          f"{converged}/{draws}")


if __name__ == "__main__":
    main()
