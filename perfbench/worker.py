"""One run of one workload in a fresh process; prints one JSON line.

    python3 perfbench/worker.py --workload swq-gp --seed 1 --seconds 30 --trace 0

Import, scenario construction and the first compile form the set-up; with
--setup-only the worker stops there. Otherwise max(1, round(seconds /
round_s)) rounds follow. With --trace 1 the tracer wraps the chainflow layers before
anything is built, and the per-round layer counts and self times are
reported. All times are wall times as measured.
"""

import argparse
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def import_chainflow():
    """Import chainflow with one BLAS/OpenMP thread; returns the seconds taken."""
    for var in THREAD_VARS:
        os.environ[var] = "1"     # read when numpy is first imported
    start = time.perf_counter()
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, HERE)
    import chainflow  # noqa: F401  (numpy and networkx come with it)
    return time.perf_counter() - start


def median(values):
    return statistics.median(values) if values else None


def p90(values):
    """90th percentile; None below 100 samples (fewer than ten beyond it)."""
    if len(values) < 100:
        return None
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference", default=os.path.join(HERE, "reference.json"))
    args = ap.parse_args(argv)

    with open(args.reference, encoding="utf-8") as fh:
        refs = json.load(fh)

    import_s = import_chainflow()

    spans = None
    if args.trace:
        from tracer import Tracer, difference
        spans = Tracer()
        spans.install()
    import workloads

    workload = workloads.WORKLOADS[args.workload](args.seed, args.smoke)

    t0 = time.perf_counter()
    built = workload.build(refs)
    setup_s = import_s + time.perf_counter() - t0
    setup_trace = spans.snapshot() if spans else None

    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    run = workloads.Run()
    round_s = []
    for _ in range(max(1, round(args.seconds / workload.round_s))):
        t0 = time.perf_counter()
        workload.round(built, run)
        round_s.append(time.perf_counter() - t0)
    rounds_trace = spans.snapshot() if spans else None

    workload.check(run, refs, built)

    out = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "rounds": len(round_s),
        "attempted": run.attempted,
        "failed": run.failed,
        "wrong": run.wrong,
        "problems": run.problems[:20],
        "import_s": import_s,
        "setup_s": setup_s,
        "wall_s": median(round_s),
        "mean_round_s": sum(round_s) / len(round_s),
        "round_s": round_s,
        "main": workload.main, "aux": workload.aux,
        "samples": {k: len(v) for k, v in run.samples.items()},
        "p50_ms": {k: median(v) for k, v in run.samples.items()},
        "p90_ms": {k: p90(v) for k, v in run.samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if spans:
        out["layers"] = difference(rounds_trace, setup_trace)
        out["setup_layers"] = setup_trace
        out["absent"] = spans.absent
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
