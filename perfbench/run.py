"""The chainflow benchmark: one command per workload run.

    python3 perfbench/run.py --workload swq-gp --seed 1 --seconds 30 --trace 0

Run from the root of a checkout. Every run happens in fresh worker
processes (perfbench/worker.py): with --trace 0 one untraced worker gives
the end-to-end metrics; with --trace 1 an untraced worker and then a traced
worker share the time, and the traced one gives the per-layer metrics, so
the trace never runs in the process that is timed. The last line of stdout
is one JSON object: {"correct", "attempted", "failed", "metrics"}. All
times are wall times as measured.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("swq-gp", "swq-baselines", "abilene-online")
DEADLINE_S = 170.0          # every run must end within 180 s
SETUPS = 3                  # set-ups per untraced run, each in a fresh process

# the chainflow modules, which are the benchmark's layers
MODULES = ("network", "flows", "marginals", "gp", "oracle", "baselines",
           "congestion", "metrics", "experiments")


def machine() -> dict:
    """CPU model, core count and the versions the timings depend on."""
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    info = {"cpu": cpu, "cores": os.cpu_count(), "python": platform.python_version()}
    for pkg in ("numpy", "scipy", "networkx"):
        try:
            info[pkg] = metadata.version(pkg)
        except metadata.PackageNotFoundError:
            info[pkg] = None
    return info


def worker(args, deadline, trace=0, seconds=0.0, setup_only=False):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", repr(seconds), "--trace", str(trace)]
    if setup_only:
        cmd.append("--setup-only")
    if args.smoke:
        cmd.append("--smoke")
    if args.reference:
        cmd += ["--reference", args.reference]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise RuntimeError("no time left for the worker")
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with {proc.returncode}:\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def end_to_end(res, setups) -> dict:
    """The gated metrics; setup_s is the median over the set-up processes."""
    main, aux = res["p50_ms"].get(res["main"]), res["p50_ms"].get(res["aux"])
    if main is None or aux is None:
        raise RuntimeError(f"no successful {res['main']} or {res['aux']} operation")
    return {
        "setup_s": (statistics.median(s["setup_s"] for s in setups), "s"),
        "wall_s": (res["wall_s"], "s"),
        "main_ms_p50": (main, "ms"),
        "aux_ms_p50": (aux, "ms"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }


def named(res) -> dict:
    """The per-operation figures under their own names, for reading."""
    p50, p90 = res["p50_ms"], res["p90_ms"]
    out = {}
    for name, kind, scale, unit, table in (
            ("gp_solve_s", "gp_solve", 1e-3, "s", p50),
            ("gp_slot_ms", "gp_slot", 1, "ms", p50),
            ("gp_slot_ms_p90", "gp_slot", 1, "ms", p90),
            ("oracle_solve_s", "oracle_solve", 1e-3, "s", p50),
            ("spoc_solve_s", "spoc_solve", 1e-3, "s", p50),
            ("lcof_solve_s", "lcof_solve", 1e-3, "s", p50),
            ("lpr_sc_solve_s", "lpr-sc_solve", 1e-3, "s", p50),
            ("cold_solve_ms", "cold_solve", 1, "ms", p50),
            ("reopt_ms_p50", "reopt", 1, "ms", p50),
            ("reopt_ms_p90", "reopt", 1, "ms", p90),
            ("admit_ms_p50", "admit", 1, "ms", p50)):
        if table.get(kind) is not None:
            out[name] = (table[kind] * scale, unit)
    out["failure_rate"] = (res["failed"] / res["attempted"], "1")
    return out


def per_layer(traced, plain) -> dict:
    """Per-round layer figures of the traced worker."""
    rounds = traced["rounds"]
    layers = traced["layers"]
    calls = {k: v / rounds for k, v in layers["calls"].items()}
    self_s = {k: v / rounds for k, v in layers["self_s"].items()}
    counters = {k: v / rounds for k, v in layers["counters"].items()}

    def get(table, key):
        return table.get(key, 0.0)   # absent layers read as zero

    def ratio(num, den):
        return num / den if den else 0.0

    out = {}
    for layer in ("flows.compute_flows", "marginals.traffic_marginals",
                  "marginals.modified_marginals", "marginals.blocked_sets",
                  "gp.gp_step", "gp.sufficient_gap", "oracle.cheapest_extended_paths",
                  "oracle._totals", "congestion.extended_cost"):
        out[f"{layer}.calls"] = (get(calls, layer), "count")
        out[f"{layer}.self_s"] = (get(self_s, layer), "s")
    for layer in ("flows.loop_check", "gp.run_gp", "gp.repair", "oracle.solve_flow_domain",
                  "oracle.path_cost", "oracle.greedy_start", "oracle.strategy_from_flows",
                  "baselines.spoc", "baselines.lcof", "baselines.lpr_sc",
                  "congestion.run_gp_cc", "metrics.hop_metrics",
                  "experiments.run_algorithm"):
        out[f"{layer}.self_s"] = (get(self_s, layer), "s")
    searches = ("oracle.exact_line_search", "oracle.sparse_line_search")
    out["oracle.line_search.calls"] = (sum(get(calls, k) for k in searches), "count")
    out["oracle.line_search.self_s"] = (sum(get(self_s, k) for k in searches), "s")
    slots = get(counters, "gp.slots")
    out["gp.slots"] = (slots, "count")
    out["gp.accept_ratio"] = (ratio(slots, get(calls, "gp.gp_step")), "1")
    out["oracle.iterations"] = (get(counters, "oracle.iterations"), "count")
    out["oracle.pairwise_accept_ratio"] = (
        ratio(get(calls, "oracle.apply_swap"), get(calls, "oracle.sparse_line_search")), "1")
    setup = traced["setup_layers"]["self_s"]
    out["network.build_scenario.self_s"] = (get(setup, "network.build_scenario"), "s")

    # self times are per-round means, so compare them with the mean round
    wall = traced["mean_round_s"]
    spans = sum(self_s.values())
    # build_scenario, the network layer's only span, runs in the set-up
    for module in MODULES[1:]:
        share = sum(v for k, v in self_s.items() if k.split(".")[0] == module)
        out[f"layer.{module}.share"] = (100.0 * ratio(share, wall), "%")
    out["trace.wall_s"] = (wall, "s")
    out["trace.spans_s"] = (spans, "s")
    out["trace.remainder_s"] = (wall - spans, "s")
    out["trace.overhead_s"] = (wall - plain["mean_round_s"], "s")
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true",
                    help="tiny inputs, for the benchmark's self-tests")
    ap.add_argument("--reference", help="reference optima file (default: the stored one)")
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    try:
        if args.trace:
            plain = worker(args, deadline, seconds=args.seconds / 2)
            traced = worker(args, deadline, trace=1, seconds=args.seconds / 2)
            results = [plain, traced]
            metrics = per_layer(traced, plain)
            shown = {**named(plain), **metrics}
            if traced["absent"]:
                print(f"absent layers (reported as 0): {', '.join(traced['absent'])}")
        else:
            setups = [worker(args, deadline, setup_only=True) for _ in range(SETUPS - 1)]
            plain = worker(args, deadline, seconds=args.seconds)
            results = [plain]
            metrics = end_to_end(plain, [*setups, plain])
            shown = {**metrics, **named(plain)}
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError, IndexError) as err:
        print(f"benchmark run failed: {err}", file=sys.stderr)
        return 2

    print(f"machine: {json.dumps(machine())}")
    for res in results:
        print(f"worker trace={res['trace']}: {res['rounds']} rounds, samples {res['samples']}, "
              f"wall_s {res['wall_s']:.6g}")
        for problem in res["problems"]:
            print(f"  failed: {problem}")
    for name, (value, unit) in shown.items():
        print(f"{name} = {value:.6g} {unit}")
    print(json.dumps({
        "correct": all(r["wrong"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
