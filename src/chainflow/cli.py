"""Command-line interface.

Subcommands:
  solve   optimize a single scenario with a chosen algorithm, dump results
  check   validate a dumped strategy, then verify the KKT / sufficient conditions
  oracle  flow-domain global optimum with duality-gap certificate
  run     multi-scenario / multi-seed experiment from a config file
  cc      congestion-control run (utility-based admission) on a scenario

Each subcommand accepts only the flags it reads, and `solve` needs --out.

Exit codes: 0 success, 1 invalid configuration or infeasible instance,
2 an iterative solver did not converge, or argparse refused the command
line (an unknown flag, a flag the subcommand does not read, or a missing
required one).
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from .congestion import AlphaFair, LinearUtility, extend_scenario, run_gp_cc, \
    write_admission_report, check_sufficient_cc
from .baselines import BASELINES
from .errors import ChainflowError, NotConverged
from .experiments import ExperimentConfig, build_scenario, run_experiment
from .flows import validate_strategy
from .gp import GpConfig, run_gp
from .marginals import DEFAULT_TOL, check_kkt, check_sufficient
from .metrics import hop_metrics
from .network import Scenario
from .oracle import solve_flow_domain
from .serialize import (dump_scenario, dump_strategy, load_scenario, load_strategy,
                        scenario_from_jsonable)


def _scenario(data, seed=None) -> Scenario:
    """The scenario of `data`, a scenario JSON or a table spec, which is
    built at `seed`, else at its own seed (0 if it has none)."""
    if "nodes" in data:
        return scenario_from_jsonable(data)
    return build_scenario(data, seed if seed is not None else data.get("seed", 0))


def _load_scenario_config(path, seed=None) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return _scenario(json.load(fh), seed)


def _gp_config(args) -> GpConfig:
    return GpConfig(stepsize=args.alpha, max_iters=args.max_iters, tol=args.tol)


def _cmd_solve(args) -> int:
    scenario = _load_scenario_config(args.config, args.seed)
    os.makedirs(args.out, exist_ok=True)
    scen_path = os.path.join(args.out, "scenario.json")
    dump_scenario(scenario, scen_path)
    if args.algo == "gp":
        res = run_gp(scenario, config=_gp_config(args))
        phi, state = res.phi, res.state
        iterations, converged = res.iterations, res.converged
        res.write_trace_csv(os.path.join(args.out, "trace.csv"))
    else:
        base = BASELINES[args.algo](scenario)
        if not base.feasible:
            print(f"{args.algo}: infeasible ({base.reason})", file=sys.stderr)
            return 1
        phi, state = base.phi, base.state
        iterations, converged = 0, base.converged
    dump_strategy(phi, os.path.join(args.out, "strategy.json"), scenario_path=scen_path)
    m = hop_metrics(scenario, phi, state, iterations=iterations)
    payload = m.to_jsonable()
    payload.update(converged=converged,
                   sufficient_holds=check_sufficient(scenario, phi).holds)
    with open(os.path.join(args.out, "metrics.json"), "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")
    print(f"{args.algo}: T={state.total_cost:.6g} iterations={iterations} "
          f"converged={converged}")
    return 0 if converged else 2


def _cmd_check(args) -> int:
    phi = load_strategy(args.strategy)
    config = args.config
    if config is None:
        with open(args.strategy, "r", encoding="utf-8") as fh:
            config = json.load(fh).get("scenario")
        if config is None:
            print("no scenario reference in strategy file; pass --config", file=sys.stderr)
            return 1
    scenario = _load_scenario_config(config, args.seed)
    report = {"violations": validate_strategy(scenario, phi)}
    if report["violations"]:
        print(json.dumps(report, indent=1, default=str))
        raise ValueError(f"the strategy fails validation ({len(report['violations'])} violations)")
    kkt = check_kkt(scenario, phi, tol=args.tol)
    suff = check_sufficient(scenario, phi, tol=args.tol)
    report.update(kkt=kkt.to_jsonable(), sufficient=suff.to_jsonable())
    print(json.dumps(report, indent=1))
    return 0 if suff.holds else 1


def _cmd_oracle(args) -> int:
    res = solve_flow_domain(_load_scenario_config(args.config, args.seed), tol=args.tol)
    print(f"oracle: T*={res.total_cost:.9g} gap={res.gap:.3e} "
          f"iterations={res.iterations}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        path = os.path.join(args.out, "flows.csv")
        with open(path, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["app", "stage", "kind", "from", "to", "flow"])
            nodes = res.flows.nodes
            for (app_id, k), f in sorted(res.flows.link_flows.items()):
                for i, j in zip(*f.nonzero()):
                    w.writerow([app_id, k, "link", nodes[i], nodes[j], repr(float(f[i, j]))])
                g = res.flows.cpu_flows[(app_id, k)]
                for i in g.nonzero()[0]:
                    w.writerow([app_id, k, "cpu", nodes[i], "", repr(float(g[i]))])
    return 0


def _cmd_run(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    if args.out:
        data["out_dir"] = args.out
    if args.seed is not None:
        data["seeds"] = [args.seed]
    config = ExperimentConfig.from_jsonable(data)
    records = run_experiment(config)
    feasible = [r for r in records if r["feasible"]]
    print(f"{len(records)} records ({len(feasible)} feasible) "
          f"-> {config.out_dir or '(not written)'}")
    if args.format == "json" and config.out_dir:
        with open(os.path.join(config.out_dir, "records.json"), "w", encoding="utf-8") as fh:
            json.dump(records, fh, indent=1, default=str)
            fh.write("\n")
    return 0


def _cmd_cc(args) -> int:
    with open(args.config, "r", encoding="utf-8") as fh:
        data = json.load(fh)
    seed = args.seed if args.seed is not None else data.get("seed", 0)
    scenario = _scenario(data["scenario"], seed)
    cap_scale = float(data.get("cap_scale", 1.0))
    caps = {pair: cap_scale * rate for pair, rate in scenario.input_rates.items()}
    uspec = data.get("utility", {"kind": "alpha_fair", "alpha": 1.0, "eps": 0.1})
    utilities = {}
    for pair, cap in caps.items():
        if uspec["kind"] == "alpha_fair":
            utilities[pair] = AlphaFair(alpha=float(uspec.get("alpha", 1.0)),
                                        eps=float(uspec.get("eps", 0.1)), cap=cap)
        elif uspec["kind"] == "linear":
            utilities[pair] = LinearUtility(slope=float(uspec.get("slope", 1.0)), cap=cap)
        else:
            print(f"unknown utility kind {uspec['kind']!r}", file=sys.stderr)
            return 1
    ext = extend_scenario(scenario, caps, utilities)
    res = run_gp_cc(ext, _gp_config(args))
    holds = check_sufficient_cc(ext, res.phi, res.admit).holds
    print(f"cc: utility-minus-cost={res.utility_minus_cost:.6g} "
          f"iterations={res.iterations} converged={res.converged} "
          f"sufficient={holds}")
    if args.out:
        os.makedirs(args.out, exist_ok=True)
        write_admission_report(ext, res, os.path.join(args.out, "admitted.csv"))
        dump_strategy(res.phi, os.path.join(args.out, "strategy.json"))
    return 0 if res.converged else 2


FLAGS = {
    "--config": dict(required=True, help="scenario or experiment JSON"),
    "--seed": dict(type=int, default=None),
    "--tol": dict(type=float, default=DEFAULT_TOL, help="optimality tolerance"),
    "--alpha": dict(type=float, default=GpConfig.stepsize, help="initial GP stepsize"),
    "--max-iters": dict(type=int, default=GpConfig.max_iters),
    "--out": dict(default=None, help="output directory"),
    "--format": dict(choices=("csv", "json"), default="csv"),
}


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="chainflow",
                                description="service-chain forwarding and offloading optimizer")
    sub = p.add_subparsers(dest="command", required=True)

    def command(name, func, text, *flags):
        sp = sub.add_parser(name, help=text)
        sp.set_defaults(func=func)
        for flag in flags:
            sp.add_argument(flag, **FLAGS[flag])
        return sp

    sp = command("solve", _cmd_solve, "optimize one scenario and dump the solution",
                 "--config", "--seed", "--tol", "--alpha", "--max-iters")
    sp.add_argument("--out", required=True, help="output directory")
    sp.add_argument("--algo", choices=("gp",) + tuple(BASELINES), default="gp")
    sp = command("check", _cmd_check, "verify optimality conditions on a strategy dump",
                 "--seed", "--tol")
    sp.add_argument("strategy", help="strategy.json produced by solve")
    sp.add_argument("--config", help="scenario JSON (default: the one the strategy names)")
    command("oracle", _cmd_oracle, "flow-domain global optimum",
            "--config", "--seed", "--tol", "--out")
    command("run", _cmd_run, "experiment from a config file",
            "--config", "--seed", "--out", "--format")
    command("cc", _cmd_cc, "utility-based congestion control run",
            "--config", "--seed", "--tol", "--alpha", "--max-iters", "--out")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except FileNotFoundError as err:
        print(f"missing file: {err}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, json.JSONDecodeError) as err:
        print(f"invalid configuration: {err}", file=sys.stderr)
        return 1
    except NotConverged as err:
        print(str(err), file=sys.stderr)
        return 2
    except ChainflowError as err:
        print(f"{type(err).__name__}: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
