"""Experiment harness: scenario recipes, multi-seed algorithm comparisons,
rate sweeps, and packet-size-ratio sweeps. All outputs are plain records
(lists of dicts) plus deterministic CSV files; plotting is left to the
caller.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass, field, fields

import numpy as np

from .baselines import BASELINES
from .errors import (CapacityExceeded, LocalComputationInfeasible,
                     NoFeasibleStrategy, NotConverged)
from .gp import GpConfig, run_gp
from .metrics import hop_metrics
from .network import CostSpec, Scenario, generate_topology, sample_scenario
from .serialize import dump_scenario, dump_strategy

ALGORITHMS = ("gp",) + tuple(BASELINES)

# The benchmark suite: one row per simulated network scenario. Random
# topologies are pinned to a fixed topology seed so the graph is the same
# across scenario seeds; chains have two tasks and rates are drawn in
# [0.5, 1.5] everywhere.
TABLE_ROWS = [
    {"name": "connected-er",
     "topology": {"kind": "connected_er", "n": 20, "p": 0.1}, "topology_seed": 0,
     "num_apps": 5, "sources_per_app": 3,
     "link_cost": {"kind": "queue", "bound": 10.0},
     "comp_cost": {"kind": "queue", "bound": 12.0}},
    {"name": "balanced-tree",
     "topology": {"kind": "balanced_tree", "depth": 4},
     "num_apps": 5, "sources_per_app": 3,
     "link_cost": {"kind": "queue", "bound": 20.0},
     "comp_cost": {"kind": "queue", "bound": 15.0}},
    {"name": "fog",
     "topology": {"kind": "fog"},
     "num_apps": 5, "sources_per_app": 3,
     "link_cost": {"kind": "queue", "bound": 20.0},
     "comp_cost": {"kind": "queue", "bound": 17.0}},
    {"name": "abilene",
     "topology": {"kind": "abilene"},
     "num_apps": 3, "sources_per_app": 3,
     "link_cost": {"kind": "queue", "bound": 15.0},
     "comp_cost": {"kind": "queue", "bound": 10.0}},
    {"name": "lhc",
     "topology": {"kind": "lhc"},
     "num_apps": 8, "sources_per_app": 3,
     "link_cost": {"kind": "queue", "bound": 15.0},
     "comp_cost": {"kind": "queue", "bound": 15.0}},
    {"name": "geant",
     "topology": {"kind": "geant"},
     "num_apps": 10, "sources_per_app": 5,
     "link_cost": {"kind": "queue", "bound": 20.0},
     "comp_cost": {"kind": "queue", "bound": 20.0}},
    {"name": "sw-linear",
     "topology": {"kind": "small_world", "n": 100, "short": 3, "long": 20},
     "topology_seed": 0,
     "num_apps": 30, "sources_per_app": 8,
     "link_cost": {"kind": "linear", "bound": 20.0},
     "comp_cost": {"kind": "linear", "bound": 20.0}},
    {"name": "sw-queue",
     "topology": {"kind": "small_world", "n": 100, "short": 3, "long": 20},
     "topology_seed": 0,
     "num_apps": 30, "sources_per_app": 8,
     "link_cost": {"kind": "queue", "bound": 20.0},
     "comp_cost": {"kind": "queue", "bound": 20.0}},
]


def table_row(name: str) -> dict:
    for row in TABLE_ROWS:
        if row["name"] == name:
            return dict(row)
    raise KeyError(name)


@dataclass
class ExperimentConfig:
    scenarios: list                      # scenario spec dicts (or TABLE_ROWS names)
    seeds: list
    algorithms: tuple = ALGORITHMS
    sweep: dict | None = None            # {"kind": "rate_scale"|"size_ratio", "values": [...]}
    gp: dict = field(default_factory=dict)   # GpConfig overrides
    out_dir: str | None = None

    def __post_init__(self):
        if not self.algorithms:
            raise ValueError("need at least one algorithm")
        if not self.seeds:
            raise ValueError("need at least one seed")
        self.scenarios = [table_row(s) if isinstance(s, str) else dict(s)
                          for s in self.scenarios]
        for a in self.algorithms:
            if a not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {a!r}")
        if self.sweep is not None and self.sweep.get("kind") not in ("rate_scale", "size_ratio"):
            raise ValueError("sweep kind must be rate_scale or size_ratio")
        if self.sweep is not None and self.sweep["kind"] == "size_ratio":
            # _apply_sweep divides by the chain length and takes roots of the ratio
            if any(spec.get("chain_length", 2) < 1 for spec in self.scenarios):
                raise ValueError("a size_ratio sweep needs chain_length >= 1")
            if not all(0 <= float(v) < math.inf for v in self.sweep.get("values", ())):
                raise ValueError("size ratios must be finite and nonnegative")
        unknown = sorted(set(self.gp) - {f.name for f in fields(GpConfig)})
        if unknown:
            raise ValueError(f"unknown GP settings {unknown}")

    @classmethod
    def from_jsonable(cls, data: dict) -> "ExperimentConfig":
        return cls(scenarios=data["scenarios"], seeds=list(data["seeds"]),
                   algorithms=tuple(data.get("algorithms", ALGORITHMS)),
                   sweep=data.get("sweep"), gp=dict(data.get("gp", {})),
                   out_dir=data.get("out_dir"))


def build_scenario(spec: dict, seed: int) -> Scenario:
    """Resolve a scenario spec dict into a sampled Scenario."""
    spec = dict(spec)
    topo_spec = dict(spec.get("topology", {"kind": "abilene"}))
    kind = topo_spec.pop("kind")
    topo_seed = spec.get("topology_seed", seed)
    topology = generate_topology(kind, topo_spec, seed=topo_seed)
    cost_spec = CostSpec(
        link_kind=spec.get("link_cost", {}).get("kind", "queue"),
        link_bound=spec.get("link_cost", {}).get("bound", 15.0),
        comp_kind=spec.get("comp_cost", {}).get("kind", "queue"),
        comp_bound=spec.get("comp_cost", {}).get("bound", 10.0))
    scenario = sample_scenario(
        topology,
        num_apps=spec.get("num_apps", 3),
        chain_length=spec.get("chain_length", 2),
        sources_per_app=spec.get("sources_per_app", 3),
        rate_range=tuple(spec.get("rate_range", (0.5, 1.5))),
        cost_spec=cost_spec,
        seed=seed,
        packet_sizes=spec.get("packet_sizes"),
        name=spec.get("name", kind))
    return scenario


def _apply_sweep(spec: dict, sweep_kind: str | None, value) -> dict:
    spec = dict(spec)
    if sweep_kind == "size_ratio":
        K = spec.get("chain_length", 2)
        # result packets have size 1; data size = ratio; intermediate sizes
        # interpolate geometrically
        spec["packet_sizes"] = [float(value) ** ((K - k) / K) for k in range(K + 1)]
    return spec


def _scale_rates(scenario: Scenario, factor: float) -> Scenario:
    return scenario.with_rates({k: factor * v for k, v in scenario.input_rates.items()})


def _gp_config(overrides: dict) -> GpConfig:
    return GpConfig(**{"tol": 1e-4, "max_iters": 1000, **overrides})


def run_algorithm(name: str, scenario: Scenario, gp_cfg: GpConfig) -> dict:
    """One algorithm on one scenario; failures become infeasible records."""
    record = {"algorithm": name, "T": math.inf, "iterations": 0,
              "converged": False, "feasible": False, "reason": "",
              "H_data": math.nan, "H_result": math.nan, "_phi": None}
    try:
        if name == "gp":
            res = run_gp(scenario, config=gp_cfg)
            phi, state = res.phi, res.state
            record.update(iterations=res.iterations, converged=res.converged)
        else:
            base = BASELINES[name](scenario)
            if not base.feasible:
                record.update(converged=base.converged, reason=base.reason)
                return record
            phi, state = base.phi, base.state
            record.update(converged=base.converged)
        m = hop_metrics(scenario, phi, state)
        record.update(T=state.total_cost, feasible=True,
                      H_data=m.H_data, H_result=m.H_result, _phi=phi)
    except (NoFeasibleStrategy, LocalComputationInfeasible, CapacityExceeded,
            NotConverged) as err:
        record["reason"] = f"{type(err).__name__}: {err}"
    return record


RECORD_COLUMNS = ["scenario", "sweep", "seed", "algorithm", "T", "T_norm",
                  "iterations", "converged", "feasible", "reason", "H_data", "H_result",
                  "strategy_file"]


def run_experiment(config: ExperimentConfig) -> list:
    """All (scenario x sweep x seed x algorithm) records, with per-group
    normalization by the worst feasible algorithm. Deterministic for a fixed
    config; writes records.csv plus per-record scenario/strategy dumps when
    out_dir is set."""
    gp_cfg = _gp_config(config.gp)
    sweep_kind = config.sweep["kind"] if config.sweep else None
    sweep_values = config.sweep["values"] if config.sweep else [None]
    out_dir = config.out_dir
    if out_dir:
        os.makedirs(out_dir, exist_ok=True)
    records = []
    for spec in config.scenarios:
        for value in sweep_values:
            swept = _apply_sweep(spec, sweep_kind, value)
            for seed in config.seeds:
                scenario = build_scenario(swept, seed)
                if sweep_kind == "rate_scale":
                    scenario = _scale_rates(scenario, float(value))
                group = []
                for name in config.algorithms:
                    rec = run_algorithm(name, scenario, gp_cfg)
                    rec.update(scenario=spec.get("name", "scenario"),
                               sweep="" if value is None else value, seed=seed)
                    group.append(rec)
                worst = max((r["T"] for r in group if math.isfinite(r["T"])),
                            default=math.nan)
                for rec in group:
                    rec["T_norm"] = (rec["T"] / worst
                                     if math.isfinite(rec["T"]) and worst else math.nan)
                    rec["strategy_file"] = ""
                if out_dir:
                    tag = f"{spec.get('name', 'scenario')}_{value}_{seed}"
                    scen_path = os.path.join(out_dir, f"scenario_{tag}.json")
                    dump_scenario(scenario, scen_path)
                    for rec in group:
                        if rec["_phi"] is not None:
                            p = os.path.join(out_dir, f"strategy_{tag}_{rec['algorithm']}.json")
                            dump_strategy(rec["_phi"], p, scenario_path=scen_path)
                            rec["strategy_file"] = os.path.basename(p)
                records.extend(group)
    for rec in records:
        rec.pop("_phi", None)
    if out_dir:
        write_records_csv(records, os.path.join(out_dir, "records.csv"))
    return records


def write_records_csv(records: list, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        w = csv.writer(fh)
        w.writerow(RECORD_COLUMNS)
        for rec in records:
            row = []
            for col in RECORD_COLUMNS:
                v = rec.get(col, "")
                row.append(repr(v) if isinstance(v, float) else v)
            w.writerow(row)


def size_ratio_sweep(spec: dict, ratios, seeds, gp: dict | None = None,
                     out_dir=None) -> list:
    """H_data / H_result of the gradient-projection solution as the
    data-to-result packet size ratio sweeps (result size pinned to 1)."""
    config = ExperimentConfig(scenarios=[spec], seeds=list(seeds),
                              algorithms=("gp",),
                              sweep={"kind": "size_ratio", "values": list(ratios)},
                              gp=dict(gp or {}), out_dir=out_dir)
    return run_experiment(config)


def rate_scale_sweep(spec: dict, factors, seeds, algorithms=ALGORITHMS,
                     gp: dict | None = None, out_dir=None) -> list:
    config = ExperimentConfig(scenarios=[spec], seeds=list(seeds),
                              algorithms=tuple(algorithms),
                              sweep={"kind": "rate_scale", "values": list(factors)},
                              gp=dict(gp or {}), out_dir=out_dir)
    return run_experiment(config)


def trend_inversions(values, nonincreasing=True) -> int:
    """Number of adjacent pairs violating the expected monotone trend."""
    bad = 0
    for a, b in zip(values, values[1:]):
        if nonincreasing and b > a + 1e-12:
            bad += 1
        if not nonincreasing and b < a - 1e-12:
            bad += 1
    return bad


def median(values):
    return float(np.median(np.asarray(values, dtype=float)))
