"""Span tracer for the benchmark's traced runs.

Each traced layer is a chainflow function, replaced by a timing wrapper in
every chainflow module that binds it (and in module-level dicts such as
``baselines.BASELINES``), so a call is counted once whichever module makes
it. A span's self time is its duration minus the time of the spans it
encloses; summed over all layers, self time equals the time spent inside
outermost spans.

Install the tracer only in a process that makes no untraced measurement:
the wrappers stay in place for the life of the process.
"""

from __future__ import annotations

import functools
import sys
import time

# layer name -> (defining module, attribute) for every wrapped function.
# Layer names are "<module>.<function>"; a few private helpers get the
# shorter names the benchmark documents.
SPANS = {
    "network.build_scenario": ("chainflow.experiments", "build_scenario"),
    "flows.compute_flows": ("chainflow.flows", "compute_flows"),
    "flows.loop_check": ("chainflow.flows", "_support_is_acyclic"),
    "marginals.traffic_marginals": ("chainflow.marginals", "traffic_marginals"),
    "marginals.modified_marginals": ("chainflow.marginals", "modified_marginals"),
    "marginals.blocked_sets": ("chainflow.marginals", "blocked_sets"),
    "gp.run_gp": ("chainflow.gp", "run_gp"),
    "gp.gp_step": ("chainflow.gp", "gp_step"),
    "gp.sufficient_gap": ("chainflow.gp", "sufficient_gap"),
    "gp.repair": ("chainflow.gp", "_repair_strategy"),
    "oracle.solve_flow_domain": ("chainflow.oracle", "solve_flow_domain"),
    "oracle.cheapest_extended_paths": ("chainflow.oracle", "cheapest_extended_paths"),
    "oracle._totals": ("chainflow.oracle", "_totals"),
    "oracle.path_cost": ("chainflow.oracle", "path_cost"),
    "oracle.exact_line_search": ("chainflow.oracle", "_exact_line_search"),
    "oracle.sparse_line_search": ("chainflow.oracle", "_sparse_line_search"),
    "oracle.apply_swap": ("chainflow.oracle", "_apply_swap"),
    "oracle.greedy_start": ("chainflow.oracle", "_greedy_start"),
    "oracle.strategy_from_flows": ("chainflow.oracle", "strategy_from_flows"),
    "baselines.spoc": ("chainflow.baselines", "spoc"),
    "baselines.lcof": ("chainflow.baselines", "lcof"),
    "baselines.lpr_sc": ("chainflow.baselines", "lpr_sc"),
    "congestion.run_gp_cc": ("chainflow.congestion", "run_gp_cc"),
    "congestion.extended_cost": ("chainflow.congestion", "extended_cost"),
    "metrics.hop_metrics": ("chainflow.metrics", "hop_metrics"),
    "experiments.run_algorithm": ("chainflow.experiments", "run_algorithm"),
}

# results whose iteration counts become counters: layer -> counter name
RESULT_COUNTERS = {
    "gp.run_gp": "gp.slots",
    "congestion.run_gp_cc": "gp.slots",
    "oracle.solve_flow_domain": "oracle.iterations",
}


class Tracer:
    """Calls and self time per layer, plus counters read from results."""

    def __init__(self):
        self.calls = {}
        self.self_s = {}
        self.counters = {}
        self.absent = []
        self.outer_s = 0.0      # time inside outermost spans
        self._stack = []        # per open span: time of its child spans

    def install(self, spans=SPANS):
        """Wrap every span target that exists; record the rest as absent."""
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "chainflow" or name.startswith("chainflow."))]
        for layer, (mod_name, attr) in spans.items():
            target = getattr(sys.modules.get(mod_name), attr, None)
            if not callable(target):
                self.absent.append(layer)
                continue
            wrapper = self._wrap(layer, target)
            for module in modules:
                namespace = vars(module)
                for name, value in list(namespace.items()):
                    if value is target:
                        setattr(module, name, wrapper)
                    elif isinstance(value, dict):
                        for key, item in list(value.items()):
                            if item is target:
                                value[key] = wrapper

    def _wrap(self, layer, fn):
        self.calls[layer] = 0
        self.self_s[layer] = 0.0
        counter = RESULT_COUNTERS.get(layer)
        if counter:
            self.counters.setdefault(counter, 0)
        stack = self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                children = stack.pop()
                self.calls[layer] += 1
                self.self_s[layer] += elapsed - children
                if stack:
                    stack[-1] += elapsed
                else:
                    self.outer_s += elapsed
            if counter:
                self.counters[counter] += int(getattr(result, "iterations", 0))
            return result

        return wrapper

    def snapshot(self) -> dict:
        return {"calls": dict(self.calls), "self_s": dict(self.self_s),
                "counters": dict(self.counters), "outer_s": self.outer_s}


def difference(after: dict, before: dict) -> dict:
    """What happened between two snapshots."""
    return {
        "calls": {k: v - before["calls"].get(k, 0) for k, v in after["calls"].items()},
        "self_s": {k: v - before["self_s"].get(k, 0.0) for k, v in after["self_s"].items()},
        "counters": {k: v - before["counters"].get(k, 0) for k, v in after["counters"].items()},
        "outer_s": after["outer_s"] - before["outer_s"],
    }
