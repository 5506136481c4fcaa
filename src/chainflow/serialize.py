"""JSON round trips for scenarios and strategies.

Everything is emitted in a deterministic order so identical inputs give
byte-identical files; floats rely on json's shortest round-trip repr, so a
round trip reproduces values exactly.
"""

from __future__ import annotations

import json

from .flows import Strategy
from .network import Application, CostFunction, Graph, Linear, Queue, Scenario


def _cost_to_jsonable(c: CostFunction | None):
    if c is None:
        return {"kind": "none"}
    if isinstance(c, Linear):
        return {"kind": "linear", "param": c.slope}
    return {"kind": "queue", "param": c.capacity}


def _cost_from_jsonable(d) -> CostFunction | None:
    if d["kind"] == "none":
        return None
    if d["kind"] == "linear":
        return Linear(slope=d["param"])
    if d["kind"] == "queue":
        return Queue(capacity=d["param"])
    raise ValueError(f"unknown cost kind {d['kind']!r}")


def scenario_to_jsonable(s: Scenario) -> dict:
    nodes = list(s.graph.nodes)
    links = sorted(s.graph.links, key=lambda e: (str(e[0]), str(e[1])))
    apps = []
    for a in s.applications:
        weights = a.comp_weights
        if not isinstance(weights, (int, float)):
            weights = sorted(([node, list(seq)] for node, seq in weights.items()),
                             key=lambda kv: str(kv[0]))
        apps.append({"id": a.id, "chain_length": a.chain_length,
                     "destination": a.destination,
                     "packet_sizes": list(a.packet_sizes),
                     "comp_weights": weights})
    return {
        "name": s.name,
        "seed": s.seed,
        "nodes": nodes,
        "links": [[u, v] for (u, v) in links],
        "link_costs": [[u, v, _cost_to_jsonable(s.link_costs[(u, v)])] for (u, v) in links],
        "comp_costs": [[v, _cost_to_jsonable(s.comp_costs.get(v))] for v in nodes],
        "input_rates": sorted(([node, app_id, rate] for (node, app_id), rate
                               in s.input_rates.items()),
                              key=lambda kv: (str(kv[0]), kv[1])),
        "applications": apps,
    }


def scenario_from_jsonable(d: dict) -> Scenario:
    graph = Graph(nodes=tuple(d["nodes"]),
                  links=frozenset((u, v) for u, v in d["links"]))
    link_costs = {(u, v): _cost_from_jsonable(c) for u, v, c in d["link_costs"]}
    comp_costs = {v: _cost_from_jsonable(c) for v, c in d["comp_costs"]}
    apps = []
    for a in d["applications"]:
        weights = a["comp_weights"]
        apps.append(Application(id=a["id"], chain_length=a["chain_length"],
                                destination=a["destination"], packet_sizes=a["packet_sizes"],
                                comp_weights=dict(weights) if isinstance(weights, list)
                                else weights))
    rates = {(node, app_id): rate for node, app_id, rate in d["input_rates"]}
    return Scenario(graph=graph, applications=tuple(apps), link_costs=link_costs,
                    comp_costs=comp_costs, input_rates=rates,
                    seed=d.get("seed", 0), name=d.get("name", ""))


def dump_scenario(s: Scenario, path):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(scenario_to_jsonable(s), fh, indent=1, sort_keys=False)
        fh.write("\n")


def load_scenario(path) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_jsonable(json.load(fh))


def dump_strategy(phi: Strategy, path, scenario_path=None):
    data = phi.to_jsonable()
    if scenario_path is not None:
        data["scenario"] = str(scenario_path)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=False)
        fh.write("\n")


def load_strategy(path) -> Strategy:
    with open(path, "r", encoding="utf-8") as fh:
        return Strategy.from_jsonable(json.load(fh))


def scenario_bytes(s: Scenario) -> bytes:
    """Canonical byte serialization, for determinism checks."""
    return json.dumps(scenario_to_jsonable(s), sort_keys=False).encode()
