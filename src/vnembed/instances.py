"""Instance JSON: parsing, default restriction expansion, serialization.

Top-level document shape:

    {
      "name": "...",                       optional
      "substrate": {
        "nodes": [{"id", "types": [{"type", "capacity", "cost"}]}],
        "edges": [{"tail", "head", "capacity", "cost"}]
      },
      "requests": [{
        "id", "profit",
        "nodes": [{"id", "type", "demand", "allowed_nodes": [...]}],
        "edges": [{"tail", "head", "demand", "allowed_edges": [[u, v], ...]}]
      }]
    }

The name, ids, types, edge endpoints and the entries of ``allowed_nodes``
and ``allowed_edges`` are strings or integers; an integer reads as its
decimal string, and a null name as no name. Capacities, costs, demands
and profits are JSON numbers; a string or a boolean is refused, even one
that reads as a number, and so is an integer too large for a float.
Omitted ``allowed_nodes`` expands to every substrate node offering the
type with enough capacity for the demand; omitted ``allowed_edges`` to
every substrate edge with enough capacity. Serialization always writes
the expanded lists, so parse -> dump -> parse is the identity.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any

from .model import Request, SubstrateGraph


class InstanceFormatError(Exception):
    pass


@dataclass(frozen=True)
class Instance:
    name: str
    substrate: SubstrateGraph
    requests: tuple[Request, ...]


def default_allowed_nodes(
    substrate: SubstrateGraph, node_type: str, demand: float
) -> tuple[str, ...]:
    return tuple(
        u
        for u in substrate.typed_nodes.get(node_type, ())
        if substrate.node_capacity[(node_type, u)] >= demand
    )


def default_allowed_edges(
    substrate: SubstrateGraph, demand: float
) -> tuple[tuple[str, str], ...]:
    return tuple(e for e in substrate.edges if substrate.edge_capacity[e] >= demand)


def _require(table: Any, key: str, where: str) -> Any:
    if not isinstance(table, dict) or key not in table:
        raise InstanceFormatError(f"missing {key!r} in {where}")
    return table[key]


def _list(table: Any, key: str, where: str) -> list | tuple:
    value = _require(table, key, where)
    if not isinstance(value, (list, tuple)):
        raise InstanceFormatError(f"{key!r} in {where} must be a list, got {value!r}")
    return value


def _id(value: Any, key: str, where: str) -> str:
    """``value`` as a name: ids, types and endpoints are strings or integers
    (not booleans)."""
    if isinstance(value, bool) or not isinstance(value, (str, int)):
        raise InstanceFormatError(
            f"{key!r} in {where} must be a string or an integer, got {value!r}"
        )
    return str(value)


def _name(table: Any, key: str, where: str) -> str:
    return _id(_require(table, key, where), key, where)


def json_number(value: Any, field: str) -> float:
    """``value`` as a float if it is a JSON number that fits one; ``field``
    names it in the error."""
    # Python's bool is an int, and float() would read strings
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        try:
            return float(value)
        except OverflowError:
            raise InstanceFormatError(f"{field} is too large for a float") from None
    raise InstanceFormatError(f"{field} must be a number, got {value!r}")


def _number(table: Any, key: str, where: str, default: float | None = None) -> float:
    value = _require(table, key, where) if default is None else table.get(key, default)
    return json_number(value, f"{key!r} in {where}")


def instance_from_dict(data: Any) -> Instance:
    sub = _require(data, "substrate", "instance")
    node_types: dict[str, dict[str, tuple[float, float]]] = {}
    for entry in _list(sub, "nodes", "substrate"):
        nid = _name(entry, "id", "substrate node")
        if nid in node_types:
            raise InstanceFormatError(f"duplicate substrate node {nid!r}")
        table: dict[str, tuple[float, float]] = {}
        for spec in _list(entry, "types", f"substrate node {nid!r}"):
            t = _name(spec, "type", f"substrate node {nid!r}")
            if t in table:
                raise InstanceFormatError(f"node {nid!r} repeats type {t!r}")
            where = f"type {t!r} at {nid!r}"
            table[t] = (
                _number(spec, "capacity", where), _number(spec, "cost", where, 0.0)
            )
        node_types[nid] = table
    edges: dict[tuple[str, str], tuple[float, float]] = {}
    for entry in _list(sub, "edges", "substrate"):
        e = (_name(entry, "tail", "substrate edge"),
             _name(entry, "head", "substrate edge"))
        if e in edges:
            raise InstanceFormatError(f"duplicate substrate edge {e}")
        where = f"substrate edge {e}"
        edges[e] = (
            _number(entry, "capacity", where), _number(entry, "cost", where, 0.0)
        )
    substrate = SubstrateGraph.build(node_types, edges)

    requests = []
    seen = set()
    for rentry in _list(data, "requests", "instance"):
        rid = _name(rentry, "id", "request")
        if rid in seen:
            raise InstanceFormatError(f"duplicate request id {rid!r}")
        seen.add(rid)
        node_specs: dict[str, tuple[str, float, tuple[str, ...]]] = {}
        for nentry in _list(rentry, "nodes", f"request {rid!r}"):
            i = _name(nentry, "id", f"request {rid!r} node")
            if i in node_specs:
                raise InstanceFormatError(f"request {rid!r} repeats node {i!r}")
            where = f"request {rid!r} node {i!r}"
            t = _name(nentry, "type", where)
            demand = _number(nentry, "demand", where)
            if nentry.get("allowed_nodes") is None:
                allowed = default_allowed_nodes(substrate, t, demand)
            else:
                allowed = _list(nentry, "allowed_nodes", where)
            hosts = tuple(_id(u, "allowed_nodes", where) for u in allowed)
            node_specs[i] = (t, demand, hosts)
        edge_specs: dict[tuple[str, str], tuple[float, tuple]] = {}
        for eentry in _list(rentry, "edges", f"request {rid!r}"):
            e = (_name(eentry, "tail", f"request {rid!r} edge"),
                 _name(eentry, "head", f"request {rid!r} edge"))
            if e in edge_specs:
                raise InstanceFormatError(f"request {rid!r} repeats edge {e}")
            where = f"request {rid!r} edge {e}"
            demand = _number(eentry, "demand", where)
            if eentry.get("allowed_edges") is None:
                allowed_t = default_allowed_edges(substrate, demand)
            else:
                allowed = _list(eentry, "allowed_edges", where)
                if not all(
                    isinstance(pair, (list, tuple)) and len(pair) == 2
                    for pair in allowed
                ):
                    raise InstanceFormatError(
                        f"'allowed_edges' in {where} must list [tail, head] "
                        f"pairs, got {allowed!r}"
                    )
                allowed_t = tuple(
                    (_id(a, "allowed_edges", where), _id(b, "allowed_edges", where))
                    for a, b in allowed
                )
            edge_specs[e] = (demand, allowed_t)
        requests.append(
            Request.build(
                rid, node_specs, edge_specs,
                profit=_number(rentry, "profit", f"request {rid!r}", 1.0),
            )
        )
    name = data.get("name")
    return Instance(
        name="" if name is None else _id(name, "name", "instance"),
        substrate=substrate,
        requests=tuple(requests),
    )


def instance_to_dict(instance: Instance) -> dict:
    sub = instance.substrate
    data: dict[str, Any] = {}
    if instance.name:
        data["name"] = instance.name
    data["substrate"] = {
        "nodes": [
            {
                "id": u,
                "types": [
                    {
                        "type": t,
                        "capacity": sub.node_capacity[(t, u)],
                        "cost": sub.node_cost[(t, u)],
                    }
                    for t in sub.types
                    if (t, u) in sub.node_capacity
                ],
            }
            for u in sub.nodes
        ],
        "edges": [
            {
                "tail": e[0],
                "head": e[1],
                "capacity": sub.edge_capacity[e],
                "cost": sub.edge_cost[e],
            }
            for e in sub.edges
        ],
    }
    data["requests"] = [
        {
            "id": req.name,
            "profit": req.profit,
            "nodes": [
                {
                    "id": i,
                    "type": req.node_type[i],
                    "demand": req.node_demand[i],
                    "allowed_nodes": list(req.allowed_nodes[i]),
                }
                for i in req.nodes
            ],
            "edges": [
                {
                    "tail": e[0],
                    "head": e[1],
                    "demand": req.edge_demand[e],
                    "allowed_edges": [list(se) for se in req.allowed_edges[e]],
                }
                for e in req.edges
            ],
        }
        for req in instance.requests
    ]
    return data


def loads_instance(text: str) -> Instance:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as err:
        raise InstanceFormatError(f"not valid JSON: {err}") from err
    return instance_from_dict(data)


def dumps_instance(instance: Instance) -> str:
    return json.dumps(instance_to_dict(instance), indent=2) + "\n"


def load_instance(path: str | Path) -> Instance:
    return loads_instance(Path(path).read_text())


def dump_instance(instance: Instance, path: str | Path) -> None:
    Path(path).write_text(dumps_instance(instance))
