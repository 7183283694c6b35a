"""Core data model: substrate networks, requests, mappings, allocations.

A substrate is a directed graph whose nodes offer typed resources (one
capacity/cost pair per type hosted on the node) and whose edges offer
bandwidth. A request is a directed graph of typed, demanding nodes and
demanding edges together with placement and routing restrictions. A valid
mapping places every request node on an allowed substrate node and routes
every request edge along an allowed substrate path.

Loads have one form: a float vector over ``substrate.resources``, node
resources first (the first ``len(substrate.node_capacity)`` entries), then
edges. A mapping's allocation (``compute_allocations``), a request's LP
load and a selection's utilization (``collection_feasible``) are all such
vectors, and ``allocation_cost`` alone prices one.

The demand statistics behind the rounding bounds are taken by
``rounding.compute_bounds``, in one pass per request.

Node and edge identifiers are strings externally. All internal orderings
are lexicographic on those identifiers, so that every derived structure
(variable blocks, iteration order, reports) is reproducible.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Mapping, Sequence

import numpy as np

# Resources are tagged tuples: ("node", node_type, node_id) for the typed
# capacity of a substrate node, ("edge", tail, head) for edge bandwidth.
Resource = tuple

NODE = "node"
EDGE = "edge"


def node_resource(node_type: str, node: str) -> Resource:
    return (NODE, node_type, node)


def edge_resource(tail: str, head: str) -> Resource:
    return (EDGE, tail, head)


@dataclass(frozen=True)
class SubstrateGraph:
    """Directed substrate network with typed node resources.

    ``node_capacity``/``node_cost`` are keyed by ``(node_type, node)`` and
    only contain entries for types actually hosted on the node.
    """

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    types: tuple[str, ...]
    typed_nodes: Mapping[str, tuple[str, ...]]
    node_capacity: Mapping[tuple[str, str], float]
    node_cost: Mapping[tuple[str, str], float]
    edge_capacity: Mapping[tuple[str, str], float]
    edge_cost: Mapping[tuple[str, str], float]

    @classmethod
    def build(
        cls,
        node_types: Mapping[str, Mapping[str, tuple[float, float]]],
        edges: Mapping[tuple[str, str], tuple[float, float]],
    ) -> "SubstrateGraph":
        """Create a substrate from raw per-node type tables.

        ``node_types`` maps node id to ``{type: (capacity, cost)}``;
        ``edges`` maps ``(tail, head)`` to ``(capacity, cost)``.
        """
        nodes = tuple(sorted(node_types))
        edge_list = tuple(sorted(edges))
        types = tuple(sorted({t for table in node_types.values() for t in table}))
        typed: dict[str, list[str]] = {t: [] for t in types}
        node_cap: dict[tuple[str, str], float] = {}
        node_cost: dict[tuple[str, str], float] = {}
        for u in nodes:
            for t, (cap, cost) in sorted(node_types[u].items()):
                typed[t].append(u)
                node_cap[(t, u)] = float(cap)
                node_cost[(t, u)] = float(cost)
        edge_cap = {e: float(edges[e][0]) for e in edge_list}
        edge_cost = {e: float(edges[e][1]) for e in edge_list}
        return cls(
            nodes=nodes,
            edges=edge_list,
            types=types,
            typed_nodes={t: tuple(v) for t, v in typed.items()},
            node_capacity=node_cap,
            node_cost=node_cost,
            edge_capacity=edge_cap,
            edge_cost=edge_cost,
        )

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {u: k for k, u in enumerate(self.nodes)}

    @cached_property
    def edge_index(self) -> dict[tuple[str, str], int]:
        return {e: k for k, e in enumerate(self.edges)}

    @cached_property
    def resources(self) -> tuple[Resource, ...]:
        """All resources, node resources first, in index order."""
        node_part = [
            node_resource(t, u) for t in self.types for u in self.typed_nodes[t]
        ]
        edge_part = [edge_resource(*e) for e in self.edges]
        return tuple(node_part + edge_part)

    @cached_property
    def resource_column(self) -> dict[Resource, int]:
        """Position of each resource in ``resources``."""
        return {res: k for k, res in enumerate(self.resources)}

    @cached_property
    def capacities(self) -> tuple[float, ...]:
        """Capacity of each resource, in ``resources`` order."""
        return tuple(self.capacity(res) for res in self.resources)

    @cached_property
    def costs(self) -> tuple[float, ...]:
        """Unit cost of each resource, in ``resources`` order."""
        return tuple(self.cost(res) for res in self.resources)

    def capacity(self, res: Resource) -> float:
        if res[0] == NODE:
            return self.node_capacity[(res[1], res[2])]
        return self.edge_capacity[(res[1], res[2])]

    def cost(self, res: Resource) -> float:
        if res[0] == NODE:
            return self.node_cost[(res[1], res[2])]
        return self.edge_cost[(res[1], res[2])]


@dataclass(frozen=True)
class Request:
    """Directed request graph with placement and routing restrictions.

    ``allowed_nodes[i]`` lists the substrate nodes request node ``i`` may be
    placed on, ``allowed_edges[(i, j)]`` the substrate edges the path of
    request edge ``(i, j)`` may use. Both are sorted tuples.
    """

    name: str
    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]
    node_type: Mapping[str, str]
    node_demand: Mapping[str, float]
    edge_demand: Mapping[tuple[str, str], float]
    allowed_nodes: Mapping[str, tuple[str, ...]]
    allowed_edges: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]
    profit: float = 1.0

    @classmethod
    def build(
        cls,
        name: str,
        node_specs: Mapping[str, tuple[str, float, Iterable[str]]],
        edge_specs: Mapping[tuple[str, str], tuple[float, Iterable[tuple[str, str]]]],
        profit: float = 1.0,
    ) -> "Request":
        """Create a request from ``{node: (type, demand, allowed_nodes)}``
        and ``{edge: (demand, allowed_edges)}`` tables."""
        nodes = tuple(sorted(node_specs))
        edges = tuple(sorted(edge_specs))
        return cls(
            name=name,
            nodes=nodes,
            edges=edges,
            node_type={i: node_specs[i][0] for i in nodes},
            node_demand={i: float(node_specs[i][1]) for i in nodes},
            edge_demand={e: float(edge_specs[e][0]) for e in edges},
            allowed_nodes={i: tuple(sorted(node_specs[i][2])) for i in nodes},
            allowed_edges={e: tuple(sorted(edge_specs[e][1])) for e in edges},
            profit=float(profit),
        )

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {i: k for k, i in enumerate(self.nodes)}

    @cached_property
    def referenced_types(self) -> tuple[str, ...]:
        return tuple(sorted({self.node_type[i] for i in self.nodes}))


@dataclass(frozen=True)
class ValidMapping:
    """A placement of request nodes plus one substrate path per request edge.

    ``edge_map[(i, j)]`` is a tuple of substrate edges forming a directed
    path from the host of ``i`` to the host of ``j``; it is empty exactly
    when both endpoints share a host.
    """

    node_map: Mapping[str, str]
    edge_map: Mapping[tuple[str, str], tuple[tuple[str, str], ...]]


@dataclass
class ValidationIssue:
    code: str
    message: str


@dataclass
class ValidationReport:
    issues: list[ValidationIssue] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, code: str, message: str) -> None:
        self.issues.append(ValidationIssue(code, message))


def validate_instance(
    substrate: SubstrateGraph, requests: Sequence[Request]
) -> ValidationReport:
    """Check the structural invariants of an instance and report violations.

    Never raises; every violation is collected into the report so callers
    can show all problems at once.
    """
    report = ValidationReport()
    _validate_substrate(substrate, report)
    seen_names = set()
    for req in requests:
        if req.name in seen_names:
            report.add("duplicate-request", f"request id {req.name!r} appears twice")
        seen_names.add(req.name)
        _validate_request(substrate, req, report)
    return report


def _validate_substrate(substrate: SubstrateGraph, report: ValidationReport) -> None:
    if len(set(substrate.nodes)) != len(substrate.nodes):
        report.add("duplicate-id", "substrate node ids are not duplicate free")
    if len(set(substrate.edges)) != len(substrate.edges):
        report.add("duplicate-id", "substrate edge list is not duplicate free")
    known = set(substrate.nodes)
    for (u, v) in substrate.edges:
        if u == v:
            report.add("self-loop", f"substrate self-loop on {u!r}")
        if u not in known or v not in known:
            report.add("unknown-node", f"substrate edge ({u!r}, {v!r}) uses unknown node")
    for key, cap in substrate.node_capacity.items():
        if not 0 < cap < math.inf:
            report.add(
                "bad-capacity",
                f"node resource {key} has capacity {cap}, not positive and finite",
            )
    for key, cap in substrate.edge_capacity.items():
        if not 0 < cap < math.inf:
            report.add(
                "bad-capacity",
                f"substrate edge {key} has capacity {cap}, not positive and finite",
            )
    for table in (substrate.node_cost, substrate.edge_cost):
        for key, cost in table.items():
            if not 0 <= cost < math.inf:
                report.add(
                    "bad-cost", f"cost {cost} on {key} is not non-negative and finite"
                )


def _validate_request(
    substrate: SubstrateGraph, req: Request, report: ValidationReport
) -> None:
    name = req.name
    if not req.nodes:
        report.add("empty-request", f"{name}: request has no nodes")
        return
    if not 0 < req.profit < math.inf:
        report.add("bad-profit", f"{name}: profit must be positive and finite")
    node_set = set(req.nodes)
    for (i, j) in req.edges:
        if i == j:
            report.add("self-loop", f"{name}: request self-loop on {i!r}")
        if i not in node_set or j not in node_set:
            report.add("unknown-node", f"{name}: edge ({i!r}, {j!r}) uses unknown node")
    if not _weakly_connected(req):
        report.add("not-connected", f"{name}: request graph is not weakly connected")
    for i in req.nodes:
        t = req.node_type[i]
        if t not in substrate.types:
            report.add("unknown-type", f"{name}: node {i!r} has unknown type {t!r}")
            continue
        if not 0 <= req.node_demand[i] < math.inf:
            report.add(
                "bad-demand",
                f"{name}: node {i!r} has demand {req.node_demand[i]}, "
                "not non-negative and finite",
            )
        allowed = req.allowed_nodes.get(i, ())
        if not allowed:
            report.add("empty-allowed-set", f"{name}: node {i!r} has empty allowed set")
        repeated = _repeated(allowed)
        if repeated:
            report.add(
                "duplicate-allowed", f"{name}: node {i!r} lists {repeated} more than once"
            )
        for u in allowed:
            if (t, u) not in substrate.node_capacity:
                report.add(
                    "unknown-node",
                    f"{name}: node {i!r} allows {u!r} which does not host type {t!r}",
                )
            elif substrate.node_capacity[(t, u)] < req.node_demand[i]:
                report.add(
                    "capacity-filter",
                    f"{name}: node {i!r} allows {u!r} with insufficient capacity",
                )
    edge_idx = set(substrate.edges)
    for e in req.edges:
        if not 0 <= req.edge_demand[e] < math.inf:
            report.add(
                "bad-demand",
                f"{name}: edge {e} has demand {req.edge_demand[e]}, "
                "not non-negative and finite",
            )
        allowed = req.allowed_edges.get(e, ())
        if not allowed:
            report.add("empty-allowed-set", f"{name}: edge {e} has empty allowed set")
        repeated = _repeated(allowed)
        if repeated:
            report.add(
                "duplicate-allowed", f"{name}: edge {e} lists {repeated} more than once"
            )
        for se in allowed:
            if se not in edge_idx:
                report.add("unknown-edge", f"{name}: edge {e} allows unknown {se}")
            elif substrate.edge_capacity[se] < req.edge_demand[e]:
                report.add(
                    "capacity-filter",
                    f"{name}: edge {e} allows {se} with insufficient capacity",
                )


def _repeated(entries: tuple) -> list:
    """The entries listed more than once, sorted."""
    if len(set(entries)) == len(entries):
        return []
    return sorted(x for x, n in Counter(entries).items() if n > 1)


def _weakly_connected(req: Request) -> bool:
    adj: dict[str, set[str]] = {i: set() for i in req.nodes}
    for (i, j) in req.edges:
        if i in adj and j in adj:
            adj[i].add(j)
            adj[j].add(i)
    seen = {req.nodes[0]}
    stack = [req.nodes[0]]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return len(seen) == len(req.nodes)


def check_valid_mapping(
    substrate: SubstrateGraph, request: Request, mapping: ValidMapping
) -> tuple[bool, str | None]:
    """Return ``(True, None)`` if the mapping is valid, else the first violation.

    Paths must be simple; a request edge whose endpoints share a host must
    use the empty path.
    """
    for i in request.nodes:
        if i not in mapping.node_map:
            return False, f"incomplete mapping: node {i!r} is unmapped"
        u = mapping.node_map[i]
        if u not in request.allowed_nodes[i]:
            return False, f"node {i!r} placed on disallowed {u!r}"
    for e in request.edges:
        if e not in mapping.edge_map:
            return False, f"incomplete mapping: edge {e} is unmapped"
        path = tuple(mapping.edge_map[e])
        start = mapping.node_map[e[0]]
        end = mapping.node_map[e[1]]
        if start == end:
            if path:
                return False, f"edge {e}: co-located endpoints need the empty path"
            continue
        if not path:
            return False, f"edge {e}: empty path but endpoints differ"
        allowed = set(request.allowed_edges[e])
        at = start
        visited = {start}
        for se in path:
            if se not in allowed:
                return False, f"edge {e}: path uses disallowed substrate edge {se}"
            if se[0] != at:
                return False, f"edge {e}: path is not contiguous at {se}"
            at = se[1]
            if at in visited:
                return False, f"edge {e}: path revisits {at!r}"
            visited.add(at)
        if at != end:
            return False, f"edge {e}: path ends at {at!r} instead of {end!r}"
    return True, None


def compute_allocations(
    substrate: SubstrateGraph, request: Request, mapping: ValidMapping
) -> np.ndarray:
    """Load vector of a valid mapping: each request node's demand on its
    host's typed resource and each request edge's demand on every edge of
    its path, summed per resource, 0 where the mapping puts nothing."""
    ok, why = check_valid_mapping(substrate, request, mapping)
    if not ok:
        raise ValueError(f"invalid mapping: {why}")
    return _unchecked_allocations(substrate, request, mapping)


def _unchecked_allocations(
    substrate: SubstrateGraph, request: Request, mapping: ValidMapping
) -> np.ndarray:
    """``compute_allocations`` of a mapping the caller has already checked."""
    column = substrate.resource_column
    loads = [0.0] * len(column)
    for i in request.nodes:
        res = node_resource(request.node_type[i], mapping.node_map[i])
        loads[column[res]] += request.node_demand[i]
    for e in request.edges:
        for se in mapping.edge_map[e]:
            loads[column[edge_resource(*se)]] += request.edge_demand[e]
    return np.array(loads)


def mapping_cost(
    substrate: SubstrateGraph, request: Request, mapping: ValidMapping
) -> float:
    """Total substrate cost of a valid mapping: sum of cost times allocation."""
    return allocation_cost(
        substrate, compute_allocations(substrate, request, mapping)
    )


def allocation_cost(substrate: SubstrateGraph, loads: np.ndarray) -> float:
    """Cost of a load vector: ``math.fsum`` of cost times load, which is
    exact before its one rounding, so it depends on no summation order or
    machine."""
    return math.fsum(np.multiply(substrate.costs, loads).tolist())


def collection_feasible(
    substrate: SubstrateGraph, allocations: Sequence[np.ndarray]
) -> tuple[bool, np.ndarray]:
    """Check the summed load vectors ``allocations`` against capacities, up
    to a tolerance of 1e-9.

    Returns the verdict plus the utilization ``load / capacity`` of every
    substrate resource, a vector over ``substrate.resources``.
    """
    load = np.zeros(len(substrate.resources))
    for loads in allocations:
        load += loads
    utilization = load / np.array(substrate.capacities)
    return bool((utilization <= 1.0 + 1e-9).all()), utilization
