"""Exhaustive reference solvers for small instances.

``enumerate_valid_mappings`` lists every valid mapping of a request by
brute force; ``solve_enumerative`` optimizes over those enumerations, as a
linear relaxation or exactly. Both exist to cross-check the scalable
pipeline and are only intended for instances with a handful of nodes.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .lpmodel import EQ, LE, MAXIMIZE, MINIMIZE, LPModel, solve
from .model import (
    Request,
    Resource,
    SubstrateGraph,
    ValidMapping,
    allocation_cost,
    check_valid_mapping,
    compute_allocations,
)

DEFAULT_MAPPING_CAP = 100_000


@dataclass
class MappingEnumeration:
    request: Request
    mappings: list[ValidMapping]
    truncated: bool


def _simple_paths(
    allowed: Sequence[tuple[str, str]], start: str, end: str
) -> list[tuple[tuple[str, str], ...]]:
    """All simple directed paths from start to end within an edge set."""
    if start == end:
        return [()]
    adjacency: dict[str, list[tuple[str, str]]] = {}
    for se in allowed:
        adjacency.setdefault(se[0], []).append(se)
    out: list[tuple[tuple[str, str], ...]] = []
    stack: list[tuple[str, tuple[tuple[str, str], ...], frozenset[str]]] = [
        (start, (), frozenset([start]))
    ]
    while stack:
        at, path, visited = stack.pop()
        for se in adjacency.get(at, ()):
            nxt = se[1]
            if nxt in visited:
                continue
            if nxt == end:
                out.append(path + (se,))
            else:
                stack.append((nxt, path + (se,), visited | {nxt}))
    out.sort()
    return out


def enumerate_valid_mappings(
    substrate: SubstrateGraph, request: Request, cap: int = DEFAULT_MAPPING_CAP
) -> MappingEnumeration:
    """All valid mappings of one request, capped and order-stable.

    Node placements are enumerated lexicographically; per edge, all simple
    paths through the allowed substrate edges. Capacity interplay between
    requests is not part of validity, so no load checks happen here.
    """
    mappings: list[ValidMapping] = []
    truncated = False
    path_cache: dict[tuple, list] = {}
    placements = itertools.product(
        *(request.allowed_nodes[i] for i in request.nodes)
    )
    for combo in placements:
        node_map = dict(zip(request.nodes, combo))
        edge_choices: list[list[tuple[tuple[str, str], ...]]] = []
        feasible = True
        for e in request.edges:
            key = (e, node_map[e[0]], node_map[e[1]])
            if key not in path_cache:
                path_cache[key] = _simple_paths(
                    request.allowed_edges[e], node_map[e[0]], node_map[e[1]]
                )
            options = path_cache[key]
            if not options:
                feasible = False
                break
            edge_choices.append(options)
        if not feasible:
            continue
        for path_combo in itertools.product(*edge_choices):
            mapping = ValidMapping(
                node_map=dict(node_map),
                edge_map=dict(zip(request.edges, path_combo)),
            )
            ok, why = check_valid_mapping(substrate, request, mapping)
            if not ok:
                raise RuntimeError(f"enumerated mapping invalid: {why}")
            mappings.append(mapping)
            if len(mappings) >= cap:
                truncated = True
                break
        if truncated:
            break
    return MappingEnumeration(request=request, mappings=mappings, truncated=truncated)


@dataclass
class EnumerativeSolution:
    status: str  # optimal, else the LP solver's status (infeasible, error, ...)
    objective_value: float | None
    # Per request: list of (weight, mapping index) pairs; integral solves
    # have a single unit-weight pair or, for profit, possibly none.
    assignment: list[list[tuple[float, int]]]
    enumerations: list[MappingEnumeration]


def solve_enumerative(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    objective: str = "profit",
    relaxation: str = "lp",
    cap: int = DEFAULT_MAPPING_CAP,
) -> EnumerativeSolution:
    """Optimize over explicit mapping enumerations.

    ``relaxation="lp"`` solves the convex-combination relaxation with one
    weight variable per enumerated mapping; ``"ip"`` searches integral
    selections exactly via depth-first branch and bound.
    """
    if objective not in ("profit", "cost"):
        raise ValueError(f"unknown objective {objective!r}")
    if relaxation not in ("lp", "ip"):
        raise ValueError(f"unknown relaxation {relaxation!r}")
    enums = [enumerate_valid_mappings(substrate, req, cap=cap) for req in requests]
    allocations = [
        [compute_allocations(substrate, req, m) for m in enum.mappings]
        for req, enum in zip(requests, enums)
    ]
    solver = _enumerative_lp if relaxation == "lp" else _enumerative_ip
    return solver(substrate, requests, enums, allocations, objective)


def _enumerative_lp(substrate, requests, enums, allocations, objective):
    model = LPModel(sense=MAXIMIZE if objective == "profit" else MINIMIZE)
    weight_vars: list[list[int]] = []
    for r, enum in enumerate(enums):
        vs = [
            model.add_variable(f"f_r{r}_k{k}")
            for k in range(len(enum.mappings))
        ]
        weight_vars.append(vs)
        sense = EQ if objective == "cost" else LE
        model.add_constraint(
            f"choose_r{r}", [(v, 1.0) for v in vs], sense, 1.0
        )
        for k, v in enumerate(vs):
            if objective == "profit":
                model.set_objective_coefficient(v, requests[r].profit)
            else:
                model.set_objective_coefficient(
                    v, allocation_cost(substrate, allocations[r][k])
                )
    for kr, res in enumerate(substrate.resources):
        coeffs = []
        for r, vs in enumerate(weight_vars):
            for k, v in enumerate(vs):
                amt = allocations[r][k].get(res)
                if amt:
                    coeffs.append((v, amt))
        if coeffs:
            model.add_constraint(f"cap_res{kr}", coeffs, LE, substrate.capacity(res))
    sol = solve(model)
    if not sol.optimal:
        return EnumerativeSolution(
            status=sol.status, objective_value=None, assignment=[], enumerations=enums
        )
    assignment = [
        [(float(sol.values[v]), k) for k, v in enumerate(vs) if sol.values[v] > 1e-9]
        for vs in weight_vars
    ]
    return EnumerativeSolution(
        status="optimal",
        objective_value=sol.objective_value,
        assignment=assignment,
        enumerations=enums,
    )


def _enumerative_ip(substrate, requests, enums, allocations, objective):
    costs = [
        [allocation_cost(substrate, alloc) for alloc in request_allocations]
        for request_allocations in allocations
    ]
    capacity = {res: substrate.capacity(res) for res in substrate.resources}
    n = len(requests)
    best_value: float | None = None
    best_pick: list[int | None] | None = None
    # Bounds for pruning: remaining best-case contribution per suffix.
    if objective == "profit":
        suffix = [0.0] * (n + 1)
        for r in range(n - 1, -1, -1):
            suffix[r] = suffix[r + 1] + (
                requests[r].profit if enums[r].mappings else 0.0
            )
    else:
        suffix = [0.0] * (n + 1)
        for r in range(n - 1, -1, -1):
            cheapest = min(costs[r], default=float("inf"))
            suffix[r] = suffix[r + 1] + cheapest

    load: dict[Resource, float] = {}
    pick: list[int | None] = [None] * n

    def fits(alloc: dict[Resource, float]) -> bool:
        return all(
            load.get(res, 0.0) + amt <= capacity[res] + 1e-9
            for res, amt in alloc.items()
        )

    def place(alloc: dict[Resource, float], sign: float) -> None:
        for res, amt in alloc.items():
            load[res] = load.get(res, 0.0) + sign * amt

    def recurse(r: int, value: float) -> None:
        nonlocal best_value, best_pick
        if objective == "profit":
            if best_value is not None and value + suffix[r] <= best_value + 1e-12:
                return
        else:
            if best_value is not None and value + suffix[r] >= best_value - 1e-12:
                return
        if r == n:
            if best_value is None or (
                value > best_value if objective == "profit" else value < best_value
            ):
                best_value = value
                best_pick = list(pick)
            return
        if objective == "profit":
            for k, m in enumerate(enums[r].mappings):
                if fits(allocations[r][k]):
                    place(allocations[r][k], 1.0)
                    pick[r] = k
                    recurse(r + 1, value + requests[r].profit)
                    pick[r] = None
                    place(allocations[r][k], -1.0)
            recurse(r + 1, value)  # skip the request
        else:
            for k, m in enumerate(enums[r].mappings):
                if fits(allocations[r][k]):
                    place(allocations[r][k], 1.0)
                    pick[r] = k
                    recurse(r + 1, value + costs[r][k])
                    pick[r] = None
                    place(allocations[r][k], -1.0)

    recurse(0, 0.0)
    if objective == "cost" and best_pick is None:
        return EnumerativeSolution(
            status="infeasible", objective_value=None, assignment=[], enumerations=enums
        )
    if best_pick is None:
        best_value = 0.0
        best_pick = [None] * n
    assignment = [
        [] if best_pick[r] is None else [(1.0, best_pick[r])] for r in range(n)
    ]
    return EnumerativeSolution(
        status="optimal",
        objective_value=best_value,
        assignment=assignment,
        enumerations=enums,
    )
