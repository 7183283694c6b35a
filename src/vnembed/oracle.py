"""Exhaustive reference solvers for small instances.

``enumerate_valid_mappings`` lists every valid mapping of a request by
brute force; ``solve_enumerative`` optimizes over those enumerations, as a
linear relaxation or exactly. Both exist to cross-check the scalable
pipeline and are only intended for instances with a handful of nodes.

Enumerations keep at most ``cap`` mappings per request, and ``cap`` must
be at least 1. An enumeration is ``truncated`` only when the request has
a valid mapping beyond the first ``cap``; one with exactly ``cap``
mappings is complete. A solve over a truncated enumeration optimizes over
the kept mappings only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .lpmodel import MAXIMIZE, MINIMIZE, LPModel, solve
from .model import (
    Request,
    SubstrateGraph,
    ValidMapping,
    _unchecked_allocations,
    allocation_cost,
    check_valid_mapping,
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


def _valid_mappings(substrate: SubstrateGraph, request: Request):
    """Yield every valid mapping of one request, checked, in a stable order."""
    path_cache: dict[tuple, list] = {}
    placements = itertools.product(
        *(request.allowed_nodes[i] for i in request.nodes)
    )
    for combo in placements:
        node_map = dict(zip(request.nodes, combo))
        edge_choices: list[list[tuple[tuple[str, str], ...]]] = []
        for e in request.edges:
            key = (e, node_map[e[0]], node_map[e[1]])
            if key not in path_cache:
                path_cache[key] = _simple_paths(
                    request.allowed_edges[e], node_map[e[0]], node_map[e[1]]
                )
            if not path_cache[key]:
                break
            edge_choices.append(path_cache[key])
        else:
            for path_combo in itertools.product(*edge_choices):
                mapping = ValidMapping(
                    node_map=dict(node_map),
                    edge_map=dict(zip(request.edges, path_combo)),
                )
                ok, why = check_valid_mapping(substrate, request, mapping)
                if not ok:
                    raise RuntimeError(f"enumerated mapping invalid: {why}")
                yield mapping


def enumerate_valid_mappings(
    substrate: SubstrateGraph, request: Request, cap: int = DEFAULT_MAPPING_CAP
) -> MappingEnumeration:
    """All valid mappings of one request, at most ``cap`` of them, order-stable.

    Node placements are enumerated lexicographically; per edge, all simple
    paths through the allowed substrate edges. Capacity interplay between
    requests is not part of validity, so no load checks happen here.
    ``truncated`` is set only when a valid mapping beyond the first ``cap``
    exists; that mapping is not kept. ``cap`` must be at least 1.
    """
    if cap < 1:
        raise ValueError(f"cap must be at least 1, got {cap}")
    mappings = list(itertools.islice(_valid_mappings(substrate, request), cap + 1))
    return MappingEnumeration(
        request=request, mappings=mappings[:cap], truncated=len(mappings) > cap
    )


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
    # the enumerator has just validated every mapping
    allocations = [
        [_unchecked_allocations(substrate, req, m) for m in enum.mappings]
        for req, enum in zip(requests, enums)
    ]
    values = [
        [req.profit if objective == "profit" else allocation_cost(substrate, a)
         for a in request_allocations]
        for req, request_allocations in zip(requests, allocations)
    ]
    solver = _enumerative_lp if relaxation == "lp" else _enumerative_ip
    return solver(substrate, enums, allocations, values, objective)


def _enumerative_lp(substrate, enums, allocations, values, objective):
    # One weight column per mapping, request after request. A choose row per
    # request sums its weights to at most 1 (profit) or exactly 1 (cost);
    # a capacity row per loaded resource sums the weighted demands.
    model = LPModel(sense=MAXIMIZE if objective == "profit" else MINIMIZE)
    counts = [len(enum.mappings) for enum in enums]
    firsts = [model.add_columns(count) for count in counts]
    weight_vars = [range(first, first + n) for first, n in zip(firsts, counts)]
    terms = itertools.chain.from_iterable(values)
    model.objective = {v: term for v, term in enumerate(terms) if term}
    # one row per resource and one column per mapping; nonzero lists the
    # loaded entries row by row, so each capacity row's columns ascend
    loads = np.reshape(
        list(itertools.chain.from_iterable(allocations)),
        (model.num_variables, len(substrate.resources)),
    ).T
    res, cols = np.nonzero(loads)
    loaded, lengths = np.unique(res, return_counts=True)
    model.add_rows(
        [*range(model.num_variables), *cols.tolist()],
        [1.0] * model.num_variables + loads[res, cols].tolist(),
        counts + lengths.tolist(),
        [objective == "cost"] * len(enums) + [False] * len(loaded),
        [1.0] * len(enums) + [substrate.capacities[k] for k in loaded],
    )
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


def _enumerative_ip(substrate, enums, allocations, values, objective):
    # Depth-first branch and bound maximizing sign * value. A request's
    # options are its mappings, plus embedding nothing under profit; the
    # bound adds each remaining request's best signed term. An option
    # carries the resources its allocation loads and their loads, so a step
    # touches only those.
    sign = 1.0 if objective == "profit" else -1.0
    options = [
        [
            (k, np.flatnonzero(a).tolist(), a[a != 0].tolist(), term)
            for k, (a, term) in enumerate(zip(request_allocations, request_values))
        ]
        for request_allocations, request_values in zip(allocations, values)
    ]
    if objective == "profit":
        for request_options in options:
            request_options.append((None, [], [], 0.0))
    best_terms = [
        max((sign * term for *_, term in opts), default=-math.inf)
        for opts in options
    ]
    suffix = list(itertools.accumulate(reversed(best_terms), initial=0.0))[::-1]
    capacity = substrate.capacities
    n = len(options)
    best_value: float | None = None
    best_pick: list[int | None] | None = None
    load = [0.0] * len(capacity)
    pick: list[int | None] = [None] * n

    def recurse(r: int, value: float) -> None:
        nonlocal best_value, best_pick
        if best_value is not None and (
            sign * value + suffix[r] <= sign * best_value + 1e-12
        ):
            return
        if r == n:
            best_value = value
            best_pick = list(pick)
            return
        for k, cols, amts, term in options[r]:
            if all(
                load[c] + amt <= capacity[c] + 1e-9 for c, amt in zip(cols, amts)
            ):
                for c, amt in zip(cols, amts):
                    load[c] += amt
                pick[r] = k
                recurse(r + 1, value + term)
                for c, amt in zip(cols, amts):
                    load[c] -= amt

    recurse(0, 0.0)
    if best_pick is None:
        return EnumerativeSolution(
            status="infeasible", objective_value=None, assignment=[], enumerations=enums
        )
    return EnumerativeSolution(
        status="optimal",
        objective_value=best_value,
        assignment=[[] if k is None else [(1.0, k)] for k in best_pick],
        enumerations=enums,
    )
