"""Extracting convex combinations of valid mappings from LP solutions.

One extraction loop, ``decompose_novel``, works on decomposable-LP
solutions. It repeatedly peels off one mapping: map the root somewhere its
host variable is positive, walk the order, let a node's bag variables pin
the hosts of the confluence targets before the paths towards them are
extracted, and route every request edge along positive flow inside the
sub-LP copy its label hosts select. The walk only builds the mapping; its
own 0/1 LP point (``formulations.mapping_columns``) is then peeled off at
the residual's minimum over those columns. The bag variables are exactly
what makes the loop sound on requests with cycles. A flow relaxation
solution (``build_mcf``) goes through the same loop with its label-free
orders; it is sure to decompose only when the request is a tree.

The loop reads and drains a ``NovelState``'s residual, a private copy of
the solution vector, by column number; the caller's solution is never
changed, so several requests decompose from one vector.

Each mapping is validated as it is extracted, and its entry carries its
``compute_allocations`` result, the mapping's load vector over
``substrate.resources``, from which verification, cost pruning and the
sampler read loads and costs. ``verify_decomposition`` validates every
entry again, so it also flags invalid entries built elsewhere.

There is one tolerance, ``EPS``: every comparison uses it, and extraction
stops once the residual acceptance is at or below it (the leftover is far
below the completeness tolerance of verification).

Every round that does not raise peels a weight above ``EPS``. The walk
takes a root host, a bag column, a flow or an unknown endpoint's copy host
only above ``EPS``, so a mapping column at or below ``EPS`` (the bottleneck
of the round) is one the walk never reads: a copy's ``sub_x``, a tail's or
a known head's copy host, or a non-root host. Zeroing it would rebuild the
same mapping, so such a round raises ``DecompositionStuckError`` naming the
column. Otherwise the bottleneck column drops to 0 and no column ever
rises, so a decomposition takes at most one round per nonzero column of
the request, and each round yields one entry.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

from .extraction import LabeledExtractionOrder
from .formulations import NovelState, mapping_columns
from .model import (
    Request,
    SubstrateGraph,
    ValidMapping,
    _unchecked_allocations,
    check_valid_mapping,
)

EPS = 1e-9


class DecompositionError(Exception):
    pass


class MappingConflictError(DecompositionError):
    """A request node was forced onto two distinct substrate hosts."""


class DecompositionStuckError(DecompositionError):
    """Extraction cannot peel a positive weight: the walk finds no positive
    choice, or the mapping it built has a column at or below ``EPS``."""


@dataclass(frozen=True)
class DecompositionEntry:
    weight: float
    mapping: ValidMapping
    # compute_allocations of mapping; it derives from mapping, so == skips it
    allocation: np.ndarray = field(compare=False)


@dataclass
class ConvexDecomposition:
    request_name: str
    entries: list[DecompositionEntry]

    @property
    def total_weight(self) -> float:
        return sum(entry.weight for entry in self.entries)


def find_connectivity_path(
    flows: Mapping[tuple[str, str], float],
    endpoint_value: Callable[[str], float],
    start: str,
    direction: str = "forward",
    target: str | None = None,
) -> list[tuple[str, str]]:
    """Shortest path over positive flow from ``start`` to a viable endpoint.

    Forward searches travel along flow edges, reverse searches against
    them; either way the returned edges are in forward orientation and
    travel order. Without a ``target`` any node whose ``endpoint_value``
    exceeds ``EPS`` succeeds (the start itself yields the empty path);
    with one, only the target does. Raises when nothing is reachable,
    which means flow conservation does not hold.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    forward = direction == "forward"

    def success(node: str) -> bool:
        if target is not None:
            return node == target
        return endpoint_value(node) > EPS

    if success(start):
        return []
    adjacency: dict[str, list[tuple[str, tuple[str, str]]]] = {}
    for se in sorted(flows):
        if flows[se] <= EPS:
            continue
        here, there = (se[0], se[1]) if forward else (se[1], se[0])
        adjacency.setdefault(here, []).append((there, se))
    parent: dict[str, tuple[str, tuple[str, str]]] = {}
    queue = deque([start])
    seen = {start}
    found: str | None = None
    while queue and found is None:
        at = queue.popleft()
        for nxt, se in adjacency.get(at, ()):
            if nxt in seen:
                continue
            seen.add(nxt)
            parent[nxt] = (at, se)
            if success(nxt):
                found = nxt
                break
            queue.append(nxt)
    if found is None:
        raise DecompositionError(
            f"no positive-flow path from {start!r} to "
            f"{'target ' + repr(target) if target else 'any positive endpoint'}"
        )
    hops: list[tuple[str, str]] = []
    node = found
    while node != start:
        node, se = parent[node]
        hops.append(se)
    hops.reverse()
    return hops if forward else list(reversed(hops))


def _positive_choice(values: Sequence[tuple[str, float]]) -> str | None:
    for key, val in values:
        if val > EPS:
            return key
    return None


def _clamp(v: float) -> float:
    return 0.0 if v < EPS else v


def _apply_extraction(
    substrate: SubstrateGraph,
    request: Request,
    state: NovelState,
    covered: dict[int, None],
    mapping: ValidMapping,
    entries: list[DecompositionEntry],
) -> None:
    """Validate the mapping, subtract the bottleneck weight, the residual's
    minimum over the ``covered`` columns, from each of them, and record the
    entry with the mapping's allocation. A bottleneck at or below ``EPS``
    cannot be peeled and raises, naming its column."""
    ok, why = check_valid_mapping(substrate, request, mapping)
    if not ok:
        raise DecompositionError(f"extracted mapping invalid: {why}")
    residual = state.residual
    bottleneck = min(covered, key=residual.__getitem__)
    weight = residual[bottleneck]
    if weight <= EPS:
        raise DecompositionStuckError(
            f"column {bottleneck} of the extracted mapping has residual "
            f"{weight:.3g}, at or below {EPS:g}"
        )
    for col in covered:
        residual[col] = _clamp(residual[col] - weight)
    entries.append(DecompositionEntry(
        weight=weight, mapping=mapping,
        allocation=_unchecked_allocations(substrate, request, mapping),
    ))


def decompose_novel(
    substrate: SubstrateGraph,
    request: Request,
    labeled: LabeledExtractionOrder,
    state: NovelState,
) -> ConvexDecomposition:
    """Peel a decomposable-LP solution into weighted valid mappings.

    Per node the bag variables are consulted first: a positive bag mapping
    consistent with everything mapped so far fixes the hosts of the bag's
    labels, after which each bag edge is routed inside the sub-LP copy
    selected by its own label hosts. A node enters the work queue once all
    its incoming edges are routed.
    """
    order = labeled.order
    cols = state.columns
    residual = state.residual
    entries: list[DecompositionEntry] = []
    while state.x > EPS:
        root = order.root
        u0 = _positive_choice(
            [(u, residual[cols.y[(root, u)]]) for u in request.allowed_nodes[root]]
        )
        if u0 is None:
            raise DecompositionStuckError(
                f"acceptance is {state.x:.3g} but the root has no positive host"
            )
        node_map: dict[str, str] = {root: u0}
        edge_map: dict[tuple[str, str], tuple[tuple[str, str], ...]] = {}
        pending_in = {i: len(order.in_edges[i]) for i in order.nodes}
        queue = [root]
        while queue:
            queue.sort(key=order.node_index.__getitem__)
            i = queue.pop(0)
            u = node_map[i]
            for bi, bag in enumerate(labeled.bags[i]):
                assign = _choose_bag_mapping(
                    state, request, i, bi, u, bag.labels, node_map
                )
                if assign is None:
                    raise DecompositionStuckError(
                        f"no positive bag mapping at node {i!r} (bag {bi}) "
                        f"consistent with {node_map}"
                    )
                for l, v in zip(bag.labels, assign):
                    node_map.setdefault(l, v)
                for k in bag.edges:
                    oe = order.edges[k]
                    e = oe.original
                    j = oe.head
                    mu = tuple(node_map[l] for l in labeled.labels[k])
                    flows = cols.sub_z[(k, mu)]
                    known = node_map.get(j)
                    try:
                        path = find_connectivity_path(
                            {se: residual[col] for se, col in flows.items()},
                            lambda w: _value(state, cols.sub_y.get((k, mu, j, w))),
                            u,
                            direction="forward" if not oe.reversed else "reverse",
                            target=known,
                        )
                    except DecompositionError as err:
                        if known is not None:
                            raise MappingConflictError(
                                f"node {j!r} is already on {known!r} but edge {e} "
                                f"cannot be routed there: {err}"
                            ) from err
                        raise
                    if path:
                        endpoint = path[-1][1] if not oe.reversed else path[0][0]
                    else:
                        endpoint = u
                    node_map.setdefault(j, endpoint)
                    edge_map[e] = tuple(path)
                    pending_in[j] -= 1
                    if pending_in[j] == 0:
                        queue.append(j)
        if len(edge_map) != len(request.edges):
            raise DecompositionError(
                "extraction order does not reach every request edge"
            )
        mapping = ValidMapping(node_map=node_map, edge_map=edge_map)
        covered = dict.fromkeys(mapping_columns(cols, labeled, mapping))
        _apply_extraction(substrate, request, state, covered, mapping, entries)
    return ConvexDecomposition(request_name=request.name, entries=entries)


def _choose_bag_mapping(
    state: NovelState,
    request: Request,
    node: str,
    bag_index: int,
    host: str,
    bag_labels: tuple[str, ...],
    node_map: dict[str, str],
) -> tuple[str, ...] | None:
    """Least bag assignment that agrees with ``node_map`` and whose bag
    variable at ``host`` is positive."""
    choices = [
        (node_map[l],) if l in node_map else request.allowed_nodes[l]
        for l in bag_labels
    ]
    gamma = state.columns.gamma
    candidates = [
        assign
        for assign in itertools.product(*choices)
        if _value(state, gamma.get((node, bag_index, assign, host))) > EPS
    ]
    return min(candidates, default=None)


def _value(state: NovelState, col: int | None) -> float:
    return 0.0 if col is None else state.residual[col]


@dataclass
class DecompositionCheck:
    completeness_error: float
    worst_overuse: float
    invalid: list[str]

    @property
    def ok(self) -> bool:
        return (
            self.completeness_error <= 1e-6
            and self.worst_overuse <= 1e-6
            and not self.invalid
        )


def verify_decomposition(
    substrate: SubstrateGraph,
    request: Request,
    decomposition: ConvexDecomposition,
    x_value: float,
    load_values: np.ndarray,
) -> DecompositionCheck:
    """Check completeness, per-resource domination by the LP load vector
    ``load_values``, and validity of every entry's mapping. The loads of
    the valid entries are summed from their ``allocation``; invalid entries
    are skipped."""
    invalid = []
    used = np.zeros(len(substrate.resources))
    for idx, entry in enumerate(decomposition.entries):
        ok, why = check_valid_mapping(substrate, request, entry.mapping)
        if not ok:
            invalid.append(f"entry {idx}: {why}")
            continue
        used += entry.weight * entry.allocation
    return DecompositionCheck(
        completeness_error=abs(decomposition.total_weight - x_value),
        worst_overuse=float((used - load_values).max(initial=0.0)),
        invalid=invalid,
    )
