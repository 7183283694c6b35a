"""Extracting convex combinations of valid mappings from LP solutions.

One extraction loop, ``decompose_novel``, works on decomposable-LP
solutions. It repeatedly peels off one mapping: map the root somewhere its
host variable is positive, walk the order, let a node's bag variables pin
the hosts of the confluence targets before the paths towards them are
extracted, route every request edge along positive flow inside the sub-LP
copy its label hosts select, take the minimum over all participating
variables as the mapping's weight, and subtract. The bag variables are
exactly what makes the loop sound on requests with cycles. A flow
relaxation solution (``build_mcf``) goes through the same loop with its
label-free orders; it is sure to decompose only when the request is a
tree.

The loop reads and drains a ``NovelState``'s residual, a private copy of
the solution vector, by column number; the caller's solution is never
changed, so several requests decompose from one vector.

All comparisons use an epsilon of ``EPS``; residual acceptance below
``LOOP_EPS`` ends extraction (the leftover is far below the completeness
tolerance of verification). Iterations that would produce a weight under
``WEIGHT_FLOOR`` only clear numerical dust and emit no entry.
"""

from __future__ import annotations

import itertools
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

from .extraction import LabeledExtractionOrder
from .formulations import NovelState
from .model import (
    Request,
    Resource,
    SubstrateGraph,
    ValidMapping,
    _unchecked_allocations,
    check_valid_mapping,
)

EPS = 1e-9
LOOP_EPS = 1e-7
WEIGHT_FLOOR = 1e-9


class DecompositionError(Exception):
    pass


class MappingConflictError(DecompositionError):
    """A request node was forced onto two distinct substrate hosts."""


class DecompositionStuckError(DecompositionError):
    """No positive variable admits further extraction progress."""


@dataclass(frozen=True)
class DecompositionEntry:
    weight: float
    mapping: ValidMapping


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
    eps: float = EPS,
) -> list[tuple[str, str]]:
    """Shortest path over positive flow from ``start`` to a viable endpoint.

    Forward searches travel along flow edges, reverse searches against
    them; either way the returned edges are in forward orientation and
    travel order. Without a ``target`` any node whose ``endpoint_value``
    exceeds ``eps`` succeeds (the start itself yields the empty path);
    with one, only the target does. Raises when nothing is reachable,
    which means flow conservation does not hold.
    """
    if direction not in ("forward", "reverse"):
        raise ValueError(f"unknown direction {direction!r}")
    forward = direction == "forward"

    def success(node: str) -> bool:
        if target is not None:
            return node == target
        return endpoint_value(node) > eps

    if success(start):
        return []
    adjacency: dict[str, list[tuple[str, tuple[str, str]]]] = {}
    for se in sorted(flows):
        if flows[se] <= eps:
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


class _Extraction:
    """Bookkeeping for one extraction pass: the covered columns, in the
    order they were first covered."""

    def __init__(self):
        self.keys: list[int] = []
        self.seen: set[int] = set()

    def cover(self, key: int) -> None:
        if key not in self.seen:
            self.seen.add(key)
            self.keys.append(key)


def _clamp(v: float) -> float:
    return 0.0 if v < EPS else v


def _apply_extraction(
    substrate: SubstrateGraph,
    request: Request,
    state: NovelState,
    tracker: _Extraction,
    mapping: ValidMapping,
    entries: list[DecompositionEntry],
) -> bool:
    """Take the bottleneck weight, subtract it everywhere, record the entry.

    Returns False for dust rounds that only cleared a near-zero variable.
    """
    ok, why = check_valid_mapping(substrate, request, mapping)
    if not ok:
        raise DecompositionError(f"extracted mapping invalid: {why}")
    residual = state.residual
    weight = min(residual[col] for col in tracker.keys)
    if weight <= WEIGHT_FLOOR:
        residual[min(tracker.keys, key=residual.__getitem__)] = 0.0
        return False
    for col in tracker.keys:
        residual[col] = _clamp(residual[col] - weight)
    entries.append(DecompositionEntry(weight=weight, mapping=mapping))
    return True


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
    max_rounds = 100 + 2 * (
        1
        + len(cols.y)
        + len(cols.gamma)
        + len(cols.sub_x)
        + len(cols.sub_y)
        + sum(len(f) for f in cols.sub_z.values())
    )
    rounds = 0
    while state.x > LOOP_EPS:
        rounds += 1
        if rounds > max_rounds:
            raise DecompositionStuckError("extraction makes no progress")
        tracker = _Extraction()
        tracker.cover(cols.x)
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
                tracker.cover(cols.gamma[(i, bi, assign, u)])
                for k in bag.edges:
                    oe = order.edges[k]
                    e = oe.original
                    j = oe.head
                    labels_e = labeled.labels[k]
                    mu = tuple(node_map[l] for l in labels_e)
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
                    tracker.cover(cols.sub_x[(k, mu)])
                    for n in e:
                        tracker.cover(cols.sub_y[(k, mu, n, node_map[n])])
                    for se in path:
                        tracker.cover(flows[se])
                    pending_in[j] -= 1
                    if pending_in[j] == 0:
                        queue.append(j)
        if len(edge_map) != len(request.edges):
            raise DecompositionError(
                "extraction order does not reach every request edge"
            )
        for i in request.nodes:
            tracker.cover(cols.y[(i, node_map[i])])
        mapping = ValidMapping(node_map=node_map, edge_map=edge_map)
        _apply_extraction(substrate, request, state, tracker, mapping, entries)
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
    """What ``verify_decomposition`` found. ``allocations`` holds each valid
    entry's ``compute_allocations`` result, in entry order; it is what was
    checked, not part of the verdict, so it takes no part in comparisons."""

    completeness_error: float
    worst_overuse: float
    invalid: list[str]
    allocations: list[dict[Resource, float]] = field(
        default_factory=list, compare=False, repr=False
    )

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
    load_values: Mapping[Resource, float],
) -> DecompositionCheck:
    """Check completeness, per-resource domination by the LP loads, and
    validity of every extracted mapping."""
    invalid = []
    allocations = []
    used: dict[Resource, float] = {}
    for idx, entry in enumerate(decomposition.entries):
        ok, why = check_valid_mapping(substrate, request, entry.mapping)
        if not ok:
            invalid.append(f"entry {idx}: {why}")
            continue
        allocations.append(_unchecked_allocations(request, entry.mapping))
        for res, amount in allocations[-1].items():
            used[res] = used.get(res, 0.0) + entry.weight * amount
    worst = 0.0
    for res, total in used.items():
        worst = max(worst, total - load_values.get(res, 0.0))
    return DecompositionCheck(
        completeness_error=abs(decomposition.total_weight - x_value),
        worst_overuse=worst,
        invalid=invalid,
        allocations=allocations,
    )
