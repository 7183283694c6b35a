"""The object-building width search, kept as a reference for the index core.

This is the width search as it was before candidates were scored on node
indices: every candidate root's BFS and degree-ordered orientation is built
as an ``ExtractionOrder`` of ``OrientedEdge`` objects and labeled in full by
``label_order``, with its name labels, ``EdgeBag``s and a
``LabeledExtractionOrder``, and the exhaustive strategy builds and
validates an order for every flag vector. Labels follow the per-target
path-edge test over descendant masks. ``tests/test_extraction.py`` checks
that the package's search returns equal ``LabeledExtractionOrder``s.
"""

from __future__ import annotations

import itertools
from typing import Callable, Mapping, Sequence

from vnembed.extraction import (
    EdgeBag,
    ExtractionError,
    ExtractionOrder,
    LabeledExtractionOrder,
    OrientedEdge,
    RequestShaped,
)

_EXHAUSTIVE_LIMIT = 1 << 20


def _width_floor(graph: RequestShaped) -> int:
    return 1 if len(graph.edges) < len(graph.nodes) else 2


def _neighbor_sets(graph: RequestShaped) -> dict[str, set[str]]:
    neighbors: dict[str, set[str]] = {i: set() for i in graph.nodes}
    for (a, b) in graph.edges:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return neighbors


def build_extraction_order(graph: RequestShaped, root: str) -> ExtractionOrder:
    nodes = tuple(graph.nodes)
    if root not in nodes:
        raise ExtractionError(f"root {root!r} is not a request node")
    index = {i: k for k, i in enumerate(nodes)}
    neighbors = _neighbor_sets(graph)
    layer = {root: 0}
    frontier = [root]
    while frontier:
        nxt: list[str] = []
        for u in sorted(frontier, key=index.__getitem__):
            for v in sorted(neighbors[u], key=index.__getitem__):
                if v not in layer:
                    layer[v] = layer[u] + 1
                    nxt.append(v)
        frontier = nxt
    return _orient_by_rank(graph, root, {i: (layer[i], index[i]) for i in layer})


def build_degree_order(graph: RequestShaped, root: str) -> ExtractionOrder:
    nodes = tuple(graph.nodes)
    if root not in nodes:
        raise ExtractionError(f"root {root!r} is not a request node")
    index = {i: k for k, i in enumerate(nodes)}
    neighbors = _neighbor_sets(graph)
    position = {root: 0}
    frontier = set(neighbors[root])
    while frontier:
        u = min(frontier, key=lambda v: (len(neighbors[v]), index[v]))
        frontier.remove(u)
        position[u] = len(position)
        frontier.update(v for v in neighbors[u] if v not in position)
    return _orient_by_rank(graph, root, position)


def _orient_by_rank(
    graph: RequestShaped, root: str, rank: Mapping[str, object]
) -> ExtractionOrder:
    if len(rank) != len(graph.nodes):
        missing = sorted(set(graph.nodes) - set(rank))
        raise ExtractionError(f"nodes unreachable from root: {missing}")
    return _orient(graph, root, [rank[a] > rank[b] for (a, b) in graph.edges])


def _orient(
    graph: RequestShaped, root: str, reversed_flags: Sequence[bool]
) -> ExtractionOrder:
    oriented = tuple(
        OrientedEdge(tail=b, head=a, original=(a, b), reversed=True)
        if flip
        else OrientedEdge(tail=a, head=b, original=(a, b), reversed=False)
        for (a, b), flip in zip(graph.edges, reversed_flags)
    )
    return ExtractionOrder(nodes=tuple(graph.nodes), root=root, edges=oriented)


def orientation_from_flags(
    graph: RequestShaped, root: str, reversed_flags: Sequence[bool]
) -> ExtractionOrder:
    if len(reversed_flags) != len(graph.edges):
        raise ExtractionError("one reversal flag per edge required")
    order = _orient(graph, root, reversed_flags)
    _OrderView(order)
    return order


class _OrderView:
    def __init__(self, order: ExtractionOrder):
        if order.root not in order.nodes:
            raise ExtractionError(f"root {order.root!r} is not a request node")
        index = order.node_index
        n = len(order.nodes)
        self.tails = [index[e.tail] for e in order.edges]
        self.heads = [index[e.head] for e in order.edges]
        succ: list[list[int]] = [[] for _ in range(n)]
        self.pred: list[list[int]] = [[] for _ in range(n)]
        for t, h in zip(self.tails, self.heads):
            succ[t].append(h)
            self.pred[h].append(t)
        indeg = [len(p) for p in self.pred]
        stack = [v for v in range(n) if indeg[v] == 0]
        topo: list[int] = []
        while stack:
            u = stack.pop()
            topo.append(u)
            for v in succ[u]:
                indeg[v] -= 1
                if indeg[v] == 0:
                    stack.append(v)
        if len(topo) != n:
            raise ExtractionError("orientation is not acyclic")
        self.desc = [0] * n
        for u in reversed(topo):
            mask = 1 << u
            for v in succ[u]:
                mask |= self.desc[v]
            self.desc[u] = mask
        root = index[order.root]
        if self.desc[root] != (1 << n) - 1:
            missing = sorted(
                order.nodes[k] for k in range(n) if not (self.desc[root] >> k) & 1
            )
            raise ExtractionError(f"nodes unreachable from root: {missing}")
        self.idom = [root] * n
        depth = [0] * n
        for v in topo[1:]:
            d = self.pred[v][0]
            for p in self.pred[v][1:]:
                while d != p:
                    if depth[d] >= depth[p]:
                        d = self.idom[d]
                    else:
                        p = self.idom[p]
            self.idom[v] = d
            depth[v] = depth[d] + 1

    def path_edges(self, i: int, j: int) -> list[int]:
        di = self.desc[i]
        return [
            k
            for k in range(len(self.tails))
            if (di >> self.tails[k]) & 1 and (self.desc[self.heads[k]] >> j) & 1
        ]


def compute_edge_bags(
    order: ExtractionOrder, labels: Sequence[tuple[str, ...]]
) -> dict[str, tuple[EdgeBag, ...]]:
    bags: dict[str, tuple[EdgeBag, ...]] = {}
    for node in order.nodes:
        groups: list[tuple[list[int], set[str]]] = []
        for k in order.out_edges[node]:
            lab = set(labels[k])
            if not lab:
                groups.append(([k], lab))
                continue
            merged_edges = [k]
            keep: list[tuple[list[int], set[str]]] = []
            for g_edges, g_labels in groups:
                if g_labels & lab:
                    merged_edges.extend(g_edges)
                    lab |= g_labels
                else:
                    keep.append((g_edges, g_labels))
            keep.append((merged_edges, lab))
            groups = keep
        node_bags = [
            EdgeBag(node=node, edges=tuple(sorted(ge)), labels=tuple(sorted(gl)))
            for ge, gl in groups
        ]
        node_bags.sort(key=lambda b: b.edges[0])
        bags[node] = tuple(node_bags)
    return bags


def label_order(order: ExtractionOrder) -> LabeledExtractionOrder:
    view = _OrderView(order)
    label_sets: list[set[int]] = [set() for _ in order.edges]
    label_roots: dict[str, str] = {}
    for j, preds in enumerate(view.pred):
        if len(preds) < 2:
            continue
        d = view.idom[j]
        for k in view.path_edges(d, j):
            label_sets[k].add(j)
        label_roots[order.nodes[j]] = order.nodes[d]
    labels = tuple(tuple(order.nodes[j] for j in sorted(s)) for s in label_sets)
    bags = compute_edge_bags(order, labels)
    width = 1 + max(
        (len(b.labels) for node_bags in bags.values() for b in node_bags),
        default=0,
    )
    return LabeledExtractionOrder(
        order=order, labels=labels, bags=bags, label_roots=label_roots, width=width
    )


def min_width_order_search(
    graph: RequestShaped,
    strategy: str = "per-root-bfs",
    roots: Sequence[str] | None = None,
) -> LabeledExtractionOrder:
    candidates = tuple(roots) if roots is not None else tuple(graph.nodes)
    if not candidates:
        raise ValueError("at least one candidate root required")
    if strategy == "per-root-bfs":
        best = per_root_pass(graph, candidates, build_extraction_order)
        return per_root_pass(graph, candidates, build_degree_order, best)
    if strategy == "exhaustive":
        return _exhaustive_search(graph, candidates)
    raise ValueError(f"unknown strategy {strategy!r}")


def per_root_pass(
    graph: RequestShaped,
    roots: Sequence[str],
    build: Callable[[RequestShaped, str], ExtractionOrder],
    best: LabeledExtractionOrder | None = None,
) -> LabeledExtractionOrder:
    """One pass: label ``build(graph, root)`` for each root; an order
    replaces ``best`` only if strictly narrower. Stops at the width floor."""
    floor = _width_floor(graph)
    if best is None:
        best, roots = label_order(build(graph, roots[0])), roots[1:]
    for root in roots:
        if best.width <= floor:
            break
        labeled = label_order(build(graph, root))
        if labeled.width < best.width:
            best = labeled
    return best


def _exhaustive_search(
    graph: RequestShaped, roots: Sequence[str]
) -> LabeledExtractionOrder:
    total = 0
    edge_list = list(graph.edges)
    for root in roots:
        free = sum(1 for (a, b) in edge_list if root not in (a, b))
        total += 1 << free
    if total > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive search would try {total} edge-reversal flag vectors "
            f"(limit {_EXHAUSTIVE_LIMIT}); use per-root-bfs"
        )
    best: LabeledExtractionOrder | None = None
    for root in roots:
        forced: list[bool | None] = []
        free_ids = []
        for k, (a, b) in enumerate(edge_list):
            if a == root:
                forced.append(False)
            elif b == root:
                forced.append(True)
            else:
                forced.append(None)
                free_ids.append(k)
        for combo in itertools.product((False, True), repeat=len(free_ids)):
            flags = list(forced)
            for k, flip in zip(free_ids, combo):
                flags[k] = flip
            try:
                order = orientation_from_flags(graph, root, flags)
            except ExtractionError:
                continue
            labeled = label_order(order)
            if best is None or labeled.width < best.width:
                best = labeled
    if best is None:
        raise ExtractionError("no valid orientation for any candidate root")
    return best
