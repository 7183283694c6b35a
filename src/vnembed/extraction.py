"""Extraction orders: rooted acyclic reorientations of request graphs.

An extraction order reorients every request edge so that the result is a
DAG in which all nodes are reachable from a chosen root. Its *labels* mark,
per edge, the targets of confluences (node pairs joined by two internally
node-disjoint paths) whose path edges include that edge. Outgoing edges of
a node are grouped into *bags* by transitive label overlap; the width of an
order is one plus the size of the largest bag label set. Width drives the
size of the decomposable LP relaxation, so finding low-width orders matters.

Labels come from dominators. Every node ``j`` with two or more in-edges is
the target of a confluence from its immediate dominator ``d`` (computed in
one pass over a topological order, after Cooper, Harvey & Kennedy, "A
Simple, Fast Dominance Algorithm", 2001), and ``j`` labels exactly the
edges on ``d -> j`` paths. Sketch: a single node separating ``d`` from
``j`` would dominate ``j`` below ``d``, so ``d`` is a source; ``d``
separates every node above it from ``j``; and any other source lies below
``d``, since a root path avoiding ``d`` would force ``d`` into both of its
disjoint paths. ``label_order`` spells this out.

Finding a minimum-width order is NP-hard, so the default search is a
heuristic with two candidate orders per root: the BFS orientation, and a
degree-ordered orientation that visits low-degree frontier nodes first and
so leaves hubs (like a half wheel's center) for last. Both strategies run
one loop (``_narrowest``) over candidates scored on node indices by
``_score``, the core of ``label_order``; the first strictly narrowest
wins. The loop stops once a candidate meets the lower bound of 1
(forests) or 2 (anything with an undirected cycle), and only the winner
is built as an ``ExtractionOrder`` and rendered from its score.

Every ``LabeledExtractionOrder`` is rendered from a score by ``_render``,
so bags follow one rule: ``label_order`` scores an order's labels, and
``flow_labeling`` renders the flow relaxation's orders from an all-zero
score, every edge a bag alone.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Iterator, Mapping, Protocol, Sequence


class RequestShaped(Protocol):
    """Anything with string node ids and directed string edge pairs."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]


class ExtractionError(Exception):
    pass


@dataclass(frozen=True)
class Digraph:
    """Minimal directed graph used by generators and width analyses."""

    nodes: tuple[str, ...]
    edges: tuple[tuple[str, str], ...]

    @classmethod
    def build(cls, nodes: Iterable[str], edges: Iterable[tuple[str, str]]) -> "Digraph":
        node_tuple = tuple(sorted(set(nodes)))
        edge_tuple = tuple(sorted(set(edges)))
        for (a, b) in edge_tuple:
            if a == b:
                raise ExtractionError(f"self-loop on {a!r}")
        return cls(nodes=node_tuple, edges=edge_tuple)


@dataclass(frozen=True)
class OrientedEdge:
    """One request edge as used inside an order; ``original`` keeps identity."""

    tail: str
    head: str
    original: tuple[str, str]
    reversed: bool


@dataclass(frozen=True)
class ExtractionOrder:
    """A rooted acyclic orientation. ``edges[k]`` reorients ``graph.edges[k]``."""

    nodes: tuple[str, ...]
    root: str
    edges: tuple[OrientedEdge, ...]

    @cached_property
    def node_index(self) -> dict[str, int]:
        return {i: k for k, i in enumerate(self.nodes)}

    @cached_property
    def out_edges(self) -> dict[str, tuple[int, ...]]:
        adj: dict[str, list[int]] = {i: [] for i in self.nodes}
        for k, e in enumerate(self.edges):
            adj[e.tail].append(k)
        return {i: tuple(v) for i, v in adj.items()}

    @cached_property
    def in_edges(self) -> dict[str, tuple[int, ...]]:
        adj: dict[str, list[int]] = {i: [] for i in self.nodes}
        for k, e in enumerate(self.edges):
            adj[e.head].append(k)
        return {i: tuple(v) for i, v in adj.items()}


def _adjacency(
    graph: RequestShaped,
) -> tuple[dict[str, int], list[tuple[int, int]], list[list[int]]]:
    """Node index, edge endpoints as indices, and each node's distinct
    undirected neighbors in index order."""
    index = {i: k for k, i in enumerate(graph.nodes)}
    ends = [(index[a], index[b]) for (a, b) in graph.edges]
    neighbors: list[set[int]] = [set() for _ in graph.nodes]
    for a, b in ends:
        neighbors[a].add(b)
        neighbors[b].add(a)
    return index, ends, [sorted(s) for s in neighbors]


def _bfs_rank(neighbors: list[list[int]], root: int) -> list[int]:
    """Rank of each node in the BFS orientation from ``root``: its
    ``(layer, index)`` key as one integer, or -1 if the search missed it."""
    n = len(neighbors)
    layer = [-1] * n
    layer[root] = 0
    frontier = [root]
    while frontier:
        nxt: list[int] = []
        for u in sorted(frontier):
            for v in neighbors[u]:
                if layer[v] < 0:
                    layer[v] = layer[u] + 1
                    nxt.append(v)
        frontier = nxt
    return [lay * n + k if lay >= 0 else -1 for k, lay in enumerate(layer)]


def _degree_rank(neighbors: list[list[int]], root: int) -> list[int]:
    """Visit position of each node in the degree-ordered search from
    ``root``, or -1 if the search missed it."""
    position = [-1] * len(neighbors)
    position[root] = 0
    visited = 1
    frontier = set(neighbors[root])
    while frontier:
        u = min(frontier, key=lambda v: (len(neighbors[v]), v))
        frontier.remove(u)
        position[u] = visited
        visited += 1
        frontier.update(v for v in neighbors[u] if position[v] < 0)
    return position


_Ranking = Callable[[list[list[int]], int], list[int]]


def _ranked_flags(
    graph: RequestShaped, adjacency, root: str, ranking: _Ranking
) -> list[bool]:
    """Reversal flags that point every edge from its lower-ranked endpoint
    to the higher one. ``ranking`` ranks the root lowest and every other
    node above a neighbor, so the flags give a valid order by construction.
    Raises if the search from ``root`` missed a node."""
    index, ends, neighbors = adjacency
    if root not in index:
        raise ExtractionError(f"root {root!r} is not a request node")
    rank = ranking(neighbors, index[root])
    if min(rank) < 0:
        missing = sorted(i for i, r in zip(graph.nodes, rank) if r < 0)
        raise ExtractionError(f"nodes unreachable from root: {missing}")
    return [rank[a] > rank[b] for a, b in ends]


def build_extraction_order(graph: RequestShaped, root: str) -> ExtractionOrder:
    """Orient all edges along BFS layers from ``root``.

    The undirected interpretation is traversed breadth first with neighbors
    visited in index order; each edge then points from its endpoint with the
    smaller ``(layer, index)`` key to the larger one. This always yields a
    valid order and keeps results reproducible.
    """
    flags = _ranked_flags(graph, _adjacency(graph), root, _bfs_rank)
    return _orient(graph, root, flags)


def build_degree_order(graph: RequestShaped, root: str) -> ExtractionOrder:
    """Orient all edges along a degree-ordered search from ``root``.

    Each step visits the unvisited frontier node with the fewest distinct
    undirected neighbors, ties broken by node index; each edge then points
    from its endpoint visited earlier to the one visited later. The visit
    sequence is a linear order in which every non-root node has an earlier
    neighbor, so the result is always a valid order.
    """
    flags = _ranked_flags(graph, _adjacency(graph), root, _degree_rank)
    return _orient(graph, root, flags)


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
    """Build an order from explicit per-edge reversal flags (aligned with
    ``graph.edges``). Raises if the result is cyclic or not root-covering."""
    if len(reversed_flags) != len(graph.edges):
        raise ExtractionError("one reversal flag per edge required")
    order = _orient(graph, root, reversed_flags)
    _label_masks(order.nodes, *_order_ends(order))  # raises on an invalid order
    return order


@dataclass(frozen=True)
class EdgeBag:
    """A group of outgoing edges of one node, merged by label overlap."""

    node: str
    edges: tuple[int, ...]
    labels: tuple[str, ...]


@dataclass(frozen=True)
class LabeledExtractionOrder:
    order: ExtractionOrder
    labels: tuple[tuple[str, ...], ...]
    bags: Mapping[str, tuple[EdgeBag, ...]]
    label_roots: Mapping[str, str]
    width: int


def _order_ends(order: ExtractionOrder) -> tuple[int, list[int], list[int]]:
    """Root, edge tails and edge heads of ``order`` as node indices."""
    index = order.node_index
    if order.root not in index:
        raise ExtractionError(f"root {order.root!r} is not a request node")
    tails = [index[e.tail] for e in order.edges]
    heads = [index[e.head] for e in order.edges]
    return index[order.root], tails, heads


def _label_masks(
    nodes: Sequence[str], root: int, tails: Sequence[int], heads: Sequence[int]
) -> tuple[list[int], dict[int, int]]:
    """Labels of the order whose edge ``k`` runs from node ``tails[k]`` to
    node ``heads[k]``: one bitmask per edge (bit ``j`` for label ``j``) and
    the label root of each label. Raises ``ExtractionError`` unless the
    order is acyclic and reaches every node from ``root``.

    An edge ``t -> h`` lies on a ``d -> j`` path exactly when ``d`` reaches
    ``t`` and ``h`` reaches ``j``. So with ``below[t]`` the labels whose
    root reaches ``t``, the edge's labels are ``below[t] & desc[h]``.
    """
    n = len(nodes)
    succ: list[list[int]] = [[] for _ in range(n)]
    pred: list[list[int]] = [[] for _ in range(n)]
    for t, h in zip(tails, heads):
        succ[t].append(h)
        pred[h].append(t)
    indeg = [len(p) for p in pred]
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
    desc = [0] * n
    for u in reversed(topo):
        mask = 1 << u
        for v in succ[u]:
            mask |= desc[v]
        desc[u] = mask
    if desc[root] != (1 << n) - 1:
        missing = sorted(nodes[k] for k in range(n) if not (desc[root] >> k) & 1)
        raise ExtractionError(f"nodes unreachable from root: {missing}")
    # Every node is reachable from the root, so the root is the only
    # source and comes first in ``topo``; each other node's immediate
    # dominator is the deepest common dominator-tree ancestor of its
    # predecessors, all of which precede it.
    idom = [root] * n
    depth = [0] * n
    for v in topo[1:]:
        d = pred[v][0]
        for p in pred[v][1:]:
            while d != p:
                if depth[d] >= depth[p]:
                    d = idom[d]
                else:
                    p = idom[p]
        idom[v] = d
        depth[v] = depth[d] + 1
    label_roots = {j: idom[j] for j in range(n) if len(pred[j]) >= 2}
    below = [0] * n
    for j, d in label_roots.items():
        below[d] |= 1 << j
    for v in topo:
        for p in pred[v]:
            below[v] |= below[p]
    return [below[t] & desc[h] for t, h in zip(tails, heads)], label_roots


def _group_masks(
    num_nodes: int, tails: Sequence[int], masks: Sequence[int]
) -> list[list[tuple[list[int], int]]]:
    """Each node's outgoing edges grouped by transitive label overlap, as
    ``(edges, label mask)`` pairs. An unlabeled edge is a group alone."""
    groups: list[list[tuple[list[int], int]]] = [[] for _ in range(num_nodes)]
    for k, (t, lab) in enumerate(zip(tails, masks)):
        if not lab:
            groups[t].append(([k], 0))
            continue
        merged_edges = [k]
        keep: list[tuple[list[int], int]] = []
        for g_edges, g_lab in groups[t]:
            if g_lab & lab:
                merged_edges.extend(g_edges)
                lab |= g_lab
            else:
                keep.append((g_edges, g_lab))
        keep.append((merged_edges, lab))
        groups[t] = keep
    return groups


def _groups_width(groups: list[list[tuple[list[int], int]]]) -> int:
    return 1 + max((lab.bit_count() for g in groups for _, lab in g), default=0)


def _names(nodes: Sequence[str], mask: int) -> tuple[str, ...]:
    return tuple(v for j, v in enumerate(nodes) if mask >> j & 1)


def _render_bags(
    nodes: Sequence[str], groups: list[list[tuple[list[int], int]]]
) -> dict[str, tuple[EdgeBag, ...]]:
    bags = {}
    for node, node_groups in zip(nodes, groups):
        node_bags = [
            EdgeBag(node, tuple(sorted(ge)), tuple(sorted(_names(nodes, lab))))
            for ge, lab in node_groups
        ]
        bags[node] = tuple(sorted(node_bags, key=lambda b: b.edges[0]))
    return bags


def label_order(order: ExtractionOrder) -> LabeledExtractionOrder:
    """Compute labels, bags, per-label roots and the width of an order.

    A node ``j`` with two or more in-edges labels exactly the edges on the
    paths from its immediate dominator ``d`` to ``j``, and ``d`` is its
    label root. This is the union, over all sources ``i`` of confluences
    ``(i, j)``, of the edges on ``i -> j`` paths:

    - ``d`` is a source: otherwise, by Menger's theorem, a single node
      separates ``d`` from ``j``, and it would dominate ``j`` below ``d``.
    - A node strictly above ``d`` is not a source: ``d`` separates it
      from ``j``.
    - Every other source ``s`` has ``d`` on each root-to-``s`` path, since
      otherwise ``d`` would sit inside both disjoint ``s -> j`` paths; so
      ``s -> j`` paths are parts of ``d -> j`` paths.

    So ``d`` is also the unique source that dominates ``j``. Nodes with
    fewer than two in-edges are targets of no confluence. Raises
    ``ExtractionError`` on an invalid order.
    """
    return _render(order, _score(order.nodes, *_order_ends(order)))


_Score = tuple[list[int], dict[int, int], list[list[tuple[list[int], int]]]]


def _score(
    nodes: Sequence[str], root: int, tails: Sequence[int], heads: Sequence[int]
) -> _Score:
    """Label masks, label roots and bag groups of an order on node indices:
    what ``label_order`` computes. Raises ``ExtractionError`` on an invalid
    order."""
    masks, label_roots = _label_masks(nodes, root, tails, heads)
    return masks, label_roots, _group_masks(len(nodes), tails, masks)


def _render(order: ExtractionOrder, score: _Score) -> LabeledExtractionOrder:
    """``order`` labeled from its score, in node names."""
    nodes = order.nodes
    masks, label_roots, groups = score
    return LabeledExtractionOrder(
        order=order,
        labels=tuple(_names(nodes, lab) for lab in masks),
        bags=_render_bags(nodes, groups),
        label_roots={nodes[j]: nodes[d] for j, d in label_roots.items()},
        width=_groups_width(groups),
    )


def flow_labeling(order: ExtractionOrder) -> LabeledExtractionOrder:
    """``order`` with every label dropped, rendered from an all-zero score:
    one singleton bag per edge and width 1. The decomposable LP over it is
    the multi-commodity flow relaxation, whose solutions are sure to
    decompose only on tree requests."""
    masks = [0] * len(order.edges)
    _, tails, _ = _order_ends(order)
    return _render(order, (masks, {}, _group_masks(len(order.nodes), tails, masks)))


def min_width_order_search(
    graph: RequestShaped,
    strategy: str = "per-root-bfs",
    roots: Sequence[str] | None = None,
) -> LabeledExtractionOrder:
    """Search for a low-width order.

    Both strategies score candidate orders on node indices and return the
    first strictly narrowest, stopping once a candidate meets the lower
    bound (see ``_width_floor``), which cannot change the result. Only
    that winner is labeled. ``per-root-bfs`` is a heuristic: its
    candidates are the BFS orientation (``build_extraction_order``) of each
    root, then the degree-ordered orientation (``build_degree_order``) of
    each root, so whenever BFS already finds the narrowest order of the
    two, that BFS order is the result. ``exhaustive`` tries every
    edge-reversal flag vector per candidate root, skips the invalid ones
    and returns a true minimum; it is only meant for small graphs and
    refuses oversized searches.
    """
    candidates = tuple(roots) if roots is not None else tuple(graph.nodes)
    if not candidates:
        raise ValueError("at least one candidate root required")
    if strategy == "per-root-bfs":
        scored = _ranked_candidates(graph, candidates, (_bfs_rank, _degree_rank))
    elif strategy == "exhaustive":
        scored = _exhaustive_candidates(graph, candidates)
    else:
        raise ValueError(f"unknown strategy {strategy!r}")
    return _narrowest(graph, scored)


def _width_floor(graph: RequestShaped) -> int:
    """Lowest width any order of a connected request graph can reach.

    A tree (one edge fewer than nodes) has width-1 orders. Otherwise the
    undirected view has a cycle (antiparallel pairs included), so some
    node has two in-edges in every valid order. That node is the target of
    a confluence from its immediate dominator, and an edge carrying its
    label puts a labeled bag at its tail: width at least 2. Disconnected
    graphs have no valid order at all.
    """
    return 1 if len(graph.edges) < len(graph.nodes) else 2


def _narrowest(
    graph: RequestShaped, candidates: Iterable[tuple[str, list[bool], _Score]]
) -> LabeledExtractionOrder:
    """The first strictly narrowest of the scored ``(root, reversal flags,
    score)`` candidates, rendered. Stops at the width floor."""
    floor = _width_floor(graph)
    best = None
    for root, flags, score in candidates:
        width = _groups_width(score[2])
        if best is None or width < best[0]:
            best = (width, root, flags, score)
            if width <= floor:
                break
    if best is None:
        raise ExtractionError("no valid orientation for any candidate root")
    _, root, flags, score = best
    return _render(_orient(graph, root, flags), score)


def _ranked_candidates(
    graph: RequestShaped, roots: Sequence[str], rankings: Sequence[_Ranking]
) -> Iterator[tuple[str, list[bool], _Score]]:
    """Each ranking's orientation of each root, ranking by ranking, scored
    lazily. Errors of ``_ranked_flags`` and ``_score`` propagate."""
    adjacency = _adjacency(graph)
    index, ends, _ = adjacency
    for ranking in rankings:
        for root in roots:
            flags = _ranked_flags(graph, adjacency, root, ranking)
            tails = [b if flip else a for (a, b), flip in zip(ends, flags)]
            heads = [a if flip else b for (a, b), flip in zip(ends, flags)]
            yield root, flags, _score(graph.nodes, index[root], tails, heads)


# Cap on the edge-reversal flag vectors the exhaustive search would test,
# summed over the candidate roots in the graph: 2**k for a root k edges miss.
_EXHAUSTIVE_LIMIT = 1 << 20


def _exhaustive_candidates(
    graph: RequestShaped, roots: Sequence[str]
) -> Iterator[tuple[str, list[bool], _Score]]:
    """Every edge-reversal flag vector of each candidate root in the graph,
    scored lazily; vectors that give an invalid order are skipped. Refuses
    up front if the vectors would exceed ``_EXHAUSTIVE_LIMIT``."""
    index, ends, _ = _adjacency(graph)
    in_graph = [(root, index[root]) for root in roots if root in index]
    total = sum(1 << sum(r not in e for e in ends) for _, r in in_graph)
    if total > _EXHAUSTIVE_LIMIT:
        raise ValueError(
            f"exhaustive search would try {total} edge-reversal flag vectors "
            f"(limit {_EXHAUSTIVE_LIMIT}); use per-root-bfs"
        )
    for root, r in in_graph:
        # Edges at the root must point away from it: an edge into the root
        # would close a cycle with any path back out.
        forced = [False if a == r else True if b == r else None for a, b in ends]
        free_ids = [k for k, flip in enumerate(forced) if flip is None]
        for combo in itertools.product((False, True), repeat=len(free_ids)):
            flags = list(forced)
            for k, flip in zip(free_ids, combo):
                flags[k] = flip
            tails = [b if flip else a for (a, b), flip in zip(ends, flags)]
            heads = [a if flip else b for (a, b), flip in zip(ends, flags)]
            try:
                score = _score(graph.nodes, r, tails, heads)
            except ExtractionError:
                continue
            yield root, flags, score


def is_cactus(graph: RequestShaped) -> bool:
    """True iff no edge of the undirected multigraph view (antiparallel
    pairs are two-edge cycles) lies on two cycles. Every cycle is a sum of
    those each edge off a BFS forest closes with its tree path, so the graph
    is a cactus iff those tree paths share no edge."""
    index = {u: k for k, u in enumerate(graph.nodes)}
    adj: list[list[tuple[int, int]]] = [[] for _ in index]
    for eid, (a, b) in enumerate(graph.edges):
        adj[index[a]].append((index[b], eid))
        adj[index[b]].append((index[a], eid))
    depth = [-1] * len(adj)
    up = [(-1, -1)] * len(adj)  # each node's BFS parent and the edge to it
    for start in range(len(adj)):
        if depth[start] >= 0:
            continue
        depth[start] = 0
        queue = [start]
        for u in queue:
            for v, eid in adj[u]:
                if depth[v] < 0:
                    depth[v] = depth[u] + 1
                    up[v] = (u, eid)
                    queue.append(v)
    tree = {eid for _, eid in up}
    used: set[int] = set()
    for eid, (a, b) in enumerate(graph.edges):
        if eid in tree:
            continue
        u, v = index[a], index[b]
        while u != v:
            if depth[u] < depth[v]:
                u, v = v, u
            u, step = up[u]
            if step in used:
                return False
            used.add(step)
    return True


def generate_half_wheel(n: int) -> Digraph:
    """Half wheel: center ``c`` with spokes to ``w01`` .. ``wNN`` plus the
    outer path ``w01 - w02 - ... - wNN``. Initial directions run from the
    center outward and along increasing outer index."""
    if n < 2:
        raise ValueError("half wheel needs at least two outer nodes")
    outer = [f"w{k:02d}" for k in range(1, n + 1)]
    edges = [("c", w) for w in outer]
    edges += [(outer[k], outer[k + 1]) for k in range(n - 1)]
    return Digraph.build(["c"] + outer, edges)


def half_wheel_center_order(n: int) -> ExtractionOrder:
    """The width-2 order of the half wheel: rooted at the middle outer node,
    outer edges pointing away from it, spokes pointing into the center."""
    graph = generate_half_wheel(n)
    root = f"w{(n // 2):02d}"
    flags = []
    for (a, b) in graph.edges:
        if a == "c":
            flags.append(True)  # spoke now points into the center
        else:
            left_index = int(a[1:])
            flags.append(left_index + 1 <= n // 2)
    return orientation_from_flags(graph, root, flags)


def generate_vc_gadget(
    base_nodes: Iterable[str], base_edges: Iterable[tuple[str, str]], super_node: str = "r"
) -> Digraph:
    """Orient an undirected base graph low-to-high and add a super node with
    an edge to every base node. Rooted at the super node, minimal extraction
    width equals the base graph's minimum vertex cover size plus one."""
    base = sorted(set(base_nodes))
    if super_node in base:
        raise ValueError(f"super node id {super_node!r} collides with base node")
    edges = [tuple(sorted(e)) for e in base_edges]
    for (a, b) in edges:
        if a == b:
            raise ValueError(f"self-loop on {a!r}")
    edges = sorted(set(edges)) + [(super_node, v) for v in base]
    return Digraph.build(base + [super_node], edges)
