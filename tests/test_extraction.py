"""Extraction orders, confluence labels, edge bags, width search."""

from __future__ import annotations

import collections
import itertools
from types import SimpleNamespace

import extraction_reference as reference
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnembed import (
    Digraph,
    build_degree_order,
    build_extraction_order,
    count_novel_variables,
    flow_labeling,
    is_cactus,
    label_order,
    min_width_order_search,
    orientation_from_flags,
)
from vnembed import extraction
from vnembed.extraction import (
    ExtractionError,
    ExtractionOrder,
    OrientedEdge,
    _bfs_rank,
    _narrowest,
    _ranked_candidates,
    _width_floor,
    generate_half_wheel,
    generate_vc_gadget,
    half_wheel_center_order,
)
from vnembed.scenarios import (
    VC_BASES,
    cactus_graph_corpus,
    random_cactus_graph,
    random_tree_graph,
    scenario_instance,
)


def _all_edge_paths(out_by_node, source, sink):
    """Every simple path as a sequence of edge positions.

    Parallel oriented copies (an antiparallel request pair pointing the same
    way after reorientation) count as distinct paths.
    """
    paths = []

    def walk(node, seen, acc):
        if node == sink:
            paths.append(tuple(acc))
            return
        for k, nxt in out_by_node.get(node, ()):
            if nxt not in seen:
                seen.add(nxt)
                acc.append(k)
                walk(nxt, seen, acc)
                acc.pop()
                seen.discard(nxt)

    walk(source, {source}, [])
    return paths


def brute_labels(order):
    """Label reference: try every pair of internally disjoint path copies.

    An edge gets label j when some source i admits two i->j paths sharing
    only their endpoints, and the edge lies on any i->j path at all.
    """
    out_by_node = {}
    for k, e in enumerate(order.edges):
        out_by_node.setdefault(e.tail, []).append((k, e.head))
    labels = [set() for _ in order.edges]
    for i in order.nodes:
        for j in order.nodes:
            if i == j:
                continue
            paths = _all_edge_paths(out_by_node, i, j)
            if len(paths) < 2:
                continue

            def internal(path):
                return {order.edges[k].head for k in path[:-1]}

            disjoint = any(
                not (internal(p) & internal(q))
                for p, q in itertools.combinations(paths, 2)
            )
            if not disjoint:
                continue
            for p in paths:
                for k in p:
                    labels[k].add(j)
    return tuple(tuple(sorted(s)) for s in labels)


def brute_label_roots(order):
    """Label-root reference: for each node j with two or more in-edges, the
    sources of brute-force confluences (i, j) that every root-to-j path
    visits."""
    out_by_node = {}
    for k, e in enumerate(order.edges):
        out_by_node.setdefault(e.tail, []).append((k, e.head))

    def internal(path):
        return {order.edges[k].head for k in path[:-1]}

    roots = {}
    for j in order.nodes:
        if sum(e.head == j for e in order.edges) < 2:
            continue
        root_paths = _all_edge_paths(out_by_node, order.root, j)
        found = []
        for i in order.nodes:
            if i == j:
                continue
            paths = _all_edge_paths(out_by_node, i, j)
            if not any(
                not (internal(p) & internal(q))
                for p, q in itertools.combinations(paths, 2)
            ):
                continue
            if all(i == order.root or i in internal(p) for p in root_paths):
                found.append(i)
        roots[j] = found
    return roots


def random_connected_digraph(rng, max_nodes=7):
    n = int(rng.integers(3, max_nodes + 1))
    nodes, tree_edges = random_tree_graph(rng, n)
    edges = list(tree_edges)
    present = set(edges)
    for _ in range(int(rng.integers(0, 4))):
        a, b = rng.choice(nodes, size=2, replace=False)
        if (a, b) not in present:
            present.add((a, b))
            edges.append((a, b))
    return Digraph.build(nodes, tuple(edges))


def test_bfs_orientation_on_paths():
    g = Digraph.build(("a", "b", "c"), (("a", "b"), ("b", "c")))
    fwd = build_extraction_order(g, "a")
    assert [(e.tail, e.head, e.reversed) for e in fwd.edges] == [
        ("a", "b", False),
        ("b", "c", False),
    ]
    back = build_extraction_order(g, "c")
    assert all(e.reversed for e in back.edges)
    assert {(e.tail, e.head) for e in back.edges} == {("c", "b"), ("b", "a")}


def test_triangle_orientation_reverses_closing_edge():
    g = Digraph.build(("i", "j", "k"), (("i", "j"), ("j", "k"), ("k", "i")))
    order = build_extraction_order(g, "i")
    oriented = {(e.tail, e.head): e for e in order.edges}
    assert ("i", "k") in oriented
    assert oriented[("i", "k")].reversed
    assert oriented[("i", "k")].original == ("k", "i")


def test_orientation_from_flags_rejects_cycles():
    g = Digraph.build(("i", "j", "k"), (("i", "j"), ("j", "k"), ("k", "i")))
    with pytest.raises(ExtractionError):
        orientation_from_flags(g, "i", [False, False, False])


def test_disconnected_graph_rejected():
    g = Digraph.build(("a", "b", "c"), (("a", "b"),))
    with pytest.raises(ExtractionError):
        build_extraction_order(g, "a")


def test_tree_orders_have_empty_labels_and_width_one():
    rng = np.random.default_rng(3)
    for _ in range(10):
        nodes, edges = random_tree_graph(rng, int(rng.integers(2, 8)))
        g = Digraph.build(nodes, edges)
        labeled = label_order(build_extraction_order(g, nodes[0]))
        assert all(ls == () for ls in labeled.labels)
        assert labeled.width == 1


def test_flow_labeling_equals_label_order_on_tree_requests(tree_corpus):
    """A tree's BFS order has no confluence, so dropping every label changes
    nothing: the all-zero score renders what ``label_order`` scores."""
    requests = [req for inst in tree_corpus for req in inst.requests]
    assert len(requests) == 50
    for req in requests:
        order = build_extraction_order(req, req.nodes[0])
        assert flow_labeling(order) == label_order(order)


def test_flow_labeling_puts_every_edge_in_a_bag_alone(
    tiny_corpus, cost_corpus, fig3, fig4
):
    """On requests with cycles too, the flow order's bags are the reference
    bags of empty labels: width 1 and no label roots."""
    named = [fig3, fig4] + [
        scenario_instance(name) for name in ("halfwheel:6", "servicechain", "cactus:7")
    ]
    requests = [
        req for inst in tiny_corpus + cost_corpus + named for req in inst.requests
    ]
    assert len(requests) == 70
    for req in requests:
        order = build_extraction_order(req, req.nodes[0])
        labels = tuple(() for _ in order.edges)
        assert flow_labeling(order) == extraction.LabeledExtractionOrder(
            order=order,
            labels=labels,
            bags=reference.compute_edge_bags(order, labels),
            label_roots={},
            width=1,
        )


def test_labels_match_brute_force_on_braid(fig4):
    req = fig4.requests[0]
    g = Digraph.build(req.nodes, req.edges)
    order = orientation_from_flags(g, "a", [False] * len(req.edges))
    assert label_order(order).labels == brute_labels(order)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_labels_match_brute_force_on_random_graphs(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_digraph(rng)
    root = str(rng.choice(g.nodes))
    order = build_extraction_order(g, root)
    assert label_order(order).labels == brute_labels(order)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_labels_match_brute_force_on_every_orientation(seed):
    g = random_connected_digraph(np.random.default_rng(seed), max_nodes=6)
    valid = 0
    for root in g.nodes:
        for flags in itertools.product((False, True), repeat=len(g.edges)):
            try:
                order = orientation_from_flags(g, root, flags)
            except ExtractionError:
                continue
            valid += 1
            labeled = label_order(order)
            assert labeled.labels == brute_labels(order)
            assert {
                j: [i] for j, i in labeled.label_roots.items()
            } == brute_label_roots(order)
    assert valid > 0


def test_label_order_rejects_invalid_orders():
    def order(root, arcs):
        nodes = tuple(sorted({v for arc in arcs for v in arc}))
        edges = tuple(OrientedEdge(a, b, (a, b), False) for a, b in arcs)
        return ExtractionOrder(nodes=nodes, root=root, edges=edges)

    with pytest.raises(ExtractionError, match="acyclic"):
        label_order(order("a", [("a", "b"), ("b", "c"), ("c", "b")]))
    # x has two disjoint paths into b, but the root reaches b around it
    with pytest.raises(ExtractionError, match="unreachable"):
        label_order(order("a", [("a", "b"), ("x", "b"), ("x", "y"), ("y", "b")]))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_label_structure_invariants(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_digraph(rng)
    root = str(rng.choice(g.nodes))
    labeled = label_order(build_extraction_order(g, root))
    order = labeled.order

    # incoming edges of any node carry identical label sets
    incoming = {}
    for e, ls in zip(order.edges, labeled.labels):
        incoming.setdefault(e.head, set()).add(ls)
    for node, seen in incoming.items():
        assert len(seen) == 1, f"incoming labels of {node} differ: {seen}"

    # each label's root reaches every edge carrying that label
    succ = {}
    for e in order.edges:
        succ.setdefault(e.tail, []).append(e.head)

    def reachable(src):
        seen = {src}
        stack = [src]
        while stack:
            for nxt in succ.get(stack.pop(), ()):
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        return seen

    for j, sj in labeled.label_roots.items():
        reach = reachable(sj)
        for e, ls in zip(order.edges, labeled.labels):
            if j in ls:
                assert e.tail in reach and e.head in reach

    # bags partition the out-edges; member labels overlap transitively
    for node in order.nodes:
        out = [k for k, e in enumerate(order.edges) if e.tail == node]
        bagged = [k for bag in labeled.bags.get(node, ()) for k in bag.edges]
        assert sorted(bagged) == sorted(out)
        for bag in labeled.bags.get(node, ()):
            assert bag.labels == tuple(
                sorted(set().union(*(set(labeled.labels[k]) for k in bag.edges)))
            )
    for bag_a, bag_b in itertools.combinations(
        [b for node in order.nodes for b in labeled.bags.get(node, ()) if b.labels],
        2,
    ):
        if bag_a.node == bag_b.node:
            assert not (set(bag_a.labels) & set(bag_b.labels))

    assert labeled.width == 1 + max(
        (len(b.labels) for node in order.nodes for b in labeled.bags.get(node, ())),
        default=0,
    )


def test_bag_merging_is_transitive():
    # out-labels {j}, {j,k}, {l} merge the first two and isolate the third
    g = Digraph.build(
        ("s", "p", "q", "t", "j", "k", "l"),
        (
            ("s", "p"),
            ("s", "q"),
            ("s", "t"),
            ("p", "j"),
            ("q", "j"),
            ("q", "k"),
            ("s", "k"),
            ("t", "l"),
            ("s", "l"),
        ),
    )
    labeled = label_order(orientation_from_flags(g, "s", [False] * 9))
    by_edges = {
        frozenset(
            (labeled.order.edges[k].tail, labeled.order.edges[k].head)
            for k in bag.edges
        ): bag.labels
        for bag in labeled.bags["s"]
    }
    merged = frozenset({("s", "p"), ("s", "q"), ("s", "k")})
    assert by_edges[merged] == ("j", "k")
    assert by_edges[frozenset({("s", "t"), ("s", "l")})] == ("l",)


def test_cactus_recognition():
    tree = Digraph.build(("a", "b", "c"), (("a", "b"), ("a", "c")))
    assert is_cactus(tree)
    cycle = Digraph.build(("a", "b", "c"), (("a", "b"), ("b", "c"), ("c", "a")))
    assert is_cactus(cycle)
    shared_node = Digraph.build(
        ("a", "b", "c", "d", "e"),
        (("a", "b"), ("b", "c"), ("c", "a"), ("c", "d"), ("d", "e"), ("e", "c")),
    )
    assert is_cactus(shared_node)
    theta = Digraph.build(
        ("a", "b", "c", "d"),
        (("a", "b"), ("b", "d"), ("a", "c"), ("c", "d"), ("a", "d")),
    )
    assert not is_cactus(theta)
    k4 = Digraph.build(
        ("a", "b", "c", "d"),
        tuple(itertools.combinations("abcd", 2)),
    )
    assert not is_cactus(k4)


@pytest.mark.parametrize("cycle_attempts", [0, 6, 12])
def test_random_cactus_graph_draws_a_cactus(cycle_attempts):
    for seed in range(50):
        rng = np.random.default_rng(seed)
        for num_nodes in range(1, 21):
            nodes, edges = random_cactus_graph(rng, num_nodes, cycle_attempts)
            assert len(nodes) == len(set(nodes)) == num_nodes
            pairs = {frozenset(e) for e in edges}
            # no repeated or antiparallel pair, and no self-loop
            assert len(pairs) == len(edges)
            assert all(len(pair) == 2 for pair in pairs)
            assert num_nodes - 1 <= len(edges) <= num_nodes - 1 + cycle_attempts
            reached = {nodes[0]}
            for _ in nodes:
                reached |= {v for pair in pairs if pair & reached for v in pair}
            assert reached == set(nodes)
            assert is_cactus(Digraph.build(nodes, edges))


def test_cactus_orders_stay_within_width_two():
    rng = np.random.default_rng(77)
    for _ in range(10):
        # chain of triangles glued at articulation points
        k = int(rng.integers(1, 4))
        nodes = []
        edges = []
        for t in range(k):
            a, b, c = f"n{2*t}", f"n{2*t+1}", f"n{2*t+2}"
            for x in (a, b, c):
                if x not in nodes:
                    nodes.append(x)
            edges += [(a, b), (b, c), (c, a)]
        g = Digraph.build(tuple(nodes), tuple(edges))
        assert is_cactus(g)
        for root in nodes:
            assert label_order(build_extraction_order(g, root)).width <= 2


def test_half_wheel_shape():
    g = generate_half_wheel(3)
    assert len(g.nodes) == 4
    assert len(g.edges) == 5
    assert {e for e in g.edges if e[0] == "c"} == {
        ("c", "w01"),
        ("c", "w02"),
        ("c", "w03"),
    }


def test_half_wheel_orders():
    center = label_order(half_wheel_center_order(6))
    assert center.order.root == "w03"
    assert center.width == 2
    hub_best = min_width_order_search(
        generate_half_wheel(6), strategy="exhaustive", roots=["c"]
    )
    assert hub_best.width == 4


def test_vc_gadget_small_cases():
    single = generate_vc_gadget(("a", "b"), (("a", "b"),))
    assert len(single.nodes) == 3 and len(single.edges) == 3
    assert min_width_order_search(single, "exhaustive", roots=["r"]).width == 2

    triangle = generate_vc_gadget(
        ("a", "b", "c"), (("a", "b"), ("a", "c"), ("b", "c"))
    )
    assert min_width_order_search(triangle, "exhaustive", roots=["r"]).width == 3

    star = generate_vc_gadget(
        ("hub", "x", "y", "z"), (("hub", "x"), ("hub", "y"), ("hub", "z"))
    )
    assert min_width_order_search(star, "exhaustive", roots=["r"]).width == 2


def test_figure_one_reference_widths():
    chain = scenario_instance("servicechain").requests[0]
    g = Digraph.build(chain.nodes, chain.edges)
    assert min_width_order_search(g, "exhaustive").width == 3
    cluster = scenario_instance("virtualcluster:4").requests[0]
    g = Digraph.build(cluster.nodes, cluster.edges)
    assert min_width_order_search(g, "exhaustive").width == 2


def test_search_strategies_and_errors():
    req = scenario_instance("fig3").requests[0]
    g = Digraph.build(req.nodes, req.edges)
    assert min_width_order_search(g).width == 2
    assert min_width_order_search(g, "exhaustive").width == 2
    with pytest.raises(ValueError, match="unknown strategy"):
        min_width_order_search(g, "annealing")
    with pytest.raises(ValueError, match="candidate root"):
        min_width_order_search(g, roots=[])


def test_exhaustive_search_refuses_oversized_graphs():
    # 25 nodes and 47 edges: the hub misses the 23 outer edges, the two
    # path ends miss 45 edges and the 22 inner outer nodes 44
    wheel = generate_half_wheel(24)
    total = 2**23 + 2 * 2**45 + 22 * 2**44
    with pytest.raises(
        ValueError,
        match=rf"would try {total} edge-reversal flag vectors "
        r"\(limit 1048576\); use per-root-bfs",
    ):
        min_width_order_search(wheel, strategy="exhaustive")

    ring = [f"v{k:02d}" for k in range(24)]
    big = Digraph.build(
        tuple(ring), tuple((ring[k], ring[(k + 1) % 24]) for k in range(24))
    )
    with pytest.raises(ValueError, match="exhaustive"):
        min_width_order_search(big, "exhaustive", roots=[ring[0]])


def _graph(req):
    return Digraph.build(req.nodes, req.edges)


def _reference_bfs_search(graph):
    """The BFS pass without its early exit: the first strictly narrowest
    BFS order over all roots."""
    best = None
    for root in graph.nodes:
        labeled = label_order(build_extraction_order(graph, root))
        if best is None or labeled.width < best.width:
            best = labeled
    return best


def test_degree_order_visits_low_degree_nodes_first():
    # rooted at the rim end, the search walks the rim and reaches the hub
    # last, so every spoke points into the hub
    order = build_degree_order(generate_half_wheel(5), "w01")
    oriented = {(e.tail, e.head) for e in order.edges}
    assert {(f"w{k:02d}", "c") for k in range(1, 6)} <= oriented
    assert {(f"w{k:02d}", f"w{k + 1:02d}") for k in range(1, 5)} <= oriented
    assert label_order(order).width == 2
    with pytest.raises(ExtractionError, match="unreachable"):
        build_degree_order(Digraph.build(("a", "b", "c"), (("a", "b"),)), "a")


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_search_never_wider_than_bfs(seed):
    rng = np.random.default_rng(seed)
    g = random_connected_digraph(rng)
    bfs = _reference_bfs_search(g)
    found = min_width_order_search(g)
    assert found.width <= bfs.width
    assert found.width >= _width_floor(g)
    assert _narrowest(g, _ranked_candidates(g, g.nodes, (_bfs_rank,))) == bfs
    if bfs.width == _width_floor(g):
        assert found == bfs


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 10**6))
def test_width_floor_is_a_true_lower_bound(seed):
    # the early exit is sound only if no order beats the floor
    g = random_connected_digraph(np.random.default_rng(seed), max_nodes=5)
    assert min_width_order_search(g, "exhaustive").width >= _width_floor(g)
    if len(g.edges) < len(g.nodes):
        assert min_width_order_search(g).width == 1


@pytest.mark.parametrize(
    "corpus", ["tree_corpus", "cactus", "tiny_corpus", "cost_corpus"]
)
def test_search_keeps_bfs_order_at_the_floor(corpus, request):
    if corpus == "cactus":
        graphs = cactus_graph_corpus(100)
    else:
        graphs = [
            _graph(r)
            for inst in request.getfixturevalue(corpus)
            for r in inst.requests
        ]
    at_floor = 0
    for g in graphs:
        bfs = _reference_bfs_search(g)
        if bfs.width == _width_floor(g):
            at_floor += 1
            assert min_width_order_search(g) == bfs
    assert at_floor > 0


def _reference_graphs():
    cases = {f"halfwheel:{n}": generate_half_wheel(n) for n in range(4, 8)}
    for name in ("fig4", "servicechain"):
        cases[name] = _graph(scenario_instance(name).requests[0])
    for base, (base_nodes, base_edges) in VC_BASES.items():
        cases[f"vc-gadget:{base}"] = generate_vc_gadget(base_nodes, base_edges)
    return cases


@pytest.mark.parametrize("name", sorted(_reference_graphs()))
def test_search_matches_exhaustive_on_reference_families(name):
    g = _reference_graphs()[name]
    assert (
        min_width_order_search(g).width
        == min_width_order_search(g, "exhaustive").width
    )


def test_search_finds_width_two_on_half_wheels():
    for n in range(8, 17):
        assert min_width_order_search(generate_half_wheel(n)).width == 2


def test_search_never_grows_the_model(tree_corpus, tiny_corpus, cost_corpus):
    named = [
        "fig3", "fig3-cost-gadget", "fig4", "servicechain", "virtualcluster:4",
        "cactus:9", "tree:7",
        *(f"halfwheel:{n}" for n in range(4, 11)),
        *(f"vc-gadget:{base}" for base in VC_BASES),
    ]
    instances = [scenario_instance(name) for name in named]
    instances += tree_corpus + tiny_corpus + cost_corpus
    smaller = 0
    for inst in instances:
        for req in inst.requests:
            g = _graph(req)
            found = count_novel_variables(
                inst.substrate, [req], [min_width_order_search(g)]
            )
            bfs = count_novel_variables(
                inst.substrate, [req], [_reference_bfs_search(g)]
            )
            assert found <= bfs, f"{inst.name}/{req.name}: {found} > {bfs}"
            smaller += found < bfs
    assert smaller > 0


def test_width3_corpus_keeps_its_width_histogram(width3_corpus):
    widths = collections.Counter(labeled.width for _, labeled in width3_corpus)
    assert widths == {2: 42, 3: 8}
    for instance, labeled in width3_corpus:
        graph = _graph(instance.requests[0])
        assert labeled == _reference_bfs_search(graph)
        assert labeled == reference.per_root_pass(
            graph, graph.nodes, reference.build_extraction_order
        )


def _chorded_cacti(count=320, seed=20246):
    """Random cacti with antiparallel pairs and chords added, so that they
    reach widths and shapes beyond the cactus corpus."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        nodes, edges = random_cactus_graph(rng, int(rng.integers(3, 10)))
        edge_list = list(edges)
        for _ in range(int(rng.integers(0, 3))):
            single = [e for e in edge_list if (e[1], e[0]) not in edge_list]
            if single:
                a, b = single[int(rng.integers(0, len(single)))]
                edge_list.append((b, a))
        for _ in range(int(rng.integers(0, 3))):
            a, b = (str(v) for v in rng.choice(nodes, size=2, replace=False))
            if (a, b) not in edge_list and (b, a) not in edge_list:
                edge_list.append((a, b))
        graphs.append(Digraph.build(nodes, edge_list))
    return graphs


def _search_corpus(family, request):
    if family == "halfwheel":
        return [generate_half_wheel(n) for n in range(2, 13)]
    if family == "vc-gadget":
        return [generate_vc_gadget(*base) for base in VC_BASES.values()]
    if family == "named":
        return [
            _graph(scenario_instance(name).requests[0])
            for name in ("servicechain", "virtualcluster:4", "fig3", "fig4")
        ]
    if family == "chorded-cacti":
        return _chorded_cacti()
    if family == "width3_corpus":
        return [_graph(inst.requests[0]) for inst, _ in request.getfixturevalue(family)]
    return [
        _graph(r) for inst in request.getfixturevalue(family) for r in inst.requests
    ]


def _exhaustive_roots(graph, budget=256):
    """Candidate roots, in node order, whose flag vectors fit the budget."""
    roots, total = [], 0
    for root in graph.nodes:
        vectors = 1 << sum(root not in edge for edge in graph.edges)
        if total + vectors <= budget:
            roots.append(root)
            total += vectors
    return roots


@pytest.mark.parametrize(
    "family",
    ["halfwheel", "vc-gadget", "named", "chorded-cacti", "tree_corpus",
     "tiny_corpus", "cost_corpus", "width3_corpus"],
)
def test_search_matches_the_object_building_reference(family, request):
    graphs = _search_corpus(family, request)
    exhaustive = 0
    for g in graphs:
        assert min_width_order_search(g) == reference.min_width_order_search(g)
        roots = _exhaustive_roots(g)
        if roots:
            exhaustive += 1
            assert min_width_order_search(
                g, "exhaustive", roots
            ) == reference.min_width_order_search(g, "exhaustive", roots)
    assert exhaustive > 0
    if family == "chorded-cacti":
        assert len(graphs) >= 300
        assert {min_width_order_search(g).width for g in graphs} >= {1, 2, 3}


def test_exhaustive_search_matches_the_reference_on_every_root():
    # up to half-wheel 8, where the width floor is reached late
    for g in [generate_half_wheel(n) for n in range(4, 9)] + _chorded_cacti(12, 7):
        assert min_width_order_search(
            g, "exhaustive"
        ) == reference.min_width_order_search(g, "exhaustive")


def _raised(search, *args):
    with pytest.raises((ExtractionError, ValueError)) as info:
        search(*args)
    return type(info.value), str(info.value)


def test_search_errors_match_the_reference():
    path = Digraph.build(("a", "b", "c"), (("a", "b"), ("b", "c")))
    split = Digraph.build(("a", "b", "c"), (("a", "b"),))
    looped = SimpleNamespace(nodes=("a", "b"), edges=(("a", "b"), ("b", "b")))
    cases = [
        (split, "per-root-bfs", None),
        (split, "exhaustive", None),
        (path, "per-root-bfs", ["zz"]),
        (path, "exhaustive", ["zz"]),
        (generate_half_wheel(4), "per-root-bfs", ["w01", "zz"]),
        (path, "per-root-bfs", []),
        (path, "annealing", None),
        (looped, "per-root-bfs", None),
        (looped, "exhaustive", None),
        (generate_half_wheel(12), "exhaustive", None),
    ]
    for graph, strategy, roots in cases:
        assert _raised(min_width_order_search, graph, strategy, roots) == _raised(
            reference.min_width_order_search, graph, strategy, roots
        )
    # a root that is not a node is never reached once the floor is met
    assert min_width_order_search(path, roots=["a", "zz"]).width == 1
    with pytest.raises(ExtractionError, match="self-loop on 'b'"):
        Digraph.build(looped.nodes, looped.edges)


def test_search_labels_at_most_two_orders(monkeypatch, tree_corpus):
    # every search renders exactly one order: the winner
    calls = []
    render = extraction._render

    def counting(order, score):
        calls.append(order.root)
        return render(order, score)

    monkeypatch.setattr(extraction, "_render", counting)
    for inst in tree_corpus:
        for req in inst.requests:
            calls.clear()
            assert min_width_order_search(_graph(req)).width == 1
            assert len(calls) == 1
    for g in [generate_half_wheel(n) for n in range(2, 13)] + _chorded_cacti(100):
        calls.clear()
        found = min_width_order_search(g)
        assert calls == [found.order.root]


def test_exhaustive_search_stops_at_the_width_floor(monkeypatch):
    # half-wheel 8 has 41,088 flag vectors over its roots: 128 at the hub
    # (node 0), then 8,192 at w01 (node 1), whose 8,129th vector is the
    # first of width 2; nothing after it is scored
    scored_roots = []
    label_masks = extraction._label_masks

    def counting(nodes, root, tails, heads):
        scored_roots.append(root)
        return label_masks(nodes, root, tails, heads)

    g = generate_half_wheel(8)
    expected = reference.min_width_order_search(g, "exhaustive")
    monkeypatch.setattr(extraction, "_label_masks", counting)
    assert min_width_order_search(g, "exhaustive") == expected
    assert collections.Counter(scored_roots) == {0: 128, 1: 8129}
    assert expected.width == 2 and expected.order.root == "w01"


def test_exhaustive_limit_counts_only_request_nodes():
    # "nope" is no node; counted, its 2**21 vectors would break the limit
    wheel = generate_half_wheel(11)
    found = min_width_order_search(wheel, "exhaustive", roots=["c", "nope"])
    assert found == min_width_order_search(wheel, "exhaustive", roots=["c"])
    assert found.width == 6
