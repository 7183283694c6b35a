"""Named fixtures and seeded random corpora.

``scenario_instance`` resolves fixture names like ``fig3`` or
``halfwheel:8`` into ready instances; the corpus builders below produce
the seeded families used by the regression suite and the experiment
scripts (random trees, cactus shapes, antiparallel augmentations, tiny
oracle-checkable instances, costed instances).
"""

from __future__ import annotations

import zlib
from typing import Callable

import numpy as np

from .extraction import (
    Digraph,
    LabeledExtractionOrder,
    build_extraction_order,
    generate_half_wheel,
    generate_vc_gadget,
    label_order,
)
from .instances import Instance, default_allowed_edges, default_allowed_nodes
from .model import Request, SubstrateGraph
from .oracle import enumerate_valid_mappings

VM = "vm"

# undirected bases for the vertex-cover gadget fixtures; covers verified
# brute force in the suite
VC_BASES: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {
    "path3": (("n1", "n2", "n3"), (("n1", "n2"), ("n2", "n3"))),
    "cycle4": (
        ("n1", "n2", "n3", "n4"),
        (("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n1", "n4")),
    ),
    "cycle5": (
        ("n1", "n2", "n3", "n4", "n5"),
        (("n1", "n2"), ("n2", "n3"), ("n3", "n4"), ("n4", "n5"), ("n1", "n5")),
    ),
    "k4": (
        ("n1", "n2", "n3", "n4"),
        (
            ("n1", "n2"), ("n1", "n3"), ("n1", "n4"),
            ("n2", "n3"), ("n2", "n4"), ("n3", "n4"),
        ),
    ),
    "star4": (
        ("hub", "n1", "n2", "n3", "n4"),
        (("hub", "n1"), ("hub", "n2"), ("hub", "n3"), ("hub", "n4")),
    ),
}


def _generic_substrate(num_nodes: int = 4, capacity: float = 10.0) -> SubstrateGraph:
    """Bidirected ring substrate with ample, uniform capacities."""
    nodes = [f"s{k:02d}" for k in range(num_nodes)]
    node_types = {u: {VM: (capacity, 1.0)} for u in nodes}
    edges = {}
    for k in range(num_nodes):
        a, b = nodes[k], nodes[(k + 1) % num_nodes]
        edges[(a, b)] = (capacity, 1.0)
        edges[(b, a)] = (capacity, 1.0)
    return SubstrateGraph.build(node_types, edges)


def _uniform_request(
    name: str,
    substrate: SubstrateGraph,
    nodes: tuple[str, ...],
    edges: tuple[tuple[str, str], ...],
    demand: float = 1.0,
    profit: float = 1.0,
) -> Request:
    node_specs = {
        i: (VM, demand, default_allowed_nodes(substrate, VM, demand))
        for i in nodes
    }
    edge_specs = {
        e: (demand, default_allowed_edges(substrate, demand)) for e in edges
    }
    return Request.build(name, node_specs, edge_specs, profit=profit)


def _fig3(with_cost_gadget: bool) -> Instance:
    cycle = ["u1", "u2", "u3", "u4", "u5", "u6"]
    node_types = {u: {VM: (1.0, 1.0)} for u in cycle}
    edges = {
        (cycle[k], cycle[(k + 1) % 6]): (1.0, 1.0) for k in range(6)
    }
    if with_cost_gadget:
        edges[("u3", "u1")] = (1.0, 100.0)
    substrate = SubstrateGraph.build(node_types, edges)
    ki_allowed = [("u3", "u4"), ("u6", "u1")]
    if with_cost_gadget:
        ki_allowed.append(("u3", "u1"))
    request = Request.build(
        "triangle",
        {
            "i": (VM, 1.0, ("u1", "u4")),
            "j": (VM, 1.0, ("u2", "u5")),
            "k": (VM, 1.0, ("u3", "u6")),
        },
        {
            ("i", "j"): (1.0, (("u1", "u2"), ("u4", "u5"))),
            ("j", "k"): (1.0, (("u2", "u3"), ("u5", "u6"))),
            ("k", "i"): (1.0, tuple(ki_allowed)),
        },
        profit=1.0,
    )
    name = "fig3-cost-gadget" if with_cost_gadget else "fig3"
    return Instance(name=name, substrate=substrate, requests=(request,))


FIG4_EDGES: tuple[tuple[str, str], ...] = (
    ("a", "b"), ("a", "e"), ("b", "d"), ("b", "i"), ("c", "j"),
    ("d", "l"), ("e", "i"), ("f", "g"), ("f", "j"), ("f", "k"),
    ("f", "l"), ("g", "k"), ("i", "c"), ("i", "f"),
)


def _fig4() -> Instance:
    nodes = tuple(sorted({n for e in FIG4_EDGES for n in e}))
    substrate = _generic_substrate(3, capacity=50.0)
    request = _uniform_request("braid", substrate, nodes, FIG4_EDGES)
    return Instance(name="fig4", substrate=substrate, requests=(request,))


def _half_wheel_instance(n: int) -> Instance:
    graph = generate_half_wheel(n)
    substrate = _generic_substrate(4, capacity=float(4 * n))
    request = _uniform_request(
        f"halfwheel{n}", substrate, tuple(graph.nodes), tuple(graph.edges)
    )
    return Instance(name=f"halfwheel:{n}", substrate=substrate, requests=(request,))


def _vc_gadget_instance(base_name: str) -> Instance:
    try:
        base_nodes, base_edges = VC_BASES[base_name]
    except KeyError:
        raise ValueError(
            f"unknown vc-gadget base {base_name!r}; "
            f"known: {', '.join(sorted(VC_BASES))}"
        ) from None
    graph = generate_vc_gadget(base_nodes, base_edges)
    substrate = _generic_substrate(4, capacity=40.0)
    request = _uniform_request(
        f"vc-{base_name}", substrate, tuple(graph.nodes), tuple(graph.edges)
    )
    return Instance(
        name=f"vc-gadget:{base_name}", substrate=substrate, requests=(request,)
    )


# Forward chain with a cache detour, plus the reverse link of every hop for
# the return traffic. The forward part alone is a cactus; the duplex links
# push the minimal extraction width to 3.
SERVICE_CHAIN_EDGES: tuple[tuple[str, str], ...] = (
    ("FW", "LB1"),
    ("LB1", "cache"),
    ("cache", "LB2"),
    ("LB1", "LB2"),
    ("LB2", "NAT"),
    ("LB1", "FW"),
    ("cache", "LB1"),
    ("LB2", "cache"),
    ("LB2", "LB1"),
    ("NAT", "LB2"),
)


def _service_chain() -> Instance:
    nodes = ("FW", "LB1", "LB2", "NAT", "cache")
    substrate = _generic_substrate(5, capacity=20.0)
    request = _uniform_request("servicechain", substrate, nodes, SERVICE_CHAIN_EDGES)
    return Instance(name="servicechain", substrate=substrate, requests=(request,))


def _virtual_cluster(n: int) -> Instance:
    if n < 1:
        raise ValueError("virtual cluster needs at least one VM")
    vms = tuple(f"vm{k:02d}" for k in range(1, n + 1))
    edges = tuple(("sw", v) for v in vms) + tuple((v, "sw") for v in vms)
    substrate = _generic_substrate(4, capacity=float(4 * n))
    request = _uniform_request(
        f"cluster{n}", substrate, vms + ("sw",), edges
    )
    return Instance(name=f"virtualcluster:{n}", substrate=substrate, requests=(request,))


def _seeded_graph_instance(kind: str, n: int) -> Instance:
    # the name alone must determine the instance, so derive the seed from it
    tag = zlib.crc32(f"{kind}:{n}".encode())
    rng = np.random.default_rng(tag)
    substrate = _generic_substrate(max(4, min(n, 8)), capacity=float(4 * n))
    if kind == "tree":
        nodes, edges = random_tree_graph(rng, n)
    else:
        nodes, edges = random_cactus_graph(rng, n)
    request = _uniform_request(f"{kind}{n}", substrate, nodes, edges)
    return Instance(name=f"{kind}:{n}", substrate=substrate, requests=(request,))


# Every fixture under its listed name: ``<n>`` takes a positive integer,
# ``<base>`` a key of ``VC_BASES``, a name without ``:`` no argument.
_FIXTURES: dict[str, Callable[..., Instance]] = {
    "fig3": lambda: _fig3(False),
    "fig3-cost-gadget": lambda: _fig3(True),
    "fig4": _fig4,
    "halfwheel:<n>": _half_wheel_instance,
    "vc-gadget:<base>": _vc_gadget_instance,
    "cactus:<n>": lambda n: _seeded_graph_instance("cactus", n),
    "tree:<n>": lambda n: _seeded_graph_instance("tree", n),
    "servicechain": _service_chain,
    "virtualcluster:<n>": _virtual_cluster,
}
SCENARIO_NAMES = tuple(_FIXTURES)


def scenario_instance(name: str) -> Instance:
    """Resolve a fixture name, e.g. ``fig3`` or ``halfwheel:8``."""
    base, _, arg = name.partition(":")
    for listed, build in _FIXTURES.items():
        if listed == name:
            return build()
        if listed == f"{base}:<n>":
            return build(_positive_int(arg, name))
        if listed == f"{base}:<base>" and arg:
            return build(arg)
    raise ValueError(f"unknown scenario {name!r}")


def _positive_int(arg: str, name: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        raise ValueError(f"scenario {name!r} needs an integer argument") from None
    if value < 1:
        raise ValueError(f"scenario {name!r} needs a positive argument")
    return value


def random_tree_graph(
    rng: np.random.Generator, num_nodes: int
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Random tree with random edge directions."""
    nodes = tuple(f"v{k:02d}" for k in range(num_nodes))
    edges = []
    for k in range(1, num_nodes):
        parent = int(rng.integers(0, k))
        if rng.random() < 0.5:
            edges.append((nodes[parent], nodes[k]))
        else:
            edges.append((nodes[k], nodes[parent]))
    return nodes, tuple(edges)


def random_cactus_graph(
    rng: np.random.Generator, num_nodes: int, cycle_attempts: int = 6
) -> tuple[tuple[str, ...], tuple[tuple[str, str], ...]]:
    """Random cactus: a tree plus chords whose tree paths stay edge-disjoint.

    Marking every chord's tree path as used keeps any two cycles from
    sharing more than one node, which is exactly the cactus property.
    """
    nodes = tuple(f"v{k:02d}" for k in range(num_nodes))
    parent = [0] * num_nodes
    tree_adj: dict[int, list[tuple[int, int]]] = {k: [] for k in range(num_nodes)}
    undirected: list[tuple[int, int]] = []
    for k in range(1, num_nodes):
        p = int(rng.integers(0, k))
        parent[k] = p
        eid = len(undirected)
        undirected.append((p, k))
        tree_adj[p].append((k, eid))
        tree_adj[k].append((p, eid))
    used = [False] * len(undirected)
    chords: list[tuple[int, int]] = []
    for _ in range(cycle_attempts):
        a, b = (int(v) for v in rng.integers(0, num_nodes, size=2))
        if a == b:
            continue
        path = _tree_path(tree_adj, num_nodes, a, b)
        if path is None or len(path) < 2:
            continue
        if any(used[eid] for eid in path):
            continue
        if (a, b) in chords or (b, a) in chords:
            continue
        for eid in path:
            used[eid] = True
        chords.append((a, b))
    directed = []
    for (p, k) in undirected + chords:
        if rng.random() < 0.5:
            directed.append((nodes[p], nodes[k]))
        else:
            directed.append((nodes[k], nodes[p]))
    return nodes, tuple(sorted(directed))


def _tree_path(
    tree_adj: dict[int, list[tuple[int, int]]], n: int, a: int, b: int
) -> list[int] | None:
    """Edge ids on the unique tree path from a to b (BFS; tree is small)."""
    prev: dict[int, tuple[int, int]] = {}
    queue = [a]
    seen = {a}
    while queue:
        at = queue.pop(0)
        if at == b:
            break
        for nxt, eid in tree_adj[at]:
            if nxt not in seen:
                seen.add(nxt)
                prev[nxt] = (at, eid)
                queue.append(nxt)
    if b not in seen:
        return None
    path = []
    node = b
    while node != a:
        node, eid = prev[node]
        path.append(eid)
    return path


def random_substrate(
    rng: np.random.Generator,
    num_nodes: int,
    extra_edges: int = 2,
    types: tuple[str, ...] = (VM,),
    capacity_range: tuple[float, float] = (2.0, 4.0),
    cost_range: tuple[float, float] = (1.0, 3.0),
) -> SubstrateGraph:
    """Connected bidirected substrate: random tree plus a few extra links."""
    nodes = [f"s{k:02d}" for k in range(num_nodes)]
    pairs = set()
    for k in range(1, num_nodes):
        pairs.add((int(rng.integers(0, k)), k))
    attempts = 0
    while len(pairs) < num_nodes - 1 + extra_edges and attempts < 20 * extra_edges:
        attempts += 1
        a, b = (int(v) for v in rng.integers(0, num_nodes, size=2))
        if a == b:
            continue
        if (a, b) in pairs or (b, a) in pairs:
            continue
        pairs.add((min(a, b), max(a, b)))
    node_types = {
        u: {
            t: (
                float(rng.uniform(*capacity_range)),
                float(rng.uniform(*cost_range)),
            )
            for t in types
        }
        for u in nodes
    }
    edges = {}
    for (a, b) in sorted(pairs):
        for e in ((nodes[a], nodes[b]), (nodes[b], nodes[a])):
            edges[e] = (
                float(rng.uniform(*capacity_range)),
                float(rng.uniform(*cost_range)),
            )
    return SubstrateGraph.build(node_types, edges)


def random_request(
    rng: np.random.Generator,
    substrate: SubstrateGraph,
    name: str,
    nodes: tuple[str, ...],
    edges: tuple[tuple[str, str], ...],
    demand_range: tuple[float, float] = (0.2, 1.0),
    restrict_probability: float = 0.5,
    min_allowed: int = 2,
    max_allowed: int | None = None,
) -> Request:
    """Attach random demands, types, profits and (sometimes) restrictions."""
    node_specs = {}
    for i in nodes:
        t = substrate.types[int(rng.integers(0, len(substrate.types)))]
        demand = float(rng.uniform(*demand_range))
        allowed = default_allowed_nodes(substrate, t, demand)
        cap = len(allowed) if max_allowed is None else min(max_allowed, len(allowed))
        if cap >= min_allowed and (
            cap < len(allowed) or rng.random() < restrict_probability
        ):
            size = int(rng.integers(min_allowed, cap + 1))
            picked = rng.choice(len(allowed), size=size, replace=False)
            allowed = tuple(allowed[k] for k in sorted(picked))
        node_specs[i] = (t, demand, allowed)
    edge_specs = {}
    for e in edges:
        demand = float(rng.uniform(*demand_range))
        edge_specs[e] = (demand, default_allowed_edges(substrate, demand))
    profit = float(rng.uniform(1.0, 5.0))
    return Request.build(name, node_specs, edge_specs, profit=profit)


def tree_corpus(count: int = 50, seed: int = 20240) -> list[Instance]:
    """Tree-request instances for flow decomposition checks.

    ``count`` is the total number of requests; instances hold two each so
    capacity contention makes many LP solutions properly fractional.
    """
    rng = np.random.default_rng(seed)
    out = []
    pending = count
    while pending > 0:
        substrate = random_substrate(
            rng, int(rng.integers(4, 11)), extra_edges=int(rng.integers(1, 4)),
            capacity_range=(1.2, 2.0),
        )
        per_instance = min(2, pending)
        requests = []
        for q in range(per_instance):
            nodes, edges = random_tree_graph(rng, int(rng.integers(2, 9)))
            requests.append(
                random_request(
                    rng, substrate, f"t{q}", nodes, edges,
                    demand_range=(0.4, 1.0),
                )
            )
        pending -= per_instance
        out.append(
            Instance(name=f"tree-corpus-{len(out):03d}", substrate=substrate,
                     requests=tuple(requests))
        )
    return out


def width3_corpus(
    count: int = 50, seed: int = 20241
) -> list[tuple[Instance, LabeledExtractionOrder]]:
    """Cactus requests with antiparallel augmentations, width at most 3."""
    rng = np.random.default_rng(seed)
    out: list[tuple[Instance, LabeledExtractionOrder]] = []
    k = 0
    while len(out) < count:
        k += 1
        num_sub = int(rng.integers(5, 9))
        substrate = random_substrate(
            rng, num_sub, extra_edges=int(rng.integers(1, 3)),
            capacity_range=(1.2, 2.2),
        )
        nodes, edges = random_cactus_graph(rng, int(rng.integers(5, 9)))
        edge_list = list(edges)
        # antiparallel duplicates push the width from 2 towards 3
        for _ in range(int(rng.integers(1, 4))):
            cand = [e for e in edge_list if (e[1], e[0]) not in edge_list]
            if not cand:
                break
            pick = cand[int(rng.integers(0, len(cand)))]
            edge_list.append((pick[1], pick[0]))
        graph = Digraph.build(nodes, edge_list)
        # the first narrowest BFS order: the search's degree-ordered
        # candidates would take some of these requests to width 2 and thin
        # out the width-3 coverage
        labeled = min(
            (label_order(build_extraction_order(graph, root)) for root in graph.nodes),
            key=lambda candidate: candidate.width,
        )
        if labeled.width > 3:
            continue
        # placement restrictions keep the per-edge copy count small
        request = random_request(
            rng, substrate, f"w{len(out):03d}", tuple(graph.nodes),
            tuple(graph.edges), restrict_probability=1.0,
            max_allowed=max(2, (3 * num_sub) // 5),
        )
        out.append(
            (
                Instance(name=f"width3-corpus-{len(out):03d}",
                         substrate=substrate, requests=(request,)),
                labeled,
            )
        )
    return out


_TINY_SHAPES: tuple[tuple[tuple[str, str], ...], ...] = (
    (("q0", "q1"),),
    (("q0", "q1"), ("q1", "q2")),
    (("q0", "q1"), ("q1", "q2"), ("q2", "q0")),
    (("q0", "q1"), ("q0", "q2"), ("q1", "q3"), ("q2", "q3")),
    (("q0", "q1"), ("q1", "q0")),
    (("q0", "q1"), ("q0", "q2")),
)


def tiny_corpus(count: int = 20, seed: int = 20242) -> list[Instance]:
    """Tiny instances the enumerative oracle can certify exactly.

    Requests have at most four nodes, substrates at most six; every
    request keeps at least one valid mapping and capacities are ample, so
    profit and cost relaxations are both meaningful.
    """
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 40:
        attempts += 1
        substrate = random_substrate(
            rng,
            int(rng.integers(4, 7)),
            extra_edges=int(rng.integers(1, 3)),
            types=(VM,) if rng.random() < 0.7 else (VM, "fw"),
            capacity_range=(6.0, 9.0),
        )
        num_requests = int(rng.integers(1, 3))
        requests = []
        for q in range(num_requests):
            shape = _TINY_SHAPES[int(rng.integers(0, len(_TINY_SHAPES)))]
            nodes = tuple(sorted({n for e in shape for n in e}))
            req = random_request(
                rng, substrate, f"q{q}", nodes, shape,
                demand_range=(0.2, 0.8), restrict_probability=0.6,
                min_allowed=2,
            )
            requests.append(req)
        if any(
            not enumerate_valid_mappings(substrate, req, cap=1).mappings
            for req in requests
        ):
            continue
        out.append(
            Instance(
                name=f"tiny-corpus-{len(out):03d}", substrate=substrate,
                requests=tuple(requests),
            )
        )
    if len(out) < count:
        raise RuntimeError("tiny corpus generation exhausted its attempts")
    return out


def cost_corpus(count: int = 20, seed: int = 20243) -> list[Instance]:
    """Feasible costed instances for the cost-variant pipeline."""
    rng = np.random.default_rng(seed)
    out = []
    attempts = 0
    while len(out) < count and attempts < count * 40:
        attempts += 1
        substrate = random_substrate(
            rng, int(rng.integers(5, 8)), extra_edges=int(rng.integers(1, 4)),
            capacity_range=(8.0, 12.0), cost_range=(1.0, 4.0),
        )
        num_requests = int(rng.integers(1, 3))
        requests = []
        for q in range(num_requests):
            if rng.random() < 0.5:
                nodes, edges = random_tree_graph(rng, int(rng.integers(2, 6)))
            else:
                nodes, edges = random_cactus_graph(rng, int(rng.integers(3, 6)))
            req = random_request(
                rng, substrate, f"q{q}", nodes, edges,
                demand_range=(0.2, 0.9), restrict_probability=0.4,
                min_allowed=2,
            )
            requests.append(req)
        if any(
            not enumerate_valid_mappings(substrate, req, cap=1).mappings
            for req in requests
        ):
            continue
        out.append(
            Instance(
                name=f"cost-corpus-{len(out):03d}", substrate=substrate,
                requests=tuple(requests),
            )
        )
    if len(out) < count:
        raise RuntimeError("cost corpus generation exhausted its attempts")
    return out


def cactus_graph_corpus(count: int = 100, seed: int = 20244) -> list[Digraph]:
    """Standalone cactus graphs for width surveys."""
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(count):
        nodes, edges = random_cactus_graph(
            rng, int(rng.integers(3, 11)), cycle_attempts=int(rng.integers(2, 8))
        )
        graphs.append(Digraph.build(nodes, edges))
    return graphs


def monte_carlo_instance(seed: int = 7) -> Instance:
    """Three tree requests competing for a moderately sized substrate.

    Capacities are tight enough that the profit LP splits acceptance
    fractionally, which gives the rounding statistics something to do.
    """
    rng = np.random.default_rng(seed)
    substrate = random_substrate(
        rng, 6, extra_edges=2, capacity_range=(1.5, 2.5),
    )
    requests = []
    for q in range(3):
        nodes, edges = random_tree_graph(rng, int(rng.integers(3, 6)))
        req = random_request(
            rng, substrate, f"q{q}", nodes, edges,
            demand_range=(0.4, 1.0), restrict_probability=0.3,
        )
        requests.append(req)
    return Instance(
        name="monte-carlo", substrate=substrate, requests=tuple(requests)
    )
