"""Substrate/request model: validation, mapping checks, allocations, stats."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vnembed import (
    Instance,
    InstanceFormatError,
    Request,
    SubstrateGraph,
    ValidMapping,
    check_valid_mapping,
    collection_feasible,
    compute_allocations,
    compute_bounds,
    dumps_instance,
    instance_from_dict,
    instance_to_dict,
    loads_instance,
    mapping_cost,
    validate_instance,
)
from vnembed.model import edge_resource, node_resource
from vnembed.scenarios import random_request, random_substrate, random_tree_graph


def square_substrate():
    # 4-cycle with a chord, uniform type
    nodes = {u: {"vm": (10.0, float(k + 1))} for k, u in enumerate("abcd")}
    edges = {
        ("a", "b"): (5.0, 1.0),
        ("b", "c"): (5.0, 1.0),
        ("c", "d"): (5.0, 1.0),
        ("d", "a"): (5.0, 1.0),
        ("a", "c"): (5.0, 2.0),
    }
    return SubstrateGraph.build(nodes, edges)


def chain_request(substrate):
    allowed = tuple(substrate.nodes)
    return Request.build(
        "chain",
        {"x": ("vm", 2.0, allowed), "y": ("vm", 3.0, allowed)},
        {("x", "y"): (1.0, tuple(substrate.edges))},
        profit=4.0,
    )


def test_validate_clean_instance():
    substrate = square_substrate()
    report = validate_instance(substrate, [chain_request(substrate)])
    assert report.ok
    assert report.issues == []


@pytest.mark.parametrize(
    "mutate, code",
    [
        (lambda s, r: Request.build("q", {}, {}), "empty-request"),
        (
            lambda s, r: Request.build(
                "q", {"x": ("gpu", 1.0, ("a",))}, {}, profit=1.0
            ),
            "unknown-type",
        ),
        (
            lambda s, r: Request.build("q", {"x": ("vm", 1.0, ())}, {}, profit=1.0),
            "empty-allowed-set",
        ),
        (
            lambda s, r: Request.build(
                "q", {"x": ("vm", 20.0, ("a",))}, {}, profit=1.0
            ),
            "capacity-filter",
        ),
        # a repeated entry would be one more LP column for the same host
        (
            lambda s, r: Request.build(
                "q", {"x": ("vm", 1.0, ("a", "b", "a"))}, {}, profit=1.0
            ),
            "duplicate-allowed",
        ),
        (
            lambda s, r: Request.build(
                "q",
                {"x": ("vm", 1.0, ("a",)), "y": ("vm", 1.0, ("b",))},
                {("x", "y"): (1.0, (("a", "b"), ("a", "b")))},
                profit=1.0,
            ),
            "duplicate-allowed",
        ),
        (
            lambda s, r: Request.build(
                "q",
                {"x": ("vm", 1.0, ("a",)), "y": ("vm", 1.0, ("b",))},
                {("x", "y"): (1.0, (("d", "a"),))},
                profit=1.0,
            ),
            None,
        ),
    ],
)
def test_validation_codes(mutate, code):
    substrate = square_substrate()
    req = mutate(substrate, None)
    report = validate_instance(substrate, [req])
    if code is None:
        # the (d, a) edge exists; validation does not demand routability
        assert report.ok
    else:
        assert not report.ok
        assert code in {issue.code for issue in report.issues}


def test_validation_flags_unknown_substrate_edge():
    substrate = square_substrate()
    req = Request.build(
        "q",
        {"x": ("vm", 1.0, ("a",)), "y": ("vm", 1.0, ("b",))},
        {("x", "y"): (1.0, (("b", "a"),))},
        profit=1.0,
    )
    report = validate_instance(substrate, [req])
    assert "unknown-edge" in {issue.code for issue in report.issues}


def test_duplicate_request_names_rejected():
    substrate = square_substrate()
    req = chain_request(substrate)
    report = validate_instance(substrate, [req, req])
    assert "duplicate-request" in {issue.code for issue in report.issues}


def test_check_valid_mapping_accepts_direct_route():
    substrate = square_substrate()
    req = chain_request(substrate)
    mapping = ValidMapping(
        node_map={"x": "a", "y": "b"}, edge_map={("x", "y"): (("a", "b"),)}
    )
    ok, why = check_valid_mapping(substrate, req, mapping)
    assert ok, why


def test_check_valid_mapping_endpoint_mismatch():
    substrate = square_substrate()
    req = chain_request(substrate)
    mapping = ValidMapping(
        node_map={"x": "a", "y": "c"}, edge_map={("x", "y"): (("a", "b"),)}
    )
    ok, why = check_valid_mapping(substrate, req, mapping)
    assert not ok
    assert "ends at" in why


def test_check_valid_mapping_colocation_needs_empty_path():
    substrate = square_substrate()
    req = chain_request(substrate)
    same_host = ValidMapping(
        node_map={"x": "a", "y": "a"}, edge_map={("x", "y"): ()}
    )
    ok, _ = check_valid_mapping(substrate, req, same_host)
    assert ok
    nonempty = ValidMapping(
        node_map={"x": "a", "y": "a"},
        edge_map={("x", "y"): (("a", "b"), ("b", "c"), ("c", "d"), ("d", "a"))},
    )
    ok, why = check_valid_mapping(substrate, req, nonempty)
    assert not ok and "empty path" in why


def test_check_valid_mapping_rejects_revisits_and_gaps():
    substrate = square_substrate()
    req = chain_request(substrate)
    gap = ValidMapping(
        node_map={"x": "a", "y": "d"}, edge_map={("x", "y"): (("b", "c"), ("c", "d"))}
    )
    ok, why = check_valid_mapping(substrate, req, gap)
    assert not ok and "contiguous" in why


def test_allocations_and_cost():
    substrate = square_substrate()
    req = chain_request(substrate)
    mapping = ValidMapping(
        node_map={"x": "a", "y": "c"},
        edge_map={("x", "y"): (("a", "b"), ("b", "c"))},
    )
    alloc = compute_allocations(substrate, req, mapping)
    assert alloc[node_resource("vm", "a")] == 2.0
    assert alloc[node_resource("vm", "c")] == 3.0
    assert alloc[edge_resource("a", "b")] == 1.0
    assert alloc[edge_resource("b", "c")] == 1.0
    # node costs: a=1, c=3; both hops cost 1
    assert mapping_cost(substrate, req, mapping) == pytest.approx(
        2.0 * 1.0 + 3.0 * 3.0 + 1.0 + 1.0
    )


def test_collection_feasible_reports_utilization():
    substrate = square_substrate()
    req = chain_request(substrate)
    mapping = ValidMapping(
        node_map={"x": "a", "y": "b"}, edge_map={("x", "y"): (("a", "b"),)}
    )
    alloc = compute_allocations(substrate, req, mapping)
    ok, utilization = collection_feasible(substrate, [alloc] * 3)
    assert ok
    assert utilization[edge_resource("a", "b")] == pytest.approx(3.0 / 5.0)
    assert utilization[node_resource("vm", "a")] == pytest.approx(6.0 / 10.0)
    assert utilization[edge_resource("c", "d")] == 0.0
    assert list(utilization) == list(substrate.resources)

    # a fourth copy pushes node b to 12/10
    ok, _ = collection_feasible(substrate, [alloc] * 4)
    assert not ok


def test_compute_bounds_extremes():
    substrate = square_substrate()
    req = chain_request(substrate)
    # the largest demand on node a is y's 3.0 of capacity 10
    once = compute_bounds(substrate, [req], "profit")
    assert once.epsilon == pytest.approx(3.0 / 10.0)
    # every node resource gets the same (5/3)^2 contribution from this
    # request: demands 2 + 3 may touch it, the largest single one is 3
    assert once.delta_nodes == pytest.approx((5.0 / 3.0) ** 2)
    assert once.delta_edges == pytest.approx(1.0)
    # a second copy adds its contribution; the largest ratio stays
    twice = compute_bounds(substrate, [req, req], "profit")
    assert twice.epsilon == pytest.approx(3.0 / 10.0)
    assert twice.delta_nodes == pytest.approx(2 * (5.0 / 3.0) ** 2)
    assert twice.delta_edges == pytest.approx(2.0)


def _bounds_loop(substrate, requests) -> tuple[float, float, float]:
    """Maximum demand ratio and node and edge congestion sums as dict loops
    over the allowed hosts and substrate edges computed them."""
    d_max: dict = {}
    a_max: dict = {}
    for k, req in enumerate(requests):
        terms = [
            (node_resource(req.node_type[i], u), req.node_demand[i])
            for i in req.nodes for u in req.allowed_nodes[i]
        ] + [
            (edge_resource(*se), req.edge_demand[e])
            for e in req.edges for se in req.allowed_edges[e]
        ]
        for res, d in terms:
            d_max[(k, res)] = max(d_max.get((k, res), 0.0), d)
            a_max[(k, res)] = a_max.get((k, res), 0.0) + d
    ratio = 0.0
    for (_, res), d in d_max.items():
        ratio = max(ratio, d / substrate.capacity(res))
    sums = []
    for kind in ("node", "edge"):
        per_resource: dict = {}
        for (k, res), d in d_max.items():
            if res[0] == kind and d > 0:
                share = a_max[(k, res)] / d
                per_resource[res] = per_resource.get(res, 0.0) + share * share
        sums.append(max(per_resource.values(), default=0.0))
    return ratio, sums[0], sums[1]


def test_compute_bounds_match_the_dict_loop(tiny_corpus, tree_corpus, cost_corpus):
    rng = np.random.default_rng(3)
    substrate = random_substrate(rng, 12)
    crowd = [
        random_request(rng, substrate, f"r{q}", *random_tree_graph(rng, 5))
        for q in range(6)
    ]
    batches = [
        (instance.substrate, instance.requests)
        for instance in (*tiny_corpus, *tree_corpus, *cost_corpus)
    ] + [(substrate, crowd), (substrate, [])]
    for substrate, requests in batches:
        b = compute_bounds(substrate, requests, "profit")
        ours = (b.epsilon, b.delta_nodes, b.delta_edges)
        # the same floats, not just close ones
        assert ours == _bounds_loop(substrate, requests)
        assert all(type(value) is float for value in ours)


def test_instance_dict_round_trip_and_defaults():
    substrate = square_substrate()
    data = {
        "substrate": {
            "nodes": [
                {"id": u, "types": [{"type": "vm", "capacity": 10.0, "cost": 1.0}]}
                for u in "abcd"
            ],
            "edges": [
                {"tail": t, "head": h, "capacity": c, "cost": w}
                for (t, h), (c, w) in [
                    (("a", "b"), (5.0, 1.0)),
                    (("b", "c"), (5.0, 1.0)),
                ]
            ],
        },
        "requests": [
            {
                "id": "r0",
                "profit": 2.0,
                "nodes": [
                    {"id": "x", "type": "vm", "demand": 1.0},
                    {"id": "y", "type": "vm", "demand": 12.0},
                ],
                "edges": [{"tail": "x", "head": "y", "demand": 1.0}],
            }
        ],
    }
    instance = instance_from_dict(data)
    req = instance.requests[0]
    # omitted allowed sets default to capacity-sufficient candidates
    assert set(req.allowed_nodes["x"]) == {"a", "b", "c", "d"}
    assert req.allowed_nodes["y"] == ()  # demand 12 exceeds every capacity
    assert set(req.allowed_edges[("x", "y")]) == {("a", "b"), ("b", "c")}

    expanded = instance_to_dict(instance)
    assert expanded["requests"][0]["nodes"][0]["allowed_nodes"]
    again = instance_to_dict(instance_from_dict(expanded))
    assert expanded == again


def test_json_round_trip_bytes():
    substrate = square_substrate()
    instance = Instance("demo", substrate, (chain_request(substrate),))
    text = dumps_instance(instance)
    assert text.endswith("\n")
    assert dumps_instance(loads_instance(text)) == text


@pytest.mark.parametrize(
    "breakage, fragment",
    [
        (lambda d: d.pop("substrate"), "missing"),
        (
            lambda d: d["substrate"]["nodes"].append(d["substrate"]["nodes"][0]),
            "duplicate substrate node",
        ),
        (
            lambda d: d["requests"].append(dict(d["requests"][0])),
            "duplicate request id",
        ),
    ],
)
def test_format_errors(breakage, fragment):
    substrate = square_substrate()
    instance = Instance("demo", substrate, (chain_request(substrate),))
    data = instance_to_dict(instance)
    breakage(data)
    with pytest.raises(InstanceFormatError, match=fragment):
        instance_from_dict(data)


def test_loads_rejects_bad_json():
    with pytest.raises(InstanceFormatError, match="not valid JSON"):
        loads_instance("{nope")


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_round_trip_random_instances(seed):
    rng = np.random.default_rng(seed)
    substrate = random_substrate(rng, 5)
    nodes, edges = random_tree_graph(rng, 4)
    request = random_request(rng, substrate, "q0", nodes, edges)
    instance = Instance(f"rt-{seed}", substrate, (request,))
    first = instance_to_dict(instance)
    second = instance_to_dict(instance_from_dict(first))
    assert first == second
    assert validate_instance(substrate, [request]).ok
