"""Peeling LP solutions into convex combinations of valid mappings."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from vnembed import (
    Digraph,
    MappingConflictError,
    Request,
    SubstrateGraph,
    ValidMapping,
    build_extraction_order,
    build_mcf,
    build_novel,
    decompose_novel,
    embed_mapping,
    enumerate_valid_mappings,
    find_connectivity_path,
    flow_labeling,
    label_order,
    max_violation,
    min_width_order_search,
    scenario_instance,
    solve,
    verify_decomposition,
)
from vnembed.decomposition import DecompositionError, DecompositionStuckError
from vnembed.formulations import NovelState, RequestColumns, mapping_columns
from vnembed.scenarios import tiny_corpus, tree_corpus, width3_corpus


class TestConnectivityPath:
    def test_follows_positive_flow(self):
        flows = {("a", "b"): 0.4, ("b", "c"): 0.4}
        path = find_connectivity_path(flows, lambda u: 1.0 if u == "c" else 0.0, "a")
        assert path == [("a", "b"), ("b", "c")]

    def test_empty_path_wins_when_start_is_an_endpoint(self):
        flows = {("a", "b"): 0.4}
        assert find_connectivity_path(flows, lambda u: 1.0, "a") == []

    def test_prefers_fewer_hops(self):
        flows = {("a", "b"): 0.4, ("b", "c"): 0.4, ("a", "c"): 0.1}
        path = find_connectivity_path(
            flows, lambda u: 1.0 if u == "c" else 0.0, "a"
        )
        assert path == [("a", "c")]

    def test_breaks_ties_by_edge_order(self):
        flows = {("a", "c"): 0.4, ("a", "b"): 0.4}
        path = find_connectivity_path(
            flows, lambda u: 1.0 if u in ("b", "c") else 0.0, "a"
        )
        assert path == [("a", "b")]

    def test_target_overrides_other_endpoints(self):
        flows = {("a", "b"): 0.4, ("a", "c"): 0.4}
        path = find_connectivity_path(
            flows, lambda u: 1.0 if u in ("b", "c") else 0.0, "a", target="c"
        )
        assert path == [("a", "c")]

    def test_reverse_direction_walks_against_arrows(self):
        flows = {("u", "v"): 0.7}
        path = find_connectivity_path(
            flows, lambda u: 1.0 if u == "u" else 0.0, "v", direction="reverse"
        )
        assert path == [("u", "v")]

    def test_unknown_direction_raises(self):
        flows = {("a", "b"): 0.4}
        with pytest.raises(ValueError, match="unknown direction 'sideways'"):
            find_connectivity_path(flows, lambda u: 1.0, "a", direction="sideways")

    def test_tiny_flows_are_invisible(self):
        flows = {("a", "b"): 5e-10}
        with pytest.raises(DecompositionError):
            find_connectivity_path(flows, lambda u: 1.0 if u == "b" else 0.0, "a")

    def test_unreachable_target_raises(self):
        flows = {("a", "b"): 0.4}
        with pytest.raises(DecompositionError, match="no positive-flow path"):
            find_connectivity_path(
                flows, lambda u: 0.0, "a", target="z"
            )


def _triangle_fixture():
    hosts = ("v1", "v2", "v3")
    substrate = SubstrateGraph.build(
        {u: {"vm": (2.0, 1.0)} for u in hosts},
        {
            (a, b): (2.0, 1.0)
            for a in hosts
            for b in hosts
            if a != b
        },
    )
    every_edge = tuple(substrate.edges)
    request = Request.build(
        "tri",
        {i: ("vm", 1.0, hosts) for i in ("i", "j", "k")},
        {e: (1.0, every_edge) for e in (("i", "j"), ("j", "k"), ("k", "i"))},
        profit=3.0,
    )
    return substrate, request


_TRIANGLE_M1 = ValidMapping(
    node_map={"i": "v1", "j": "v2", "k": "v3"},
    edge_map={
        ("i", "j"): (("v1", "v2"),),
        ("j", "k"): (("v2", "v3"),),
        ("k", "i"): (("v3", "v1"),),
    },
)


def _embedded_state(substrate, request, mappings, weights):
    """Decomposable-LP state at the weighted sum of the mappings' 0/1 points."""
    graph = Digraph.build(request.nodes, request.edges)
    labeled = label_order(build_extraction_order(graph, "i"))
    _, index = build_novel(substrate, [request], [labeled], "profit")
    values = sum(w * embed_mapping(index, 0, m) for m, w in zip(mappings, weights))
    return labeled, index.request_state(values, 0)


def test_average_of_two_embeddings_splits_back():
    substrate, request = _triangle_fixture()
    m1 = _TRIANGLE_M1
    m2 = ValidMapping(
        node_map={"i": "v2", "j": "v3", "k": "v1"},
        edge_map={
            ("i", "j"): (("v2", "v3"),),
            ("j", "k"): (("v3", "v1"),),
            ("k", "i"): (("v1", "v2"),),
        },
    )
    labeled, state = _embedded_state(substrate, request, [m1, m2], [0.5, 0.5])
    loads = dict(state.a)
    dec = decompose_novel(substrate, request, labeled, state)
    # the average admits several convex combinations; any exact split
    # into valid mappings that the input loads dominate is acceptable
    assert len(dec.entries) == 2
    assert [e.weight for e in dec.entries] == pytest.approx([0.5, 0.5])
    check = verify_decomposition(substrate, request, dec, 1.0, loads)
    assert check.ok


def test_unroutable_pinned_host_raises_conflict():
    # the bag at the root pins k's host; moving the flow of edge (k, i) off
    # that host leaves the edge no route to where k already is
    substrate, request = _triangle_fixture()
    labeled, state = _embedded_state(substrate, request, [_TRIANGLE_M1], [1.0])
    (k,) = [
        k for k, oe in enumerate(labeled.order.edges) if oe.original == ("k", "i")
    ]
    flows = state.columns.sub_z[(k, ("v3",))]
    state.residual[flows[("v3", "v1")]] = 0.0
    state.residual[flows[("v2", "v1")]] = 1.0
    with pytest.raises(MappingConflictError, match="already on"):
        decompose_novel(substrate, request, labeled, state)


def test_stuck_when_root_has_no_host():
    substrate, request = _triangle_fixture()
    solo = Request.build("one", {"i": ("vm", 1.0, ("v1",))}, {}, profit=1.0)
    order = build_extraction_order(Digraph.build(solo.nodes, solo.edges), "i")
    state = NovelState(RequestColumns(x=0, y={("i", "v1"): 1}), [1.0, 0.0], {})
    with pytest.raises(DecompositionStuckError, match="no positive host"):
        decompose_novel(substrate, solo, flow_labeling(order), state)


def _triangle_columns():
    substrate, request = _triangle_fixture()
    labeled, state = _embedded_state(substrate, request, [_TRIANGLE_M1], [1.0])
    return list(mapping_columns(state.columns, labeled, _TRIANGLE_M1))


@pytest.mark.parametrize("position", range(len(_triangle_columns())))
def test_a_column_near_zero_fails_within_one_walk(position, monkeypatch):
    # one covered column of an embedded mapping at 5e-10: acceptance ends
    # extraction at once, every other column fails with a named error, in
    # the walk or, for a column the walk never reads, right after it; each
    # completed walk asks once for its mapping's columns
    substrate, request = _triangle_fixture()
    labeled, state = _embedded_state(substrate, request, [_TRIANGLE_M1], [1.0])
    col = list(mapping_columns(state.columns, labeled, _TRIANGLE_M1))[position]
    state.residual[col] = 5e-10
    walks = []

    def counted(*args):
        walks.append(args)
        return mapping_columns(*args)

    monkeypatch.setattr("vnembed.decomposition.mapping_columns", counted)
    if col == state.columns.x:
        assert decompose_novel(substrate, request, labeled, state).entries == []
        assert walks == []
        return
    with pytest.raises(DecompositionError) as caught:
        decompose_novel(substrate, request, labeled, state)
    assert len(walks) <= 1
    message = str(caught.value)
    assert "no progress" not in message
    if walks:
        assert caught.type is DecompositionStuckError
        assert message.startswith(f"column {col} of the extracted mapping ")
        assert "5e-10" in message


def test_tree_corpus_slice_decomposes():
    for instance in tree_corpus(6):
        model, index = build_mcf(instance.substrate, instance.requests, "profit")
        sol = solve(model)
        for ri, req in enumerate(instance.requests):
            state = index.request_state(sol.values, ri)
            acceptance, loads = state.x, dict(state.a)
            dec = decompose_novel(instance.substrate, req, index.orders[ri], state)
            assert dec.total_weight == pytest.approx(acceptance, abs=1e-6)
            check = verify_decomposition(
                instance.substrate, req, dec, acceptance, loads
            )
            assert check.ok, (instance.name, req.name)


def test_width3_corpus_slice_decomposes():
    for instance, labeled in width3_corpus(6):
        (req,) = instance.requests
        model, index = build_novel(
            instance.substrate, instance.requests, [labeled], "profit"
        )
        sol = solve(model)
        state = index.request_state(sol.values, 0)
        acceptance, loads = state.x, dict(state.a)
        dec = decompose_novel(instance.substrate, req, labeled, state)
        check = verify_decomposition(instance.substrate, req, dec, acceptance, loads)
        assert check.ok, instance.name


def _round_trip_cases(corpus, request):
    """(substrate, request, labeled order) triples of one corpus."""
    if corpus == "tiny":
        return [
            (instance.substrate, req, min_width_order_search(req))
            for instance in request.getfixturevalue("tiny_corpus")
            for req in instance.requests
        ]
    if corpus == "cactus":
        return [
            (instance.substrate, req, min_width_order_search(req))
            for n in (5, 8, 11)
            for instance in [scenario_instance(f"cactus:{n}")]
            for req in instance.requests
        ]
    cases = [
        (instance.substrate, instance.requests[0], labeled)
        for instance, labeled in request.getfixturevalue("width3_corpus")
        if labeled.width == 3
    ]
    if corpus == "width3-reversed":
        # label placements then enumerate against sorted order
        cases = [
            (substrate, dataclasses.replace(req, allowed_nodes={
                i: hosts[::-1] for i, hosts in req.allowed_nodes.items()
            }), labeled)
            for substrate, req, labeled in cases
        ]
    return cases


@pytest.mark.parametrize("corpus", ["tiny", "width3", "width3-reversed", "cactus"])
def test_embedded_mapping_decomposes_back_into_itself(corpus, request):
    # a valid mapping's own 0/1 point is a point of the LP, and it peels
    # into exactly that mapping with weight 1 and leaves nothing behind: the
    # walk finds the mapping, and extraction drains the columns it set
    checked = 0
    for substrate, req, labeled in _round_trip_cases(corpus, request):
        # room for any one mapping, so that only the request's own rows bind
        roomy = dataclasses.replace(
            substrate,
            node_capacity=dict.fromkeys(substrate.node_capacity, 1e9),
            edge_capacity=dict.fromkeys(substrate.edge_capacity, 1e9),
        )
        model, index = build_novel(roomy, [req], [labeled], "profit")
        for mapping in enumerate_valid_mappings(substrate, req, cap=20).mappings:
            values = embed_mapping(index, 0, mapping)
            assert max_violation(model, values) <= 1e-9
            state = index.request_state(values, 0)
            dec = decompose_novel(substrate, req, labeled, state)
            assert [(e.weight, e.mapping) for e in dec.entries] == [(1.0, mapping)]
            assert not any(state.residual)
            checked += 1
    assert checked >= 60


def test_decomposition_leaves_the_solution_untouched():
    # the pipeline decomposes every request from one solution vector
    cases = []
    for instance in tiny_corpus(8):
        orders = [
            min_width_order_search(Digraph.build(r.nodes, r.edges))
            for r in instance.requests
        ]
        cases.append(
            (instance, build_novel(instance.substrate, instance.requests, orders))
        )
    for instance in tree_corpus(6):
        cases.append((instance, build_mcf(instance.substrate, instance.requests)))
    checked = 0
    for instance, (model, index) in cases:
        values = solve(model).values
        before = values.copy()
        for r, req in enumerate(instance.requests):
            state = index.request_state(values, r)
            dec = decompose_novel(instance.substrate, req, index.orders[r], state)
            checked += bool(dec.entries)
        assert np.array_equal(values, before)
    assert checked > 0


def test_verifier_flags_tampering():
    substrate, request = _triangle_fixture()
    m1 = _TRIANGLE_M1
    labeled, state = _embedded_state(substrate, request, [m1], [1.0])
    loads = dict(state.a)
    dec = decompose_novel(substrate, request, labeled, state)

    short = verify_decomposition(substrate, request, dec, 1.5, loads)
    assert short.completeness_error == pytest.approx(0.5)
    assert not short.ok

    squeezed = {res: 0.5 * load for res, load in loads.items()}
    over = verify_decomposition(substrate, request, dec, 1.0, squeezed)
    assert over.worst_overuse > 0.0
    assert not over.ok

    broken = ValidMapping(node_map=dict(m1.node_map), edge_map=dict(m1.edge_map))
    broken.node_map["i"] = "v2"
    from vnembed.decomposition import ConvexDecomposition, DecompositionEntry
    from vnembed.model import _unchecked_allocations

    # compute_allocations rejects the mapping; verification ignores the
    # allocation of an invalid entry
    bad = ConvexDecomposition(
        request_name=request.name,
        entries=[DecompositionEntry(
            weight=1.0, mapping=broken,
            allocation=_unchecked_allocations(request, broken),
        )],
    )
    flagged = verify_decomposition(substrate, request, bad, 1.0, loads)
    assert flagged.invalid
    assert not flagged.ok



def test_verifier_checks_each_entry_once(monkeypatch):
    import vnembed.decomposition as decomposition
    from vnembed.decomposition import DecompositionCheck
    from vnembed.model import compute_allocations

    substrate, request = _triangle_fixture()
    m2 = ValidMapping(
        node_map={"i": "v2", "j": "v3", "k": "v1"},
        edge_map={
            ("i", "j"): (("v2", "v3"),),
            ("j", "k"): (("v3", "v1"),),
            ("k", "i"): (("v1", "v2"),),
        },
    )
    labeled, state = _embedded_state(
        substrate, request, [_TRIANGLE_M1, m2], [0.5, 0.5]
    )
    dec = decompose_novel(substrate, request, labeled, state)
    assert len(dec.entries) == 2
    loads = {res: 0.9 * load for res, load in state.a.items()}
    # the check as computed through the public, validating allocations
    used: dict = {}
    for entry in dec.entries:
        for res, amount in compute_allocations(
            substrate, request, entry.mapping
        ).items():
            used[res] = used.get(res, 0.0) + entry.weight * amount
    expected = DecompositionCheck(
        completeness_error=abs(dec.total_weight - 1.0),
        worst_overuse=max(0.0, *(t - loads.get(r, 0.0) for r, t in used.items())),
        invalid=[],
    )

    calls = []
    original = decomposition.check_valid_mapping

    def counted(*args):
        calls.append(args)
        return original(*args)

    monkeypatch.setattr(decomposition, "check_valid_mapping", counted)
    monkeypatch.setattr("vnembed.model.check_valid_mapping", counted)
    check = verify_decomposition(substrate, request, dec, 1.0, loads)
    assert len(calls) == len(dec.entries)
    assert check == expected
    assert check.worst_overuse > 0.0
