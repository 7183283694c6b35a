"""Brute-force enumeration and the exact reference solver."""

from __future__ import annotations

import itertools

import numpy as np
import pytest

import vnembed.oracle
from vnembed import (
    Request,
    SubstrateGraph,
    TruncatedEnumerationError,
    compute_allocations,
    enumerate_valid_mappings,
    mapping_cost,
    solve_enumerative,
)
from vnembed.scenarios import _mappable_corpus


def _k3_substrate():
    hosts = ("v1", "v2", "v3")
    return SubstrateGraph.build(
        {u: {"vm": (5.0, 1.0)} for u in hosts},
        {(a, b): (5.0, 1.0) for a in hosts for b in hosts if a != b},
    )


def test_restricted_triangle_admits_no_mapping(fig3):
    enum = enumerate_valid_mappings(fig3.substrate, fig3.requests[0])
    assert enum.mappings == []
    assert not enum.truncated


def test_corpus_loop_draws_nothing_for_an_empty_corpus():
    def draw():
        raise AssertionError("draw called for count=0")

    assert _mappable_corpus("empty", 0, draw) == []


def test_corpus_loop_gives_up_after_forty_draws_per_instance(fig3):
    # fig3's restricted triangle has no valid mapping, so no draw is kept
    calls = []

    def draw():
        calls.append(None)
        return fig3.substrate, fig3.requests

    with pytest.raises(
        RuntimeError, match=r"^unmappable corpus generation exhausted its attempts$"
    ):
        _mappable_corpus("unmappable", 3, draw)
    assert len(calls) == 40 * 3


def test_cost_gadget_has_exactly_one_mapping(fig3_gadget):
    enum = enumerate_valid_mappings(fig3_gadget.substrate, fig3_gadget.requests[0])
    assert len(enum.mappings) == 1
    only = enum.mappings[0]
    assert only.node_map == {"i": "u1", "j": "u2", "k": "u3"}
    assert only.edge_map[("k", "i")] == (("u3", "u1"),)
    assert mapping_cost(
        fig3_gadget.substrate, fig3_gadget.requests[0], only
    ) == pytest.approx(105.0)


def test_invalid_enumerated_mapping_raises(fig3_gadget, monkeypatch):
    monkeypatch.setattr(
        vnembed.oracle, "check_valid_mapping", lambda *args: (False, "rigged")
    )
    with pytest.raises(RuntimeError, match="enumerated mapping invalid: rigged"):
        enumerate_valid_mappings(fig3_gadget.substrate, fig3_gadget.requests[0])


def test_unrestricted_chain_count_is_exhaustive():
    substrate = _k3_substrate()
    hosts = ("v1", "v2", "v3")
    req = Request.build(
        "chain",
        {"x": ("vm", 1.0, hosts), "y": ("vm", 1.0, hosts)},
        {("x", "y"): (1.0, tuple(substrate.edges))},
        profit=1.0,
    )
    enum = enumerate_valid_mappings(substrate, req)
    # 3 co-located placements (empty path) + 6 ordered pairs * 2 simple
    # paths each (direct hop or through the third node)
    assert len(enum.mappings) == 15
    assert not enum.truncated


def test_cap_truncates_and_flags():
    substrate = _k3_substrate()
    req = Request.build(
        "solo", {"x": ("vm", 1.0, ("v1", "v2", "v3"))}, {}, profit=1.0
    )
    full = enumerate_valid_mappings(substrate, req)
    assert [m.node_map["x"] for m in full.mappings] == ["v1", "v2", "v3"]
    cut = enumerate_valid_mappings(substrate, req, cap=1)
    assert cut.truncated
    assert len(cut.mappings) == 1
    # a cap equal to the count enumerates everything: nothing is cut off
    exact = enumerate_valid_mappings(substrate, req, cap=3)
    assert not exact.truncated
    assert exact.mappings == full.mappings
    for cap in (0, -1):
        with pytest.raises(ValueError, match="cap must be at least 1"):
            enumerate_valid_mappings(substrate, req, cap=cap)


@pytest.mark.parametrize("relaxation", ["lp", "ip"])
def test_truncated_enumeration_is_refused_before_solving(monkeypatch, relaxation):
    calls = []
    monkeypatch.setattr(
        vnembed.oracle, "_unchecked_allocations", lambda *a: calls.append(a)
    )
    monkeypatch.setattr(vnembed.oracle, "solve", lambda *a: calls.append(a))
    hosts = ("v1", "v2", "v3")
    requests = [
        Request.build(name, {"x": ("vm", 1.0, allowed)}, {}, profit=1.0)
        for name, allowed in (("wide", hosts), ("pinned", ("v2",)), ("also", hosts))
    ]
    with pytest.raises(TruncatedEnumerationError) as err:
        solve_enumerative(_k3_substrate(), requests, "profit", relaxation, cap=1)
    # only the requests with a mapping beyond the cap are named
    assert str(err.value) == "enumeration truncated at cap=1 for: wide, also"
    assert calls == []


def test_exact_profit_is_zero_without_mappings(fig3):
    sol = solve_enumerative(fig3.substrate, fig3.requests, "profit", "lp")
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.0, abs=1e-9)
    assert sol.assignment == [[]]


def test_gadget_cost_lp_and_ip_agree(fig3_gadget):
    lp = solve_enumerative(fig3_gadget.substrate, fig3_gadget.requests, "cost", "lp")
    ip = solve_enumerative(fig3_gadget.substrate, fig3_gadget.requests, "cost", "ip")
    assert lp.status == ip.status == "optimal"
    assert lp.objective_value == pytest.approx(105.0)
    assert ip.objective_value == pytest.approx(105.0)
    assert ip.assignment == [[(1.0, 0)]]


def _shared_host_instance():
    substrate = SubstrateGraph.build({"a": {"vm": (1.0, 1.0)}}, {})
    cheap = Request.build("low", {"x": ("vm", 0.6, ("a",))}, {}, profit=2.0)
    dear = Request.build("high", {"x": ("vm", 0.6, ("a",))}, {}, profit=3.0)
    return substrate, [cheap, dear]


def test_integral_profit_never_beats_the_relaxation():
    substrate, requests = _shared_host_instance()
    lp = solve_enumerative(substrate, requests, "profit", "lp")
    ip = solve_enumerative(substrate, requests, "profit", "ip")
    # fractional: all of the 3-profit request plus 2/3 of the other;
    # integral: only one at a time
    assert lp.objective_value == pytest.approx(13.0 / 3.0)
    assert ip.objective_value == pytest.approx(3.0)
    assert ip.objective_value <= lp.objective_value + 1e-9
    picked = [pairs for pairs in ip.assignment if pairs]
    assert picked == [[(1.0, 0)]]


def test_cost_variant_infeasible_when_requests_cannot_coexist():
    substrate, requests = _shared_host_instance()
    for relaxation in ("lp", "ip"):
        sol = solve_enumerative(substrate, requests, "cost", relaxation)
        assert sol.status == "infeasible"
        assert sol.objective_value is None


def _option_tables(instance, objective):
    """Per request, the loads (one row per option, one column per resource)
    and values of its options: its mappings, plus nothing under profit."""
    substrate = instance.substrate
    tables = []
    for req in instance.requests:
        mappings = enumerate_valid_mappings(substrate, req).mappings
        # under profit, a last all-zero row embeds nothing
        loads = np.zeros(
            (len(mappings) + (objective == "profit"), len(substrate.resources))
        )
        values = np.zeros(len(loads))
        for k, m in enumerate(mappings):
            loads[k] = compute_allocations(substrate, req, m)
            values[k] = (
                req.profit if objective == "profit"
                else mapping_cost(substrate, req, m)
            )
        tables.append((loads, values))
    return tables


def _brute_force_best(tables, capacities, objective):
    """Best selection over the product of every request's options whose
    loads fit ``capacities`` (1e-9 slack); None if none fits.

    Loops over the product of all requests but the last and checks the
    last request's options against each partial selection at once.
    """
    limit = np.asarray(capacities) + 1e-9
    pick = max if objective == "profit" else min
    *head, (last_loads, last_values) = tables
    best = None
    for selection in itertools.product(*(zip(*table) for table in head)):
        load = sum((row for row, _ in selection), np.zeros(len(limit)))
        fits = np.all(load + last_loads <= limit, axis=1)
        if fits.any():
            value = sum(v for _, v in selection) + pick(last_values[fits])
            best = value if best is None else pick(best, value)
    return best


@pytest.mark.parametrize("objective", ["profit", "cost"])
def test_integral_search_matches_brute_force(tiny_corpus, with_capacity, objective):
    # the corpus as drawn fits every selection; with demands in [0.2, 0.8],
    # capacities of 1 and 0.7 make requests contend, so the search prunes,
    # skips requests and, for cost, may find no selection at all
    infeasible = 0
    for instance in tiny_corpus:
        tables = _option_tables(instance, objective)
        for variant in (
            instance, with_capacity(instance, 1.0), with_capacity(instance, 0.7)
        ):
            sol = solve_enumerative(
                variant.substrate, variant.requests, objective, "ip"
            )
            best = _brute_force_best(tables, variant.substrate.capacities, objective)
            if best is None:
                assert sol.status == "infeasible", variant.name
                infeasible += 1
                continue
            assert sol.status == "optimal", variant.name
            assert sol.objective_value == pytest.approx(best, rel=0, abs=1e-9)
    assert (infeasible > 0) == (objective == "cost")


def test_unknown_modes_rejected(fig3):
    with pytest.raises(ValueError, match="unknown objective"):
        solve_enumerative(fig3.substrate, fig3.requests, "latency", "lp")
    with pytest.raises(ValueError, match="unknown relaxation"):
        solve_enumerative(fig3.substrate, fig3.requests, "profit", "sdp")


def test_exact_matches_decomposable_relaxation_on_tiny_instances(tiny_corpus):
    from vnembed import Digraph, build_novel, min_width_order_search, solve

    for instance in tiny_corpus[:4]:
        exact = solve_enumerative(instance.substrate, instance.requests, "profit", "lp")
        orders = [
            min_width_order_search(Digraph.build(r.nodes, r.edges))
            for r in instance.requests
        ]
        model, _ = build_novel(instance.substrate, instance.requests, orders, "profit")
        lp = solve(model)
        assert exact.status == "optimal" and lp.optimal
        assert exact.objective_value == pytest.approx(
            lp.objective_value, rel=1e-5, abs=1e-7
        )
