"""Tri-criteria bounds, pruning, and the randomized rounding loops."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

import vnembed.decomposition
import vnembed.model
import vnembed.pipeline
import vnembed.rounding
from vnembed import (
    ConvexDecomposition,
    DecompositionEntry,
    Digraph,
    GuaranteeError,
    PipelineConfig,
    PipelineError,
    Request,
    SubstrateGraph,
    ValidMapping,
    bounds_from_parameters,
    build_novel,
    check_tri_criteria,
    collection_feasible,
    compute_allocations,
    compute_bounds,
    decompose_novel,
    mapping_cost,
    min_width_order_search,
    preprocess_profit,
    prune_costly_mappings,
    relax,
    round_cost,
    round_profit,
    run_pipeline,
)
from vnembed.instances import Instance
from vnembed.lpmodel import solve
from vnembed.model import EDGE, NODE
from vnembed.scenarios import scenario_instance
from vnembed.rounding import (
    WEIGHT_TOL,
    RoundedSolution,
    TryRecord,
    request_streams,
    sample_entry,
)


class TestBoundFormulas:
    def test_profit_deviation_terms(self):
        b = bounds_from_parameters("profit", 0.5, 1.0, 1.0, 10, 1)
        assert b.alpha == pytest.approx(1.0 / 3.0)
        expected = 1.0 + 0.5 * math.sqrt(2.0 * math.log(10))
        assert b.beta == pytest.approx(expected, abs=1e-12)
        assert b.gamma == pytest.approx(expected, abs=1e-12)

    def test_cost_uses_leading_constant_two(self):
        b = bounds_from_parameters("cost", 0.5, 1.0, 1.0, 10, 1)
        assert b.alpha == 2.0
        assert b.beta == pytest.approx(3.0729830131446736, abs=1e-12)
        assert b.gamma == pytest.approx(3.0729830131446736, abs=1e-12)

    def test_zero_epsilon_collapses_to_capacity(self):
        b = bounds_from_parameters("profit", 0.0, 3.0, 7.0, 50, 4)
        assert (b.beta, b.gamma) == (1.0, 1.0)

    def test_type_count_widens_the_node_log(self):
        one = bounds_from_parameters("profit", 0.5, 1.0, 1.0, 10, 1)
        four = bounds_from_parameters("profit", 0.5, 1.0, 1.0, 10, 4)
        assert four.beta > one.beta
        assert four.gamma == pytest.approx(one.gamma)

    def test_demand_above_capacity_is_rejected(self):
        with pytest.raises(ValueError, match="demand exceeds capacity"):
            bounds_from_parameters("profit", 1.5, 1.0, 1.0, 10, 1)

    def test_bad_inputs(self):
        with pytest.raises(ValueError, match="unknown variant"):
            bounds_from_parameters("latency", 0.5, 1.0, 1.0, 10, 1)
        with pytest.raises(ValueError, match="nonnegative"):
            bounds_from_parameters("profit", -0.1, 1.0, 1.0, 10, 1)


def _ten_node_substrate(capacity=2.0):
    return SubstrateGraph.build(
        {f"u{k}": {"vm": (capacity, 1.0)} for k in range(10)},
        {(f"u{k}", f"u{(k + 1) % 10}"): (capacity, 1.0) for k in range(10)},
    )


def test_bounds_from_instance_statistics():
    substrate = _ten_node_substrate()
    hosts = tuple(sorted(substrate.nodes))
    req = Request.build("solo", {"i": ("vm", 1.0, hosts)}, {}, profit=1.0)
    b = compute_bounds(substrate, [req], "profit")
    assert b.epsilon == pytest.approx(0.5)
    assert b.delta_nodes == pytest.approx(1.0)
    assert b.delta_edges == 0.0
    assert b.beta == pytest.approx(2.0729830131446736, abs=1e-12)
    assert b.gamma == 1.0
    c = compute_bounds(substrate, [req], "cost")
    assert c.beta == pytest.approx(3.0729830131446736, abs=1e-12)
    assert c.gamma == 2.0


def test_bounds_reject_oversized_demand():
    substrate = _ten_node_substrate()
    hosts = tuple(sorted(substrate.nodes))
    req = Request.build("fat", {"i": ("vm", 3.0, hosts)}, {}, profit=1.0)
    with pytest.raises(ValueError, match="demand exceeds capacity"):
        compute_bounds(substrate, [req], "profit")


def _cost_ladder():
    """Four hosts whose node costs make single-node mapping costs 1/3/10/100."""
    substrate = SubstrateGraph.build(
        {
            "h1": {"vm": (10.0, 1.0)},
            "h3": {"vm": (10.0, 3.0)},
            "h10": {"vm": (10.0, 10.0)},
            "h100": {"vm": (10.0, 100.0)},
        },
        {("h1", "h3"): (10.0, 1.0), ("h3", "h10"): (10.0, 1.0), ("h10", "h100"): (10.0, 1.0)},
    )
    req = Request.build(
        "p", {"i": ("vm", 1.0, ("h1", "h3", "h10", "h100"))}, {}, profit=1.0
    )
    return substrate, req


def _entry(substrate, req, weight, mapping):
    return DecompositionEntry(
        weight=weight, mapping=mapping,
        allocation=compute_allocations(substrate, req, mapping),
    )


def _dec(substrate, req, pairs):
    """Entries placing ``req``'s single node ``i`` on each host."""
    return ConvexDecomposition(
        request_name="p",
        entries=[
            _entry(
                substrate, req, w, ValidMapping(node_map={"i": host}, edge_map={})
            )
            for w, host in pairs
        ],
    )


class TestPruning:
    def test_expensive_tail_beyond_twice_average_is_cut(self):
        substrate, req = _cost_ladder()
        pruned, report = prune_costly_mappings(
            substrate, req, _dec(substrate, req, [(0.9, "h1"), (0.1, "h100")])
        )
        assert report.cost_share == pytest.approx(10.9)
        assert report.threshold == pytest.approx(21.8)
        # 100 > 21.8, so the heavy mapping goes; 0.9 >= 1/2 survives
        assert report.removed == 1
        assert report.surviving_weight == pytest.approx(0.9)
        assert pruned.total_weight == pytest.approx(1.0)
        assert pruned.entries[0].mapping.node_map == {"i": "h1"}

    def test_balanced_pair_untouched(self):
        substrate, req = _cost_ladder()
        pruned, report = prune_costly_mappings(
            substrate, req, _dec(substrate, req, [(0.5, "h1"), (0.5, "h3")])
        )
        assert report.cost_share == pytest.approx(2.0)
        assert report.removed == 0
        assert len(pruned.entries) == 2

    def test_outlier_removed_and_weights_renormalized(self):
        substrate, req = _cost_ladder()
        pruned, report = prune_costly_mappings(
            substrate, req, _dec(substrate, req, [(0.6, "h1"), (0.4, "h10")])
        )
        assert report.cost_share == pytest.approx(4.6)
        assert report.threshold == pytest.approx(9.2)
        assert report.removed == 1
        assert report.surviving_weight == pytest.approx(0.6)
        assert len(pruned.entries) == 1
        assert pruned.entries[0].mapping.node_map == {"i": "h1"}
        assert pruned.total_weight == pytest.approx(1.0)

    def test_partial_acceptance_is_an_error(self):
        substrate, req = _cost_ladder()
        with pytest.raises(ValueError, match="!= 1"):
            prune_costly_mappings(
                substrate, req, _dec(substrate, req, [(0.5, "h1"), (0.3, "h3")])
            )


class TestSampling:
    def test_draws_fall_into_cumulative_intervals(self):
        dec = _dec(*_cost_ladder(), [(0.3, "h1"), (0.2, "h3")])
        assert sample_entry(dec, 0.0) == 0
        assert sample_entry(dec, 0.25) == 0
        assert sample_entry(dec, 0.3) == 1
        assert sample_entry(dec, 0.45) == 1
        assert sample_entry(dec, 0.6) is None

    def test_streams_are_reproducible_and_independent(self):
        a = [s.random(4).tolist() for s in request_streams(2024, 3)]
        b = [s.random(4).tolist() for s in request_streams(2024, 3)]
        assert a == b
        assert a[0] != a[1]
        # a request's stream does not depend on how many requests follow it
        wider = [s.random(4).tolist() for s in request_streams(2024, 5)]
        assert wider[:3] == a


def test_preprocess_drops_unservable_requests(fig3):
    orders = [
        min_width_order_search(Digraph.build(r.nodes, r.edges))
        for r in fig3.requests
    ]
    _, index = build_novel(fig3.substrate, fig3.requests, orders, "profit")
    kept, kept_orders, dropped = preprocess_profit(index, range(len(fig3.requests)))
    assert kept == []
    assert kept_orders == []
    assert dropped == [r.name for r in fig3.requests]


def test_preprocess_keeps_fully_servable_requests():
    substrate = _ten_node_substrate()
    hosts = tuple(sorted(substrate.nodes))
    req = Request.build(
        "pair",
        {"i": ("vm", 1.0, hosts), "j": ("vm", 1.0, hosts)},
        {("i", "j"): (1.0, tuple(substrate.edges))},
        profit=2.0,
    )
    order = min_width_order_search(Digraph.build(req.nodes, req.edges))
    _, index = build_novel(substrate, [req], [order], "profit")
    kept, kept_orders, dropped = preprocess_profit(index, [0])
    assert [r.name for r in kept] == ["pair"]
    assert kept_orders == [order]
    assert dropped == []


def _single_mapping_setup():
    substrate = _ten_node_substrate()
    hosts = tuple(sorted(substrate.nodes))
    req = Request.build(
        "pair",
        {"i": ("vm", 1.0, hosts), "j": ("vm", 1.0, hosts)},
        {("i", "j"): (1.0, tuple(substrate.edges))},
        profit=5.0,
    )
    mapping = ValidMapping(
        node_map={"i": "u0", "j": "u1"}, edge_map={("i", "j"): (("u0", "u1"),)}
    )
    dec = ConvexDecomposition(
        request_name="pair", entries=[_entry(substrate, req, 1.0, mapping)]
    )
    return substrate, req, mapping, dec


class TestProfitRounding:
    def test_certain_entry_is_always_selected(self):
        substrate, req, mapping, dec = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "profit")
        out = round_profit(substrate, [req], [dec], bounds, req.profit, seed=3)
        assert out.accepted
        assert out.tries_used == 1
        assert out.objective_value == pytest.approx(req.profit)
        assert out.selection["pair"] == mapping
        assert out.records[-1].accepted

    def test_empty_decomposition_embeds_nothing(self):
        substrate, req, _, _ = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "profit")
        empty = ConvexDecomposition(request_name="pair", entries=[])
        out = round_profit(substrate, [req], [empty], bounds, 0.0, seed=3)
        assert out.accepted
        assert out.objective_value == 0.0
        assert out.selection["pair"] is None

    def test_unreachable_profit_target_reports_best_effort(self):
        substrate, req, _, dec = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "profit")
        out = round_profit(
            substrate, [req], [dec], bounds, 100.0 * req.profit, seed=3, max_tries=4
        )
        assert not out.accepted
        assert out.tries_used == 4
        assert len(out.records) == 4
        assert out.objective_value == pytest.approx(req.profit)

    def test_same_seed_same_run(self):
        substrate, req, _, dec = _single_mapping_setup()
        half = ConvexDecomposition(
            request_name="pair",
            entries=[dataclasses.replace(dec.entries[0], weight=0.5)],
        )
        bounds = compute_bounds(substrate, [req], "profit")
        runs = [
            round_profit(
                substrate, [req], [half], bounds, req.profit, seed=9, max_tries=6
            )
            for _ in range(2)
        ]
        assert runs[0].selection == runs[1].selection
        assert [r.objective for r in runs[0].records] == [
            r.objective for r in runs[1].records
        ]

    def test_length_mismatch_rejected(self):
        substrate, req, _, _ = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "profit")
        with pytest.raises(ValueError, match="one decomposition per request"):
            round_profit(substrate, [req], [], bounds, 1.0, seed=0)

    def test_fallback_keeps_the_highest_profit(self):
        # half the draws embed nothing; the target is out of reach
        substrate, req = _cost_ladder()
        bounds = compute_bounds(substrate, [req], "profit")
        dec = _dec(substrate, req, [(0.5, "h1")])
        out = round_profit(
            substrate, [req], [dec], bounds, 100.0, seed=1, max_tries=8
        )
        assert not out.accepted
        assert {r.objective for r in out.records} == {0.0, 1.0}
        assert out.objective_value == 1.0
        assert out.selection["p"].node_map == {"i": "h1"}


class TestCostRounding:
    def test_single_mapping_costs_its_allocation(self):
        substrate, req, mapping, dec = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "cost")
        expected = mapping_cost(substrate, req, mapping)
        out = round_cost(substrate, [req], [dec], bounds, expected, seed=5)
        assert out.accepted
        assert out.objective_value == pytest.approx(expected)
        assert out.selection["pair"] == mapping

    def test_empty_decomposition_rejected(self):
        substrate, req, _, _ = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "cost")
        empty = ConvexDecomposition(request_name="pair", entries=[])
        with pytest.raises(ValueError, match="empty decomposition"):
            round_cost(substrate, [req], [empty], bounds, 1.0, seed=5)

    def test_fallback_keeps_the_lowest_cost(self):
        # no host may carry any load, so no draw is accepted
        substrate, req = _cost_ladder()
        bounds = dataclasses.replace(
            compute_bounds(substrate, [req], "cost"), beta=0.0, gamma=0.0
        )
        dec = _dec(substrate, req, [(0.5, "h3"), (0.5, "h1")])
        out = round_cost(substrate, [req], [dec], bounds, 3.0, seed=1, max_tries=8)
        assert not out.accepted
        assert out.tries_used == 8
        assert {r.objective for r in out.records} == {1.0, 3.0}
        assert out.objective_value == 1.0
        assert out.selection["p"].node_map == {"i": "h1"}


class TestTriCriteria:
    # a substrate without resources: only the objective criterion is left
    EMPTY = SubstrateGraph.build({}, {})

    def test_profit_requires_a_third_of_the_optimum(self):
        b = bounds_from_parameters("profit", 0.0, 0.0, 0.0, 10, 1)
        low = check_tri_criteria(self.EMPTY, 0.9, np.zeros(0), b, 3.0, "profit")
        assert not low.ok
        assert low.objective_margin == pytest.approx(-0.1)
        exact = check_tri_criteria(self.EMPTY, 1.0, np.zeros(0), b, 3.0, "profit")
        assert exact.ok

    def test_cost_requires_at_most_twice_the_relaxation(self):
        b = bounds_from_parameters("cost", 0.0, 0.0, 0.0, 10, 1)
        over = check_tri_criteria(self.EMPTY, 6.1, np.zeros(0), b, 3.0, "cost")
        assert not over.ok
        under = check_tri_criteria(self.EMPTY, 6.0, np.zeros(0), b, 3.0, "cost")
        assert under.ok

    def test_load_margins_track_the_worst_resource(self):
        b = bounds_from_parameters("profit", 0.0, 0.0, 0.0, 10, 1)
        substrate = SubstrateGraph.build(
            {"u0": {"vm": (1.0, 1.0)}, "u1": {"vm": (1.0, 1.0)}},
            {("u0", "u1"): (1.0, 1.0)},
        )
        # node vm on u0, node vm on u1, edge (u0, u1)
        utilization = np.array([0.4, 1.2, 0.7])
        report = check_tri_criteria(substrate, 5.0, utilization, b, 5.0, "profit")
        assert report.node_margin == pytest.approx(1.0 - 1.2)
        assert report.edge_margin == pytest.approx(1.0 - 0.7)
        assert not report.ok


class TestTryLimit:
    @pytest.mark.parametrize("max_tries", [0, -3])
    def test_fewer_than_one_try_is_rejected(self, max_tries):
        substrate, req, _, dec = _single_mapping_setup()
        profit = compute_bounds(substrate, [req], "profit")
        with pytest.raises(ValueError, match="max_tries must be at least 1"):
            round_profit(
                substrate, [req], [dec], profit, req.profit, seed=0,
                max_tries=max_tries,
            )
        cost = compute_bounds(substrate, [req], "cost")
        lp_cost = mapping_cost(substrate, req, dec.entries[0].mapping)
        with pytest.raises(ValueError, match="max_tries must be at least 1"):
            round_cost(
                substrate, [req], [dec], cost, lp_cost, seed=0,
                max_tries=max_tries,
            )

    def test_pipeline_rejects_it_before_building_an_lp(
        self, fig3_gadget, monkeypatch
    ):
        def no_lp(*args, **kwargs):
            raise AssertionError("an LP was built")

        monkeypatch.setattr(vnembed.pipeline, "build_novel", no_lp)
        with pytest.raises(PipelineError) as err:
            run_pipeline(fig3_gadget, PipelineConfig(max_tries=0))
        assert err.value.stage == "config"
        assert "max_tries must be at least 1, got 0" in str(err.value)

    def test_huge_limit_stops_at_the_first_accepted_try(self):
        # blocks hold at most BLOCK_MAX tries, so a certain entry never
        # draws (or allocates loads for) more than one block, and only its
        # first try is recorded
        substrate, req, mapping, dec = _single_mapping_setup()
        bounds = compute_bounds(substrate, [req], "profit")
        out = round_profit(
            substrate, [req], [dec], bounds, req.profit, seed=0,
            max_tries=10**9,
        )
        assert out.accepted
        assert out.tries_used == 1
        assert len(out.records) == 1
        assert out.selection["pair"] == mapping


def _cap_ladder():
    """Hosts costing 1, 10 and 100 per unit; only h10 is small (capacity 1)."""
    substrate = SubstrateGraph.build(
        {
            "h1": {"vm": (10.0, 1.0)},
            "h10": {"vm": (1.0, 10.0)},
            "h100": {"vm": (10.0, 100.0)},
        },
        {},
    )
    req = Request.build("p", {"i": ("vm", 1.0, ("h1", "h10", "h100"))}, {}, profit=1.0)
    return substrate, req


class TestCostCapBoundary:
    """With LP cost 10 the cap is 20 (plus tolerance). Under beta = 0.5 an
    h10 try fails the load test at cost 10, an h1 try is accepted and an
    h100 try costs 100, over the cap. Tries 1-8 form the second block."""

    HOSTS = ("h10", "h1", "h100")
    WEIGHTS = (0.6, 0.2, 0.2)

    def _round(self, seed, alpha=None):
        substrate, req = _cap_ladder()
        bounds = dataclasses.replace(
            compute_bounds(substrate, [req], "cost"), beta=0.5
        )
        if alpha is not None:
            bounds = dataclasses.replace(bounds, alpha=alpha)
        dec = _dec(substrate, req, list(zip(self.WEIGHTS, self.HOSTS)))
        return round_cost(substrate, [req], [dec], bounds, 10.0, seed, max_tries=9)

    def _seed_with(self, wanted):
        """First seed whose first nine picks start with ``wanted``."""
        dec = _dec(*_cap_ladder(), list(zip(self.WEIGHTS, self.HOSTS)))
        for seed in range(10_000):
            (stream,) = request_streams(seed, 1)
            picks = [
                self.HOSTS[sample_entry(dec, u)] for u in stream.uniform(size=9)
            ]
            if wanted(picks):
                return seed
        raise AssertionError("no seed draws the wanted picks")

    def test_over_cap_try_before_the_accepted_one_raises(self):
        seed = self._seed_with(
            lambda p: p[:3] == ["h10", "h100", "h1"]
        )
        with pytest.raises(GuaranteeError, match="sampled cost 100.00000000"):
            self._round(seed)

    def test_over_cap_try_that_would_be_accepted_raises(self):
        # alpha 20 admits a cost of 200, but the cap still forbids 100
        seed = self._seed_with(lambda p: p[:2] == ["h10", "h100"])
        with pytest.raises(GuaranteeError, match="exceeds twice the LP cost"):
            self._round(seed, alpha=20.0)

    def test_over_cap_tries_after_the_accepted_one_are_ignored(self):
        seed = self._seed_with(
            lambda p: p[:2] == ["h10", "h1"] and "h100" in p[2:]
        )
        out = self._round(seed)
        assert out.accepted
        assert out.tries_used == 2
        assert [r.objective for r in out.records] == [10.0, 1.0]
        assert out.selection["p"].node_map == {"i": "h1"}


def _reference_sample(
    substrate, requests, decompositions, bounds, lp_optimum, seed, max_tries,
    variant,
):
    """Try-by-try sampling loop: one scalar draw per request and try, a
    scalar cumulative-weight scan, ``collection_feasible`` and
    ``check_tri_criteria`` per try. The production sampler must match it
    field by field."""
    cost = variant == "cost"
    cap = 2.0 * lp_optimum + WEIGHT_TOL * max(1.0, abs(lp_optimum))
    allocations = [
        [compute_allocations(substrate, req, e.mapping) for e in dec.entries]
        for req, dec in zip(requests, decompositions)
    ]
    terms = [
        [
            mapping_cost(substrate, req, e.mapping) if cost else req.profit
            for e in dec.entries
        ]
        for req, dec in zip(requests, decompositions)
    ]
    streams = request_streams(seed, len(requests))
    records = []

    def scan(dec, draw):
        acc = 0.0
        for idx, entry in enumerate(dec.entries):
            acc += entry.weight
            if draw < acc:
                return idx
        return None

    def draw(attempt):
        selection, loads, objective = {}, [], 0.0
        for r, req in enumerate(requests):
            pick = scan(decompositions[r], streams[r].uniform())
            if pick is None and cost:
                pick = len(decompositions[r].entries) - 1
            if pick is None:
                selection[req.name] = None
                continue
            mapping = decompositions[r].entries[pick].mapping
            selection[req.name] = mapping
            loads.append(allocations[r][pick])
            objective += terms[r][pick]
        if cost and objective > cap:
            raise GuaranteeError(f"sampled cost {objective:.8f}")
        _, utilization = collection_feasible(substrate, loads)
        ok = check_tri_criteria(
            substrate, objective, utilization, bounds, lp_optimum, variant
        ).ok
        worst = {
            kind: max(
                (u for res, u in zip(substrate.resources, utilization.tolist())
                 if res[0] == kind),
                default=0.0,
            )
            for kind in (NODE, EDGE)
        }
        records.append(TryRecord(attempt, objective, worst[NODE], worst[EDGE], ok))
        return RoundedSolution(
            variant, selection, objective, utilization, ok, attempt + 1, seed
        )

    best = last = draw(0)
    while not last.accepted and last.tries_used < max_tries:
        last = draw(last.tries_used)
        if (
            last.objective_value < best.objective_value
            if cost
            else last.objective_value > best.objective_value
        ):
            best = last
    result = last if last.accepted else best
    result.tries_used = last.tries_used
    result.records = records
    return result


def _rounding_inputs(instances, variant):
    """The arguments ``round_relaxation`` hands to the sampler, per instance:
    under cost, the decompositions are already pruned."""
    inputs = []
    for instance in instances:
        try:
            relaxation = relax(instance, PipelineConfig(variant=variant))
        except PipelineError as err:
            assert err.infeasible, err
            continue
        inputs.append((
            instance.substrate, relaxation.requests, relaxation.decompositions,
            relaxation.bounds, relaxation.lp_objective,
        ))
    return inputs


@pytest.mark.parametrize("variant", ["profit", "cost"])
@pytest.mark.parametrize("corpus", ["tiny_corpus", "tree_corpus"])
def test_block_sampler_matches_the_try_by_try_loop(corpus, variant, request):
    inputs = _rounding_inputs(request.getfixturevalue(corpus), variant)
    assert len(inputs) >= 10
    sampler = round_profit if variant == "profit" else round_cost
    compared = fallbacks = late_accepts = 0
    for substrate, requests, decs, bounds, lp in inputs:
        # a probe run without acceptance shows each try's worst loads; a
        # low quantile of them as beta and gamma lets some later try pass
        probe = _reference_sample(
            substrate, requests, decs, dataclasses.replace(bounds, beta=0.0, gamma=0.0),
            lp, 1, 130, variant,
        )
        node = sorted(r.max_node_utilization for r in probe.records)
        edge = sorted(r.max_edge_utilization for r in probe.records)
        settings = (
            (bounds, (1,)),
            (dataclasses.replace(bounds, beta=node[10], gamma=edge[10]), (1, 2, 3)),
            # no try reaches the objective target: the fallback decides
            (dataclasses.replace(bounds, alpha=1e9 if variant == "profit" else 0.0), (2,)),
        )
        for b, seeds in settings:
            for seed in seeds:
                for max_tries in (1, 2, 9, 64, 65, 130):
                    got = sampler(substrate, requests, decs, b, lp, seed, max_tries)
                    want = _reference_sample(
                        substrate, requests, decs, b, lp, seed, max_tries, variant
                    )
                    assert got.records == want.records
                    assert got.selection == want.selection
                    assert got.utilization.tolist() == want.utilization.tolist()
                    assert got.objective_value == want.objective_value
                    assert got.tries_used == want.tries_used
                    assert got.accepted == want.accepted
                    compared += 1
                    fallbacks += not want.accepted and want.tries_used > 1
                    late_accepts += want.accepted and want.tries_used > 1
    assert compared and fallbacks
    if corpus == "tree_corpus":
        # tree requests have several entries, so accepted tries past the
        # first block occur as well
        assert late_accepts


def _pruned_instance() -> Instance:
    """Three one-node requests on three hosts. The cost LP places a tenth of
    request ``a`` on the costly host ``h2``, its first decomposition entry,
    and pruning removes that entry."""
    substrate = SubstrateGraph.build(
        {"h1": {"vm": (1.9, 1.0)}, "h2": {"vm": (5.0, 100.0)}, "h3": {"vm": (1.0, 1.5)}},
        {},
    )
    requests = tuple(
        Request.build(name, {"i": ("vm", 1.0, ("h2", "h1", "h3"))}, {}, profit=1.0)
        for name in "abc"
    )
    return Instance(name="pruned", substrate=substrate, requests=requests)




def _decompositions(corpus, request):
    """``(substrate, request, decomposition)`` for every decomposition the
    pipeline makes on ``corpus``; the width-3 corpus is decomposed along
    its own width-3 orders."""
    if corpus == "width3_corpus":
        out = []
        for instance, labeled in request.getfixturevalue(corpus):
            model, index = build_novel(
                instance.substrate, instance.requests, [labeled], "profit"
            )
            state = index.request_state(solve(model).values, 0)
            (req,) = instance.requests
            out.append((
                instance.substrate, req,
                decompose_novel(instance.substrate, req, labeled, state),
            ))
        return out
    if corpus == "seed-sweep":
        ops = request.getfixturevalue("bench_workloads").seed_sweep(1)
        instances, variant = [op.instance for op in ops[:16]], "profit"
    elif corpus == "halfwheel":
        instances = [scenario_instance(f"halfwheel:{n}") for n in (8, 9, 10)]
        variant = "cost"
    else:
        instances = request.getfixturevalue(corpus)
        variant = "cost" if corpus == "cost_corpus" else "profit"
    real = vnembed.pipeline.decompose_novel
    out = []

    def spy(substrate, req, *args):
        out.append((substrate, req, real(substrate, req, *args)))
        return out[-1][2]

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(vnembed.pipeline, "decompose_novel", spy)
        for instance in instances:
            try:
                run_pipeline(instance, PipelineConfig(variant=variant, seed=1))
            except PipelineError as err:
                assert err.infeasible, err
    return out


@pytest.mark.parametrize(
    "corpus",
    ["tiny_corpus", "tree_corpus", "cost_corpus", "width3_corpus", "seed-sweep",
     "halfwheel"],
)
def test_every_entry_carries_its_allocation(corpus, request):
    # what decompose_novel returns is exactly what compute_allocations gives
    # for the entry's mapping: same resources, same order, same bits
    decompositions = _decompositions(corpus, request)
    entries = 0
    for substrate, req, dec in decompositions:
        for entry in dec.entries:
            want = compute_allocations(substrate, req, entry.mapping)
            assert [v.hex() for v in entry.allocation.tolist()] == [
                v.hex() for v in want.tolist()
            ]
            entries += 1
    assert entries >= len(decompositions) >= 3


def test_pruning_keeps_the_surviving_allocations(monkeypatch):
    real = vnembed.pipeline.prune_costly_mappings
    seen = []

    def spy(substrate, req, dec):
        norm, prep = real(substrate, req, dec)
        seen.append((dec, norm, prep))
        return norm, prep

    monkeypatch.setattr(vnembed.pipeline, "prune_costly_mappings", spy)
    run_pipeline(_pruned_instance(), PipelineConfig(variant="cost", seed=1))
    dec, norm, prep = seen[0]
    assert prep.removed == 1
    assert [e.mapping for e in norm.entries] == [e.mapping for e in dec.entries[1:]]
    for dec, norm, prep in seen:
        # survivors are only reweighted: mapping and allocation stay as they are
        originals = {id(entry.mapping): entry for entry in dec.entries}
        assert len(norm.entries) == len(dec.entries) - prep.removed
        for entry in norm.entries:
            original = originals[id(entry.mapping)]
            assert entry.allocation is original.allocation
            assert entry.weight == pytest.approx(
                original.weight / prep.surviving_weight
            )


def test_an_off_request_mapping_has_no_allocation():
    substrate, req, _, _ = _single_mapping_setup()
    off_request = ValidMapping(
        node_map={"i": "u0", "j": "u0"}, edge_map={("i", "j"): (("u0", "u1"),)}
    )
    with pytest.raises(ValueError, match="invalid mapping"):
        compute_allocations(substrate, req, off_request)


@pytest.mark.parametrize("sampler", [round_profit, round_cost])
def test_sampler_checks_mappings_it_is_not_given_allocations_for(
    sampler, fig3_gadget, monkeypatch
):
    # the sampler reads each entry's allocation and checks no mapping itself;
    # the real check at extraction is what keeps a mapping with no valid
    # allocation (here one that leaves a request edge unmapped) from it
    real = vnembed.decomposition._apply_extraction
    broken = []

    def drop_an_edge(substrate, request, state, covered, mapping, entries):
        if not broken:
            first = next(iter(mapping.edge_map))
            broken.append(first)
            mapping = ValidMapping(
                node_map=mapping.node_map,
                edge_map={e: p for e, p in mapping.edge_map.items() if e != first},
            )
        return real(substrate, request, state, covered, mapping, entries)

    monkeypatch.setattr(vnembed.decomposition, "_apply_extraction", drop_an_edge)
    monkeypatch.setattr(vnembed.pipeline, sampler.__name__, _never_called)
    variant = "profit" if sampler is round_profit else "cost"
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant=variant, seed=1))
    assert err.value.stage == "decompose"
    assert (
        f"extracted mapping invalid: incomplete mapping: edge {broken[0]} is unmapped"
        in str(err.value)
    )


def test_an_invalid_extracted_mapping_never_reaches_the_sampler(
    fig3_gadget, monkeypatch
):
    # the sampler checks no mapping; the check at extraction stops it
    monkeypatch.setattr(
        vnembed.decomposition, "check_valid_mapping",
        lambda *args: (False, "planted fault"),
    )
    monkeypatch.setattr(vnembed.pipeline, "round_cost", _never_called)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="cost", seed=1))
    assert err.value.stage == "decompose"
    assert "extracted mapping invalid: planted fault" in str(err.value)


def _never_called(*args):
    raise AssertionError("the sampler was reached")


@pytest.mark.parametrize(
    "workload, checks, allocations",
    [("seed-sweep", 1624, 944), ("halfwheel-cost", 9, 6)],
)
def test_mappings_checked_and_allocated_per_pass(
    workload, checks, allocations, bench_workloads, monkeypatch
):
    # each entry is checked and allocated at extraction, checked again by
    # verification, and each selected mapping once more by the recheck;
    # pruning and the sampler read the entries' allocations
    calls = {"check_valid_mapping": 0, "_unchecked_allocations": 0}
    for name in calls:
        original = getattr(vnembed.model, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] += 1
            return _original(*args)

        for module in (vnembed.model, vnembed.decomposition):
            monkeypatch.setattr(module, name, counted)
    for op in bench_workloads.WORKLOADS[workload](1):
        run_pipeline(op.instance, op.config)
    assert calls == {
        "check_valid_mapping": checks, "_unchecked_allocations": allocations
    }
