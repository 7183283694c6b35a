"""The staged pipeline wrapper: reports, overrides, failure surfaces."""

from __future__ import annotations

import copy
import dataclasses
import json
import logging
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import lp_reference
import vnembed.pipeline
import vnembed.rounding

from vnembed import (
    Digraph,
    PipelineConfig,
    PipelineError,
    Request,
    SubstrateGraph,
    min_width_order_search,
    relax,
    round_relaxation,
    run_pipeline,
)
from vnembed.formulations import build_novel, count_novel_variables
from vnembed.instances import Instance
from vnembed.lpmodel import LPSolution, solve, write_lp
from vnembed.pipeline import try_records_csv
from vnembed.rounding import preprocess_profit
from vnembed.scenarios import (
    monte_carlo_instance,
    scenario_instance,
    tree_corpus,
)


def test_unknown_variant_fails_in_config(fig3):
    with pytest.raises(PipelineError, match=r"\[config\]"):
        run_pipeline(fig3, PipelineConfig(variant="latency"))


@pytest.mark.parametrize("key", ["alpha", "beta", "gamma"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_bound_override_fails_in_config(fig3, monkeypatch, key, value):
    # a NaN bound would pass the sampler's numpy check and fail Python's
    # recheck, and an infinite one would reach the report as Infinity
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    monkeypatch.setattr(vnembed.pipeline, "validate_instance", no_stage)
    with pytest.raises(PipelineError) as err:
        relax(fig3, PipelineConfig(**{key: value}))
    assert err.value.stage == "config"
    assert str(err.value) == f"[config] {key} must be finite, got {value}"


def test_validation_failures_name_their_stage():
    substrate = SubstrateGraph.build({"a": {"vm": (1.0, 1.0)}}, {})
    bad = Request.build("r", {"x": ("gpu", 1.0, ("a",))}, {}, profit=1.0)
    instance = Instance(name="bad", substrate=substrate, requests=(bad,))
    with pytest.raises(PipelineError) as err:
        run_pipeline(instance, PipelineConfig())
    assert err.value.stage == "validate"
    assert "unknown-type" in str(err.value)


def test_profit_pipeline_on_unservable_instance(fig3):
    report, rounded = run_pipeline(fig3, PipelineConfig(variant="profit", seed=1))
    assert report.requests[0]["dropped"] is True
    assert report.lp["objective"] == pytest.approx(0.0)
    assert rounded.accepted
    assert rounded.objective_value == 0.0
    assert report.rounding["selection"] == {}


def test_profit_pipeline_embeds_the_gadget(fig3_gadget):
    report, rounded = run_pipeline(
        fig3_gadget, PipelineConfig(variant="profit", seed=1)
    )
    assert report.requests[0]["width"] == 2
    assert not report.requests[0]["dropped"]
    assert rounded.accepted
    assert rounded.objective_value == pytest.approx(1.0)
    assert report.rounding["selection"]["triangle"]["node_map"] == {
        "i": "u1",
        "j": "u2",
        "k": "u3",
    }


def test_cost_pipeline_reports_pruning(fig3_gadget):
    report, rounded = run_pipeline(fig3_gadget, PipelineConfig(variant="cost", seed=1))
    assert report.lp["objective"] == pytest.approx(105.0)
    assert rounded.accepted
    assert rounded.objective_value == pytest.approx(105.0)
    pruning = report.decomposition[0]["pruning"]
    assert pruning["cost_share"] == pytest.approx(105.0)
    assert pruning["removed"] == 0


def test_cost_pipeline_flags_infeasibility(fig3):
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3, PipelineConfig(variant="cost"))
    assert err.value.stage == "solve-lp"
    assert err.value.infeasible


def test_bound_overrides_land_in_the_report(fig3_gadget):
    report, _ = run_pipeline(
        fig3_gadget,
        PipelineConfig(variant="profit", seed=1, alpha=0.5, beta=9.0, gamma=8.0),
    )
    assert report.bounds["alpha"] == 0.5
    assert report.bounds["beta"] == 9.0
    assert report.bounds["gamma"] == 8.0


def test_variable_budget_aborts_model_build(fig3_gadget):
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="profit", var_budget=3))
    assert err.value.stage == "build-lp"


def test_timings_are_opt_in(fig3_gadget):
    config = PipelineConfig(variant="profit", seed=1, include_timings=True)
    report, _ = run_pipeline(fig3_gadget, config)
    without = json.loads(report.to_json())
    assert "timings" not in without
    with_timings = json.loads(report.to_json(include_timings=True))
    assert {
        "validate", "width", "preprocess", "build-lp", "solve-lp", "decompose",
        "round",
    } <= set(with_timings["timings"])


@pytest.mark.parametrize(
    "instance, variant, timed",
    [
        ("fig3_gadget", "profit", {"preprocess"}),
        ("fig3", "profit", {"preprocess"}),
        ("fig3_gadget", "cost", set()),
    ],
    ids=["gadget-profit", "fig3-profit", "gadget-cost"],
)
def test_timing_keys_are_the_timed_stages(instance, variant, timed, request):
    # fig3 drops its only request, so nothing is decomposed, but the
    # decompose stage is still timed; bounds and verify never are
    report, _ = run_pipeline(
        request.getfixturevalue(instance),
        PipelineConfig(variant=variant, seed=1),
    )
    assert set(report.timings) == timed | {
        "validate", "width", "build-lp", "solve-lp", "decompose", "round",
    }


def test_stage_events_go_through_logging(fig3, caplog):
    caplog.set_level(logging.DEBUG, logger="vnembed.pipeline")
    report, _ = run_pipeline(fig3, PipelineConfig(variant="profit", seed=1))
    records = [r for r in caplog.records if r.name == "vnembed.pipeline"]
    # an inner stage logs before the stage around it; fig3's request fails
    # its solo LP, so the joint LP is built and solved again without it and
    # nothing is left to decompose
    assert [(r.stage, r.request) for r in records] == [
        ("validate", None),
        ("width", "triangle"),
        ("width", None),
        ("build-lp", None),
        ("solve-lp", None),
        ("preprocess", None),
        ("build-lp", None),
        ("solve-lp", None),
        ("decompose", None),
        ("bounds", None),
        ("round", None),
        ("verify", None),
    ]
    assert all(r.levelno == logging.DEBUG for r in records)
    assert all(r.failure is None and r.seconds >= 0.0 for r in records)
    assert report.requests[0]["dropped"] is True


@pytest.mark.parametrize(
    "callee, stage, instance, variant",
    [
        ("min_width_order_search", "width", "fig3_gadget", "profit"),
        ("build_novel", "build-lp", "fig3_gadget", "profit"),
        ("solve", "solve-lp", "fig3_gadget", "profit"),
        # fig3's request needs its solo LP; the gadget's joint LP accepts it
        ("preprocess_profit", "preprocess", "fig3", "profit"),
        ("decompose_novel", "decompose", "fig3_gadget", "profit"),
        ("compute_bounds", "bounds", "fig3_gadget", "profit"),
        ("prune_costly_mappings", "prune", "fig3_gadget", "cost"),
        ("round_profit", "round", "fig3_gadget", "profit"),
    ],
)
def test_every_stage_names_its_failure(
    callee, stage, instance, variant, request, monkeypatch, caplog
):
    caplog.set_level(logging.DEBUG, logger="vnembed.pipeline")
    injected = RuntimeError(f"{callee} failed")

    def fail(*args, **kwargs):
        raise injected

    monkeypatch.setattr(vnembed.pipeline, callee, fail)
    with pytest.raises(PipelineError) as err:
        run_pipeline(
            request.getfixturevalue(instance), PipelineConfig(variant=variant)
        )
    assert err.value.stage == stage
    assert err.value.__cause__ is injected
    # the stages that run per request name the request
    where = "request 'triangle': " if stage in ("width", "decompose") else ""
    assert str(err.value) == f"[{stage}] {where}{injected}"
    # the failing stage logs the error first, every stage around it again
    failed = [r for r in caplog.records if r.failure is not None]
    assert failed[0].stage == stage
    assert all(r.failure is err.value for r in failed)


def _broken(model):
    return LPSolution(status="error", objective_value=None, values=None)


def test_solo_lp_failure_surfaces_in_preprocess(fig3, monkeypatch):
    # fig3's request stays below acceptance 1 in the joint LP, so its solo
    # LP runs: the joint solve succeeds, every solo one fails
    calls = []

    def joint(model):
        calls.append(model)
        return solve(model)

    def solo(model):
        calls.append(model)
        return _broken(model)

    monkeypatch.setattr(vnembed.pipeline, "solve", joint)
    monkeypatch.setattr(vnembed.rounding, "solve", solo)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3, PipelineConfig(variant="profit"))
    assert len(calls) == 2
    # the solo LP is a model of its own; fig3 has one request, so it is
    # the joint LP built again
    assert calls[1] is not calls[0]
    assert write_lp(calls[1]) == write_lp(calls[0])
    assert err.value.stage == "preprocess"
    assert "solver returned error" in str(err.value)


def test_joint_lp_failure_stops_at_solve_lp(fig3_gadget, monkeypatch):
    monkeypatch.setattr(vnembed.pipeline, "solve", _broken)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="profit"))
    assert err.value.stage == "solve-lp"
    assert "solver returned error" in str(err.value)


def _timed_out(model):
    return LPSolution(
        status="error", objective_value=None, values=None,
        message="Time limit reached",
    )


@pytest.mark.parametrize(
    "module, stage", [(vnembed.pipeline, "solve-lp"), (vnembed.rounding, "preprocess")]
)
def test_solver_failures_quote_the_solver(fig3, module, stage, monkeypatch):
    # only the patched module's solve fails; fig3 needs its solo LP
    monkeypatch.setattr(module, "solve", _timed_out)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3, PipelineConfig(variant="profit"))
    assert err.value.stage == stage
    assert "solver returned error (Time limit reached)" in str(err.value)


def _pair(profit=1.0):
    """A one-edge request pinned to u4 -> u5 of the fig3 substrates."""
    return Request.build(
        "pair",
        {"a": ("vm", 1.0, ("u4",)), "b": ("vm", 1.0, ("u5",))},
        {("a", "b"): (1.0, (("u4", "u5"),))},
        profit=profit,
    )


def _mixed_instances():
    """fig3's restricted triangle (no valid mapping) beside servable
    requests on the cost-gadget substrate: the joint LP leaves it below
    acceptance 1, so its solo LP drops it and the joint LP is solved again.
    Two copies of the gadget's triangle compete for its only embedding, so
    one of them also stays below 1 jointly but is kept by its solo LP."""
    gadget = scenario_instance("fig3-cost-gadget")
    served = gadget.requests[0]
    blocked = dataclasses.replace(
        scenario_instance("fig3").requests[0], name="blocked"
    )
    pair = _pair(profit=2.0)
    twin = dataclasses.replace(served, name="twin")
    batches = {
        "blocked-first": (blocked, served),
        "blocked-between": (pair, blocked, served),
        "contended": (served, blocked, twin, pair),
    }
    return [
        Instance(name=name, substrate=gadget.substrate, requests=requests)
        for name, requests in batches.items()
    ]


def _cross_check(instance):
    report, _ = run_pipeline(instance, PipelineConfig(variant="profit", seed=1))
    orders = [
        min_width_order_search(Digraph.build(req.nodes, req.edges))
        for req in instance.requests
    ]
    kept, kept_orders, dropped = lp_reference.preprocess_profit(
        instance.substrate, instance.requests, orders
    )
    assert [row["dropped"] for row in report.requests] == [
        req.name in dropped for req in instance.requests
    ]
    model, _ = build_novel(instance.substrate, kept, kept_orders, "profit")
    solution = solve(model)
    assert report.lp["objective"] == round(float(solution.objective_value), 9)
    assert report.lp["variables"] == count_novel_variables(
        instance.substrate, kept, kept_orders
    )
    return dropped


@pytest.mark.parametrize(
    "corpus", ["tiny_corpus", "tree_corpus", "cost_corpus", "fig3", "mixed"]
)
def test_joint_first_matches_preprocessing_every_request(corpus, request):
    if corpus == "mixed":
        instances = _mixed_instances()
    elif corpus == "fig3":
        instances = [request.getfixturevalue("fig3")]
    else:
        instances = request.getfixturevalue(corpus)
    dropped = [_cross_check(instance) for instance in instances]
    if corpus == "mixed":
        assert dropped == [["blocked"]] * 3


def _solo_corpus(name, request):
    if name == "mixed":
        return _mixed_instances()
    if name == "fig3":
        return [request.getfixturevalue("fig3")]
    if name == "seed-sweep":
        # the benchmark's seed-sweep batch: the rounding experiment's instances
        return [*tree_corpus(30, seed=777), monte_carlo_instance()]
    if name == "cactus":
        # the 24 instances of the benchmark's cactus-profit batch, seed 1
        workloads = request.getfixturevalue("bench_workloads")
        return [op.instance for op in workloads.cactus_profit(1)]
    return request.getfixturevalue(name)


@pytest.mark.parametrize(
    "corpus",
    ["tiny_corpus", "tree_corpus", "cost_corpus", "fig3", "mixed", "seed-sweep",
     "cactus"],
)
def test_solo_resolves_keep_what_solo_builds_keep(corpus, request):
    # every request of every instance, its solo LP solved by
    # preprocess_profit from the joint LP's index, must be kept or dropped
    # as the reference, building solo LPs from the request list alone, decides
    decisions = set()
    for instance in _solo_corpus(corpus, request):
        orders = [
            min_width_order_search(Digraph.build(req.nodes, req.edges))
            for req in instance.requests
        ]
        reference = lp_reference.preprocess_profit(
            instance.substrate, instance.requests, orders
        )
        _, index = build_novel(
            instance.substrate, instance.requests, orders, "profit"
        )
        assert preprocess_profit(index, range(len(instance.requests))) == reference
        decisions.update(req.name in reference[2] for req in instance.requests)
    if corpus == "mixed":
        assert decisions == {True, False}


def test_preprocessing_reads_only_the_index(fig3, fig3_gadget):
    # each solo LP is built from the index's request and order, so an index
    # built for either objective gives the same decision
    for instance in (fig3, fig3_gadget):
        orders = [
            min_width_order_search(Digraph.build(req.nodes, req.edges))
            for req in instance.requests
        ]
        decisions = []
        for objective in ("profit", "cost"):
            _, index = build_novel(
                instance.substrate, instance.requests, orders, objective
            )
            decisions.append(preprocess_profit(index, [0]))
        assert decisions[0] == decisions[1]


def test_pipeline_builds_one_solo_model_per_uncertified_request(
    fig3, tiny_corpus, monkeypatch
):
    # one solo build per request the joint LP leaves below acceptance 1,
    # over that request alone, and none for a request the joint LP
    # certifies; the joint LP is built over every request and, once
    # requests are dropped, again over the kept ones
    built = []

    def recorded(module):
        real = module.build_novel

        def wrapper(substrate, requests, *args, **kwargs):
            built.append((module, [req.name for req in requests]))
            return real(substrate, requests, *args, **kwargs)
        return wrapper

    for module in (vnembed.pipeline, vnembed.rounding):
        monkeypatch.setattr(module, "build_novel", recorded(module))
    counts = []
    for instance in [fig3, *tiny_corpus, *_mixed_instances()]:
        names = [req.name for req in instance.requests]
        orders = [
            min_width_order_search(Digraph.build(req.nodes, req.edges))
            for req in instance.requests
        ]
        model, index = build_novel(
            instance.substrate, instance.requests, orders, "profit"
        )
        values = solve(model).values
        uncertified = [
            [name] for r, name in enumerate(names)
            if values[index.columns[r].x] < 1.0 - vnembed.rounding.WEIGHT_TOL
        ]
        built.clear()
        report, _ = run_pipeline(instance, PipelineConfig(variant="profit", seed=1))
        kept = [row["name"] for row in report.requests if not row["dropped"]]
        solo = [requests for module, requests in built if module is vnembed.rounding]
        joint = [requests for module, requests in built if module is vnembed.pipeline]
        assert solo == uncertified
        assert joint == [names] + ([kept] if kept != names else [])
        counts.append(len(solo))
    assert 0 in counts and max(counts) > 1


def test_fully_accepted_batch_solves_one_lp(fig3_gadget, monkeypatch):
    calls = {"solve": 0, "solo-build": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(
        vnembed.pipeline, "solve", counted("solve", vnembed.pipeline.solve)
    )
    monkeypatch.setattr(
        vnembed.rounding, "build_novel",
        counted("solo-build", vnembed.rounding.build_novel),
    )
    instance = Instance(
        name="served", substrate=fig3_gadget.substrate,
        requests=(fig3_gadget.requests[0], _pair()),
    )
    report, _ = run_pipeline(
        instance, PipelineConfig(variant="profit", seed=1, include_timings=True)
    )
    assert calls == {"solve": 1, "solo-build": 0}
    assert report.lp["objective"] == pytest.approx(2.0)
    assert not any(row["dropped"] for row in report.requests)
    assert report.timings["preprocess"] == 0.0


def test_pruning_bound_violation_names_its_stage(fig3_gadget, monkeypatch):
    # negative costs break the averaging argument behind the bound
    monkeypatch.setattr(vnembed.rounding, "allocation_cost", lambda *args: -1.0)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="cost", seed=1))
    assert err.value.stage == "prune"
    assert "below 1/2" in str(err.value)


def test_cost_cap_violation_names_its_stage(fig3_gadget, monkeypatch):
    real = vnembed.pipeline.round_cost

    def understated_lp_cost(substrate, requests, decs, bounds, lp_cost, *rest):
        return real(substrate, requests, decs, bounds, lp_cost / 4, *rest)

    monkeypatch.setattr(vnembed.pipeline, "round_cost", understated_lp_cost)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="cost", seed=1))
    assert err.value.stage == "round"
    assert "exceeds twice the LP cost" in str(err.value)


@pytest.mark.parametrize("field", ["accepted", "last_record"])
def test_verify_rechecks_the_accept_flag(fig3_gadget, monkeypatch, field):
    real = vnembed.pipeline.round_profit

    def flipped(*args):
        rounded = real(*args)
        if field == "accepted":
            rounded.accepted = not rounded.accepted
        else:
            last = rounded.records[-1]
            rounded.records[-1] = dataclasses.replace(
                last, accepted=not last.accepted
            )
        return rounded

    monkeypatch.setattr(vnembed.pipeline, "round_profit", flipped)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="profit", seed=1))
    assert err.value.stage == "verify"
    assert "tri-criteria recheck says accepted=True" in str(err.value)


@pytest.mark.parametrize(
    "field, message",
    [
        ("objective", "reported objective 1.50000000 != recomputed 1.00000000"),
        ("utilization", "utilization mismatch on "),
        ("nan-utilization", "utilization mismatch on ('node', 'vm', 'u1')"),
        ("extra-resource", "utilization on 14 resources, the substrate has 13"),
        ("missing-resource", "utilization on 12 resources, the substrate has 13"),
    ],
)
def test_verify_rechecks_objective_and_utilization(
    fig3_gadget, monkeypatch, field, message
):
    real = vnembed.pipeline.round_profit
    substrate_column = fig3_gadget.substrate.resource_column

    def misreported(*args):
        rounded = real(*args)
        assert rounded.utilization.any()  # the triangle is embedded
        if field == "objective":
            rounded.objective_value += 0.5
        elif field == "utilization":
            rounded.utilization = rounded.utilization + 0.5
        elif field == "nan-utilization":
            rounded.utilization = rounded.utilization.copy()
            rounded.utilization[0] = float("nan")
        elif field == "extra-resource":
            rounded.utilization = np.append(rounded.utilization, 5.0)
        else:
            # an unloaded resource: its value alone would match at 0
            u4 = substrate_column[("node", "vm", "u4")]
            assert rounded.utilization[u4] == 0.0
            rounded.utilization = np.delete(rounded.utilization, u4)
        return rounded

    monkeypatch.setattr(vnembed.pipeline, "round_profit", misreported)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="profit", seed=1))
    assert err.value.stage == "verify"
    assert message in str(err.value)


_COST_CAP_SCRIPT = """
import sys
from vnembed import (
    ConvexDecomposition, DecompositionEntry, GuaranteeError, Request,
    SubstrateGraph, ValidMapping, bounds_from_parameters, compute_allocations,
    round_cost,
)
assert sys.flags.optimize
substrate = SubstrateGraph.build({"h": {"vm": (10.0, 3.0)}}, {})
req = Request.build("p", {"i": ("vm", 1.0, ("h",))}, {}, profit=1.0)
mapping = ValidMapping(node_map={"i": "h"}, edge_map={})
dec = ConvexDecomposition(
    request_name="p",
    entries=[DecompositionEntry(
        weight=1.0, mapping=mapping,
        allocation=compute_allocations(substrate, req, mapping),
    )],
)
bounds = bounds_from_parameters("cost", 0.1, 0.1, 0.0, 1, 1)
try:
    round_cost(substrate, [req], [dec], bounds, 1.0, seed=0)
except GuaranteeError as err:
    print("caught:", err)
"""


def test_cost_cap_check_survives_optimized_python():
    src = Path(vnembed.pipeline.__file__).resolve().parents[1]
    result = subprocess.run(
        [sys.executable, "-O", "-c", _COST_CAP_SCRIPT],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(src)},
    )
    assert result.returncode == 0, result.stderr
    assert "caught: sampled cost 3.00000000 exceeds twice the LP cost" in result.stdout


@pytest.mark.parametrize("variant", ["profit", "cost"])
@pytest.mark.parametrize(
    "corpus", ["fig3", "fig3_gadget", "tiny_corpus", "tree_corpus", "cost_corpus"]
)
def test_rounding_a_relaxation_is_running_the_pipeline(corpus, variant, request):
    instances = request.getfixturevalue(corpus)
    if isinstance(instances, Instance):
        instances = [instances]
    config = PipelineConfig(variant=variant, seed=9, max_tries=128)
    rounded = 0
    for instance in instances:
        try:
            relaxation = relax(instance, config)
        except PipelineError as err:
            assert err.infeasible, err
            with pytest.raises(PipelineError, match="infeasible"):
                run_pipeline(instance, config)
            continue
        for seed in range(4):
            want, want_rounded = run_pipeline(
                instance, dataclasses.replace(config, seed=seed, max_tries=16)
            )
            got, got_rounded = round_relaxation(relaxation, seed, 16)
            assert got.to_json() == want.to_json()
            assert try_records_csv(got_rounded) == try_records_csv(want_rounded)
            assert got.timings.keys() == want.timings.keys()
            rounded += 1
    # fig3's cost LP is infeasible: both paths stop at solve-lp
    assert rounded or (corpus, variant) == ("fig3", "cost")


@pytest.mark.parametrize("variant", ["profit", "cost"])
def test_one_relaxation_rounds_again_and_again(fig3_gadget, variant):
    relaxation = relax(fig3_gadget, PipelineConfig(variant=variant))
    before = (copy.deepcopy(relaxation), dict(relaxation.timings))
    first, first_rounded = round_relaxation(relaxation, 1)
    want = (first.to_json(include_timings=False), try_records_csv(first_rounded))
    # nothing the first report holds belongs to the relaxation or to a
    # later report
    for row in first.requests + first.decomposition:
        for value in row.values():
            if isinstance(value, dict):
                value.clear()
        row.clear()
    first.lp.clear()
    first.bounds.clear()
    first.timings.clear()
    round_relaxation(relaxation, 2)
    again, again_rounded = round_relaxation(relaxation, 1)
    assert (again.to_json(), try_records_csv(again_rounded)) == want
    assert (relaxation, relaxation.timings) == before
    # only cost pruning times part of the round stage before sampling
    assert ("round" in relaxation.timings) == (variant == "cost")
    assert relaxation.timings.get("round", 0.0) < again.timings["round"]


def test_seed_and_tries_leave_the_relaxation_alone(fig3_gadget):
    for variant in ("profit", "cost"):
        config = PipelineConfig(variant=variant)
        relaxation = relax(fig3_gadget, config)
        for other in (
            dataclasses.replace(config, seed=5),
            dataclasses.replace(config, max_tries=3),
        ):
            assert relax(fig3_gadget, other) == relaxation
        assert relax(fig3_gadget, dataclasses.replace(config, beta=9.0)) != relaxation


def test_negative_seed_fails_in_config_before_any_stage(fig3_gadget, monkeypatch):
    def no_stage(*args, **kwargs):
        raise AssertionError("a stage ran")

    empty = Instance(name="empty", substrate=fig3_gadget.substrate, requests=())
    relaxation = relax(fig3_gadget, PipelineConfig())
    monkeypatch.setattr(vnembed.pipeline, "validate_instance", no_stage)
    for instance in (fig3_gadget, empty):
        with pytest.raises(PipelineError) as err:
            run_pipeline(instance, PipelineConfig(seed=-1))
        assert err.value.stage == "config"
        assert str(err.value) == "[config] seed must be nonnegative, got -1"
    for seed, max_tries, message in (
        (-1, 16, "seed must be nonnegative, got -1"),
        (0, 0, "max_tries must be at least 1, got 0"),
    ):
        with pytest.raises(PipelineError) as err:
            round_relaxation(relaxation, seed, max_tries)
        assert err.value.stage == "config"
        assert message in str(err.value)
