"""The staged pipeline wrapper: reports, overrides, failure surfaces."""

from __future__ import annotations

import dataclasses
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lp_reference
import vnembed.formulations
import vnembed.pipeline
import vnembed.rounding

from vnembed import (
    Digraph,
    PipelineConfig,
    PipelineError,
    Request,
    SubstrateGraph,
    min_width_order_search,
    run_pipeline,
)
from vnembed.formulations import build_novel, count_novel_variables
from vnembed.instances import Instance
from vnembed.lpmodel import LPSolution, solve
from vnembed.rounding import preprocess_profit
from vnembed.scenarios import (
    monte_carlo_instance,
    scenario_instance,
    tree_corpus,
)


def test_unknown_variant_fails_in_config(fig3):
    with pytest.raises(PipelineError, match=r"\[config\]"):
        run_pipeline(fig3, PipelineConfig(variant="latency"))


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


def _broken(model):
    return LPSolution(status="error", objective_value=None, values=None)


def test_solo_lp_failure_surfaces_in_preprocess(fig3, monkeypatch):
    # fig3's request stays below acceptance 1 in the joint LP, so its solo
    # LP runs: the joint solve succeeds, every solo one fails
    calls = []

    def joint(model):
        calls.append(model)
        return solve(model)

    def solo(model, upper=None, objective=None):
        calls.append(model)
        return _broken(model)

    monkeypatch.setattr(vnembed.pipeline, "solve", joint)
    monkeypatch.setattr(vnembed.rounding, "solve", solo)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3, PipelineConfig(variant="profit"))
    assert len(calls) == 2
    assert calls[1] is calls[0]  # the solo LP re-solves the joint model
    assert err.value.stage == "preprocess"
    assert "solver returned error" in str(err.value)


def test_joint_lp_failure_stops_at_solve_lp(fig3_gadget, monkeypatch):
    monkeypatch.setattr(vnembed.pipeline, "solve", _broken)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="profit"))
    assert err.value.stage == "solve-lp"
    assert "solver returned error" in str(err.value)


def _timed_out(model, upper=None, objective=None):
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


WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def _cactus_batch() -> list[Instance]:
    """The 24 instances of the benchmark's ``cactus-profit`` batch, seed 1."""
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return [op.instance for op in workloads.cactus_profit(1)]


def _solo_corpus(name, request):
    if name == "mixed":
        return _mixed_instances()
    if name == "fig3":
        return [request.getfixturevalue("fig3")]
    if name == "seed-sweep":
        # the benchmark's seed-sweep batch: the rounding experiment's instances
        return [*tree_corpus(30, seed=777), monte_carlo_instance()]
    if name == "cactus":
        return _cactus_batch()
    return request.getfixturevalue(name)


@pytest.mark.parametrize(
    "corpus",
    ["tiny_corpus", "tree_corpus", "cost_corpus", "fig3", "mixed", "seed-sweep",
     "cactus"],
)
def test_solo_resolves_keep_what_solo_builds_keep(corpus, request):
    # every request of every instance, re-solved in place from the solved
    # joint LP, and (on the small corpora) passed afresh, must be kept or
    # dropped as its own solo LP, built and solved cold, decides
    decisions = set()
    for instance in _solo_corpus(corpus, request):
        orders = [
            min_width_order_search(Digraph.build(req.nodes, req.edges))
            for req in instance.requests
        ]
        reference = lp_reference.preprocess_profit(
            instance.substrate, instance.requests, orders
        )
        model, index = build_novel(
            instance.substrate, instance.requests, orders, "profit"
        )
        everyone = range(len(instance.requests))
        assert solve(model).optimal
        assert vnembed.lpmodel._held(model) is not None
        in_place = preprocess_profit(model, index, everyone)
        assert in_place == reference
        if corpus not in ("seed-sweep", "cactus"):
            solve(build_novel(instance.substrate, [], [], "profit")[0])
            assert preprocess_profit(model, index, everyone) == reference
        decisions.update(req.name in reference[2] for req in instance.requests)
    if corpus == "mixed":
        assert decisions == {True, False}


def test_preprocessing_needs_the_profit_lp(fig3):
    orders = [
        min_width_order_search(Digraph.build(req.nodes, req.edges))
        for req in fig3.requests
    ]
    model, index = build_novel(fig3.substrate, fig3.requests, orders, "cost")
    with pytest.raises(ValueError, match="profit LP"):
        preprocess_profit(model, index, [0])


def test_pipeline_builds_no_solo_model(monkeypatch):
    # preprocessing re-solves the joint model; the only builds are the joint
    # LP over every request and, once requests are dropped, over the kept ones
    built = []

    def recorded(name, fn):
        def wrapper(substrate, requests, *args, **kwargs):
            built.append((name, len(requests)))
            return fn(substrate, requests, *args, **kwargs)
        return wrapper

    for module in (vnembed.pipeline, vnembed.rounding, vnembed.formulations):
        monkeypatch.setattr(
            module, "build_novel",
            recorded(module.__name__, vnembed.formulations.build_novel),
        )
    for instance in _mixed_instances():
        built.clear()
        report, _ = run_pipeline(instance, PipelineConfig(variant="profit", seed=1))
        kept = sum(not row["dropped"] for row in report.requests)
        assert kept < len(instance.requests)
        assert built == [
            ("vnembed.pipeline", len(instance.requests)),
            ("vnembed.pipeline", kept),
        ]


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
    monkeypatch.setattr(vnembed.rounding, "mapping_cost", lambda *args: -1.0)
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


_COST_CAP_SCRIPT = """
import sys
from vnembed import (
    ConvexDecomposition, DecompositionEntry, GuaranteeError, Request,
    SubstrateGraph, ValidMapping, bounds_from_parameters, round_cost,
)
assert sys.flags.optimize
substrate = SubstrateGraph.build({"h": {"vm": (10.0, 3.0)}}, {})
req = Request.build("p", {"i": ("vm", 1.0, ("h",))}, {}, profit=1.0)
dec = ConvexDecomposition(
    request_name="p",
    entries=[DecompositionEntry(
        weight=1.0, mapping=ValidMapping(node_map={"i": "h"}, edge_map={}),
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
