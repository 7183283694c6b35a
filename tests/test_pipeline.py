"""The staged pipeline wrapper: reports, overrides, failure surfaces."""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import vnembed.pipeline
import vnembed.rounding

from vnembed import (
    PipelineConfig,
    PipelineError,
    Request,
    SubstrateGraph,
    run_pipeline,
)
from vnembed.instances import Instance
from vnembed.lpmodel import SOLVERS, LPSolution


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
    assert {"width", "build-lp", "solve-lp", "decompose", "round"} <= set(
        with_timings["timings"]
    )


def test_solo_lp_failure_surfaces_in_preprocess(fig3_gadget, monkeypatch):
    def broken(model):
        return LPSolution(
            status="error", objective_value=None, values=None, model=model,
            backend="broken",
        )

    monkeypatch.setitem(SOLVERS, "broken", broken)
    with pytest.raises(PipelineError) as err:
        run_pipeline(fig3_gadget, PipelineConfig(variant="profit", backend="broken"))
    assert err.value.stage == "preprocess"
    assert "solver returned error" in str(err.value)


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
