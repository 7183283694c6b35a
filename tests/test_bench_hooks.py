"""The benchmark tracer still finds every name it hooks in the package.

``perfbench/tracer.py`` wraps pipeline functions by name and lists a name
that no longer resolves as absent, so a rename would silently zero a
per-layer metric. These tests import the tracer as it is and run it.
"""

from __future__ import annotations

import functools
import importlib.util
import sys
from pathlib import Path

from vnembed import (
    Digraph,
    PipelineConfig,
    build_novel,
    min_width_order_search,
    run_pipeline,
)
from vnembed.formulations import NovelVariableIndex
from vnembed.scenarios import scenario_instance

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


@functools.cache
def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class body runs
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def test_every_hook_resolves():
    tracer = _tracer_module()
    assert "request_state" in vars(NovelVariableIndex)
    with tracer.Tracer().installed() as installed:
        assert installed.absent == []
    assert len(tracer.HOOKS) > 0


def test_traced_run_records_lp_size():
    tracer = _tracer_module()
    trace = tracer.Tracer()
    instance = scenario_instance("fig3-cost-gadget")
    with trace.installed():
        report, _ = run_pipeline(instance, PipelineConfig(variant="profit", seed=1))
    builds = [span for span in trace.spans if span.name == "pipeline:build_novel"]
    assert builds
    counts = builds[-1].counts
    assert counts["variables"] == report.lp["variables"]
    assert counts["rows"] == report.lp["constraints"]
    assert counts["nonzeros"] >= counts["rows"] > 0
    # the hooks are gone again once the tracer is uninstalled
    import vnembed.pipeline as pipeline
    from vnembed import formulations

    assert pipeline.build_novel is formulations.build_novel


def test_tracer_lp_size_matches_the_model():
    # the tracer counts rows and nonzeros through ``LPModel.constraints``,
    # a view rendered from the row buffers; it must agree with the buffers
    tracer = _tracer_module()
    for name in ("fig3-cost-gadget", "halfwheel:4"):
        instance = scenario_instance(name)
        orders = [
            min_width_order_search(Digraph.build(r.nodes, r.edges))
            for r in instance.requests
        ]
        for objective in ("profit", "cost"):
            result = build_novel(
                instance.substrate, instance.requests, orders, objective
            )
            model = result[0]
            span = tracer.Span("pipeline:build_novel", 0.0, 0.0, None, 0)
            tracer._model_size(span, result)
            assert span.counts == {
                "variables": model.num_variables,
                "rows": model.num_rows,
                "nonzeros": model.num_nonzeros,
            }
            assert model.num_rows > 0
