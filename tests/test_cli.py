"""End-to-end command line coverage, driven in process."""

from __future__ import annotations

import concurrent.futures
import filecmp
import json

import numpy as np
import pytest

from vnembed import (
    PipelineConfig,
    PipelineError,
    Request,
    SubstrateGraph,
    build_mcf,
    dump_instance,
    load_instance,
    run_pipeline,
    validate_instance,
)
import vnembed.cli
import vnembed.oracle
import vnembed.pipeline
from vnembed.cli import main
from vnembed.decomposition import DecompositionCheck
from vnembed.instances import Instance
from vnembed.lpmodel import LPSolution


def _generate(tmp_path, name, stem=None):
    path = tmp_path / f"{stem or name.replace(':', '-')}.json"
    assert main(["generate", name, "--out", str(path)]) == 0
    return path


def test_generate_list_names(capsys):
    assert main(["generate", "--list"]) == 0
    names = json.loads(capsys.readouterr().out)
    assert "fig3" in names
    assert any(n.startswith("tree:") for n in names)


def test_generate_unknown_scenario(capsys):
    # a fixture that takes no argument does not take an empty one either
    for name in ("no-such-scenario", "fig3:"):
        assert main(["generate", name]) == 2
        assert capsys.readouterr().err == f"error: unknown scenario {name!r}\n"


def test_validate_roundtrip(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    assert main(["validate", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report == {"ok": True, "issues": []}


def _broken_fig3(tmp_path):
    """fig3 with a negative node capacity and a negative profit."""
    data = json.loads(_generate(tmp_path, "fig3").read_text())
    data["substrate"]["nodes"][0]["types"][0]["capacity"] = -1.0
    data["requests"][0]["profit"] = -2.0
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    return broken


# every command that validates its instance before it does its work; the
# decompose entry is completed with a solution file of the intact fig3
STAGE_COMMANDS = [["round"], ["width"], ["solve-lp"], ["decompose"], ["exact"]]


def _stage_argv(tmp_path, command, instance):
    argv = [command[0], str(instance), *command[1:]]
    if command[0] == "decompose":
        solution = tmp_path / "fig3-solution.json"
        if not solution.exists():
            fig3 = _generate(tmp_path, "fig3", stem="fig3-intact")
            assert main(["solve-lp", str(fig3), "--solution-out", str(solution),
                         "--out", str(tmp_path / "fig3-lp.json")]) == 0
        argv.insert(2, str(solution))
    return argv


def test_validate_flags_broken_instances(tmp_path, capsys):
    broken = _broken_fig3(tmp_path)
    assert main(["validate", str(broken)]) == 2
    report = json.loads(capsys.readouterr().out)
    assert not report["ok"]
    assert any(issue["code"] == "bad-capacity" for issue in report["issues"])


@pytest.mark.parametrize(
    "path, value, code",
    [
        (("requests", 0, "nodes", 0, "demand"), float("nan"), "bad-demand"),
        (("requests", 0, "profit"), float("inf"), "bad-profit"),
        (("substrate", "edges", 0, "cost"), float("nan"), "bad-cost"),
        (("substrate", "edges", 0, "capacity"), float("inf"), "bad-capacity"),
        (("requests", 0, "edges", 0, "demand"), float("inf"), "bad-demand"),
        (
            ("substrate", "nodes", 0, "types", 0, "capacity"),
            float("inf"),
            "bad-capacity",
        ),
        (
            ("requests", 0, "nodes", 0, "allowed_nodes"),
            lambda hosts: [hosts[0], *hosts],
            "duplicate-allowed",
        ),
        (
            ("requests", 0, "edges", 0, "allowed_edges"),
            lambda edges: [edges[0], *edges],
            "duplicate-allowed",
        ),
    ],
    ids=[
        "node-demand-nan", "profit-inf", "edge-cost-nan", "edge-capacity-inf",
        "edge-demand-inf", "node-capacity-inf", "allowed-node-repeated",
        "allowed-edge-repeated",
    ],
)
def test_validate_rejects_non_finite_numbers(tmp_path, capsys, path, value, code):
    # Python's json reads NaN and Infinity; they must not reach the solver.
    # Nor must a repeated entry in an allowed set (a callable value maps
    # the entry's old value to the new one), which would duplicate columns.
    data = json.loads(_generate(tmp_path, "fig3").read_text())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value(target[path[-1]]) if callable(value) else value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert main(["validate", str(broken)]) == 2
    issues = capsys.readouterr().out
    report = json.loads(issues)
    assert code in {issue["code"] for issue in report["issues"]}
    with pytest.raises(PipelineError) as err:
        run_pipeline(load_instance(broken), PipelineConfig())
    assert err.value.stage == "validate"
    assert code in {issue.code for issue in err.value.report.issues}
    # the stage commands print validate's report, byte for byte
    for command in STAGE_COMMANDS:
        assert main(_stage_argv(tmp_path, command, broken)) == 2
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (issues, ""), command


@pytest.mark.parametrize("command", STAGE_COMMANDS, ids=lambda c: c[0])
def test_stage_commands_write_the_issues_to_out(tmp_path, capsys, command):
    broken = _broken_fig3(tmp_path)
    assert main(["validate", str(broken), "--out", str(tmp_path / "v.json")]) == 2
    out = tmp_path / "out.json"
    argv = _stage_argv(tmp_path, command, broken)
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().out == ""
    assert out.read_text() == (tmp_path / "v.json").read_text()


def test_run_names_the_failed_checks_of_an_invalid_instance(tmp_path, capsys):
    broken = _broken_fig3(tmp_path)
    assert main(["run", str(broken)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: [validate] bad-capacity: ")
    assert "; bad-profit: " in captured.err


def test_run_batch_names_the_failed_checks_of_an_invalid_instance(
    tmp_path, capsys
):
    good = _generate(tmp_path, "tree:3")
    broken = _broken_fig3(tmp_path)
    out_dir = tmp_path / "reports"
    assert main(["run", str(good), str(broken), "--out-dir", str(out_dir)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert lines[0] == f"{good}: exit 0 (accepted)"
    assert lines[1].startswith(f"{broken}: exit 2 ([validate] bad-capacity: ")
    assert "; bad-profit: " in lines[1]
    assert (out_dir / "tree-3.report.json").exists()
    assert not (out_dir / "broken.report.json").exists()


@pytest.mark.parametrize("command", ["round", "run"])
def test_round_and_run_validate_once(tmp_path, capsys, monkeypatch, command):
    calls = []

    def counting(substrate, requests):
        calls.append(len(requests))
        return validate_instance(substrate, requests)

    for module in (vnembed.cli, vnembed.pipeline):
        monkeypatch.setattr(module, "validate_instance", counting)
    path = _generate(tmp_path, "tree:3")
    assert main([command, str(path)]) == 0
    capsys.readouterr()
    assert calls == [1]


def test_width_reports_orders(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    assert main(["width", str(path), "--strategy", "exhaustive"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 1
    assert rows[0]["request"] == "triangle"
    assert rows[0]["width"] == 2
    assert set(rows[0]["labels"]) == {"i->j", "j->k", "k->i"}


def test_solve_lp_flow_formulation(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    assert main(["solve-lp", str(path), "--formulation", "mcf"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "optimal"
    assert out["objective"] == pytest.approx(1.0, abs=1e-6)
    fig3 = load_instance(path)
    model, _ = build_mcf(fig3.substrate, fig3.requests, "profit")
    assert out["variables"] == model.num_variables
    assert out["constraints"] == len(model.constraints)


@pytest.mark.parametrize(
    "command",
    [
        ["solve-lp", "--formulation", "mcf"],
        ["solve-lp", "--formulation", "novel"],
        ["run"],
    ],
    ids=["solve-lp-mcf", "solve-lp-novel", "run"],
)
def test_budget_overrun_is_an_input_failure(tmp_path, capsys, command):
    path = _generate(tmp_path, "fig3-cost-gadget")
    code = main([command[0], str(path), *command[1:], "--var-budget", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert "budget allows 1" in captured.err


@pytest.mark.parametrize("command", ["solve-lp", "run"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_var_budget_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    path = _generate(tmp_path, "tree:3")
    with pytest.raises(SystemExit) as err:
        main([command, str(path), "--var-budget", value])
    assert err.value.code == 2
    assert "--var-budget: must be at least 1" in capsys.readouterr().err


def test_solve_lp_decomposable_formulation(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    lp_text = tmp_path / "model.lp"
    assert (
        main(
            [
                "solve-lp",
                str(path),
                "--formulation",
                "novel",
                "--export-lp",
                str(lp_text),
            ]
        )
        == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["objective"] == pytest.approx(0.0, abs=1e-6)
    text = lp_text.read_text()
    assert text.startswith("Maximize")
    assert "Subject To" in text


def test_solve_lp_infeasible_cost_exits_three(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    code = main(["solve-lp", str(path), "--variant", "cost"])
    capsys.readouterr()
    assert code == 3
    sol = tmp_path / "solution.json"
    code = main(
        ["solve-lp", str(path), "--variant", "cost", "--solution-out", str(sol)]
    )
    assert capsys.readouterr().err == ""
    assert code == 3
    payload = json.loads(sol.read_text())
    assert payload["status"] == "infeasible"
    assert "values" not in payload


def test_solution_handoff_to_decompose(tmp_path, capsys):
    path = _generate(tmp_path, "tree:3")
    sol = tmp_path / "solution.json"
    assert (
        main(
            [
                "solve-lp",
                str(path),
                "--formulation",
                "mcf",
                "--solution-out",
                str(sol),
            ]
        )
        == 0
    )
    lp_out = json.loads(capsys.readouterr().out)
    (pinned,) = json.loads(sol.read_text())["orders"]
    assert pinned["root"] == load_instance(path).requests[0].nodes[0]
    assert main(["decompose", str(path), str(sol)]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows
    for row in rows:
        total = sum(entry["weight"] for entry in row["entries"])
        assert total == pytest.approx(row["total_weight"], abs=1e-9)
        assert 0.0 <= row["total_weight"] <= 1.0 + 1e-6
    # with every request fully accepted the LP objective is the profit sum
    assert lp_out["objective"] >= max(r["total_weight"] for r in rows) - 1e-6


def test_solution_file_pins_the_orders(tmp_path, capsys, monkeypatch):
    import vnembed.cli as cli
    from vnembed import build_extraction_order, label_order

    path = _generate(tmp_path, "halfwheel:4")
    sol = tmp_path / "solution.json"
    # solve with the hub-rooted BFS order, wider than what the search finds
    monkeypatch.setattr(
        cli, "min_width_order_search",
        lambda graph, strategy: label_order(build_extraction_order(graph, "c")),
    )
    assert main(["solve-lp", str(path), "--solution-out", str(sol)]) == 0
    lp_out = json.loads(capsys.readouterr().out)
    monkeypatch.undo()
    payload = json.loads(sol.read_text())
    (pinned,) = payload["orders"]
    assert pinned["request"] == "halfwheel4"
    assert pinned["root"] == "c"
    assert len(pinned["reversed"]) == 7 and not any(pinned["reversed"][:4])

    assert main(["decompose", str(path), str(sol)]) == 0
    (row,) = json.loads(capsys.readouterr().out)
    assert row["total_weight"] == pytest.approx(lp_out["objective"], abs=1e-6)

    # without the pinned orders the search picks a narrower order, whose
    # model does not match the recorded values
    del payload["orders"]
    sol.write_text(json.dumps(payload))
    assert main(["decompose", str(path), str(sol)]) == 2
    assert "values" in capsys.readouterr().err

    payload["orders"] = [dict(pinned, root="w02")]
    sol.write_text(json.dumps(payload))
    assert main(["decompose", str(path), str(sol)]) == 2
    assert "error:" in capsys.readouterr().err


def test_decompose_rejects_mismatched_solution(tmp_path, capsys):
    path = _generate(tmp_path, "tree:3")
    sol = tmp_path / "solution.json"
    sol.write_text(
        json.dumps(
            {"formulation": "mcf", "variant": "profit", "values": [0.5]}
        )
    )
    assert main(["decompose", str(path), str(sol)]) == 2
    assert "values" in capsys.readouterr().err


def test_decompose_rejects_mcf_solution_of_cyclic_request(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    sol = tmp_path / "solution.json"
    assert main(
        ["solve-lp", str(path), "--formulation", "mcf", "--solution-out", str(sol)]
    ) == 0
    capsys.readouterr()
    assert main(["decompose", str(path), str(sol)]) == 2
    assert "not a tree" in capsys.readouterr().err


@pytest.mark.parametrize("values",[None, 0.5, {"0": 0.5}, [[0.5]], ["x"], [None]])
def test_decompose_rejects_malformed_values(tmp_path, capsys, values):
    path = _generate(tmp_path, "fig3-cost-gadget")
    sol = tmp_path / "solution.json"
    sol.write_text(
        json.dumps({"formulation": "novel", "variant": "cost", "values": values})
    )
    assert main(["decompose", str(path), str(sol)]) == 2
    assert "values" in capsys.readouterr().err


@pytest.mark.parametrize(
    "payload",
    [5, "formulation variant values", ["formulation", "variant", "values"]],
    ids=["number", "string", "list"],
)
def test_decompose_rejects_a_solution_that_is_no_object(tmp_path, capsys, payload):
    path = _generate(tmp_path, "fig3-cost-gadget")
    sol = tmp_path / "solution.json"
    sol.write_text(json.dumps(payload))
    assert main(["decompose", str(path), str(sol)]) == 2
    err = capsys.readouterr().err
    assert f"solution file must hold a JSON object, got {payload!r}" in err


@pytest.mark.parametrize("kind", ["directory", "missing"])
@pytest.mark.parametrize("command", ["width", "run", "decompose"])
def test_input_path_that_is_no_file_is_an_input_error(
    tmp_path, capsys, command, kind
):
    # a directory fails as a missing file does, for an instance and for a
    # solution file
    unreadable = tmp_path / "inputs"
    if kind == "directory":
        unreadable.mkdir()
    argv = [command, str(unreadable)]
    if command == "decompose":
        argv = [command, str(_generate(tmp_path, "fig3")), str(unreadable)]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and str(unreadable) in captured.err
    assert captured.out == ""


def _gadget_solution(tmp_path, capsys):
    path = _generate(tmp_path, "fig3-cost-gadget")
    sol = tmp_path / "solution.json"
    assert main(["solve-lp", str(path), "--solution-out", str(sol)]) == 0
    capsys.readouterr()
    return path, sol, json.loads(sol.read_text())


def test_decompose_rejects_unknown_formulation(tmp_path, capsys):
    path, sol, payload = _gadget_solution(tmp_path, capsys)
    payload["formulation"] = "foo"
    sol.write_text(json.dumps(payload))
    assert main(["decompose", str(path), str(sol)]) == 2
    assert "unknown formulation 'foo'" in capsys.readouterr().err


@pytest.mark.parametrize(
    "tamper, code",
    [
        (lambda values: values, 0),
        (lambda values: [float("nan")] + values[1:], 2),
        (lambda values: [float("inf")] + values[1:], 2),
        (lambda values: [-v for v in values], 2),
        # the same numbers, with every 0 and 1 written as a JSON boolean
        (lambda values: [bool(v) if v in (0.0, 1.0) else v for v in values], 2),
    ],
    ids=["valid", "nan", "infinity", "negated", "booleans"],
)
def test_decompose_rejects_values_off_the_model(tmp_path, capsys, tamper, code):
    path, sol, payload = _gadget_solution(tmp_path, capsys)
    assert payload["objective"] > 0.5
    payload["values"] = tamper(payload["values"])
    sol.write_text(json.dumps(payload))
    assert main(["decompose", str(path), str(sol)]) == code
    captured = capsys.readouterr()
    if code == 0:
        (row,) = json.loads(captured.out)
        assert row["total_weight"] == pytest.approx(payload["objective"], abs=1e-6)
    else:
        assert "values" in captured.err


@pytest.mark.parametrize(
    "scale, seed",
    [
        pytest.param(5e-7, 0, id="0"),
        pytest.param(5e-7, 1, id="1"),
        pytest.param(5e-7, 2, id="2"),
        # points that extraction happened to peel apart despite the noise
        pytest.param(2e-7, 2, id="2e-07-2"),
        pytest.param(2e-7, 3, id="2e-07-3"),
        pytest.param(5e-7, 3, id="5e-07-3"),
    ],
)
def test_decompose_names_a_point_too_far_off_the_model_to_decompose(
    tmp_path, capsys, scale, seed
):
    # noise leaves the point off the model by more than extraction's EPS,
    # so the file check refuses it before any decomposition runs
    path = _generate(tmp_path, "fig3-cost-gadget")
    sol = tmp_path / "solution.json"
    argv = ["solve-lp", str(path), "--variant", "cost", "--solution-out", str(sol)]
    assert main(argv) == 0
    capsys.readouterr()
    assert main(["decompose", str(path), str(sol)]) == 0
    capsys.readouterr()
    payload = json.loads(sol.read_text())
    values = np.array(payload["values"])
    positive = values > 0
    noise = np.random.default_rng(seed).uniform(-scale, scale, positive.sum())
    values[positive] += noise
    payload["values"] = values.tolist()
    sol.write_text(json.dumps(payload))
    assert main(["decompose", str(path), str(sol)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: solution 'values' violate the model by ")
    assert "(1e-09)" in captured.err


def test_decompose_accepts_every_optimal_solution_file(tmp_path, capsys):
    # the file check is as strict as extraction; no point solve-lp writes
    # may fall outside it (every LP here is optimal)
    for name in ("fig3-cost-gadget", "halfwheel:4", "tree:4", "cactus:6"):
        path = _generate(tmp_path, name)
        trees = all(
            len(req.edges) == len(req.nodes) - 1
            for req in load_instance(path).requests
        )
        for variant in ("profit", "cost"):
            for formulation in ("novel", "mcf") if trees else ("novel",):
                sol = tmp_path / "solution.json"
                argv = [
                    "solve-lp", str(path), "--variant", variant,
                    "--formulation", formulation, "--solution-out", str(sol),
                ]
                assert main(argv) == 0
                capsys.readouterr()
                assert main(["decompose", str(path), str(sol)]) == 0, (
                    name, variant, formulation, capsys.readouterr().err
                )
                capsys.readouterr()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_decompose_prints_only_verified_decompositions(
    tmp_path, capsys, monkeypatch, to_file
):
    path, sol, _ = _gadget_solution(tmp_path, capsys)
    failed = DecompositionCheck(
        completeness_error=0.25, worst_overuse=0.0, invalid=[]
    )
    monkeypatch.setattr(
        vnembed.pipeline, "verify_decomposition", lambda *args: failed
    )
    out = tmp_path / "decomposition.json"
    argv = ["decompose", str(path), str(sol)] + (["--out", str(out)] * to_file)
    assert main(argv) == 5
    captured = capsys.readouterr()
    assert captured.out == ""
    assert not out.exists()
    assert captured.err == (
        "error: [decompose] request 'triangle': completeness error 0.25, "
        "overuse 0, invalid []\n"
    )


def test_exact_on_restricted_triangle(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    assert main(["exact", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["status"] == "optimal"
    assert out["objective"] == pytest.approx(0.0, abs=1e-9)
    assert out["num_mappings"] == [0]


def test_exact_cost_gadget(tmp_path, capsys):
    path = _generate(tmp_path, "fig3-cost-gadget")
    assert (
        main(["exact", str(path), "--variant", "cost", "--relaxation", "ip"]) == 0
    )
    out = json.loads(capsys.readouterr().out)
    assert out["objective"] == pytest.approx(105.0)
    entries = out["assignment"][0]["entries"]
    assert len(entries) == 1
    assert entries[0]["node_map"] == {"i": "u1", "j": "u2", "k": "u3"}


@pytest.mark.parametrize("relaxation", ["lp", "ip"])
def test_exact_cost_without_valid_mappings_is_infeasible(
    tmp_path, capsys, relaxation
):
    # no valid mapping leaves the LP without variables but with the
    # unsatisfiable row "choose one mapping"
    path = _generate(tmp_path, "fig3")
    args = ["exact", str(path), "--variant", "cost", "--relaxation", relaxation]
    assert main(args) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"


def test_exact_separates_infeasible_from_solver_failure(
    tmp_path, capsys, monkeypatch
):
    # two requests that each fit the only host, but not together
    substrate = SubstrateGraph.build({"v1": {"vm": (1.5, 1.0)}}, {})
    requests = tuple(
        Request.build(name, {"x": ("vm", 1.0, ("v1",))}, {}, profit=1.0)
        for name in ("a", "b")
    )
    path = tmp_path / "crowded.json"
    dump_instance(Instance(name="crowded", substrate=substrate, requests=requests), path)
    args = ["exact", str(path), "--variant", "cost", "--relaxation", "lp"]
    assert main(args) == 3
    assert json.loads(capsys.readouterr().out)["status"] == "infeasible"

    def broken(model):
        return LPSolution(status="error", objective_value=None, values=None)

    monkeypatch.setattr(vnembed.oracle, "solve", broken)
    assert main(["exact", str(path), "--relaxation", "lp"]) == 5
    assert json.loads(capsys.readouterr().out)["status"] == "error"


def test_exact_truncation_asks_for_higher_cap(tmp_path, capsys):
    hosts = ("v1", "v2", "v3")
    substrate = SubstrateGraph.build(
        {u: {"vm": (5.0, 1.0)} for u in hosts},
        {(a, b): (5.0, 1.0) for a in hosts for b in hosts if a != b},
    )
    req = Request.build("solo", {"x": ("vm", 1.0, hosts)}, {}, profit=1.0)
    path = tmp_path / "k3.json"
    dump_instance(Instance(name="k3", substrate=substrate, requests=(req,)), path)
    assert main(["exact", str(path), "--cap", "1"]) == 2
    assert "raise --cap" in capsys.readouterr().err


def test_exact_cap_equal_to_the_count_is_complete(tmp_path, capsys):
    # the gadget's request has exactly one mapping
    path = _generate(tmp_path, "fig3-cost-gadget")
    assert main(["exact", str(path), "--variant", "cost", "--cap", "1"]) == 0
    assert json.loads(capsys.readouterr().out)["num_mappings"] == [1]


def test_exact_cap_below_one_is_a_usage_error(tmp_path, capsys):
    path = _generate(tmp_path, "fig3-cost-gadget")
    with pytest.raises(SystemExit) as err:
        main(["exact", str(path), "--cap", "0"])
    assert err.value.code == 2
    assert "--cap: must be at least 1" in capsys.readouterr().err


def test_round_profit_writes_report_and_csv(tmp_path, capsys):
    path = _generate(tmp_path, "tree:3")
    csv_path = tmp_path / "tries.csv"
    out_path = tmp_path / "round.json"
    code = main(
        [
            "round",
            str(path),
            "--variant",
            "profit",
            "--seed",
            "7",
            "--csv",
            str(csv_path),
            "--out",
            str(out_path),
        ]
    )
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["accepted"] is True
    assert report["seed"] == 7
    assert report["objective"] > 0.0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "try,objective,max_node_utilization,max_edge_utilization,accepted"
    assert len(lines) == 1 + report["tries_used"]


def test_round_is_byte_deterministic(tmp_path):
    path = _generate(tmp_path, "tree:5")
    outs = []
    for k in range(2):
        out = tmp_path / f"run{k}.json"
        main(["round", str(path), "--seed", "11", "--out", str(out)])
        outs.append(out)
    assert filecmp.cmp(*outs, shallow=False)


def test_round_unreachable_load_target_exits_four(tmp_path, capsys):
    path = _generate(tmp_path, "tree:3")
    code = main(
        [
            "round",
            str(path),
            "--beta",
            "1e-12",
            "--max-tries",
            "4",
            "--out",
            str(tmp_path / "out.json"),
        ]
    )
    assert code == 4
    report = json.loads((tmp_path / "out.json").read_text())
    assert report["accepted"] is False


@pytest.mark.parametrize("command", ["round", "run"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_max_tries_below_one_is_a_usage_error(tmp_path, capsys, command, value):
    path = _generate(tmp_path, "tree:3")
    with pytest.raises(SystemExit) as err:
        main([command, str(path), "--max-tries", value])
    assert err.value.code == 2
    assert "--max-tries: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["round", "run"])
def test_negative_seed_is_a_usage_error(tmp_path, capsys, command):
    path = _generate(tmp_path, "tree:3")
    with pytest.raises(SystemExit) as err:
        main([command, str(path), "--seed", "-1"])
    assert err.value.code == 2
    assert "--seed: must be nonnegative, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "path, value, fragment",
    [
        (("substrate", "nodes", 0, "types", 0, "capacity"), None,
         "'capacity' in type 'vm' at 'u1' must be a number, got None"),
        (("requests", 0, "nodes", 0, "allowed_nodes"), 5,
         "'allowed_nodes' in request 'triangle' node 'i' must be a list, got 5"),
        (("substrate", "edges"), 5, "'edges' in substrate must be a list, got 5"),
        (("requests", 0, "profit"), [1],
         "'profit' in request 'triangle' must be a number, got [1]"),
        (("requests", 0, "edges", 0, "allowed_edges"), [5],
         "'allowed_edges' in request 'triangle' edge ('i', 'j') must list "
         "[tail, head] pairs, got [5]"),
        (("requests", 0, "id"), None,
         "'id' in request must be a string or an integer, got None"),
        (("requests", 0, "nodes", 0, "id"), [1],
         "'id' in request 'triangle' node must be a string or an integer, "
         "got [1]"),
        (("requests", 0, "nodes", 0, "type"), None,
         "'type' in request 'triangle' node 'i' must be a string or an "
         "integer, got None"),
        (("requests", 0, "edges", 0, "head"), {},
         "'head' in request 'triangle' edge must be a string or an integer, "
         "got {}"),
        (("requests", 0, "nodes", 0, "allowed_nodes"), ["u1", None],
         "'allowed_nodes' in request 'triangle' node 'i' must be a string or "
         "an integer, got None"),
        (("requests", 0, "edges", 0, "allowed_edges"), [["u1", 1.5]],
         "'allowed_edges' in request 'triangle' edge ('i', 'j') must be a "
         "string or an integer, got 1.5"),
        (("substrate", "nodes", 0, "id"), True,
         "'id' in substrate node must be a string or an integer, got True"),
        (("substrate", "nodes", 0, "types", 0, "type"), 1.5,
         "'type' in substrate node 'u1' must be a string or an integer, "
         "got 1.5"),
        (("substrate", "edges", 0, "tail"), None,
         "'tail' in substrate edge must be a string or an integer, got None"),
        (("substrate", "nodes", 0, "types", 0, "capacity"), True,
         "'capacity' in type 'vm' at 'u1' must be a number, got True"),
        (("requests", 0, "nodes", 0, "demand"), False,
         "'demand' in request 'triangle' node 'i' must be a number, got False"),
        (("name",), {"a": 1},
         "'name' in instance must be a string or an integer, got {'a': 1}"),
        (("name",), [1],
         "'name' in instance must be a string or an integer, got [1]"),
        (("name",), True,
         "'name' in instance must be a string or an integer, got True"),
    ],
    ids=[
        "capacity-null", "allowed-nodes-int", "edges-int", "profit-list",
        "allowed-edges-int", "request-id-null", "request-node-id-list",
        "request-node-type-null", "request-edge-head-dict",
        "allowed-nodes-entry-null", "allowed-edges-entry-float",
        "substrate-node-id-bool", "substrate-type-float", "substrate-tail-null",
        "capacity-bool", "demand-bool", "name-dict", "name-list", "name-bool",
    ],
)
@pytest.mark.parametrize("command", ["run", "validate"])
def test_malformed_fields_are_input_errors(
    tmp_path, capsys, command, path, value, fragment
):
    data = json.loads(_generate(tmp_path, "fig3").read_text())
    target = data
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] = value
    broken = tmp_path / "broken.json"
    broken.write_text(json.dumps(data))
    assert main([command, str(broken)]) == 2
    assert fragment in capsys.readouterr().err


def test_numbers_in_strings_stay_accepted(tmp_path, capsys):
    # whatever float() reads is still a number
    data = json.loads(_generate(tmp_path, "fig3-cost-gadget").read_text())
    data["substrate"]["nodes"][0]["types"][0]["cost"] = "1e1"
    data["requests"][0]["profit"] = " 2 "
    path = tmp_path / "strings.json"
    path.write_text(json.dumps(data))
    instance = load_instance(path)
    assert instance.requests[0].profit == 2.0
    assert main(["validate", str(path)]) == 0


def test_integer_ids_stay_accepted(tmp_path, capsys):
    # an integer id reads as its decimal string, wherever a name is expected
    def renamed(value):
        if isinstance(value, dict):
            return {key: renamed(item) for key, item in value.items()}
        if isinstance(value, list):
            return [renamed(item) for item in value]
        return 1 if value == "u1" else value

    data = renamed(json.loads(_generate(tmp_path, "fig3").read_text()))
    data["requests"][0]["id"] = 7
    path = tmp_path / "integers.json"
    path.write_text(json.dumps(data))
    instance = load_instance(path)
    assert instance.substrate.nodes[0] == "1"
    assert instance.requests[0].name == "7"
    assert instance.requests[0].allowed_nodes["i"] == ("1", "u4")
    assert main(["validate", str(path)]) == 0


def test_null_name_reads_as_no_name(tmp_path):
    data = json.loads(_generate(tmp_path, "fig3").read_text())
    data["name"] = None
    path = tmp_path / "unnamed.json"
    path.write_text(json.dumps(data))
    instance = load_instance(path)
    assert instance.name == ""
    dump_instance(instance, path)
    del data["name"]
    assert json.loads(path.read_text()) == data
    assert load_instance(path) == instance


def test_round_infeasible_cost_exits_three(tmp_path, capsys):
    path = _generate(tmp_path, "fig3")
    assert main(["round", str(path), "--variant", "cost"]) == 3
    assert "error:" in capsys.readouterr().err


def test_run_single_instance_report(tmp_path):
    path = _generate(tmp_path, "tree:3")
    out = tmp_path / "report.json"
    assert main(["run", str(path), "--seed", "2", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    for key in ("instance", "requests", "lp", "bounds", "decomposition", "rounding"):
        assert key in report
    assert all("width" in req for req in report["requests"])
    assert "timings" not in report


def test_run_multi_needs_out_dir(tmp_path, capsys):
    a = _generate(tmp_path, "tree:3")
    b = _generate(tmp_path, "tree:4")
    assert main(["run", str(a), str(b)]) == 2
    assert "out-dir" in capsys.readouterr().err


class _InlineExecutor:
    """Stands in for ``ProcessPoolExecutor``: records the pool size it was
    asked for and runs every task at submit, in this process."""

    sizes: list[int] = []

    def __init__(self, max_workers):
        self.sizes.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def submit(self, fn, *args):
        future = concurrent.futures.Future()
        future.set_result(fn(*args))
        return future


@pytest.mark.parametrize("jobs, workers", [("64", [2]), ("2", [2]), ("1", [])])
def test_run_pool_is_no_larger_than_the_batch(
    tmp_path, capsys, monkeypatch, jobs, workers
):
    monkeypatch.setattr(_InlineExecutor, "sizes", [])
    monkeypatch.setattr(
        vnembed.cli.concurrent.futures, "ProcessPoolExecutor", _InlineExecutor
    )
    paths = [str(_generate(tmp_path, name)) for name in ("tree:3", "tree:4")]
    out_dir = tmp_path / "reports"
    assert main(["run", *paths, "--jobs", jobs, "--out-dir", str(out_dir)]) == 0
    capsys.readouterr()
    assert _InlineExecutor.sizes == workers
    assert (out_dir / "tree-3.report.json").exists()
    assert (out_dir / "tree-4.report.json").exists()


@pytest.mark.parametrize("value", ["0", "-3"])
def test_jobs_below_one_is_a_usage_error(tmp_path, capsys, value):
    path = _generate(tmp_path, "tree:3")
    with pytest.raises(SystemExit) as err:
        main(["run", str(path), "--jobs", value])
    assert err.value.code == 2
    assert "--jobs: must be at least 1" in capsys.readouterr().err


def test_run_multi_instance_with_plot_data(tmp_path, capsys):
    a = _generate(tmp_path, "tree:3")
    b = _generate(tmp_path, "tree:4")
    out_dir = tmp_path / "reports"
    plot = tmp_path / "plot.csv"
    code = main(
        [
            "run",
            str(a),
            str(b),
            "--jobs",
            "2",
            "--out-dir",
            str(out_dir),
            "--plot-data",
            str(plot),
        ]
    )
    capsys.readouterr()
    assert code == 0
    assert (out_dir / "tree-3.report.json").exists()
    assert (out_dir / "tree-4.report.json").exists()
    assert (out_dir / "tree-3.tries.csv").exists()
    rows = plot.read_text().splitlines()
    assert rows[0] == "instance,request,metric,value"
    metrics = {line.split(",")[2] for line in rows[1:]}
    assert {"width", "lp_objective", "accepted"} <= metrics


def _plot_lines(path):
    return path.read_text().splitlines()


def test_run_plot_data_with_report_on_stdout(tmp_path, capsys):
    path = _generate(tmp_path, "tree:3")
    plot = tmp_path / "p.csv"
    assert main(["run", str(path), "--plot-data", str(plot)]) == 0
    report = json.loads(capsys.readouterr().out)
    rows = _plot_lines(plot)
    assert rows[0] == "instance,request,metric,value"
    tries = report["rounding"]["tries_used"]
    assert f"{report['instance']},-,tries_used,{tries}" in rows
    assert len(rows) > 1 + len(report["requests"])


def test_failed_run_plots_no_stale_report(tmp_path, capsys):
    path = _generate(tmp_path, "tree:3")
    out_dir = tmp_path / "out"
    assert main(["run", str(path), "--out-dir", str(out_dir)]) == 0
    assert (out_dir / "tree-3.report.json").exists()
    plot = tmp_path / "p.csv"
    code = main([
        "run", str(path), "--out-dir", str(out_dir), "--var-budget", "1",
        "--plot-data", str(plot),
    ])
    assert code == 2
    assert "budget allows 1" in capsys.readouterr().err
    assert _plot_lines(plot) == ["instance,request,metric,value"]


def test_run_rejects_instances_that_share_a_stem(tmp_path, capsys):
    # both reports would land in out/x.report.json, the second over the first
    (tmp_path / "a").mkdir()
    (tmp_path / "b").mkdir()
    a = _generate(tmp_path / "a", "tree:3", stem="x")
    b = _generate(tmp_path / "b", "tree:4", stem="x")
    out_dir = tmp_path / "out"
    plot = tmp_path / "p.csv"
    code = main([
        "run", str(a), str(b), "--jobs", "2", "--out-dir", str(out_dir),
        "--plot-data", str(plot),
    ])
    assert code == 2
    err = capsys.readouterr().err
    assert "share a file stem" in err
    assert str(a) in err and str(b) in err
    assert not out_dir.exists()
    assert not plot.exists()


@pytest.mark.parametrize("option", ["--out", "--csv"])
def test_run_rejects_single_outputs_with_out_dir(tmp_path, capsys, option):
    path = _generate(tmp_path, "tree:3")
    target = tmp_path / "single.out"
    out_dir = tmp_path / "out"
    code = main(["run", str(path), "--out-dir", str(out_dir), option, str(target)])
    assert code == 2
    assert f"{option} {target} cannot be combined with --out-dir" in (
        capsys.readouterr().err
    )
    assert not out_dir.exists()
    assert not target.exists()
