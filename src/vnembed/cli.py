"""Command line driver.

Subcommands: validate, width, solve-lp, decompose, round, exact,
generate, run. All outputs are JSON (or CSV for per-try diagnostics) to
stdout or ``--out``. Exit codes: 0 success, 2 validation or input
failure (a variable-budget overrun and an unreadable or unwritable path
included), 3 LP infeasible, 4 rounding unaccepted, 5 internal error.

Each instance is validated once, by ``pipeline.require_valid``: the
stage commands call it first, ``round`` and ``run`` through
``run_pipeline``. On an invalid instance, ``round`` and the stage
commands print the issues JSON that ``validate`` prints, to stdout or
``--out``. ``run`` prints the failed checks, ``[validate] code:
message; ...``, on stderr instead.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import csv
import json
import reprlib
import sys
from pathlib import Path

import numpy as np

from ._version import __version__
from .decomposition import decompose_novel
from .extraction import (
    Digraph,
    ExtractionError,
    flow_labeling,
    label_order,
    min_width_order_search,
    orientation_from_flags,
)
from .formulations import BudgetExceededError, build_novel, flow_orders
from .instances import (
    Instance,
    InstanceFormatError,
    dumps_instance,
    load_instance,
)
from .lpmodel import max_violation, solve, write_lp
from .model import ValidationReport, validate_instance
from .oracle import DEFAULT_MAPPING_CAP, solve_enumerative
from .pipeline import (
    PipelineConfig,
    PipelineError,
    mapping_to_dict,
    require_valid,
    run_pipeline,
    try_records_csv,
)
from .rounding import MAX_TRIES_DEFAULT
from .scenarios import SCENARIO_NAMES, scenario_instance

EXIT_OK = 0
EXIT_INVALID = 2
EXIT_INFEASIBLE = 3
EXIT_UNACCEPTED = 4
EXIT_INTERNAL = 5

FORMULATIONS = ("mcf", "novel")
# Largest row or bound violation a solution file's values may show.
POINT_TOL = 1e-6


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_json(data, out: str | None) -> None:
    _emit(json.dumps(data, indent=2, sort_keys=True) + "\n", out)


def _load(path: str) -> Instance:
    instance = load_instance(path)
    require_valid(instance)
    return instance


def _issues(report: ValidationReport) -> dict:
    issues = [{"code": i.code, "message": i.message} for i in report.issues]
    return {"ok": report.ok, "issues": issues}


def cmd_validate(args) -> int:
    instance = load_instance(args.instance)
    report = validate_instance(instance.substrate, instance.requests)
    _emit_json(_issues(report), args.out)
    return EXIT_OK if report.ok else EXIT_INVALID


def cmd_width(args) -> int:
    instance = _load(args.instance)
    rows = []
    for req in instance.requests:
        graph = Digraph.build(req.nodes, req.edges)
        labeled = min_width_order_search(graph, strategy=args.strategy)
        order = labeled.order
        rows.append(
            {
                "request": req.name,
                "root": order.root,
                "width": labeled.width,
                "labels": {
                    f"{oe.original[0]}->{oe.original[1]}": list(labeled.labels[k])
                    for k, oe in enumerate(order.edges)
                },
                "bags": {
                    node: [
                        {
                            "edges": [
                                "{}->{}".format(*order.edges[k].original)
                                for k in bag.edges
                            ],
                            "labels": list(bag.labels),
                        }
                        for bag in bags
                    ]
                    for node, bags in labeled.bags.items()
                    if bags
                },
            }
        )
    _emit_json(rows, args.out)
    return EXIT_OK


def _orders(instance: Instance, formulation: str, strategy: str):
    """Labeled orders for either relaxation: those of ``build_mcf`` for
    ``mcf``, a search with ``strategy`` for the decomposable one."""
    if formulation == "mcf":
        return flow_orders(instance.requests)
    return [
        min_width_order_search(Digraph.build(req.nodes, req.edges), strategy=strategy)
        for req in instance.requests
    ]


def _pinned_orders(instance: Instance, formulation: str, pinned):
    """Rebuild the orders a solution file recorded: per request its root and
    one reversal flag per edge of ``Digraph.build(req.nodes, req.edges)``."""
    if not isinstance(pinned, list) or len(pinned) != len(instance.requests):
        raise InstanceFormatError("solution needs one order per request")
    labeling = flow_labeling if formulation == "mcf" else label_order
    orders = []
    for req, entry in zip(instance.requests, pinned):
        if not isinstance(entry, dict) or entry.get("request") != req.name:
            raise InstanceFormatError(
                f"solution orders do not match request {req.name!r}"
            )
        flags = entry.get("reversed")
        if not isinstance(flags, list) or not all(isinstance(f, bool) for f in flags):
            raise InstanceFormatError(
                f"solution order of {req.name!r} needs a list of boolean flags"
            )
        graph = Digraph.build(req.nodes, req.edges)
        orders.append(
            labeling(orientation_from_flags(graph, entry.get("root"), flags))
        )
    return orders


def cmd_solve_lp(args) -> int:
    instance = _load(args.instance)
    orders = _orders(instance, args.formulation, args.strategy)
    model, _ = build_novel(
        instance.substrate, instance.requests, orders, args.variant,
        var_budget=args.var_budget,
    )
    if args.export_lp:
        Path(args.export_lp).write_text(write_lp(model))
    solution = solve(model)
    _emit_json(
        {
            "formulation": args.formulation,
            "variant": args.variant,
            "status": solution.status,
            "objective": solution.objective_value,
            "variables": model.num_variables,
            "constraints": model.num_rows,
        },
        args.out,
    )
    if args.solution_out:
        payload = {
            "formulation": args.formulation,
            "variant": args.variant,
            "strategy": args.strategy,
            "status": solution.status,
            "objective": solution.objective_value,
        }
        if solution.values is not None:
            payload["values"] = [float(v) for v in solution.values]
        # pin the orders: decompose must pair these values with this exact
        # model, whatever the search would return later
        payload["orders"] = [
            {
                "request": req.name,
                "root": labeled.order.root,
                "reversed": [e.reversed for e in labeled.order.edges],
            }
            for req, labeled in zip(instance.requests, orders)
        ]
        Path(args.solution_out).write_text(
            json.dumps(payload, indent=2) + "\n"
        )
    if solution.status == "infeasible":
        return EXIT_INFEASIBLE
    if not solution.optimal:
        return EXIT_INTERNAL
    return EXIT_OK


def cmd_decompose(args) -> int:
    instance = _load(args.instance)
    payload = json.loads(Path(args.solution).read_text())
    if not isinstance(payload, dict):
        raise InstanceFormatError(
            f"solution file must hold a JSON object, got {reprlib.repr(payload)}"
        )
    for key in ("formulation", "variant", "values"):
        if key not in payload:
            raise InstanceFormatError(f"solution file lacks {key!r}")
    formulation = payload["formulation"]
    if formulation not in FORMULATIONS:
        raise InstanceFormatError(
            f"unknown formulation {formulation!r}; expected one of {FORMULATIONS}"
        )
    if formulation == "mcf":
        for req in instance.requests:
            if len(req.edges) != len(req.nodes) - 1:
                raise InstanceFormatError(
                    f"request {req.name!r} is not a tree; an mcf solution "
                    "decomposes only tree requests"
                )
    if "orders" in payload:
        orders = _pinned_orders(instance, formulation, payload["orders"])
    else:
        orders = _orders(
            instance, formulation, payload.get("strategy", "per-root-bfs")
        )
    model, index = build_novel(
        instance.substrate, instance.requests, orders, payload["variant"]
    )
    raw = payload["values"]
    if not isinstance(raw, list) or not all(
        isinstance(v, (int, float)) and not isinstance(v, bool) for v in raw
    ):
        raise InstanceFormatError("solution 'values' must be a flat list of numbers")
    values = np.asarray(raw, dtype=float)
    if values.shape != (model.num_variables,):
        raise InstanceFormatError(
            f"solution has {values.shape[0]} values, model has "
            f"{model.num_variables} variables"
        )
    if not np.isfinite(values).all():
        raise InstanceFormatError("solution 'values' must be finite numbers")
    violation = max_violation(model, values)
    if violation > POINT_TOL:
        raise InstanceFormatError(
            f"solution 'values' violate the model by {violation:.3g}"
        )
    out_rows = []
    for r, req in enumerate(instance.requests):
        state = index.request_state(values, r)
        dec = decompose_novel(instance.substrate, req, index.orders[r], state)
        out_rows.append(
            {
                "request": req.name,
                "entries": [
                    {"weight": entry.weight, **mapping_to_dict(entry.mapping)}
                    for entry in dec.entries
                ],
                "total_weight": dec.total_weight,
            }
        )
    _emit_json(out_rows, args.out)
    return EXIT_OK


def cmd_round(args) -> int:
    report, rounded = run_pipeline(load_instance(args.instance), _config(args))
    _emit_json(
        {
            "variant": rounded.variant,
            "seed": rounded.seed,
            "accepted": rounded.accepted,
            "tries_used": rounded.tries_used,
            "objective": rounded.objective_value,
            "bounds": report.bounds,
            "max_node_utilization": report.rounding["max_node_utilization"],
            "max_edge_utilization": report.rounding["max_edge_utilization"],
            "selection": report.rounding["selection"],
        },
        args.out,
    )
    if args.csv:
        Path(args.csv).write_text(try_records_csv(rounded))
    return EXIT_OK if rounded.accepted else EXIT_UNACCEPTED


def cmd_exact(args) -> int:
    instance = _load(args.instance)
    solution = solve_enumerative(
        instance.substrate, instance.requests, args.variant,
        relaxation=args.relaxation, cap=args.cap,
    )
    truncated = [
        enum.request.name for enum in solution.enumerations if enum.truncated
    ]
    if truncated:
        sys.stderr.write(
            f"enumeration truncated at cap={args.cap} for: "
            f"{', '.join(truncated)}; raise --cap\n"
        )
        return EXIT_INVALID
    assignment = []
    for r, picks in enumerate(solution.assignment):
        enum = solution.enumerations[r]
        assignment.append(
            {
                "request": instance.requests[r].name,
                "entries": [
                    {
                        "weight": weight,
                        **mapping_to_dict(enum.mappings[k]),
                    }
                    for weight, k in picks
                ],
            }
        )
    _emit_json(
        {
            "variant": args.variant,
            "relaxation": args.relaxation,
            "status": solution.status,
            "objective": solution.objective_value,
            "num_mappings": [len(e.mappings) for e in solution.enumerations],
            "assignment": assignment,
        },
        args.out,
    )
    if solution.status == "infeasible":
        return EXIT_INFEASIBLE
    return EXIT_OK if solution.status == "optimal" else EXIT_INTERNAL


def cmd_generate(args) -> int:
    if args.list:
        _emit_json(list(SCENARIO_NAMES), args.out)
        return EXIT_OK
    if not args.name:
        raise InstanceFormatError("scenario name required (or use --list)")
    instance = scenario_instance(args.name)
    _emit(dumps_instance(instance), args.out)
    return EXIT_OK


def _config(args) -> PipelineConfig:
    """The pipeline options of ``round`` and ``run``; ``round`` declares
    neither ``--var-budget`` nor ``--include-timings``."""
    return PipelineConfig(
        variant=args.variant,
        seed=args.seed,
        max_tries=args.max_tries,
        var_budget=getattr(args, "var_budget", None),
        alpha=args.alpha,
        beta=args.beta,
        gamma=args.gamma,
        include_timings=getattr(args, "include_timings", False),
    )


def _run_one(
    config: PipelineConfig, path: str, out: str | None, csv_out: str | None
) -> tuple[str, int, str, dict | None]:
    """Run one instance file; the last item is the report as written, or
    None if the run failed."""
    try:
        report, rounded = run_pipeline(load_instance(path), config)
        text = report.to_json(include_timings=config.include_timings)
        _emit(text, out)
        if csv_out:
            Path(csv_out).write_text(try_records_csv(rounded))
        code = EXIT_OK if rounded.accepted else EXIT_UNACCEPTED
        message = "accepted" if rounded.accepted else "unaccepted"
        return path, code, message, json.loads(text)
    except Exception as err:  # per-instance isolation for --jobs
        return path, _code_for(err), str(err), None


def _plot_rows(report_dict) -> list[tuple[str, str, str, str]]:
    rows = []
    name = report_dict["instance"]
    for req in report_dict["requests"]:
        rows.append((name, req["name"], "width", str(req["width"])))
    rows.append((name, "-", "lp_objective", str(report_dict["lp"]["objective"])))
    for dec in report_dict["decomposition"]:
        rows.append((name, dec["name"], "entries", str(dec["entries"])))
        rows.append((name, dec["name"], "total_weight", str(dec["total_weight"])))
    rnd = report_dict["rounding"]
    rows.append((name, "-", "accepted", str(int(rnd["accepted"]))))
    rows.append((name, "-", "tries_used", str(rnd["tries_used"])))
    rows.append((name, "-", "objective", str(rnd["objective"])))
    rows.append(
        (name, "-", "max_node_utilization", str(rnd["max_node_utilization"]))
    )
    rows.append(
        (name, "-", "max_edge_utilization", str(rnd["max_edge_utilization"]))
    )
    return rows


def cmd_run(args) -> int:
    config = _config(args)
    paths = args.instances
    if len(paths) > 1 and not args.out_dir:
        raise InstanceFormatError("multiple instances need --out-dir")
    plan = [(path, args.out, args.csv) for path in paths]
    if args.out_dir:
        single = [f"--{k} {v}" for k, v in (("out", args.out), ("csv", args.csv)) if v]
        if single:
            raise InstanceFormatError(
                f"{' and '.join(single)} cannot be combined with --out-dir"
            )
        stems = [Path(path).stem for path in paths]
        shared = [path for path, stem in zip(paths, stems) if stems.count(stem) > 1]
        if shared:
            raise InstanceFormatError(
                f"instances share a file stem, so their reports in --out-dir "
                f"would overwrite each other: {', '.join(shared)}"
            )
        out_dir = Path(args.out_dir)
        plan = [
            (path, str(out_dir / f"{stem}.report.json"),
             str(out_dir / f"{stem}.tries.csv"))
            for path, stem in zip(paths, stems)
        ]
        out_dir.mkdir(parents=True, exist_ok=True)

    jobs = min(args.jobs, len(plan))
    if jobs > 1:
        # a forked pool starts all its workers at the first submit
        with concurrent.futures.ProcessPoolExecutor(jobs) as pool:
            futures = [pool.submit(_run_one, config, *task) for task in plan]
            results = [f.result() for f in futures]
    else:
        results = [_run_one(config, *task) for task in plan]

    if args.plot_data:
        with open(args.plot_data, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(["instance", "request", "metric", "value"])
            for *_, report in results:
                if report is not None:
                    writer.writerows(_plot_rows(report))

    worst = EXIT_OK
    for path, code, message, _ in results:
        if len(results) > 1:
            sys.stderr.write(f"{path}: exit {code} ({message})\n")
        elif code not in (EXIT_OK, EXIT_UNACCEPTED):
            sys.stderr.write(f"error: {message}\n")
        if code != EXIT_OK and worst == EXIT_OK:
            worst = code
    return worst


def _code_for(err: Exception) -> int:
    if isinstance(err, PipelineError):
        # a budget overrun is the user's limit, not a fault of the program
        if err.stage == "validate" or isinstance(err.__cause__, BudgetExceededError):
            return EXIT_INVALID
        if err.infeasible:
            return EXIT_INFEASIBLE
        return EXIT_INTERNAL
    input_errors = (
        InstanceFormatError, ExtractionError, BudgetExceededError, ValueError,
        OSError,
    )
    if isinstance(err, input_errors):
        return EXIT_INVALID
    return EXIT_INTERNAL


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _nonnegative_int(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="vnembed",
        description="Virtual network embedding: width analysis, LPs, "
        "decomposition, randomized rounding.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--out", help="write output here instead of stdout")

    def pipeline_options(p):
        p.add_argument("--variant", choices=("profit", "cost"), default="profit")
        p.add_argument("--seed", type=_nonnegative_int, default=0)
        p.add_argument("--max-tries", type=_positive_int, default=MAX_TRIES_DEFAULT)
        p.add_argument("--alpha", type=float, default=None)
        p.add_argument("--beta", type=float, default=None)
        p.add_argument("--gamma", type=float, default=None)

    p = sub.add_parser("validate", help="check an instance file")
    p.add_argument("instance")
    common(p)
    p.set_defaults(fn=cmd_validate)

    p = sub.add_parser("width", help="extraction order analysis per request")
    p.add_argument("instance")
    p.add_argument(
        "--strategy", choices=("per-root-bfs", "exhaustive"),
        default="per-root-bfs",
    )
    common(p)
    p.set_defaults(fn=cmd_width)

    p = sub.add_parser("solve-lp", help="build and solve a relaxation")
    p.add_argument("instance")
    p.add_argument("--formulation", choices=FORMULATIONS, default="novel")
    p.add_argument("--variant", choices=("profit", "cost"), default="profit")
    p.add_argument(
        "--strategy", choices=("per-root-bfs", "exhaustive"),
        default="per-root-bfs",
    )
    p.add_argument("--var-budget", type=_positive_int, default=None)
    p.add_argument("--export-lp", help="also write the model in LP text format")
    p.add_argument("--solution-out", help="write variable values for decompose")
    common(p)
    p.set_defaults(fn=cmd_solve_lp)

    p = sub.add_parser("decompose", help="turn an LP solution into mappings")
    p.add_argument("instance")
    p.add_argument("solution", help="file written by solve-lp --solution-out")
    common(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("round", help="full pipeline, report the rounded solution")
    p.add_argument("instance")
    pipeline_options(p)
    p.add_argument("--csv", help="write per-try diagnostics CSV here")
    common(p)
    p.set_defaults(fn=cmd_round)

    p = sub.add_parser("exact", help="enumerative reference solver")
    p.add_argument("instance")
    p.add_argument("--variant", choices=("profit", "cost"), default="profit")
    p.add_argument("--relaxation", choices=("lp", "ip"), default="ip")
    p.add_argument("--cap", type=_positive_int, default=DEFAULT_MAPPING_CAP)
    common(p)
    p.set_defaults(fn=cmd_exact)

    p = sub.add_parser("generate", help="emit a named scenario instance")
    p.add_argument("name", nargs="?")
    p.add_argument("--list", action="store_true", help="list scenario names")
    common(p)
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("run", help="pipeline with full report, multi-instance")
    p.add_argument("instances", nargs="+")
    pipeline_options(p)
    p.add_argument("--var-budget", type=_positive_int, default=None)
    p.add_argument("--jobs", type=_positive_int, default=1)
    p.add_argument("--out-dir", help="per-instance reports land here")
    p.add_argument("--csv", help="per-try CSV (single instance only)")
    p.add_argument("--plot-data", help="tidy long-format CSV across instances")
    p.add_argument(
        "--include-timings", action="store_true",
        help="add wall-clock timings (breaks byte determinism)",
    )
    common(p)
    p.set_defaults(fn=cmd_run)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except Exception as err:
        if isinstance(err, PipelineError) and err.report is not None:
            # an invalid instance prints the report ``validate`` prints
            _emit_json(_issues(err.report), args.out)
        else:
            sys.stderr.write(f"error: {err}\n")
        return _code_for(err)


if __name__ == "__main__":
    sys.exit(main())
