"""End-to-end embedding pipeline and its report.

Stages: validate, width analysis, joint LP construction and solve,
profit preprocessing, convex decomposition, cost pruning, randomized
rounding, verification. Failures surface as ``PipelineError`` carrying
the stage name.

The profit variant drops every request that cannot be fully accepted on
its own, but solves the joint LP over all requests first. A request the
joint LP accepts fully (up to ``WEIGHT_TOL``) is certified without a solo
LP: the joint solution restricted to its variables is feasible for its
solo LP, because demands are nonnegative, so its solo maximum acceptance
is at least as large. Only the remaining requests go through
``preprocess_profit``, which re-solves the joint LP just solved with the
other requests' columns held at 0: the thread's HiGHS object still holds
that LP, so each solo LP starts from the joint basis, and no solo model is
built. If it drops any, the joint LP is built and solved again, cold, over
the kept ones. Either way the final joint model is the one built over
exactly the requests that solo preprocessing would keep.

Reports serialize deterministically: keys are emitted in a fixed order
and wall-clock timings are left out unless explicitly requested, so two
runs with the same instance and seed produce byte-identical JSON.
"""

from __future__ import annotations

import csv
import dataclasses
import io
import json
import time
from dataclasses import dataclass, field
from typing import Any, Sequence

from ._version import __version__
from .decomposition import ConvexDecomposition, decompose_novel, verify_decomposition
from .extraction import Digraph, LabeledExtractionOrder, min_width_order_search
from .formulations import BudgetExceededError, NovelVariableIndex, build_novel
from .instances import Instance
from .lpmodel import BACKEND, LPModel, LPSolution, solve
from .model import (
    EDGE,
    NODE,
    ValidMapping,
    collection_feasible,
    mapping_cost,
    validate_instance,
)
from .rounding import (
    MAX_TRIES_DEFAULT,
    WEIGHT_TOL,
    GuaranteeError,
    RoundedSolution,
    RoundingBounds,
    check_tri_criteria,
    compute_bounds,
    preprocess_profit,
    prune_costly_mappings,
    round_cost,
    round_profit,
)

CONSISTENCY_TOL = 1e-6


class PipelineError(Exception):
    def __init__(self, stage: str, message: str, *, infeasible: bool = False):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.infeasible = infeasible


@dataclass(frozen=True)
class PipelineConfig:
    variant: str = "profit"
    seed: int = 0
    max_tries: int = MAX_TRIES_DEFAULT
    order_strategy: str = "per-root-bfs"
    var_budget: int | None = None
    alpha: float | None = None
    beta: float | None = None
    gamma: float | None = None
    include_timings: bool = False


@dataclass
class RunReport:
    version: str
    instance_name: str
    variant: str
    seed: int
    requests: list[dict[str, Any]]
    lp: dict[str, Any]
    bounds: dict[str, float]
    decomposition: list[dict[str, Any]]
    rounding: dict[str, Any]
    timings: dict[str, float] = field(default_factory=dict)

    def to_dict(self, include_timings: bool = False) -> dict[str, Any]:
        data = {
            "version": self.version,
            "instance": self.instance_name,
            "variant": self.variant,
            "seed": self.seed,
            "backend": BACKEND,
            "requests": self.requests,
            "lp": self.lp,
            "bounds": self.bounds,
            "decomposition": self.decomposition,
            "rounding": self.rounding,
        }
        if include_timings:
            data["timings"] = self.timings
        return data

    def to_json(self, include_timings: bool = False) -> str:
        return json.dumps(
            self.to_dict(include_timings), indent=2, sort_keys=True
        ) + "\n"


def mapping_to_dict(mapping: ValidMapping | None) -> dict[str, Any] | None:
    if mapping is None:
        return None
    return {
        "node_map": {i: u for i, u in sorted(mapping.node_map.items())},
        "edge_map": {
            f"{e[0]}->{e[1]}": [list(se) for se in path]
            for e, path in sorted(mapping.edge_map.items())
        },
    }


def try_records_csv(solution: RoundedSolution) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(
        ["try", "objective", "max_node_utilization", "max_edge_utilization",
         "accepted"]
    )
    for rec in solution.records:
        writer.writerow(
            [
                rec.index,
                f"{rec.objective:.9g}",
                f"{rec.max_node_utilization:.9g}",
                f"{rec.max_edge_utilization:.9g}",
                int(rec.accepted),
            ]
        )
    return buf.getvalue()


def run_pipeline(
    instance: Instance, config: PipelineConfig
) -> tuple[RunReport, RoundedSolution]:
    """Run every stage on one instance; returns the report plus the raw
    rounded solution (whose try records feed the diagnostics CSV)."""
    if config.variant not in ("profit", "cost"):
        raise PipelineError("config", f"unknown variant {config.variant!r}")
    if config.max_tries < 1:
        raise PipelineError(
            "config", f"max_tries must be at least 1, got {config.max_tries}"
        )
    timings: dict[str, float] = {}

    t0 = time.perf_counter()
    report = validate_instance(instance.substrate, instance.requests)
    timings["validate"] = time.perf_counter() - t0
    if not report.ok:
        raise PipelineError(
            "validate",
            "; ".join(f"{issue.code}: {issue.message}" for issue in report.issues),
        )

    t0 = time.perf_counter()
    labeled_orders: list[LabeledExtractionOrder] = []
    for req in instance.requests:
        graph = Digraph.build(req.nodes, req.edges)
        try:
            labeled_orders.append(
                min_width_order_search(graph, strategy=config.order_strategy)
            )
        except Exception as err:
            raise PipelineError("width", f"request {req.name!r}: {err}") from err
    timings["width"] = time.perf_counter() - t0

    request_rows = [
        {
            "name": req.name,
            "nodes": len(req.nodes),
            "edges": len(req.edges),
            "root": labeled.order.root,
            "width": labeled.width,
            "dropped": False,
        }
        for req, labeled in zip(instance.requests, labeled_orders)
    ]

    requests = list(instance.requests)
    orders = list(labeled_orders)
    model, index, solution = _solve_joint(
        instance, requests, orders, config, timings
    )
    if config.variant == "profit":
        # A request the joint LP fully accepts needs no solo LP: restricted
        # to its own variables, the joint solution meets every row of the
        # solo LP (a capacity row only loses the other requests' nonnegative
        # loads), so the solo maximum acceptance is at least the joint one.
        uncertified = [
            r for r in range(len(requests))
            if solution.values[index.columns[r].x] < 1.0 - WEIGHT_TOL
        ]
        timings["preprocess"] = 0.0
        if uncertified:
            t0 = time.perf_counter()
            try:
                _, _, dropped = preprocess_profit(model, index, uncertified)
            except Exception as err:
                raise PipelineError("preprocess", str(err)) from err
            timings["preprocess"] = time.perf_counter() - t0
            if dropped:
                for row in request_rows:
                    row["dropped"] = row["name"] in dropped
                kept = [
                    r for r, row in enumerate(request_rows) if not row["dropped"]
                ]
                requests = [requests[r] for r in kept]
                orders = [orders[r] for r in kept]
                model, index, solution = _solve_joint(
                    instance, requests, orders, config, timings
                )
    lp_objective = float(solution.objective_value)

    lp_row: dict[str, Any] = {
        "objective": round(lp_objective, 9),
        "status": solution.status,
        "variables": model.num_variables,
        "constraints": model.num_rows,
    }

    t0 = time.perf_counter()
    decompositions: list[ConvexDecomposition] = []
    # each entry's allocation, computed once by the check that validated it
    allocations: list[list[dict]] = []
    decomposition_rows = []
    for r, (req, labeled) in enumerate(zip(requests, orders)):
        state = index.request_state(solution.values, r)
        x_value = state.x
        try:
            dec = decompose_novel(instance.substrate, req, labeled, state)
        except Exception as err:
            raise PipelineError(
                "decompose", f"request {req.name!r}: {err}"
            ) from err
        check = verify_decomposition(
            instance.substrate, req, dec, x_value, state.a
        )
        if not check.ok:
            raise PipelineError(
                "decompose",
                f"request {req.name!r}: completeness error "
                f"{check.completeness_error:.3g}, overuse {check.worst_overuse:.3g}, "
                f"invalid {check.invalid}",
            )
        decompositions.append(dec)
        allocations.append(check.allocations)
        decomposition_rows.append(
            {
                "name": req.name,
                "entries": len(dec.entries),
                "total_weight": round(dec.total_weight, 9),
                "completeness_error": round(check.completeness_error, 12),
                "worst_overuse": round(check.worst_overuse, 12),
            }
        )
    timings["decompose"] = time.perf_counter() - t0

    try:
        bounds = compute_bounds(instance.substrate, requests, config.variant)
        bounds = _apply_overrides(bounds, config)
    except ValueError as err:
        raise PipelineError("bounds", str(err)) from err

    t0 = time.perf_counter()
    if config.variant == "profit":
        rounded = round_profit(
            instance.substrate, requests, decompositions, bounds, lp_objective,
            config.seed, config.max_tries, allocations,
        )
    else:
        pruned = []
        pruned_allocations = []
        prune_rows = []
        try:
            for req, dec, allocs in zip(requests, decompositions, allocations):
                norm, prep = prune_costly_mappings(instance.substrate, req, dec)
                pruned.append(norm)
                pruned_allocations.append([allocs[k] for k in prep.kept])
                prune_rows.append(
                    {
                        "name": req.name,
                        "cost_share": round(prep.cost_share, 9),
                        "surviving_weight": round(prep.surviving_weight, 9),
                        "removed": prep.removed,
                    }
                )
        except (ValueError, GuaranteeError) as err:
            raise PipelineError("prune", str(err)) from err
        for row, extra in zip(decomposition_rows, prune_rows):
            row["pruning"] = extra
        try:
            rounded = round_cost(
                instance.substrate, requests, pruned, bounds, lp_objective,
                config.seed, config.max_tries, pruned_allocations,
            )
        except GuaranteeError as err:
            raise PipelineError("round", str(err)) from err
    timings["round"] = time.perf_counter() - t0

    _verify_rounding(
        instance, requests, rounded, config.variant, bounds, lp_objective
    )

    rounding_row = {
        "accepted": rounded.accepted,
        "tries_used": rounded.tries_used,
        "objective": round(rounded.objective_value, 9),
        "max_node_utilization": round(_worst(rounded.utilization, NODE), 9),
        "max_edge_utilization": round(_worst(rounded.utilization, EDGE), 9),
        "selection": {
            name: mapping_to_dict(mapping)
            for name, mapping in sorted(rounded.selection.items())
        },
    }

    return RunReport(
        version=__version__,
        instance_name=instance.name,
        variant=config.variant,
        seed=config.seed,
        requests=request_rows,
        lp=lp_row,
        bounds={
            "epsilon": round(bounds.epsilon, 12),
            "delta_nodes": round(bounds.delta_nodes, 12),
            "delta_edges": round(bounds.delta_edges, 12),
            "alpha": round(bounds.alpha, 12),
            "beta": round(bounds.beta, 12),
            "gamma": round(bounds.gamma, 12),
        },
        decomposition=decomposition_rows,
        rounding=rounding_row,
        timings=timings,
    ), rounded


def _solve_joint(
    instance: Instance,
    requests: Sequence,
    orders: Sequence[LabeledExtractionOrder],
    config: PipelineConfig,
    timings: dict[str, float],
) -> tuple[LPModel, NovelVariableIndex, LPSolution]:
    """Build and solve the decomposable LP over ``requests``; the time spent
    adds to the ``build-lp`` and ``solve-lp`` stages."""
    t0 = time.perf_counter()
    try:
        model, index = build_novel(
            instance.substrate,
            requests,
            orders,
            config.variant,
            var_budget=config.var_budget,
        )
    except BudgetExceededError as err:
        raise PipelineError("build-lp", str(err)) from err
    t1 = time.perf_counter()
    solution = solve(model)
    t2 = time.perf_counter()
    timings["build-lp"] = timings.get("build-lp", 0.0) + t1 - t0
    timings["solve-lp"] = timings.get("solve-lp", 0.0) + t2 - t1
    if solution.status == "infeasible":
        raise PipelineError(
            "solve-lp", "LP infeasible (cost variant cannot embed all requests)",
            infeasible=True,
        )
    if not solution.optimal:
        raise PipelineError("solve-lp", f"solver returned {solution.outcome}")
    return model, index, solution


def _apply_overrides(
    bounds: RoundingBounds, config: PipelineConfig
) -> RoundingBounds:
    updates = {}
    if config.alpha is not None:
        updates["alpha"] = config.alpha
    if config.beta is not None:
        updates["beta"] = config.beta
    if config.gamma is not None:
        updates["gamma"] = config.gamma
    return dataclasses.replace(bounds, **updates) if updates else bounds


def _worst(utilization: dict, kind: str) -> float:
    return max(
        (used for res, used in utilization.items() if res[0] == kind),
        default=0.0,
    )


def _verify_rounding(
    instance: Instance,
    requests: Sequence,
    rounded: RoundedSolution,
    variant: str,
    bounds: RoundingBounds,
    lp_objective: float,
) -> None:
    """Recompute the rounded objective, loads and accept flag from the
    selection alone and raise ``PipelineError("verify", ...)`` on any
    disagreement with what the sampler reported."""
    by_name = {req.name: req for req in requests}
    embedded = []
    objective = 0.0
    for name, mapping in rounded.selection.items():
        if mapping is None:
            continue
        req = by_name[name]
        embedded.append((req, mapping))
        if variant == "profit":
            objective += req.profit
        else:
            objective += mapping_cost(instance.substrate, req, mapping)
    if abs(objective - rounded.objective_value) > CONSISTENCY_TOL:
        raise PipelineError(
            "verify",
            f"reported objective {rounded.objective_value:.8f} != recomputed "
            f"{objective:.8f}",
        )
    _, utilization = collection_feasible(instance.substrate, embedded)
    for res, v in utilization.items():
        if abs(v - rounded.utilization.get(res, 0.0)) > CONSISTENCY_TOL:
            raise PipelineError(
                "verify", f"utilization mismatch on {res}"
            )
    accepted = check_tri_criteria(
        objective, utilization, bounds, lp_objective, variant
    ).ok
    if accepted != rounded.accepted or accepted != rounded.records[-1].accepted:
        raise PipelineError(
            "verify",
            f"tri-criteria recheck says accepted={accepted}, sampler reported "
            f"accepted={rounded.accepted}, last try "
            f"accepted={rounded.records[-1].accepted}",
        )
