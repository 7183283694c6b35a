"""End-to-end embedding pipeline and its report.

Stages: validate, width analysis, joint LP construction and solve,
profit preprocessing, convex decomposition, bounds, cost pruning,
randomized rounding, verification. Each runs in ``_stage``, which times
it and turns any failure inside it into a ``PipelineError`` naming the
stage, and the request where the stage runs per request; it also logs
each run as one DEBUG record. Two stages are shared with the CLI:
``require_valid``, so an invalid instance is one error that carries its
report, and ``decompose_solution``, which verifies each decomposition
against the LP point it came from.

The pipeline splits at the first random draw. ``relax`` runs every stage
up to and including pruning and returns a ``Relaxation``; none of it
depends on the seed. ``round_relaxation`` samples it at one seed, rechecks
the result and builds the report, so a seed sweep relaxes once and rounds
many times. ``run_pipeline`` is the two in a row.

The profit variant drops every request that cannot be fully accepted on
its own, but solves the joint LP over all requests first. A request the
joint LP accepts fully (up to ``WEIGHT_TOL``) is certified without a solo
LP: the joint solution restricted to its variables is feasible for its
solo LP, because demands are nonnegative, so its solo maximum acceptance
is at least as large. Only the remaining requests go through
``preprocess_profit``, which builds and solves each one's solo LP. If it
drops any, the joint LP is built and solved again over the kept ones.
Either way the final joint model is the one built over exactly the
requests that solo preprocessing would keep.

Reports serialize deterministically: keys are emitted in a fixed order
and wall-clock timings are left out unless explicitly requested, so two
runs with the same instance and seed produce byte-identical JSON.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import io
import json
import logging
import time
from dataclasses import dataclass, field
from typing import Any, Iterator, Sequence

import numpy as np

from ._version import __version__
from .decomposition import (
    ConvexDecomposition,
    DecompositionCheck,
    DecompositionError,
    decompose_novel,
    verify_decomposition,
)
from .extraction import LabeledExtractionOrder, min_width_order_search
from .formulations import NovelVariableIndex, build_novel
from .instances import Instance
from .lpmodel import BACKEND, LPModel, LPSolution, solve
from .model import (
    Request,
    ValidationReport,
    ValidMapping,
    allocation_cost,
    collection_feasible,
    compute_allocations,
    validate_instance,
)
from .rounding import (
    MAX_TRIES_DEFAULT,
    WEIGHT_TOL,
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

_LOG = logging.getLogger(__name__)


class PipelineError(Exception):
    """A stage failed; ``report`` is set only by a failed ``validate``."""

    def __init__(
        self, stage: str, message: str, *, infeasible: bool = False,
        report: ValidationReport | None = None,
    ):
        super().__init__(f"[{stage}] {message}")
        self.stage = stage
        self.infeasible = infeasible
        self.report = report


def require_valid(instance: Instance) -> None:
    """Raise ``PipelineError("validate", ...)`` with the report attached
    unless ``validate_instance`` finds no issue."""
    report = validate_instance(instance.substrate, instance.requests)
    if not report.ok:
        raise PipelineError(
            "validate",
            "; ".join(f"{issue.code}: {issue.message}" for issue in report.issues),
            report=report,
        )


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


@dataclass(frozen=True)
class Relaxation:
    """The seed-free result of ``relax``: kept requests, their decompositions
    (pruned under cost), LP objective, bounds, and those stages' report rows
    and timings. ``round_relaxation`` never changes it."""

    instance: Instance
    variant: str
    requests: tuple[Request, ...]
    decompositions: tuple[ConvexDecomposition, ...]
    lp_objective: float
    bounds: RoundingBounds
    request_rows: tuple[dict[str, Any], ...]
    lp_row: dict[str, Any]
    decomposition_rows: tuple[dict[str, Any], ...]
    timings: dict[str, float] = field(compare=False)


def run_pipeline(
    instance: Instance, config: PipelineConfig
) -> tuple[RunReport, RoundedSolution]:
    """Run every stage on one instance; returns the report plus the raw
    rounded solution (whose try records feed the diagnostics CSV)."""
    return round_relaxation(relax(instance, config), config.seed, config.max_tries)


def relax(instance: Instance, config: PipelineConfig) -> Relaxation:
    """Every stage before the first random draw: validate, width search,
    the joint LP with profit preprocessing, decomposition, bounds and cost
    pruning. The whole config is checked first, but its ``seed`` and
    ``max_tries`` are left to ``round_relaxation``."""
    if config.variant not in ("profit", "cost"):
        raise PipelineError("config", f"unknown variant {config.variant!r}")
    for key in ("alpha", "beta", "gamma"):
        value = getattr(config, key)
        if value is not None and not np.isfinite(value):
            raise PipelineError("config", f"{key} must be finite, got {value}")
    _check_rounding_args(config.seed, config.max_tries)
    timings: dict[str, float] = {}

    with _stage("validate", timings):
        require_valid(instance)

    orders: list[LabeledExtractionOrder] = []
    with _stage("width", timings):
        for req in instance.requests:
            with _stage("width", request=req.name):
                orders.append(
                    min_width_order_search(req, strategy=config.order_strategy)
                )

    request_rows = [
        {
            "name": req.name,
            "nodes": len(req.nodes),
            "edges": len(req.edges),
            "root": labeled.order.root,
            "width": labeled.width,
            "dropped": False,
        }
        for req, labeled in zip(instance.requests, orders)
    ]

    requests = list(instance.requests)
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
            with _stage("preprocess", timings):
                _, _, dropped = preprocess_profit(index, uncertified)
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

    with _stage("decompose", timings):
        checked = decompose_solution(index, solution.values)
    decompositions = [dec for dec, _ in checked]
    decomposition_rows = [
        {
            "name": req.name,
            "entries": len(dec.entries),
            "total_weight": round(dec.total_weight, 9),
            "completeness_error": round(check.completeness_error, 12),
            "worst_overuse": round(check.worst_overuse, 12),
        }
        for req, (dec, check) in zip(requests, checked)
    ]

    with _stage("bounds"):
        overrides = {"alpha": config.alpha, "beta": config.beta, "gamma": config.gamma}
        bounds = dataclasses.replace(
            compute_bounds(instance.substrate, requests, config.variant),
            **{key: value for key, value in overrides.items() if value is not None},
        )

    # pruning counts toward the round stage, which sampling completes
    if config.variant == "cost":
        with _stage("round", timings), _stage("prune"):
            for r, (req, row) in enumerate(zip(requests, decomposition_rows)):
                decompositions[r], prep = prune_costly_mappings(
                    instance.substrate, req, decompositions[r]
                )
                row["pruning"] = {
                    "name": req.name,
                    "cost_share": round(prep.cost_share, 9),
                    "surviving_weight": round(prep.surviving_weight, 9),
                    "removed": prep.removed,
                }

    return Relaxation(
        instance=instance,
        variant=config.variant,
        requests=tuple(requests),
        decompositions=tuple(decompositions),
        lp_objective=lp_objective,
        bounds=bounds,
        request_rows=tuple(request_rows),
        lp_row=lp_row,
        decomposition_rows=tuple(decomposition_rows),
        timings=timings,
    )


def decompose_solution(
    index: NovelVariableIndex, values: np.ndarray
) -> list[tuple[ConvexDecomposition, DecompositionCheck]]:
    """Peel each request's part of the LP point ``values`` into weighted
    valid mappings and verify them against that point. Raises
    ``PipelineError("decompose", ...)`` naming the request unless every
    check passes; ``relax`` and ``vnembed decompose`` both run it."""
    checked = []
    for r, req in enumerate(index.requests):
        with _stage("decompose", request=req.name):
            state = index.request_state(values, r)
            x_value = state.x  # decompose_novel drains the residual it reads
            dec = decompose_novel(index.substrate, req, index.orders[r], state)
            check = verify_decomposition(index.substrate, req, dec, x_value, state.a)
            if not check.ok:
                raise DecompositionError(
                    f"completeness error {check.completeness_error:.3g}, "
                    f"overuse {check.worst_overuse:.3g}, invalid {check.invalid}"
                )
        checked.append((dec, check))
    return checked


def round_relaxation(
    relaxation: Relaxation, seed: int, max_tries: int = MAX_TRIES_DEFAULT
) -> tuple[RunReport, RoundedSolution]:
    """Sample ``relaxation`` with ``seed``, recheck the result and report
    it. Every mutable part of the report is new, so one relaxation can be
    rounded at many seeds."""
    _check_rounding_args(seed, max_tries)
    instance, bounds = relaxation.instance, relaxation.bounds
    sampler = round_profit if relaxation.variant == "profit" else round_cost
    timings = dict(relaxation.timings)
    with _stage("round", timings):
        rounded = sampler(
            instance.substrate, relaxation.requests, relaxation.decompositions,
            bounds, relaxation.lp_objective, seed, max_tries,
        )
    with _stage("verify"):
        _verify_rounding(
            instance, relaxation.requests, rounded, relaxation.variant, bounds,
            relaxation.lp_objective,
        )

    nodes = len(instance.substrate.node_column)  # node resources come first
    utilization = rounded.utilization.tolist()
    rounding_row = {
        "accepted": rounded.accepted,
        "tries_used": rounded.tries_used,
        "objective": round(rounded.objective_value, 9),
        "max_node_utilization": round(max(utilization[:nodes], default=0.0), 9),
        "max_edge_utilization": round(max(utilization[nodes:], default=0.0), 9),
        "selection": {
            name: mapping_to_dict(mapping)
            for name, mapping in sorted(rounded.selection.items())
        },
    }

    return RunReport(
        version=__version__,
        instance_name=instance.name,
        variant=relaxation.variant,
        seed=seed,
        requests=_fresh(relaxation.request_rows),
        lp=dict(relaxation.lp_row),
        bounds={
            key: round(value, 12)
            for key, value in dataclasses.asdict(bounds).items()
        },
        decomposition=_fresh(relaxation.decomposition_rows),
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
    with _stage("build-lp", timings):
        model, index = build_novel(
            instance.substrate, requests, orders, config.variant,
            var_budget=config.var_budget,
        )
    with _stage("solve-lp", timings):
        solution = solve(model)
    if solution.status == "infeasible":
        raise PipelineError(
            "solve-lp", "LP infeasible (cost variant cannot embed all requests)",
            infeasible=True,
        )
    if not solution.optimal:
        raise PipelineError("solve-lp", f"solver returned {solution.outcome}")
    return model, index, solution


@contextlib.contextmanager
def _stage(
    name: str, timings: dict[str, float] | None = None, request: str | None = None
) -> Iterator[None]:
    """Run a block as stage ``name``: add its run time to ``timings[name]``
    if ``timings`` is given, and re-raise any exception but a
    ``PipelineError`` as ``PipelineError(name, ...)`` from it, naming
    ``request`` if given. Each run logs one DEBUG record on ``_LOG`` with
    ``stage``, ``request``, ``seconds`` and ``failure`` (or None) attributes."""
    start = time.perf_counter()
    failure = None
    try:
        yield
    except PipelineError as err:
        failure = err
        raise
    except Exception as err:
        where = f"request {request!r}: " if request is not None else ""
        failure = PipelineError(name, f"{where}{err}")
        raise failure from err
    finally:
        seconds = time.perf_counter() - start
        event = dict(stage=name, request=request, seconds=seconds, failure=failure)
        _LOG.debug(
            "stage %(stage)s, request %(request)s: %(seconds).6f s, failure "
            "%(failure)s", event, extra=event,
        )
    if timings is not None:
        timings[name] = timings.get(name, 0.0) + seconds


def _check_rounding_args(seed: int, max_tries: int) -> None:
    if max_tries < 1:
        raise PipelineError(
            "config", f"max_tries must be at least 1, got {max_tries}"
        )
    if seed < 0:
        raise PipelineError("config", f"seed must be nonnegative, got {seed}")


def _fresh(rows: Sequence[dict[str, Any]]) -> list[dict[str, Any]]:
    """New report rows equal to ``rows``; a row nests at most one dict of
    scalars (``pruning``)."""
    return [
        {k: dict(v) if isinstance(v, dict) else v for k, v in row.items()}
        for row in rows
    ]


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
    disagreement with what the sampler reported, a utilization vector of
    another length than ``substrate.resources`` included. Each selected
    mapping is validated and its allocation computed once, here; the cost
    objective and the loads both derive from that allocation."""
    by_name = {req.name: req for req in requests}
    allocations = []
    objective = 0.0
    for name, mapping in rounded.selection.items():
        if mapping is None:
            continue
        req = by_name[name]
        allocations.append(compute_allocations(instance.substrate, req, mapping))
        if variant == "profit":
            objective += req.profit
        else:
            objective += allocation_cost(instance.substrate, allocations[-1])
    if abs(objective - rounded.objective_value) > CONSISTENCY_TOL:
        raise PipelineError(
            "verify",
            f"reported objective {rounded.objective_value:.8f} != recomputed "
            f"{objective:.8f}",
        )
    _, utilization = collection_feasible(instance.substrate, allocations)
    if len(rounded.utilization) != len(utilization):
        raise PipelineError(
            "verify",
            f"sampler reports utilization on {len(rounded.utilization)} "
            f"resources, the substrate has {len(utilization)}",
        )
    # not <=, so that a NaN reads as a mismatch
    close = np.abs(utilization - rounded.utilization) <= CONSISTENCY_TOL
    off = np.flatnonzero(~close)
    if off.size:
        raise PipelineError(
            "verify",
            f"utilization mismatch on {instance.substrate.resources[off[0]]}",
        )
    accepted = check_tri_criteria(
        instance.substrate, objective, utilization, bounds, lp_objective, variant
    ).ok
    if accepted != rounded.accepted or accepted != rounded.records[-1].accepted:
        raise PipelineError(
            "verify",
            f"tri-criteria recheck says accepted={accepted}, sampler reported "
            f"accepted={rounded.accepted}, last try "
            f"accepted={rounded.records[-1].accepted}",
        )
