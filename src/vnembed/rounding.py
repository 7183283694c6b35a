"""Randomized rounding of convex decompositions into integral embeddings.

The profit variant samples one mapping per request according to the
decomposition weights (embedding nothing with the leftover probability)
and accepts the first try that keeps at least a third of the LP profit
while overloading node capacities by at most ``beta`` and edge capacities
by at most ``gamma``. The cost variant first discards mappings costing
more than twice the request's LP cost share, renormalizes, and then every
try embeds all requests at total cost at most twice the LP cost; only
the load criteria remain random there. Both variants run one sampling
routine; the variant only decides what a try adds to the objective, what
leftover mass does, whether the cost cap is checked and which fallback
counts as best.

Per-request randomness comes from independent PCG64 substreams seeded
with ``(seed, request_index)``, so runs are reproducible per request
regardless of how many other requests exist. Tries are evaluated in
blocks of growing size: each request draws a block of uniforms from its
stream at once (on PCG64 the same values as that many single draws), and
the whole block is picked, summed and checked with array operations. The
result is the first passing try; draws past it are discarded and never
affect the outcome, so a run equals a try-by-try loop that stops there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .decomposition import ConvexDecomposition
from .extraction import LabeledExtractionOrder
# build_novel is not called here any more, but the benchmark's tracer
# (perfbench/tracer.py) still hooks it under this module's name
from .formulations import NovelVariableIndex, build_novel
from .lpmodel import MAXIMIZE, LPModel, solve
from .model import (
    EDGE,
    NODE,
    Request,
    Resource,
    SubstrateGraph,
    ValidMapping,
    allocation_cost,
    collection_feasible,
    compute_allocations,
    mapping_cost,
    resource_stats,
)

ACCEPT_TOL = 1e-9
WEIGHT_TOL = 1e-6
MAX_TRIES_DEFAULT = 128
# Tries per block grow 1, 8, 64, 512, 512, ...: a try accepted at once
# costs one draw, and no block holds more than BLOCK_MAX rows of loads.
BLOCK_GROWTH = 8
BLOCK_MAX = 512


class GuaranteeError(RuntimeError):
    """A proven rounding guarantee failed: the half-weight pruning bound or
    the 2x cost cap. Raised explicitly so the check survives ``python -O``."""


@dataclass(frozen=True)
class RoundingBounds:
    epsilon: float
    delta_nodes: float
    delta_edges: float
    alpha: float
    beta: float
    gamma: float


def bounds_from_parameters(
    variant: str,
    epsilon: float,
    delta_nodes: float,
    delta_edges: float,
    num_substrate_nodes: int,
    num_types: int,
) -> RoundingBounds:
    """Closed-form tri-criteria targets.

    Profit: alpha = 1/3, beta = 1 + eps*sqrt(2*D_V*ln(|V_S|*|T|)),
    gamma = 1 + eps*sqrt(2*D_E*ln|V_S|). Cost replaces every leading
    constant by 2.
    """
    if variant not in ("profit", "cost"):
        raise ValueError(f"unknown variant {variant!r}")
    if epsilon > 1.0:
        raise ValueError(
            "demand exceeds capacity scaling assumption: "
            f"max demand/capacity ratio {epsilon:.6g} > 1"
        )
    if epsilon < 0 or delta_nodes < 0 or delta_edges < 0:
        raise ValueError("epsilon and congestion terms must be nonnegative")
    node_log = math.log(max(num_substrate_nodes * max(num_types, 1), 1))
    edge_log = math.log(max(num_substrate_nodes, 1))
    node_dev = epsilon * math.sqrt(2.0 * delta_nodes * node_log)
    edge_dev = epsilon * math.sqrt(2.0 * delta_edges * edge_log)
    base = 1.0 if variant == "profit" else 2.0
    alpha = 1.0 / 3.0 if variant == "profit" else 2.0
    return RoundingBounds(
        epsilon=epsilon,
        delta_nodes=delta_nodes,
        delta_edges=delta_edges,
        alpha=alpha,
        beta=base + node_dev,
        gamma=base + edge_dev,
    )


def compute_bounds(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    variant: str,
) -> RoundingBounds:
    """Derive tri-criteria targets from instance statistics."""
    stats = resource_stats(substrate, requests)
    types = set()
    for req in requests:
        types.update(req.referenced_types)
    return bounds_from_parameters(
        variant,
        stats.max_demand_ratio(substrate),
        stats.congestion_sum(substrate, NODE),
        stats.congestion_sum(substrate, EDGE),
        len(substrate.nodes),
        len(types),
    )


def preprocess_profit(
    model: LPModel,
    index: NovelVariableIndex,
    candidates: Sequence[int],
) -> tuple[list[Request], list[LabeledExtractionOrder], list[str]]:
    """Drop the candidate requests that cannot be fully accepted on their own.

    ``model`` and ``index`` are a profit LP built by ``build_novel``, and
    ``candidates`` are positions in ``index.requests``. A request with
    maximum acceptance below 1 (up to tolerance) on its own can never
    contribute a full embedding and would only dilute the rounding
    probabilities; returned are the kept candidates, their orders, and the
    dropped candidates' names.

    A request's solo LP is ``model`` with every other request's columns held
    at 0 and only its own objective terms: its request-local rows are
    homogeneous (right-hand side 0), so the other requests' rows hold at 0,
    and a capacity row only loses their loads. Each candidate is solved so,
    through ``solve``'s overrides; if the solver still holds ``model`` from
    the solve just before, HiGHS re-solves from the basis it kept. The solo
    LP is always feasible (accept nothing), so a status other than optimal
    is a failure and raises ``RuntimeError``.

    ``run_pipeline`` calls it with its solved joint LP, for the requests that
    LP leaves below full acceptance; a fully accepted one provably passes.
    """
    if model.sense != MAXIMIZE or model.num_variables != index.num_variables:
        raise ValueError("profit preprocessing needs the profit LP of index")
    starts = [cols.x for cols in index.columns] + [model.num_variables]
    coefficients = np.zeros(model.num_variables)
    coefficients[list(model.objective)] = list(model.objective.values())
    kept_requests: list[Request] = []
    kept_orders: list[LabeledExtractionOrder] = []
    dropped: list[str] = []
    for r in candidates:
        req = index.requests[r]
        own = slice(starts[r], starts[r + 1])
        upper = np.zeros(model.num_variables)
        upper[own] = 1.0
        objective = np.zeros(model.num_variables)
        objective[own] = coefficients[own]
        solution = solve(model, upper=upper, objective=objective)
        if not solution.optimal:
            raise RuntimeError(
                f"solo LP of request {req.name!r}: solver returned "
                f"{solution.outcome}"
            )
        acceptance = float(solution.values[index.columns[r].x])
        if acceptance < 1.0 - WEIGHT_TOL:
            dropped.append(req.name)
        else:
            kept_requests.append(req)
            kept_orders.append(index.orders[r])
    return kept_requests, kept_orders, dropped


@dataclass(frozen=True)
class TryRecord:
    index: int
    objective: float
    max_node_utilization: float
    max_edge_utilization: float
    accepted: bool


@dataclass
class RoundedSolution:
    variant: str
    selection: dict[str, ValidMapping | None]
    objective_value: float
    utilization: dict[Resource, float]
    accepted: bool
    tries_used: int
    seed: int
    records: list[TryRecord] = field(default_factory=list)


@dataclass(frozen=True)
class TriCriteriaReport:
    ok: bool
    objective_margin: float
    node_margin: float
    edge_margin: float


def check_tri_criteria(
    objective_value: float,
    utilization: Mapping[Resource, float],
    bounds: RoundingBounds,
    lp_optimum: float,
    variant: str,
) -> TriCriteriaReport:
    """Margins are nonnegative (within tolerance) when the criterion holds.

    Profit requires objective >= alpha * lp_optimum; cost requires
    objective <= alpha * lp_optimum. Loads must stay within beta (nodes)
    and gamma (edges) times capacity.
    """
    if variant == "profit":
        objective_margin = objective_value - bounds.alpha * lp_optimum
    else:
        objective_margin = bounds.alpha * lp_optimum - objective_value
    node_margin = math.inf
    edge_margin = math.inf
    for res, used in utilization.items():
        if res[0] == NODE:
            node_margin = min(node_margin, bounds.beta - used)
        else:
            edge_margin = min(edge_margin, bounds.gamma - used)
    ok = (
        objective_margin >= -ACCEPT_TOL
        and node_margin >= -ACCEPT_TOL
        and edge_margin >= -ACCEPT_TOL
    )
    return TriCriteriaReport(
        ok=ok,
        objective_margin=objective_margin,
        node_margin=node_margin,
        edge_margin=edge_margin,
    )


def request_streams(seed: int, count: int) -> list[np.random.Generator]:
    return [
        np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, r])))
        for r in range(count)
    ]


def _cumulative_weights(decomposition: ConvexDecomposition) -> np.ndarray:
    """Running sums of the entry weights; ``cumsum`` adds them in order,
    as a scalar ``acc += weight`` loop does."""
    weights = np.array([entry.weight for entry in decomposition.entries], dtype=float)
    return weights.cumsum()


def _pick(cumulative: np.ndarray, draws):
    """Per draw, the first entry whose running weight sum exceeds it;
    ``len(cumulative)`` stands for the leftover mass. Weights are
    nonnegative, so the sums are sorted."""
    return np.searchsorted(cumulative, draws, side="right")


def sample_entry(decomposition: ConvexDecomposition, draw: float) -> int | None:
    """Index of the entry whose cumulative weight interval contains the
    draw, or None for the leftover mass."""
    idx = int(_pick(_cumulative_weights(decomposition), draw))
    return idx if idx < len(decomposition.entries) else None


def _check_inputs(requests, decompositions, max_tries, allocations) -> None:
    if len(decompositions) != len(requests):
        raise ValueError("one decomposition per request required")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")
    if allocations is not None and [len(a) for a in allocations] != [
        len(dec.entries) for dec in decompositions
    ]:
        raise ValueError("one allocation per decomposition entry required")


def round_profit(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    decompositions: Sequence[ConvexDecomposition],
    bounds: RoundingBounds,
    lp_optimum: float,
    seed: int,
    max_tries: int = MAX_TRIES_DEFAULT,
    allocations: Sequence[Sequence[Mapping[Resource, float]]] | None = None,
) -> RoundedSolution:
    """Sample until a draw meets all three criteria or tries run out.

    A draw embeds a request with probability equal to its decomposition's
    total weight. The fallback after ``max_tries`` unaccepted draws is the
    best-profit sample seen, flagged ``accepted=False``. Deterministic given
    the seed. ``allocations``, if given, holds the ``compute_allocations``
    result of every entry of every decomposition, already checked; without
    it each entry's mapping is checked and its allocation computed here.
    """
    _check_inputs(requests, decompositions, max_tries, allocations)
    return _sample(
        substrate, requests, decompositions, bounds, lp_optimum, seed,
        max_tries, "profit", allocations,
    )


def _sample(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    decompositions: Sequence[ConvexDecomposition],
    bounds: RoundingBounds,
    lp_optimum: float,
    seed: int,
    max_tries: int,
    variant: str,
    allocations: Sequence[Sequence[Mapping[Resource, float]]] | None,
) -> RoundedSolution:
    """The sampling routine of both variants.

    Each try picks one entry per request and adds the request's profit or
    the mapping's cost to the objective. Leftover mass embeds nothing under
    profit; under cost the renormalized weights sum to 1, so leftover mass
    is numerical only and takes the last entry.

    Per request, a dense allocation matrix over ``substrate.resources``
    (one row per entry plus an all-zero row for "embed nothing") and a
    vector of objective terms are built once, from ``allocations`` or, if
    that is None, from ``compute_allocations`` of every entry. Tries then run in blocks:
    every request draws the block's uniforms, picks rows, and the rows are
    added in request order, so each objective and load is the same float
    sum a try-by-try loop gives. Utilization and the three margins follow
    ``check_tri_criteria``. The first passing try is returned; if none of
    ``max_tries`` passes, the first highest-profit or lowest-cost try,
    ``accepted=False``. Only the tries up to the first passing one (or all
    ``max_tries``) count: they get a ``TryRecord`` each, and under cost
    any of them exceeding the 2x cap raises ``GuaranteeError``.
    """
    cost = variant == "cost"
    cap = 2.0 * lp_optimum + WEIGHT_TOL * max(1.0, abs(lp_optimum))
    columns = substrate.resource_column
    capacities = np.array(substrate.capacities)
    node_count = len(substrate.node_capacity)
    if allocations is None:
        allocations = [
            [compute_allocations(substrate, req, entry.mapping) for entry in dec.entries]
            for req, dec in zip(requests, decompositions)
        ]
    load_rows = []
    terms = []
    cumulative = []
    for req, dec, allocs in zip(requests, decompositions, allocations):
        rows = np.zeros((len(allocs) + 1, len(columns)))
        for k, alloc in enumerate(allocs):
            for res, amount in alloc.items():
                rows[k, columns[res]] = amount
        load_rows.append(rows)
        terms.append(np.array(
            [allocation_cost(substrate, a) if cost else req.profit for a in allocs]
            + [0.0]
        ))
        cumulative.append(_cumulative_weights(dec))
    objective_target = bounds.alpha * lp_optimum
    streams = request_streams(seed, len(requests))

    records: list[TryRecord] = []
    best_objective = math.inf if cost else -math.inf
    best_picks: list[int] = []
    chosen: list[int] | None = None
    start = 0
    block = 1
    while start < max_tries:
        n = min(block, max_tries - start)
        block = min(block * BLOCK_GROWTH, BLOCK_MAX)
        picks = []
        objective = np.zeros(n)
        load = np.zeros((n, len(columns)))
        for r, stream in enumerate(streams):
            pick = _pick(cumulative[r], stream.uniform(size=n))
            if cost:
                np.minimum(pick, len(cumulative[r]) - 1, out=pick)
            picks.append(pick)
            objective += terms[r][pick]
            load += load_rows[r][pick]
        utilization = load / capacities
        if cost:
            objective_margin = objective_target - objective
        else:
            objective_margin = objective - objective_target
        node_use = utilization[:, :node_count]
        edge_use = utilization[:, node_count:]
        node_margin = (bounds.beta - node_use).min(axis=1, initial=math.inf)
        edge_margin = (bounds.gamma - edge_use).min(axis=1, initial=math.inf)
        ok = (
            (objective_margin >= -ACCEPT_TOL)
            & (node_margin >= -ACCEPT_TOL)
            & (edge_margin >= -ACCEPT_TOL)
        )
        passing = np.flatnonzero(ok)
        used = int(passing[0]) + 1 if passing.size else n
        if cost:
            over = np.flatnonzero(objective[:used] > cap)
            if over.size:
                raise GuaranteeError(
                    f"sampled cost {float(objective[over[0]]):.8f} exceeds "
                    f"twice the LP cost {lp_optimum:.8f}"
                )
        worst_node = (
            node_use[:used].max(axis=1) if node_count else np.zeros(used)
        )
        worst_edge = (
            edge_use[:used].max(axis=1) if edge_use.shape[1] else np.zeros(used)
        )
        records.extend(
            TryRecord(start + k, obj, node, edge, accepted)
            for k, (obj, node, edge, accepted) in enumerate(zip(
                objective[:used].tolist(), worst_node.tolist(),
                worst_edge.tolist(), ok[:used].tolist(),
            ))
        )
        if passing.size:
            chosen = [int(pick[passing[0]]) for pick in picks]
            break
        k = int(np.argmin(objective) if cost else np.argmax(objective))
        if objective[k] < best_objective if cost else objective[k] > best_objective:
            best_objective = float(objective[k])
            best_picks = [int(pick[k]) for pick in picks]
        start += n
    accepted = chosen is not None
    if chosen is None:
        chosen = best_picks

    selection: dict[str, ValidMapping | None] = {}
    embedded = []
    picked_allocations = []
    objective_value = 0.0
    for r, (req, dec) in enumerate(zip(requests, decompositions)):
        pick = chosen[r]
        if pick == len(dec.entries):
            selection[req.name] = None
            continue
        mapping = dec.entries[pick].mapping
        selection[req.name] = mapping
        embedded.append((req, mapping))
        picked_allocations.append(allocations[r][pick])
        objective_value += float(terms[r][pick])
    _, utilization = collection_feasible(
        substrate, embedded, allocations=picked_allocations
    )
    return RoundedSolution(
        variant=variant,
        selection=selection,
        objective_value=objective_value,
        utilization=utilization,
        accepted=accepted,
        tries_used=len(records),
        seed=seed,
        records=records,
    )


@dataclass(frozen=True)
class PruneReport:
    request_name: str
    cost_share: float
    threshold: float
    surviving_weight: float
    removed: int
    kept: tuple[int, ...]  # positions of the surviving entries, in order


def prune_costly_mappings(
    substrate: SubstrateGraph,
    request: Request,
    decomposition: ConvexDecomposition,
) -> tuple[ConvexDecomposition, PruneReport]:
    """Drop entries costing more than twice the weighted average cost.

    Requires total weight 1 (the cost LP pins acceptance to 1). At least
    half the weight always survives (checked, raising ``GuaranteeError``);
    weights are renormalized to sum to 1 so later sampling always embeds
    the request.
    """
    total = decomposition.total_weight
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(
            f"request {request.name!r}: decomposition weight {total:.8f} != 1"
        )
    costs = [
        mapping_cost(substrate, request, entry.mapping)
        for entry in decomposition.entries
    ]
    cost_share = sum(
        entry.weight * c for entry, c in zip(decomposition.entries, costs)
    )
    threshold = 2.0 * cost_share
    positions = tuple(
        k for k, c in enumerate(costs) if c <= threshold + ACCEPT_TOL
    )
    kept = [decomposition.entries[k] for k in positions]
    surviving = sum(entry.weight for entry in kept)
    if surviving < 0.5 - WEIGHT_TOL:
        raise GuaranteeError(
            f"surviving weight {surviving:.8f} below 1/2 for {request.name!r}"
        )
    scale = 1.0 / surviving
    normalized = ConvexDecomposition(
        request_name=decomposition.request_name,
        entries=[
            type(entry)(weight=entry.weight * scale, mapping=entry.mapping)
            for entry in kept
        ],
    )
    return normalized, PruneReport(
        request_name=request.name,
        cost_share=cost_share,
        threshold=threshold,
        surviving_weight=surviving,
        removed=len(decomposition.entries) - len(kept),
        kept=positions,
    )


def round_cost(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    decompositions: Sequence[ConvexDecomposition],
    bounds: RoundingBounds,
    lp_cost: float,
    seed: int,
    max_tries: int = MAX_TRIES_DEFAULT,
    allocations: Sequence[Sequence[Mapping[Resource, float]]] | None = None,
) -> RoundedSolution:
    """Sample full embeddings from pruned decompositions.

    Every draw embeds all requests and provably costs at most twice the
    LP cost (checked, raising ``GuaranteeError``); acceptance only tests the
    load criteria. The fallback after ``max_tries`` unaccepted draws is the
    lowest-cost sample seen, flagged ``accepted=False``. ``allocations`` is
    as for ``round_profit``.
    """
    _check_inputs(requests, decompositions, max_tries, allocations)
    for req, dec in zip(requests, decompositions):
        if not dec.entries:
            raise ValueError(
                f"request {req.name!r} has an empty decomposition; "
                "the cost variant must embed every request"
            )
    return _sample(
        substrate, requests, decompositions, bounds, lp_cost, seed, max_tries,
        "cost", allocations,
    )
