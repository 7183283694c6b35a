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
counts as best. Loads and costs come from each decomposition entry's
``allocation``, its load vector over ``substrate.resources``; the sampler
validates no mapping itself, since every entry ``decompose_novel`` returns
was validated when it was extracted. A utilization is a vector in the same
order, so its first ``len(substrate.node_capacity)`` entries are the node
resources.

``compute_bounds`` alone derives the bounds' epsilon and node and edge
congestion sums, in one pass per request over its allowed hosts and
substrate edges.

Per-request randomness comes from independent PCG64 substreams seeded
with ``(seed, request_index)``, so runs are reproducible per request
regardless of how many other requests exist. Tries are evaluated in
blocks of up to ``BLOCK_MAX``: each request draws a block of uniforms
from its stream at once (on PCG64 the same values as that many single
draws), and the whole block is picked, summed and checked with array
operations. The result is the first passing try; draws past it are
discarded and never affect the outcome, so a run equals a try-by-try
loop that stops there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import Sequence

import numpy as np

from .decomposition import ConvexDecomposition
from .extraction import LabeledExtractionOrder
from .formulations import NovelVariableIndex, build_novel
from .lpmodel import solve
from .model import (
    Request,
    SubstrateGraph,
    ValidMapping,
    allocation_cost,
    collection_feasible,
    edge_resource,
    node_resource,
)

ACCEPT_TOL = 1e-9
WEIGHT_TOL = 1e-6
MAX_TRIES_DEFAULT = 128
# Tries per block; caps the rows of the load matrix a block allocates.
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
    substrate: SubstrateGraph, requests: Sequence[Request], variant: str
) -> RoundingBounds:
    """Derive the tri-criteria targets of ``requests`` on ``substrate``.

    Per request and resource, ``peak`` is the largest single demand the
    request may place there and ``total`` the sum, in node then edge order,
    of all its demands that may touch it, which bounds what one valid
    mapping puts there. epsilon is the largest ``peak / capacity``; a
    resource's congestion sums ``(total / peak) ** 2`` over the requests,
    in order, with a positive peak there, and delta_nodes and delta_edges
    are its maxima over node and edge resources (0 for an empty batch).
    """
    columns = substrate.resource_column
    largest = np.zeros(len(columns))
    congestion = np.zeros(len(columns))
    types: set[str] = set()
    for req in requests:
        where: list[int] = []
        demand: list[float] = []
        for i in req.nodes:
            allowed = req.allowed_nodes[i]
            where += [columns[node_resource(req.node_type[i], u)] for u in allowed]
            demand += [req.node_demand[i]] * len(allowed)
        for e in req.edges:
            allowed = req.allowed_edges[e]
            where += [columns[edge_resource(*se)] for se in allowed]
            demand += [req.edge_demand[e]] * len(allowed)
        where_array = np.array(where, dtype=np.intp)
        demand_array = np.array(demand, dtype=float)
        peak = np.zeros(len(columns))
        np.maximum.at(peak, where_array, demand_array)
        total = np.bincount(where_array, weights=demand_array, minlength=len(columns))
        np.maximum(largest, peak, out=largest)
        reach = peak > 0
        share = total[reach] / peak[reach]
        congestion[reach] += share * share
        types.update(req.referenced_types)
    nodes = len(substrate.node_capacity)
    return bounds_from_parameters(
        variant,
        float((largest / np.array(substrate.capacities)).max(initial=0.0)),
        float(congestion[:nodes].max(initial=0.0)),
        float(congestion[nodes:].max(initial=0.0)),
        len(substrate.nodes),
        len(types),
    )


def preprocess_profit(
    index: NovelVariableIndex, candidates: Sequence[int]
) -> tuple[list[Request], list[LabeledExtractionOrder], list[str]]:
    """Drop the candidate requests that cannot be fully accepted on their own.

    ``index`` comes from ``build_novel``, and ``candidates`` are positions
    in ``index.requests``. A request with maximum acceptance below 1 (up to
    tolerance) on its own can never contribute a full embedding and would
    only dilute the rounding probabilities; returned are the kept
    candidates, their orders, and the dropped candidates' names.

    Each candidate's solo LP, its own profit LP over ``index.substrate``, is
    built by ``build_novel`` and solved. It is always feasible (accept
    nothing), so a status other than optimal is a failure and raises
    ``RuntimeError``.

    ``relax`` calls it with its joint LP's index, for the requests that LP
    leaves below full acceptance; a fully accepted one provably passes.
    """
    kept_requests: list[Request] = []
    kept_orders: list[LabeledExtractionOrder] = []
    dropped: list[str] = []
    for r in candidates:
        req, order = index.requests[r], index.orders[r]
        solo, solo_index = build_novel(index.substrate, [req], [order], "profit")
        solution = solve(solo)
        if not solution.optimal:
            raise RuntimeError(
                f"solo LP of request {req.name!r}: solver returned "
                f"{solution.outcome}"
            )
        if float(solution.values[solo_index.columns[0].x]) < 1.0 - WEIGHT_TOL:
            dropped.append(req.name)
        else:
            kept_requests.append(req)
            kept_orders.append(order)
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
    utilization: np.ndarray  # per resource of substrate.resources
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
    substrate: SubstrateGraph,
    objective_value: float,
    utilization: np.ndarray,
    bounds: RoundingBounds,
    lp_optimum: float,
    variant: str,
) -> TriCriteriaReport:
    """Margins are nonnegative (within tolerance) when the criterion holds.

    Profit requires objective >= alpha * lp_optimum; cost requires
    objective <= alpha * lp_optimum. The utilization vector over
    ``substrate.resources`` must stay within beta on node resources and
    gamma on edges.
    """
    if variant == "profit":
        objective_margin = objective_value - bounds.alpha * lp_optimum
    else:
        objective_margin = bounds.alpha * lp_optimum - objective_value
    nodes = len(substrate.node_capacity)
    node_margin = float((bounds.beta - utilization[:nodes]).min(initial=math.inf))
    edge_margin = float((bounds.gamma - utilization[nodes:]).min(initial=math.inf))
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


def _check_inputs(requests, decompositions, max_tries) -> None:
    if len(decompositions) != len(requests):
        raise ValueError("one decomposition per request required")
    if max_tries < 1:
        raise ValueError(f"max_tries must be at least 1, got {max_tries}")


def round_profit(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    decompositions: Sequence[ConvexDecomposition],
    bounds: RoundingBounds,
    lp_optimum: float,
    seed: int,
    max_tries: int = MAX_TRIES_DEFAULT,
) -> RoundedSolution:
    """Sample until a draw meets all three criteria or tries run out.

    A draw embeds a request with probability equal to its decomposition's
    total weight; its loads are the picked entry's ``allocation``. The
    fallback after ``max_tries`` unaccepted draws is the best-profit sample
    seen, flagged ``accepted=False``. Deterministic given the seed.
    """
    _check_inputs(requests, decompositions, max_tries)
    return _sample(
        substrate, requests, decompositions, bounds, lp_optimum, seed,
        max_tries, "profit",
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
) -> RoundedSolution:
    """The sampling routine of both variants.

    Each try picks one entry per request and adds the request's profit or
    the mapping's cost to the objective. Leftover mass embeds nothing under
    profit; under cost the renormalized weights sum to 1, so leftover mass
    is numerical only and takes the last entry.

    Per request, an allocation matrix (the entries' ``allocation`` as
    rows, plus an all-zero row for "embed nothing") and a vector of
    objective terms are built once. Tries then run in blocks:
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
    capacities = np.array(substrate.capacities)
    node_count = len(substrate.node_capacity)
    load_rows = []
    terms = []
    cumulative = []
    for req, dec in zip(requests, decompositions):
        load_rows.append(np.array(
            [entry.allocation for entry in dec.entries] + [np.zeros(len(capacities))]
        ))
        terms.append(np.array(
            [
                allocation_cost(substrate, entry.allocation) if cost else req.profit
                for entry in dec.entries
            ]
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
    while start < max_tries:
        n = min(BLOCK_MAX, max_tries - start)
        picks = []
        objective = np.zeros(n)
        load = np.zeros((n, len(capacities)))
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
        # loads start at +0.0 and add nonnegative demands, so 0.0 is a floor
        worst_node = node_use[:used].max(axis=1, initial=0.0)
        worst_edge = edge_use[:used].max(axis=1, initial=0.0)
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
    picked_allocations = []
    objective_value = 0.0
    for r, (req, dec) in enumerate(zip(requests, decompositions)):
        pick = chosen[r]
        if pick == len(dec.entries):
            selection[req.name] = None
            continue
        entry = dec.entries[pick]
        selection[req.name] = entry.mapping
        picked_allocations.append(entry.allocation)
        objective_value += float(terms[r][pick])
    _, utilization = collection_feasible(substrate, picked_allocations)
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


def prune_costly_mappings(
    substrate: SubstrateGraph,
    request: Request,
    decomposition: ConvexDecomposition,
) -> tuple[ConvexDecomposition, PruneReport]:
    """Drop entries costing more than twice the weighted average cost.

    Requires total weight 1 (the cost LP pins acceptance to 1). An entry's
    cost is that of its ``allocation``. At least half the weight always
    survives (checked, raising ``GuaranteeError``); weights are renormalized
    to sum to 1 so later sampling always embeds the request, and surviving
    entries keep their allocation.
    """
    total = decomposition.total_weight
    if abs(total - 1.0) > WEIGHT_TOL:
        raise ValueError(
            f"request {request.name!r}: decomposition weight {total:.8f} != 1"
        )
    costs = [
        allocation_cost(substrate, entry.allocation)
        for entry in decomposition.entries
    ]
    cost_share = sum(
        entry.weight * c for entry, c in zip(decomposition.entries, costs)
    )
    threshold = 2.0 * cost_share
    kept = [
        entry for entry, c in zip(decomposition.entries, costs)
        if c <= threshold + ACCEPT_TOL
    ]
    surviving = sum(entry.weight for entry in kept)
    if surviving < 0.5 - WEIGHT_TOL:
        raise GuaranteeError(
            f"surviving weight {surviving:.8f} below 1/2 for {request.name!r}"
        )
    scale = 1.0 / surviving
    normalized = ConvexDecomposition(
        request_name=decomposition.request_name,
        entries=[
            replace(entry, weight=entry.weight * scale)
            for entry in kept
        ],
    )
    return normalized, PruneReport(
        request_name=request.name,
        cost_share=cost_share,
        threshold=threshold,
        surviving_weight=surviving,
        removed=len(decomposition.entries) - len(kept),
    )


def round_cost(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    decompositions: Sequence[ConvexDecomposition],
    bounds: RoundingBounds,
    lp_cost: float,
    seed: int,
    max_tries: int = MAX_TRIES_DEFAULT,
) -> RoundedSolution:
    """Sample full embeddings from pruned decompositions.

    Every draw embeds all requests; a mapping costs what its entry's
    ``allocation`` costs, and every draw provably costs at most twice the
    LP cost (checked, raising ``GuaranteeError``). Acceptance only tests
    the load criteria. The fallback after ``max_tries`` unaccepted draws is
    the lowest-cost sample seen, flagged ``accepted=False``.
    """
    _check_inputs(requests, decompositions, max_tries)
    for req, dec in zip(requests, decompositions):
        if not dec.entries:
            raise ValueError(
                f"request {req.name!r} has an empty decomposition; "
                "the cost variant must embed every request"
            )
    return _sample(
        substrate, requests, decompositions, bounds, lp_cost, seed, max_tries,
        "cost",
    )
