"""LP formulations for fractional virtual network embedding.

One builder, ``build_novel``, makes the decomposable relaxation driven by
labeled extraction orders. For every request edge it instantiates one
single-edge flow sub-LP per mapping of the edge's confluence-target labels
onto substrate nodes, and couples the copies of a node's outgoing edge bags
through shared bag variables (``gamma``). Solutions of this LP always
decompose into valid mappings; its size grows with ``|V_S|`` to the power
of the order's width.

``build_mcf`` is the classical multi-commodity flow relaxation, built as
the decomposable LP over orders with every label dropped
(``flow_labeling``): one flow copy per request edge, so one unit flow per
edge between the host distributions of its endpoints. Its size does not
grow with the width, but its solutions are generally not decomposable into
convex combinations of valid mappings once request graphs contain cycles
and routing restrictions.

Variable blocks are laid out per request in a fixed, documented order
(global x, then y, then per-edge sub-blocks, then bag variables), so
indices, solution files and exported models are stable. Every variable lies
in [0, 1]. A request's load on a resource is linear in its host and flow
variables, so the capacity rows and the cost objective read those directly.

The builder returns a ``NovelVariableIndex`` with the labeled orders and one
``RequestColumns`` per request, which maps every variable to its column.
``request_state`` hands decomposition a ``NovelState``: the columns, a
copy of the solution vector to drain, and the request's loads.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .extraction import LabeledExtractionOrder, build_extraction_order, flow_labeling
from .lpmodel import EQ, LE, MAXIMIZE, MINIMIZE, LPModel, constraint_matrix
from .model import (
    Request,
    Resource,
    SubstrateGraph,
    ValidMapping,
    edge_resource,
    node_resource,
)


class BudgetExceededError(Exception):
    """The decomposable LP would exceed the configured variable budget."""

    def __init__(self, required: int, budget: int):
        super().__init__(
            f"formulation needs {required} variables, budget allows {budget}"
        )
        self.required = required
        self.budget = budget


@dataclass
class RequestColumns:
    """Column of every variable of one request, keyed by meaning.

    ``sub_x[(k, mu)]``, ``sub_y[(k, mu, n, u)]`` and ``sub_z[(k, mu)][se]``
    belong to the copy of request edge ``k`` under label mapping ``mu``, and
    ``gamma[(node, bag, assign, u)]`` to a bag variable.
    """

    x: int
    y: dict[tuple[str, str], int] = field(default_factory=dict)
    sub_x: dict[tuple, int] = field(default_factory=dict)
    sub_y: dict[tuple, int] = field(default_factory=dict)
    sub_z: dict[tuple, dict[tuple[str, str], int]] = field(default_factory=dict)
    gamma: dict[tuple, int] = field(default_factory=dict)


@dataclass
class NovelState:
    """One request's view of an LP solution, drained by decomposition.

    ``residual`` is a copy of the whole solution vector, read and drained
    through ``columns``; ``a`` is the request's load per resource at the
    solution.
    """

    columns: RequestColumns
    residual: list[float]
    a: dict[Resource, float]

    @property
    def x(self) -> float:
        return self.residual[self.columns.x]


class NovelVariableIndex:
    """Column layout of a decomposable LP, one ``RequestColumns`` per
    request, with the labeled orders it was built from."""

    def __init__(
        self,
        substrate: SubstrateGraph,
        requests: Sequence[Request],
        orders: Sequence[LabeledExtractionOrder],
    ):
        self.substrate = substrate
        self.requests = list(requests)
        self.orders = list(orders)
        self.columns: list[RequestColumns] = []
        self.num_variables: int = 0

    def load_terms(self, r: int) -> Iterator[tuple[Resource, int, float]]:
        """(resource, column, demand) for every host and flow variable of
        request ``r``: the request puts ``demand * variable`` on the
        resource."""
        req = self.requests[r]
        cols = self.columns[r]
        for (i, u), var in cols.y.items():
            yield node_resource(req.node_type[i], u), var, req.node_demand[i]
        for (k, _), flows in cols.sub_z.items():
            demand = req.edge_demand[req.edges[k]]
            for se, var in flows.items():
                yield edge_resource(*se), var, demand

    def request_state(self, values: np.ndarray, r: int) -> NovelState:
        residual = values.tolist()
        loads = dict.fromkeys(self.substrate.resources, 0.0)
        for res, var, demand in self.load_terms(r):
            loads[res] += demand * residual[var]
        return NovelState(self.columns[r], residual, loads)


def _add_capacity_rows(
    model: LPModel, index: NovelVariableIndex, objective: str
) -> None:
    """One capacity row per resource some request can load, summing
    ``demand * variable`` over all requests; the cost objective prices the
    same terms."""
    substrate = index.substrate
    terms: dict[Resource, list[tuple[int, float]]] = {}
    for r in range(len(index.requests)):
        for res, var, demand in index.load_terms(r):
            if demand:
                terms.setdefault(res, []).append((var, demand))
    for k, res in enumerate(substrate.resources):
        coeffs = terms.get(res)
        if not coeffs:
            continue
        model.add_constraint(f"cap_res{k}", coeffs, LE, substrate.capacity(res))
        if objective == "cost":
            for var, demand in coeffs:
                model.set_objective_coefficient(var, substrate.cost(res) * demand)


def build_mcf(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    objective: str = "profit",
) -> tuple[LPModel, NovelVariableIndex]:
    """Multi-commodity flow relaxation over all requests.

    ``objective`` is ``"profit"`` (maximize accepted profit, acceptance
    fractional) or ``"cost"`` (minimize allocation cost, full acceptance
    forced). It is ``build_novel`` over ``flow_orders(requests)``, so edge
    ``k``'s flow is its one copy under the empty label mapping, ``(k, ())``.
    """
    return build_novel(substrate, requests, flow_orders(requests), objective)


def flow_orders(requests: Sequence[Request]) -> list[LabeledExtractionOrder]:
    """The orders of the flow relaxation: each request's BFS order from its
    first node, with every label dropped."""
    return [
        flow_labeling(build_extraction_order(req, req.nodes[0])) for req in requests
    ]


def _mappings_of(labels: Sequence[str], req: Request) -> list[tuple[str, ...]]:
    """All placements of a label tuple onto allowed substrate nodes."""
    return [
        tuple(combo)
        for combo in itertools.product(*(req.allowed_nodes[l] for l in labels))
    ]


def count_novel_variables(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    orders: Sequence[LabeledExtractionOrder],
) -> int:
    """Exact variable count of ``build_novel`` without building it."""
    total = 0
    for req, labeled in zip(requests, orders):
        total += 1  # x
        total += sum(len(req.allowed_nodes[i]) for i in req.nodes)
        for k, e in enumerate(req.edges):
            labels = labeled.labels[k]
            n_mu = 1
            for l in labels:
                n_mu *= len(req.allowed_nodes[l])
            per_mu = 1 + len(req.allowed_edges[e])
            for endpoint in e:
                per_mu += 1 if endpoint in labels else len(req.allowed_nodes[endpoint])
            total += n_mu * per_mu
        for node in labeled.order.nodes:
            for bag in labeled.bags[node]:
                n_bag = 1
                for l in bag.labels:
                    n_bag *= len(req.allowed_nodes[l])
                total += n_bag * len(req.allowed_nodes[node])
    return total


def build_novel(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    orders: Sequence[LabeledExtractionOrder],
    objective: str = "profit",
    var_budget: int | None = None,
) -> tuple[LPModel, NovelVariableIndex]:
    """Decomposable LP relaxation driven by labeled extraction orders.

    ``orders`` must align with ``requests`` (same node/edge sets; edge
    ``k`` of the order reorients edge ``k`` of the request).
    """
    if objective not in ("profit", "cost"):
        raise ValueError(f"unknown objective {objective!r}")
    if len(orders) != len(requests):
        raise ValueError("one labeled order per request required")
    for req, labeled in zip(requests, orders):
        if labeled.order.nodes != req.nodes or any(
            oe.original != e for oe, e in zip(labeled.order.edges, req.edges)
        ):
            raise ValueError(f"order does not match request {req.name!r}")
    if var_budget is not None:
        required = count_novel_variables(substrate, requests, orders)
        if required > var_budget:
            raise BudgetExceededError(required=required, budget=var_budget)

    model = LPModel(sense=MAXIMIZE if objective == "profit" else MINIMIZE)
    index = NovelVariableIndex(substrate, requests, orders)
    sidx = substrate.node_index
    seidx = substrate.edge_index

    for r, (req, labeled) in enumerate(zip(requests, orders)):
        order = labeled.order
        x = model.add_variable(f"r{r}_x")
        cols = RequestColumns(x=x)
        for i in req.nodes:
            for u in req.allowed_nodes[i]:
                cols.y[(i, u)] = model.add_variable(
                    f"r{r}_y_n{req.node_index[i]}_s{sidx[u]}"
                )

        edge_mus = [_mappings_of(labels, req) for labels in labeled.labels]
        for k, e in enumerate(req.edges):
            labels = labeled.labels[k]
            for mu in edge_mus[k]:
                tag = f"r{r}_e{k}m" + "_".join(str(sidx[u]) for u in mu)
                key = (k, mu)
                cols.sub_x[key] = model.add_variable(f"{tag}_x")
                for n in e:
                    if n in labels:
                        hosts: tuple[str, ...] = (mu[labels.index(n)],)
                    else:
                        hosts = req.allowed_nodes[n]
                    for u in hosts:
                        cols.sub_y[(k, mu, n, u)] = model.add_variable(
                            f"{tag}_y_n{req.node_index[n]}_s{sidx[u]}"
                        )
                cols.sub_z[key] = {
                    se: model.add_variable(f"{tag}_z_se{seidx[se]}")
                    for se in req.allowed_edges[e]
                }

        bag_mus: dict[tuple[str, int], list[tuple[str, ...]]] = {}
        for node in order.nodes:
            for bi, bag in enumerate(labeled.bags[node]):
                mus = _mappings_of(bag.labels, req)
                bag_mus[(node, bi)] = mus
                for mi, assign in enumerate(mus):
                    for u in req.allowed_nodes[node]:
                        cols.gamma[(node, bi, assign, u)] = model.add_variable(
                            f"r{r}_g_n{req.node_index[node]}_b{bi}_m{mi}_s{sidx[u]}"
                        )
        index.columns.append(cols)

        _novel_request_rows(
            model, substrate, req, labeled, r, cols, edge_mus, bag_mus
        )
        if objective == "profit":
            model.set_objective_coefficient(x, req.profit)
        else:
            model.add_constraint(f"r{r}_accept", [(x, 1.0)], EQ, 1.0)

    _add_capacity_rows(model, index, objective)
    index.num_variables = model.num_variables
    return model, index


def _novel_request_rows(
    model: LPModel,
    substrate: SubstrateGraph,
    req: Request,
    labeled: LabeledExtractionOrder,
    r: int,
    cols: RequestColumns,
    edge_mus: list[list[tuple[str, ...]]],
    bag_mus: dict[tuple[str, int], list[tuple[str, ...]]],
) -> None:
    order = labeled.order
    sidx = substrate.node_index

    # Each sub-LP is the flow formulation of its single request edge.
    for k, e in enumerate(req.edges):
        i, j = e
        allowed = req.allowed_edges[e]
        by_tail: dict[str, list] = {}
        by_head: dict[str, list] = {}
        for se in allowed:
            by_tail.setdefault(se[0], []).append(se)
            by_head.setdefault(se[1], []).append(se)
        for mu in edge_mus[k]:
            key = (k, mu)
            tag = f"r{r}_e{k}m" + "_".join(str(sidx[u]) for u in mu)
            for n in e:
                coeffs = [
                    (cols.sub_y[(k, mu, n, u)], 1.0)
                    for u in req.allowed_nodes[n]
                    if (k, mu, n, u) in cols.sub_y
                ]
                coeffs.append((cols.sub_x[key], -1.0))
                model.add_constraint(f"{tag}_embed_n{req.node_index[n]}", coeffs, EQ, 0.0)
            flows = cols.sub_z[key]
            for w in substrate.nodes:
                coeffs = []
                for se in by_tail.get(w, ()):
                    coeffs.append((flows[se], 1.0))
                for se in by_head.get(w, ()):
                    coeffs.append((flows[se], -1.0))
                if (k, mu, i, w) in cols.sub_y:
                    coeffs.append((cols.sub_y[(k, mu, i, w)], -1.0))
                if (k, mu, j, w) in cols.sub_y:
                    coeffs.append((cols.sub_y[(k, mu, j, w)], 1.0))
                if coeffs:
                    model.add_constraint(f"{tag}_flow_s{sidx[w]}", coeffs, EQ, 0.0)

    # Acceptance is carried by the root's host distribution.
    root = order.root
    model.add_constraint(
        f"r{r}_root",
        [(cols.y[(root, u)], 1.0) for u in req.allowed_nodes[root]]
        + [(cols.x, -1.0)],
        EQ,
        0.0,
    )

    # The global host distribution of a node agrees with every incident
    # edge's family of sub-LPs.
    for i in req.nodes:
        for k, e in enumerate(req.edges):
            if i not in e:
                continue
            for u in req.allowed_nodes[i]:
                coeffs = [(cols.y[(i, u)], 1.0)]
                for mu in edge_mus[k]:
                    if (k, mu, i, u) in cols.sub_y:
                        coeffs.append((cols.sub_y[(k, mu, i, u)], -1.0))
                model.add_constraint(
                    f"r{r}_link_n{req.node_index[i]}_e{k}_s{sidx[u]}", coeffs, EQ, 0.0
                )

    # Outgoing edges of a bag draw their placements from the bag variables:
    # a sub-LP copy equals the total of all bag mappings extending its own
    # label mapping.
    for node in order.nodes:
        for bi, bag in enumerate(labeled.bags[node]):
            big = bag_mus[(node, bi)]
            for ke in bag.edges:
                labels = labeled.labels[ke]
                positions = [bag.labels.index(l) for l in labels]
                groups: dict[tuple, list[tuple[str, ...]]] = {}
                for assign in big:
                    groups.setdefault(
                        tuple(assign[p] for p in positions), []
                    ).append(assign)
                for mu in edge_mus[ke]:
                    for u in req.allowed_nodes[node]:
                        coeffs = [(cols.sub_y[(ke, mu, node, u)], 1.0)]
                        for assign in groups.get(mu, ()):
                            coeffs.append((cols.gamma[(node, bi, assign, u)], -1.0))
                        model.add_constraint(
                            f"r{r}_bagout_n{req.node_index[node]}_b{bi}_e{ke}"
                            f"_m{edge_mus[ke].index(mu)}_s{sidx[u]}",
                            coeffs,
                            EQ,
                            0.0,
                        )

    # Incoming edges agree with each bag on their shared labels, which chains
    # the label choices along the order.
    for node in order.nodes:
        bags = labeled.bags[node]
        if not bags:
            continue
        for ke in order.in_edges[node]:
            labels = labeled.labels[ke]
            for bi, bag in enumerate(bags):
                shared = tuple(l for l in labels if l in bag.labels)
                in_pos = [labels.index(l) for l in shared]
                bag_pos = [bag.labels.index(l) for l in shared]
                sy_groups: dict[tuple, list] = {}
                for mu in edge_mus[ke]:
                    sy_groups.setdefault(
                        tuple(mu[p] for p in in_pos), []
                    ).append(mu)
                gamma_groups: dict[tuple, list] = {}
                for assign in bag_mus[(node, bi)]:
                    gamma_groups.setdefault(
                        tuple(assign[p] for p in bag_pos), []
                    ).append(assign)
                for mi, m_shared in enumerate(sorted(sy_groups)):
                    for u in req.allowed_nodes[node]:
                        coeffs = []
                        for mu in sy_groups[m_shared]:
                            if (ke, mu, node, u) in cols.sub_y:
                                coeffs.append((cols.sub_y[(ke, mu, node, u)], 1.0))
                        for assign in gamma_groups.get(m_shared, ()):
                            coeffs.append((cols.gamma[(node, bi, assign, u)], -1.0))
                        if coeffs:
                            model.add_constraint(
                                f"r{r}_bagin_n{req.node_index[node]}_e{ke}_b{bi}"
                                f"_m{mi}_s{sidx[u]}",
                                coeffs,
                                EQ,
                                0.0,
                            )


def embed_mapping(
    index: NovelVariableIndex, r: int, mapping: ValidMapping
) -> np.ndarray:
    """The 0/1 point of the decomposable LP that realizes one valid mapping.

    Entries outside request ``r`` stay zero. Substituting the result into
    the model built alongside ``index`` must satisfy every request-local
    constraint; capacity rows hold whenever the mapping alone fits.
    """
    req = index.requests[r]
    labeled = index.orders[r]
    cols = index.columns[r]
    vec = np.zeros(index.num_variables)
    vec[cols.x] = 1.0
    for i in req.nodes:
        vec[cols.y[(i, mapping.node_map[i])]] = 1.0
    for k, e in enumerate(req.edges):
        mu = tuple(mapping.node_map[l] for l in labeled.labels[k])
        vec[cols.sub_x[(k, mu)]] = 1.0
        for n in e:
            vec[cols.sub_y[(k, mu, n, mapping.node_map[n])]] = 1.0
        for se in mapping.edge_map[e]:
            vec[cols.sub_z[(k, mu)][se]] = 1.0
    for node in labeled.order.nodes:
        for bi, bag in enumerate(labeled.bags[node]):
            assign = tuple(mapping.node_map[l] for l in bag.labels)
            vec[cols.gamma[(node, bi, assign, mapping.node_map[node])]] = 1.0
    return vec


def max_violation(model: LPModel, values: np.ndarray) -> float:
    """Largest row or unit-box violation of a candidate point."""
    worst = 0.0
    if len(values):
        worst = max(worst, -float(values.min()), float(values.max()) - 1.0)
    matrix, lower, upper = constraint_matrix(model)
    if len(upper):
        lhs = matrix @ values
        worst = max(worst, float(np.max(lhs - upper)), float(np.max(lower - lhs)))
    return worst
