"""The object-per-item LP builder, kept as a reference for the array build.

This is ``build_novel`` and the LP container as they were before rows went
into flat buffers: every variable a ``Variable`` with its name, every row a
``Constraint`` holding a list of ``(column, coefficient)`` tuples, the
matrix flattened from those tuples, and the request loads summed in a
loop over the load terms. ``tests/test_lp.py`` checks that the package's
builder hands HiGHS exactly what this one does, exports the same text and
gives decomposition the same loads.

``run_highs`` is the HiGHS hand-off as it was before the arrays went to the
bindings' array overload: a ``HighsLp`` filled from ``.tolist()`` copies,
on a new HiGHS object per solve, which then takes the same three runs to
the canonical point (``lpmodel._solve_passed``). ``tests/test_lp.py``
checks that ``lpmodel._run_highs`` and ``lpmodel.solve``, which reuse one
object per thread, return what it does, bit for bit; ``solve_fresh`` solves
the arrays of ``lpmodel.solver_input``, with the alias rows folded away and
the canonical costs summed over each alias class, as ``solve`` does.

``preprocess_profit`` is profit preprocessing of every request of a list,
without a joint LP: one solo model built and solved per request.
``tests/test_pipeline.py`` checks that the package keeps and drops the same
requests.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from itertools import chain
from typing import Iterator, Sequence

import numpy as np
from scipy.sparse import csc_array

from vnembed import formulations, lpmodel
from vnembed.extraction import LabeledExtractionOrder
from vnembed.formulations import (
    BudgetExceededError,
    NovelVariableIndex,
    RequestColumns,
    count_novel_variables,
)
from vnembed.lpmodel import EQ, LE, MAXIMIZE, MINIMIZE, LPSolution, _highs
from vnembed.model import Request, SubstrateGraph
from vnembed.rounding import WEIGHT_TOL

# The reference keys a resource by its label in ``substrate.resources``,
# ("node", type, node) or ("edge", tail, head), and reads its capacity and
# cost from the input tables, independent of the substrate's column maps.
Resource = tuple


def _capacity(substrate: SubstrateGraph, res: Resource) -> float:
    table = substrate.node_capacity if res[0] == "node" else substrate.edge_capacity
    return table[res[1:]]


def _cost(substrate: SubstrateGraph, res: Resource) -> float:
    table = substrate.node_cost if res[0] == "node" else substrate.edge_cost
    return table[res[1:]]


@dataclass
class Variable:
    name: str


@dataclass
class Constraint:
    name: str
    coefficients: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass
class LPModel:
    """Linear program over named variables, each in [0, 1].

    Coefficients reference variables by index; ``add_variable`` returns the
    index to use. Duplicate variable names are rejected to keep solution
    files unambiguous.
    """

    sense: str = MINIMIZE
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    _names: dict[str, int] = field(default_factory=dict)

    def add_variable(self, name: str) -> int:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        self.variables.append(Variable(name=name))
        idx = len(self.variables) - 1
        self._names[name] = idx
        return idx

    def add_constraint(
        self,
        name: str,
        coefficients: Sequence[tuple[int, float]],
        sense: str,
        rhs: float,
    ) -> None:
        if sense not in (LE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        self.constraints.append(
            Constraint(name=name, coefficients=list(coefficients), sense=sense, rhs=rhs)
        )

    def set_objective_coefficient(self, var: int, coefficient: float) -> None:
        if coefficient:
            self.objective[var] = self.objective.get(var, 0.0) + coefficient

    @property
    def num_variables(self) -> int:
        return len(self.variables)


def constraint_matrix(model: LPModel) -> tuple[csc_array, np.ndarray, np.ndarray]:
    """All rows as one CSC matrix with their lower and upper bounds.

    ``<=`` rows come first, then ``==`` rows, each group in insertion
    order; a ``<=`` row's lower bound is ``-inf``, an ``==`` row's is its
    ``rhs``, and every upper bound is the ``rhs``.
    """
    le_rows = [con for con in model.constraints if con.sense == LE]
    rows = le_rows + [con for con in model.constraints if con.sense == EQ]
    lengths = [len(con.coefficients) for con in rows]
    # every (column, coefficient) pair of every row, flattened
    pairs = np.fromiter(
        chain.from_iterable(chain.from_iterable(con.coefficients for con in rows)),
        dtype=float,
        count=2 * sum(lengths),
    ).reshape(-1, 2)
    row_of = np.repeat(np.arange(len(rows)), lengths)
    matrix = csc_array(
        (pairs[:, 1], (row_of, pairs[:, 0].astype(np.intp))),
        shape=(len(rows), model.num_variables),
    )
    upper = np.array([con.rhs for con in rows], dtype=float)
    lower = upper.copy()
    lower[: len(le_rows)] = -np.inf
    return matrix, lower, upper


def write_lp(model: LPModel) -> str:
    """Render the model in the common LP text format for external checks."""
    lines = ["Maximize" if model.sense == MAXIMIZE else "Minimize"]
    lines.append(" obj: " + _linear_expr(model.objective.items(), model))
    lines.append("Subject To")
    for con in model.constraints:
        op = "=" if con.sense == EQ else "<="
        expr = _linear_expr(con.coefficients, model)
        lines.append(f" {con.name}: {expr} {op} {con.rhs!r}")
    lines.append("Bounds")
    for var in model.variables:
        lines.append(f" 0.0 <= {var.name} <= 1.0")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_expr(coefficients, model: LPModel) -> str:
    terms = []
    for idx, coef in coefficients:
        name = model.variables[idx].name
        if coef < 0:
            terms.append(f"- {-coef!r} {name}")
        else:
            prefix = "+ " if terms else ""
            terms.append(f"{prefix}{coef!r} {name}")
    return " ".join(terms) if terms else "0"


def _load_terms(
    index: NovelVariableIndex, r: int
) -> Iterator[tuple[Resource, int, float]]:
    """(resource, column, demand) for every host and flow variable of
    request ``r``: the request puts ``demand * variable`` on the
    resource."""
    req = index.requests[r]
    cols = index.columns[r]
    for (i, u), var in cols.y.items():
        yield ("node", req.node_type[i], u), var, req.node_demand[i]
    for (k, _), flows in cols.sub_z.items():
        demand = req.edge_demand[req.edges[k]]
        for se, var in flows.items():
            yield ("edge", *se), var, demand


def _add_capacity_rows(
    model: LPModel, index: NovelVariableIndex, objective: str
) -> None:
    """One capacity row per resource some request can load, summing
    ``demand * variable`` over all requests; the cost objective prices the
    same terms."""
    substrate = index.substrate
    terms: dict[Resource, list[tuple[int, float]]] = {}
    for r in range(len(index.requests)):
        for res, var, demand in _load_terms(index, r):
            if demand:
                terms.setdefault(res, []).append((var, demand))
    for k, res in enumerate(substrate.resources):
        coeffs = terms.get(res)
        if not coeffs:
            continue
        model.add_constraint(f"cap_res{k}", coeffs, LE, _capacity(substrate, res))
        if objective == "cost":
            for var, demand in coeffs:
                model.set_objective_coefficient(var, _cost(substrate, res) * demand)


def _mappings_of(labels: Sequence[str], req: Request) -> list[tuple[str, ...]]:
    """All placements of a label tuple onto allowed substrate nodes."""
    return [
        tuple(combo)
        for combo in itertools.product(*(req.allowed_nodes[l] for l in labels))
    ]


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


def objective_vector(model: LPModel) -> np.ndarray:
    """The cost vector ``solve`` handed HiGHS: negated for ``MAXIMIZE``."""
    c = np.zeros(model.num_variables)
    for idx, coef in model.objective.items():
        c[idx] = coef
    if model.sense == MAXIMIZE:
        c = -c
    return c


def request_loads(index: NovelVariableIndex, values: np.ndarray, r: int) -> dict:
    """``request_state(values, r).a`` as the object build's index computed
    it, keyed by resource in ``substrate.resources`` order: one pass over
    the load terms in column-dictionary order."""
    residual = values.tolist()
    loads = dict.fromkeys(index.substrate.resources, 0.0)
    for res, var, demand in _load_terms(index, r):
        loads[res] += demand * residual[var]
    return loads


def run_highs(
    c: np.ndarray, matrix, lower: np.ndarray, upper: np.ndarray, d: np.ndarray
) -> LPSolution:
    """``lpmodel._run_highs`` through a ``HighsLp`` built from lists, on a new
    HiGHS object."""
    num_row, num_col = matrix.shape
    lp = _highs.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = [0.0] * num_col
    lp.col_upper_ = [1.0] * num_col
    lp.row_lower_ = lower.tolist()
    lp.row_upper_ = upper.tolist()
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.start_ = matrix.indptr.tolist()
    lp.a_matrix_.index_ = matrix.indices.tolist()
    lp.a_matrix_.value_ = matrix.data.tolist()
    highs = _highs._Highs()
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("highs_debug_level", 0)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        return LPSolution(
            status="error", objective_value=None, values=None,
            message=highs.modelStatusToString(_highs.HighsModelStatus.kModelError),
        )
    return lpmodel._solve_passed(highs, c, matrix, lower, upper, d)


def solve_fresh(model) -> LPSolution:
    """``lpmodel.solve`` on a new HiGHS object, without its primal check:
    the model with its alias rows folded away, solved to the canonical
    point, and each column given its survivor's value."""
    column, *arrays = lpmodel.solver_input(model)
    d = np.zeros(len(arrays[0]))
    np.add.at(d, column, lpmodel.canonical_costs(model.num_variables))
    solution = run_highs(*arrays, d)
    if solution.optimal:
        solution.values = solution.values[column]
        if model.sense == MAXIMIZE:
            solution.objective_value = -solution.objective_value
    return solution


def preprocess_profit(
    substrate: SubstrateGraph,
    requests: Sequence[Request],
    labeled_orders: Sequence[LabeledExtractionOrder],
) -> tuple[list[Request], list[LabeledExtractionOrder], list[str]]:
    """``rounding.preprocess_profit`` over every request, with no joint LP:
    each request's own profit LP built by ``build_novel`` and solved.
    Returns the kept requests, their orders and the dropped names."""
    kept_requests: list[Request] = []
    kept_orders: list[LabeledExtractionOrder] = []
    dropped: list[str] = []
    for req, labeled in zip(requests, labeled_orders):
        model, index = formulations.build_novel(substrate, [req], [labeled], "profit")
        solution = lpmodel.solve(model)
        if not solution.optimal:
            raise RuntimeError(
                f"solo LP of request {req.name!r}: solver returned "
                f"{solution.outcome}"
            )
        if float(solution.values[index.columns[0].x]) < 1.0 - WEIGHT_TOL:
            dropped.append(req.name)
        else:
            kept_requests.append(req)
            kept_orders.append(labeled)
    return kept_requests, kept_orders, dropped
