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

The rows are built as arrays, not one object per row. Every copy of an
edge's sub-LP repeats one pattern of entries over the edge's allowed
substrate edges, shifted by the copy's first column; only the host of a
labeled endpoint, and so the flow row its host variable enters, differs
between copies. The builder records each pattern once with the copies'
row and column starts, expands all of them into the model's flat row
buffers in a few array operations, and drops every row no variable
enters. No name is formatted during the build: each block of rows is
reserved with a renderer and the raw keys it needs, and the model renders
those, and the variables' names from the ``RequestColumns``, only when it
is exported.

The builder returns a ``NovelVariableIndex`` with the labeled orders and one
``RequestColumns`` per request, which maps every variable to its column.
``request_state`` hands decomposition a ``NovelState``: the columns, a
copy of the solution vector to drain, and the request's loads.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .extraction import LabeledExtractionOrder, build_extraction_order, flow_labeling
from .lpmodel import MAXIMIZE, MINIMIZE, LPModel
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
    request, with the labeled orders it was built from.

    ``loads[r]`` holds, as three aligned arrays, the resource index (into
    ``substrate.resources``), column and demand of every host and flow
    variable of request ``r``: the request puts ``demand * variable`` on
    the resource.
    """

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
        self.loads: list[tuple[np.ndarray, np.ndarray, np.ndarray]] = []
        self.num_variables: int = 0

    def request_state(self, values: np.ndarray, r: int) -> NovelState:
        resources = self.substrate.resources
        res, cols, demand = self.loads[r]
        # bincount adds in input order, as a loop over the terms would
        totals = np.bincount(res, demand * values[cols], minlength=len(resources))
        return NovelState(
            self.columns[r], values.tolist(), dict(zip(resources, totals.tolist()))
        )


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
    rows = _RowBuffer()
    for r in range(len(requests)):
        _add_request(model, rows, index, r)
        x = index.columns[r].x
        if objective == "profit":
            model.set_objective_coefficient(x, requests[r].profit)
        else:
            accept = rows.reserve(1, _block_rows, "r{}_accept", 1, None, r, rhs=1.0)
            rows.tile([accept], [0], [x], [0], 1.0)

    # One capacity row per resource some request loads, summing
    # ``demand * variable`` over all requests; the cost objective prices
    # the same terms, resource by resource.
    resources = substrate.resources
    first = rows.reserve(
        len(resources), _block_rows, "cap_res{m}", len(resources), None,
        rhs=substrate.capacities, eq=False,
    )
    for res, cols, demand in index.loads:
        loaded = demand != 0
        rows.tile(
            [first], res[loaded].tolist(), [0], cols[loaded].tolist(),
            demand[loaded].tolist(),
        )
    kept = rows.into(model)
    if objective == "cost" and requests:
        res, cols, demand = (np.concatenate(part) for part in zip(*index.loads))
        by_resource = np.argsort(res, kind="stable")
        cost = np.array([substrate.cost(resource) for resource in resources])
        coef = cost[res[by_resource]] * demand[by_resource]
        priced = coef != 0
        model.objective.update(
            zip(cols[by_resource][priced].tolist(), coef[priced].tolist())
        )
    model.namer = functools.partial(_names, index, rows.names, kept)
    index.num_variables = model.num_variables
    return model, index


class _RowBuffer:
    """Rows of a model under construction, numbered in their final order.

    ``reserve`` numbers the next candidate rows and records how to name
    them: a renderer and its arguments, which on export, given the
    substrate's node index first, return one name per row. ``tile`` records
    a pattern of entries repeated over copies: copy ``m`` puts coefficient
    ``vals[l]`` into row ``row_starts[m] + row_offsets[l]`` and column
    ``col_starts[m] + col_offsets[l]``, for every ``l``. ``into`` expands
    all patterns with a few array operations, sorts the entries by row,
    stably, so each row keeps its entries in the order they were recorded,
    and appends every candidate row that received an entry: a row no
    variable enters is never emitted. It returns which candidate rows it
    kept.
    """

    def __init__(self):
        self.count = 0
        self.copies: list[int] = []  # per pattern
        self.widths: list[int] = []  # per pattern
        self.row_starts: list[int] = []  # per copy
        self.col_starts: list[int] = []  # per copy
        self.row_offsets: list[int] = []  # per pattern entry
        self.col_offsets: list[int] = []  # per pattern entry
        self.vals: list[float] = []  # per pattern entry
        # (first row, count, rhs, is ==) of the rows given a right-hand side
        self.bounds: list[tuple[int, int, float | Sequence[float], bool]] = []
        self.names: list[tuple] = []  # per reserve: (renderer, *arguments)

    def reserve(
        self,
        count: int,
        *names,
        rhs: float | Sequence[float] | None = None,
        eq: bool = True,
    ) -> int:
        """Number ``count`` rows, named by ``names`` (a renderer and its
        arguments), and return the first one. They read ``== 0`` unless
        ``rhs`` (one value, or one per row) is given, with sense ``==`` or,
        for ``eq=False``, ``<=``."""
        first = self.count
        self.count += count
        self.names.append(names)
        if rhs is not None:
            self.bounds.append((first, count, rhs, eq))
        return first

    def tile(self, row_starts, row_offsets, col_starts, col_offsets, vals) -> None:
        """Record one pattern; ``vals`` is one coefficient per pattern entry,
        or one for all of them."""
        self.copies.append(len(row_starts))
        self.widths.append(len(row_offsets))
        self.row_starts += row_starts
        self.col_starts += col_starts
        self.row_offsets += row_offsets
        self.col_offsets += col_offsets
        self.vals += [vals] * len(row_offsets) if isinstance(vals, float) else vals

    def into(self, model: LPModel) -> np.ndarray:
        copies, widths, row_starts, col_starts, row_offsets, col_offsets = (
            np.fromiter(part, dtype=np.intp, count=len(part))
            for part in (
                self.copies, self.widths, self.row_starts, self.col_starts,
                self.row_offsets, self.col_offsets,
            )
        )
        # each copy's entry count, and where its pattern's offsets begin
        per_copy = np.repeat(widths, copies)
        pattern = np.repeat(np.cumsum(widths) - widths, copies)
        copy_of = np.repeat(np.arange(len(per_copy)), per_copy)
        skip = pattern - np.cumsum(per_copy) + per_copy
        offset_of = np.arange(len(copy_of)) + skip[copy_of]
        rows = row_starts[copy_of] + row_offsets[offset_of]
        cols = col_starts[copy_of] + col_offsets[offset_of]
        vals = np.fromiter(self.vals, dtype=float, count=len(self.vals))[offset_of]
        by_row = np.argsort(rows, kind="stable")
        lengths = np.bincount(rows, minlength=self.count)
        rhs = np.zeros(self.count)
        eq = np.ones(self.count, dtype=bool)
        for first, count, value, is_eq in self.bounds:
            rhs[first:first + count] = value
            eq[first:first + count] = is_eq
        kept = lengths > 0
        model.add_rows(cols[by_row], vals[by_row], lengths[kept], eq[kept], rhs[kept])
        return kept


@dataclass
class _EdgeCopies:
    """The copies of one request edge's flow sub-LP, one per label mapping.

    Copy ``m`` places the edge's labels by ``mus[m]`` and owns the columns
    from ``firsts[m]``. ``ends[n]`` gives endpoint ``n``'s first host column
    within a copy, and for a labeled endpoint the host position each copy
    places it on (``None`` when every allowed host has a column).
    """

    labels: tuple[str, ...]
    mus: list[tuple[str, ...]]
    firsts: range
    ends: dict[str, tuple[int, list[int] | None]]

    def tile_hosts(
        self, rows: _RowBuffer, n: str, row_starts, row_of_host, val: float
    ) -> None:
        """Record endpoint ``n``'s host variables: in copy ``m`` the variable
        of host position ``p`` enters row ``row_starts[m] + row_of_host[p]``."""
        offset, placed = self.ends[n]
        if placed is None:
            width = range(offset, offset + len(row_of_host))
            rows.tile(row_starts, row_of_host, self.firsts, width, val)
        else:
            row_starts = [r + row_of_host[p] for r, p in zip(row_starts, placed)]
            rows.tile(row_starts, [0], self.firsts, [offset], val)


def _add_request(
    model: LPModel,
    rows: _RowBuffer,
    index: NovelVariableIndex,
    r: int,
) -> None:
    """Columns and request-local rows of request ``r``, in layout order."""
    substrate = index.substrate
    req = index.requests[r]
    labeled = index.orders[r]
    order = labeled.order
    hosts = req.allowed_nodes
    sidx = substrate.node_index
    nidx = req.node_index
    res_index = substrate.resource_column
    # where each host's flow row lies among a sub-LP copy's rows
    flow_row = {i: [2 + sidx[u] for u in hosts[i]] for i in req.nodes}

    x = model.add_columns(1)
    ykeys = [(i, u) for i in req.nodes for u in hosts[i]]
    y0 = model.add_columns(len(ykeys))
    cols = RequestColumns(x=x, y=dict(zip(ykeys, range(y0, y0 + len(ykeys)))))
    ystart = {}
    for i in req.nodes:
        ystart[i], y0 = y0, y0 + len(hosts[i])
    load_res = [res_index[node_resource(req.node_type[i], u)] for i, u in ykeys]
    load_cols = list(range(x + 1, y0))
    load_demand = [req.node_demand[i] for i, _ in ykeys]

    # Each sub-LP is the flow formulation of its single request edge; its
    # rows are one pattern over the allowed substrate edges, tiled over the
    # copies. Per copy: the embed rows of both endpoints, then one flow
    # row per substrate node some variable of the copy touches.
    per_copy = 2 + len(substrate.nodes)
    copies: list[_EdgeCopies] = []
    for k, e in enumerate(req.edges):
        labels = labeled.labels[k]
        mus = list(itertools.product(*(hosts[l] for l in labels)))
        flows = req.allowed_edges[e]
        # a copy's columns: sub_x, each endpoint's host variables (one for a
        # labeled endpoint, on the host the copy places it), the flows
        ends, embed, z0 = {}, [], 1
        for t, n in enumerate(e):
            placed = None
            if n in labels:
                position = {u: p for p, u in enumerate(hosts[n])}
                placed = [position[mu[labels.index(n)]] for mu in mus]
            ends[n] = (z0, placed)
            embed += [t] * (len(hosts[n]) if placed is None else 1)
            z0 = 1 + len(embed)
        block = z0 + len(flows)
        first = model.add_columns(len(mus) * block)
        cp = _EdgeCopies(
            labels, mus, range(first, first + len(mus) * block, block), ends
        )
        copies.append(cp)
        cols.sub_x.update(zip([(k, mu) for mu in mus], cp.firsts))
        for mu, c in zip(mus, cp.firsts):
            cols.sub_z[(k, mu)] = dict(zip(flows, range(c + z0, c + block)))
        cols.sub_y.update(zip(
            [
                (k, mu, n, u)
                for mu in mus
                for n in e
                for u in ((mu[labels.index(n)],) if n in labels else hosts[n])
            ],
            [c for f in cp.firsts for c in range(f + 1, f + z0)],
        ))

        row0 = rows.reserve(len(mus) * per_copy, _copy_rows, r, k, e, nidx, mus)
        row0 = range(row0, row0 + len(mus) * per_copy, per_copy)
        # the embed rows, each closed by sub_x, then the flows' tails and heads
        rows.tile(
            row0,
            embed + [0, 1] + [2 + sidx[a] for a, _ in flows]
            + [2 + sidx[b] for _, b in flows],
            cp.firsts,
            [*range(1, z0), 0, 0, *range(z0, block), *range(z0, block)],
            [1.0] * len(embed) + [-1.0, -1.0]
            + [1.0] * len(flows) + [-1.0] * len(flows),
        )
        for t, n in enumerate(e):
            cp.tile_hosts(rows, n, row0, flow_row[n], 1.0 if t else -1.0)

        load_res += [res_index[edge_resource(*se)] for se in flows] * len(mus)
        load_cols += [c for f in cp.firsts for c in range(f + z0, f + block)]
        load_demand += [req.edge_demand[e]] * (len(flows) * len(mus))

    bags: dict[tuple[str, int], tuple[int, list[tuple[str, ...]]]] = {}
    for node in order.nodes:
        for bi, bag in enumerate(labeled.bags[node]):
            assigns = list(itertools.product(*(hosts[l] for l in bag.labels)))
            keys = [(node, bi, a, u) for a in assigns for u in hosts[node]]
            g0 = model.add_columns(len(keys))
            cols.gamma.update(zip(keys, range(g0, g0 + len(keys))))
            bags[(node, bi)] = (g0, assigns)
    index.columns.append(cols)
    index.loads.append((
        np.array(load_res, dtype=np.intp),
        np.array(load_cols, dtype=np.intp),
        np.array(load_demand, dtype=float),
    ))

    # Acceptance is carried by the root's host distribution.
    root = order.root
    row = rows.reserve(1, _block_rows, "r{}_root", 1, None, r)
    h = len(hosts[root])
    rows.tile(
        [row], [0] * (h + 1), [0], [*range(ystart[root], ystart[root] + h), x],
        [1.0] * h + [-1.0],
    )

    # The global host distribution of a node agrees with every incident
    # edge's family of sub-LPs.
    for i in req.nodes:
        h = range(len(hosts[i]))
        for k, e in enumerate(req.edges):
            if i in e:
                row = rows.reserve(
                    len(h), _block_rows, "r{}_link_n{}_e{}_s{s}", 1, hosts[i],
                    r, nidx[i], k,
                )
                rows.tile([row], h, [ystart[i]], h, 1.0)
                cp = copies[k]
                cp.tile_hosts(rows, i, [row] * len(cp.mus), h, -1.0)

    # Outgoing edges of a bag draw their placements from the bag variables:
    # a sub-LP copy equals the total of all bag mappings extending its own
    # label mapping.
    for node in order.nodes:
        h = range(len(hosts[node]))
        for bi, bag in enumerate(labeled.bags[node]):
            g0, assigns = bags[(node, bi)]
            gammas = range(g0, g0 + len(assigns) * len(h), len(h))
            for ke in bag.edges:
                cp = copies[ke]
                row = rows.reserve(
                    len(cp.mus) * len(h), _block_rows,
                    "r{}_bagout_n{}_b{}_e{}_m{m}_s{s}", len(cp.mus), hosts[node],
                    r, nidx[node], bi, ke,
                )
                blocks = range(row, row + len(cp.mus) * len(h), len(h))
                cp.tile_hosts(rows, node, blocks, h, 1.0)
                copy_of = {mu: m for m, mu in enumerate(cp.mus)}
                positions = [bag.labels.index(l) for l in cp.labels]
                rows.tile(
                    [blocks[copy_of[tuple(a[p] for p in positions)]] for a in assigns],
                    h, gammas, h, -1.0,
                )

    # Incoming edges agree with each bag on their shared labels, which chains
    # the label choices along the order; a bag's rows follow the shared
    # placements in sorted order.
    for node in order.nodes:
        h = range(len(hosts[node]))
        for ke in order.in_edges[node] if labeled.bags[node] else ():
            cp = copies[ke]
            for bi, bag in enumerate(labeled.bags[node]) if cp.mus else ():
                shared = [q for q, l in enumerate(cp.labels) if l in bag.labels]
                keys = [tuple(mu[q] for q in shared) for mu in cp.mus]
                rank = {key: m for m, key in enumerate(sorted(set(keys)))}
                row = rows.reserve(
                    len(rank) * len(h), _block_rows,
                    "r{}_bagin_n{}_e{}_b{}_m{m}_s{s}", len(rank), hosts[node],
                    r, nidx[node], ke, bi,
                )
                blocks = [row + rank[key] * len(h) for key in keys]
                cp.tile_hosts(rows, node, blocks, h, 1.0)
                g0, assigns = bags[(node, bi)]
                positions = [bag.labels.index(cp.labels[q]) for q in shared]
                rows.tile(
                    [
                        row + rank[tuple(a[p] for p in positions)] * len(h)
                        for a in assigns
                    ],
                    h, range(g0, g0 + len(assigns) * len(h), len(h)), h, -1.0,
                )


def _copy_tag(sidx, r, k, mu) -> str:
    """Name prefix of the copy of edge ``k`` of request ``r`` under ``mu``."""
    return f"r{r}_e{k}m" + "_".join(str(sidx[u]) for u in mu)


def _copy_rows(sidx, r, k, e, nidx, mus) -> list[str]:
    """Row names of the sub-LP copies of edge ``k`` (``e``) of request
    ``r``: per copy, the embed rows of both endpoints, then one flow row
    per substrate node."""
    names = []
    for mu in mus:
        tag = _copy_tag(sidx, r, k, mu)
        names += [f"{tag}_embed_n{nidx[n]}" for n in e]
        names += [f"{tag}_flow_s{w}" for w in range(len(sidx))]
    return names


def _block_rows(sidx, template, blocks, hosts, *fields) -> list[str]:
    """``blocks`` row names, or with ``hosts`` ``blocks`` blocks of one per
    host: ``template`` filled with ``fields``, the block number ``m`` and
    the host's substrate index ``s``."""
    if hosts is None:
        return [template.format(*fields, m=m) for m in range(blocks)]
    return [
        template.format(*fields, m=m, s=sidx[u]) for m in range(blocks) for u in hosts
    ]


def _names(
    index: NovelVariableIndex, row_names: list[tuple], kept: np.ndarray
) -> tuple[list[str], list[str]]:
    """Variable and row names of a ``build_novel`` model. The variables' are
    rendered from its ``RequestColumns``, the rows' by the renderers
    ``_RowBuffer.reserve`` recorded, less the rows ``into`` did not keep."""
    substrate = index.substrate
    sidx = substrate.node_index
    seidx = substrate.edge_index
    variables = [""] * index.num_variables
    for r, (req, cols) in enumerate(zip(index.requests, index.columns)):
        nidx = req.node_index
        variables[cols.x] = f"r{r}_x"
        for (i, u), c in cols.y.items():
            variables[c] = f"r{r}_y_n{nidx[i]}_s{sidx[u]}"
        tags = {(k, mu): _copy_tag(sidx, r, k, mu) for k, mu in cols.sub_x}
        for key, c in cols.sub_x.items():
            variables[c] = f"{tags[key]}_x"
        for (k, mu, n, u), c in cols.sub_y.items():
            variables[c] = f"{tags[(k, mu)]}_y_n{nidx[n]}_s{sidx[u]}"
        for key, flows in cols.sub_z.items():
            for se, c in flows.items():
                variables[c] = f"{tags[key]}_z_se{seidx[se]}"
        bag_numbers: dict[tuple[str, int], dict[tuple, int]] = {}
        for (node, bi, assign, u), c in cols.gamma.items():
            numbers = bag_numbers.setdefault((node, bi), {})
            mi = numbers.setdefault(assign, len(numbers))
            variables[c] = f"r{r}_g_n{nidx[node]}_b{bi}_m{mi}_s{sidx[u]}"
    rows = [name for render, *args in row_names for name in render(sidx, *args)]
    return variables, list(itertools.compress(rows, kept))


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
