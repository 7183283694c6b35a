"""Relaxation builders: flow formulation, decomposable formulation, LP model."""

from __future__ import annotations

import dataclasses
import math
import multiprocessing
import os
import sys
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.optimize
from scipy.optimize import linprog
from scipy.sparse import csc_array, csr_matrix

import lp_reference
import vnembed.lpmodel
import vnembed.pipeline

from vnembed import (
    Digraph,
    Request,
    SubstrateGraph,
    build_extraction_order,
    build_mcf,
    build_novel,
    compute_allocations,
    count_novel_variables,
    embed_mapping,
    enumerate_valid_mappings,
    label_order,
    mapping_cost,
    max_violation,
    min_width_order_search,
    solve,
    write_lp,
)
from vnembed.decomposition import decompose_novel, verify_decomposition
from vnembed.formulations import BudgetExceededError, flow_orders
from vnembed.lpmodel import (
    EQ,
    LE,
    MAXIMIZE,
    MINIMIZE,
    LPModel,
    LPSolution,
    canonical_costs,
    constraint_matrix,
    fold_aliases,
    objective_vector,
    solver_input,
)
from vnembed.scenarios import scenario_instance, tiny_corpus


def _orders(instance):
    return [
        min_width_order_search(Digraph.build(r.nodes, r.edges))
        for r in instance.requests
    ]


def test_flow_formulation_overestimates_gadget(fig3):
    model, index = build_mcf(fig3.substrate, fig3.requests, "profit")
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(1.0, abs=1e-6)
    state = index.request_state(sol.values, 0)
    assert state.x == pytest.approx(1.0, abs=1e-6)
    # Full acceptance spreads every request node evenly over its two
    # allowed hosts: no single host per node closes the triangle. The split
    # is forced, since minimizing and maximizing any host column over the
    # optimal face both give 0.5.
    for i in fig3.requests[0].nodes:
        hosts = {u: sol.values[v] for (n, u), v in state.columns.y.items() if n == i}
        assert sum(hosts.values()) == pytest.approx(state.x, abs=1e-9)
        assert len(hosts) == 2
        for value in hosts.values():
            assert value == pytest.approx(0.5, abs=1e-9)


def test_decomposable_formulation_sees_through_gadget(fig3):
    model, _ = build_novel(fig3.substrate, fig3.requests, _orders(fig3), "profit")
    sol = solve(model)
    assert sol.status == "optimal"
    assert abs(sol.objective_value) <= 1e-6


def test_decomposable_formulation_needs_one_order_per_request(fig3):
    requests = fig3.requests * 2
    with pytest.raises(ValueError, match="one labeled order per request required"):
        build_novel(fig3.substrate, requests, _orders(fig3), "profit")


def test_cost_variant_forces_full_embed(fig3, fig3_gadget):
    # without the shortcut edge there is no valid mapping at all
    model, _ = build_novel(fig3.substrate, fig3.requests, _orders(fig3), "cost")
    assert solve(model).status == "infeasible"
    # with it, the unique mapping prices the whole run
    model, _ = build_novel(
        fig3_gadget.substrate, fig3_gadget.requests, _orders(fig3_gadget), "cost"
    )
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(105.0, abs=1e-6)


def test_embedded_mappings_satisfy_constraints():
    for instance in tiny_corpus(6):
        if len(instance.requests) != 1:
            continue
        substrate = instance.substrate
        req = instance.requests[0]
        orders = _orders(instance)
        # a truncated enumeration still provides plenty of witnesses
        enum = enumerate_valid_mappings(substrate, req, cap=200)
        for build in (
            lambda objective: build_novel(
                substrate, instance.requests, orders, objective
            ),
            lambda objective: build_mcf(substrate, instance.requests, objective),
        ):
            model, index = build("profit")
            cost_model, _ = build("cost")
            for mapping in enum.mappings[:25]:
                values = embed_mapping(index, 0, mapping)
                assert max_violation(model, values) <= 1e-9
                achieved = sum(c * values[k] for k, c in model.objective.items())
                assert achieved == pytest.approx(req.profit)
                assert max_violation(cost_model, values) <= 1e-9
                cost = sum(c * values[k] for k, c in cost_model.objective.items())
                assert cost == pytest.approx(mapping_cost(substrate, req, mapping))
                loads = compute_allocations(substrate, req, mapping)
                derived = index.request_state(values, 0).a
                assert len(derived) == len(substrate.resources)
                assert derived == pytest.approx(loads)


def test_flow_relaxation_is_never_stronger(tiny_corpus, tree_corpus, cost_corpus):
    # summing each edge's sub-LP copies over their label mappings turns a
    # decomposable solution into a flow solution with the same acceptance
    # and loads; on a tree every label is empty and the two LPs agree
    equal = 0
    for instance in [*tiny_corpus, *tree_corpus[:20], *cost_corpus]:
        trees = all(len(r.edges) == len(r.nodes) - 1 for r in instance.requests)
        orders = _orders(instance)
        for objective in ("profit", "cost"):
            flow_model, _ = build_mcf(instance.substrate, instance.requests, objective)
            novel_model, _ = build_novel(
                instance.substrate, instance.requests, orders, objective
            )
            flow, novel = solve(flow_model), solve(novel_model)
            if flow.status == "infeasible":
                assert novel.status == "infeasible", instance.name
                continue
            assert flow.optimal, instance.name
            if novel.status == "infeasible":
                assert not trees, instance.name
                continue
            assert novel.optimal, instance.name
            gain = flow.objective_value - novel.objective_value
            if objective == "cost":
                gain = -gain
            assert gain >= -1e-7, (instance.name, objective)
            if trees:
                assert gain <= 1e-7, (instance.name, objective)
            equal += gain <= 1e-7
    assert equal >= 99


def test_build_rejects_an_order_of_other_edges():
    # the order lists the request's edges sorted, the request does not
    hosts = ("v1", "v2", "v3")
    substrate = SubstrateGraph.build(
        {u: {"vm": (2.0, 1.0)} for u in hosts},
        {(a, b): (2.0, 1.0) for a in hosts for b in hosts if a != b},
    )
    path = Request.build(
        "path",
        {i: ("vm", 1.0, hosts) for i in ("a", "b", "c")},
        {e: (1.0, tuple(substrate.edges)) for e in (("a", "b"), ("b", "c"))},
    )
    path = dataclasses.replace(path, edges=tuple(reversed(path.edges)))
    labeled = label_order(
        build_extraction_order(Digraph.build(path.nodes, path.edges), "a")
    )
    assert labeled.order.edges[0].original != path.edges[0]
    with pytest.raises(ValueError, match="does not match"):
        build_novel(substrate, [path], [labeled])


def test_every_variable_lies_in_the_unit_interval(fig3):
    for instance in [fig3, *tiny_corpus(4)]:
        orders = _orders(instance)
        for objective in ("profit", "cost"):
            for model, _ in (
                build_mcf(instance.substrate, instance.requests, objective),
                build_novel(instance.substrate, instance.requests, orders, objective),
            ):
                assert not any("_load_" in c.name for c in model.constraints)
    # the solver keeps every variable in [0, 1] without rows saying so
    for sense, reached in ((MAXIMIZE, 1.0), (MINIMIZE, 0.0)):
        model = LPModel(sense=sense)
        model.set_objective_coefficient(model.add_columns(1), 1.0)
        sol = solve(model)
        assert sol.status == "optimal"
        assert sol.values.tolist() == [reached]
        assert sol.objective_value == reached


def test_variable_count_closed_form():
    for instance in tiny_corpus(5):
        orders = _orders(instance)
        model, index = build_novel(
            instance.substrate, instance.requests, orders, "profit"
        )
        count = count_novel_variables(instance.substrate, instance.requests, orders)
        assert count == model.num_variables == index.num_variables


def test_variable_budget_enforced(fig3):
    orders = _orders(fig3)
    count = count_novel_variables(fig3.substrate, fig3.requests, orders)
    model, _ = build_novel(
        fig3.substrate, fig3.requests, orders, "profit", var_budget=count
    )
    assert model.num_variables == count
    with pytest.raises(BudgetExceededError):
        build_novel(
            fig3.substrate, fig3.requests, orders, "profit", var_budget=count - 1
        )


def test_lp_text_export(fig3):
    model, _ = build_mcf(fig3.substrate, fig3.requests, "profit")
    text = write_lp(model)
    assert text.startswith("Maximize")
    assert "Subject To" in text
    assert text.rstrip().endswith("End")
    cost_model, _ = build_mcf(fig3.substrate, fig3.requests, "cost")
    assert write_lp(cost_model).startswith("Minimize")


@pytest.mark.parametrize(
    "sense, rhs, status",
    [
        (EQ, 0.0, "optimal"),
        (EQ, 1.0, "infeasible"),
        (LE, 1.0, "optimal"),
        (LE, -1.0, "infeasible"),
    ],
)
def test_model_without_variables_checks_its_rows(sense, rhs, status):
    model = LPModel()
    model.add_rows([], [], [0], [sense == EQ], [rhs])
    sol = solve(model)
    assert sol.status == status
    assert sol.objective_value == (0.0 if status == "optimal" else None)


def test_unknown_objective_rejected(fig3):
    with pytest.raises(ValueError):
        build_mcf(fig3.substrate, fig3.requests, "fairness")
    with pytest.raises(ValueError):
        build_novel(fig3.substrate, fig3.requests, _orders(fig3), "fairness")


def test_acceptance_fraction_bounded():
    for instance in tiny_corpus(4):
        orders = _orders(instance)
        model, index = build_novel(
            instance.substrate, instance.requests, orders, "profit"
        )
        sol = solve(model)
        assert sol.status == "optimal"
        for ri in range(len(instance.requests)):
            state = index.request_state(sol.values, ri)
            assert -1e-9 <= state.x <= 1.0 + 1e-9


def _linprog_reference(model: LPModel) -> LPSolution:
    """The earlier solve: one CSR block per sense, handed to ``linprog``,
    on the LP with its alias rows folded away as ``solve`` folds them, and
    the runs of ``solve``'s backend replayed, with the canonical costs
    summed over each alias class and ``solve``'s presolve.

    The linprog fallback's runs are ``c``, then ``d`` over the optimal face
    that the marginals of ``c`` fix. The bindings' first run is the
    perturbed costs; ``linprog`` cannot start a run from an earlier basis,
    so their other two are replayed cold: the re-solve of ``c`` must reach
    the first point's cost, and the solve of ``d`` over the face its
    marginals fix must reach the first point's ``d`` cost. The first point
    is then the canonical point, where the warm runs stay, and its
    objective is HiGHS' sum of ``c_j x_j`` in column order."""
    column, alias_rows = fold_aliases(model)
    n = int(column.max(initial=-1)) + 1
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[column[idx]] += coef
    if model.sense == MAXIMIZE:
        c = -c
    d = np.zeros(n)
    for idx, draw in enumerate(canonical_costs(model.num_variables)):
        d[column[idx]] += draw
    kept = [
        con._replace(coefficients=[(column[i], coef) for i, coef in con.coefficients])
        for con, alias in zip(model.constraints, alias_rows)
        if not alias
    ]

    def matrix(rows):
        if not rows:
            return None, None
        data, ri, ci = [], [], []
        for r, con in enumerate(rows):
            for i, coef in con.coefficients:
                ri.append(r)
                ci.append(i)
                data.append(coef)
        mat = csr_matrix((data, (ri, ci)), shape=(len(rows), n))
        return mat, np.array([con.rhs for con in rows])

    le = [con for con in kept if con.sense == LE]
    eq = [con for con in kept if con.sense == EQ]
    nonzeros = sum(len(con.coefficients) for con in kept)
    options = {"presolve": nonzeros > vnembed.lpmodel.PRESOLVE_NONZEROS}

    def run(costs, held=(), bounds=(0.0, 1.0)):
        """``linprog`` of ``costs`` with the ``<=`` rows ``held`` as
        equalities."""
        a_ub, b_ub = matrix([con for k, con in enumerate(le) if k not in held])
        a_eq, b_eq = matrix([con for k, con in enumerate(le) if k in held] + eq)
        return linprog(
            costs, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=bounds,
            method="highs", options=options,
        )

    scale = max(1.0, float(np.abs(c).max(initial=0.0)))
    bindings = vnembed.lpmodel._highs is not None
    first = run(c + 1e-4 * scale * d if bindings else c)
    status = {0: "optimal", 2: "infeasible"}.get(first.status, "error")
    if status != "optimal":
        return LPSolution(status=status, objective_value=None, values=None)
    costs = run(c) if bindings else first
    # the optimal face: a bound or a <= row whose marginal passes the
    # tolerance holds at every optimal point
    tolerance = 1e-7 * scale
    bounds = [
        (float(at_upper < -tolerance), float(not at_lower > tolerance))
        for at_lower, at_upper in zip(costs.lower.marginals, costs.upper.marginals)
    ]
    held = {k for k, m in enumerate(costs.ineqlin.marginals) if abs(m) > tolerance}
    face = run(d, held, bounds)
    assert face.status == 0
    if bindings:
        point, objective = first.x, 0.0
        for cost, value in zip(c.tolist(), point.tolist()):
            objective += cost * value
        assert abs(objective - costs.fun) <= 1e-9 * max(1.0, abs(costs.fun))
        assert abs(d @ point - face.fun) <= 1e-9 * max(1.0, abs(face.fun))
    else:
        point, objective = face.x, float(costs.fun)
    if model.sense == MAXIMIZE:
        objective = -objective
    return LPSolution(
        status=status, objective_value=objective, values=point[column]
    )


def _max_violation_loop(model: LPModel, values: np.ndarray) -> float:
    """The earlier ``max_violation``: one Python pass over the rows."""
    worst = 0.0
    if len(values):
        worst = max(worst, -float(values.min()), float(values.max()) - 1.0)
    for con in model.constraints:
        lhs = sum(values[i] * c for i, c in con.coefficients)
        if con.sense == EQ:
            worst = max(worst, abs(lhs - con.rhs))
        else:
            worst = max(worst, lhs - con.rhs)
    return worst


def _equivalence_models(fig3, fig3_gadget, tiny_corpus, tree_corpus):
    instances = [
        fig3, fig3_gadget, scenario_instance("halfwheel:4"),
        *tiny_corpus, *tree_corpus,
    ]
    for instance in instances:
        orders = _orders(instance)
        for objective in ("profit", "cost"):
            yield build_mcf(instance.substrate, instance.requests, objective)[0]
            yield build_novel(
                instance.substrate, instance.requests, orders, objective
            )[0]
    yield _bare_model()


def _bare_model() -> LPModel:
    """Three unconstrained columns, one of them priced negative."""
    bare = LPModel(sense=MAXIMIZE)
    for k, coef in enumerate((1.0, -2.0, 0.5)):
        bare.set_objective_coefficient(bare.add_columns(1), coef)
    return bare


def test_direct_solve_matches_linprog(fig3, fig3_gadget, tiny_corpus, tree_corpus):
    statuses = set()
    for model in _equivalence_models(fig3, fig3_gadget, tiny_corpus, tree_corpus):
        ours, reference = solve(model), _linprog_reference(model)
        assert ours.status == reference.status
        assert ours.objective_value == reference.objective_value
        if reference.values is None:
            assert ours.values is None
        else:
            assert np.array_equal(ours.values, reference.values)
        statuses.add(ours.status)
    # fig3 has no valid mapping, so its decomposable cost LP is infeasible
    assert statuses == {"optimal", "infeasible"}


def test_solution_carries_solver_diagnostics(fig3):
    infeasible, _ = build_novel(fig3.substrate, fig3.requests, _orders(fig3), "cost")
    sol = solve(infeasible)
    assert sol.status == "infeasible"
    assert sol.message
    assert sol.outcome == f"infeasible ({sol.message})"
    # halfwheel:4 takes simplex iterations
    halfwheel = scenario_instance("halfwheel:4")
    model, _ = build_novel(
        halfwheel.substrate, halfwheel.requests, _orders(halfwheel), "cost"
    )
    sol = solve(model)
    assert sol.optimal and sol.message and sol.iterations > 0
    assert LPSolution(status="error", objective_value=None, values=None).outcome == "error"


@pytest.mark.parametrize("name", ["fig3", "halfwheel:4"])
@pytest.mark.parametrize("variant", ["profit", "cost"])
def test_linprog_fallback_gives_the_same_results(name, variant, monkeypatch):
    instance = scenario_instance(name)
    model, _ = build_novel(
        instance.substrate, instance.requests, _orders(instance), variant
    )
    direct = solve(model)
    calls = []

    def counted(*args, **kwargs):
        calls.append(kwargs)
        return linprog(*args, **kwargs)

    # the name the benchmark tracer hooks forwards to scipy's linprog
    monkeypatch.setattr(scipy.optimize, "linprog", counted)
    # as if the bindings were missing (scipy < 1.15)
    monkeypatch.setattr(vnembed.lpmodel, "_highs", None)
    fallback = solve(model)
    # the costs, then the canonical costs over the optimal face
    assert len(calls) == (2 if direct.optimal else 1)
    assert all(call["method"] == "highs" for call in calls)
    assert fallback.status == direct.status
    assert fallback.objective_value == direct.objective_value
    assert fallback.message
    if direct.values is None:
        assert fallback.values is None
    else:
        assert np.array_equal(fallback.values, direct.values)


def test_max_violation_matches_row_loop(fig3, fig3_gadget, tiny_corpus, tree_corpus):
    rng = np.random.default_rng(5)
    checked = 0
    for model in _equivalence_models(fig3, fig3_gadget, tiny_corpus, tree_corpus):
        sol = solve(model)
        points = [rng.uniform(-0.1, 1.1, model.num_variables)]
        if sol.optimal:
            points += [sol.values, sol.values + rng.normal(0, 1e-3, len(sol.values))]
        for values in points:
            assert max_violation(model, values) == pytest.approx(
                _max_violation_loop(model, values), abs=1e-12
            )
            checked += 1
    assert checked > 0


def _same(ours: np.ndarray, reference: np.ndarray) -> bool:
    """Equal bit for bit, down to the dtype and the sign of zeros."""
    return (
        ours.dtype == reference.dtype
        and ours.shape == reference.shape
        and ours.tobytes() == reference.tobytes()
    )


def _layout(cols) -> list:
    """Every ``RequestColumns`` dict as a list of items, in insertion order."""
    return [
        cols.x,
        list(cols.y.items()),
        list(cols.sub_x.items()),
        list(cols.sub_y.items()),
        [(key, list(flows.items())) for key, flows in cols.sub_z.items()],
        list(cols.gamma.items()),
    ]


def test_array_build_matches_the_object_build(
    fig3, fig3_gadget, tiny_corpus, tree_corpus, width3_corpus
):
    # the array build must hand HiGHS exactly the matrix, bounds and costs
    # of the object-per-row build it replaced, export the same text and
    # give decomposition the same request loads
    cases = [
        (instance, _orders(instance))
        for instance in (
            fig3, fig3_gadget, scenario_instance("halfwheel:4"),
            *tiny_corpus, *tree_corpus,
        )
    ]
    width3 = [
        (instance, [labeled])
        for instance, labeled in width3_corpus
        if labeled.width == 3
    ]
    # hosts listed against name order, so label placements enumerate out
    # of sorted order
    unsorted = [
        (
            dataclasses.replace(
                instance,
                requests=tuple(
                    dataclasses.replace(
                        req,
                        allowed_nodes={
                            i: hosts[::-1] for i, hosts in req.allowed_nodes.items()
                        },
                    )
                    for req in instance.requests
                ),
            ),
            orders,
        )
        for instance, orders in width3
    ]
    cases += width3 + unsorted
    rng = np.random.default_rng(12)
    compared = 0
    for instance, orders in cases:
        substrate, requests = instance.substrate, instance.requests
        for objective in ("profit", "cost"):
            for build_orders in (orders, flow_orders(requests)):
                model, index = build_novel(
                    substrate, requests, build_orders, objective
                )
                reference, ref_index = lp_reference.build_novel(
                    substrate, requests, build_orders, objective
                )
                assert _same(
                    objective_vector(model), lp_reference.objective_vector(reference)
                )
                matrix, lower, upper = constraint_matrix(model)
                ref_matrix, ref_lower, ref_upper = lp_reference.constraint_matrix(
                    reference
                )
                assert _same(matrix.indptr, ref_matrix.indptr)
                assert _same(matrix.indices, ref_matrix.indices)
                assert _same(matrix.data, ref_matrix.data)
                assert _same(lower, ref_lower)
                assert _same(upper, ref_upper)
                assert index.num_variables == ref_index.num_variables
                assert [_layout(c) for c in index.columns] == [
                    _layout(c) for c in ref_index.columns
                ]
                assert write_lp(model) == lp_reference.write_lp(reference)
                values = rng.uniform(0.0, 1.0, model.num_variables)
                for r in range(len(requests)):
                    state = index.request_state(values, r)
                    assert state.residual == values.tolist()
                    loads = lp_reference.request_loads(ref_index, values, r)
                    assert state.a.tolist() == list(loads.values())
                compared += 1
    assert compared == 4 * len(cases)
    assert len(width3) == 8


def test_array_build_matches_the_object_build_on_the_benchmark(bench_workloads):
    # the distinct instances of the benchmark's workloads at seed 1: the
    # half-wheels 8-10, the seed-sweep batch and the joint LPs of 4 cactus
    # requests, under their searched orders and both objectives
    instances = {
        op.instance.name: op.instance
        for make in bench_workloads.WORKLOADS.values()
        for op in make(1)
    }
    rng = np.random.default_rng(13)
    for instance in instances.values():
        substrate, requests = instance.substrate, instance.requests
        orders = _orders(instance)
        for objective in ("profit", "cost"):
            model, index = build_novel(substrate, requests, orders, objective)
            reference, ref_index = lp_reference.build_novel(
                substrate, requests, orders, objective
            )
            assert _same(
                objective_vector(model), lp_reference.objective_vector(reference)
            )
            matrix, lower, upper = constraint_matrix(model)
            ref_matrix, ref_lower, ref_upper = lp_reference.constraint_matrix(
                reference
            )
            for part in ("indptr", "indices", "data"):
                assert _same(getattr(matrix, part), getattr(ref_matrix, part))
            assert _same(lower, ref_lower)
            assert _same(upper, ref_upper)
            assert [_layout(c) for c in index.columns] == [
                _layout(c) for c in ref_index.columns
            ]
            assert write_lp(model) == lp_reference.write_lp(reference)
            values = rng.uniform(0.0, 1.0, model.num_variables)
            for r in range(len(requests)):
                loads = lp_reference.request_loads(ref_index, values, r)
                assert index.request_state(values, r).a.tolist() == list(
                    loads.values()
                )
    assert len(instances) == 3 + 16 + 24


@pytest.mark.skipif(
    vnembed.lpmodel._highs is None, reason="scipy without HiGHS bindings"
)
def test_array_handoff_matches_the_list_handoff(
    fig3, fig3_gadget, tiny_corpus, tree_corpus
):
    # HiGHS gets the arrays through its array overload and must return
    # what it returns for a HighsLp filled from lists, bit for bit
    statuses = set()
    for model in _equivalence_models(fig3, fig3_gadget, tiny_corpus, tree_corpus):
        c = objective_vector(model)
        matrix, lower, upper = constraint_matrix(model)
        d = canonical_costs(model.num_variables)
        ours = vnembed.lpmodel._run_highs(c, matrix, lower, upper, d)
        reference = lp_reference.run_highs(c, matrix, lower, upper, d)
        assert ours.status == reference.status
        assert ours.message == reference.message
        assert ours.iterations == reference.iterations
        assert ours.objective_value == reference.objective_value
        if reference.values is None:
            assert ours.values is None
        else:
            assert _same(ours.values, reference.values)
        statuses.add(ours.status)
    assert statuses == {"optimal", "infeasible"}


def test_add_rows_appends_to_the_rows_already_set():
    model = LPModel(sense=MAXIMIZE)
    a = model.add_columns(2)
    model.add_rows([a], [1.0], [1], [False], [0.5])
    model.add_rows([a, a + 1], [1.0, 2.0], [2], [True], [1.0])
    cols, vals, lengths, eq, rhs = model.rows()
    assert cols.tolist() == [a, a, a + 1]
    assert vals.tolist() == [1.0, 1.0, 2.0]
    assert lengths.tolist() == [1, 2]
    assert eq.tolist() == [False, True]
    assert rhs.tolist() == [0.5, 1.0]
    # both rows bind: x0 <= 0.5 and x0 + 2 x1 == 1 cap x0 + x1 at 0.75
    model.set_objective_coefficient(a, 1.0)
    model.set_objective_coefficient(a + 1, 1.0)
    sol = solve(model)
    assert sol.status == "optimal"
    assert sol.objective_value == pytest.approx(0.75)


def _malformed_model() -> LPModel:
    """An LP HiGHS refuses to take: a coefficient beyond its matrix limit."""
    model = LPModel()
    a = model.add_columns(2)
    model.add_rows([a, a + 1], [1e300, 1.0], [2], [False], [1.0])
    model.set_objective_coefficient(a, 1.0)
    return model


def _isolation_steps(fig3, fig3_gadget, tiny_corpus, tree_corpus):
    """Models to solve in a row. Per profit LP of the corpora: the LP, an
    infeasible LP, a malformed one, and the profit LP again."""
    infeasible, _ = build_novel(fig3.substrate, fig3.requests, _orders(fig3), "cost")
    malformed = _malformed_model()
    steps = []
    for instance in (
        fig3_gadget, scenario_instance("halfwheel:4"), *tiny_corpus, *tree_corpus
    ):
        model, _ = build_novel(
            instance.substrate, instance.requests, _orders(instance), "profit"
        )
        steps += [model, infeasible, malformed, model]
    return steps


def _assert_same_solution(ours: LPSolution, reference: LPSolution) -> None:
    assert ours.status == reference.status
    assert ours.message == reference.message
    assert ours.iterations == reference.iterations
    assert ours.objective_value == reference.objective_value
    if reference.values is None:
        assert ours.values is None
    else:
        assert _same(ours.values, reference.values)


@pytest.mark.skipif(
    vnembed.lpmodel._highs is None, reason="scipy without HiGHS bindings"
)
def test_reused_solver_matches_a_fresh_solver_per_solve(
    fig3, fig3_gadget, tiny_corpus, tree_corpus
):
    # the thread's one HiGHS object returns what a new object returns, bit
    # for bit, whatever it solved before: optimal, infeasible and malformed LPs
    statuses = set()
    for model in _isolation_steps(fig3, fig3_gadget, tiny_corpus, tree_corpus):
        ours = solve(model)
        _assert_same_solution(ours, lp_reference.solve_fresh(model))
        statuses.add(ours.status)
    assert statuses == {"optimal", "infeasible", "error"}


@pytest.mark.skipif(
    vnembed.lpmodel._highs is None, reason="scipy without HiGHS bindings"
)
def test_threads_solve_as_a_sequential_run(fig3, fig3_gadget, tiny_corpus, tree_corpus):
    # more threads than cores, switching often: each keeps its own solver,
    # so no solve meets another thread's model
    steps = _isolation_steps(fig3, fig3_gadget, tiny_corpus, tree_corpus)
    sequential = [solve(model) for model in steps]
    threads = 4
    start = threading.Barrier(threads)

    def run():
        start.wait(timeout=60)
        return [solve(model) for model in steps]

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        with ThreadPoolExecutor(threads) as pool:
            runs = [pool.submit(run) for _ in range(threads)]
            results = [run.result(timeout=300) for run in runs]
    finally:
        sys.setswitchinterval(interval)
    for result in results:
        assert len(result) == len(sequential)
        for ours, reference in zip(result, sequential):
            _assert_same_solution(ours, reference)


def test_reused_solver_stays_silent(fig3_gadget, capfd):
    # clearModel keeps the options, logging off among them; clear() would not
    model, _ = build_novel(
        fig3_gadget.substrate, fig3_gadget.requests, _orders(fig3_gadget), "profit"
    )
    for _ in range(3):
        solve(model)
    assert capfd.readouterr() == ("", "")


def _solve_in_child(sender, models) -> None:
    solutions = [solve(model) for model in models]
    own = vnembed.lpmodel._slot.pid == os.getpid()
    sender.send((own, solutions))
    sender.close()


@pytest.mark.skipif(
    vnembed.lpmodel._highs is None or not hasattr(os, "fork"),
    reason="scipy without HiGHS bindings, or no fork",
)
def test_forked_child_solves_with_its_own_solver(fig3):
    instance = scenario_instance("halfwheel:4")
    model, _ = build_novel(
        instance.substrate, instance.requests, _orders(instance), "profit"
    )
    infeasible, _ = build_novel(fig3.substrate, fig3.requests, _orders(fig3), "cost")
    models = [model, infeasible, model]
    # the parent's solver holds a model; a child must make its own solver
    # instead of using the copy of the parent's that fork leaves behind
    expected = [solve(m) for m in models]
    context = multiprocessing.get_context("fork")
    receiver, sender = context.Pipe(duplex=False)
    child = context.Process(target=_solve_in_child, args=(sender, models))
    child.start()
    sender.close()
    assert receiver.poll(120)
    own, solutions = receiver.recv()
    child.join(timeout=120)
    assert child.exitcode == 0  # None while it still runs
    assert own
    assert len(solutions) == len(expected)
    for ours, reference in zip(solutions, expected):
        _assert_same_solution(ours, reference)


def _scipy_matrix(model: LPModel) -> csc_array:
    """The rows as scipy's ``csc_array``, with scipy summing the entries a
    row repeats for one column."""
    cols, vals, lengths, eq, _ = model.rows()
    order = np.argsort(eq, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    row_of = np.repeat(position, lengths)
    by_column = np.lexsort((row_of, cols))  # column, row, then insertion
    starts = np.zeros(model.num_variables + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols, minlength=model.num_variables), out=starts[1:])
    matrix = csc_array(
        (vals[by_column], row_of[by_column], starts),
        shape=(len(order), model.num_variables),
    )
    matrix.sum_duplicates()
    return matrix


def _repeating_model() -> LPModel:
    """Rows that list one column several times; the sums depend on the
    order of the additions, and one of them is zero."""
    model = LPModel()
    model.add_columns(3)
    model.add_rows(
        [1, 0, 1, 1] + [2, 0, 2, 0, 0] + [2],
        [0.1, 1.0, 0.2, 0.3] + [1.0, 1e16, -1.0, 1.0, -1e16] + [-0.0],
        [4, 5, 1],
        [True, False, False],  # rows "eq", "le" and "single"
        [0.6, 1.0, 0.0],
    )
    return model


def test_matrix_and_product_match_scipy(fig3, fig3_gadget, tiny_corpus, tree_corpus):
    rng = np.random.default_rng(13)
    repeating = _repeating_model()
    models = [
        *_equivalence_models(fig3, fig3_gadget, tiny_corpus, tree_corpus),
        repeating,
    ]
    for model in models:
        matrix, lower, upper = constraint_matrix(model)
        reference = _scipy_matrix(model)
        assert matrix.shape == reference.shape
        assert _same(matrix.indptr, reference.indptr)
        assert _same(matrix.indices, reference.indices)
        assert _same(matrix.data, reference.data)
        if model is repeating:
            continue  # its row sums depend on the order of the additions
        for values in (
            rng.uniform(-1.0, 1.0, model.num_variables),
            rng.uniform(0.0, 1.0, model.num_variables) * 1e8,
        ):
            # the primal check sums the row buffers, not the matrix
            lhs = reference @ values
            parts = ([0.0], -values, values - 1.0, lhs - upper, lower - lhs)
            assert max_violation(model, values) == pytest.approx(
                float(np.max(np.concatenate(parts))), rel=1e-12
            )
    # summed in insertion order into one entry per (row, column), zeros kept
    matrix, _, _ = constraint_matrix(_repeating_model())
    # (rows: "le", "single", then "eq")
    assert matrix.indptr.tolist() == [0, 2, 3, 5]
    assert matrix.indices.tolist() == [0, 2, 2, 0, 1]
    assert matrix.data.tolist() == [0.0, 1.0, (0.1 + 0.2) + 0.3, 0.0, -0.0]
    assert math.copysign(1.0, matrix.data[-1]) == -1.0


def _solver_entry():
    """The name ``solve`` hands its arrays to, and that function."""
    name = "_run_highs" if vnembed.lpmodel._highs is not None else "_run_linprog"
    return name, getattr(vnembed.lpmodel, name)


def _off_model(monkeypatch, kind):
    """Make the solve path report optimal with a point moved off the model."""
    name, honest = _solver_entry()

    def run(*arrays):
        solution = honest(*arrays)
        values = solution.values
        solution.values = {
            "row": np.ones_like(values),  # inside the box, outside the rows
            "box": values - 1e-3,  # every zero goes below its lower bound
            "nan": np.full_like(values, np.nan),
            "within": values + 1e-5,  # inside linprog's tolerance
        }[kind]
        return solution

    monkeypatch.setattr(vnembed.lpmodel, name, run)


@pytest.mark.parametrize("kind", ["row", "box", "nan"])
def test_optimal_point_off_the_model_is_an_error(fig3_gadget, monkeypatch, kind):
    model, _ = build_novel(
        fig3_gadget.substrate, fig3_gadget.requests, _orders(fig3_gadget), "profit"
    )
    honest = solve(model)
    _off_model(monkeypatch, kind)
    solution = solve(model)
    assert solution.status == "error"
    assert solution.values is None and solution.objective_value is None
    assert "violates a bound or row by" in solution.message
    assert solution.iterations == honest.iterations
    with pytest.raises(vnembed.pipeline.PipelineError) as err:
        vnembed.pipeline.run_pipeline(
            fig3_gadget, vnembed.pipeline.PipelineConfig(variant="profit", seed=1)
        )
    assert err.value.stage == "solve-lp"
    assert "violates a bound or row by" in str(err.value)


def test_optimal_point_within_tolerance_stays_optimal(fig3_gadget, monkeypatch):
    model, _ = build_novel(
        fig3_gadget.substrate, fig3_gadget.requests, _orders(fig3_gadget), "profit"
    )
    honest = solve(model)
    _off_model(monkeypatch, "within")
    solution = solve(model)
    assert solution.optimal
    assert solution.objective_value == honest.objective_value
    assert np.array_equal(solution.values, honest.values + 1e-5)


def _solve_recording(model, monkeypatch):
    """``solve(model)``, the ``(c, matrix, lower, upper)`` it handed the
    solver, and the canonical costs it handed with them."""
    entry, run = _solver_entry()
    passed = []

    def recording(*args):
        passed.append(args)
        return run(*args)

    monkeypatch.setattr(vnembed.lpmodel, entry, recording)
    solution = solve(model)
    monkeypatch.setattr(vnembed.lpmodel, entry, run)
    ((*arrays, d),) = passed
    return solution, arrays, d


def _assert_unfolded_input(arrays, model):
    """``arrays`` are ``model``'s cost vector, matrix and row bounds as
    built, bit for bit."""
    c, matrix, lower, upper = arrays
    expected, expected_lower, expected_upper = constraint_matrix(model)
    assert _same(c, objective_vector(model))
    assert matrix.shape == expected.shape
    for got, want in zip(
        (*matrix[:3], lower, upper), (*expected[:3], expected_lower, expected_upper)
    ):
        assert _same(got, want)


def _rows_model(num_columns, rows, objective=()) -> LPModel:
    """A minimizing model from ``(entries, sense, rhs)`` rows, each entry a
    ``(column, coefficient)`` pair, and ``(column, coefficient)`` costs."""
    model = LPModel()
    model.add_columns(num_columns)
    model.add_rows(
        [col for entries, _, _ in rows for col, _ in entries],
        [coef for entries, _, _ in rows for _, coef in entries],
        [len(entries) for entries, _, _ in rows],
        [sense == EQ for _, sense, _ in rows],
        [rhs for _, _, rhs in rows],
    )
    for col, coef in objective:
        model.set_objective_coefficient(col, coef)
    return model


def test_alias_chains_and_cycles_fold_onto_their_lowest_column():
    model = _rows_model(
        10,
        [
            ([(0, 1.0), (2, -1.0)], EQ, 0.0),  # the chain 0 - 2 - 3 - 5
            ([(5, 1.0), (1, 1.0)], LE, 1.0),
            ([(2, -1.0), (3, 1.0)], EQ, 0.0),
            ([(6, 1.0), (7, -1.0)], EQ, 0.0),  # the cycle 6 - 7 - 8
            ([(5, 1.0), (4, 0.5)], LE, 0.75),
            ([(7, 1.0), (8, -1.0)], EQ, 0.0),
            ([(5, 1.0), (3, -1.0)], EQ, 0.0),
            ([(8, -1.0), (6, 1.0)], EQ, 0.0),
            ([(8, 1.0), (7, 1.0), (1, 1.0)], LE, 1.5),
        ],
        objective=[(0, 1.0), (3, 2.0), (4, 0.5), (8, -1.0), (6, -0.25), (9, 1.0)],
    )
    column, alias_rows = fold_aliases(model)
    # the chain keeps its lowest index 0, the cycle its lowest index 6,
    # whatever their entry counts; 1, 4 and 9 stand alone
    assert column.tolist() == [0, 1, 0, 0, 2, 0, 3, 3, 3, 4]
    assert np.flatnonzero(~alias_rows).tolist() == [1, 4, 8]
    # the solver gets the LP over the 5 survivors (0, 1, 4, 6, 9 in their
    # order), with the other rows in their order and the objective summed
    folded = _rows_model(
        5,
        [
            ([(0, 1.0), (1, 1.0)], LE, 1.0),
            ([(0, 1.0), (2, 0.5)], LE, 0.75),
            ([(3, 1.0), (3, 1.0), (1, 1.0)], LE, 1.5),
        ],
        objective=[(0, 3.0), (2, 0.5), (3, -1.25), (4, 1.0)],
    )
    _assert_unfolded_input(solver_input(model)[1:], folded)
    solution = solve(model)
    assert solution.optimal
    assert solution.objective_value == -0.9375
    assert solution.values.tolist() == [0.0] * 6 + [0.75] * 3 + [0.0]


@pytest.mark.parametrize(
    "entries, sense, rhs",
    [
        ([(0, 1.0), (1, -2.0)], EQ, 0.0),
        ([(0, 1.0), (1, -1.0)], EQ, 0.5),
        ([(0, 1.0), (1, -1.0)], LE, 0.0),
        ([(0, 1.0), (0, -1.0)], EQ, 0.0),
    ],
    ids=["coefficients", "rhs", "sense", "one-column"],
)
def test_other_two_term_rows_are_not_aliases(entries, sense, rhs):
    model = _rows_model(2, [(entries, sense, rhs)], objective=[(0, -1.0)])
    column, alias_rows = fold_aliases(model)
    assert column.tolist() == [0, 1]
    assert alias_rows.tolist() == [False]
    _assert_unfolded_input(solver_input(model)[1:], model)


def test_aliased_pair_in_one_row_keeps_a_zero_entry():
    # x0 = x1 folds x0 - x1 + x2 <= 1 onto x0 twice: the +1 and -1 sum to an
    # explicit zero, as constraint_matrix keeps any sum of repeated entries
    model = _rows_model(
        3,
        [
            ([(0, 1.0), (1, -1.0), (2, 1.0)], LE, 1.0),
            ([(1, 1.0), (0, -1.0)], EQ, 0.0),
        ],
    )
    column, alias_rows = fold_aliases(model)
    assert column.tolist() == [0, 0, 1]  # the class {0, 1} keeps 0
    assert alias_rows.tolist() == [False, True]
    _, _, matrix, lower, upper = solver_input(model)
    assert matrix.indptr.tolist() == [0, 1, 2]
    assert matrix.indices.tolist() == [0, 0]
    assert matrix.data.tolist() == [0.0, 1.0]
    assert lower.tolist() == [-np.inf] and upper.tolist() == [1.0]


def test_folded_maximize_costs_keep_negative_zeros(fig3, monkeypatch):
    # the class sums are negated after the fold, so every zero cost reaches
    # the solver as -0.0, as a negated zero vector has it; negating before
    # the sum would turn them into +0.0
    model, _ = build_novel(fig3.substrate, fig3.requests, _orders(fig3), "profit")
    assert model.sense == MAXIMIZE
    solution, (c, matrix, _, _), _ = _solve_recording(model, monkeypatch)
    assert solution.optimal
    column, _ = fold_aliases(model)
    assert matrix.shape[1] == len(c) < model.num_variables
    zero = c == 0.0
    assert zero.any() and np.signbit(c[zero]).all()
    negated_first = np.bincount(column, weights=objective_vector(model))
    assert not np.signbit(negated_first[zero]).any()


@pytest.mark.parametrize("name", ["fig3-cost-gadget", "halfwheel:4"])
@pytest.mark.parametrize("variant", ["profit", "cost"])
def test_model_without_alias_rows_reaches_the_solver_unchanged(
    name, variant, monkeypatch
):
    instance = scenario_instance(name)
    built, _ = build_novel(
        instance.substrate, instance.requests, _orders(instance), variant
    )
    # every two-term ``== 0`` row doubled: the same LP, but no alias rows
    cols, vals, lengths, eq, rhs = built.rows()
    pair = eq & (lengths == 2) & (rhs == 0.0)
    model = LPModel(sense=built.sense, objective=dict(built.objective))
    model.add_columns(built.num_variables)
    model.add_rows(
        cols, vals * np.repeat(np.where(pair, 2.0, 1.0), lengths), lengths, eq, rhs
    )
    column, alias_rows = fold_aliases(model)
    assert pair.any() and not alias_rows.any()
    assert column.tolist() == list(range(model.num_variables))
    ours, arrays, d = _solve_recording(model, monkeypatch)
    _assert_unfolded_input(arrays, model)
    assert _same(d, canonical_costs(model.num_variables))
    _, run = _solver_entry()
    direct = run(*arrays, d)
    assert ours.optimal and direct.optimal
    sign = -1.0 if model.sense == MAXIMIZE else 1.0
    assert ours.objective_value == sign * direct.objective_value
    assert ours.iterations == direct.iterations
    assert _same(ours.values, direct.values)


@pytest.mark.parametrize("capacity", [None, 0.7, 0.5], ids=["drawn", "c0.7", "c0.5"])
def test_folded_solve_matches_the_unfolded_lp(
    capacity, fig3, fig3_gadget, tiny_corpus, tree_corpus, cost_corpus,
    with_capacity,
):
    # the fold is a fast path: the unfolded arrays solved directly reach the
    # same status and optimum, and the point solve expands satisfies the
    # model as built and decomposes for every request
    _, run = _solver_entry()
    instances = [
        *tiny_corpus, *tree_corpus, *cost_corpus, fig3, fig3_gadget,
        *(scenario_instance(f"halfwheel:{k}") for k in range(2, 9)),
    ]
    statuses, folded = set(), 0
    for instance in instances:
        if capacity is not None:
            instance = with_capacity(instance, capacity)
        orders = _orders(instance)
        for objective in ("profit", "cost"):
            model, index = build_novel(
                instance.substrate, instance.requests, orders, objective
            )
            folded += fold_aliases(model)[0].max() + 1 < model.num_variables
            ours = solve(model)
            direct = run(
                objective_vector(model), *constraint_matrix(model),
                canonical_costs(model.num_variables),
            )
            assert ours.status == direct.status
            statuses.add(ours.status)
            if not ours.optimal:
                continue
            sign = -1.0 if model.sense == MAXIMIZE else 1.0
            assert ours.objective_value == pytest.approx(
                sign * direct.objective_value, rel=1e-9
            )
            assert max_violation(model, ours.values) <= 1e-9
            for r, req in enumerate(instance.requests):
                state = index.request_state(ours.values, r)
                x, loads = state.x, state.a
                dec = decompose_novel(instance.substrate, req, index.orders[r], state)
                check = verify_decomposition(instance.substrate, req, dec, x, loads)
                assert check.ok, (instance.name, objective, req.name, check)
    assert statuses == {"optimal", "infeasible"}
    assert folded == 2 * len(instances)


def assert_lp_invariant(instance, variant, relation):
    """Require the LP of ``instance`` under its searched orders and the LP
    of what ``relation`` makes of it to agree: the same status and, when
    optimal, the same objective to a relative 1e-9. ``relation`` maps an
    instance to an instance and one labeled order per request."""
    outcomes = []
    for case, orders in ((instance, _orders(instance)), relation(instance)):
        model, _ = build_novel(case.substrate, case.requests, orders, variant)
        outcomes.append(solve(model))
    base, other = outcomes
    assert other.status == base.status, instance.name
    if base.optimal:
        assert other.objective_value == pytest.approx(
            base.objective_value, rel=1e-9
        ), instance.name


def bfs_orders_from_drawn_roots(instance):
    """Every request's BFS order from a root drawn with ``default_rng(0)``."""
    rng = np.random.default_rng(0)
    return instance, [
        label_order(
            build_extraction_order(req, req.nodes[rng.integers(len(req.nodes))])
        )
        for req in instance.requests
    ]


def _pin(labeled):
    return labeled.order.root, [e.reversed for e in labeled.order.edges]


# 16 LP pairs: seeded instances of every family the pipeline runs, both
# variants, each small enough to solve twice in tier-1
_INVARIANCE_CASES = [
    lambda get: [
        (get("bench_workloads").cactus_instance(1, j), "profit") for j in (0, 1)
    ],
    lambda get: [(scenario_instance(f"halfwheel:{n}"), "cost") for n in (5, 6, 7)],
    lambda get: [(instance, "profit") for instance in get("tree_corpus")[:4]],
    lambda get: [(instance, "cost") for instance in get("cost_corpus")[:4]],
    lambda get: [
        (get("fig3_gadget"), "profit"), (get("fig3_gadget"), "cost"),
        (get("fig4"), "profit"),
    ],
]
_INVARIANCE_IDS = ["cactus-profit", "halfwheel-cost", "tree-corpus", "cost-corpus", "figures"]


@pytest.mark.parametrize("cases", _INVARIANCE_CASES, ids=_INVARIANCE_IDS)
def test_lp_does_not_depend_on_the_labeled_order(request, cases):
    # any valid labeled order gives the LP of the valid mappings, so a BFS
    # order from a drawn root (wider on the half-wheels and fig4) must give
    # the searched order's status and objective
    for instance, variant in cases(request.getfixturevalue):
        _, drawn = bfs_orders_from_drawn_roots(instance)
        assert any(_pin(a) != _pin(b) for a, b in zip(drawn, _orders(instance)))
        assert_lp_invariant(instance, variant, bfs_orders_from_drawn_roots)


def _rebuilt(instance, substrate_name=str, request_names=lambda req: str, scale=1.0):
    """``instance`` built again with substrate node ``u`` named
    ``substrate_name(u)`` and request node ``i`` of ``req`` named
    ``request_names(req)(i)``, every capacity and demand times ``scale`` and
    every cost divided by it. Allowed lists and edges follow the names."""
    sub = instance.substrate
    s = substrate_name
    node_types = {s(u): {} for u in sub.nodes}
    for (t, u), cap in sub.node_capacity.items():
        node_types[s(u)][t] = (cap * scale, sub.node_cost[(t, u)] / scale)
    edges = {
        (s(a), s(b)): (cap * scale, sub.edge_cost[(a, b)] / scale)
        for (a, b), cap in sub.edge_capacity.items()
    }
    requests = []
    for req in instance.requests:
        n = request_names(req)
        requests.append(Request.build(
            req.name,
            {
                n(i): (
                    req.node_type[i], req.node_demand[i] * scale,
                    [s(u) for u in req.allowed_nodes[i]],
                )
                for i in req.nodes
            },
            {
                (n(i), n(j)): (
                    req.edge_demand[(i, j)] * scale,
                    [(s(a), s(b)) for a, b in req.allowed_edges[(i, j)]],
                )
                for i, j in req.edges
            },
            profit=req.profit,
        ))
    return dataclasses.replace(
        instance,
        substrate=SubstrateGraph.build(node_types, edges),
        requests=tuple(requests),
    )


def _reversing(names):
    """A renaming that reverses the sort order of ``names``."""
    ranked = sorted(names)
    return {v: f"n{len(ranked) - 1 - k:03d}" for k, v in enumerate(ranked)}.__getitem__


def requests_reversed(instance):
    case = dataclasses.replace(instance, requests=instance.requests[::-1])
    return case, _orders(case)


def nodes_renamed_in_reverse_order(instance):
    case = _rebuilt(
        instance, _reversing(instance.substrate.nodes), lambda req: _reversing(req.nodes)
    )
    return case, _orders(case)


def capacities_and_demands_doubled_costs_halved(instance):
    # powers of two scale exactly: every row and cost term keeps its value
    case = _rebuilt(instance, scale=2.0)
    return case, _orders(case)


def allowed_lists_reversed(instance):
    # Request.build would sort the lists back, so replace them directly
    case = dataclasses.replace(instance, requests=tuple(
        dataclasses.replace(
            req,
            allowed_nodes={i: hosts[::-1] for i, hosts in req.allowed_nodes.items()},
            allowed_edges={e: paths[::-1] for e, paths in req.allowed_edges.items()},
        )
        for req in instance.requests
    ))
    return case, _orders(case)


@pytest.mark.parametrize(
    "relation",
    [
        requests_reversed,
        nodes_renamed_in_reverse_order,
        capacities_and_demands_doubled_costs_halved,
        allowed_lists_reversed,
    ],
    ids=["requests-reversed", "nodes-renamed", "scaled", "allowed-reversed"],
)
@pytest.mark.parametrize("cases", _INVARIANCE_CASES, ids=_INVARIANCE_IDS)
def test_lp_keeps_its_outcome_under_metamorphic_relations(request, cases, relation):
    # the LP is that of the valid mappings, and none of these relations
    # changes which mappings are valid, what they load relative to
    # capacity, or what they earn or cost
    for instance, variant in cases(request.getfixturevalue):
        assert_lp_invariant(instance, variant, relation)


@pytest.fixture(scope="module")
def canonical_corpus(tiny_corpus, tree_corpus, cost_corpus, bench_workloads):
    """The tiny, tree and cost corpora and the first two instances of the
    cactus batches of seeds 1 and 2."""
    cactus = bench_workloads.cactus_instance
    return [
        *tiny_corpus, *tree_corpus, *cost_corpus,
        *(cactus(seed, j) for seed in (1, 2) for j in (0, 1)),
    ]


def _canonical_models(instances):
    """The decomposable LP of every instance, under both variants."""
    for instance in instances:
        orders = _orders(instance)
        for variant in ("profit", "cost"):
            yield build_novel(instance.substrate, instance.requests, orders, variant)[0]


_SOLVER = vnembed.lpmodel._solver


def _fresh_solver():
    """A new HiGHS object, made for each solve."""
    vnembed.lpmodel._slot.pid = None
    return _SOLVER()


# every way to reach the canonical point, next to the default one
_SOLVE_PATHS = {
    "presolve-on": ("PRESOLVE_NONZEROS", -1),
    "presolve-off": ("PRESOLVE_NONZEROS", math.inf),
    "linprog": ("_highs", None),
    "fresh-solver": ("_solver", _fresh_solver),
}


def _assert_same_point(ours: LPSolution, reference: LPSolution, where) -> None:
    assert ours.status == reference.status, where
    if reference.optimal:
        assert ours.objective_value == pytest.approx(
            reference.objective_value, rel=1e-12, abs=1e-12
        ), where
        gap = np.max(np.abs(ours.values - reference.values), initial=0.0)
        assert gap <= 1e-12, where


@pytest.fixture(scope="module")
def canonical_solves(canonical_corpus):
    """Every LP of the canonical corpus, with its default solve."""
    models = list(_canonical_models(canonical_corpus))
    return models, [solve(model) for model in models]


@pytest.mark.parametrize("path", _SOLVE_PATHS)
def test_every_solve_path_reaches_the_canonical_point(
    canonical_solves, path, monkeypatch
):
    # the point is the minimum of the canonical costs over the optimal face,
    # whatever the presolve, the backend or the solver's earlier solves
    models, expected = canonical_solves
    monkeypatch.setattr(vnembed.lpmodel, *_SOLVE_PATHS[path])
    statuses = set()
    for k, (model, reference) in enumerate(zip(models, expected)):
        _assert_same_point(solve(model), reference, k)
        statuses.add(reference.status)
    assert statuses == {"optimal", "infeasible"}


def test_the_fold_keeps_the_canonical_point(canonical_solves):
    # the canonical costs are summed over each alias class, so the LP as
    # built, with every model column drawn, has the same canonical point
    _, run = _solver_entry()
    for k, (model, reference) in enumerate(zip(*canonical_solves)):
        direct = run(
            objective_vector(model), *constraint_matrix(model),
            canonical_costs(model.num_variables),
        )
        assert direct.status == reference.status, k
        if reference.optimal:
            gap = np.max(np.abs(direct.values - reference.values), initial=0.0)
            assert gap <= 1e-12, k


def test_a_perturbation_too_large_still_reaches_the_canonical_point():
    # x_a + x_b + x_low = 1, with a cost of 1e-6 on x_low, the column of the
    # smallest canonical cost: the first run's perturbation (1e-4 times the
    # canonical costs) outweighs that cost and ends at x_low = 1, which is
    # not optimal. The re-solve of the costs moves to x_a or x_b, and the
    # run over the optimal face must end at the one of smaller canonical cost
    d = canonical_costs(6)
    low = int(np.argmin(d))
    others = [j for j in range(6) if j != low]
    for a in others:
        for b in others:
            if a == b:
                continue
            model = _rows_model(
                6, [([(a, 1.0), (b, 1.0), (low, 1.0)], EQ, 1.0)],
                objective=[(low, 1e-6)],
            )
            solution = solve(model)
            assert solution.optimal and solution.objective_value == 0.0
            point = np.zeros(6)
            point[min((a, b), key=d.__getitem__)] = 1.0
            assert np.array_equal(solution.values, point), (a, b)


def _reports(instances) -> list[str]:
    """Each instance's report and try records under both variants, or the
    pipeline's error."""
    out = []
    for instance in instances:
        for variant in ("profit", "cost"):
            try:
                report, rounded = vnembed.pipeline.run_pipeline(
                    instance, vnembed.pipeline.PipelineConfig(variant=variant, seed=3)
                )
            except vnembed.pipeline.PipelineError as err:
                out.append(f"{err.stage}: {err}")
            else:
                out.append(report.to_json() + vnembed.pipeline.try_records_csv(rounded))
    return out


@pytest.fixture(scope="module")
def canonical_reports(canonical_corpus):
    return _reports(canonical_corpus)


@pytest.mark.parametrize("path", _SOLVE_PATHS)
def test_reports_do_not_depend_on_the_solve_path(
    canonical_corpus, canonical_reports, path, monkeypatch
):
    monkeypatch.setattr(vnembed.lpmodel, *_SOLVE_PATHS[path])
    assert _reports(canonical_corpus) == canonical_reports


def test_scaled_instances_reach_the_same_point(canonical_corpus, canonical_solves):
    # capacities and demands doubled and costs halved give the LP rows times
    # two and the same costs, so the duals halve: the face tolerance must
    # still find the same face, and the canonical point is the same
    scaled = [
        capacities_and_demands_doubled_costs_halved(instance)[0]
        for instance in canonical_corpus
    ]
    models, expected = canonical_solves
    for k, (model, other, reference) in enumerate(
        zip(models, _canonical_models(scaled), expected)
    ):
        assert other.num_variables == model.num_variables
        _assert_same_point(solve(other), reference, k)


@pytest.mark.parametrize("backend", ["bindings", "linprog"])
def test_duals_certify_the_optimum(canonical_solves, backend, monkeypatch):
    # the row duals and reduced costs of the folded LP are dual feasible in
    # HiGHS' minimization sign and close the duality gap
    if backend == "linprog":
        monkeypatch.setattr(vnembed.lpmodel, "_highs", None)
    checked = 0
    for model in canonical_solves[0]:
        solution = solve(model)
        if not solution.optimal:
            continue
        column, c, matrix, lower, upper = solver_input(model)
        y, z = solution.row_duals, solution.reduced_costs
        a = csc_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
        assert len(y) == matrix.shape[0] and len(z) == matrix.shape[1]
        assert np.max(np.abs(c - a.T @ y - z), initial=0.0) <= 1e-9
        # a <= row can only hold at its upper bound, every column lies in [0, 1]
        assert np.all(y[np.isneginf(lower)] <= 1e-9)
        dual = float(y @ upper + np.minimum(z, 0.0).sum())
        primal = solution.objective_value * (-1.0 if model.sense == MAXIMIZE else 1.0)
        assert abs(primal - dual) <= 1e-9 * max(1.0, abs(primal))
        checked += 1
    assert checked > 100
