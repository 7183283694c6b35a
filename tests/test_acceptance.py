"""Release gate: the ten checks that qualify a build.

Each test records a PASS/FAIL line printed after the run (see conftest).
Numbered criteria, stated tolerances; corpora are seeded so every run sees
the same instances.
"""

from __future__ import annotations

import filecmp
import itertools
import math
import subprocess
import sys
import time

import numpy as np
import pytest

from vnembed import (
    Digraph,
    build_extraction_order,
    build_mcf,
    build_novel,
    compute_bounds,
    count_novel_variables,
    decompose_novel,
    dump_instance,
    enumerate_valid_mappings,
    label_order,
    mapping_cost,
    min_width_order_search,
    orientation_from_flags,
    prune_costly_mappings,
    round_cost,
    solve,
    solve_enumerative,
    verify_decomposition,
)
from vnembed.extraction import (
    generate_half_wheel,
    generate_vc_gadget,
    half_wheel_center_order,
)
from vnembed.pipeline import PipelineConfig, run_pipeline
from vnembed.rounding import bounds_from_parameters, request_streams, sample_entry
from vnembed.scenarios import VC_BASES, cactus_graph_corpus, monte_carlo_instance

TOL = 1e-6


def _labeled_orders(instance):
    return [
        min_width_order_search(Digraph.build(r.nodes, r.edges))
        for r in instance.requests
    ]


@pytest.mark.criterion(1, "six-cycle gadget integrality gap")
def test_criterion_1_integrality_gap(gate, fig3):
    start = time.perf_counter()
    req = fig3.requests[0]
    mcf_model, _ = build_mcf(fig3.substrate, fig3.requests, "profit")
    mcf = solve(mcf_model)
    novel_model, _ = build_novel(
        fig3.substrate, fig3.requests, _labeled_orders(fig3), "profit"
    )
    novel = solve(novel_model)
    enum = enumerate_valid_mappings(fig3.substrate, req)
    elapsed = time.perf_counter() - start

    problems = []
    if mcf.status != "optimal" or abs(mcf.objective_value - req.profit) > TOL:
        problems.append(f"flow relaxation objective {mcf.objective_value}")
    if novel.status != "optimal" or abs(novel.objective_value) > TOL:
        problems.append(f"decomposable relaxation objective {novel.objective_value}")
    if enum.mappings or enum.truncated:
        problems.append(f"{len(enum.mappings)} valid mappings enumerated")
    if elapsed >= 5.0:
        problems.append(f"took {elapsed:.1f}s")
    gate(
        1,
        "six-cycle gadget integrality gap",
        not problems,
        "; ".join(problems)
        or f"gap {mcf.objective_value:.3f} vs {novel.objective_value:.3f}",
    )


@pytest.mark.criterion(2, "tree request decomposability")
def test_criterion_2_tree_decomposition(gate, tree_corpus):
    checked = 0
    worst_complete = 0.0
    worst_overuse = 0.0
    problems = []
    for instance in tree_corpus:
        model, index = build_mcf(instance.substrate, instance.requests, "profit")
        sol = solve(model)
        assert sol.status == "optimal"
        for ri, req in enumerate(instance.requests):
            state = index.request_state(sol.values, ri)
            acceptance, loads = state.x, state.a
            dec = decompose_novel(instance.substrate, req, index.orders[ri], state)
            check = verify_decomposition(
                instance.substrate, req, dec, acceptance, loads
            )
            checked += 1
            worst_complete = max(worst_complete, check.completeness_error)
            worst_overuse = max(worst_overuse, check.worst_overuse)
            if check.completeness_error > TOL:
                problems.append(
                    f"{instance.name}/{req.name}: residual {check.completeness_error:.2e}"
                )
            if check.worst_overuse > TOL:
                problems.append(
                    f"{instance.name}/{req.name}: overuse {check.worst_overuse:.2e}"
                )
            if check.invalid:
                problems.append(f"{instance.name}/{req.name}: invalid mapping")
    if checked != 50:
        problems.append(f"corpus has {checked} requests, expected 50")
    gate(
        2,
        "tree request decomposability",
        not problems,
        "; ".join(problems[:3])
        or f"50 requests, residual<={worst_complete:.1e} overuse<={worst_overuse:.1e}",
    )


@pytest.mark.criterion(3, "width-3 request decomposability")
def test_criterion_3_novel_decomposition(gate, width3_corpus):
    checked = 0
    worst_complete = 0.0
    worst_overuse = 0.0
    problems = []
    for instance, labeled in width3_corpus:
        (req,) = instance.requests
        if labeled.width > 3:
            problems.append(f"{instance.name}: width {labeled.width}")
            continue
        model, index = build_novel(
            instance.substrate, instance.requests, [labeled], "profit"
        )
        sol = solve(model)
        assert sol.status == "optimal"
        state = index.request_state(sol.values, 0)
        acceptance, loads = state.x, state.a
        dec = decompose_novel(instance.substrate, req, labeled, state)
        check = verify_decomposition(instance.substrate, req, dec, acceptance, loads)
        checked += 1
        worst_complete = max(worst_complete, check.completeness_error)
        worst_overuse = max(worst_overuse, check.worst_overuse)
        if check.completeness_error > TOL or check.worst_overuse > TOL or check.invalid:
            problems.append(
                f"{instance.name}: residual {check.completeness_error:.2e} "
                f"overuse {check.worst_overuse:.2e} invalid {len(check.invalid)}"
            )
    if checked != 50:
        problems.append(f"corpus has {checked} usable requests, expected 50")
    gate(
        3,
        "width-3 request decomposability",
        not problems,
        "; ".join(problems[:3])
        or f"50 requests, residual<={worst_complete:.1e} overuse<={worst_overuse:.1e}",
    )


def _capacity_free_optimum(instance, reference, objective):
    """The enumerative LP's optimum with the capacity rows dropped: every
    request with a mapping fully accepted (profit), or each on its cheapest
    mapping (cost)."""
    pairs = list(zip(instance.requests, reference.enumerations))
    if objective == "profit":
        return sum(req.profit for req, enum in pairs if enum.mappings)
    return sum(
        min(mapping_cost(instance.substrate, req, m) for m in enum.mappings)
        for req, enum in pairs
    )


def _differ(a, b):
    return abs(a - b) > 1e-5 * max(1.0, abs(a), abs(b))


@pytest.mark.criterion(4, "relaxation matches mapping enumeration")
def test_criterion_4_lp_equality(gate, tiny_corpus, with_capacity):
    # as drawn, no capacity of the corpus binds, so the comparison also runs
    # with every capacity set to 0.7 and to 0.5, where requests contend
    problems = []
    tallies = []  # per capacity: (label, compared, binding)
    for capacity in (None, 0.7, 0.5):
        compared = binding = 0
        for drawn in tiny_corpus:
            instance = drawn if capacity is None else with_capacity(drawn, capacity)
            orders = _labeled_orders(instance)
            for objective in ("profit", "cost"):
                where = f"{instance.name}/{objective}/c={capacity or 'drawn'}"
                reference = solve_enumerative(
                    instance.substrate, instance.requests, objective=objective
                )
                assert not any(e.truncated for e in reference.enumerations)
                model, _ = build_novel(
                    instance.substrate, instance.requests, orders, objective
                )
                ours = solve(model)
                if reference.status != ours.status:
                    problems.append(f"{where}: {reference.status} vs {ours.status}")
                    continue
                if reference.status != "optimal":
                    continue
                a, b = reference.objective_value, ours.objective_value
                if _differ(a, b):
                    problems.append(f"{where}: {a} vs {b}")
                compared += 1
                free = _capacity_free_optimum(instance, reference, objective)
                binding += _differ(a, free)
        tallies.append((capacity or "drawn", compared, binding))
    if len(tiny_corpus) != 20:
        problems.append(f"{len(tiny_corpus)} instances, expected 20")
    if not any(binding for _, _, binding in tallies):
        problems.append("no compared LP has a binding capacity")
    compared = sum(n for _, n, _ in tallies)
    detail = ", ".join(f"c={c} {b}/{n}" for c, n, b in tallies)
    gate(
        4,
        "relaxation matches mapping enumeration",
        not problems,
        "; ".join(problems[:3])
        or f"{compared} objective comparisons equal; binding capacity in {detail}",
    )


def _brute_min_vertex_cover(nodes, edges):
    for size in range(len(nodes) + 1):
        for cover in itertools.combinations(nodes, size):
            chosen = set(cover)
            if all(a in chosen or b in chosen for a, b in edges):
                return size
    raise AssertionError("unreachable")


@pytest.mark.criterion(5, "width facts on reference families")
def test_criterion_5_width_facts(gate, fig4):
    start = time.perf_counter()
    problems = []

    for gi, graph in enumerate(cactus_graph_corpus(100)):
        for root in sorted(graph.nodes)[:5]:
            width = label_order(build_extraction_order(graph, root)).width
            if width > 2:
                problems.append(f"cactus {gi} root {root}: width {width}")

    req = fig4.requests[0]
    graph = Digraph.build(req.nodes, req.edges)
    labeled = orientation_from_flags(graph, "a", [False] * len(req.edges))
    labeled = label_order(labeled)
    expected_labels = {
        ("a", "b"): ("i", "l"),
        ("a", "e"): ("i", "l"),
        ("b", "d"): ("l",),
        ("b", "i"): ("i", "l"),
        ("c", "j"): ("j",),
        ("d", "l"): ("l",),
        ("e", "i"): ("i", "l"),
        ("f", "g"): ("k",),
        ("f", "j"): ("j",),
        ("f", "k"): ("k",),
        ("f", "l"): ("l",),
        ("g", "k"): ("k",),
        ("i", "c"): ("j",),
        ("i", "f"): ("j", "l"),
    }
    got_labels = {
        (e.tail, e.head): labels
        for e, labels in zip(labeled.order.edges, labeled.labels)
    }
    if got_labels != expected_labels:
        problems.append("braid labels differ")
    if labeled.width != 3:
        problems.append(f"braid width {labeled.width}")
    if dict(labeled.label_roots) != {"i": "a", "j": "i", "k": "f", "l": "a"}:
        problems.append("braid label roots differ")

    def bag_view(node):
        return {
            (
                frozenset(
                    (labeled.order.edges[k].tail, labeled.order.edges[k].head)
                    for k in bag.edges
                ),
                bag.labels,
            )
            for bag in labeled.bags[node]
        }

    if bag_view("f") != {
        (frozenset({("f", "j")}), ("j",)),
        (frozenset({("f", "g"), ("f", "k")}), ("k",)),
        (frozenset({("f", "l")}), ("l",)),
    }:
        problems.append("bags of f differ")
    if bag_view("i") != {(frozenset({("i", "c"), ("i", "f")}), ("j", "l"))}:
        problems.append("bags of i differ")

    for n in (6, 8, 10):
        center = label_order(half_wheel_center_order(n))
        if center.width != 2:
            problems.append(f"half wheel {n} mid-rim order width {center.width}")
        wheel = generate_half_wheel(n)
        best = min_width_order_search(wheel, strategy="exhaustive", roots=["c"])
        if best.width != n // 2 + 1:
            problems.append(f"half wheel {n} hub-rooted best width {best.width}")

    for base_name, (base_nodes, base_edges) in VC_BASES.items():
        gadget = generate_vc_gadget(base_nodes, base_edges)
        best = min_width_order_search(gadget, strategy="exhaustive", roots=["r"])
        cover = _brute_min_vertex_cover(base_nodes, base_edges)
        if best.width != cover + 1:
            problems.append(
                f"cover gadget {base_name}: width {best.width} vs cover {cover}"
            )

    elapsed = time.perf_counter() - start
    if elapsed >= 30.0:
        problems.append(f"took {elapsed:.1f}s")
    gate(
        5,
        "width facts on reference families",
        not problems,
        "; ".join(problems[:3]) or f"all families match in {elapsed:.1f}s",
    )


@pytest.mark.criterion(6, "formulation size bound")
def test_criterion_6_variable_count(gate, width3_corpus, tiny_corpus):
    problems = []
    worst = 0.0
    per_request = []
    for instance, labeled in width3_corpus:
        per_request.append((instance, instance.requests[0], labeled))
    for instance in tiny_corpus:
        for req, labeled in zip(instance.requests, _labeled_orders(instance)):
            per_request.append((instance, req, labeled))
    for instance, req, labeled in per_request:
        count = count_novel_variables(instance.substrate, [req], [labeled])
        bound = 10 * len(req.nodes) * len(instance.substrate.nodes) ** labeled.width
        worst = max(worst, count / bound)
        if count > bound:
            problems.append(f"{instance.name}/{req.name}: {count} > {bound}")
    gate(
        6,
        "formulation size bound",
        not problems,
        "; ".join(problems[:3])
        or f"{len(per_request)} requests, worst fill {worst:.3f}",
    )


@pytest.mark.criterion(7, "rounding statistics")
def test_criterion_7_rounding_statistics(gate):
    start = time.perf_counter()
    instance = monte_carlo_instance()
    requests = instance.requests
    assert len(requests) == 3
    orders = _labeled_orders(instance)
    model, index = build_novel(instance.substrate, requests, orders, "profit")
    sol = solve(model)
    assert sol.status == "optimal"
    optimum = sol.objective_value
    decompositions = []
    for ri, req in enumerate(requests):
        state = index.request_state(sol.values, ri)
        acceptance, loads = state.x, state.a
        dec = decompose_novel(instance.substrate, req, orders[ri], state)
        check = verify_decomposition(instance.substrate, req, dec, acceptance, loads)
        assert check.ok
        decompositions.append(dec)

    trials = 10_000
    draws = [stream.random(trials) for stream in request_streams(2024, len(requests))]
    counts = [np.zeros(len(d.entries), dtype=np.int64) for d in decompositions]
    profits = np.zeros(trials)
    for t in range(trials):
        total = 0.0
        for ri, dec in enumerate(decompositions):
            k = sample_entry(dec, draws[ri][t])
            if k is not None:
                counts[ri][k] += 1
                total += requests[ri].profit
        profits[t] = total

    problems = []
    entries_checked = 0
    for ri, dec in enumerate(decompositions):
        for k, entry in enumerate(dec.entries):
            frequency = counts[ri][k] / trials
            sigma = math.sqrt(entry.weight * (1.0 - entry.weight) / trials)
            entries_checked += 1
            if abs(frequency - entry.weight) > 3.0 * sigma + 1e-12:
                problems.append(
                    f"request {ri} entry {k}: freq {frequency:.4f} vs {entry.weight:.4f}"
                )
    mean = float(profits.mean())
    if abs(mean - optimum) > 0.02 * optimum:
        problems.append(f"mean profit {mean:.4f} vs optimum {optimum:.4f}")
    tail = float(np.mean(profits <= optimum / 3.0 + 1e-12))
    if tail > 0.851:
        problems.append(f"low-profit tail {tail:.3f} > 0.851")
    elapsed = time.perf_counter() - start
    if elapsed >= 60.0:
        problems.append(f"took {elapsed:.1f}s")
    gate(
        7,
        "rounding statistics",
        not problems,
        "; ".join(problems[:3])
        or f"{entries_checked} marginals in band, mean {mean:.3f} ~ {optimum:.3f}, "
        f"tail {tail:.3f}",
    )


def _uncapacitated(instance, with_capacity):
    """``instance`` with every capacity at the sum of all its demands, which
    no selection of valid mappings exceeds on any resource."""
    total = sum(
        sum(req.node_demand.values()) + sum(req.edge_demand.values())
        for req in instance.requests
    )
    return with_capacity(instance, total)


@pytest.mark.criterion(8, "cost-variant guarantees")
def test_criterion_8_cost_guarantees(gate, cost_corpus, with_capacity):
    # as drawn, no capacity of the corpus binds, so every check also runs
    # with every capacity set to 1.5 and to 1.0, where the LPs bind
    problems = []
    accepted = 0
    capacities = (None, 1.5, 1.0)
    binding = dict.fromkeys(capacities, 0)
    for drawn in cost_corpus:
        orders = _labeled_orders(drawn)
        free, _ = build_novel(
            _uncapacitated(drawn, with_capacity).substrate, drawn.requests, orders,
            "cost",
        )
        free_cost = solve(free).objective_value
        for capacity in capacities:
            instance = drawn if capacity is None else with_capacity(drawn, capacity)
            where = f"{instance.name}/c={capacity or 'drawn'}"
            model, index = build_novel(
                instance.substrate, instance.requests, orders, "cost"
            )
            sol = solve(model)
            if sol.status != "optimal":
                problems.append(f"{where}: relaxation {sol.status}")
                continue
            lp_cost = sol.objective_value
            binding[capacity] += _differ(lp_cost, free_cost)
            pruned = []
            for ri, req in enumerate(instance.requests):
                state = index.request_state(sol.values, ri)
                acceptance = state.x
                dec = decompose_novel(instance.substrate, req, orders[ri], state)
                check = verify_decomposition(
                    instance.substrate, req, dec, acceptance, state.a
                )
                if not check.ok:
                    problems.append(f"{where}/{req.name}: {check}")
                kept, report = prune_costly_mappings(instance.substrate, req, dec)
                if report.surviving_weight < 0.5 - 1e-9:
                    problems.append(
                        f"{where}/{req.name}: surviving {report.surviving_weight:.3f}"
                    )
                pruned.append(kept)
            bounds = compute_bounds(instance.substrate, instance.requests, "cost")
            rounded = round_cost(
                instance.substrate, instance.requests, pruned, bounds, lp_cost,
                seed=11,
            )
            for record in rounded.records:
                if record.objective > 2.0 * lp_cost + TOL:
                    problems.append(
                        f"{where} try {record.index}: "
                        f"cost {record.objective:.3f} > 2x{lp_cost:.3f}"
                    )
            accepted += rounded.accepted
    if len(cost_corpus) != 20:
        problems.append(f"{len(cost_corpus)} instances, expected 20")
    for capacity in capacities[1:]:
        if not binding[capacity]:
            problems.append(f"no LP has a binding capacity at c={capacity}")
    detail = ", ".join(
        f"c={capacity or 'drawn'} {count}/{len(cost_corpus)}"
        for capacity, count in binding.items()
    )
    gate(
        8,
        "cost-variant guarantees",
        not problems,
        "; ".join(problems[:3])
        or f"{len(capacities) * len(cost_corpus)} LPs within the 2x cost cap, "
        f"{accepted} accepted; binding capacity in {detail}",
    )


@pytest.mark.criterion(9, "capacity-violation bound formulas")
def test_criterion_9_bound_formulas(gate):
    cases = [
        ("profit", 0.5, 1.0, 1.0, 10, 1, 2.0729830131446736, 2.0729830131446736),
        ("cost", 0.5, 1.0, 1.0, 10, 1, 3.0729830131446736, 3.0729830131446736),
        ("profit", 0.0, 3.0, 7.0, 50, 4, 1.0, 1.0),
        ("profit", 0.25, 4.0, 9.0, 100, 3, 2.688754344873197, 3.2761406940777196),
        ("cost", 1.0, 2.5, 0.5, 7, 2, 5.632531713292575, 3.3949588341794583),
    ]
    problems = []
    for variant, eps, dv, de, n_nodes, n_types, want_beta, want_gamma in cases:
        got = bounds_from_parameters(variant, eps, dv, de, n_nodes, n_types)
        if abs(got.beta - want_beta) > 1e-9 or abs(got.gamma - want_gamma) > 1e-9:
            problems.append(
                f"{variant} eps={eps}: beta {got.beta!r} gamma {got.gamma!r}"
            )
        want_alpha = 1.0 / 3.0 if variant == "profit" else 2.0
        if abs(got.alpha - want_alpha) > 1e-12:
            problems.append(f"{variant}: alpha {got.alpha}")
    gate(
        9,
        "capacity-violation bound formulas",
        not problems,
        "; ".join(problems[:3]) or "5 parameter sets match to 1e-9",
    )


@pytest.mark.criterion(10, "report determinism")
def test_criterion_10_determinism(gate, tree_corpus, tmp_path):
    instance = tree_corpus[0]
    config = PipelineConfig(variant="profit", seed=7)
    report_a, _ = run_pipeline(instance, config)
    report_b, _ = run_pipeline(instance, config)
    problems = []
    if report_a.to_json() != report_b.to_json():
        problems.append("in-process reports differ")

    source = tmp_path / "instance.json"
    dump_instance(instance, source)
    outputs = []
    for tag in ("a", "b"):
        out = tmp_path / f"report_{tag}.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "vnembed",
                "round",
                str(source),
                "--variant",
                "profit",
                "--seed",
                "7",
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            problems.append(f"cli run {tag} exited {proc.returncode}: {proc.stderr}")
        outputs.append(out)
    if len(outputs) == 2 and outputs[0].exists() and outputs[1].exists():
        if not filecmp.cmp(outputs[0], outputs[1], shallow=False):
            problems.append("cli reports differ byte-wise")
    gate(
        10,
        "report determinism",
        not problems,
        "; ".join(problems[:2]) or "repeated runs byte-identical",
    )
