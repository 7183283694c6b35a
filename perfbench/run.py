#!/usr/bin/env python3
"""Seeded benchmark of the vnembed pipeline, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload halfwheel-cost --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --workload all --trace 1     # every metric, every workload
    python3 perfbench/run.py --self-test                   # tracer checks on fig3-cost-gadget
    python3 perfbench/run.py --workload seed-sweep --write-reference

The package is imported from ``src/`` of the checkout; without it the
benchmark exits with an error. The workload seed generates every input
(see ``workloads.py``) and runs the workload's batch through
``run_pipeline`` pass after pass, one call at a time in this process,
until ``--seconds`` would be exceeded (always at least one pass). Each
operation's latency is its median over the passes; ``wall_s`` is the sum
of those over the batch and ``instance_p50_s`` their median.
``setup_s`` is the median of five fresh interpreters importing the package
and generating the inputs.

Other tenants of a shared host slow the whole machine for minutes at a
time, which moves measured seconds from run to run by more than any bound
worth gating. So a fixed reference kernel (``calibration.py``) runs in a
child process between operations, once 0.75 s have passed since its last
run, and ``wall_ref_s`` and ``instance_p50_ref_s`` give ``wall_s`` and
``instance_p50_s`` at the kernel's reference speed: each latency is
multiplied by ``REFERENCE_S`` over the mean time of the kernel runs just
before and just after the operation, and then the median over passes is
taken. BENCHMARK.json gates these two; the measured seconds are printed and
recorded beside them.

``--trace 0`` measures the end-to-end metrics with the program unmodified.
``--trace 1`` runs every operation untraced and then traced, back to back;
traced runs wrap the module functions listed in ``tracer.HOOKS`` and give
the per-layer metrics (lower medians over passes of sums over the batch), and
``trace.overhead_s`` is the traced minus the untraced batch time. A traced
run first runs the tracer self-test. Layer times that are 0 by design on
some workload (solo LP build and HiGHS time, preprocessing self time,
pruning) are printed and recorded, and left out of the result line.

Every operation is checked: the LP objective against ``reference.json``
(relative 1e-6) where the instance has an entry, ``count_novel_variables``
against the joint model's variable count, the bounds an accepted rounding
must meet, and that every later pass (traced or not) reproduces the first
pass's report byte for byte. An exception, a ``PipelineError`` or a failed
check counts the operation as failed. ``fail_rate`` (failed over attempted)
and ``instance_p90_s`` are printed but are not gated metrics: the first is
0 at a correct commit and travels as ``attempted``/``failed`` in the result
line, the second has at least 10 samples beyond it only on seed-sweep.

The last line of stdout is the JSON result; the full record (environment,
all metrics, checks, absent hooks and every span) goes to
``perfbench/out/<workload>-seed<seed>-trace<t>.json``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import threading
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
CHECKOUT = BENCH_DIR.parent
SRC = CHECKOUT / "src"
OUT_DIR = BENCH_DIR / "out"
REFERENCE = BENCH_DIR / "reference.json"
SPEC = CHECKOUT / "BENCHMARK.json"

DEFAULT_SEED = 1
SETUP_SAMPLES = 5
GAUGE_INTERVAL_S = 0.75
REL_TOL = 1e-6
CHECK_TOL = 1e-6

# RunReport.timings stage -> spans whose durations make up that stage.
STAGES = {
    "width": ("pipeline:min_width_order_search",),
    "preprocess": ("pipeline:preprocess_profit",),
    "build-lp": ("pipeline:build_novel",),
    "solve-lp": ("pipeline:solve",),
    "decompose": (
        "formulations:NovelVariableIndex.request_state",
        "pipeline:decompose_novel",
        "pipeline:verify_decomposition",
    ),
    "round": (
        "pipeline:prune_costly_mappings",
        "pipeline:round_profit",
        "pipeline:round_cost",
    ),
}
# Traced stage totals may differ from the program's own stage timings by
# the loop code around the hooked calls and the wrappers themselves.
STAGE_ABS_TOL = 2e-3
STAGE_REL_TOL = 0.05


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--write-reference", action="store_true")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "vnembed" / "__init__.py").is_file():
        print(f"error: no vnembed package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    if args.setup_probe:
        print(setup_probe(args.workload, args.seed))
        return 0
    if args.self_test:
        problems = self_test()
        for problem in problems:
            print("self-test:", problem)
        print("self-test", "failed" if problems else "passed")
        return 1 if problems else 0

    from workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    unknown = [name for name in names if name not in WORKLOADS]
    if unknown:
        print(f"error: unknown workload {unknown[0]!r}; known: "
              f"{', '.join(WORKLOADS)}, all", file=sys.stderr)
        return 2
    if args.write_reference:
        write_reference(names, args.seed)
        return 0
    if args.workload == "all":
        # one workload per process, one after another, so peak memory and
        # set-up stay per workload
        status = 0
        for name in names:
            cmd = [sys.executable, __file__, "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
            status |= subprocess.run(cmd, cwd=CHECKOUT).returncode
        return status
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


def setup_probe(workload: str, seed: int) -> float:
    """Import plus input generation, timed in a fresh interpreter."""
    t0 = time.perf_counter()
    import vnembed  # noqa: F401
    from workloads import WORKLOADS

    WORKLOADS[workload](seed)
    return time.perf_counter() - t0


def measure_setup(workload: str, seed: int) -> list[float]:
    cmd = [sys.executable, __file__, "--setup-probe", "--workload", workload,
           "--seed", str(seed)]
    samples = []
    for _ in range(SETUP_SAMPLES):
        out = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True,
                             timeout=120, check=True)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return samples


class Checker:
    """Correctness checks of every operation's output."""

    def __init__(self, references: dict[str, float]):
        self.references = references
        self.first: dict[int, str] = {}
        self.counted: dict[str, int] = {}
        self.reference_hits = 0

    def check(self, k: int, op, report) -> list[str]:
        text = report.to_json()
        if k in self.first:
            return [] if text == self.first[k] else [
                "report differs from the first pass"
            ]
        self.first[k] = text
        problems = []
        lp = report.lp["objective"]
        key = reference_key(op)
        ref = self.references.get(key)
        if ref is not None:
            self.reference_hits += 1
            if not math.isclose(lp, ref, rel_tol=REL_TOL, abs_tol=1e-9):
                problems.append(f"LP objective {lp!r} != reference {ref!r}")
        if key not in self.counted:
            self.counted[key] = count_variables(op, report)
        if self.counted[key] != report.lp["variables"]:
            problems.append(
                f"count_novel_variables {self.counted[key]} != model "
                f"{report.lp['variables']}"
            )
        rounding, bounds = report.rounding, report.bounds
        if rounding["accepted"]:
            if rounding["max_node_utilization"] > bounds["beta"] + CHECK_TOL:
                problems.append("accepted rounding overloads a node beyond beta")
            if rounding["max_edge_utilization"] > bounds["gamma"] + CHECK_TOL:
                problems.append("accepted rounding overloads an edge beyond gamma")
            target = bounds["alpha"] * lp
            if report.variant == "profit" and rounding["objective"] < target - CHECK_TOL:
                problems.append("accepted rounding keeps less than alpha * LP profit")
            if report.variant == "cost" and rounding["objective"] > target + CHECK_TOL:
                problems.append("accepted rounding costs more than alpha * LP cost")
        return problems


def reference_key(op) -> str:
    return f"{op.config.variant}/{op.instance.name}"


def count_variables(op, report) -> int:
    """Variable count of the joint model, from the requests the report kept."""
    from vnembed import Digraph, count_novel_variables, min_width_order_search

    kept = [
        req for req, row in zip(op.instance.requests, report.requests)
        if not row["dropped"]
    ]
    orders = [
        min_width_order_search(
            Digraph.build(req.nodes, req.edges), strategy=op.config.order_strategy
        )
        for req in kept
    ]
    return count_novel_variables(op.instance.substrate, kept, orders)


def run_op(k: int, op, checker: Checker, failures: list[str], tracer=None):
    """Run one operation and check it; returns its latency and outcome
    (``None`` when it failed)."""
    from vnembed import run_pipeline

    from tracer import ROOT

    root = None
    if tracer is not None:
        tracer.run = k
        root = tracer.open(ROOT)
    t0 = time.perf_counter()
    try:
        report, rounded = run_pipeline(op.instance, op.config)
    except Exception:  # a failing operation is counted; the run goes on
        report = None
        error = traceback.format_exc(limit=3)
    latency = time.perf_counter() - t0
    if root is not None:
        tracer.close(root)
    if report is None:
        failures.append(f"{op.instance.name}: {error}")
        return latency, None
    problems = checker.check(k, op, report)
    if problems:
        failures.append(f"{op.instance.name}: " + "; ".join(problems))
        return latency, None
    return latency, (report, rounded)


def run_traced(k: int, op, checker: Checker, failures: list[str], tracer,
               latencies: list[float]) -> None:
    with tracer.installed():
        latency, _ = run_op(k, op, checker, failures, tracer)
    latencies.append(latency)


def op_latencies(passes: list[list[float]]) -> list[float]:
    """Each operation's median latency over the passes.

    Other tenants of the machine slow stretches of a run by up to 1.8x,
    for seconds to minutes. Over ten runs the sum of per-operation medians
    varied about half as much as the sum of per-operation minimums, which
    depend on whether a run happened to catch a quiet moment.
    """
    return [statistics.median(samples) for samples in zip(*passes)]


def quality(outcomes) -> dict[str, float]:
    runs = [o for o in outcomes if o is not None]
    ratios = []
    for report, rounded in runs:
        lp = report.lp["objective"]
        if report.variant == "profit" and lp > 0:
            ratios.append(rounded.objective_value / lp)
        elif report.variant == "cost" and rounded.objective_value > 0:
            ratios.append(lp / rounded.objective_value)
    return {
        "accept_rate": sum(r.accepted for _, r in runs) / len(runs) if runs else 0.0,
        "objective_ratio": statistics.mean(ratios) if ratios else 0.0,
    }


def thread_count() -> int | None:
    try:
        return len(os.listdir("/proc/self/task"))
    except OSError:
        return None


class ThreadWatch:
    """Most threads seen beside the calling one's baseline while active.

    Polls every 10 ms from a thread of its own (not counted), so it sees
    solver worker threads that exist only during a solve. Used around
    traced passes only, to keep untraced passes unperturbed.
    """

    def __init__(self, baseline: int | None):
        self.baseline = baseline
        self.peak = baseline
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._poll)

    def _poll(self):
        while not self._stop.wait(0.01):
            self.peak = max(self.peak, thread_count() - 1)

    def __enter__(self):
        if self.baseline is not None:
            self._thread.start()
        return self

    def __exit__(self, *exc):
        if self.baseline is not None:
            self._stop.set()
            self._thread.join()


def environment(seed: int, extra_threads: int | None) -> dict:
    import numpy
    import scipy

    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    return {
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "highs_threads": extra_threads,
        "seed": seed,
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    setup = measure_setup(workload, seed)
    import tracer as tr
    from calibration import REFERENCE_S, Gauge
    from workloads import WORKLOADS

    spec = json.loads(SPEC.read_text())
    ops = WORKLOADS[workload](seed)
    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    checker = Checker(references)
    failures: list[str] = []  # one entry per failed operation
    threads_before = thread_count()
    self_test_problems = self_test() if trace else []

    plain, traced = [], []  # per pass: the latency of every operation
    gauged = []  # per pass: the kernel sample last taken before each operation
    layer_runs, spans, absent = [], [], []
    first_outcomes = None
    threads_seen = threads_before
    with Gauge(GAUGE_INTERVAL_S) as gauge:
        deadline = time.perf_counter() + seconds
        while True:
            pass_start = time.perf_counter()
            plain.append([])
            gauged.append([])
            outcomes = []
            watch = contextlib.nullcontext()
            # each operation runs untraced and traced back to back, so both
            # see the same load from other tenants of the machine; the traced
            # run goes first on odd passes, so that neither side always finds
            # the caches warmed by the other
            traced_first = trace and len(plain) % 2 == 0
            if trace:
                traced.append([])
                tracer = tr.Tracer()
                watch = ThreadWatch(threads_before)
            with watch:
                for k, op in enumerate(ops):
                    gauged[-1].append(gauge.tick())
                    if traced_first:
                        run_traced(k, op, checker, failures, tracer, traced[-1])
                    latency, outcome = run_op(k, op, checker, failures)
                    plain[-1].append(latency)
                    outcomes.append(outcome)
                    if trace and not traced_first:
                        run_traced(k, op, checker, failures, tracer, traced[-1])
            if first_outcomes is None:
                first_outcomes = outcomes
            if trace:
                if threads_before is not None:
                    threads_seen = max(threads_seen, watch.peak)
                layer_runs.append(tr.layer_metrics(tracer.spans))
                absent = tracer.absent
                spans.extend(
                    {"pass": len(traced) - 1, "run": s.run, "name": s.name,
                     "start": s.start, "end": s.end, "parent": s.parent,
                     "counts": s.counts}
                    for s in tracer.spans
                )
            now = time.perf_counter()
            if now + (now - pass_start) > deadline:
                break
        gauge.sample()  # brackets the last operation
    # threads beyond those present after import: solver workers that
    # outlive a solve, or (traced runs) any seen while one ran
    if threads_before is not None:
        threads_seen = max(threads_seen, thread_count())

    attempted = len(ops) * (len(plain) + len(traced))
    failed_ops = len(failures)
    per_op = op_latencies(plain)
    per_op_ref = op_latencies(
        [[t * gauge.scale(i) for t, i in zip(times, idx)]
         for times, idx in zip(plain, gauged)]
    )
    e2e = {
        "wall_ref_s": sum(per_op_ref),
        "instance_p50_ref_s": statistics.median(per_op_ref),
        "wall_s": sum(per_op),
        "instance_p50_s": statistics.median(per_op),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    e2e.update(quality(first_outcomes))
    extra = {
        "fail_rate": failed_ops / attempted,
        "instance_samples": len(per_op),
        "passes": len(plain),
        "calibration_s": gauge.median(),
        "calibration_samples": len(gauge.samples),
        "instance_p90_s": None,
        "instance_p90_beyond": 0,
    }
    if len(per_op) >= 2:
        p90 = statistics.quantiles(per_op, n=10)[8]
        beyond = sum(1 for x in per_op if x > p90)
        extra["instance_p90_s"] = p90 if beyond >= 10 else None
        extra["instance_p90_beyond"] = beyond

    layer = {}
    if trace:
        for name in layer_runs[0]:
            layer[name] = statistics.median_low(run[name] for run in layer_runs)
        layer["trace.overhead_s"] = sum(op_latencies(traced)) - e2e["wall_s"]

    env = environment(
        seed, None if threads_before is None else threads_seen - threads_before
    )
    section = "per_layer" if trace else "end_to_end"
    values = layer if trace else e2e
    metrics = {}
    for entry in spec[section]:
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}

    print(f"workload {workload} seed {seed} trace {int(trace)}: "
          f"{len(ops)} operations per pass, {len(plain)} untraced and "
          f"{len(traced)} traced passes")
    print("env " + " ".join(f"{k}={v}" for k, v in env.items()))
    units = {e["name"]: e["unit"] for e in spec["end_to_end"] + spec["per_layer"]}
    for name, value in list(e2e.items()) + list(layer.items()):
        unit = units.get(name, "s" if name.endswith("_s") else "count")
        print(f"  {name:34s} {value:14.6g} {unit}")
    p90 = extra.get("instance_p90_s")
    print(f"  {'instance_p90_s':34s} "
          + (f"{p90:14.6g} s" if p90 is not None else f"{'n/a':>14s}")
          + f"   ({extra['instance_samples']} samples, "
            f"{extra.get('instance_p90_beyond', 0)} beyond p90)")
    print(f"  {'fail_rate':34s} {extra['fail_rate']:14.6g} ratio"
          f"   ({failed_ops}/{attempted}, {checker.reference_hits} reference "
          f"objectives checked)")
    print(f"  {'calibration_s':34s} {extra['calibration_s']:14.6g} s"
          f"   (median of {extra['calibration_samples']} kernel runs; "
          f"reference {REFERENCE_S} s)")
    if absent:
        print("  absent hooks: " + ", ".join(absent))
    for problem in self_test_problems:
        print("  SELF-TEST " + problem)
    for failure in failures[:10]:
        print("  FAILED " + failure.strip().replace("\n", " | "))

    OUT_DIR.mkdir(exist_ok=True)
    record = {
        "workload": workload, "seed": seed, "trace": int(trace),
        "seconds": seconds, "env": env, "end_to_end": e2e, "per_layer": layer,
        "extra": extra, "setup_samples": setup, "plain_latencies": plain,
        "calibration": gauge.samples, "calibration_before": gauged,
        "traced_latencies": traced, "failures": failures,
        "self_test": self_test_problems, "absent": absent,
        "spans": spans,
    }
    out = OUT_DIR / f"{workload}-seed{seed}-trace{int(trace)}.json"
    out.write_text(json.dumps(record) + "\n")

    result = {
        "correct": not failures and not self_test_problems,
        "attempted": attempted,
        "failed": failed_ops,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


def self_test() -> list[str]:
    """Tracer checks on fig3-cost-gadget, both variants.

    Spans nest within their parents and share their run id; self times add
    up to the traced wall time; traced stage totals agree with
    ``RunReport.timings``; a hook on a missing name is reported absent; and
    every hooked name is restored afterwards.
    """
    from vnembed import PipelineConfig, run_pipeline
    from vnembed.scenarios import scenario_instance

    import tracer as tr

    problems = []
    missing = ("vnembed.pipeline", "no_such_function", "pipeline:no_such_function", None)
    hooks = tr.HOOKS + (missing,)
    originals = {}
    for module_name, path, name, _ in tr.HOOKS:
        owner, attr = tr._resolve(module_name, path)
        if owner is not None and attr in vars(owner):
            originals[name] = (owner, attr, vars(owner)[attr])
    instance = scenario_instance("fig3-cost-gadget")
    for variant in ("profit", "cost"):
        tracer = tr.Tracer()
        with tracer.installed(hooks):
            with tracer.span(tr.ROOT):
                report, _ = run_pipeline(
                    instance,
                    PipelineConfig(variant=variant, seed=7, include_timings=True),
                )
        spans = tracer.spans
        if tracer.absent != ["pipeline:no_such_function"]:
            problems.append(f"{variant}: absent hooks {tracer.absent}")
        for span in spans[1:]:
            parent = spans[span.parent] if span.parent is not None else None
            if parent is None or not (
                parent.start <= span.start <= span.end <= parent.end
            ) or parent.run != span.run:
                problems.append(f"{variant}: span {span.name} does not nest")
        own = tr.self_times(spans)
        if min(own) < -1e-9 or abs(sum(own) - spans[0].duration) > 1e-9:
            problems.append(f"{variant}: self times do not add up to the wall time")
        totals = {}
        for span in spans:
            totals[span.name] = totals.get(span.name, 0.0) + span.duration
        for stage, names in STAGES.items():
            if stage not in report.timings:
                continue
            traced = sum(totals.get(name, 0.0) for name in names)
            timed = report.timings[stage]
            if abs(traced - timed) > STAGE_ABS_TOL + STAGE_REL_TOL * timed:
                problems.append(
                    f"{variant}: stage {stage} traced {traced:.6f} s vs "
                    f"timings {timed:.6f} s"
                )
    for name, (owner, attr, original) in originals.items():
        if vars(owner)[attr] is not original:
            problems.append(f"hook {name} was not restored")
    return problems


def write_reference(names: list[str], seed: int) -> None:
    """Record the LP objective of every distinct instance of the workloads."""
    from vnembed import run_pipeline
    from workloads import WORKLOADS

    references = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for name in names:
        seen = set()
        for op in WORKLOADS[name](seed):
            key = reference_key(op)
            if key in seen:
                continue
            seen.add(key)
            report, _ = run_pipeline(op.instance, op.config)
            references[key] = report.lp["objective"]
            print(f"{key} {references[key]!r}")
    REFERENCE.write_text(json.dumps(references, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
