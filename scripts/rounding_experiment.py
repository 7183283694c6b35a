#!/usr/bin/env python3
"""Empirical acceptance statistics for the randomized rounding stage.

Relaxes each instance of a generated batch once (``relax``: LP,
decomposition, bounds and, under cost, pruning) and rounds that relaxation
at a sweep of seeds (``round_relaxation``), then reports how often the
first draw was accepted, how many tries the rounding needed, and the
rounded objective relative to the LP bound. Each row equals what
``run_pipeline`` gives for that instance and seed.
Numbers here are diagnostics, not guarantees; the point is to see the
tri-criteria margins on concrete instances rather than in the worst case.
"""

from __future__ import annotations

import argparse
import csv
import statistics
import sys

from vnembed import PipelineConfig, PipelineError, relax, round_relaxation
from vnembed.scenarios import cost_corpus, monte_carlo_instance, tree_corpus


def batch(variant: str):
    if variant == "profit":
        instances = tree_corpus(30, seed=777)
        instances.append(monte_carlo_instance())
        return instances
    return cost_corpus(15, seed=778)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--variant", choices=("profit", "cost"), default="profit")
    parser.add_argument("--seeds", type=int, default=20)
    parser.add_argument("--max-tries", type=int, default=64)
    parser.add_argument("--out", default=None, help="per-run CSV")
    args = parser.parse_args(argv)

    rows = []
    ratios = []
    tries = []
    failures = 0
    for instance in batch(args.variant):
        config = PipelineConfig(variant=args.variant, max_tries=args.max_tries)
        try:
            relaxation = relax(instance, config)
        except PipelineError as err:
            print(f"{instance.name}: {err}", file=sys.stderr)
            failures += args.seeds
            continue
        for seed in range(args.seeds):
            try:
                report, rounded = round_relaxation(relaxation, seed, args.max_tries)
            except PipelineError as err:
                print(f"{instance.name} seed {seed}: {err}", file=sys.stderr)
                failures += 1
                continue
            lp = report.lp["objective"]
            ratio = rounded.objective_value / lp if lp else 1.0
            rows.append(
                [
                    instance.name,
                    seed,
                    int(rounded.accepted),
                    rounded.tries_used,
                    f"{rounded.objective_value:.6f}",
                    f"{lp:.6f}",
                    f"{ratio:.4f}",
                ]
            )
            if rounded.accepted:
                ratios.append(ratio)
                tries.append(rounded.tries_used)

    if args.out:
        with open(args.out, "w", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(
                ["instance", "seed", "accepted", "tries", "objective", "lp", "ratio"]
            )
            writer.writerows(rows)
        print(f"wrote {args.out}")

    accepted = sum(int(r[2]) for r in rows)
    print(f"{len(rows)} runs, {accepted} accepted, {failures} pipeline failures")
    if tries:
        print(
            f"tries: mean {statistics.mean(tries):.2f}, "
            f"max {max(tries)}; first-draw acceptance "
            f"{sum(1 for t in tries if t == 1) / len(tries):.1%}"
        )
    if ratios:
        label = "objective/LP" if args.variant == "profit" else "cost/LP"
        print(
            f"{label}: mean {statistics.mean(ratios):.3f}, "
            f"min {min(ratios):.3f}, max {max(ratios):.3f}"
        )
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
