#!/usr/bin/env python3
"""Survey extraction widths over generated request graph families.

For random cacti the cheap per-root-bfs strategy should already land on
width <= 2. On half-wheels it reports width 2 (its degree-ordered pass
finds a rim-rooted order), while every orientation rooted at the hub needs
n//2 + 1, as the ``exhaustive@hub`` rows show. Writes one CSV row per graph
and strategy.
"""

from __future__ import annotations

import argparse
import csv
import sys
import time
from collections import Counter

from vnembed import generate_half_wheel, min_width_order_search
from vnembed.scenarios import cactus_graph_corpus


def survey_cacti(count: int, seed: int, writer) -> Counter:
    widths: Counter = Counter()
    for idx, graph in enumerate(cactus_graph_corpus(count, seed)):
        for strategy in ("per-root-bfs", "exhaustive"):
            t0 = time.perf_counter()
            labeled = min_width_order_search(graph, strategy=strategy)
            elapsed = time.perf_counter() - t0
            writer.writerow(
                [
                    f"cactus-{idx:03d}",
                    len(graph.nodes),
                    len(graph.edges),
                    strategy,
                    labeled.width,
                    f"{elapsed:.4f}",
                ]
            )
            if strategy == "exhaustive":
                widths[labeled.width] += 1
    return widths


def survey_half_wheels(writer) -> None:
    for n in (4, 6, 8, 10):
        graph = generate_half_wheel(n)
        for strategy, roots in (("per-root-bfs", None), ("exhaustive", ["c"])):
            labeled = min_width_order_search(graph, strategy=strategy, roots=roots)
            writer.writerow(
                [
                    f"halfwheel-{n}",
                    len(graph.nodes),
                    len(graph.edges),
                    strategy if roots is None else f"{strategy}@hub",
                    labeled.width,
                    "",
                ]
            )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--count", type=int, default=100)
    parser.add_argument("--seed", type=int, default=20244)
    parser.add_argument("--out", default="width_survey.csv")
    args = parser.parse_args(argv)

    with open(args.out, "w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["graph", "nodes", "edges", "strategy", "width", "seconds"])
        widths = survey_cacti(args.count, args.seed, writer)
        survey_half_wheels(writer)

    print(f"wrote {args.out}")
    print("cactus width distribution (exhaustive):")
    for width in sorted(widths):
        print(f"  width {width}: {widths[width]} graphs")
    if any(w > 2 for w in widths):
        print("warning: a cactus exceeded width 2", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
