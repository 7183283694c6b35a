"""Seeded workloads of the pipeline benchmark.

Every input comes from the in-repo generators in ``vnembed.scenarios``;
the workload seed alone decides it. A workload is a batch of
``(instance, PipelineConfig)`` operations that one pass runs through
``run_pipeline`` in order.

- ``halfwheel-cost``: the per-root BFS order gives width 5-6, so the LP is
  large; cost variant, no preprocessing, exercises pruning. The instances
  are fixed named scenarios; the seed only sets the rounding seed.
- ``seed-sweep``: the rounding experiment's batch (tree corpus plus the
  Monte Carlo instance) swept over rounding seeds with capacity-respecting
  bounds. Small instances, so per-call overhead, decomposition and rounding
  take their largest share, and every seed solves the same LP again.
- ``cactus-profit``: the LP path dominates. Each seed draws a fresh batch
  of random cactus instances; every extraction width is 2, so the width
  search is a control here. It is not among the workloads BENCHMARK.json
  gates: its run-to-run spread on a shared 2-vCPU machine exceeded the
  largest bound at the run length three workloads leave room for.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from vnembed import PipelineConfig
from vnembed.instances import Instance
from vnembed.scenarios import (
    monte_carlo_instance,
    random_cactus_graph,
    random_request,
    random_substrate,
    scenario_instance,
    tree_corpus,
)

# Solve time varies by about 20 % (standard deviation) between cactus
# instances of one shape, and other tenants of the machine can slow a
# stretch of the run by up to 1.8x. So a batch holds many small instances,
# for a batch total that moves little from seed to seed, and is short
# enough to repeat several times in one run.
CACTUS_INSTANCES = 24
CACTUS_SUBSTRATE_NODES = 24
CACTUS_REQUESTS = 4
CACTUS_REQUEST_NODES = 9
CACTUS_MAX_ALLOWED = 5

HALFWHEEL_SIZES = (8, 9, 10)

# Rounding seeds per seed-sweep pass: 16 instances x 8 seeds = 128 runs,
# enough for 10 latencies beyond the 90th percentile.
SWEEP_ROUNDING_SEEDS = 8
SWEEP_MAX_TRIES = 64


@dataclass(frozen=True)
class Operation:
    instance: Instance
    config: PipelineConfig


def cactus_instance(seed: int, j: int) -> Instance:
    rng = np.random.default_rng([seed, j])
    substrate = random_substrate(rng, CACTUS_SUBSTRATE_NODES)
    requests = []
    for q in range(CACTUS_REQUESTS):
        nodes, edges = random_cactus_graph(rng, CACTUS_REQUEST_NODES)
        requests.append(
            random_request(
                rng, substrate, f"r{q:02d}", nodes, edges,
                max_allowed=CACTUS_MAX_ALLOWED,
            )
        )
    return Instance(
        name=f"cactus-s{seed}-i{j:02d}", substrate=substrate,
        requests=tuple(requests),
    )


def cactus_profit(seed: int) -> list[Operation]:
    config = PipelineConfig(variant="profit", seed=seed)
    return [
        Operation(cactus_instance(seed, j), config)
        for j in range(CACTUS_INSTANCES)
    ]


def halfwheel_cost(seed: int) -> list[Operation]:
    config = PipelineConfig(variant="cost", seed=seed)
    return [
        Operation(scenario_instance(f"halfwheel:{n}"), config)
        for n in HALFWHEEL_SIZES
    ]


def seed_sweep(seed: int) -> list[Operation]:
    batch = tree_corpus(30, seed=777)
    batch.append(monte_carlo_instance())
    ops = []
    for k in range(SWEEP_ROUNDING_SEEDS):
        config = PipelineConfig(
            variant="profit", seed=seed * SWEEP_ROUNDING_SEEDS + k,
            max_tries=SWEEP_MAX_TRIES, beta=1.0, gamma=1.0,
        )
        ops.extend(Operation(instance, config) for instance in batch)
    return ops


WORKLOADS = {
    "halfwheel-cost": halfwheel_cost,
    "seed-sweep": seed_sweep,
    "cactus-profit": cactus_profit,
}
