#!/usr/bin/env python3
"""Fingerprints of the benchmark workloads' outputs, one line per seed.

Runs every operation of a workload (``perfbench.workloads.WORKLOADS``)
through ``run_pipeline`` in order and prints the first 16 hex digits of
one SHA-256 over each operation's ``report.to_json()`` followed by its
``try_records_csv``. Two trees that print the same line for a workload and
seed gave byte-identical reports and try records on it. Run it from any
folder with the package importable, for example::

    PYTHONPATH=src python scripts/report_hashes.py --workload all --seeds 1 2 3
"""

from __future__ import annotations

import argparse
import hashlib
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.workloads import WORKLOADS  # noqa: E402
from vnembed.pipeline import run_pipeline, try_records_csv  # noqa: E402


def report_hash(workload: str, seed: int) -> str:
    digest = hashlib.sha256()
    for op in WORKLOADS[workload](seed):
        report, rounded = run_pipeline(op.instance, op.config)
        digest.update(report.to_json().encode())
        digest.update(try_records_csv(rounded).encode())
    return digest.hexdigest()[:16]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "--workload", choices=(*WORKLOADS, "all"), default="all"
    )
    parser.add_argument("--seeds", type=int, nargs="+", default=[1])
    args = parser.parse_args(argv)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    for name in names:
        for seed in args.seeds:
            print(f"{name} seed {seed}: {report_hash(name, seed)}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
