"""Shared fixtures and the release-gate summary table.

Gate tests carry a ``criterion(number, label)`` marker and register their
outcome through the ``gate`` fixture; a terminal-summary hook prints one
PASS/FAIL line per criterion after the run, whether or not the test body
got far enough to record anything itself.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import sys
from pathlib import Path

import pytest

from vnembed import scenarios
from vnembed.scenarios import scenario_instance

_GATE: dict[int, tuple[str, bool, str]] = {}


class _Recorder:
    def __call__(self, number: int, label: str, ok: bool, detail: str = ""):
        _GATE[number] = (label, bool(ok), detail)
        assert ok, f"criterion {number} ({label}): {detail or 'check failed'}"


@pytest.fixture
def gate():
    return _Recorder()


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    rep = outcome.get_result()
    marker = item.get_closest_marker("criterion")
    if marker is None or rep.when != "call":
        return
    number, label = marker.args
    if rep.failed and (number not in _GATE or _GATE[number][1]):
        # the body raised before recording; make the failure visible anyway
        _GATE[number] = (label, False, "errored before recording a result")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _GATE:
        return
    terminalreporter.write_sep("-", "release gate")
    for number in sorted(_GATE):
        label, ok, detail = _GATE[number]
        line = f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}"
        if detail:
            line += f"  [{detail}]"
        terminalreporter.write_line(line)


@pytest.fixture(scope="session")
def fig3():
    return scenario_instance("fig3")


@pytest.fixture(scope="session")
def fig3_gadget():
    return scenario_instance("fig3-cost-gadget")


@pytest.fixture(scope="session")
def fig4():
    return scenario_instance("fig4")


@pytest.fixture(scope="session")
def tree_corpus():
    return scenarios.tree_corpus(50)


@pytest.fixture(scope="session")
def width3_corpus():
    return scenarios.width3_corpus(50)


@pytest.fixture(scope="session")
def tiny_corpus():
    return scenarios.tiny_corpus(20)


@pytest.fixture(scope="session")
def with_capacity():
    """A function: the instance with every capacity set to ``capacity``."""

    def scaled(instance, capacity):
        substrate = dataclasses.replace(
            instance.substrate,
            node_capacity=dict.fromkeys(instance.substrate.node_capacity, capacity),
            edge_capacity=dict.fromkeys(instance.substrate.edge_capacity, capacity),
        )
        return dataclasses.replace(instance, substrate=substrate)

    return scaled


@pytest.fixture(scope="session")
def cost_corpus():
    return scenarios.cost_corpus(20)


@pytest.fixture(scope="session")
def bench_workloads():
    """The benchmark's ``perfbench/workloads.py``, loaded from its file."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # dataclasses look their module up
    spec.loader.exec_module(workloads)
    return workloads
