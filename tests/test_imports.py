"""What importing the package and solving an LP loads.

``vnembed.lpmodel`` loads scipy's HiGHS bindings from their file instead of
importing ``scipy.optimize``, which would bring ``scipy.linalg``,
``scipy.sparse`` and more into every process. Each check runs in a fresh
interpreter, since this one has loaded all of scipy already.
"""

from __future__ import annotations

import importlib.util
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
import scipy

import vnembed.lpmodel as lpmodel

SRC = Path(__file__).resolve().parents[1] / "src"

# scipy before 1.15 has no bindings to load; LPs go through linprog there
needs_bindings = pytest.mark.skipif(
    lpmodel._highs is None, reason="scipy without HiGHS bindings"
)


def _run(code: str) -> str:
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


@needs_bindings
def test_a_run_loads_no_heavy_scipy_module():
    out = _run(
        """
        import sys
        from vnembed import PipelineConfig, run_pipeline
        from vnembed.scenarios import scenario_instance

        report, _ = run_pipeline(
            scenario_instance("fig3-cost-gadget"), PipelineConfig(seed=1)
        )
        assert report.lp["status"] == "optimal"
        heavy = ("scipy.optimize", "scipy.sparse", "scipy.linalg")
        print(sorted(name for name in heavy if name in sys.modules))
        """
    )
    assert out.strip() == "[]"


SHARED_CORE = """
    import sys
    from scipy.optimize import linprog
    from scipy.optimize._highspy import _core
    import vnembed.lpmodel as lpmodel
    from vnembed import PipelineConfig, run_pipeline
    from vnembed.scenarios import scenario_instance

    assert lpmodel._highs is _core
    assert sys.modules["scipy.optimize._highspy._core"] is _core
    res = linprog(
        [-1.0, -2.0], A_ub=[[1.0, 1.0]], b_ub=[1.5], bounds=(0.0, 1.0),
        method="highs",
    )
    assert res.status == 0 and res.x.tolist() == [0.5, 1.0], res
    report, _ = run_pipeline(scenario_instance("fig3-cost-gadget"), PipelineConfig())
    assert report.lp["status"] == "optimal"
    print("ok")
"""


@needs_bindings
def test_b_package_first_then_scipy_optimize():
    assert _run("import vnembed\n" + textwrap.dedent(SHARED_CORE)).strip() == "ok"


@needs_bindings
def test_b_scipy_optimize_first_then_package():
    code = "import scipy.optimize\n" + textwrap.dedent(SHARED_CORE)
    assert _run(code).strip() == "ok"


@needs_bindings
def test_loader_reuses_the_registered_module():
    assert lpmodel._load_highs() is lpmodel._highs
    assert lpmodel._highs is sys.modules["scipy.optimize._highspy._core"]


def test_loader_finds_none_in_a_scipy_without_bindings(monkeypatch, tmp_path):
    # a scipy folder that holds no bindings, as before 1.15; find_spec
    # returns the spec of a package already in sys.modules
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core", raising=False)
    spec = importlib.util.spec_from_file_location(
        "scipy", tmp_path / "__init__.py", submodule_search_locations=[str(tmp_path)]
    )
    monkeypatch.setattr(scipy, "__spec__", spec)
    assert lpmodel._load_highs() is None
