"""A small LP container and its HiGHS solve.

Every LP of the package has variables in [0, 1] and ``<=`` or ``==`` rows,
so that is all a model can hold. A model stores its rows in flat buffers:
one of column indices and one of coefficients, holding the rows' entries
back to back, plus each row's length, sense flag and right-hand side.
Nothing is stored per variable or per row, and columns and rows keep their
insertion order, so solver inputs and exported files are reproducible.

Names exist for export only. ``write_lp`` renders them through the model's
``namer`` (set by a builder that adds columns and rows in bulk) and the
names given to ``add_variable`` and ``add_constraint``; nothing on the
solve path formats a name.

``solve`` assembles the rows as CSC arrays (``<=`` rows first, then ``==``
rows, each in insertion order) and hands them to scipy's bundled HiGHS
bindings directly, through the module-level ``_run_highs``. It passes the
arrays and sets the options exactly as ``linprog(method="highs")`` does, so
both return the same solution vector bit for bit, but it skips
``linprog``'s input cleaning, option validation and per-column marginal
loop, none of which the package reads. An optimal point that breaks a
bound or a row by more than ``linprog``'s own post-check allows is
reported as an error.

Each thread keeps one HiGHS object, made on its first solve with
``linprog``'s options; the slot also records the process id, so a forked
worker makes its own instead of using a copy of its parent's. A plain
``solve(model)`` clears the object's model and passes the LP afresh, which
gives the same point and iteration count as a new object. ``solve`` also
takes column upper bounds and an objective that override the model's. If
the thread's solver holds that very model from the solve just before, the
overrides are applied to it in place and HiGHS re-solves from the basis it
kept; otherwise the model is passed afresh with the overrides. Nothing
else is kept between solves.

The bindings are loaded from their file, ``scipy/optimize/_highspy/_core``
plus the interpreter's extension suffix, after importing only the root
``scipy`` package: importing ``scipy.optimize`` would pull in
``scipy.linalg``, ``scipy.sparse`` and more, and cost most of a cold
start. The module is registered in ``sys.modules`` under its own name, so
a later ``import scipy.optimize`` reuses it (a second load would register
its types twice); scipy reaches it through ``from`` imports, which find it
there. scipy releases before 1.15 ship no such file; there ``solve`` hands
the same rows to ``linprog``, which is imported on that path only.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
import weakref
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple, Sequence

import numpy as np


def _load_highs():
    """scipy's bundled HiGHS bindings, or None if this scipy has none."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    import scipy

    folder = Path(scipy.__file__).parent / "optimize" / "_highspy"
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            spec = importlib.util.spec_from_file_location(name, path)
            module = importlib.util.module_from_spec(spec)
            sys.modules[name] = module
            spec.loader.exec_module(module)
            return module
    return None  # scipy < 1.15


_highs = _load_highs()

MINIMIZE = "min"
MAXIMIZE = "max"

LE = "<="
EQ = "=="

# The solver every report names.
BACKEND = "highs"

# linprog's post-check: an "optimal" point farther than this outside a
# bound or a row is no solution (10 times the root of its 1e-9 tolerance)
PRIMAL_TOLERANCE = 10 * 1e-9 ** 0.5


class Row(NamedTuple):
    """One row as ``LPModel.constraints`` renders it."""

    name: str
    coefficients: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass(eq=False)
class LPModel:
    """Linear program over variables in [0, 1], with rows in flat buffers.

    ``add_columns`` and ``add_rows`` append in bulk; ``add_variable`` and
    ``add_constraint`` append one named column or row. Coefficients
    reference variables by index. Duplicate explicit variable names are
    rejected to keep exported files unambiguous. ``namer`` returns the
    names of the columns and rows added in bulk, in order, and is called
    only on export.
    """

    sense: str = MINIMIZE
    objective: dict[int, float] = field(default_factory=dict)
    namer: Callable[[], tuple[list[str], list[str]]] | None = None
    num_variables: int = field(default=0, init=False)
    num_rows: int = field(default=0, init=False)
    num_nonzeros: int = field(default=0, init=False)
    # appended chunks, joined into one array each on first read
    _cols: list[np.ndarray] = field(default_factory=list, init=False)
    _vals: list[np.ndarray] = field(default_factory=list, init=False)
    _lengths: list[np.ndarray] = field(default_factory=list, init=False)
    _eq: list[np.ndarray] = field(default_factory=list, init=False)
    _rhs: list[np.ndarray] = field(default_factory=list, init=False)
    _var_names: dict[str, int] = field(default_factory=dict, init=False)
    _row_names: dict[int, str] = field(default_factory=dict, init=False)

    def add_columns(self, count: int) -> int:
        """Append ``count`` unnamed columns; returns the first one's index."""
        self.num_variables += count
        return self.num_variables - count

    def add_rows(self, cols, vals, lengths, eq, rhs) -> None:
        """Append rows given as arrays: ``cols`` and ``vals`` hold their
        entries back to back, ``lengths`` each row's entry count, ``eq`` its
        sense (true for ``==``) and ``rhs`` its right-hand side."""
        self._cols.append(np.asarray(cols, dtype=np.intp))
        self._vals.append(np.asarray(vals, dtype=float))
        self._lengths.append(np.asarray(lengths, dtype=np.intp))
        self._eq.append(np.asarray(eq, dtype=bool))
        self._rhs.append(np.asarray(rhs, dtype=float))
        self.num_rows += len(self._lengths[-1])
        self.num_nonzeros += len(self._cols[-1])

    def add_variable(self, name: str) -> int:
        if name in self._var_names:
            raise ValueError(f"duplicate variable name {name!r}")
        self._var_names[name] = self.add_columns(1)
        return self._var_names[name]

    def add_constraint(
        self,
        name: str,
        coefficients: Sequence[tuple[int, float]],
        sense: str,
        rhs: float,
    ) -> None:
        if sense not in (LE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        self._row_names[self.num_rows] = name
        cols = [col for col, _ in coefficients]
        vals = [coef for _, coef in coefficients]
        self.add_rows(cols, vals, [len(cols)], [sense == EQ], [rhs])

    def set_objective_coefficient(self, var: int, coefficient: float) -> None:
        if coefficient:
            self.objective[var] = self.objective.get(var, 0.0) + coefficient

    def rows(self) -> tuple[np.ndarray, ...]:
        """The row buffers: columns, coefficients, lengths, ``==`` flags and
        right-hand sides, each one array in insertion order."""
        buffers = (self._cols, self._vals, self._lengths, self._eq, self._rhs)
        if len(self._lengths) != 1:
            self.add_rows([], [], [], [], [])  # types an empty model's buffers
            for chunks in buffers:
                chunks[:] = [np.concatenate(chunks)]
        return tuple(chunks[0] for chunks in buffers)

    def names(self) -> tuple[list[str], list[str]]:
        """Every column's and every row's name, for export."""
        variables, rows = self.namer() if self.namer is not None else ([], [])
        variables += [""] * (self.num_variables - len(variables))
        rows += [""] * (self.num_rows - len(rows))
        for name, var in self._var_names.items():
            variables[var] = name
        for row, name in self._row_names.items():
            rows[row] = name
        return variables, rows

    @property
    def constraints(self) -> list[Row]:
        """A read-only view of every row, rendered from the buffers."""
        cols, vals, lengths, eq, rhs = self.rows()
        ends = np.cumsum(lengths).tolist()
        pairs = list(zip(cols.tolist(), vals.tolist()))
        return [
            Row(name, pairs[end - length:end], EQ if is_eq else LE, value)
            for name, end, length, is_eq, value in zip(
                self.names()[1], ends, lengths.tolist(), eq.tolist(), rhs.tolist()
            )
        ]


@dataclass
class LPSolution:
    status: str  # optimal | infeasible | error (a unit box is never unbounded)
    objective_value: float | None
    values: np.ndarray | None
    iterations: int = 0  # simplex iterations the solver reported
    message: str = ""  # the solver's own status text

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    @property
    def outcome(self) -> str:
        """The status, followed by the solver's text when there is one."""
        return f"{self.status} ({self.message})" if self.message else self.status


class CscMatrix(NamedTuple):
    """A sparse matrix as compressed columns: column ``j``'s entries are
    ``indices[indptr[j]:indptr[j + 1]]`` (their rows, ascending) and the
    same slice of ``data``."""

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: tuple[int, int]

    def __matmul__(self, values: np.ndarray) -> np.ndarray:
        """``self @ values``. Each row's products are added in column order,
        the order of scipy's CSC product, so the sums are the same floats."""
        col_of = np.repeat(np.arange(self.shape[1]), np.diff(self.indptr))
        sums = np.bincount(
            self.indices, weights=self.data * values[col_of], minlength=self.shape[0]
        )
        return sums.astype(float, copy=False)  # integer zeros if no entries


def constraint_matrix(model: LPModel) -> tuple[CscMatrix, np.ndarray, np.ndarray]:
    """All rows as one CSC matrix with their lower and upper bounds.

    ``<=`` rows come first, then ``==`` rows, each group in insertion
    order; a ``<=`` row's lower bound is ``-inf``, an ``==`` row's is its
    ``rhs``, and every upper bound is the ``rhs``. Entries a row repeats for
    one column are summed in insertion order into one, and kept even when
    the sum is zero.
    """
    cols, vals, lengths, eq, rhs = model.rows()
    order = np.argsort(eq, kind="stable")
    position = np.empty_like(order)
    position[order] = np.arange(len(order))
    row_of = np.repeat(position, lengths)
    # column by column, rows ascending within a column
    key = cols * len(order) + row_of
    by_column = np.argsort(key, kind="stable")
    key, vals = key[by_column], vals[by_column]
    # the last entry of each (row, column) pair takes the pair's sum
    last = np.ones(len(key), dtype=bool)
    np.not_equal(key[1:], key[:-1], out=last[:-1])
    for i in np.flatnonzero(~last).tolist():  # a row repeats a column
        vals[i + 1] += vals[i]
    by_column, vals = by_column[last], vals[last]
    indptr = np.zeros(model.num_variables + 1, dtype=np.intp)
    np.cumsum(
        np.bincount(cols[by_column], minlength=model.num_variables), out=indptr[1:]
    )
    upper = rhs[order]
    lower = np.where(eq[order], upper, -np.inf)
    shape = (len(order), model.num_variables)
    matrix = CscMatrix(indptr, row_of[by_column], vals, shape)
    return matrix, lower, upper


def primal_violation(
    matrix: CscMatrix,
    lower: np.ndarray,
    upper: np.ndarray,
    values: np.ndarray,
    col_upper: np.ndarray | float = 1.0,
) -> float:
    """Largest violation of ``values`` against the column bounds (0 to
    ``col_upper``) or the rows (0 if none; NaN if a value or a row sum is
    NaN)."""
    lhs = matrix @ values
    parts = ([0.0], -values, values - col_upper, lhs - upper, lower - lhs)
    return float(np.max(np.concatenate(parts)))


def objective_vector(
    model: LPModel, objective: np.ndarray | None = None
) -> np.ndarray:
    """The cost vector HiGHS minimizes: the model's objective, or
    ``objective`` (one coefficient per column) in its place, negated for
    ``MAXIMIZE``."""
    if objective is None:
        c = np.zeros(model.num_variables)
        c[list(model.objective)] = list(model.objective.values())
    else:
        c = np.array(objective, dtype=float)
    return -c if model.sense == MAXIMIZE else c


def solve(
    model: LPModel,
    upper: np.ndarray | None = None,
    objective: np.ndarray | None = None,
) -> LPSolution:
    """Solve with HiGHS; a status other than optimal carries no values.

    The objective is minimized as given, or negated for ``MAXIMIZE``, over
    the unit box, with HiGHS' dual simplex after presolve (the options of
    ``linprog(method="highs")``). ``upper`` (one bound per column, within
    [0, 1]) and ``objective`` (one coefficient per column) replace the
    columns' upper bounds and the model's objective for this solve only.
    With either given, and this thread's solver still holding ``model``
    from the solve just before, they are applied to that LP and HiGHS
    re-solves from the basis it kept. An optimal point that violates the
    model, under the bounds solved for, by more than ``PRIMAL_TOLERANCE``
    is reported as an ``error``.
    """
    n = model.num_variables
    col_upper = None if upper is None else _override(upper, n, "upper")
    if col_upper is not None and not np.all((col_upper >= 0.0) & (col_upper <= 1.0)):
        raise ValueError("column upper bounds must lie in [0, 1]")
    if objective is not None:
        objective = _override(objective, n, "objective")
    if n == 0:
        # With no variables every row reads ``0 <sense> rhs``.
        _, _, _, eq, rhs = model.rows()
        if np.any(np.where(eq, rhs != 0.0, rhs < 0.0)):
            return LPSolution(status="infeasible", objective_value=None, values=None)
        return LPSolution(status="optimal", objective_value=0.0, values=np.zeros(0))
    c = objective_vector(model, objective)
    held = None if upper is None and objective is None else _held(model)
    if held is not None:
        matrix, lower, row_upper = held.matrix, held.lower, held.upper
        solution = _rerun(held, c, col_upper)
    else:
        matrix, lower, row_upper = constraint_matrix(model)
        run = _run_highs if _highs is not None else _run_linprog
        solution = run(c, matrix, lower, row_upper, col_upper)
        held = _slot.held
        if held is not None and held.matrix is matrix:
            held.model, held.size = weakref.ref(model), _size(model)
    if solution.optimal:
        violation = primal_violation(
            matrix, lower, row_upper, solution.values,
            1.0 if col_upper is None else col_upper,
        )
        if not violation <= PRIMAL_TOLERANCE:
            return LPSolution(
                status="error", objective_value=None, values=None,
                iterations=solution.iterations,
                message=f"{solution.message}, but the point violates a bound "
                f"or row by {violation:.3g} (tolerance {PRIMAL_TOLERANCE:.3g})",
            )
        if model.sense == MAXIMIZE:
            solution.objective_value = -solution.objective_value
    return solution


def _override(values, n: int, what: str) -> np.ndarray:
    """A copy of one override of ``solve``, checked: ``n`` finite floats."""
    values = np.array(values, dtype=float)
    if values.shape != (n,) or not np.all(np.isfinite(values)):
        raise ValueError(f"{what} needs {n} finite values, one per column")
    return values


@dataclass(eq=False)
class _Held:
    """The LP a thread's solver holds: the arrays it was passed, and the
    costs and column upper bounds in force since. ``model`` and ``size``
    name the model it came from, and how large that was then."""

    matrix: CscMatrix
    lower: np.ndarray
    upper: np.ndarray
    cost: np.ndarray
    col_upper: np.ndarray
    model: weakref.ref | None = None
    size: tuple[int, int, int] = (0, 0, 0)


class _Slot(threading.local):
    """One thread's HiGHS object, the process that made it, and what it
    holds."""

    pid: int | None = None
    highs = None
    held: _Held | None = None


_slot = _Slot()


def _size(model: LPModel) -> tuple[int, int, int]:
    return model.num_variables, model.num_rows, model.num_nonzeros


def _solver():
    """This thread's HiGHS object, made on first use in each process with
    what ``linprog(method="highs")`` sets."""
    if _slot.pid != os.getpid():
        highs = _highs._Highs()
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue("simplex_strategy", 1)  # dual simplex
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("log_to_console", False)
        highs.setOptionValue("highs_debug_level", 0)
        _slot.pid, _slot.highs, _slot.held = os.getpid(), highs, None
    return _slot.highs


def _held(model: LPModel) -> _Held | None:
    """What this thread's solver holds, if that is ``model`` as it is now
    (never while solves go through ``linprog``)."""
    held = _slot.held if _slot.pid == os.getpid() and _highs is not None else None
    if held is None or held.model is None or held.model() is not model:
        return None
    return held if held.size == _size(model) else None


def _run_highs(
    c: np.ndarray,
    matrix: CscMatrix,
    lower: np.ndarray,
    upper: np.ndarray,
    col_upper: np.ndarray | None = None,
) -> LPSolution:
    """Minimize ``c @ x`` over ``0 <= x <= col_upper`` (the unit box if
    None) and ``lower <= matrix @ x <= upper`` through the bundled HiGHS
    bindings, on this thread's solver with its previous model cleared."""
    num_row, num_col = matrix.shape
    if col_upper is None:
        col_upper = np.ones(num_col)
    highs = _solver()
    _slot.held = None
    # clearModel keeps the options; clear() would reset them
    highs.clearModel()
    # the array overload reads int32 indices, each column's start (no end
    # marker) and a full-length integrality vector, all zero (continuous)
    passed = highs.passModel(
        num_col, num_row, len(matrix.data),
        int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize), 0.0,
        c, np.zeros(num_col), col_upper, lower, upper,
        matrix.indptr[:-1].astype(np.int32), matrix.indices.astype(np.int32),
        matrix.data, np.zeros(num_col, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        return LPSolution(
            status="error", objective_value=None, values=None,
            message=highs.modelStatusToString(_highs.HighsModelStatus.kModelError),
        )
    _slot.held = _Held(matrix, lower, upper, c, col_upper)
    return _result(highs)


def _rerun(held: _Held, c: np.ndarray, col_upper: np.ndarray | None) -> LPSolution:
    """Give the LP this thread's solver holds the costs ``c`` and the column
    upper bounds ``col_upper`` (the unit box if None), changing only the
    columns that differ, and re-solve from the basis HiGHS kept."""
    highs = _slot.highs
    if col_upper is None:
        col_upper = np.ones(len(c))
    changed = np.flatnonzero(col_upper != held.col_upper)
    bounds_set = not changed.size or highs.changeColsBounds(
        changed.size, changed.astype(np.int32), np.zeros(changed.size),
        col_upper[changed],
    ) != _highs.HighsStatus.kError
    changed = np.flatnonzero(c != held.cost)
    costs_set = not changed.size or highs.changeColsCost(
        changed.size, changed.astype(np.int32), c[changed]
    ) != _highs.HighsStatus.kError
    if not (bounds_set and costs_set):
        _slot.held = None
        return LPSolution(
            status="error", objective_value=None, values=None,
            message="HiGHS rejected the changed column bounds or costs",
        )
    held.cost, held.col_upper = c, col_upper
    return _result(highs)


def _result(highs) -> LPSolution:
    """The outcome of ``highs.run()`` on the LP the object holds."""
    ran = highs.run() != _highs.HighsStatus.kError
    status = highs.getModelStatus()
    info = highs.getInfo()
    solution = LPSolution(
        status="error", objective_value=None, values=None,
        iterations=info.simplex_iteration_count,
        message=highs.modelStatusToString(status),
    )
    if ran and status == _highs.HighsModelStatus.kOptimal:
        solution.status = "optimal"
        solution.objective_value = float(info.objective_function_value)
        solution.values = np.array(highs.getSolution().col_value)
    elif ran and status == _highs.HighsModelStatus.kInfeasible:
        solution.status = "infeasible"
    return solution


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported when called: only the fallback
    solve path needs it, and importing ``scipy.optimize`` is slow."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _run_linprog(
    c: np.ndarray,
    matrix: CscMatrix,
    lower: np.ndarray,
    upper: np.ndarray,
    col_upper: np.ndarray | None = None,
) -> LPSolution:
    """``_run_highs`` through ``linprog``, for scipy without the bindings."""
    from scipy.sparse import csc_array

    rows = csc_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)
    num_le = int(np.isneginf(lower).sum())
    num_eq = len(upper) - num_le
    res = linprog(
        c,
        A_ub=rows[:num_le] if num_le else None,
        b_ub=upper[:num_le] if num_le else None,
        A_eq=rows[num_le:] if num_eq else None,
        b_eq=upper[num_le:] if num_eq else None,
        bounds=(
            (0.0, 1.0) if col_upper is None
            else np.column_stack((np.zeros(len(c)), col_upper))
        ),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible"}.get(res.status, "error")
    optimal = status == "optimal"
    return LPSolution(
        status=status,
        objective_value=float(res.fun) if optimal else None,
        values=np.asarray(res.x) if optimal else None,
        iterations=int(res.nit),
        message=res.message,
    )


def write_lp(model: LPModel) -> str:
    """Render the model in the common LP text format for external checks."""
    variables, row_names = model.names()

    def expr(cols, vals) -> str:
        terms = []
        for col, coef in zip(cols, vals):
            if coef < 0:
                terms.append(f"- {-coef!r} {variables[col]}")
            else:
                prefix = "+ " if terms else ""
                terms.append(f"{prefix}{coef!r} {variables[col]}")
        return " ".join(terms) if terms else "0"

    lines = ["Maximize" if model.sense == MAXIMIZE else "Minimize"]
    lines.append(" obj: " + expr(model.objective, model.objective.values()))
    lines.append("Subject To")
    cols, vals, lengths, eq, rhs = model.rows()
    cols, vals = cols.tolist(), vals.tolist()
    end = 0
    for name, length, is_eq, value in zip(
        row_names, lengths.tolist(), eq.tolist(), rhs.tolist()
    ):
        start, end = end, end + length
        terms = expr(cols[start:end], vals[start:end])
        lines.append(f" {name}: {terms} {'=' if is_eq else '<='} {value!r}")
    lines.append("Bounds")
    lines.extend(f" 0.0 <= {name} <= 1.0" for name in variables)
    lines.append("End")
    return "\n".join(lines) + "\n"
