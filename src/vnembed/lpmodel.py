"""A small LP container and its HiGHS solve.

Every LP of the package has variables in [0, 1] and ``<=`` or ``==`` rows,
so that is all a model can hold. A model stores its rows in five flat
arrays, which its builder sets in one ``add_rows`` call: column indices and
coefficients, holding the rows' entries back to back, plus each row's
length, sense flag and right-hand side. Columns and rows keep their
insertion order, so solver inputs and exported files are reproducible.

Names exist for export only. ``write_lp`` renders them through the model's
``namer``, which its builder sets; a model without one exports empty names.
Nothing on the build or solve path formats a name.

``solve`` folds the model's alias rows on the way to HiGHS. The builders
tie many columns to one other column with a row ``x_a - x_b = 0`` (a
sub-LP copy to its global host or bag column), and HiGHS would spend most
of its presolve removing them. The columns such rows link form classes;
each class keeps one column, the one with the most entries in the row
arrays (the lowest index on a tie). The fold is a column map applied to
the solver's arrays (``fold_aliases``, ``solver_input``), not a second
model. Which column survives decides which optimal vertex HiGHS returns:
keeping the lowest index of each class instead moved enough points that
the ``seed-sweep`` benchmark's accepted runs fell from 8 to 0 of 128,
while this rule keeps them at 8. Change it only after measuring that
again. Each column then takes its survivor's value, and the primal check
reads the model's own rows, alias rows included.

The solver gets the rows as CSC arrays (``<=`` rows first, then ``==``
rows, each in insertion order) through scipy's bundled HiGHS bindings,
called directly by the module-level ``_run_highs``. It passes the arrays
and sets the options exactly as ``linprog(method="highs")`` does, so both
return the same solution vector bit for bit, but it skips ``linprog``'s
input cleaning, option validation and per-column marginal loop, none of
which the package reads. An optimal point that breaks a bound or a row by
more than ``linprog``'s own post-check allows is reported as an error.

Each thread keeps one HiGHS object, made on its first solve with
``linprog``'s options; the slot also records the process id, so a forked
worker makes its own instead of using a copy of its parent's. Every solve
clears the object's model and passes the LP afresh, which gives the same
point and iteration count as a new object; nothing else is kept between
solves.

The bindings are loaded from their file, ``scipy/optimize/_highspy/_core``
plus the interpreter's extension suffix, in the folder that
``importlib.util.find_spec`` names for ``scipy``, without importing any
scipy package: importing ``scipy.optimize`` would pull in
``scipy.linalg``, ``scipy.sparse`` and more, and cost most of a cold
start. The module is registered in ``sys.modules`` under its own name, so
a later ``import scipy.optimize`` reuses it (a second load would register
its types twice); scipy reaches it through ``from`` imports, which find it
there. scipy releases before 1.15 ship no such file; there ``solve`` hands
the same folded rows to ``linprog``, which is imported on that path only.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np


def _load_highs():
    """scipy's bundled HiGHS bindings, or None if this scipy has none."""
    name = "scipy.optimize._highspy._core"
    if name in sys.modules:
        return sys.modules[name]
    scipy = importlib.util.find_spec("scipy")
    if scipy is None:
        raise ModuleNotFoundError("No module named 'scipy'", name="scipy")
    folder = Path(scipy.origin).parent / "optimize" / "_highspy"
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


# a model's row arrays before ``add_rows``, with the types ``add_rows`` keeps
_NO_ROWS = tuple(np.zeros(0, kind) for kind in (np.intp, float, np.intp, bool, float))


@dataclass(eq=False)
class LPModel:
    """Linear program over variables in [0, 1], with rows in flat arrays.

    ``add_columns`` and ``add_rows`` append in bulk, and coefficients
    reference variables by index. ``namer`` returns the name of every
    column and every row, in order, and is called only on export.
    """

    sense: str = MINIMIZE
    objective: dict[int, float] = field(default_factory=dict)
    namer: Callable[[], tuple[list[str], list[str]]] | None = None
    num_variables: int = field(default=0, init=False)
    _rows: tuple[np.ndarray, ...] = field(default=_NO_ROWS, init=False)

    @property
    def num_rows(self) -> int:
        return len(self._rows[2])

    @property
    def num_nonzeros(self) -> int:
        return len(self._rows[0])

    def add_columns(self, count: int) -> int:
        """Append ``count`` unnamed columns; returns the first one's index."""
        self.num_variables += count
        return self.num_variables - count

    def add_rows(self, cols, vals, lengths, eq, rhs) -> None:
        """Append rows given as arrays: ``cols`` and ``vals`` hold their
        entries back to back, ``lengths`` each row's entry count, ``eq`` its
        sense (true for ``==``) and ``rhs`` its right-hand side."""
        rows = tuple(
            np.asarray(new, dtype=old.dtype)
            for new, old in zip((cols, vals, lengths, eq, rhs), self._rows)
        )
        if self.num_rows:
            rows = tuple(map(np.concatenate, zip(self._rows, rows)))
        self._rows = rows

    def set_objective_coefficient(self, var: int, coefficient: float) -> None:
        if coefficient:
            self.objective[var] = self.objective.get(var, 0.0) + coefficient

    def rows(self) -> tuple[np.ndarray, ...]:
        """The row arrays: columns, coefficients, lengths, ``==`` flags and
        right-hand sides, each in insertion order."""
        return self._rows

    def names(self) -> tuple[list[str], list[str]]:
        """Every column's and every row's name, for export."""
        if self.namer is None:
            return [""] * self.num_variables, [""] * self.num_rows
        return self.namer()

    @property
    def constraints(self) -> list[Row]:
        """A read-only view of every row, rendered from the row arrays."""
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


def constraint_matrix(model: LPModel) -> tuple[CscMatrix, np.ndarray, np.ndarray]:
    """All rows as one CSC matrix with their lower and upper bounds.

    ``<=`` rows come first, then ``==`` rows, each group in insertion
    order; a ``<=`` row's lower bound is ``-inf``, an ``==`` row's is its
    ``rhs``, and every upper bound is the ``rhs``. Entries a row repeats for
    one column are summed in insertion order into one, and kept even when
    the sum is zero.
    """
    return _csc(*model.rows(), model.num_variables)


def _csc(cols, vals, lengths, eq, rhs, num_columns):
    """``constraint_matrix`` of the given row arrays over ``num_columns``."""
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
    indptr = np.zeros(num_columns + 1, dtype=np.intp)
    np.cumsum(np.bincount(cols[by_column], minlength=num_columns), out=indptr[1:])
    upper = rhs[order]
    lower = np.where(eq[order], upper, -np.inf)
    matrix = CscMatrix(indptr, row_of[by_column], vals, (len(order), num_columns))
    return matrix, lower, upper


def max_violation(model: LPModel, values: np.ndarray) -> float:
    """Largest violation of ``values`` against the unit box or the model's
    rows (0 if none; NaN if a value or a row sum is NaN)."""
    cols, vals, lengths, eq, rhs = model.rows()
    row_of = np.repeat(np.arange(len(lengths)), lengths)
    lhs = np.bincount(row_of, weights=vals * values[cols], minlength=len(lengths))
    lhs = lhs.astype(float, copy=False)  # integer zeros if no entries
    parts = (
        [0.0], -values, values - 1.0, lhs - rhs, np.where(eq, rhs - lhs, -np.inf)
    )
    return float(np.max(np.concatenate(parts)))


def objective_vector(model: LPModel) -> np.ndarray:
    """The cost vector HiGHS minimizes: the model's objective, negated for
    ``MAXIMIZE``."""
    c = np.zeros(model.num_variables)
    c[list(model.objective)] = list(model.objective.values())
    return -c if model.sense == MAXIMIZE else c


def fold_aliases(model: LPModel) -> tuple[np.ndarray, np.ndarray]:
    """Each column's column in the LP with its alias rows folded away, and
    which rows are alias rows.

    An alias row is an ``==`` row of two entries, +1 and -1 on two distinct
    columns, with right-hand side 0. The columns that alias rows link form
    classes, and each class keeps one column: the one with the most entries
    in the row arrays (alias rows included), the lowest index on a tie.
    Survivors keep their order. In a model without alias rows every column
    keeps its index.
    """
    cols, vals, lengths, eq, rhs = model.rows()
    n = model.num_variables
    first = np.cumsum(lengths) - lengths
    pair = np.flatnonzero(eq & (lengths == 2) & (rhs == 0.0))
    head = first[pair]
    tail = head + 1
    alias = (
        (cols[head] != cols[tail])
        & (np.abs(vals[head]) == 1.0)
        & (vals[head] == -vals[tail])
    )
    alias_rows = np.zeros(len(lengths), dtype=bool)
    alias_rows[pair[alias]] = True
    a, b = cols[head[alias]], cols[tail[alias]]
    # label each column with its class's lowest index: hook the higher of
    # two roots under the lower, then jump pointers until every path is flat
    root = np.arange(n)
    while True:
        ra, rb = root[a], root[b]
        apart = ra != rb
        if not apart.any():
            break
        np.minimum.at(root, np.maximum(ra, rb)[apart], np.minimum(ra, rb)[apart])
        up = root[root]
        while not np.array_equal(up, root):
            root, up = up, up[up]
    # the survivor has the highest score: most entries, then lowest index
    score = np.bincount(cols, minlength=n) * n + (n - 1 - np.arange(n))
    best = np.zeros(n, dtype=score.dtype)
    np.maximum.at(best, root, score)
    survivor = (n - 1 - best % n)[root]
    column = (np.cumsum(survivor == np.arange(n)) - 1)[survivor]
    return column, alias_rows


def solver_input(model: LPModel):
    """``(column, c, matrix, lower, upper)``: the map of ``fold_aliases``,
    then the folded LP's ``objective_vector`` and ``constraint_matrix``.

    The alias rows go, and the other rows name survivors; a column a row
    now names twice is summed as any repeat is. A class's objective adds up
    on its survivor before ``MAXIMIZE`` negates it, so zeros stay ``-0.0``.
    """
    column, alias_rows = fold_aliases(model)
    cols, vals, lengths, eq, rhs = model.rows()
    size = int(column.max(initial=-1)) + 1
    weights = list(model.objective.values())
    c = np.bincount(column[list(model.objective)], weights=weights, minlength=size)
    if model.sense == MAXIMIZE:
        c = -c
    keep = ~alias_rows
    entries = np.repeat(keep, lengths)
    arrays = (column[cols[entries]], vals[entries], lengths[keep], eq[keep], rhs[keep])
    return column, c, *_csc(*arrays, size)


def solve(model: LPModel) -> LPSolution:
    """Solve with HiGHS; a status other than optimal carries no values.

    The objective is minimized as given, or negated for ``MAXIMIZE``, over
    the unit box, with HiGHS' dual simplex after presolve (the options of
    ``linprog(method="highs")``). The solver sees the LP with its alias
    rows folded away (``solver_input``), and every column takes its
    survivor's value. An optimal point that violates the model's own rows
    or box by more than ``PRIMAL_TOLERANCE`` is reported as an ``error``.
    """
    if model.num_variables == 0:
        # With no variables every row reads ``0 <sense> rhs``.
        _, _, _, eq, rhs = model.rows()
        if np.any(np.where(eq, rhs != 0.0, rhs < 0.0)):
            return LPSolution(status="infeasible", objective_value=None, values=None)
        return LPSolution(status="optimal", objective_value=0.0, values=np.zeros(0))
    column, *arrays = solver_input(model)
    run = _run_highs if _highs is not None else _run_linprog
    solution = run(*arrays)
    if solution.optimal:
        solution.values = solution.values[column]
        violation = max_violation(model, solution.values)
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


class _Slot(threading.local):
    """One thread's HiGHS object and the process that made it."""

    pid: int | None = None
    highs = None


_slot = _Slot()


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
        _slot.pid, _slot.highs = os.getpid(), highs
    return _slot.highs


def _run_highs(
    c: np.ndarray, matrix: CscMatrix, lower: np.ndarray, upper: np.ndarray
) -> LPSolution:
    """Minimize ``c @ x`` over the unit box and ``lower <= matrix @ x <= upper``
    through the bundled HiGHS bindings, on this thread's solver with its
    previous model cleared."""
    num_row, num_col = matrix.shape
    highs = _solver()
    # clearModel keeps the options; clear() would reset them
    highs.clearModel()
    # the array overload reads int32 indices, each column's start (no end
    # marker) and a full-length integrality vector, all zero (continuous)
    passed = highs.passModel(
        num_col, num_row, len(matrix.data),
        int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize), 0.0,
        c, np.zeros(num_col), np.ones(num_col), lower, upper,
        matrix.indptr[:-1].astype(np.int32), matrix.indices.astype(np.int32),
        matrix.data, np.zeros(num_col, dtype=np.int32),
    )
    if passed == _highs.HighsStatus.kError:
        return LPSolution(
            status="error", objective_value=None, values=None,
            message=highs.modelStatusToString(_highs.HighsModelStatus.kModelError),
        )
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
    c: np.ndarray, matrix: CscMatrix, lower: np.ndarray, upper: np.ndarray
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
        bounds=(0.0, 1.0),
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
    variables = model.names()[0]

    def expr(pairs) -> str:
        terms = []
        for col, coef in pairs:
            if coef < 0:
                terms.append(f"- {-coef!r} {variables[col]}")
            else:
                prefix = "+ " if terms else ""
                terms.append(f"{prefix}{coef!r} {variables[col]}")
        return " ".join(terms) if terms else "0"

    lines = ["Maximize" if model.sense == MAXIMIZE else "Minimize"]
    lines.append(" obj: " + expr(model.objective.items()))
    lines.append("Subject To")
    for row in model.constraints:
        sense = "=" if row.sense == EQ else "<="
        lines.append(f" {row.name}: {expr(row.coefficients)} {sense} {row.rhs!r}")
    lines.append("Bounds")
    lines.extend(f" 0.0 <= {name} <= 1.0" for name in variables)
    lines.append("End")
    return "\n".join(lines) + "\n"
