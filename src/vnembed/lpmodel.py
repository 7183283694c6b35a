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
each class keeps its lowest index. The fold is a column map applied to the
solver's arrays (``fold_aliases``, ``solver_input``), not a second model.
Each column then takes its survivor's value, and the primal check reads
the model's own rows, alias rows included.

``solve`` returns one canonical optimal point per LP: the minimum of a
fixed generic cost vector ``d`` (``canonical_costs``, one draw per model
column, summed over each alias class as ``c`` is) over the LP's optimal
face. For any optimal dual, the optimal points are exactly the points that
meet complementary slackness with it, so the face, and with it the point,
depend on neither the dual nor the vertex the solver finds; reports do not
depend on the solver's options or the backend. Three runs on one HiGHS
object reach it:

1. ``c + PERTURBATION * s * d`` by dual simplex, where ``s`` is the largest
   cost magnitude, at least 1. For a small enough perturbation this is
   already the point (Charnes' lexicographic optimum).
2. ``c`` by primal simplex from that basis, usually in no iteration: the
   optimum, its objective and its duals.
3. ``d`` by primal simplex without presolve over the optimal face, usually
   in no iteration: a column whose reduced cost passes ``FACE_TOLERANCE *
   s`` is fixed at its bound, and a ``<=`` row whose dual passes it is made
   an equality.

The point's cost must match the optimum to a relative
``OBJECTIVE_TOLERANCE``, or the solve is an error. The size of the LP
decides one thing, HiGHS' presolve in the first run: it pays off only
above ``PRESOLVE_NONZEROS`` folded nonzeros. The solution carries the
second run's row duals and reduced costs, on the folded LP (``LPSolution``).

The solver gets the rows as CSC arrays (``<=`` rows first, then ``==``
rows, each in insertion order) through scipy's bundled HiGHS bindings,
called directly by the module-level ``_run_highs``. It passes the arrays
as ``linprog(method="highs")`` does, but skips ``linprog``'s input
cleaning, option validation and per-column marginal loop. An optimal point
that breaks a bound or a row by more than ``linprog``'s own post-check
allows is reported as an error.

Each thread keeps one HiGHS object, made on its first solve with
``linprog``'s options; the slot also records the process id, so a forked
worker makes its own instead of using a copy of its parent's. Every solve
clears the object's model and passes the LP afresh, and sets back the
options its runs change, which gives the same point and iteration count
as a new object; nothing else is kept between solves.

The bindings are loaded from their file, ``scipy/optimize/_highspy/_core``
plus the interpreter's extension suffix, in the folder that
``importlib.util.find_spec`` names for ``scipy``, without importing any
scipy package: importing ``scipy.optimize`` would pull in
``scipy.linalg``, ``scipy.sparse`` and more, and cost most of a cold
start. The module is registered in ``sys.modules`` under its own name, so
a later ``import scipy.optimize`` reuses it (a second load would register
its types twice); scipy reaches it through ``from`` imports, which find it
there. scipy releases before 1.15 ship no such file; there ``solve`` hands
the same folded rows to ``linprog``, which is imported on that path only:
it solves ``c``, fixes the face from ``linprog``'s marginals and solves
``d`` over it, which reaches the same point.
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

# The canonical point: ``canonical_costs`` draws ``d`` from this seed, the
# first run minimizes ``c + PERTURBATION * s * d`` (``s`` the cost scale),
# a reduced cost or row dual beyond ``FACE_TOLERANCE * s`` fixes the
# optimal face, and the point's cost must be the optimum to a relative
# ``OBJECTIVE_TOLERANCE``.
CANONICAL_SEED = 0
PERTURBATION = 1e-4
FACE_TOLERANCE = 1e-7
OBJECTIVE_TOLERANCE = 1e-9

# HiGHS presolves the first run only of LPs with more folded nonzeros
PRESOLVE_NONZEROS = 60_000


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
    """A solve's outcome. An optimal one carries the canonical point in
    ``values`` (one per model column) and, from the solve of the costs
    themselves, the duals of the LP the solver saw: ``row_duals`` per row
    of ``solver_input``'s matrix (``<=`` rows first, then ``==`` rows;
    alias rows are folded away and have none) and ``reduced_costs`` per
    folded column, both in HiGHS' minimization sign, so that ``c - A.T @
    row_duals - reduced_costs`` is 0 for ``solver_input``'s ``c`` and ``A``.
    """

    status: str  # optimal | infeasible | error (a unit box is never unbounded)
    objective_value: float | None
    values: np.ndarray | None
    iterations: int = 0  # simplex iterations the solver reported, all runs
    message: str = ""  # the solver's own status text
    row_duals: np.ndarray | None = None
    reduced_costs: np.ndarray | None = None

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
    classes, and each class keeps one column, its lowest index. Survivors
    keep their order. In a model without alias rows every column keeps its
    index.
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
    column = (np.cumsum(root == np.arange(n)) - 1)[root]
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


def canonical_costs(num_columns: int) -> np.ndarray:
    """The fixed generic cost vector ``d`` whose minimum over an LP's
    optimal face is the point ``solve`` returns: one draw in [0, 1) per
    column, from a generator seeded with ``CANONICAL_SEED``."""
    return np.random.default_rng(CANONICAL_SEED).random(num_columns)


def solve(model: LPModel) -> LPSolution:
    """Solve with HiGHS to the canonical optimal point; a status other than
    optimal carries no values.

    The objective is minimized as given, or negated for ``MAXIMIZE``, over
    the unit box. The solver sees the LP with its alias rows folded away
    (``solver_input``) and the canonical costs ``d`` folded like ``c``,
    summed over each alias class, so the point does not depend on which
    column of a class survives. It returns the minimum of ``d`` over the
    LP's optimal face (see the module docstring for the three runs that
    reach it), and every column takes its survivor's value. The reported
    objective is the optimum of ``c``, and the solution carries the folded
    LP's row duals and reduced costs. An optimal point that violates the
    model's own rows or box by more than ``PRIMAL_TOLERANCE`` is reported
    as an ``error``.
    """
    if model.num_variables == 0:
        # With no variables every row reads ``0 <sense> rhs``.
        _, _, _, eq, rhs = model.rows()
        if np.any(np.where(eq, rhs != 0.0, rhs < 0.0)):
            return LPSolution(status="infeasible", objective_value=None, values=None)
        return LPSolution(
            status="optimal", objective_value=0.0, values=np.zeros(0),
            row_duals=np.zeros(model.num_rows), reduced_costs=np.zeros(0),
        )
    column, c, matrix, lower, upper = solver_input(model)
    d = np.bincount(column, weights=canonical_costs(model.num_variables))
    run = _run_highs if _highs is not None else _run_linprog
    solution = run(c, matrix, lower, upper, d)
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


def _presolve(matrix: CscMatrix) -> bool:
    """Whether HiGHS presolves the first run: on LPs above
    ``PRESOLVE_NONZEROS`` folded nonzeros only."""
    return len(matrix.data) > PRESOLVE_NONZEROS


def _cost_scale(c: np.ndarray) -> float:
    """``s``: the largest cost magnitude, at least 1. The perturbation and
    the face tolerance scale with it."""
    return max(1.0, float(np.abs(c).max(initial=0.0)))


def _face(
    c: np.ndarray, lower: np.ndarray, row_duals: np.ndarray,
    reduced_costs: np.ndarray,
):
    """The optimal face from one optimal dual: which columns sit at 0 and
    which at 1 (reduced cost beyond ``FACE_TOLERANCE`` times the cost scale,
    positive or negative), and which ``<=`` rows bind (dual beyond it).

    Every optimal point meets complementary slackness with every optimal
    dual, so the face does not depend on which dual the solver returned.
    """
    tolerance = FACE_TOLERANCE * _cost_scale(c)
    at_zero = reduced_costs > tolerance
    at_one = reduced_costs < -tolerance
    tight = (np.abs(row_duals) > tolerance) & np.isneginf(lower)
    return at_zero, at_one, tight


class _Slot(threading.local):
    """One thread's HiGHS object and the process that made it."""

    pid: int | None = None
    highs = None


_slot = _Slot()

# HiGHS' simplex_strategy values
_DUAL_SIMPLEX = 1
_PRIMAL_SIMPLEX = 4


def _solver():
    """This thread's HiGHS object, made on first use in each process with
    what ``linprog(method="highs")`` sets. A solve changes ``presolve`` and
    ``simplex_strategy`` between its runs and sets them back to these."""
    if _slot.pid != os.getpid():
        highs = _highs._Highs()
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
        highs.setOptionValue("output_flag", False)
        highs.setOptionValue("log_to_console", False)
        highs.setOptionValue("highs_debug_level", 0)
        _slot.pid, _slot.highs = os.getpid(), highs
    return _slot.highs


def _run_highs(
    c: np.ndarray, matrix: CscMatrix, lower: np.ndarray, upper: np.ndarray,
    d: np.ndarray,
) -> LPSolution:
    """Minimize ``c @ x`` over the unit box and ``lower <= matrix @ x <= upper``
    through the bundled HiGHS bindings, to the minimum of ``d`` over the
    optimal face, on this thread's solver with its previous model cleared."""
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
    return _solve_passed(highs, c, matrix, lower, upper, d)


def _solve_passed(highs, c, matrix, lower, upper, d) -> LPSolution:
    """``_run_highs``'s three runs on ``highs``, which holds the LP with the
    costs ``c``. Sets the options back to ``_solver``'s even if a run
    fails."""
    num_col = len(c)
    columns = np.arange(num_col, dtype=np.int32)
    solution = LPSolution(status="error", objective_value=None, values=None)

    def run(costs, phase: str) -> float | None:
        """One run on the costs ``costs``: its optimum, or None, with
        ``solution`` set, unless it ends optimal."""
        highs.changeColsCost(num_col, columns, costs)
        ran = highs.run() != _highs.HighsStatus.kError
        status = highs.getModelStatus()
        info = highs.getInfo()
        solution.iterations += info.simplex_iteration_count
        solution.message = highs.modelStatusToString(status)
        if ran and status == _highs.HighsModelStatus.kOptimal:
            return float(info.objective_function_value)
        if ran and status == _highs.HighsModelStatus.kInfeasible and not phase:
            solution.status = "infeasible"
        elif phase:
            solution.message = f"{phase} ended {solution.message}"
        return None

    try:
        # 1: the perturbed costs, by dual simplex
        highs.setOptionValue("presolve", "on" if _presolve(matrix) else "off")
        if run(c + PERTURBATION * _cost_scale(c) * d, "") is None:
            return solution
        # 2: the costs themselves, by primal simplex from that basis
        highs.setOptionValue("simplex_strategy", _PRIMAL_SIMPLEX)
        objective = run(c, "the re-solve of the costs")
        if objective is None:
            return solution
        duals = highs.getSolution()
        row_duals, reduced_costs = np.array(duals.row_dual), np.array(duals.col_dual)
        # 3: d over the optimal face, by primal simplex without presolve
        at_zero, at_one, tight = _face(c, lower, row_duals, reduced_costs)
        fixed = np.flatnonzero(at_zero | at_one).astype(np.int32)
        bound = at_one[fixed].astype(float)
        highs.changeColsBounds(len(fixed), fixed, bound, bound)
        for row in np.flatnonzero(tight).tolist():
            highs.changeRowBounds(row, upper[row], upper[row])
        highs.setOptionValue("presolve", "off")
        if run(d, "the canonical solve over the optimal face") is None:
            return solution
    finally:
        highs.setOptionValue("presolve", "on")
        highs.setOptionValue("simplex_strategy", _DUAL_SIMPLEX)
    values = np.array(highs.getSolution().col_value)
    return _canonical(solution, c, objective, values, row_duals, reduced_costs)


def _canonical(solution, c, objective, values, row_duals, reduced_costs):
    """``solution`` made optimal at the canonical point ``values``, with the
    optimum ``objective`` and the duals of the solve of ``c``; an error
    instead if ``c @ values`` is not that optimum to a relative
    ``OBJECTIVE_TOLERANCE``."""
    cost = float(c @ values)
    if abs(cost - objective) > OBJECTIVE_TOLERANCE * max(1.0, abs(objective)):
        solution.status = "error"
        solution.message = (
            f"{solution.message}, but the canonical point costs {cost!r} "
            f"against the optimum {objective!r}"
        )
        return solution
    solution.status = "optimal"
    solution.objective_value = objective
    solution.values = values
    solution.row_duals, solution.reduced_costs = row_duals, reduced_costs
    return solution


def linprog(*args, **kwargs):
    """``scipy.optimize.linprog``, imported when called: only the fallback
    solve path needs it, and importing ``scipy.optimize`` is slow."""
    from scipy.optimize import linprog as scipy_linprog

    return scipy_linprog(*args, **kwargs)


def _run_linprog(
    c: np.ndarray, matrix: CscMatrix, lower: np.ndarray, upper: np.ndarray,
    d: np.ndarray,
) -> LPSolution:
    """``_run_highs`` through ``linprog``, for scipy without the bindings:
    ``c`` solved first, its marginals fix the optimal face, and ``d`` is
    solved over that face, both with ``_run_highs``' first presolve."""
    from scipy.sparse import csc_array

    rows = csc_array((matrix.data, matrix.indices, matrix.indptr), shape=matrix.shape)

    def run(costs, held, bounds):
        """``linprog`` of ``costs`` with the rows ``held`` as equalities."""
        loose, held = np.flatnonzero(~held), np.flatnonzero(held)
        return linprog(
            costs,
            A_ub=rows[loose] if len(loose) else None,
            b_ub=upper[loose] if len(loose) else None,
            A_eq=rows[held] if len(held) else None,
            b_eq=upper[held] if len(held) else None,
            bounds=bounds, method="highs",
            options={"presolve": _presolve(matrix)},
        )

    first = run(c, np.isfinite(lower), (0.0, 1.0))
    status = {0: "optimal", 2: "infeasible"}.get(first.status, "error")
    solution = LPSolution(
        status=status, objective_value=None, values=None,
        iterations=int(first.nit), message=first.message,
    )
    if status != "optimal":
        return solution
    # linprog's marginals are HiGHS' duals, the bounds' split by sign
    row_duals = np.concatenate([first.ineqlin.marginals, first.eqlin.marginals])
    reduced_costs = first.lower.marginals + first.upper.marginals
    at_zero, at_one, tight = _face(c, lower, row_duals, reduced_costs)
    bounds = np.column_stack([at_one, ~at_zero]).astype(float)
    second = run(d, tight | np.isfinite(lower), bounds)
    solution.iterations += int(second.nit)
    solution.message = second.message
    if second.status != 0:
        solution.status = "error"
        solution.message = (
            f"the canonical solve over the optimal face ended {second.message}"
        )
        return solution
    return _canonical(
        solution, c, float(first.fun), np.asarray(second.x), row_duals, reduced_costs
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
