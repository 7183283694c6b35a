"""A small LP container and its HiGHS solve.

Every LP of the package has variables in [0, 1] and ``<=`` or ``==`` rows,
so that is all a model can hold. Models are built column by column with
stable insertion order, so variable indices (and therefore solver inputs
and exported files) are reproducible.

``solve`` assembles one CSC matrix (``<=`` rows first, then ``==`` rows,
each in insertion order) and hands it to scipy's bundled HiGHS bindings
directly, through the module-level ``_run_highs``. It passes the matrix
and sets the options exactly as ``linprog(method="highs")`` does, so both
return the same solution vector bit for bit, but it skips ``linprog``'s
input cleaning, option validation and per-column marginal loop, none of
which the package reads. scipy releases before 1.15 ship no such
bindings; there ``solve`` hands the same matrix to the module-level
``linprog``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csc_array

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError:  # scipy < 1.15
    _highs = None

MINIMIZE = "min"
MAXIMIZE = "max"

LE = "<="
EQ = "=="

# The solver every report names.
BACKEND = "highs"


@dataclass
class Variable:
    name: str


@dataclass
class Constraint:
    name: str
    coefficients: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass
class LPModel:
    """Linear program over named variables, each in [0, 1].

    Coefficients reference variables by index; ``add_variable`` returns the
    index to use. Duplicate variable names are rejected to keep solution
    files unambiguous.
    """

    sense: str = MINIMIZE
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    _names: dict[str, int] = field(default_factory=dict)

    def add_variable(self, name: str) -> int:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        self.variables.append(Variable(name=name))
        idx = len(self.variables) - 1
        self._names[name] = idx
        return idx

    def add_constraint(
        self,
        name: str,
        coefficients: Sequence[tuple[int, float]],
        sense: str,
        rhs: float,
    ) -> None:
        if sense not in (LE, EQ):
            raise ValueError(f"unknown sense {sense!r}")
        self.constraints.append(
            Constraint(name=name, coefficients=list(coefficients), sense=sense, rhs=rhs)
        )

    def set_objective_coefficient(self, var: int, coefficient: float) -> None:
        if coefficient:
            self.objective[var] = self.objective.get(var, 0.0) + coefficient

    @property
    def num_variables(self) -> int:
        return len(self.variables)


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


def constraint_matrix(model: LPModel) -> tuple[csc_array, np.ndarray, np.ndarray]:
    """All rows as one CSC matrix with their lower and upper bounds.

    ``<=`` rows come first, then ``==`` rows, each group in insertion
    order; a ``<=`` row's lower bound is ``-inf``, an ``==`` row's is its
    ``rhs``, and every upper bound is the ``rhs``.
    """
    le_rows = [con for con in model.constraints if con.sense == LE]
    rows = le_rows + [con for con in model.constraints if con.sense == EQ]
    lengths = [len(con.coefficients) for con in rows]
    # every (column, coefficient) pair of every row, flattened
    pairs = np.fromiter(
        chain.from_iterable(chain.from_iterable(con.coefficients for con in rows)),
        dtype=float,
        count=2 * sum(lengths),
    ).reshape(-1, 2)
    row_of = np.repeat(np.arange(len(rows)), lengths)
    matrix = csc_array(
        (pairs[:, 1], (row_of, pairs[:, 0].astype(np.intp))),
        shape=(len(rows), model.num_variables),
    )
    upper = np.array([con.rhs for con in rows], dtype=float)
    lower = upper.copy()
    lower[: len(le_rows)] = -np.inf
    return matrix, lower, upper


def solve(model: LPModel) -> LPSolution:
    """Solve with HiGHS; a status other than optimal carries no values.

    The objective is minimized as given, or negated for ``MAXIMIZE``, over
    the unit box, with HiGHS' dual simplex after presolve (the options of
    ``linprog(method="highs")``).
    """
    n = model.num_variables
    if n == 0:
        # With no variables every row reads ``0 <sense> rhs``.
        if any(
            con.rhs < 0.0 if con.sense == LE else con.rhs != 0.0
            for con in model.constraints
        ):
            return LPSolution(status="infeasible", objective_value=None, values=None)
        return LPSolution(status="optimal", objective_value=0.0, values=np.zeros(0))
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef
    if model.sense == MAXIMIZE:
        c = -c
    matrix, lower, upper = constraint_matrix(model)
    run = _run_highs if _highs is not None else _run_linprog
    solution = run(c, matrix, lower, upper)
    if solution.optimal and model.sense == MAXIMIZE:
        solution.objective_value = -solution.objective_value
    return solution


def _run_highs(
    c: np.ndarray, matrix: csc_array, lower: np.ndarray, upper: np.ndarray
) -> LPSolution:
    """Minimize ``c @ x`` over the unit box and ``lower <= matrix @ x <= upper``
    through the bundled HiGHS bindings."""
    num_row, num_col = matrix.shape
    # the bindings copy Python lists into their vectors about twice as
    # fast as arrays, which they read element by element
    lp = _highs.HighsLp()
    lp.num_col_ = num_col
    lp.num_row_ = num_row
    lp.col_cost_ = c.tolist()
    lp.col_lower_ = [0.0] * num_col
    lp.col_upper_ = [1.0] * num_col
    lp.row_lower_ = lower.tolist()
    lp.row_upper_ = upper.tolist()
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.num_col_ = num_col
    lp.a_matrix_.num_row_ = num_row
    lp.a_matrix_.start_ = matrix.indptr.tolist()
    lp.a_matrix_.index_ = matrix.indices.tolist()
    lp.a_matrix_.value_ = matrix.data.tolist()
    highs = _highs._Highs()
    # exactly what linprog(method="highs") sets
    highs.setOptionValue("presolve", "on")
    highs.setOptionValue("simplex_strategy", 1)  # dual simplex
    highs.setOptionValue("output_flag", False)
    highs.setOptionValue("log_to_console", False)
    highs.setOptionValue("highs_debug_level", 0)
    if highs.passModel(lp) == _highs.HighsStatus.kError:
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


def _run_linprog(
    c: np.ndarray, matrix: csc_array, lower: np.ndarray, upper: np.ndarray
) -> LPSolution:
    """``_run_highs`` through ``linprog``, for scipy without the bindings."""
    num_le = int(np.isneginf(lower).sum())
    num_eq = len(upper) - num_le
    res = linprog(
        c,
        A_ub=matrix[:num_le] if num_le else None,
        b_ub=upper[:num_le] if num_le else None,
        A_eq=matrix[num_le:] if num_eq else None,
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
    lines = ["Maximize" if model.sense == MAXIMIZE else "Minimize"]
    lines.append(" obj: " + _linear_expr(model.objective.items(), model))
    lines.append("Subject To")
    for con in model.constraints:
        op = "=" if con.sense == EQ else "<="
        expr = _linear_expr(con.coefficients, model)
        lines.append(f" {con.name}: {expr} {op} {con.rhs!r}")
    lines.append("Bounds")
    for var in model.variables:
        lines.append(f" 0.0 <= {var.name} <= 1.0")
    lines.append("End")
    return "\n".join(lines) + "\n"


def _linear_expr(coefficients, model: LPModel) -> str:
    terms = []
    for idx, coef in coefficients:
        name = model.variables[idx].name
        if coef < 0:
            terms.append(f"- {-coef!r} {name}")
        else:
            prefix = "+ " if terms else ""
            terms.append(f"{prefix}{coef!r} {name}")
    return " ".join(terms) if terms else "0"
