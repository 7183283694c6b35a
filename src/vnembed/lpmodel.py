"""A small LP container plus a pluggable solve interface.

Models are built column by column with stable insertion order, so variable
indices (and therefore solver inputs and exported files) are reproducible.
The bundled backend wraps scipy's HiGHS; further backends can be registered
under a name and selected per call or through the ``VNEMBED_SOLVER``
environment variable.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

MINIMIZE = "min"
MAXIMIZE = "max"

LE = "<="
EQ = "=="
GE = ">="


@dataclass
class Variable:
    name: str
    lower: float = 0.0
    upper: float | None = None


@dataclass
class Constraint:
    name: str
    coefficients: list[tuple[int, float]]
    sense: str
    rhs: float


@dataclass
class LPModel:
    """Linear program over named variables.

    Coefficients reference variables by index; ``add_variable`` returns the
    index to use. Duplicate variable names are rejected to keep solution
    files unambiguous.
    """

    sense: str = MINIMIZE
    variables: list[Variable] = field(default_factory=list)
    constraints: list[Constraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)
    _names: dict[str, int] = field(default_factory=dict)

    def add_variable(
        self, name: str, lower: float = 0.0, upper: float | None = None
    ) -> int:
        if name in self._names:
            raise ValueError(f"duplicate variable name {name!r}")
        self.variables.append(Variable(name=name, lower=lower, upper=upper))
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
        if sense not in (LE, EQ, GE):
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
    status: str  # optimal | infeasible | unbounded | error
    objective_value: float | None
    values: np.ndarray | None
    model: LPModel
    backend: str

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"

    def value(self, index: int) -> float:
        assert self.values is not None, "no solution vector available"
        return float(self.values[index])


def _solve_highs(model: LPModel) -> LPSolution:
    n = model.num_variables
    if n == 0:
        # With no variables every row reads ``0 <sense> rhs``.
        if any(
            {LE: con.rhs < 0.0, EQ: con.rhs != 0.0, GE: con.rhs > 0.0}[con.sense]
            for con in model.constraints
        ):
            return LPSolution(
                status="infeasible", objective_value=None, values=None,
                model=model, backend="highs",
            )
        return LPSolution(
            status="optimal", objective_value=0.0, values=np.zeros(0), model=model,
            backend="highs",
        )
    c = np.zeros(n)
    for idx, coef in model.objective.items():
        c[idx] = coef
    if model.sense == MAXIMIZE:
        c = -c
    rows_ub: list[tuple[list[tuple[int, float]], float]] = []
    rows_eq: list[tuple[list[tuple[int, float]], float]] = []
    for con in model.constraints:
        if con.sense == EQ:
            rows_eq.append((con.coefficients, con.rhs))
        elif con.sense == LE:
            rows_ub.append((con.coefficients, con.rhs))
        else:  # >= becomes <= after negation
            rows_ub.append(
                ([(i, -coef) for i, coef in con.coefficients], -con.rhs)
            )

    def matrix(rows):
        data, ri, ci, rhs = [], [], [], []
        for r, (coefs, b) in enumerate(rows):
            rhs.append(b)
            for i, coef in coefs:
                ri.append(r)
                ci.append(i)
                data.append(coef)
        mat = csr_matrix((data, (ri, ci)), shape=(len(rows), n))
        return mat, np.array(rhs)

    kwargs = {}
    if rows_ub:
        kwargs["A_ub"], kwargs["b_ub"] = matrix(rows_ub)
    if rows_eq:
        kwargs["A_eq"], kwargs["b_eq"] = matrix(rows_eq)
    bounds = [(v.lower, v.upper) for v in model.variables]
    res = linprog(c, bounds=bounds, method="highs", **kwargs)
    status = {0: "optimal", 2: "infeasible", 3: "unbounded"}.get(res.status, "error")
    if status != "optimal":
        return LPSolution(
            status=status, objective_value=None, values=None, model=model,
            backend="highs",
        )
    objective = float(res.fun)
    if model.sense == MAXIMIZE:
        objective = -objective
    return LPSolution(
        status="optimal", objective_value=objective, values=np.asarray(res.x),
        model=model, backend="highs",
    )


SOLVERS: dict[str, Callable[[LPModel], LPSolution]] = {"highs": _solve_highs}

SOLVER_ENV_VAR = "VNEMBED_SOLVER"


def default_backend() -> str:
    return os.environ.get(SOLVER_ENV_VAR, "highs")


def solve(model: LPModel, backend: str | None = None) -> LPSolution:
    """Solve with the named backend (default from ``VNEMBED_SOLVER``)."""
    name = backend or default_backend()
    try:
        fn = SOLVERS[name]
    except KeyError:
        raise ValueError(
            f"unknown solver backend {name!r}; registered: {sorted(SOLVERS)}"
        ) from None
    return fn(model)


def write_lp(model: LPModel) -> str:
    """Render the model in the common LP text format for external checks."""
    lines = ["Maximize" if model.sense == MAXIMIZE else "Minimize"]
    lines.append(" obj: " + _linear_expr(model.objective.items(), model))
    lines.append("Subject To")
    for con in model.constraints:
        op = {LE: "<=", GE: ">=", EQ: "="}[con.sense]
        expr = _linear_expr(con.coefficients, model)
        lines.append(f" {con.name}: {expr} {op} {con.rhs!r}")
    lines.append("Bounds")
    for var in model.variables:
        hi = "+inf" if var.upper is None else repr(var.upper)
        lines.append(f" {var.lower!r} <= {var.name} <= {hi}")
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
