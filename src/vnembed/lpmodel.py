"""A small LP container and its HiGHS solve.

Every LP of the package has variables in [0, 1] and ``<=`` or ``==`` rows,
so that is all a model can hold. Models are built column by column with
stable insertion order, so variable indices (and therefore solver inputs
and exported files) are reproducible. ``solve`` hands the model to scipy's
HiGHS through the module-level ``linprog``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.optimize import linprog
from scipy.sparse import csr_matrix

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

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def solve(model: LPModel) -> LPSolution:
    """Solve with HiGHS; a status other than optimal carries no values."""
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

    def matrix(rows: list[Constraint]):
        if not rows:
            return None, None
        data, ri, ci = [], [], []
        for r, con in enumerate(rows):
            for i, coef in con.coefficients:
                ri.append(r)
                ci.append(i)
                data.append(coef)
        mat = csr_matrix((data, (ri, ci)), shape=(len(rows), n))
        return mat, np.array([con.rhs for con in rows])

    rows: dict[str, list[Constraint]] = {LE: [], EQ: []}
    for con in model.constraints:
        rows[con.sense].append(con)
    a_ub, b_ub = matrix(rows[LE])
    a_eq, b_eq = matrix(rows[EQ])
    res = linprog(
        c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=b_eq, bounds=(0.0, 1.0),
        method="highs",
    )
    status = {0: "optimal", 2: "infeasible"}.get(res.status, "error")
    if status != "optimal":
        return LPSolution(status=status, objective_value=None, values=None)
    objective = float(res.fun)
    if model.sense == MAXIMIZE:
        objective = -objective
    return LPSolution(
        status="optimal", objective_value=objective, values=np.asarray(res.x)
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
