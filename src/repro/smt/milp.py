"""Mixed-integer linear program container shared by the solver layers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class Variable:
    """One MILP variable with finite bounds."""

    name: str
    lo: float
    hi: float
    is_integer: bool = False

    def __post_init__(self):
        if not np.isfinite(self.lo) or not np.isfinite(self.hi):
            raise ValueError(f"variable {self.name} must have finite bounds")
        if self.lo > self.hi:
            raise ValueError(f"variable {self.name}: lo {self.lo} > hi {self.hi}")


@dataclass
class LinearConstraint:
    """``sum(coeffs[i] * x_i)  sense  rhs`` with sense in {<=, >=, ==}."""

    coeffs: dict[int, float]
    sense: str
    rhs: float

    SENSES = ("<=", ">=", "==")

    def __post_init__(self):
        if self.sense not in self.SENSES:
            raise ValueError(f"unknown sense {self.sense!r}")


@dataclass
class MilpProblem:
    """A minimisation MILP built incrementally."""

    variables: list[Variable] = field(default_factory=list)
    constraints: list[LinearConstraint] = field(default_factory=list)
    objective: dict[int, float] = field(default_factory=dict)

    def add_variable(
        self, name: str, lo: float, hi: float, is_integer: bool = False
    ) -> int:
        """Add a variable; returns its index."""
        self.variables.append(Variable(name, float(lo), float(hi), is_integer))
        return len(self.variables) - 1

    def add_constraint(self, coeffs: dict[int, float], sense: str, rhs: float) -> None:
        """Add ``sum(coeffs[i] x_i) sense rhs``; zero coefficients dropped."""
        cleaned = {i: float(c) for i, c in coeffs.items() if c != 0.0}
        for i in cleaned:
            if not 0 <= i < len(self.variables):
                raise IndexError(f"constraint references unknown variable {i}")
        self.constraints.append(LinearConstraint(cleaned, sense, float(rhs)))

    def set_objective(self, coeffs: dict[int, float]) -> None:
        """Set the (minimisation) objective."""
        self.objective = {i: float(c) for i, c in coeffs.items() if c != 0.0}

    @property
    def num_variables(self) -> int:
        return len(self.variables)

    @property
    def integer_indices(self) -> list[int]:
        return [i for i, v in enumerate(self.variables) if v.is_integer]

    def dense(self) -> tuple[np.ndarray, list[np.ndarray], list[str], np.ndarray]:
        """Dense (c, rows, senses, rhs) arrays for the LP relaxation solver."""
        n = self.num_variables
        c = np.zeros(n)
        for i, coeff in self.objective.items():
            c[i] = coeff
        rows = []
        senses = []
        rhs = np.zeros(len(self.constraints))
        for k, constraint in enumerate(self.constraints):
            row = np.zeros(n)
            for i, coeff in constraint.coeffs.items():
                row[i] = coeff
            rows.append(row)
            senses.append(constraint.sense)
            rhs[k] = constraint.rhs
        return c, rows, senses, rhs


@dataclass
class MilpResult:
    """Outcome of an LP/MILP solve."""

    status: str  # "optimal" | "infeasible" | "unbounded" | "iteration_limit"
    x: Optional[np.ndarray] = None
    objective: Optional[float] = None

    @property
    def is_optimal(self) -> bool:
        return self.status == "optimal"
