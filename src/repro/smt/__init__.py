"""A small SMT-style solver for quantifier-free linear integer arithmetic.

This package is the repo's stand-in for Z3 (§2.3): it accepts formulas
built from bounded integer/real variables, linear arithmetic, comparisons
and boolean structure (And/Or/Not/Implies/Ite), compiles them to a
mixed-integer linear program via big-M encoding, and solves that with a
from-scratch branch-and-bound whose LP relaxations are solved with HiGHS
(``scipy.optimize.linprog``).

The design mirrors how an SMT solver is *used* in the paper — ``add``
constraints, ``check`` satisfiability, extract a model, optionally
``minimize`` an objective (for the CEM's minimal-change correction) — and
deliberately exhibits the same scaling behaviour: complete search over
per-time-step integer variables blows up combinatorially with the horizon,
which is exactly the §2.3 result the scalability benchmark reproduces.
The blow-up is a property of that search, not of the LP engine.
"""

from repro.smt.expr import (
    And,
    BoolExpr,
    BoolVar,
    Implies,
    IntVar,
    Ite,
    Not,
    NumExpr,
    Or,
    RealVar,
    Sum,
)
from repro.smt.milp import LinearConstraint, MilpProblem, MilpResult, Variable
from repro.smt.solver import CheckResult, Model, Solver

__all__ = [
    "NumExpr",
    "BoolExpr",
    "IntVar",
    "RealVar",
    "BoolVar",
    "And",
    "Or",
    "Not",
    "Implies",
    "Ite",
    "Sum",
    "Solver",
    "CheckResult",
    "Model",
    "MilpProblem",
    "MilpResult",
    "Variable",
    "LinearConstraint",
]
