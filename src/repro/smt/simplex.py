"""LP relaxations for the branch and bound, solved with HiGHS.

``solve_lp_scipy`` wraps ``scipy.optimize.linprog`` (``method="highs"``):
it solves ``min c·x`` subject to the problem's linear rows and variable
bounds, with optional per-variable bound overrides so branch and bound
can tighten the box without copying the problem.  The search above it
(:mod:`repro.smt.branch_bound`) is from scratch; the §2.3 blow-up comes
from that complete search, not from the LP engine.
"""

from __future__ import annotations

import numpy as np

from repro.smt.milp import MilpProblem, MilpResult


def solve_lp_scipy(
    problem: MilpProblem,
    lower_overrides: dict[int, float] | None = None,
    upper_overrides: dict[int, float] | None = None,
) -> MilpResult:
    """Solve the LP relaxation of ``problem`` under the bound overrides."""
    from scipy.optimize import linprog

    lower_overrides = lower_overrides or {}
    upper_overrides = upper_overrides or {}
    n = problem.num_variables
    c, rows, senses, rhs = problem.dense()
    if n == 0:
        # linprog rejects an empty cost vector; each row reads ``0 sense rhs``.
        holds = all(
            {"<=": b >= 0.0, ">=": b <= 0.0, "==": b == 0.0}[sense]
            for sense, b in zip(senses, rhs)
        )
        if not holds:
            return MilpResult(status="infeasible")
        return MilpResult(status="optimal", x=np.zeros(0), objective=0.0)
    a_ub, b_ub, a_eq, b_eq = [], [], [], []
    for row, sense, b in zip(rows, senses, rhs):
        if sense == "<=":
            a_ub.append(row)
            b_ub.append(b)
        elif sense == ">=":
            a_ub.append(-row)
            b_ub.append(-b)
        else:
            a_eq.append(row)
            b_eq.append(b)
    bounds = []
    for i, v in enumerate(problem.variables):
        lo = max(v.lo, lower_overrides.get(i, v.lo))
        hi = min(v.hi, upper_overrides.get(i, v.hi))
        if lo > hi:
            return MilpResult(status="infeasible")
        bounds.append((lo, hi))
    result = linprog(
        c,
        A_ub=np.array(a_ub) if a_ub else None,
        b_ub=np.array(b_ub) if b_ub else None,
        A_eq=np.array(a_eq) if a_eq else None,
        b_eq=np.array(b_eq) if b_eq else None,
        bounds=bounds,
        method="highs",
    )
    if result.status == 2:
        return MilpResult(status="infeasible")
    if result.status == 3:
        return MilpResult(status="unbounded")
    if not result.success:
        return MilpResult(status="iteration_limit")
    return MilpResult(status="optimal", x=result.x, objective=float(result.fun))
