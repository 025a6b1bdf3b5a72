"""Z3-style solver facade over the encoder and branch-and-bound core."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Optional

import repro.obs as obs
from repro.resilience.budget import Budget, coerce_budget
from repro.smt.branch_bound import BranchBoundStats, solve_milp
from repro.smt.encode import Encoder
from repro.smt.expr import BoolExpr, NumExpr, Var


@dataclass
class Model:
    """A satisfying assignment for the user's variables."""

    _values: dict[int, float]  # id(Var) -> value
    _vars: dict[int, Var]

    def __getitem__(self, var: Var) -> float:
        try:
            value = self._values[id(var)]
        except KeyError:
            raise KeyError(f"variable {var!r} not present in the model") from None
        return round(value) if var.is_integer else value

    def values(self) -> dict[str, float]:
        """Assignment keyed by variable name (for reporting)."""
        return {v.name: self[v] for v in self._vars.values()}


@dataclass
class CheckResult:
    """Outcome of ``check()`` / ``minimize()``."""

    status: str  # "sat" | "unsat" | "unknown"
    model: Optional[Model] = None
    objective: Optional[float] = None
    solve_time: float = 0.0
    stats: BranchBoundStats = field(default_factory=BranchBoundStats)

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"

    @property
    def timed_out(self) -> bool:
        """Was the search cut short by its node or wall-clock budget?"""
        return self.stats.timed_out


class Solver:
    """Accumulates assertions; checks satisfiability or minimises.

    Mirrors the slice of the Z3 API the paper's system needs::

        s = Solver()
        s.add(x + y <= 5, Or(x >= 1, y >= 2))
        result = s.check()
        if result.is_sat:
            print(result.model[x])
    """

    def __init__(
        self,
        node_limit: int = 200_000,
        deadline: "float | Budget | None" = None,
    ):
        self.node_limit = node_limit
        # A float deadline starts a fresh Budget per solve (wall clock
        # measured from the check()/minimize() call); a Budget instance is
        # used as-is so tests can drive expiry with a fake clock.
        self.deadline = deadline
        self._assertions: list[BoolExpr] = []

    def add(self, *formulas: BoolExpr) -> None:
        """Assert one or more formulas."""
        for formula in formulas:
            if not isinstance(formula, BoolExpr):
                raise TypeError(f"can only assert boolean expressions, got {formula!r}")
            self._assertions.append(formula)

    def check(self) -> CheckResult:
        """Is the conjunction of assertions satisfiable?"""
        return self._solve(objective=None, first_feasible=True)

    def minimize(self, objective: NumExpr) -> CheckResult:
        """Find the assignment minimising ``objective`` (must be linear/Ite)."""
        return self._solve(objective=objective, first_feasible=False)

    # ------------------------------------------------------------------
    def _solve(self, objective: Optional[NumExpr], first_feasible: bool) -> CheckResult:
        with obs.span(
            "smt.solve",
            mode="check" if first_feasible else "minimize",
            assertions=len(self._assertions),
        ) as span:
            result = self._solve_inner(objective, first_feasible)
            span.annotate(
                status=result.status,
                nodes=result.stats.nodes_explored,
                timed_out=result.timed_out,
            )
            obs.counter("smt.solves").inc()
            obs.counter("smt.nodes_explored").inc(result.stats.nodes_explored)
            if result.stats.hit_deadline:
                obs.counter("smt.deadline_hits").inc()
            if result.stats.hit_node_limit:
                obs.counter("smt.node_limit_hits").inc()
            return result

    def _solve_inner(
        self, objective: Optional[NumExpr], first_feasible: bool
    ) -> CheckResult:
        encoder = Encoder()
        for formula in self._assertions:
            encoder.assert_formula(formula)
        if objective is not None:
            affine = encoder.encode_num(objective)
            encoder.problem.set_objective(dict(affine.coeffs))

        start = time.perf_counter()
        result, stats = solve_milp(
            encoder.problem,
            node_limit=self.node_limit,
            first_feasible=first_feasible,
            deadline=coerce_budget(self.deadline),
        )
        elapsed = time.perf_counter() - start

        if result.status == "optimal":
            values = {
                var_id: float(result.x[index])
                for var_id, (_, index) in encoder._var_index.items()
            }
            user_vars = {
                var_id: var
                for var_id, var in _collect_vars(self._assertions, objective).items()
            }
            model = Model(values, user_vars)
            objective_value = result.objective if objective is not None else None
            return CheckResult(
                status="sat",
                model=model,
                objective=objective_value,
                solve_time=elapsed,
                stats=stats,
            )
        if result.status == "infeasible":
            return CheckResult(status="unsat", solve_time=elapsed, stats=stats)
        return CheckResult(status="unknown", solve_time=elapsed, stats=stats)


def _collect_vars(
    formulas: list[BoolExpr], objective: Optional[NumExpr]
) -> dict[int, Var]:
    """Gather every Var reachable from the assertions and objective."""
    from repro.smt.expr import Add, And, Cmp, Ite, Not, Or, Scale

    found: dict[int, Var] = {}

    def walk_num(expr) -> None:
        if isinstance(expr, Var):
            found[id(expr)] = expr
        elif isinstance(expr, Add):
            for term in expr.terms:
                walk_num(term)
        elif isinstance(expr, Scale):
            walk_num(expr.child)
        elif isinstance(expr, Ite):
            walk_bool(expr.cond)
            walk_num(expr.then)
            walk_num(expr.orelse)

    def walk_bool(expr) -> None:
        if isinstance(expr, Cmp):
            walk_num(expr.lhs)
        elif isinstance(expr, (And, Or)):
            for arg in expr.args:
                walk_bool(arg)
        elif isinstance(expr, Not):
            walk_bool(expr.arg)

    for formula in formulas:
        walk_bool(formula)
    if objective is not None:
        walk_num(objective)
    return found
