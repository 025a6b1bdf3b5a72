"""Exhaustive cross-validation of the SMT-lite solver.

For random small formulas over tiny integer domains, enumerate every
assignment by brute force and compare against the solver's verdict — the
strongest correctness check available without a reference SMT solver.
"""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.smt import And, IntVar, Ite, Not, Or, Solver, Sum
from repro.smt.expr import (
    Add,
    BoolExpr,
    Cmp,
    Const,
    Ite as IteExpr,
    NumExpr,
    Scale,
    Var,
)


def eval_num(expr: NumExpr, assignment: dict) -> float:
    if isinstance(expr, Const):
        return expr.value
    if isinstance(expr, Var):
        return assignment[id(expr)]
    if isinstance(expr, Add):
        return sum(eval_num(t, assignment) for t in expr.terms)
    if isinstance(expr, Scale):
        return expr.coeff * eval_num(expr.child, assignment)
    if isinstance(expr, IteExpr):
        return (
            eval_num(expr.then, assignment)
            if eval_bool(expr.cond, assignment)
            else eval_num(expr.orelse, assignment)
        )
    raise TypeError(expr)


def eval_bool(expr: BoolExpr, assignment: dict) -> bool:
    if isinstance(expr, Cmp):
        value = eval_num(expr.lhs, assignment)
        return {
            "le": value <= 1e-9,
            "ge": value >= -1e-9,
            "lt": value < -1e-9,
            "gt": value > 1e-9,
            "eq": abs(value) <= 1e-9,
        }[expr.op]
    if isinstance(expr, And):
        return all(eval_bool(a, assignment) for a in expr.args)
    if isinstance(expr, Or):
        return any(eval_bool(a, assignment) for a in expr.args)
    if isinstance(expr, Not):
        return not eval_bool(expr.arg, assignment)
    raise TypeError(expr)


def random_formula(rng: np.random.Generator, variables: list[IntVar], depth: int = 0):
    """Build a random boolean formula over the given variables."""
    if depth >= 2 or rng.random() < 0.4:
        coeffs = [int(rng.integers(-2, 3)) for _ in variables]
        expr = Sum(c * v for c, v in zip(coeffs, variables))
        if rng.random() < 0.3:
            expr = expr + Ite(variables[0] >= 1, 1, 0)
        rhs = int(rng.integers(-3, 6))
        op = rng.choice(["le", "ge", "eq"])
        if op == "le":
            return expr <= rhs
        if op == "ge":
            return expr >= rhs
        return expr.eq(rhs)
    kind = rng.choice(["and", "or", "not"])
    if kind == "not":
        return Not(random_formula(rng, variables, depth + 1))
    parts = [random_formula(rng, variables, depth + 1) for _ in range(2)]
    return And(*parts) if kind == "and" else Or(*parts)


class TestBruteForce:
    @given(st.integers(0, 20_000))
    @settings(max_examples=40, deadline=None)
    def test_verdict_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        domains = [int(rng.integers(1, 4)) for _ in range(3)]
        variables = [IntVar(f"x{i}", 0, d) for i, d in enumerate(domains)]
        formulas = [random_formula(rng, variables) for _ in range(int(rng.integers(1, 4)))]

        brute_sat = any(
            all(
                eval_bool(f, dict(zip(map(id, variables), values)))
                for f in formulas
            )
            for values in itertools.product(*(range(d + 1) for d in domains))
        )

        solver = Solver()
        solver.add(*formulas)
        result = solver.check()
        assert result.status in ("sat", "unsat")
        assert (result.status == "sat") == brute_sat

        if result.is_sat:
            # The returned model must actually satisfy every formula.
            assignment = {id(v): result.model[v] for v in variables}
            for f in formulas:
                assert eval_bool(f, assignment)

    @given(st.integers(0, 20_000))
    @settings(max_examples=20, deadline=None)
    def test_minimize_matches_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        variables = [IntVar(f"x{i}", 0, 3) for i in range(2)]
        formula = random_formula(rng, variables)
        objective_coeffs = [int(rng.integers(-3, 4)) for _ in variables]
        objective = Sum(c * v for c, v in zip(objective_coeffs, variables))

        best = None
        for values in itertools.product(range(4), range(4)):
            assignment = dict(zip(map(id, variables), values))
            if eval_bool(formula, assignment):
                score = sum(c * v for c, v in zip(objective_coeffs, values))
                best = score if best is None else min(best, score)

        solver = Solver()
        solver.add(formula)
        result = solver.minimize(objective)
        if best is None:
            assert result.status == "unsat"
        else:
            assert result.is_sat
            assert result.objective == pytest.approx(best, abs=1e-6)
