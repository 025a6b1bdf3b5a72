"""Tests for the solver facade: encoding, check, minimize, models."""

import pytest

from repro.smt import And, BoolVar, Implies, IntVar, Ite, Not, Or, RealVar, Solver, Sum
from repro.smt.branch_bound import solve_milp
from repro.smt.encode import Encoder
from repro.smt.milp import MilpProblem


class TestCheck:
    def test_sat_with_model(self):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(x >= 3, x <= 5)
        result = s.check()
        assert result.is_sat
        assert 3 <= result.model[x] <= 5

    def test_unsat(self):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(x >= 6, x <= 5)
        assert s.check().status == "unsat"

    def test_disjunction(self):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(Or(x <= 1, x >= 9), x >= 2)
        result = s.check()
        assert result.is_sat
        assert result.model[x] >= 9

    def test_negation(self):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(Not(x <= 4))
        assert s.check().model[x] >= 5

    def test_strict_inequalities_integers(self):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(x > 3, x < 5)
        assert s.check().model[x] == 4

    def test_equality(self):
        x = IntVar("x", 0, 10)
        y = IntVar("y", 0, 10)
        s = Solver()
        s.add((x + y).eq(7), x.eq(2))
        result = s.check()
        assert result.model[y] == 5

    def test_implication_chain(self):
        x = IntVar("x", 0, 10)
        y = IntVar("y", 0, 10)
        s = Solver()
        s.add(Implies(x >= 5, y >= 5), Implies(y >= 5, y <= 3) if False else y <= 10, x >= 5)
        result = s.check()
        assert result.model[y] >= 5

    def test_nested_boolean_structure(self):
        a = IntVar("a", 0, 3)
        b = IntVar("b", 0, 3)
        s = Solver()
        s.add(And(Or(a.eq(0), b.eq(0)), Not(And(a.eq(0), b.eq(0)))), (a + b).eq(3))
        result = s.check()
        values = (result.model[a], result.model[b])
        assert 0 in values and 3 in values

    def test_bool_vars(self):
        p = BoolVar("p")
        x = IntVar("x", 0, 5)
        s = Solver()
        s.add(Or(p, x >= 4), Not(p))
        assert s.check().model[x] >= 4

    def test_add_rejects_non_boolean(self):
        s = Solver()
        with pytest.raises(TypeError):
            s.add(IntVar("x", 0, 1))

    def test_model_unknown_var_raises(self):
        x = IntVar("x", 0, 1)
        y = IntVar("y", 0, 1)
        s = Solver()
        s.add(x >= 0)
        result = s.check()
        with pytest.raises(KeyError):
            result.model[y]


class TestIte:
    def test_ite_value_tracks_condition(self):
        x = IntVar("x", 0, 5)
        cost = Ite(x >= 3, 10, 1)
        s = Solver()
        s.add(x.eq(4), Sum([cost]).eq(10))
        assert s.check().is_sat
        s2 = Solver()
        s2.add(x.eq(1), Sum([cost2 := Ite(x >= 3, 10, 1)]).eq(10))
        assert s2.check().status == "unsat"

    def test_sum_of_indicators(self):
        xs = [IntVar(f"x{i}", 0, 3) for i in range(4)]
        count = Sum(Ite(x > 0, 1, 0) for x in xs)
        s = Solver()
        s.add(count.eq(2), Sum(xs).eq(5))
        result = s.check()
        assert result.is_sat
        values = [result.model[x] for x in xs]
        assert sum(v > 0 for v in values) == 2
        assert sum(values) == 5


class TestMinimize:
    def test_linear_objective(self):
        x = IntVar("x", 0, 10)
        y = IntVar("y", 0, 10)
        s = Solver()
        s.add(x + y >= 7)
        result = s.minimize(3 * x + y)
        assert result.objective == pytest.approx(7.0)
        assert result.model[x] == 0

    def test_minimize_with_disjunction(self):
        x = IntVar("x", 0, 100)
        s = Solver()
        s.add(Or(x >= 10, x >= 40))
        result = s.minimize(x)
        assert result.objective == pytest.approx(10.0)

    def test_minimize_abs_via_aux(self):
        x = RealVar("x", -10, 10)
        d = RealVar("d", 0, 20)
        s = Solver()
        s.add(d >= x - 3, d >= 3 - x, x >= 5)
        result = s.minimize(d)
        assert result.objective == pytest.approx(2.0)

    def test_integer_rounding_in_milp(self):
        x = IntVar("x", 0, 10)
        s = Solver()
        s.add(2 * x >= 5)  # LP relax gives 2.5; integer optimum is 3
        result = s.minimize(x)
        assert result.model[x] == 3


class TestBranchBoundInternals:
    def test_node_limit_reported(self):
        p = MilpProblem()
        xs = [p.add_variable(f"x{i}", 0, 1, is_integer=True) for i in range(12)]
        # A knapsack-ish equality that forces branching.
        p.add_constraint({x: 2.0 for x in xs}, "==", 11.0)  # odd: infeasible
        result, stats = solve_milp(p, node_limit=5)
        assert result.status in ("node_limit", "infeasible")
        if result.status == "node_limit":
            assert stats.hit_node_limit

    def test_first_feasible_stops_early(self):
        p = MilpProblem()
        xs = [p.add_variable(f"x{i}", 0, 5, is_integer=True) for i in range(3)]
        p.add_constraint({x: 1.0 for x in xs}, ">=", 4.0)
        p.set_objective({xs[0]: 1.0})
        full, _ = solve_milp(p, first_feasible=False)
        quick, _ = solve_milp(p, first_feasible=True)
        assert full.status == "optimal"
        assert quick.status == "optimal"
        assert full.objective <= quick.objective + 1e-9


class TestEncoderShortcuts:
    def test_asserted_cmp_adds_no_binaries(self):
        x = IntVar("x", 0, 5)
        enc = Encoder()
        enc.assert_formula(And(x >= 1, x <= 4))
        assert all(not v.name.startswith("__b") for v in enc.problem.variables)

    def test_or_introduces_binaries(self):
        x = IntVar("x", 0, 5)
        enc = Encoder()
        enc.assert_formula(Or(x >= 1, x <= 0))
        assert any(v.name.startswith("__b") for v in enc.problem.variables)

    def test_memoisation_reuses_subexpressions(self):
        x = IntVar("x", 0, 5)
        atom = x >= 2
        enc = Encoder()
        enc.assert_formula(Or(atom, And(atom, x <= 4)))
        names = [v.name for v in enc.problem.variables if "ge" in v.name]
        assert len(names) == 1  # the shared atom is encoded once
