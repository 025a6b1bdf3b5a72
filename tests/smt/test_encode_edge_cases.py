"""Edge cases for the big-M encoder: Ite nesting, constants, bounds."""

import pytest

from repro.smt import And, IntVar, Ite, Not, Or, RealVar, Solver, Sum
from repro.smt.expr import BoolConst


class TestIteNesting:
    def test_ite_inside_comparison(self):
        x = IntVar("x", 0, 5)
        s = Solver()
        s.add(Ite(x >= 2, x, 0) >= 3)
        result = s.check()
        assert result.is_sat
        assert result.model[x] >= 3

    def test_nested_ite(self):
        x = IntVar("x", 0, 10)
        tiers = Ite(x >= 7, 3, Ite(x >= 3, 2, 1))
        s = Solver()
        s.add(Sum([tiers]).eq(2))
        result = s.check()
        assert 3 <= result.model[x] <= 6

    def test_ite_with_real_branches(self):
        x = RealVar("x", 0, 1)
        s = Solver()
        s.add(Ite(x >= 0.5, 2.5, 1.5).eq(2.5), x <= 0.6)
        result = s.check()
        assert result.is_sat
        assert 0.5 <= result.model[x] <= 0.6

    def test_shared_ite_encoded_once(self):
        from repro.smt.encode import Encoder

        x = IntVar("x", 0, 5)
        cost = Ite(x >= 1, 1, 0)
        enc = Encoder()
        enc.assert_formula(Sum([cost, cost]) <= 2)
        ite_vars = [v for v in enc.problem.variables if v.name.startswith("__ite")]
        assert len(ite_vars) == 1


class TestConstantsAndTrivia:
    def test_true_constant(self):
        s = Solver()
        s.add(BoolConst(True))
        assert s.check().is_sat

    def test_false_constant(self):
        x = IntVar("x", 0, 1)
        s = Solver()
        s.add(x >= 0, BoolConst(False))
        assert s.check().status == "unsat"

    def test_false_constant_without_variables(self):
        s = Solver()
        s.add(BoolConst(False))
        assert s.check().status == "unsat"

    def test_negated_constant(self):
        s = Solver()
        s.add(Not(BoolConst(False)))
        assert s.check().is_sat

    def test_tight_bounds_single_point(self):
        x = IntVar("x", 3, 3)
        s = Solver()
        s.add(x >= 0)
        assert s.check().model[x] == 3

    def test_degenerate_or_single_arm(self):
        x = IntVar("x", 0, 5)
        s = Solver()
        s.add(Or(x >= 4))
        assert s.check().model[x] >= 4

    def test_empty_and_is_true(self):
        x = IntVar("x", 0, 5)
        s = Solver()
        s.add(And(), x >= 2)
        assert s.check().is_sat


class TestLargeCoefficients:
    def test_big_m_correctness_with_wide_bounds(self):
        x = IntVar("x", 0, 10_000)
        s = Solver()
        s.add(Or(x <= 10, x >= 9_990), x >= 11)
        result = s.check()
        assert result.model[x] >= 9_990

    def test_scaled_comparison(self):
        x = IntVar("x", 0, 100)
        s = Solver()
        s.add((0.5 * x) >= 10.2)
        result = s.minimize(x)
        assert result.model[x] == 21
