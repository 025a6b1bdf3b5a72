"""Tests for the HiGHS LP relaxation solver under the branch and bound."""

import pytest

from repro.smt.milp import MilpProblem
from repro.smt.simplex import solve_lp_scipy


def two_var_problem():
    p = MilpProblem()
    x = p.add_variable("x", 0, 10)
    y = p.add_variable("y", 0, 10)
    return p, x, y


class TestSolveLp:
    def test_simple_minimisation(self):
        p, x, y = two_var_problem()
        p.add_constraint({x: 1.0, y: 1.0}, ">=", 4.0)
        p.set_objective({x: 1.0, y: 2.0})
        result = solve_lp_scipy(p)
        assert result.is_optimal
        assert result.objective == pytest.approx(4.0)
        assert result.x[x] == pytest.approx(4.0)

    def test_equality_constraint(self):
        p, x, y = two_var_problem()
        p.add_constraint({x: 1.0, y: 1.0}, "==", 6.0)
        p.set_objective({x: -1.0})
        result = solve_lp_scipy(p)
        assert result.is_optimal
        assert result.x[x] == pytest.approx(6.0)

    def test_infeasible(self):
        p, x, _ = two_var_problem()
        p.add_constraint({x: 1.0}, ">=", 20.0)  # above the upper bound
        result = solve_lp_scipy(p)
        assert result.status == "infeasible"

    def test_nonzero_lower_bounds(self):
        p = MilpProblem()
        x = p.add_variable("x", 3, 8)
        p.set_objective({x: 1.0})
        result = solve_lp_scipy(p)
        assert result.x[x] == pytest.approx(3.0)

    def test_negative_bounds(self):
        p = MilpProblem()
        x = p.add_variable("x", -5, 5)
        p.set_objective({x: 1.0})
        result = solve_lp_scipy(p)
        assert result.x[x] == pytest.approx(-5.0)

    def test_bound_overrides(self):
        p, x, _ = two_var_problem()
        p.set_objective({x: -1.0})
        result = solve_lp_scipy(p, upper_overrides={x: 7.0})
        assert result.x[x] == pytest.approx(7.0)

    def test_empty_override_box_infeasible(self):
        p, x, _ = two_var_problem()
        result = solve_lp_scipy(p, lower_overrides={x: 6.0}, upper_overrides={x: 5.0})
        assert result.status == "infeasible"

    def test_degenerate_constraints_terminate(self):
        """A chain of degenerate rows still solves to optimal."""
        p = MilpProblem()
        xs = [p.add_variable(f"x{i}", 0, 1) for i in range(4)]
        for i in range(3):
            p.add_constraint({xs[i]: 1.0, xs[i + 1]: -1.0}, "<=", 0.0)
        p.set_objective({xs[0]: -1.0, xs[3]: 1.0})
        result = solve_lp_scipy(p)
        assert result.is_optimal

    def test_no_variables_constant_rows_hold(self):
        p = MilpProblem()
        p.add_constraint({}, "<=", 1.0)
        p.add_constraint({}, "==", 0.0)
        result = solve_lp_scipy(p)
        assert result.is_optimal
        assert result.x.shape == (0,)
        assert result.objective == 0.0

    def test_no_variables_violated_constant_row_infeasible(self):
        p = MilpProblem()
        p.add_constraint({}, ">=", 1.0)
        assert solve_lp_scipy(p).status == "infeasible"
