"""Budget: expiry semantics, coercion, and anytime branch-and-bound."""

from __future__ import annotations

import time

import pytest

from repro.resilience import Budget, coerce_budget
from repro.resilience.faults import SteppingClock, stalling_lp
from repro.smt import IntVar, Or, Solver
from repro.smt.branch_bound import solve_milp
from repro.smt.encode import Encoder


class TestBudget:
    def test_fake_clock_expiry_is_deterministic(self):
        # SteppingClock: construction reads 0.0, then 1.0, 2.0, 3.0, ...
        budget = Budget(3.0, clock=SteppingClock(step=1.0))
        assert budget.elapsed() == 1.0  # reading 1
        assert budget.remaining() == 1.0  # reading 2: 3.0 - 2.0
        assert budget.expired()  # reading 3: remaining hits exactly 0

    def test_not_expired_before_deadline(self):
        budget = Budget(10.0, clock=SteppingClock(step=1.0))
        assert not budget.expired()
        assert not budget.expired()
        assert budget.remaining() > 0

    def test_unlimited_never_expires(self):
        budget = Budget.unlimited()
        assert budget.remaining() == float("inf")
        assert not budget.expired()

    def test_nonpositive_seconds_rejected(self):
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError):
                Budget(bad)

    def test_coerce_budget(self):
        assert coerce_budget(None) is None
        ready = Budget(5.0, clock=SteppingClock())
        assert coerce_budget(ready) is ready
        fresh = coerce_budget(0.5)
        assert isinstance(fresh, Budget)
        assert fresh.seconds == 0.5


def _knapsack_problem():
    """A 0/1 cover whose DFS finds an incumbent before proving optimality."""
    xs = [IntVar(f"x{i}", 0, 1) for i in range(4)]
    encoder = Encoder()
    encoder.assert_formula(xs[0] * 3 + xs[1] * 5 + xs[2] * 7 + xs[3] * 4 >= 11)
    affine = encoder.encode_num(xs[0] + xs[1] + xs[2] + xs[3])
    encoder.problem.set_objective(dict(affine.coeffs))
    return encoder.problem


class TestAnytimeBranchBound:
    def test_deadline_returns_best_incumbent_with_flag(self):
        problem = _knapsack_problem()
        # Calibrate deterministically: nodes to the first incumbent, and
        # total nodes for the complete search.
        first, stats_first = solve_milp(problem, first_feasible=True)
        full, stats_full = solve_milp(problem)
        assert first.status == "optimal" and full.status == "optimal"
        nodes_to_first = stats_first.nodes_explored
        assert nodes_to_first < stats_full.nodes_explored  # search continues past it

        # One deadline reading per node: expire right after the incumbent.
        budget = Budget(nodes_to_first + 0.5, clock=SteppingClock(step=1.0))
        result, stats = solve_milp(problem, deadline=budget)
        assert stats.hit_deadline
        assert stats.timed_out
        assert result.status == "optimal"  # the incumbent, not a failure
        assert result.x is not None
        assert result.objective >= full.objective  # anytime: no better than optimal

    def test_expired_deadline_without_incumbent_reports_deadline(self):
        problem = _knapsack_problem()
        budget = Budget(0.5, clock=SteppingClock(step=1.0))  # expires at check 1
        result, stats = solve_milp(problem, deadline=budget)
        assert result.status == "deadline"
        assert stats.hit_deadline and stats.nodes_explored == 0

    def test_no_deadline_is_exhaustive(self):
        result, stats = solve_milp(_knapsack_problem())
        assert not stats.hit_deadline
        assert not stats.timed_out


class TestSolverDeadline:
    def _solver(self, **kwargs):
        x = IntVar("x", 0, 10)
        y = IntVar("y", 0, 10)
        s = Solver(**kwargs)
        s.add(Or(x >= 6, y >= 6), x + y <= 12)
        return s, x, y

    def test_generous_deadline_solves_normally(self):
        s, x, y = self._solver(deadline=60.0)
        result = s.minimize(x + y)
        assert result.is_sat
        assert not result.timed_out
        assert result.objective == pytest.approx(6)

    def test_pre_expired_budget_is_unknown_and_timed_out(self):
        s, x, y = self._solver(deadline=Budget(0.001, clock=SteppingClock(step=1.0)))
        result = s.minimize(x + y)
        assert result.status == "unknown"
        assert result.timed_out

    def test_float_deadline_starts_fresh_per_solve(self):
        s, x, y = self._solver(deadline=5.0)
        assert s.check().is_sat
        second = s.check()  # a shared Budget would be partly spent; a float restarts
        assert second.is_sat and not second.timed_out

    def test_stalled_solver_respects_wall_clock_within_2x(self):
        """Acceptance: a budgeted solve returns within twice its deadline.

        Every LP solve stalls 0.08 s, so the full 5-node search needs
        ~0.4 s; the 0.2 s budget must cut it short with the incumbent
        (found at node 2), overshooting by at most one node's cost.
        """
        deadline = 0.2
        start = time.perf_counter()
        result, stats = solve_milp(
            _knapsack_problem(),
            lp=stalling_lp(0.08),
            deadline=Budget(deadline),
        )
        elapsed = time.perf_counter() - start
        assert stats.hit_deadline and stats.timed_out
        assert result.status == "optimal" and result.x is not None
        assert elapsed < 2 * deadline
