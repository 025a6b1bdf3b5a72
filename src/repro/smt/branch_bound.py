"""Branch-and-bound MILP solver over HiGHS LP relaxations.

Depth-first search branching on the most fractional integer variable,
pruning by LP bound against the incumbent.  Two budgets cap the search so
callers can observe "did not finish" — which is itself a datum this repo
cares about: the FM-only imputation experiment measures exactly where
complete search stops being tractable (§2.3).  ``node_limit`` bounds the
tree; ``deadline`` (a wall-clock :class:`~repro.resilience.budget.Budget`)
bounds elapsed time, giving the solve *anytime* behaviour — when it
expires the best incumbent found so far is returned with
``hit_deadline`` flagged instead of the search hanging.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from repro.resilience.budget import Budget
from repro.smt.milp import MilpProblem, MilpResult
from repro.smt.simplex import solve_lp_scipy

_INT_TOL = 1e-6


@dataclass
class BranchBoundStats:
    """Search statistics (reported by the scalability benchmarks)."""

    nodes_explored: int = 0
    nodes_pruned: int = 0
    incumbent_updates: int = 0
    hit_node_limit: bool = False
    hit_deadline: bool = False

    @property
    def timed_out(self) -> bool:
        """Did either budget (nodes or wall clock) cut the search short?"""
        return self.hit_node_limit or self.hit_deadline


def solve_milp(
    problem: MilpProblem,
    lp: Callable[..., MilpResult] = solve_lp_scipy,
    node_limit: int = 200_000,
    first_feasible: bool = False,
    deadline: Budget | None = None,
) -> tuple[MilpResult, BranchBoundStats]:
    """Solve a MILP by branch and bound.

    Args:
        problem: the MILP (minimisation).
        lp: the LP relaxation solver, with the ``solve_lp_scipy``
            signature; a test hook (the fault injectors pass a stalled
            one), not a choice of engine.
        node_limit: abort after exploring this many nodes; the result
            status becomes ``"node_limit"`` if no incumbent was found, or
            the incumbent is returned with ``hit_node_limit`` flagged.
        first_feasible: stop at the first integer-feasible solution —
            what an SMT ``check()`` (satisfiability only) needs.
        deadline: wall-clock budget checked before every node; on expiry
            the incumbent (if any) is returned with ``hit_deadline``
            flagged, otherwise the status becomes ``"deadline"``.  The
            check granularity is one LP solve, so overshoot is bounded by
            a single node's cost.
    """
    integer_indices = problem.integer_indices
    stats = BranchBoundStats()

    incumbent_x: Optional[np.ndarray] = None
    incumbent_obj = np.inf

    # Stack of (lower_overrides, upper_overrides); DFS.
    stack: list[tuple[dict[int, float], dict[int, float]]] = [({}, {})]

    while stack:
        if stats.nodes_explored >= node_limit:
            stats.hit_node_limit = True
            break
        if deadline is not None and deadline.expired():
            stats.hit_deadline = True
            break
        lower, upper = stack.pop()
        stats.nodes_explored += 1

        relaxation = lp(problem, lower_overrides=lower, upper_overrides=upper)
        if relaxation.status == "infeasible":
            stats.nodes_pruned += 1
            continue
        if relaxation.status == "unbounded":
            return MilpResult(status="unbounded"), stats
        if not relaxation.is_optimal:
            # LP trouble at this node: treat as pruned rather than crash.
            stats.nodes_pruned += 1
            continue
        if relaxation.objective is not None and relaxation.objective >= incumbent_obj - 1e-9:
            stats.nodes_pruned += 1
            continue

        x = relaxation.x
        fractional = [
            (abs(x[i] - round(x[i])), i)
            for i in integer_indices
            if abs(x[i] - round(x[i])) > _INT_TOL
        ]
        if not fractional:
            # Integer feasible.
            if relaxation.objective < incumbent_obj:
                incumbent_obj = relaxation.objective
                incumbent_x = np.array(
                    [round(x[i]) if i in set(integer_indices) else x[i] for i in range(len(x))]
                )
                stats.incumbent_updates += 1
                if first_feasible:
                    break
            continue

        # Branch on the most fractional variable.
        _, branch_var = max(fractional)
        value = x[branch_var]
        floor_val = float(np.floor(value))

        up_lower = dict(lower)
        up_lower[branch_var] = max(up_lower.get(branch_var, -np.inf), floor_val + 1.0)
        down_upper = dict(upper)
        down_upper[branch_var] = min(down_upper.get(branch_var, np.inf), floor_val)

        # Push the "down" branch last so it is explored first (DFS heuristic:
        # rounding down tends to be feasible for packet-count models).
        stack.append((up_lower, dict(upper)))
        stack.append((dict(lower), down_upper))

    if incumbent_x is None:
        if stats.hit_node_limit:
            status = "node_limit"
        elif stats.hit_deadline:
            status = "deadline"
        else:
            status = "infeasible"
        return MilpResult(status=status), stats
    return MilpResult(status="optimal", x=incumbent_x, objective=incumbent_obj), stats
