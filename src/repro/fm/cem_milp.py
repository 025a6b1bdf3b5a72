"""Reference MILP formulation of the CEM projection (§3.2).

The paper's CEM is an optimisation query to Z3: minimise the L1 change to
the transformer's output subject to C1–C3.  This module states that exact
problem over the SMT-lite solver, serving two purposes:

* it *is* the paper's CEM, stated declaratively (the fast combinatorial
  projection in :mod:`repro.imputation.cem` is validated against it), and
* its running time on growing windows quantifies what the paper observes:
  a solver-based CEM is tractable (seconds) because the constraints do
  not require per-time-step switch state — unlike the full FM model.

Formulation, per window (queues Q, bins T, intervals I):

* continuous ``q[k,t] ∈ [0, m_max[k, interval(t)]]`` — C1's upper half and
  non-negativity are baked into the bounds;
* ``q[k,t] = m_sample`` at sampled bins (C2);
* per queue×interval, a disjunction ``Or_t (q[k,t] >= m_max)`` — the max
  must be attained (C1's lower half);
* binary ``z[p,t]`` with ``q[k,t] <= bound * z[p,t]`` for the port's
  queues and ``sum_t z[p,t] <= m_sent[p,i]`` per interval (C3: a bin can
  only be non-empty if one of the port's sent-count credits covers it);
* objective ``min Σ d[k,t]`` over non-sampled bins with
  ``d >= q - q̂`` and ``d >= q̂ - q``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

import repro.obs as obs
from repro.smt.expr import Or, RealVar, Sum
from repro.smt.solver import Solver
from repro.switchsim.switch import SwitchConfig
from repro.telemetry.dataset import ImputationSample


@dataclass
class MilpCemResult:
    """Outcome of the MILP CEM solve."""

    status: str
    corrected: Optional[np.ndarray]
    objective: Optional[float]
    solve_time: float
    nodes_explored: int
    timed_out: bool = False  # search cut short; ``corrected`` (when set)
    # is the best incumbent found within budget, not a proven optimum


class MilpCem:
    """Solver-based minimal-change constraint enforcement.

    ``deadline`` bounds each ``enforce`` call's wall clock: on expiry the
    best incumbent projection found so far is returned with
    ``timed_out=True`` (anytime behaviour) instead of the optimisation
    running unbounded.
    """

    def __init__(
        self,
        config: SwitchConfig,
        node_limit: int = 100_000,
        deadline: float | None = None,
    ):
        self.config = config
        self.node_limit = node_limit
        self.deadline = deadline

    def enforce(self, imputed: np.ndarray, sample: ImputationSample) -> MilpCemResult:
        """Solve the projection; returns the corrected series when optimal."""
        with obs.span("cem.milp.enforce") as span:
            result = self._enforce(imputed, sample)
            span.annotate(
                status=result.status, nodes=result.nodes_explored,
                timed_out=result.timed_out,
            )
            obs.counter("cem.milp.solves").inc()
            obs.counter("cem.milp.nodes_explored").inc(result.nodes_explored)
            if result.timed_out:
                obs.counter("cem.milp.timeouts").inc()
            return result

    def _enforce(self, imputed: np.ndarray, sample: ImputationSample) -> MilpCemResult:
        imputed = np.asarray(imputed, dtype=float)
        Q, T = imputed.shape
        interval = sample.interval
        I = sample.num_intervals
        sampled = np.zeros(T, dtype=bool)
        sampled[sample.sample_positions] = True

        solver = Solver(node_limit=self.node_limit, deadline=self.deadline)

        # Queue-length variables with C1-upper baked into bounds.
        q_vars: list[list[RealVar]] = []
        for k in range(Q):
            row = []
            for t in range(T):
                hi = float(sample.m_max[k, t // interval])
                row.append(RealVar(f"q_{k}_{t}", 0.0, hi))
            q_vars.append(row)

        constraints = []
        objective_terms = []

        # C2: pin sampled bins.
        for k in range(Q):
            for i, pos in enumerate(sample.sample_positions):
                constraints.append(q_vars[k][pos].eq(float(sample.m_sample[k, i])))

        # C1 lower half: the max must be attained somewhere in the interval.
        for k in range(Q):
            for i in range(I):
                peak = float(sample.m_max[k, i])
                if peak <= 0:
                    continue
                span = range(i * interval, (i + 1) * interval)
                constraints.append(Or([q_vars[k][t] >= peak for t in span]))

        # C3: busy-bin credits against the sent count.
        from repro.smt.expr import IntVar

        for port in range(self.config.num_ports):
            queues = list(self.config.queues_of_port(port))
            z = [IntVar(f"z_{port}_{t}", 0, 1) for t in range(T)]
            for t in range(T):
                for k in queues:
                    bound = float(sample.m_max[k, t // interval])
                    if bound > 0:
                        constraints.append(q_vars[k][t] - bound * z[t] <= 0)
            for i in range(I):
                span = range(i * interval, (i + 1) * interval)
                constraints.append(
                    Sum(z[t] for t in span) <= float(sample.m_sent[port, i])
                )

        # Objective: L1 distance on non-sampled bins.
        for k in range(Q):
            for t in range(T):
                if sampled[t]:
                    continue
                hi = float(sample.m_max[k, t // interval])
                d = RealVar(f"d_{k}_{t}", 0.0, max(hi, imputed[k, t]) + abs(imputed[k, t]))
                constraints.append(d - q_vars[k][t] >= -imputed[k, t])
                constraints.append(d + q_vars[k][t] >= imputed[k, t])
                objective_terms.append(d)

        solver.add(*constraints)
        result = solver.minimize(Sum(objective_terms))

        corrected = None
        if result.is_sat:
            corrected = np.array(
                [[result.model[q_vars[k][t]] for t in range(T)] for k in range(Q)]
            )
        return MilpCemResult(
            status=result.status,
            corrected=corrected,
            objective=result.objective,
            solve_time=result.solve_time,
            nodes_explored=result.stats.nodes_explored,
            timed_out=result.timed_out,
        )
