"""The full FM switch model of §2.3: telemetry imputation by complete search.

Time is discretised into *packet time steps* (the time to transmit or
receive one packet).  For every step ``t`` and queue ``q`` the model has
integer variables

* ``arr[q,t]``  — packets arriving for ``q`` (bounded by the input fan-in),
* ``enq[q,t]``  — packets admitted (``arr − enq`` are dropped),
* ``deq[q,t]``  — 0/1, one dequeue per output port per step,
* ``len[q,t]``  — queue length after departures,

linked by the paper's operational constraints: the unbounded length
``pkts∞ = len[t−1] + arr[t]`` is truncated by buffer admission (drops
occur only when the shared buffer is exhausted — the α→∞ limit of the
Dynamic-Threshold rule; the paper's "dynamically calculated threshold"
appears here as the shared-buffer bound), the scheduler is
work-conserving, and at most one packet leaves a port per step.
Measurement constraints pin per-interval SNMP counts (received / sent /
dropped per port), the LANZ per-interval maximum (the max must be reached
*somewhere* in the interval — a disjunction), and the periodic samples.

Solving the conjunction with the branch-and-bound core yields a plausible
fine-grained series — and, exactly as §2.3 reports for Z3, the search
blows up combinatorially as the horizon grows, because the solver must
distinguish scenarios (e.g. different packet inter-arrival gaps) that have
identical effects on the queue-length series.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.smt.expr import And, BoolExpr, Implies, IntVar, Or, Sum
from repro.smt.solver import CheckResult, Solver
from repro.switchsim.simulation import SimulationTrace
from repro.utils.validation import check_positive


@dataclass
class FMScenario:
    """Inputs of the FM imputation problem.

    All measurement arrays are per coarse interval of ``steps_per_interval``
    packet time steps; the horizon is ``num_intervals * steps_per_interval``
    steps.  ``initial_len`` gives queue lengths just before step 0.

    ``alpha`` selects the buffer-management model: ``None`` (default) is
    the α→∞ limit — drops only at a full buffer.  A tuple of per-class
    rationals ``((p, q), ...)`` (meaning α = p/q) enables Dynamic-Threshold
    admission constraints: a *sound aggregate relaxation* of the
    simulator's sequential per-packet rule — every real DT trace satisfies
    them (drops imply the queue reached its threshold; admissions imply it
    started below it), though not every satisfying scenario is replayable
    packet by packet.  This is the paper's over-approximation philosophy
    (§3) applied to the buffer-management constraints of §2.3.
    """

    num_ports: int
    queues_per_port: int
    buffer_capacity: int
    fan_in: int  # input ports: max packets arriving per step (switch-wide)
    steps_per_interval: int
    m_received: np.ndarray  # (P, I)
    m_sent: np.ndarray  # (P, I)
    m_dropped: np.ndarray  # (P, I)
    m_max: np.ndarray  # (Q, I)
    m_sample: np.ndarray  # (Q, I) instantaneous length at each interval end
    initial_len: np.ndarray  # (Q,)
    alpha: tuple[tuple[int, int], ...] | None = None  # per-class (p, q) or None

    @property
    def num_queues(self) -> int:
        return self.num_ports * self.queues_per_port

    @property
    def num_intervals(self) -> int:
        return self.m_sent.shape[1]

    @property
    def horizon(self) -> int:
        return self.num_intervals * self.steps_per_interval

    def queues_of_port(self, port: int) -> range:
        start = port * self.queues_per_port
        return range(start, start + self.queues_per_port)


@dataclass
class FMResult:
    """Outcome of an FM imputation solve."""

    status: str  # "sat" | "unsat" | "unknown"
    qlen: Optional[np.ndarray]  # (Q, T) when sat
    solve_time: float
    nodes_explored: int
    hit_node_limit: bool
    timed_out: bool = False  # node or wall-clock budget cut the search short

    @property
    def is_sat(self) -> bool:
        return self.status == "sat"


class FMImputer:
    """Builds and solves the full per-time-step switch model.

    ``deadline`` (seconds of wall clock per solve) is the anytime budget
    the paper's scalability story needs: the combinatorial search is
    *expected* to blow up at realistic horizons (§2.3), so a bounded
    solve must return with ``timed_out=True`` rather than hang.  It
    complements ``node_limit``, whose per-node cost varies too much with
    problem size to bound elapsed time.
    """

    def __init__(
        self,
        node_limit: int = 50_000,
        deadline: float | None = None,
    ):
        self.node_limit = node_limit
        self.deadline = deadline

    # ------------------------------------------------------------------
    # Model construction
    # ------------------------------------------------------------------
    def build(self, scenario: FMScenario) -> tuple[Solver, list[list[IntVar]]]:
        """Encode the scenario; returns the solver and the len[q][t] vars."""
        s = scenario
        check_positive("steps_per_interval", s.steps_per_interval)
        T = s.horizon
        Q = s.num_queues
        B = s.buffer_capacity

        if s.alpha is not None:
            if len(s.alpha) != s.queues_per_port:
                raise ValueError(
                    f"need one (p, q) alpha per class: got {len(s.alpha)} for "
                    f"{s.queues_per_port} classes"
                )
            for p_num, p_den in s.alpha:
                if p_num <= 0 or p_den <= 0:
                    raise ValueError(f"alpha rationals must be positive, got {s.alpha}")

        solver = Solver(node_limit=self.node_limit, deadline=self.deadline)

        arr = [[IntVar(f"arr_{q}_{t}", 0, s.fan_in) for t in range(T)] for q in range(Q)]
        enq = [[IntVar(f"enq_{q}_{t}", 0, s.fan_in) for t in range(T)] for q in range(Q)]
        deq = [[IntVar(f"deq_{q}_{t}", 0, 1) for t in range(T)] for q in range(Q)]
        length = [[IntVar(f"len_{q}_{t}", 0, B) for t in range(T)] for q in range(Q)]

        constraints: list[BoolExpr] = []

        for t in range(T):
            # Input line rate: the switch cannot receive more packets per
            # step than it has input ports.
            constraints.append(Sum(arr[q][t] for q in range(Q)) <= s.fan_in)
            # Shared buffer bound on the pre-departure occupancy (admission
            # happens before departures); post-departure occupancy is then
            # bounded a fortiori.
            constraints.append(
                Sum(
                    (length[q][t - 1] if t > 0 else int(s.initial_len[q])) + enq[q][t]
                    for q in range(Q)
                )
                <= B
            )

            for q in range(Q):
                prev = length[q][t - 1] if t > 0 else int(s.initial_len[q])
                # Admission: cannot enqueue more than arrived.
                constraints.append(enq[q][t] <= arr[q][t])
                # Queue recurrence: len = prev + enq - deq.
                constraints.append(length[q][t].eq(prev + enq[q][t] - deq[q][t]))
                # No dequeue from an empty queue.
                constraints.append(deq[q][t] <= prev + enq[q][t])
                if s.alpha is None:
                    # Drops only when the shared buffer is exhausted (the
                    # α→∞ Dynamic-Threshold limit): a dropped packet implies
                    # the buffer was full after this step's arrivals,
                    # *before* departures (departures in the same step may
                    # then free space, so the post-departure occupancy can
                    # be below B).
                    constraints.append(
                        Implies(
                            arr[q][t] - enq[q][t] >= 1,
                            Sum(
                                (length[p][t - 1] if t > 0 else int(s.initial_len[p]))
                                + enq[p][t]
                                for p in range(Q)
                            )
                            >= B,
                        )
                    )
                else:
                    # Sound aggregate Dynamic-Threshold constraints.  With
                    # sequential admission inside a step, a queue that
                    # drops keeps dropping (occupancy only grows during
                    # arrivals), so at drop time its length equals the
                    # post-arrival length and the then-occupancy is at
                    # most the post-arrival occupancy:
                    #   drop  ⟹  q·(len_pre+enq) ≥ p·(B − occ_post)
                    # and the queue's first admission of the step happened
                    # at pre-arrival state, below threshold:
                    #   enq>0 ⟹  q·len_pre ≤ p·(B − occ_pre) − 1
                    # (α = p/q scaled to integers).
                    p_num, p_den = s.alpha[q % s.queues_per_port]
                    occ_pre = Sum(
                        length[j][t - 1] if t > 0 else int(s.initial_len[j])
                        for j in range(Q)
                    )
                    occ_post = Sum(
                        (length[j][t - 1] if t > 0 else int(s.initial_len[j]))
                        + enq[j][t]
                        for j in range(Q)
                    )
                    len_pre = length[q][t - 1] if t > 0 else int(s.initial_len[q])
                    constraints.append(
                        Implies(
                            arr[q][t] - enq[q][t] >= 1,
                            p_den * (len_pre + enq[q][t]) - p_num * (B - occ_post)
                            >= 0,
                        )
                    )
                    constraints.append(
                        Implies(
                            enq[q][t] >= 1,
                            p_den * len_pre - p_num * (B - occ_pre) <= -1,
                        )
                    )

            for port in range(s.num_ports):
                queues = list(s.queues_of_port(port))
                port_deq = Sum(deq[q][t] for q in queues)
                # One departure per port per step.
                constraints.append(port_deq <= 1)
                # Work conservation: a busy port transmits.
                backlog = Sum(
                    (length[q][t - 1] if t > 0 else int(s.initial_len[q])) + enq[q][t]
                    for q in queues
                )
                constraints.append(Implies(backlog >= 1, port_deq >= 1))

        # Measurement constraints, per coarse interval.
        for i in range(s.num_intervals):
            t0, t1 = i * s.steps_per_interval, (i + 1) * s.steps_per_interval
            steps = range(t0, t1)
            for port in range(s.num_ports):
                queues = list(s.queues_of_port(port))
                constraints.append(
                    Sum(arr[q][t] for q in queues for t in steps).eq(
                        int(s.m_received[port, i])
                    )
                )
                constraints.append(
                    Sum(deq[q][t] for q in queues for t in steps).eq(
                        int(s.m_sent[port, i])
                    )
                )
                constraints.append(
                    Sum(
                        arr[q][t] - enq[q][t] for q in queues for t in steps
                    ).eq(int(s.m_dropped[port, i]))
                )
            for q in range(Q):
                peak = int(s.m_max[q, i])
                for t in steps:
                    constraints.append(length[q][t] <= peak)
                constraints.append(Or([length[q][t] >= peak for t in steps]))
                constraints.append(length[q][t1 - 1].eq(int(s.m_sample[q, i])))

        solver.add(And(constraints))
        return solver, length

    # ------------------------------------------------------------------
    # Solve
    # ------------------------------------------------------------------
    def impute(self, scenario: FMScenario) -> FMResult:
        """Find a fine-grained queue-length series consistent with the
        measurements, or report unsat/unknown."""
        solver, length = self.build(scenario)
        result: CheckResult = solver.check()
        qlen = None
        if result.is_sat:
            qlen = np.array(
                [[result.model[length[q][t]] for t in range(scenario.horizon)]
                 for q in range(scenario.num_queues)],
                dtype=np.int64,
            )
        return FMResult(
            status=result.status,
            qlen=qlen,
            solve_time=result.solve_time,
            nodes_explored=result.stats.nodes_explored,
            hit_node_limit=result.stats.hit_node_limit,
            timed_out=result.timed_out,
        )


def scenario_from_trace(
    trace: SimulationTrace,
    steps_per_interval: int,
    num_intervals: int,
    fan_in: int,
    start_bin: int = 0,
    alpha: tuple[tuple[int, int], ...] | None = None,
) -> FMScenario:
    """Build a (guaranteed-satisfiable) FM scenario from simulator output.

    The simulator's fine bins are treated as the FM model's *time steps*,
    so the trace must be generated with ``steps_per_bin=1`` (one packet
    per bin line rate) — otherwise per-bin counters can exceed what the
    per-step model allows and the scenario would be unsatisfiable.  The
    switch should also run with the drop-at-full-buffer policy the FM
    model assumes (large DT alphas), which the callers in
    :mod:`repro.eval.scalability` arrange.
    """
    if trace.steps_per_bin != 1:
        raise ValueError(
            "FM scenarios need a trace recorded at steps_per_bin=1; got "
            f"{trace.steps_per_bin}"
        )
    end_bin = start_bin + steps_per_interval * num_intervals
    if end_bin > trace.num_bins:
        raise ValueError(
            f"scenario needs bins [{start_bin}, {end_bin}) but trace has "
            f"{trace.num_bins}"
        )

    def per_interval(x: np.ndarray, reduce: str) -> np.ndarray:
        window = x[:, start_bin:end_bin]
        shaped = window.reshape(x.shape[0], num_intervals, steps_per_interval)
        return shaped.max(axis=2) if reduce == "max" else (
            shaped.sum(axis=2) if reduce == "sum" else shaped[:, :, -1]
        )

    initial = (
        trace.qlen[:, start_bin - 1] if start_bin > 0 else np.zeros(trace.num_queues)
    )
    return FMScenario(
        num_ports=trace.config.num_ports,
        queues_per_port=trace.config.queues_per_port,
        buffer_capacity=trace.config.buffer_capacity,
        fan_in=fan_in,
        steps_per_interval=steps_per_interval,
        m_received=per_interval(trace.received, "sum"),
        m_sent=per_interval(trace.sent, "sum"),
        m_dropped=per_interval(trace.dropped, "sum"),
        m_max=per_interval(trace.qlen, "max"),
        m_sample=per_interval(trace.qlen, "last"),
        initial_len=np.asarray(initial, dtype=np.int64),
        alpha=alpha,
    )
