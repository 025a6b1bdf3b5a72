"""Constraint Enforcement Module (CEM, §3.2).

Corrects a model's imputed series so that constraints C1–C3 hold exactly,
while changing the series as little as possible in L1 — the paper's

    min Σ_{t ∉ T_samples} |Q̂c_r[q][t] − Q̂_r[q][t]|

The paper solves this with Z3; here the projection is computed directly.
The constraints decompose per coarse interval, and within an interval the
optimal correction has a simple structure, handled in four passes:

1. **C2** — pin the sampled bins to their measured values (free: those
   bins are excluded from the objective).
2. **C1-down** — clip every value above the interval's LANZ max down to
   it.  Any feasible series must do at least this, and clipping exactly to
   the max is the cheapest way.
3. **C3** — per port×interval, if more bins are non-empty than packets
   were sent, zero out the cheapest non-pinned busy bins (cost = total
   port queue mass at the bin) until the bound holds.  Zeroing the
   cheapest bins is L1-minimal among subsets of the required size.
4. **C1-up** — per queue×interval, if no bin attains the LANZ max, raise
   the best candidate bin to it: prefer bins where the port is already
   busy (no C3 budget needed) with the largest current value (smallest
   raise); fall back to an empty bin when the port still has sent-count
   budget.

Feasibility: measurements produced by a real switch always admit a
solution (the ground truth is one), and the passes above find one for any
such measurement set.  Inconsistent measurements raise
:class:`CEMInfeasibleError`.

Each pass operates on all ports × queues × intervals at once (the
projection is separable per interval, the same trick ``ArraySwitchEngine``
plays on the simulator).  The per-interval loop they replaced lives on as
a test oracle, :func:`repro.testing.cem_interval_loop`; the
``cem_vectorized`` differential fuzz harness
(:mod:`repro.testing.differential`) holds the two bit-identical in
float64.  The only permitted divergence is *which* infeasibility is
reported first on inconsistent inputs, since the passes here scan blocks
in a different order.

A reference MILP formulation of the same projection lives in
:mod:`repro.fm.cem_milp`; the test suite cross-checks this fast projection
against it on small instances.
"""

from __future__ import annotations

import numpy as np

import repro.obs as obs
from repro.constraints.spec import NONEMPTY_EPSILON, check_constraints
from repro.switchsim.switch import SwitchConfig
from repro.telemetry.dataset import ImputationSample
from repro.utils.validation import check_positive


class CEMInfeasibleError(RuntimeError):
    """The measurements admit no series satisfying C1–C3.

    This cannot happen for measurements sampled from a real trace (the
    ground truth satisfies the constraints); it indicates corrupted or
    hand-constructed inconsistent inputs.
    """


class ConstraintEnforcer:
    """Projects an imputed window onto the constraint set C1 ∧ C2 ∧ C3."""

    def __init__(
        self,
        config: SwitchConfig,
        epsilon: float = NONEMPTY_EPSILON,
        validate: bool = True,
    ):
        check_positive("epsilon", epsilon)
        self.config = config
        self.epsilon = float(epsilon)
        self.validate = validate

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------
    def enforce(self, imputed: np.ndarray, sample: ImputationSample) -> np.ndarray:
        """Return the corrected series (packets), same shape as ``imputed``."""
        corrected = np.asarray(imputed, dtype=float).copy()
        if corrected.shape != (sample.num_queues, sample.num_bins):
            raise ValueError(
                f"imputed shape {corrected.shape} does not match sample "
                f"({sample.num_queues}, {sample.num_bins})"
            )
        np.clip(corrected, 0.0, None, out=corrected)

        with obs.span("cem.enforce", bins=sample.num_bins):
            self._pin_samples(corrected, sample)
            self._clip_to_max(corrected, sample)
            self._enforce_sent_bound(corrected, sample)
            self._raise_to_max(corrected, sample)

            if self.validate:
                report = check_constraints(corrected, sample, self.config)
                if not report.satisfied:
                    raise CEMInfeasibleError(
                        f"correction left violations: max={report.max_error:.3g}, "
                        f"periodic={report.periodic_error:.3g}, sent={report.sent_error:.3g}"
                    )
            obs.counter("cem.enforced").inc()
        return corrected

    def correction_cost(
        self, imputed: np.ndarray, corrected: np.ndarray, sample: ImputationSample
    ) -> float:
        """The objective value: L1 change over non-sampled bins."""
        mask = np.ones(sample.num_bins, dtype=bool)
        mask[sample.sample_positions] = False
        diff = np.abs(np.asarray(corrected, dtype=float) - np.asarray(imputed, dtype=float))
        return float(diff[:, mask].sum())

    # ------------------------------------------------------------------
    # Passes
    # ------------------------------------------------------------------
    @staticmethod
    def _pin_samples(series: np.ndarray, sample: ImputationSample) -> None:
        series[:, sample.sample_positions] = sample.m_sample

    def _blocks(self, series: np.ndarray, sample: ImputationSample) -> np.ndarray:
        """View ``series`` as (ports, queues_per_port, intervals, bins).

        ``queues_of_port`` assigns each port a contiguous queue range, so
        this reshape is a view and in-place writes flow back to ``series``.
        """
        ports = self.config.num_ports
        per_port = self.config.queues_per_port
        return series.reshape(ports, per_port, sample.num_intervals, sample.interval)

    @staticmethod
    def _pinned_mask(sample: ImputationSample) -> np.ndarray:
        pinned = np.zeros(sample.num_bins, dtype=bool)
        pinned[sample.sample_positions] = True
        return pinned.reshape(sample.num_intervals, sample.interval)

    @staticmethod
    def _clip_to_max(series: np.ndarray, sample: ImputationSample) -> None:
        shaped = series.reshape(sample.num_queues, sample.num_intervals, sample.interval)
        np.minimum(shaped, sample.m_max[:, :, None], out=shaped)

    def _enforce_sent_bound(self, series: np.ndarray, sample: ImputationSample) -> None:
        blocks = self._blocks(series, sample)
        pinned = self._pinned_mask(sample)  # (I, L)

        mass = blocks.sum(axis=1)  # (P, I, L)
        busy = mass > self.epsilon
        busy_count = busy.sum(axis=-1)  # (P, I)
        excess = busy_count - sample.m_sent.astype(np.int64)
        need = excess > 0
        if not need.any():
            return

        eligible = busy & ~pinned[None, :, :]
        eligible_count = eligible.sum(axis=-1)
        short = need & (eligible_count < excess)
        if short.any():
            port, i = map(int, np.argwhere(short)[0])
            raise CEMInfeasibleError(
                f"port {port} interval {i}: {int(busy_count[port, i])} busy bins, "
                f"{int(sample.m_sent[port, i])} packets sent, but only "
                f"{int(eligible_count[port, i])} bins can be emptied"
            )

        # Rank eligible bins by cost (total port mass), stable so ties
        # break by bin index exactly like the per-interval oracle's
        # argsort over the candidate subsequence; ineligible bins rank
        # last via +inf.
        costs = np.where(eligible, mass, np.inf)
        order = np.argsort(costs, axis=-1, kind="stable")
        ranks = np.empty_like(order)
        np.put_along_axis(
            ranks, order, np.broadcast_to(np.arange(costs.shape[-1]), costs.shape), -1
        )
        zero_mask = (ranks < excess[:, :, None]) & need[:, :, None]  # (P, I, L)
        blocks[np.broadcast_to(zero_mask[:, None, :, :], blocks.shape)] = 0.0

    def _raise_to_max(self, series: np.ndarray, sample: ImputationSample) -> None:
        blocks = self._blocks(series, sample)
        per_port = self.config.queues_per_port
        pinned = self._pinned_mask(sample)  # (I, L)
        free = ~pinned[None, :, :]  # (1, I, L) broadcasting over ports
        targets = sample.m_max.reshape(blocks.shape[:3])  # (P, qpp, I)
        sent = sample.m_sent.astype(np.int64)  # (P, I)

        # Queues sharing a port interact through the port's busy mask, so
        # iterate queue-within-port and vectorize across ports × intervals.
        for j in range(per_port):
            queue_block = blocks[:, j]  # (P, I, L) view
            target = targets[:, j]  # (P, I)
            todo = (target > 0) & (queue_block.max(axis=-1) < target - 1e-9)
            if not todo.any():
                continue
            port_mass = blocks.sum(axis=1)  # (P, I, L)
            busy = port_mass > self.epsilon
            budget = sent - busy.sum(axis=-1)

            busy_free = busy & free
            idle_free = ~busy & free
            has_busy_free = busy_free.any(axis=-1)
            raise_busy = todo & has_busy_free
            fallback = todo & ~has_busy_free
            raise_idle = fallback & (budget > 0) & idle_free.any(axis=-1)

            failed = fallback & ~raise_idle
            if failed.any():
                port, i = map(int, np.argwhere(failed)[0])
                queue = port * per_port + j
                if budget[port, i] > 0:
                    raise CEMInfeasibleError(
                        f"queue {queue} interval {i}: no bin available to "
                        f"carry the measured max {target[port, i]}"
                    )
                raise CEMInfeasibleError(
                    f"queue {queue} interval {i}: max {target[port, i]} cannot "
                    "be placed without exceeding the sent-count bound"
                )

            # Masked argmax: values are >= 0, so -1 never wins and the
            # first maximal eligible bin is selected, like the oracle.
            best_busy = np.argmax(np.where(busy_free, queue_block, -1.0), axis=-1)
            best_idle = np.argmax(np.where(idle_free, queue_block, -1.0), axis=-1)
            best = np.where(raise_busy, best_busy, best_idle)
            selected = raise_busy | raise_idle
            ports_idx, intervals_idx = np.nonzero(selected)
            queue_block[ports_idx, intervals_idx, best[ports_idx, intervals_idx]] = (
                target[ports_idx, intervals_idx]
            )
