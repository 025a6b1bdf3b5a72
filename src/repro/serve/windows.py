"""Per-switch sliding-window assembly: records in, completed windows out.

The :class:`WindowAssembler` keeps one small ring buffer per switch and
turns the per-interval record stream into the exact windows the offline
pipeline trains and evaluates on: ``window_intervals`` consecutive
intervals starting every ``stride_intervals`` (non-overlapping by
default, matching :func:`~repro.telemetry.dataset.build_dataset`'s
evaluation layout).

The protocol is strict by default: records must arrive **in order**
per switch, with no gaps and no duplicates.  A collector that can
reorder or drop must resequence before the service — the alternative
(silently imputing over a hole) is precisely the failure mode the
paper's constraint story exists to prevent.  Violations raise
:class:`StreamProtocolError` naming the switch and the expected index.

Deployments that cannot resequence opt into a
:class:`DegradedStreamPolicy`: small gaps can be repaired by carrying
the last delivered record forward (the operator fallback
:func:`repro.telemetry.noise.carry_forward` models), larger gaps can drop the
partial window (``skip``) or resynchronise the stream at the new index
(``reset``) — never silently: every degraded-mode event increments a
``serve.degraded.*`` counter and the per-assembler
:class:`DegradedStreamStats`.  Other switches' streams are untouched,
and once a stream heals, ``reset`` windows are bit-identical to the
offline pipeline on the post-gap suffix (pinned by
``tests/serve/test_degraded_serve.py``).

Assembly is *stateless per window* in the sense that matters for
recovery: a completed :class:`WindowTask` carries the full coarse
telemetry of its window, so imputing it is a pure function of the task
(plus frozen model parameters) — a crashed shard worker can be respawned
and re-derive bit-identical output from the same task.
"""

from __future__ import annotations

import dataclasses
import time
from collections import deque
from dataclasses import dataclass, field

import numpy as np

import repro.obs as obs
from repro.serve.records import CoarseRecord
from repro.switchsim.switch import SwitchConfig
from repro.telemetry.dataset import FeatureScaler, ImputationSample, build_features
from repro.telemetry.sampling import CoarseTelemetry
from repro.utils.validation import check_positive

#: Valid per-event actions of a :class:`DegradedStreamPolicy`.
_POLICY_ACTIONS = ("raise", "skip", "reset")


class StreamProtocolError(ValueError):
    """A record violated the per-switch ordering protocol (gap/duplicate)."""


@dataclass(frozen=True)
class DegradedStreamPolicy:
    """What the assembler does when a stream violates the strict protocol.

    * ``on_gap`` — a record arrives beyond the expected index.  ``raise``
      keeps the strict protocol; ``skip`` abandons the partial window and
      waits for the next stride-aligned window start; ``reset``
      resynchronises the switch's stream at the new index (the next full
      window starts there, bit-identical to the offline pipeline run on
      the post-gap suffix).
    * ``on_duplicate`` — a record arrives at or below an index already
      consumed.  ``raise`` keeps the strict protocol; ``skip`` drops the
      record; ``reset`` treats it as the start of a replayed stream and
      resynchronises there.
    * ``repair_intervals`` — gaps of at most this many intervals are
      healed *before* ``on_gap`` applies, by carrying the switch's last
      delivered record forward (the same operator fallback
      :func:`repro.telemetry.noise.carry_forward` models for lost
      SNMP polls).  0 disables repair.

    The default policy is indistinguishable from no policy: every action
    raises, nothing is repaired.
    """

    on_gap: str = "raise"
    on_duplicate: str = "raise"
    repair_intervals: int = 0

    def __post_init__(self) -> None:
        for name in ("on_gap", "on_duplicate"):
            action = getattr(self, name)
            if action not in _POLICY_ACTIONS:
                raise ValueError(
                    f"{name} must be one of {_POLICY_ACTIONS}, got {action!r}"
                )
        if self.repair_intervals < 0:
            raise ValueError(
                f"repair_intervals must be >= 0, got {self.repair_intervals}"
            )

    @property
    def is_strict(self) -> bool:
        return (
            self.on_gap == "raise"
            and self.on_duplicate == "raise"
            and self.repair_intervals == 0
        )


@dataclass
class DegradedStreamStats:
    """Counters of every degraded-mode event an assembler performed."""

    gaps_repaired: int = 0  # gaps healed by carry-forward
    repaired_intervals: int = 0  # synthesized records across those gaps
    gaps_skipped: int = 0  # partial windows abandoned on gap
    resyncs: int = 0  # streams resynchronised (gap or duplicate)
    duplicates_dropped: int = 0  # duplicate records silently dropped

    @property
    def any(self) -> bool:
        return any(
            (
                self.gaps_repaired,
                self.gaps_skipped,
                self.resyncs,
                self.duplicates_dropped,
            )
        )


@dataclass(frozen=True)
class WindowTask:
    """One completed window awaiting imputation.

    Self-contained: holds the window's coarse telemetry block, so the
    imputation is a pure function of the task — the property that makes
    shard-crash respawn bit-identical (see module docstring).
    ``created_at`` (``perf_counter``) marks window completion; emitted
    windows measure their latency from it.
    """

    switch_id: str
    window_index: int
    start_interval: int
    telemetry: CoarseTelemetry
    created_at: float = field(compare=False, default=0.0)

    @property
    def start_bin(self) -> int:
        return self.start_interval * self.telemetry.interval

    def sample(self, scaler: FeatureScaler, num_queues: int) -> ImputationSample:
        """Assemble the :class:`ImputationSample` of this window.

        Identical construction to the offline
        :func:`~repro.telemetry.dataset.build_dataset` windows (features
        via :func:`build_features`, measurements as floats), with a zero
        placeholder target — unknown at inference time, and unused by
        both the model forward pass and the CEM projection.
        """
        window_bins = self.telemetry.num_intervals * self.telemetry.interval
        features = build_features(self.telemetry, scaler, window_bins)
        placeholder = np.zeros((num_queues, window_bins))
        return ImputationSample(
            features=features,
            target=placeholder,
            target_raw=placeholder,
            m_max=self.telemetry.qlen_max.astype(float),
            m_sample=self.telemetry.qlen_sample.astype(float),
            m_sent=self.telemetry.sent.astype(float),
            m_dropped=self.telemetry.dropped.astype(float),
            m_received=self.telemetry.received.astype(float),
            sample_positions=self.telemetry.sample_positions(window_bins),
            interval=self.telemetry.interval,
            window_start=self.start_bin,
        )


@dataclass
class _SwitchState:
    """Assembly state for one switch's stream."""

    buffer: deque  # last window_intervals records
    next_interval: int = 0  # expected interval_index of the next record
    next_window_start: int = 0  # first interval of the next window to emit
    windows_emitted: int = 0


class WindowAssembler:
    """Turns per-switch record streams into completed window tasks."""

    def __init__(
        self,
        switch_config: SwitchConfig,
        interval: int,
        window_intervals: int,
        stride_intervals: int | None = None,
        *,
        policy: DegradedStreamPolicy | None = None,
    ):
        check_positive("interval", interval)
        check_positive("window_intervals", window_intervals)
        self.switch_config = switch_config
        self.interval = int(interval)
        self.window_intervals = int(window_intervals)
        self.stride_intervals = int(
            window_intervals if stride_intervals is None else stride_intervals
        )
        check_positive("stride_intervals", self.stride_intervals)
        if self.stride_intervals > self.window_intervals:
            raise ValueError(
                "stride_intervals > window_intervals would skip intervals "
                "entirely; the service refuses to silently drop telemetry"
            )
        self.policy = policy
        self.stats = DegradedStreamStats()
        self._switches: dict[str, _SwitchState] = {}

    @property
    def num_switches(self) -> int:
        return len(self._switches)

    def pending_intervals(self, switch_id: str) -> int:
        """Intervals buffered toward ``switch_id``'s next window."""
        state = self._switches.get(switch_id)
        if state is None:
            return 0
        return state.next_interval - state.next_window_start

    def push(self, record: CoarseRecord) -> list[WindowTask]:
        """Ingest one record; returns the windows it completed.

        Without a policy (the strict default), raises
        :class:`StreamProtocolError` on an out-of-order, duplicated, or
        gapped record, and :class:`ValueError` on shape mismatches —
        both before mutating any state.  With a policy, protocol
        violations are handled per :class:`DegradedStreamPolicy` (a
        repaired gap can complete more than one window at once).
        """
        record.validate_shapes(
            self.switch_config.num_queues, self.switch_config.num_ports
        )
        state = self._switches.get(record.switch_id)
        if state is None:
            state = _SwitchState(buffer=deque(maxlen=self.window_intervals))
            self._switches[record.switch_id] = state
        if record.interval_index != state.next_interval:
            return self._violation(record, state)
        return self._accept(record, state)

    def _protocol_error(self, record: CoarseRecord, state: _SwitchState):
        kind = (
            "duplicate or out-of-order"
            if record.interval_index < state.next_interval
            else "gap in"
        )
        return StreamProtocolError(
            f"{kind} record stream for switch {record.switch_id!r}: "
            f"expected interval {state.next_interval}, got "
            f"{record.interval_index}"
        )

    def _violation(
        self, record: CoarseRecord, state: _SwitchState
    ) -> list[WindowTask]:
        """Handle a record that broke the strict per-switch protocol."""
        policy = self.policy
        if policy is None:
            raise self._protocol_error(record, state)
        if record.interval_index < state.next_interval:
            action = policy.on_duplicate
            if action == "raise":
                raise self._protocol_error(record, state)
            if action == "skip":
                self.stats.duplicates_dropped += 1
                obs.counter("serve.degraded.duplicates_dropped").inc()
                obs.event(
                    "duplicate_dropped",
                    switch=record.switch_id,
                    interval=record.interval_index,
                )
                return []
            return self._resync(record, state)

        gap = record.interval_index - state.next_interval
        if 0 < gap <= policy.repair_intervals and state.buffer:
            # Carry-forward repair: re-deliver the last record for each
            # missing interval (same fallback a collector applies for
            # lost SNMP polls — see repro.telemetry.noise.carry_forward).
            last = state.buffer[-1]
            tasks: list[WindowTask] = []
            with obs.span(
                "serve.degraded.repair",
                switch=record.switch_id,
                intervals=gap,
            ):
                for index in range(state.next_interval, record.interval_index):
                    synthesized = dataclasses.replace(last, interval_index=index)
                    tasks.extend(self._accept(synthesized, state))
            self.stats.gaps_repaired += 1
            self.stats.repaired_intervals += gap
            obs.counter("serve.degraded.gaps_repaired").inc()
            obs.counter("serve.degraded.repaired_intervals").inc(gap)
            obs.event(
                "gap_repaired", switch=record.switch_id, intervals=gap
            )
            tasks.extend(self._accept(record, state))
            return tasks
        action = policy.on_gap
        if action == "raise":
            raise self._protocol_error(record, state)
        if action == "skip":
            # Abandon the partial window; resume on the original stride
            # grid at the first window start not before this record.
            state.buffer.clear()
            state.next_interval = record.interval_index
            behind = record.interval_index - state.next_window_start
            if behind > 0:
                strides = -(-behind // self.stride_intervals)  # ceil div
                state.next_window_start += strides * self.stride_intervals
            self.stats.gaps_skipped += 1
            obs.counter("serve.degraded.gaps_skipped").inc()
            obs.event(
                "gap_skipped", switch=record.switch_id, intervals=gap
            )
            return self._accept(record, state)
        return self._resync(record, state)

    def _resync(self, record: CoarseRecord, state: _SwitchState) -> list[WindowTask]:
        """Restart the switch's stream at this record's index.

        The next full window starts exactly here, so once the stream
        heals its windows are bit-identical to the offline pipeline run
        on the post-gap suffix.  ``windows_emitted`` keeps counting up —
        window identity stays unique across a resync.
        """
        state.buffer.clear()
        state.next_interval = record.interval_index
        state.next_window_start = record.interval_index
        self.stats.resyncs += 1
        obs.counter("serve.degraded.resyncs").inc()
        obs.event(
            "stream_resync",
            switch=record.switch_id,
            interval=record.interval_index,
        )
        return self._accept(record, state)

    def _accept(self, record: CoarseRecord, state: _SwitchState) -> list[WindowTask]:
        """Buffer an in-protocol record; emit the window it completes."""
        state.buffer.append(record)
        state.next_interval += 1

        last_needed = state.next_window_start + self.window_intervals - 1
        if record.interval_index != last_needed:
            return []
        window = list(state.buffer)[-self.window_intervals :]
        task = WindowTask(
            switch_id=record.switch_id,
            window_index=state.windows_emitted,
            start_interval=state.next_window_start,
            telemetry=CoarseTelemetry(
                interval=self.interval,
                qlen_sample=np.stack([r.qlen_sample for r in window], axis=1),
                qlen_max=np.stack([r.qlen_max for r in window], axis=1),
                received=np.stack([r.received for r in window], axis=1),
                sent=np.stack([r.sent for r in window], axis=1),
                dropped=np.stack([r.dropped for r in window], axis=1),
            ),
            created_at=time.perf_counter(),
        )
        state.windows_emitted += 1
        state.next_window_start += self.stride_intervals
        return [task]
