"""Simulation driver: traffic generator → switch → recorded trace.

The driver runs the switch at packet-time-step granularity and aggregates
the result into the paper's *fine-grained* (per-millisecond) ground truth:

* ``qlen``       — instantaneous queue length at the end of each ms bin,
* ``qlen_max``   — maximum queue length observed inside each ms bin,
* ``received`` / ``sent`` / ``dropped`` — per-port packet counts per bin.

The quantity ``NE_i`` of constraint C3 (bins in which some queue of port i
is non-empty) is derived from ``qlen`` via
:meth:`SimulationTrace.port_nonempty`; because each step dequeues *after*
arrivals, a queue that is non-empty at a bin's end necessarily transmitted
during that bin, so ``NE_i <= sent_i`` holds exactly on the ground truth.

Choosing 1 ms as the fine granularity follows the paper (§4, "we choose
1 ms as our fine granularity to reduce noise as in [24]").
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from typing import TYPE_CHECKING

import repro.obs as obs
from repro.switchsim.switch import OutputQueuedSwitch, SwitchConfig
from repro.utils.validation import check_positive

if TYPE_CHECKING:  # avoid a circular import: traffic depends on switchsim
    from repro.traffic.generators import TrafficGenerator


@dataclass
class SimulationTrace:
    """Fine-grained ground truth produced by :class:`Simulation`.

    All arrays are indexed by fine-grained bin (1 ms in the paper's setup);
    ``qlen``/``qlen_max`` additionally by flat queue index and the port
    counters by port index.
    """

    config: SwitchConfig
    steps_per_bin: int
    qlen: np.ndarray  # (num_queues, bins) instantaneous length at bin end
    qlen_max: np.ndarray  # (num_queues, bins) max length within bin
    received: np.ndarray  # (num_ports, bins)
    sent: np.ndarray  # (num_ports, bins)
    dropped: np.ndarray  # (num_ports, bins)
    delay_sum: np.ndarray  # (num_ports, bins) summed per-packet delays, steps
    buffer_occupancy: np.ndarray  # (bins,) occupancy at bin end

    @property
    def num_bins(self) -> int:
        return self.qlen.shape[1]

    @property
    def num_queues(self) -> int:
        return self.qlen.shape[0]

    @property
    def num_ports(self) -> int:
        return self.sent.shape[0]

    def mean_delay(self, port: int) -> np.ndarray:
        """Per-bin mean queueing delay (in time steps) of transmitted
        packets on ``port``; zero for bins with no departures."""
        sent = self.sent[port]
        out = np.zeros_like(sent, dtype=float)
        busy = sent > 0
        out[busy] = self.delay_sum[port, busy] / sent[busy]
        return out

    def port_nonempty(self, port: int) -> np.ndarray:
        """Boolean per-bin series: some queue of ``port`` non-empty at bin end.

        Summing this over a coarse interval gives the ground-truth ``NE_i``
        of constraint C3.
        """
        idx = list(self.config.queues_of_port(port))
        return self.qlen[idx].sum(axis=0) > 0

    def validate(self) -> None:
        """Check internal invariants; raises AssertionError on violation.

        These are the ground-truth counterparts of the paper's constraints:
        queue lengths are non-negative, the per-bin max dominates the
        instantaneous sample, and work conservation bounds sent counts.
        """
        assert (self.qlen >= 0).all(), "negative queue length"
        assert (self.qlen_max >= self.qlen).all(), "bin max below instantaneous sample"
        assert (self.sent >= 0).all() and (self.dropped >= 0).all()
        assert (self.sent <= self.steps_per_bin).all(), "port sent above line rate"
        for port in range(self.num_ports):
            nonempty = self.port_nonempty(port).astype(np.int64)
            assert (nonempty <= self.sent[port]).all(), (
                "work conservation violated: port idle while queues non-empty"
            )


class Simulation:
    """Runs a traffic generator through the switch and records the trace.

    ``engine`` selects the simulation core:

    * ``"reference"`` — the object-based :class:`OutputQueuedSwitch`, one
      packet time step at a time;
    * ``"array"`` — the vectorized :class:`~repro.switchsim.engine.
      ArraySwitchEngine` (whole bins per inner call, batched arrival
      materialisation); raises :class:`~repro.switchsim.engine.
      EngineUnsupported` for scheduler configurations it cannot reproduce
      bit-exactly;
    * ``"auto"`` (default) — the array engine when it supports the
      configuration, the reference engine otherwise.

    Both engines produce bit-identical :class:`SimulationTrace`s (asserted
    by the equivalence property tests), so the choice only affects speed.

    With ``selfcheck=True`` every produced trace additionally runs the
    invariant oracles of :mod:`repro.testing.oracles` (packet
    conservation, buffer occupancy, Dynamic-Threshold bound, work
    conservation); a violation raises :class:`~repro.testing.selfcheck.
    SelfCheckError` carrying a serialized repro.  Off by default — the
    oracles are vectorised and cheap, but production sweeps should opt in
    deliberately.
    """

    def __init__(
        self,
        config: SwitchConfig,
        traffic: "TrafficGenerator",
        steps_per_bin: int = 16,
        engine: str = "auto",
        selfcheck: bool = False,
    ):
        check_positive("steps_per_bin", steps_per_bin)
        if engine not in ("auto", "array", "reference"):
            raise ValueError(
                f"engine must be 'auto', 'array', or 'reference', got {engine!r}"
            )
        self.config = config
        self.traffic = traffic
        self.steps_per_bin = int(steps_per_bin)
        self.selfcheck = bool(selfcheck)
        self.switch = OutputQueuedSwitch(config)
        from repro.switchsim.engine import ArraySwitchEngine  # deferred: cycle

        if engine == "auto":
            engine = "array" if ArraySwitchEngine.supports(config) else "reference"
        self.engine = engine
        # The engine admits through the switch's own policy instance, so
        # ``switch.aqm`` counters describe the run whichever engine ran it.
        self._array_engine = (
            ArraySwitchEngine(config, aqm=self.switch.aqm)
            if engine == "array"
            else None
        )

    def _selfcheck_trace(self, trace: SimulationTrace, initial_qlen) -> None:
        from repro.testing.selfcheck import selfcheck_trace  # deferred: cycle

        selfcheck_trace(
            trace,
            repro={
                "engine": self.engine,
                "steps_per_bin": self.steps_per_bin,
                "num_bins": trace.num_bins,
                "num_ports": self.config.num_ports,
                "queues_per_port": self.config.queues_per_port,
                "buffer_capacity": self.config.buffer_capacity,
                "alphas": list(self.config.alphas),
                "traffic": repr(self.traffic),
            },
            initial_qlen=initial_qlen,
        )

    def run(self, num_bins: int) -> SimulationTrace:
        """Simulate ``num_bins`` fine-grained bins and return the trace."""
        check_positive("num_bins", num_bins)
        with obs.span("switchsim.run", engine=self.engine, num_bins=int(num_bins)):
            return self._run(num_bins)

    def _run(self, num_bins: int) -> SimulationTrace:
        if self._array_engine is not None:
            initial_qlen = (
                self._array_engine.queue_lengths() if self.selfcheck else None
            )
            trace = self._array_engine.run(self.traffic, num_bins, self.steps_per_bin)
            if self.selfcheck:
                self._selfcheck_trace(trace, initial_qlen)
            return trace
        initial_qlen = self.switch.queue_lengths() if self.selfcheck else None
        cfg = self.config
        steps = self.steps_per_bin
        qlen = np.zeros((cfg.num_queues, num_bins), dtype=np.int64)
        qlen_max = np.zeros((cfg.num_queues, num_bins), dtype=np.int64)
        received = np.zeros((cfg.num_ports, num_bins), dtype=np.int64)
        sent = np.zeros((cfg.num_ports, num_bins), dtype=np.int64)
        dropped = np.zeros((cfg.num_ports, num_bins), dtype=np.int64)
        delay_sum = np.zeros((cfg.num_ports, num_bins), dtype=np.int64)
        occupancy = np.zeros(num_bins, dtype=np.int64)

        switch = self.switch
        for b in range(num_bins):
            bin_max = np.zeros(cfg.num_queues, dtype=np.int64)
            for _ in range(steps):
                arrivals = self.traffic.arrivals(switch.step_count)
                counters = switch.step(arrivals)
                np.maximum(bin_max, switch.queue_lengths(), out=bin_max)
                received[:, b] += counters.received
                sent[:, b] += counters.sent
                dropped[:, b] += counters.dropped
                delay_sum[:, b] += counters.delay_sum
            qlen[:, b] = switch.queue_lengths()
            qlen_max[:, b] = bin_max
            occupancy[b] = switch.buffer.occupancy

        trace = SimulationTrace(
            config=cfg,
            steps_per_bin=steps,
            qlen=qlen,
            qlen_max=qlen_max,
            received=received,
            sent=sent,
            dropped=dropped,
            delay_sum=delay_sum,
            buffer_occupancy=occupancy,
        )
        trace.validate()
        if self.selfcheck:
            self._selfcheck_trace(trace, initial_qlen)
        return trace
