"""The output-queued shared-buffer switch (Fig. 2 of the paper)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from repro.switchsim.aqm import AqmPolicy
from repro.switchsim.buffer import SharedBuffer
from repro.switchsim.packet import Packet
from repro.switchsim.queues import OutputQueue
from repro.switchsim.scheduler import RoundRobinScheduler, Scheduler


@dataclass(frozen=True)
class SwitchConfig:
    """Static configuration of the simulated switch.

    Attributes:
        num_ports: number of output ports ``N``.
        queues_per_port: queues per port (2 in the paper's scenario).
        buffer_capacity: shared buffer size in packets.
        alphas: per-class Dynamic-Threshold factors, one per queue class.
        scheduler_factory: builds the per-port scheduler; defaults to
            round-robin across the port's queues (work-conserving).
        aqm_factory: optionally builds an
            :class:`~repro.switchsim.aqm.AqmPolicy` shared by the
            switch's queues; ``None`` (the default) keeps the original
            direct Dynamic-Threshold admission.  Both engines support
            either.
    """

    num_ports: int = 4
    queues_per_port: int = 2
    buffer_capacity: int = 200
    alphas: tuple[float, ...] = (1.0, 0.5)
    scheduler_factory: Callable[[], Scheduler] = RoundRobinScheduler
    aqm_factory: Optional[Callable[[], AqmPolicy]] = None

    def __post_init__(self):
        if self.num_ports <= 0:
            raise ValueError(f"num_ports must be positive, got {self.num_ports}")
        if self.queues_per_port <= 0:
            raise ValueError(
                f"queues_per_port must be positive, got {self.queues_per_port}"
            )
        if len(self.alphas) != self.queues_per_port:
            raise ValueError(
                f"need one alpha per queue class: got {len(self.alphas)} alphas "
                f"for {self.queues_per_port} queues"
            )

    @property
    def num_queues(self) -> int:
        return self.num_ports * self.queues_per_port

    def queue_index(self, port: int, qclass: int) -> int:
        """Flat queue index for (port, class); queues of a port are adjacent."""
        if not 0 <= port < self.num_ports:
            raise IndexError(f"port {port} out of range [0, {self.num_ports})")
        if not 0 <= qclass < self.queues_per_port:
            raise IndexError(f"qclass {qclass} out of range [0, {self.queues_per_port})")
        return port * self.queues_per_port + qclass

    def queues_of_port(self, port: int) -> range:
        """Flat indices of the queues belonging to ``port``."""
        start = port * self.queues_per_port
        return range(start, start + self.queues_per_port)


@dataclass
class StepCounters:
    """Per-step port-level counters (the quantities SNMP aggregates).

    ``delay_sum`` accumulates, per port, the queueing delay (in time
    steps) of the packets transmitted this step — the ground truth behind
    the latency downstream tasks.
    """

    received: np.ndarray
    enqueued: np.ndarray
    dropped: np.ndarray
    sent: np.ndarray
    delay_sum: np.ndarray


class OutputQueuedSwitch:
    """Simulates one time step at a time.

    A step processes arrivals (admission through the shared buffer's
    dynamic threshold), then lets every port's scheduler dequeue at most
    one packet (line rate).  Queue lengths reported for the step are the
    post-departure lengths, matching the FM model of §2.3 where the length
    at ``t`` is the enqueued packets minus the dequeued one.
    """

    def __init__(self, config: SwitchConfig):
        self.config = config
        self.buffer = SharedBuffer(config.buffer_capacity, alpha=max(config.alphas))
        self.aqm: Optional[AqmPolicy] = (
            config.aqm_factory() if config.aqm_factory is not None else None
        )
        self.queues: list[OutputQueue] = []
        for port in range(config.num_ports):
            for qclass in range(config.queues_per_port):
                self.queues.append(
                    OutputQueue(
                        port,
                        qclass,
                        self.buffer,
                        alpha=config.alphas[qclass],
                        aqm=self.aqm,
                    )
                )
        self.schedulers: list[Scheduler] = [
            config.scheduler_factory() for _ in range(config.num_ports)
        ]
        # Incrementally maintained mirror of the per-queue lengths, so
        # queue_lengths() need not rebuild a list + array every step.
        self._lengths = np.zeros(config.num_queues, dtype=np.int64)
        self.step_count = 0

    # ------------------------------------------------------------------
    # Queue access helpers
    # ------------------------------------------------------------------
    def queue(self, port: int, qclass: int) -> OutputQueue:
        """The queue object at (port, class)."""
        return self.queues[self.config.queue_index(port, qclass)]

    def queue_lengths(self) -> np.ndarray:
        """Current lengths of all queues, in flat queue order.

        Returns a copy of the incrementally maintained lengths array; the
        mirror tracks every enqueue/dequeue made through :meth:`step`.
        Callers mutating queues directly (e.g. ``queue.offer`` in a unit
        test) should read ``queue.length`` instead.
        """
        return self._lengths.copy()

    def port_queues(self, port: int) -> Sequence[OutputQueue]:
        return [self.queues[i] for i in self.config.queues_of_port(port)]

    # ------------------------------------------------------------------
    # Simulation step
    # ------------------------------------------------------------------
    def step(self, arrivals: Iterable[Packet]) -> StepCounters:
        """Advance one time step given this step's arriving packets."""
        cfg = self.config
        received = np.zeros(cfg.num_ports, dtype=np.int64)
        enqueued = np.zeros(cfg.num_ports, dtype=np.int64)
        dropped = np.zeros(cfg.num_ports, dtype=np.int64)
        sent = np.zeros(cfg.num_ports, dtype=np.int64)
        delay_sum = np.zeros(cfg.num_ports, dtype=np.int64)

        for packet in arrivals:
            queue_index = cfg.queue_index(packet.dst_port, packet.qclass)
            queue = self.queues[queue_index]
            received[packet.dst_port] += 1
            # Stamp untimed packets so per-packet delay is well defined.
            if packet.arrival_step < 0:
                packet = Packet(
                    dst_port=packet.dst_port,
                    qclass=packet.qclass,
                    flow_id=packet.flow_id,
                    arrival_step=self.step_count,
                )
            if queue.offer(packet):
                enqueued[packet.dst_port] += 1
                self._lengths[queue_index] += 1
            else:
                dropped[packet.dst_port] += 1

        for port in range(cfg.num_ports):
            queues = self.port_queues(port)
            choice = self.schedulers[port].select(queues)
            if choice is not None:
                packet = queues[choice].dequeue()
                if packet is None:
                    raise RuntimeError(
                        f"scheduler selected empty queue {choice} on port {port}"
                    )
                self._lengths[port * cfg.queues_per_port + choice] -= 1
                sent[port] += 1
                if packet.arrival_step >= 0:
                    delay_sum[port] += self.step_count - packet.arrival_step

        self.step_count += 1
        return StepCounters(
            received=received,
            enqueued=enqueued,
            dropped=dropped,
            sent=sent,
            delay_sum=delay_sum,
        )

    def reset(self) -> None:
        """Clear all queues and counters for a fresh run."""
        for queue in self.queues:
            queue.clear()
            queue.total_enqueued = 0
            queue.total_dropped = 0
            queue.total_dequeued = 0
            queue.total_marked = 0
        if self.aqm is not None:
            self.aqm.reset()
        self.buffer.reset()
        self.schedulers = [self.config.scheduler_factory() for _ in range(self.config.num_ports)]
        self._lengths[:] = 0
        self.step_count = 0
