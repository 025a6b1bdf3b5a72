"""Traffic generators producing per-time-step packet arrivals.

All generators share the same contract: :meth:`TrafficGenerator.arrivals`
is called once per simulator time step with a monotonically increasing
step index and returns the packets arriving at the switch in that step.

Sources model server NICs: each source can inject **at most one packet per
time step** (line rate), so a flow of S packets occupies its source for at
least S steps and fan-in of k sources onto one output port grows that
port's queue at rate ~(k-1) packets per step — the queue-building mechanism
the paper's imputation problem revolves around.

Batched materialisation
-----------------------

The vectorized switch engine (:mod:`repro.switchsim.engine`) consumes
arrivals thousands of steps at a time.  Generators that can produce their
packet stream as flat numpy arrays implement :meth:`TrafficGenerator.
arrivals_batch`, which must be **bit-identical** to the per-step path:
same packets, same within-step ordering, and — crucially — the same
underlying RNG draw sequence, so that mixing batch and per-step calls (or
comparing the two engines) yields identical traces.  Generators advertise
the capability via :meth:`TrafficGenerator.can_batch`; callers must check
it before calling ``arrivals_batch`` because a batch call mutates
generator state irreversibly.

For :class:`PoissonFlowTraffic` (and the flow-level generator of
:mod:`repro.traffic.flows`) the per-step Poisson arrival draws are batched
with a checkpoint/rewind scheme on the bit generator, in one helper,
:func:`_poisson_arrival_steps`: numpy's ``Generator.poisson(lam, size=n)``
consumes the bit stream exactly like ``n`` sequential scalar draws
(element-wise fill), so a chunk can be drawn at once and, when a non-zero
count appears at position ``j``, the state is rewound and re-advanced by
exactly ``j + 1`` draws before the per-flow attribute draws are
interleaved — reproducing the scalar call sequence.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from repro.switchsim.packet import Packet
from repro.traffic.distributions import FlowSizeDistribution, WebsearchSizes
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


@dataclass
class _ActiveFlow:
    """A flow currently transmitting from a source."""

    flow_id: int
    dst_port: int
    qclass: int
    remaining: int


class _SourcePool:
    """Per-source flow queues with 1-packet-per-step pacing.

    Flows injected into a source are serialised FIFO: the source transmits
    the head flow's packets back to back, then moves to the next flow.
    """

    def __init__(self, num_sources: int):
        check_positive("num_sources", num_sources)
        self.num_sources = int(num_sources)
        self._queues: list[deque[_ActiveFlow]] = [deque() for _ in range(self.num_sources)]

    def inject(self, source: int, flow: _ActiveFlow) -> None:
        if not 0 <= source < self.num_sources:
            raise IndexError(f"source {source} out of range [0, {self.num_sources})")
        if flow.remaining < 1:
            raise ValueError(f"flow must have >= 1 packet, got {flow.remaining}")
        self._queues[source].append(flow)

    def emit(self, step: int) -> list[Packet]:
        """Emit at most one packet per busy source for this step."""
        packets: list[Packet] = []
        for queue in self._queues:
            if not queue:
                continue
            flow = queue[0]
            packets.append(
                Packet(
                    dst_port=flow.dst_port,
                    qclass=flow.qclass,
                    flow_id=flow.flow_id,
                    arrival_step=step,
                )
            )
            flow.remaining -= 1
            if flow.remaining == 0:
                queue.popleft()
        return packets

    @property
    def busy_sources(self) -> int:
        return sum(1 for q in self._queues if q)

    @property
    def backlog_packets(self) -> int:
        return sum(f.remaining for q in self._queues for f in q)

    def emit_batch(
        self,
        start: int,
        end: int,
        injections: Sequence[tuple[int, int, _ActiveFlow]],
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Emit all packets of steps ``[start, end)`` as flat arrays.

        ``injections`` lists ``(step, source, flow)`` in injection order
        (steps non-decreasing per source).  Equivalent to calling
        :meth:`inject` at each flow's step followed by :meth:`emit` once
        per step, but runs in time proportional to the number of *flows*
        plus emitted packets rather than steps × sources.

        Returns ``(steps, dst_ports, qclasses)`` sorted by step with the
        same within-step ordering as :meth:`emit` (ascending source).
        """
        per_source: list[list[tuple[int, _ActiveFlow]]] = [
            [] for _ in range(self.num_sources)
        ]
        for step, source, flow in injections:
            if not 0 <= source < self.num_sources:
                raise IndexError(
                    f"source {source} out of range [0, {self.num_sources})"
                )
            if flow.remaining < 1:
                raise ValueError(f"flow must have >= 1 packet, got {flow.remaining}")
            per_source[source].append((step, flow))

        step_parts: list[np.ndarray] = []
        dsts: list[int] = []
        qclasses: list[int] = []
        counts: list[int] = []
        for source, queue in enumerate(self._queues):
            # A busy source emits continuously; a flow starts at its
            # injection step or when the previous flow finishes, whichever
            # is later (inject() precedes emit() within a step).
            cursor = start
            pending: deque[_ActiveFlow] = deque()
            for avail, flow in [(start, f) for f in queue] + per_source[source]:
                begin = max(cursor, avail)
                cursor = begin + flow.remaining
                emit_end = min(cursor, end)
                if begin < emit_end:
                    step_parts.append(np.arange(begin, emit_end, dtype=np.int64))
                    dsts.append(flow.dst_port)
                    qclasses.append(flow.qclass)
                    counts.append(emit_end - begin)
                    flow.remaining = cursor - emit_end
                if flow.remaining > 0:
                    pending.append(flow)
            self._queues[source] = pending

        if not step_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        steps = np.concatenate(step_parts)
        dst_arr = np.repeat(np.asarray(dsts, dtype=np.int64), counts)
        qclass_arr = np.repeat(np.asarray(qclasses, dtype=np.int64), counts)
        # Stable sort: runs are concatenated grouped by source, so ties on
        # the step key keep ascending-source order, matching emit().
        order = np.argsort(steps, kind="stable")
        return steps[order], dst_arr[order], qclass_arr[order]


#: Flat arrival arrays ``(steps, dst_ports, qclasses)``, sorted by step
#: (stable within a step, preserving the per-step packet ordering).
ArrivalArrays = tuple[np.ndarray, np.ndarray, np.ndarray]


class TrafficGenerator(ABC):
    """Produces the packets arriving at the switch at each time step."""

    @abstractmethod
    def arrivals(self, step: int) -> list[Packet]:
        """Packets arriving at time step ``step``.

        Steps must be requested in increasing order (generators are
        stateful stream processes, like the sources they model).
        """

    def can_batch(self) -> bool:
        """Whether :meth:`arrivals_batch` is available for this generator."""
        return False

    def arrivals_batch(self, start_step: int, num_steps: int) -> ArrivalArrays:
        """All arrivals of steps ``[start_step, start_step + num_steps)``.

        Bit-identical to ``num_steps`` consecutive :meth:`arrivals` calls
        (same packets, same within-step order, same RNG consumption); the
        implied per-packet ``arrival_step`` equals its step.  Callers must
        check :meth:`can_batch` first — the call advances generator state.
        """
        raise NotImplementedError(f"{type(self).__name__} cannot batch arrivals")

    def rng_streams(self) -> tuple[np.random.Generator, ...]:
        """The RNG objects this generator draws from (for sharing checks)."""
        return ()


class _SequentialMixin:
    """Guards against out-of-order step queries."""

    _next_step: int = 0

    def _check_step(self, step: int) -> None:
        if step != self._next_step:
            raise ValueError(
                f"arrivals() must be called with consecutive steps; expected "
                f"{self._next_step}, got {step}"
            )
        self._next_step = step + 1

    def _check_batch(self, start_step: int, num_steps: int) -> int:
        """Validate a batch request and advance the cursor; returns end."""
        if num_steps < 0:
            raise ValueError(f"num_steps must be >= 0, got {num_steps}")
        if start_step != self._next_step:
            raise ValueError(
                f"arrivals_batch() must continue from step {self._next_step}, "
                f"got {start_step}"
            )
        self._next_step = start_step + num_steps
        return start_step + num_steps


_EMPTY_BATCH: ArrivalArrays = (
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
    np.empty(0, dtype=np.int64),
)


def _poisson_arrival_steps(
    rng: np.random.Generator, lam: float, start: int, end: int
) -> Iterator[tuple[int, int]]:
    """Yield ``(step, count)`` for each step of ``[start, end)`` with arrivals.

    Batches the per-step ``rng.poisson(lam)`` draws of the per-step path
    with a checkpoint/rewind on the bit generator: an array draw consumes
    the bit stream like sequential scalars, so when a non-zero count lands
    at offset ``j`` the state is rewound and re-advanced by exactly
    ``j + 1`` draws before the yield.  The caller makes its per-flow draws
    between yields, where the per-step path makes them.

    Because of the rewind, the consumed stream does not depend on the
    array size.  The size is set by the rate — about four expected
    arrivals, clamped to ``[16, 4096]`` steps — so a sparse stream is not
    drawn far past the next arrival only to be rewound.
    """
    bit_generator = rng.bit_generator
    size = 4096 if lam == 0 else int(min(4096.0, max(16.0, 4.0 / lam)))
    step = start
    while step < end:
        chunk = min(size, end - step)
        checkpoint = bit_generator.state
        counts = rng.poisson(lam, chunk)
        nonzero = np.flatnonzero(counts)
        if nonzero.size == 0:
            step += chunk
            continue
        j = int(nonzero[0])
        if j + 1 < chunk:
            bit_generator.state = checkpoint
            rng.poisson(lam, j + 1)  # identical prefix, exact state advance
        yield step + j, int(counts[j])
        step += j + 1


class PoissonFlowTraffic(_SequentialMixin, TrafficGenerator):
    """Open-loop Poisson flow arrivals (the websearch background traffic).

    Flows arrive as a Poisson process with ``flows_per_step`` expected
    arrivals per time step; each picks a uniform source, a uniform
    destination output port, a queue class from ``class_weights``, and a
    size from ``sizes`` (DCTCP websearch by default).
    """

    def __init__(
        self,
        num_sources: int,
        num_ports: int,
        flows_per_step: float,
        sizes: FlowSizeDistribution | None = None,
        class_weights: Sequence[float] = (0.5, 0.5),
        seed: RngLike = None,
    ):
        check_positive("num_ports", num_ports)
        if flows_per_step < 0:
            raise ValueError(f"flows_per_step must be >= 0, got {flows_per_step}")
        self._pool = _SourcePool(num_sources)
        self.num_ports = int(num_ports)
        self.flows_per_step = float(flows_per_step)
        self.sizes = sizes if sizes is not None else WebsearchSizes()
        weights = np.asarray(class_weights, dtype=float)
        if weights.ndim != 1 or (weights < 0).any() or weights.sum() == 0:
            raise ValueError(f"invalid class_weights: {class_weights}")
        self._class_probs = weights / weights.sum()
        self._rng = as_generator(seed)
        self._flow_counter = 0

    def arrivals(self, step: int) -> list[Packet]:
        self._check_step(step)
        num_new = self._rng.poisson(self.flows_per_step)
        for _ in range(num_new):
            source, flow = self._draw_flow()
            self._pool.inject(source, flow)
        return self._pool.emit(step)

    def _draw_flow(self) -> tuple[int, _ActiveFlow]:
        """Draw one flow's attributes in the canonical RNG call order."""
        source = int(self._rng.integers(self._pool.num_sources))
        dst = int(self._rng.integers(self.num_ports))
        qclass = int(self._rng.choice(len(self._class_probs), p=self._class_probs))
        size = self.sizes.sample(self._rng)
        flow = _ActiveFlow(self._flow_counter, dst, qclass, size)
        self._flow_counter += 1
        return source, flow

    def can_batch(self) -> bool:
        return True

    def rng_streams(self) -> tuple[np.random.Generator, ...]:
        return (self._rng,)

    def arrivals_batch(self, start_step: int, num_steps: int) -> ArrivalArrays:
        end = self._check_batch(start_step, num_steps)
        injections: list[tuple[int, int, _ActiveFlow]] = []
        for flow_step, count in _poisson_arrival_steps(
            self._rng, self.flows_per_step, start_step, end
        ):
            for _ in range(count):
                source, flow = self._draw_flow()
                injections.append((flow_step, source, flow))
        return self._pool.emit_batch(start_step, end, injections)


class IncastTraffic(_SequentialMixin, TrafficGenerator):
    """Periodic synchronised N-to-1 bursts (the incast workload).

    Every ``period`` steps (plus uniform jitter up to ``jitter``), ``fan_in``
    dedicated sources each start a flow of ``burst_size`` packets to the
    same destination port.  With per-source pacing of 1 packet/step, the
    victim port receives ``fan_in`` packets per step while draining one —
    the classic microburst.
    """

    def __init__(
        self,
        fan_in: int,
        burst_size: int,
        period: int,
        dst_port: int,
        qclass: int = 1,
        jitter: int = 0,
        seed: RngLike = None,
        start_step: int = 0,
    ):
        check_positive("fan_in", fan_in)
        check_positive("burst_size", burst_size)
        check_positive("period", period)
        if jitter < 0:
            raise ValueError(f"jitter must be >= 0, got {jitter}")
        self._pool = _SourcePool(fan_in)
        self.fan_in = int(fan_in)
        self.burst_size = int(burst_size)
        self.period = int(period)
        self.dst_port = int(dst_port)
        self.qclass = int(qclass)
        self.jitter = int(jitter)
        self._rng = as_generator(seed)
        self._flow_counter = 0
        self._next_burst = int(start_step)
        if jitter:
            self._next_burst += int(self._rng.integers(0, jitter + 1))

    def arrivals(self, step: int) -> list[Packet]:
        self._check_step(step)
        if step == self._next_burst:
            for source in range(self.fan_in):
                self._pool.inject(
                    source,
                    _ActiveFlow(
                        self._flow_counter, self.dst_port, self.qclass, self.burst_size
                    ),
                )
                self._flow_counter += 1
            self._advance_burst(step)
        return self._pool.emit(step)

    def _advance_burst(self, step: int) -> None:
        """Schedule the next burst (drawing jitter with the canonical calls)."""
        self._next_burst += self.period
        if self.jitter:
            self._next_burst += int(self._rng.integers(-self.jitter, self.jitter + 1))
            self._next_burst = max(self._next_burst, step + 1)

    def can_batch(self) -> bool:
        return True

    def rng_streams(self) -> tuple[np.random.Generator, ...]:
        return (self._rng,) if self.jitter else ()

    def arrivals_batch(self, start_step: int, num_steps: int) -> ArrivalArrays:
        end = self._check_batch(start_step, num_steps)
        injections: list[tuple[int, int, _ActiveFlow]] = []
        while start_step <= self._next_burst < end:
            burst_step = self._next_burst
            for source in range(self.fan_in):
                injections.append(
                    (
                        burst_step,
                        source,
                        _ActiveFlow(
                            self._flow_counter,
                            self.dst_port,
                            self.qclass,
                            self.burst_size,
                        ),
                    )
                )
                self._flow_counter += 1
            self._advance_burst(burst_step)
        return self._pool.emit_batch(start_step, end, injections)


class CompositeTraffic(_SequentialMixin, TrafficGenerator):
    """Superposition of independent generators (disjoint source pools)."""

    def __init__(self, generators: Iterable[TrafficGenerator]):
        self.generators = list(generators)
        if not self.generators:
            raise ValueError("CompositeTraffic needs at least one generator")

    def arrivals(self, step: int) -> list[Packet]:
        self._check_step(step)
        packets: list[Packet] = []
        for generator in self.generators:
            packets.extend(generator.arrivals(step))
        return packets

    def rng_streams(self) -> tuple[np.random.Generator, ...]:
        return tuple(rng for g in self.generators for rng in g.rng_streams())

    def can_batch(self) -> bool:
        """Batchable iff every child is, and no RNG is shared across children.

        With a shared generator object, child ``i``'s draws at step ``s``
        interleave between child ``j``'s draws at steps ``s`` and ``s + 1``
        in the per-step path; batching children one after another would
        consume the stream in a different order and change the traffic.
        """
        if not all(g.can_batch() for g in self.generators):
            return False
        owner: dict[int, int] = {}
        for child, generator in enumerate(self.generators):
            for rng in generator.rng_streams():
                if owner.setdefault(id(rng), child) != child:
                    return False
        return True

    def arrivals_batch(self, start_step: int, num_steps: int) -> ArrivalArrays:
        if not self.can_batch():
            raise NotImplementedError(
                "CompositeTraffic cannot batch: a child generator is "
                "unbatchable or an RNG is shared across children"
            )
        end = self._check_batch(start_step, num_steps)
        parts = [g.arrivals_batch(start_step, end - start_step) for g in self.generators]
        if len(parts) == 1:
            return parts[0]
        steps = np.concatenate([p[0] for p in parts])
        dsts = np.concatenate([p[1] for p in parts])
        qclasses = np.concatenate([p[2] for p in parts])
        # Children are concatenated in order, so a stable sort on the step
        # reproduces the per-step concatenation order within each step.
        order = np.argsort(steps, kind="stable")
        return steps[order], dsts[order], qclasses[order]


class ScriptedTraffic(_SequentialMixin, TrafficGenerator):
    """Deterministic arrivals from an explicit step → packets script.

    Used by tests and by the FM-model experiments, where a known tiny
    scenario must be reproduced exactly.
    """

    def __init__(self, script: dict[int, Sequence[tuple[int, int]]]):
        """``script`` maps step → list of (dst_port, qclass) arrivals."""
        self.script = {int(k): list(v) for k, v in script.items()}

    def arrivals(self, step: int) -> list[Packet]:
        self._check_step(step)
        return [
            Packet(dst_port=dst, qclass=qclass, flow_id=-1, arrival_step=step)
            for dst, qclass in self.script.get(step, [])
        ]

    def can_batch(self) -> bool:
        return True

    def arrivals_batch(self, start_step: int, num_steps: int) -> ArrivalArrays:
        end = self._check_batch(start_step, num_steps)
        steps: list[int] = []
        dsts: list[int] = []
        qclasses: list[int] = []
        for step in sorted(self.script):
            if start_step <= step < end:
                for dst, qclass in self.script[step]:
                    steps.append(step)
                    dsts.append(dst)
                    qclasses.append(qclass)
        if not steps:
            return _EMPTY_BATCH
        return (
            np.asarray(steps, dtype=np.int64),
            np.asarray(dsts, dtype=np.int64),
            np.asarray(qclasses, dtype=np.int64),
        )
