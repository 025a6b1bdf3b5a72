"""Vectorized fast-path switch engine.

The reference engine (:class:`~repro.switchsim.switch.OutputQueuedSwitch`)
simulates one packet time step at a time over Python ``OutputQueue``
objects — clear, but slow: every step allocates counter arrays, walks
scheduler objects, and boxes each packet in a dataclass.  Since the
simulator feeds *every* experiment in this repo (Table 1, Fig. 4, the
ablations, all training datasets), that per-step overhead is the binding
constraint on how many scenarios and seeds the evaluation can sweep.

:class:`ArraySwitchEngine` replaces the object graph with flat array
state and processes whole fine-grained bins per inner call:

* per-queue FIFO occupancy lives in preallocated **ring buffers of
  arrival timestamps** (one fixed-capacity row per queue — a packet is
  just its arrival step, there is no per-packet object);
* queue lengths, shared-buffer occupancy, and the per-port round-robin
  pointers are flat arrays updated incrementally;
* arrivals are materialised thousands of steps at a time through
  :meth:`~repro.traffic.generators.TrafficGenerator.arrivals_batch` (with
  a per-step fallback for generators that cannot batch);
* per-bin outputs (``qlen``, ``qlen_max``, port counters, buffer
  occupancy) are written as whole columns once per bin, and bins that are
  provably inert (empty buffer, no arrivals) are skipped outright.

Inside the per-step core the mutable state is mirrored into plain Python
lists: CPython list indexing is ~3× faster than numpy scalar indexing,
and admission is inherently sequential (each admitted packet shrinks the
Dynamic-Threshold seen by the next, and an AQM policy such as RED draws
from its own RNG per packet), so the inner recurrence cannot itself be
expressed as a whole-array operation.  All bin-level aggregation is
numpy.

The engine is **bit-identical** to the reference engine: admission order,
DT thresholds, round-robin state, and delay accounting replicate
``OutputQueuedSwitch.step`` exactly, which the equivalence property tests
(``tests/switchsim/test_engine_equivalence.py``) assert across randomized
configurations, traffic mixes, and seeds.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterable

import numpy as np

import repro.obs as obs
from repro.switchsim.aqm import AQM_DROP, AqmPolicy
from repro.switchsim.scheduler import RoundRobinScheduler, StrictPriorityScheduler
from repro.switchsim.simulation import SimulationTrace
from repro.switchsim.switch import SwitchConfig

if TYPE_CHECKING:  # avoid a circular import: traffic depends on switchsim
    from repro.traffic.generators import TrafficGenerator

#: Target number of steps per arrival-materialisation chunk.
_CHUNK_STEPS = 8192


class EngineUnsupported(ValueError):
    """The array engine cannot reproduce this configuration bit-exactly."""


def _scheduler_mode(config: SwitchConfig) -> str | None:
    """``"rr"``/``"sp"`` when the array engine supports the scheduler.

    Exact-type checks on a probe instance: a subclass may override
    ``select`` with different semantics, and deficit round robin carries
    quantum state the flat round-robin pointer cannot express.
    """
    probe = config.scheduler_factory()
    if type(probe) is RoundRobinScheduler:
        return "rr"
    if type(probe) is StrictPriorityScheduler:
        return "sp"
    return None


class ArraySwitchEngine:
    """Array-based switch core running whole bins per inner call.

    State persists across :meth:`run` calls (like the reference switch
    object), so a driver may simulate a trace in several installments.

    Without an AQM policy, admission is the inline Dynamic-Threshold
    check.  With one, every packet's admission is
    ``aqm.admit(length, alpha, occupancy, capacity)`` — the call
    :meth:`~repro.switchsim.queues.OutputQueue.offer` makes, in the same
    packet order — and ``AQM_DROP`` is a drop.  ``aqm`` defaults to a
    fresh ``config.aqm_factory()``; :class:`~repro.switchsim.simulation.
    Simulation` passes its switch's instance so one policy serves the run.
    """

    def __init__(self, config: SwitchConfig, aqm: AqmPolicy | None = None):
        mode = _scheduler_mode(config)
        if mode is None:
            raise EngineUnsupported(
                f"array engine supports RoundRobinScheduler and "
                f"StrictPriorityScheduler only; config builds "
                f"{type(config.scheduler_factory()).__name__} — use "
                f'engine="reference"'
            )
        self.config = config
        if aqm is None and config.aqm_factory is not None:
            aqm = config.aqm_factory()
        self.aqm = aqm
        capacity = config.buffer_capacity
        num_queues = config.num_queues
        # A queue can never exceed the shared buffer, so one buffer-sized
        # ring of arrival timestamps per queue always suffices.
        self._rings: list[list[int]] = [[0] * capacity for _ in range(num_queues)]
        self._heads = [0] * num_queues
        self._tails = [0] * num_queues
        self._lengths = [0] * num_queues
        self._occupancy = 0
        # Round-robin pointers; strict priority keeps them pinned at 0 by
        # masking the post-serve update, making one dequeue path serve both.
        self._rr_next = [0] * config.num_ports
        self._rr_mask = 1 if mode == "rr" else 0
        self._alphas = [
            float(config.alphas[i % config.queues_per_port]) for i in range(num_queues)
        ]
        self.step_count = 0

    # ------------------------------------------------------------------
    # Introspection (array views of the flat state)
    # ------------------------------------------------------------------
    @classmethod
    def supports(cls, config: SwitchConfig) -> bool:
        """Whether this engine can run ``config`` bit-identically."""
        return _scheduler_mode(config) is not None

    def queue_lengths(self) -> np.ndarray:
        """Current lengths of all queues, in flat queue order."""
        return np.asarray(self._lengths, dtype=np.int64)

    @property
    def buffer_occupancy(self) -> int:
        return self._occupancy

    # ------------------------------------------------------------------
    # Arrival materialisation
    # ------------------------------------------------------------------
    def _materialize(
        self, traffic: "TrafficGenerator", start: int, num_steps: int
    ) -> tuple[list[int], list[int], list[int], list[int]]:
        """Flat per-packet lists (step, qidx, port, arrival_step) for the span."""
        cfg = self.config
        queues_per_port = cfg.queues_per_port
        if traffic.can_batch():
            steps, dsts, qclasses = traffic.arrivals_batch(start, num_steps)
            if steps.size == 0:
                return [], [], [], []
            invalid = (
                (dsts < 0)
                | (dsts >= cfg.num_ports)
                | (qclasses < 0)
                | (qclasses >= queues_per_port)
            )
            if invalid.any():
                bad = int(np.argmax(invalid))
                raise IndexError(
                    f"arrival out of range: dst_port={int(dsts[bad])}, "
                    f"qclass={int(qclasses[bad])} for {cfg.num_ports} ports × "
                    f"{queues_per_port} queues"
                )
            qidx = dsts * queues_per_port + qclasses
            step_list = steps.tolist()
            return step_list, qidx.tolist(), dsts.tolist(), step_list
        step_list: list[int] = []
        qidx_list: list[int] = []
        port_list: list[int] = []
        arrival_list: list[int] = []
        queue_index = cfg.queue_index
        for step in range(start, start + num_steps):
            for packet in traffic.arrivals(step):
                qidx_list.append(queue_index(packet.dst_port, packet.qclass))
                step_list.append(step)
                port_list.append(packet.dst_port)
                arrival_list.append(
                    packet.arrival_step if packet.arrival_step >= 0 else step
                )
        return step_list, qidx_list, port_list, arrival_list

    # ------------------------------------------------------------------
    # Simulation
    # ------------------------------------------------------------------
    def run(
        self, traffic: "TrafficGenerator", num_bins: int, steps_per_bin: int
    ) -> SimulationTrace:
        """Simulate ``num_bins`` fine-grained bins and return the trace."""
        # One coarse span per run — never per bin or step — so the
        # disabled-path overhead on the hot loop stays unmeasurable.
        with obs.span("switchsim.array.run", num_bins=int(num_bins)):
            return self._run(traffic, num_bins, steps_per_bin)

    def _run(
        self, traffic: "TrafficGenerator", num_bins: int, steps_per_bin: int
    ) -> SimulationTrace:
        cfg = self.config
        num_queues = cfg.num_queues
        num_ports = cfg.num_ports
        queues_per_port = cfg.queues_per_port
        capacity = cfg.buffer_capacity

        qlen = np.zeros((num_queues, num_bins), dtype=np.int64)
        qlen_max = np.zeros((num_queues, num_bins), dtype=np.int64)
        received = np.zeros((num_ports, num_bins), dtype=np.int64)
        sent = np.zeros((num_ports, num_bins), dtype=np.int64)
        dropped = np.zeros((num_ports, num_bins), dtype=np.int64)
        delay_sum = np.zeros((num_ports, num_bins), dtype=np.int64)
        occupancy_out = np.zeros(num_bins, dtype=np.int64)

        # Hot-loop locals: attribute lookups are hoisted once per run.
        rings = self._rings
        heads = self._heads
        tails = self._tails
        lengths = self._lengths
        rr_next = self._rr_next
        rr_mask = self._rr_mask
        alphas = self._alphas
        admit = self.aqm.admit if self.aqm is not None else None
        occ = self._occupancy
        two_queues = queues_per_port == 2
        port_range = range(num_ports)
        qclass_range = range(queues_per_port)

        bins_per_chunk = max(1, _CHUNK_STEPS // steps_per_bin)
        start_step = self.step_count
        for chunk_bin in range(0, num_bins, bins_per_chunk):
            chunk_bins = min(bins_per_chunk, num_bins - chunk_bin)
            chunk_start = start_step + chunk_bin * steps_per_bin
            psteps, pqidx, pports, parrivals = self._materialize(
                traffic, chunk_start, chunk_bins * steps_per_bin
            )
            num_packets = len(psteps)
            cursor = 0
            step = chunk_start
            for b in range(chunk_bin, chunk_bin + chunk_bins):
                bin_end = step + steps_per_bin
                if occ == 0 and (cursor >= num_packets or psteps[cursor] >= bin_end):
                    # Inert bin: nothing buffered, nothing arriving — all
                    # outputs for this bin are the zeros already in place.
                    step = bin_end
                    continue
                bin_max = lengths
                first_step = True
                recv_b = [0] * num_ports
                sent_b = [0] * num_ports
                drop_b = [0] * num_ports
                delay_b = [0] * num_ports
                while step < bin_end:
                    touched: list[int] = []
                    # --- arrivals: sequential admission (DT or the policy) ---
                    while cursor < num_packets and psteps[cursor] == step:
                        qi = pqidx[cursor]
                        port = pports[cursor]
                        recv_b[port] += 1
                        if admit is None:
                            admitted = occ < capacity and lengths[qi] < alphas[qi] * (
                                capacity - occ
                            )
                        else:
                            admitted = (
                                admit(lengths[qi], alphas[qi], occ, capacity) != AQM_DROP
                            )
                        if admitted:
                            tail = tails[qi]
                            rings[qi][tail] = parrivals[cursor]
                            tails[qi] = tail + 1 if tail + 1 < capacity else 0
                            lengths[qi] += 1
                            occ += 1
                            touched.append(qi)
                        else:
                            drop_b[port] += 1
                        cursor += 1
                    # --- departures: one packet per port at line rate ---
                    if occ:
                        if two_queues:
                            for port in port_range:
                                base = port + port
                                offset = rr_next[port]
                                qi = base + offset
                                if not lengths[qi]:
                                    offset = 1 - offset
                                    qi = base + offset
                                    if not lengths[qi]:
                                        continue
                                head = heads[qi]
                                arrival = rings[qi][head]
                                heads[qi] = head + 1 if head + 1 < capacity else 0
                                lengths[qi] -= 1
                                occ -= 1
                                sent_b[port] += 1
                                delay_b[port] += step - arrival
                                rr_next[port] = (1 - offset) & rr_mask
                                touched.append(qi)
                        else:
                            for port in port_range:
                                base = port * queues_per_port
                                pointer = rr_next[port]
                                for probe in qclass_range:
                                    offset = pointer + probe
                                    if offset >= queues_per_port:
                                        offset -= queues_per_port
                                    qi = base + offset
                                    if lengths[qi]:
                                        head = heads[qi]
                                        arrival = rings[qi][head]
                                        heads[qi] = (
                                            head + 1 if head + 1 < capacity else 0
                                        )
                                        lengths[qi] -= 1
                                        occ -= 1
                                        sent_b[port] += 1
                                        delay_b[port] += step - arrival
                                        next_offset = offset + 1
                                        if next_offset >= queues_per_port:
                                            next_offset = 0
                                        rr_next[port] = next_offset * rr_mask
                                        touched.append(qi)
                                        break
                    # --- per-bin max of the post-departure lengths ---
                    if first_step:
                        bin_max = lengths[:]
                        first_step = False
                    else:
                        for qi in touched:
                            length = lengths[qi]
                            if length > bin_max[qi]:
                                bin_max[qi] = length
                    step += 1
                qlen[:, b] = lengths
                qlen_max[:, b] = bin_max
                received[:, b] = recv_b
                sent[:, b] = sent_b
                dropped[:, b] = drop_b
                delay_sum[:, b] = delay_b
                occupancy_out[b] = occ

        self._occupancy = occ
        self.step_count = start_step + num_bins * steps_per_bin
        trace = SimulationTrace(
            config=cfg,
            steps_per_bin=steps_per_bin,
            qlen=qlen,
            qlen_max=qlen_max,
            received=received,
            sent=sent,
            dropped=dropped,
            delay_sum=delay_sum,
            buffer_occupancy=occupancy_out,
        )
        trace.validate()
        return trace
