"""Flow-level traffic: sampled flows with RTT-derived pacing.

The packet-level generators (:mod:`repro.traffic.generators`) model
sources as line-rate NICs — a flow occupies its source and emits one
packet every step.  The flow-level mode here abstracts the source away:
a flow is sampled with a size *and an RTT*, and its packets are paced at
``cwnd`` packets per RTT (an open-loop stand-in for a congestion window
in steady state).  One config then spans orders of magnitude in scale —
long-RTT flows trickle, short-RTT flows behave like the line-rate pool —
which is what the m4 line of work motivates for scenario generation.

:class:`FlowTrafficGenerator` keeps the repo's two iron rules:

* **determinism** — every run is a pure function of the config and seed;
* **batch parity** — :meth:`arrivals_batch` is bit-identical to the
  per-step path (same packets, same within-step order, same RNG
  consumption), so the array engine and the fabric feed can batch it.
  The Poisson flow-arrival draws reuse the checkpoint/rewind helper of
  :class:`~repro.traffic.generators.PoissonFlowTraffic`; per-flow packet
  times are a deterministic arithmetic progression, so batching them is
  exact by construction.

Within a step, packets are emitted in flow creation order (older flows
first) — the rule both paths implement.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.switchsim.packet import Packet
from repro.traffic.distributions import (
    FixedSizes,
    FlowSizeDistribution,
    ParetoSizes,
    WebsearchSizes,
)
from repro.traffic.generators import (
    ArrivalArrays,
    TrafficGenerator,
    _poisson_arrival_steps,
    _SequentialMixin,
)
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive

__all__ = ["FlowTrafficConfig", "FlowTrafficGenerator"]


@dataclass(frozen=True)
class FlowTrafficConfig:
    """Schema-facing description of a flow-level workload (TOML-ready).

    ``size_dist`` selects the flow-size law: ``"websearch"`` (the DCTCP
    CDF, scaled by ``websearch_scale``), ``"pareto"``, or ``"fixed"``.
    RTTs are uniform integers in ``[min_rtt_steps, max_rtt_steps]``; a
    flow emits ``cwnd`` packets per RTT, i.e. one packet every
    ``max(1, rtt // cwnd)`` steps.  ``class_weights`` gives the queue-
    class sampling weights (its length is the number of classes).
    """

    flows_per_step: float = 0.02
    num_ports: int = 2
    size_dist: str = "websearch"
    websearch_scale: float = 1.0
    fixed_size: int = 20
    pareto_shape: float = 1.2
    pareto_max: int = 1000
    min_rtt_steps: int = 4
    max_rtt_steps: int = 32
    cwnd: int = 4
    class_weights: tuple[float, ...] = (0.5, 0.5)

    def __post_init__(self):
        if self.flows_per_step < 0:
            raise ValueError(
                f"flows_per_step must be >= 0, got {self.flows_per_step}"
            )
        check_positive("num_ports", self.num_ports)
        if self.size_dist not in ("websearch", "pareto", "fixed"):
            raise ValueError(
                f'size_dist must be "websearch", "pareto", or "fixed", '
                f"got {self.size_dist!r}"
            )
        check_positive("fixed_size", self.fixed_size)
        check_positive("min_rtt_steps", self.min_rtt_steps)
        check_positive("cwnd", self.cwnd)
        if self.max_rtt_steps < self.min_rtt_steps:
            raise ValueError(
                f"need min_rtt_steps <= max_rtt_steps, got "
                f"{self.min_rtt_steps} > {self.max_rtt_steps}"
            )
        if not self.class_weights or any(w < 0 for w in self.class_weights):
            raise ValueError(f"invalid class_weights: {self.class_weights}")
        if sum(self.class_weights) == 0:
            raise ValueError("class_weights must not sum to zero")

    def size_distribution(self) -> FlowSizeDistribution:
        if self.size_dist == "websearch":
            return WebsearchSizes(self.websearch_scale)
        if self.size_dist == "pareto":
            return ParetoSizes(shape=self.pareto_shape, maximum=self.pareto_max)
        return FixedSizes(self.fixed_size)


@dataclass
class _PacedFlow:
    """A flow mid-transmission: next emission step, gap, packets left."""

    flow_id: int
    dst_port: int
    qclass: int
    next_step: int
    gap: int
    remaining: int


class FlowTrafficGenerator(_SequentialMixin, TrafficGenerator):
    """Open-loop flow-level arrivals paced by sampled RTTs.

    Flows arrive as a Poisson process (``flows_per_step`` expected per
    step).  Each draws, in canonical RNG order: destination port, queue
    class, size, RTT.  Its packets then arrive deterministically every
    ``max(1, rtt // cwnd)`` steps starting at the flow's arrival step —
    there is no source pool; flow-level mode is open-loop by design.
    """

    def __init__(self, config: FlowTrafficConfig, seed: RngLike = None):
        self.config = config
        self.sizes = config.size_distribution()
        weights = np.asarray(config.class_weights, dtype=float)
        self._class_probs = weights / weights.sum()
        self._rng = as_generator(seed)
        self._flow_counter = 0
        self._active: list[_PacedFlow] = []

    def can_batch(self) -> bool:
        return True

    def rng_streams(self) -> tuple[np.random.Generator, ...]:
        return (self._rng,)

    def _draw_flow(self, step: int) -> _PacedFlow:
        """Sample one flow's attributes in the canonical RNG call order."""
        cfg = self.config
        rng = self._rng
        dst = int(rng.integers(cfg.num_ports))
        qclass = int(rng.choice(len(self._class_probs), p=self._class_probs))
        size = self.sizes.sample(rng)
        rtt = int(rng.integers(cfg.min_rtt_steps, cfg.max_rtt_steps + 1))
        gap = max(1, rtt // cfg.cwnd)
        flow = _PacedFlow(self._flow_counter, dst, qclass, step, gap, size)
        self._flow_counter += 1
        return flow

    def arrivals(self, step: int) -> list[Packet]:
        self._check_step(step)
        num_new = self._rng.poisson(self.config.flows_per_step)
        for _ in range(num_new):
            self._active.append(self._draw_flow(step))
        packets: list[Packet] = []
        still_active: list[_PacedFlow] = []
        for flow in self._active:
            if flow.next_step == step:
                packets.append(
                    Packet(
                        dst_port=flow.dst_port,
                        qclass=flow.qclass,
                        flow_id=flow.flow_id,
                        arrival_step=step,
                    )
                )
                flow.remaining -= 1
                flow.next_step = step + flow.gap
            if flow.remaining > 0:
                still_active.append(flow)
        self._active = still_active
        return packets

    def arrivals_batch(self, start_step: int, num_steps: int) -> ArrivalArrays:
        end = self._check_batch(start_step, num_steps)
        # New flows of the span, via the Poisson batching PoissonFlowTraffic
        # uses (identical RNG stream).
        for flow_step, count in _poisson_arrival_steps(
            self._rng, self.config.flows_per_step, start_step, end
        ):
            for _ in range(count):
                self._active.append(self._draw_flow(flow_step))
        # Every flow (pre-existing and new, in creation order) contributes
        # an arithmetic progression of steps clipped to the span; a stable
        # sort by step then reproduces the per-step emission order.
        step_parts: list[np.ndarray] = []
        dsts: list[int] = []
        qclasses: list[int] = []
        counts_per_flow: list[int] = []
        still_active: list[_PacedFlow] = []
        for flow in self._active:
            if flow.next_step < end and flow.remaining > 0:
                emitted = min(
                    flow.remaining,
                    (end - flow.next_step + flow.gap - 1) // flow.gap,
                )
                stop = flow.next_step + emitted * flow.gap
                step_parts.append(
                    np.arange(flow.next_step, stop, flow.gap, dtype=np.int64)
                )
                dsts.append(flow.dst_port)
                qclasses.append(flow.qclass)
                counts_per_flow.append(emitted)
                flow.remaining -= emitted
                flow.next_step = stop
            if flow.remaining > 0:
                still_active.append(flow)
        self._active = still_active
        if not step_parts:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty.copy(), empty.copy()
        steps = np.concatenate(step_parts)
        dst_arr = np.repeat(np.asarray(dsts, dtype=np.int64), counts_per_flow)
        qclass_arr = np.repeat(np.asarray(qclasses, dtype=np.int64), counts_per_flow)
        # Stable: progressions are concatenated in flow creation order, so
        # equal steps keep older-flow-first order, matching arrivals().
        order = np.argsort(steps, kind="stable")
        return steps[order], dst_arr[order], qclass_arr[order]
