"""Markov on-off traffic, a bursty source beside the websearch/incast mix of §4.

:class:`OnOffTraffic` is a per-source two-state Markov source (ON: one
packet per step to a fixed destination, OFF: silence), the classic
bursty-source model with tunable burstiness.  The engine-equivalence
property tests drive both switch engines with it; recorded per-step
arrivals are replayed with :class:`~repro.traffic.generators.ScriptedTraffic`.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.switchsim.packet import Packet
from repro.traffic.generators import TrafficGenerator, _SequentialMixin
from repro.utils.rng import RngLike, as_generator
from repro.utils.validation import check_positive


class OnOffTraffic(_SequentialMixin, TrafficGenerator):
    """Independent two-state Markov on-off sources.

    Each source flips between ON and OFF with the given per-step
    transition probabilities; while ON it emits one packet per step to its
    (fixed) destination queue.  Mean burst length is ``1/p_off`` steps and
    the long-run load per source is ``p_on / (p_on + p_off)``.
    """

    def __init__(
        self,
        num_sources: int,
        num_ports: int,
        p_on: float,
        p_off: float,
        class_weights: Sequence[float] = (0.5, 0.5),
        seed: RngLike = None,
    ):
        check_positive("num_sources", num_sources)
        check_positive("num_ports", num_ports)
        if not (0 < p_on <= 1 and 0 < p_off <= 1):
            raise ValueError(f"transition probabilities must be in (0, 1], got {p_on}, {p_off}")
        self.num_sources = int(num_sources)
        self.num_ports = int(num_ports)
        self.p_on = float(p_on)
        self.p_off = float(p_off)
        weights = np.asarray(class_weights, dtype=float)
        if weights.ndim != 1 or (weights < 0).any() or weights.sum() == 0:
            raise ValueError(f"invalid class_weights: {class_weights}")
        self._rng = as_generator(seed)
        self._on = np.zeros(self.num_sources, dtype=bool)
        self._dst = self._rng.integers(0, self.num_ports, size=self.num_sources)
        probs = weights / weights.sum()
        self._qclass = self._rng.choice(len(probs), size=self.num_sources, p=probs)

    @property
    def expected_load_per_source(self) -> float:
        """Long-run fraction of steps each source spends transmitting."""
        return self.p_on / (self.p_on + self.p_off)

    def arrivals(self, step: int) -> list[Packet]:
        self._check_step(step)
        flips = self._rng.random(self.num_sources)
        turning_on = ~self._on & (flips < self.p_on)
        turning_off = self._on & (flips < self.p_off)
        # A source that turns on picks a fresh destination (a new "flow").
        if turning_on.any():
            self._dst[turning_on] = self._rng.integers(
                0, self.num_ports, size=int(turning_on.sum())
            )
        self._on = (self._on | turning_on) & ~turning_off

        return [
            Packet(
                dst_port=int(self._dst[src]),
                qclass=int(self._qclass[src]),
                flow_id=src,
                arrival_step=step,
            )
            for src in np.nonzero(self._on)[0]
        ]
