"""Pluggable admission (AQM) policies for the shared-buffer switch.

The paper's case study bakes Choudhury & Hahne's Dynamic Threshold (DT)
into the admission path (:mod:`repro.switchsim.buffer`).  The ML-for-AQM
survey taxonomizes a wider design space — probabilistic early drop (RED)
and ECN marking being the canonical non-DT members — so this module
extracts the admission decision behind a strategy interface:

* :class:`DtPolicy` — the paper's Dynamic Threshold, verbatim;
* :class:`RedPolicy` — RED-style probabilistic early drop *inside* the
  DT envelope (DT still bounds every queue, so the PR-2 admission-bound
  oracle stays valid for RED traces);
* :class:`EcnPolicy` — ECN marking: packets above the mark threshold are
  admitted but counted as marked (the congestion signal the endpoints
  would see), again inside the DT envelope.

The default path — ``SwitchConfig.aqm_factory is None`` — never touches
this module: :class:`~repro.switchsim.queues.OutputQueue` keeps calling
``SharedBuffer.admits`` directly (and the array engine its inline DT
check), so the DT traces pinned by the golden fingerprints stay
bit-identical.  A non-``None`` factory routes every admission through
:meth:`AqmPolicy.admit` in both engines: the reference
:class:`~repro.switchsim.queues.OutputQueue` and the array
:class:`~repro.switchsim.engine.ArraySwitchEngine` make the same call
with the same four arguments in the same packet order, so each policy
has one implementation and the two engines stay bit-identical.

:class:`AqmConfig` is the schema-facing description (primitives only, so
it digests and round-trips through TOML); :meth:`AqmConfig.factory`
turns it into the ``aqm_factory`` callable ``SwitchConfig`` carries.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

__all__ = [
    "AQM_DROP",
    "AQM_ADMIT",
    "AQM_ADMIT_MARK",
    "AqmPolicy",
    "DtPolicy",
    "RedPolicy",
    "EcnPolicy",
    "AqmConfig",
]

#: Admission decisions returned by :meth:`AqmPolicy.admit`.
AQM_DROP = 0
AQM_ADMIT = 1
AQM_ADMIT_MARK = 2


class AqmPolicy(abc.ABC):
    """Admission strategy for one switch's shared buffer.

    One policy instance is shared by all queues of a switch (RED's RNG
    stream and the mark/drop counters are per switch, like hardware).
    ``admit`` sees the same four quantities the DT check reads — the
    candidate queue's length and alpha, and the buffer occupancy and
    capacity — and returns one of the ``AQM_*`` decisions.
    """

    def __init__(self) -> None:
        self.early_drops = 0
        self.packets_marked = 0

    @staticmethod
    def dt_admits(
        queue_length: int, alpha: float, occupancy: int, capacity: int
    ) -> bool:
        """The Dynamic-Threshold envelope every policy stays inside."""
        return occupancy < capacity and queue_length < alpha * (capacity - occupancy)

    @abc.abstractmethod
    def admit(
        self, queue_length: int, alpha: float, occupancy: int, capacity: int
    ) -> int:
        """Decide one packet's fate; returns an ``AQM_*`` constant."""

    def reset(self) -> None:
        """Clear counters (and any RNG state) for a fresh run."""
        self.early_drops = 0
        self.packets_marked = 0


class DtPolicy(AqmPolicy):
    """Dynamic Threshold as a policy object.

    Behaviourally identical to the legacy ``aqm_factory=None`` path; it
    exists so differential tests can pin the strategy seam itself.
    """

    def admit(
        self, queue_length: int, alpha: float, occupancy: int, capacity: int
    ) -> int:
        if self.dt_admits(queue_length, alpha, occupancy, capacity):
            return AQM_ADMIT
        return AQM_DROP


class RedPolicy(AqmPolicy):
    """RED-style probabilistic early drop inside the DT envelope.

    Below ``min_th`` packets always enter; from ``min_th`` the drop
    probability ramps linearly to ``max_p`` at ``max_th``, above which
    every packet is dropped early.  The instantaneous queue length
    stands in for RED's EWMA (the simulator steps are already coarse
    relative to packet times).  Early drops are counted separately from
    DT/capacity drops so traces can attribute loss to the policy.
    """

    def __init__(
        self, min_th: float, max_th: float, max_p: float, seed: int = 0
    ) -> None:
        super().__init__()
        if not 0 <= min_th < max_th:
            raise ValueError(
                f"need 0 <= min_th < max_th, got min_th={min_th}, max_th={max_th}"
            )
        if not 0.0 <= max_p <= 1.0:
            raise ValueError(f"max_p must lie in [0, 1], got {max_p}")
        self.min_th = float(min_th)
        self.max_th = float(max_th)
        self.max_p = float(max_p)
        self.seed = int(seed)
        self._rng = np.random.default_rng(self.seed)

    def admit(
        self, queue_length: int, alpha: float, occupancy: int, capacity: int
    ) -> int:
        if not self.dt_admits(queue_length, alpha, occupancy, capacity):
            return AQM_DROP
        if queue_length < self.min_th:
            return AQM_ADMIT
        if queue_length >= self.max_th:
            self.early_drops += 1
            return AQM_DROP
        ramp = (queue_length - self.min_th) / (self.max_th - self.min_th)
        if self._rng.random() < self.max_p * ramp:
            self.early_drops += 1
            return AQM_DROP
        return AQM_ADMIT

    def reset(self) -> None:
        super().reset()
        self._rng = np.random.default_rng(self.seed)


class EcnPolicy(AqmPolicy):
    """ECN marking inside the DT envelope: signal congestion, drop nothing.

    Packets joining a queue at or above ``mark_threshold`` are admitted
    with the congestion-experienced bit conceptually set; the simulator
    records the mark count per queue (``OutputQueue.total_marked``)
    rather than mutating the packet, so trace shapes are unchanged.
    """

    def __init__(self, mark_threshold: float) -> None:
        super().__init__()
        if mark_threshold < 0:
            raise ValueError(f"mark_threshold must be >= 0, got {mark_threshold}")
        self.mark_threshold = float(mark_threshold)

    def admit(
        self, queue_length: int, alpha: float, occupancy: int, capacity: int
    ) -> int:
        if not self.dt_admits(queue_length, alpha, occupancy, capacity):
            return AQM_DROP
        if queue_length >= self.mark_threshold:
            self.packets_marked += 1
            return AQM_ADMIT_MARK
        return AQM_ADMIT


@dataclass(frozen=True)
class AqmConfig:
    """Schema-facing AQM description (primitives only, TOML-expressible).

    ``policy`` selects the strategy: ``"dt"`` (the default — and the
    legacy bit-identical path, :meth:`factory` returns ``None``),
    ``"red"``, or ``"ecn"``.  RED thresholds and the ECN mark point are
    *fractions of the shared-buffer capacity*, so one config scales
    across buffer sizes.
    """

    policy: str = "dt"
    red_min_frac: float = 0.15
    red_max_frac: float = 0.5
    red_max_p: float = 0.1
    ecn_mark_frac: float = 0.3
    seed: int = 0

    def __post_init__(self):
        if self.policy not in ("dt", "red", "ecn"):
            raise ValueError(
                f'policy must be "dt", "red", or "ecn", got {self.policy!r}'
            )
        if not 0.0 <= self.red_min_frac < self.red_max_frac <= 1.0:
            raise ValueError(
                "need 0 <= red_min_frac < red_max_frac <= 1, got "
                f"{self.red_min_frac} / {self.red_max_frac}"
            )
        if not 0.0 <= self.red_max_p <= 1.0:
            raise ValueError(f"red_max_p must lie in [0, 1], got {self.red_max_p}")
        if not 0.0 <= self.ecn_mark_frac <= 1.0:
            raise ValueError(
                f"ecn_mark_frac must lie in [0, 1], got {self.ecn_mark_frac}"
            )

    def factory(
        self, buffer_capacity: int
    ) -> Optional[Callable[[], AqmPolicy]]:
        """The ``SwitchConfig.aqm_factory`` for this config.

        Returns ``None`` for ``"dt"`` so the default scenario keeps the
        legacy admission path (and the array fast path) untouched.
        """
        if self.policy == "dt":
            return None
        if self.policy == "red":
            min_th = self.red_min_frac * buffer_capacity
            max_th = self.red_max_frac * buffer_capacity
            max_p = self.red_max_p
            seed = self.seed
            return lambda: RedPolicy(min_th, max_th, max_p, seed=seed)
        mark = self.ecn_mark_frac * buffer_capacity
        return lambda: EcnPolicy(mark)
