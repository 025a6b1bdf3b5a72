"""Flow-size distributions, including the DCTCP websearch workload.

Flow sizes are measured in packets.  The websearch CDF is the standard
piecewise-linear fit used across the datacenter literature (DCTCP,
Alizadeh et al. 2010), scaled from bytes to packets assuming 1 kB packets;
it is heavy-tailed: most flows are mice, most bytes come from elephants.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

import numpy as np

from repro.utils.rng import as_generator


class FlowSizeDistribution(ABC):
    """Samples flow sizes in packets."""

    @abstractmethod
    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` flow sizes (each >= 1 packet) as an int64 array.

        Consumes the generator exactly as ``n`` sequential :meth:`sample`
        calls would, so batch and one-at-a-time draws are interchangeable.
        """

    def sample(self, rng: np.random.Generator) -> int:
        """Draw one flow size (>= 1 packet)."""
        return int(self.sample_many(rng, 1)[0])

    def mean(self) -> float:
        """Monte-Carlo estimate of the mean flow size (used for load calc)."""
        return float(np.mean(self.sample_many(as_generator(12345), 20000)))


class FixedSizes(FlowSizeDistribution):
    """Every flow has the same size — useful for deterministic tests."""

    def __init__(self, size: int):
        if size < 1:
            raise ValueError(f"flow size must be >= 1 packet, got {size}")
        self.size = int(size)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        return np.full(n, self.size, dtype=np.int64)

    def mean(self) -> float:
        return float(self.size)


class ParetoSizes(FlowSizeDistribution):
    """Bounded Pareto flow sizes — a generic heavy-tailed workload."""

    def __init__(self, shape: float = 1.2, minimum: int = 1, maximum: int = 1000):
        if shape <= 0:
            raise ValueError(f"shape must be positive, got {shape}")
        if not 1 <= minimum <= maximum:
            raise ValueError(f"need 1 <= minimum <= maximum, got {minimum}, {maximum}")
        self.shape = shape
        self.minimum = minimum
        self.maximum = maximum

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        # Inverse-CDF sampling of a bounded Pareto.
        u = rng.random(n)
        lo, hi, a = float(self.minimum), float(self.maximum), self.shape
        x = (lo**a / (1.0 - u * (1.0 - (lo / hi) ** a))) ** (1.0 / a)
        return np.clip(np.rint(x), self.minimum, self.maximum).astype(np.int64)


class WebsearchSizes(FlowSizeDistribution):
    """DCTCP websearch flow-size distribution (piecewise-linear CDF).

    Points are (flow size in packets, cumulative probability), the classic
    websearch workload: ~50 % of flows under 10 packets but a tail out to
    tens of thousands of packets carrying most bytes.
    """

    # (size_packets, cdf) — interpolated log-linearly between knots.
    _KNOTS: tuple[tuple[float, float], ...] = (
        (1, 0.00),
        (2, 0.15),
        (3, 0.30),
        (5, 0.40),
        (7, 0.50),
        (10, 0.60),
        (30, 0.70),
        (100, 0.80),
        (300, 0.90),
        (1000, 0.95),
        (3000, 0.98),
        (10000, 1.00),
    )

    def __init__(self, scale: float = 1.0):
        """``scale`` multiplies all sizes (e.g. 0.1 for a lighter variant)."""
        if scale <= 0:
            raise ValueError(f"scale must be positive, got {scale}")
        self.scale = scale
        self._sizes = np.array([k[0] for k in self._KNOTS], dtype=float)
        self._cdf = np.array([k[1] for k in self._KNOTS], dtype=float)

    def sample_many(self, rng: np.random.Generator, n: int) -> np.ndarray:
        u = rng.random(n)
        # Interpolate in log-size space for a smooth heavy tail.
        log_size = np.interp(u, self._cdf, np.log(self._sizes))
        size = np.rint(np.exp(log_size) * self.scale).astype(np.int64)
        return np.maximum(size, 1)
