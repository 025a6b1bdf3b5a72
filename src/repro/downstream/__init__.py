"""Downstream tasks scoring the imputed series (§4, Table 1 rows d–i).

The paper evaluates imputation quality by how well burst-related network
operations work on the imputed series compared to the ground truth:
burst detection, burst height, burst frequency, burst inter-arrival time,
empty-queue frequency (queue health, RED-style), and the count of
concurrent bursts across queues.
"""

from repro.downstream.bursts import Burst, burst_mask, detect_bursts
from repro.downstream.metrics import (
    DownstreamReport,
    burst_detection_error,
    burst_frequency_error,
    burst_height_error,
    burst_interarrival_error,
    concurrent_burst_error,
    empty_queue_error,
    evaluate_downstream,
)
from repro.downstream.latency import (
    LatencyReport,
    evaluate_latency,
    queueing_delay,
    slo_violations,
    tail_latency,
)
from repro.downstream.provisioning import (
    BurstStatistics,
    burst_statistics,
    provisioning_gap,
    recommend_buffer,
)

__all__ = [
    "Burst",
    "detect_bursts",
    "burst_mask",
    "DownstreamReport",
    "burst_detection_error",
    "burst_height_error",
    "burst_frequency_error",
    "burst_interarrival_error",
    "empty_queue_error",
    "concurrent_burst_error",
    "evaluate_downstream",
    "LatencyReport",
    "evaluate_latency",
    "queueing_delay",
    "tail_latency",
    "slo_violations",
    "BurstStatistics",
    "burst_statistics",
    "recommend_buffer",
    "provisioning_gap",
]
