"""Monitoring tools and dataset assembly.

Implements the three coarse-grained monitoring tools of §2.1 applied to the
simulator's fine-grained ground truth:

* periodic sampling of instantaneous queue lengths (one per interval),
* LANZ-style per-interval maximum queue length,
* SNMP-style per-interval per-port packet counters (received/sent/dropped),

plus the windowing/normalisation machinery that turns a long trace into
the transformer's training samples.
"""

from repro.telemetry.sampling import CoarseTelemetry, sample_trace
from repro.telemetry.dataset import (
    FeatureScaler,
    ImputationSample,
    TelemetryDataset,
    build_dataset,
)
from repro.telemetry.fabric import build_fabric_datasets, cross_switch_channels
from repro.telemetry.noise import (
    apply_lanz_threshold,
    drop_snmp_intervals,
)

__all__ = [
    "build_fabric_datasets",
    "cross_switch_channels",
    "CoarseTelemetry",
    "sample_trace",
    "ImputationSample",
    "TelemetryDataset",
    "FeatureScaler",
    "build_dataset",
    "apply_lanz_threshold",
    "drop_snmp_intervals",
]
