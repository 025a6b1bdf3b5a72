"""Telemetry degradation models for robustness experiments.

Real monitoring pipelines are imperfect: SNMP polls get lost, and LANZ
only reports queues above a configurable threshold (§2.1 footnote 1).
These helpers degrade a :class:`~repro.telemetry.sampling.CoarseTelemetry`
in controlled ways so experiments can measure how gracefully the
imputation methods cope — one angle on the paper's research question
about using knowledge *"to fight the scarcity or bias of datasets"*.

Degradations keep the telemetry *internally consistent* (max >= sample
everywhere) so constraint checking stays well-posed; missing values are
encoded per the conventions of each tool (see each function).  This is
the only implementation of LANZ thresholding and lost-poll repair: the
robustness injectors (:mod:`repro.robustness.degrade`) and the serve
gap repair (:mod:`repro.serve.windows`) share its semantics.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.telemetry.sampling import CoarseTelemetry
from repro.utils.validation import check_non_negative


def apply_lanz_threshold(telemetry: CoarseTelemetry, threshold: int) -> CoarseTelemetry:
    """Model LANZ's reporting threshold (§2.1 footnote 1).

    Intervals whose true maximum is at or below ``threshold`` report **no
    LANZ value**; following the footnote's convention we substitute the
    best still-sound bound the operator has: the periodic sample (the max
    is at least the sampled instantaneous length).
    """
    check_non_negative("threshold", threshold)
    suppressed = telemetry.qlen_max <= threshold
    qlen_max = np.where(suppressed, telemetry.qlen_sample, telemetry.qlen_max)
    out = dataclasses.replace(telemetry, qlen_max=qlen_max)
    out.validate()
    return out


def carry_forward(values: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """Operator fallback for lost counter polls: repeat the last delivered value.

    ``values`` is any ``(..., intervals)`` array and ``lost`` a boolean
    mask of the same shape; wherever ``lost`` is set, the value is
    replaced by the most recent non-lost value at a lower interval index
    (losses chain: a run of lost polls all report the value preceding the
    run).  A loss at interval 0 has nothing to carry and keeps its
    original value.  Always returns a fresh array.
    """
    values = np.asarray(values)
    lost = np.asarray(lost, dtype=bool)
    if lost.shape != values.shape:
        raise ValueError(
            f"lost mask shape {lost.shape} does not match values {values.shape}"
        )
    if values.size == 0:
        return values.copy()
    keep = ~lost
    keep[..., 0] = True  # interval 0 keeps its value (nothing earlier to carry)
    source = np.where(keep, np.arange(values.shape[-1]), 0)
    np.maximum.accumulate(source, axis=-1, out=source)
    return np.take_along_axis(values, source, axis=-1)


def drop_snmp_intervals(telemetry: CoarseTelemetry, lost: np.ndarray) -> CoarseTelemetry:
    """Lose the SNMP reports marked in ``lost`` (a ``(ports, intervals)`` mask).

    Each lost port-interval poll is repaired by :func:`carry_forward`,
    the standard collector fallback, applied to ``received``, ``sent``
    and ``dropped`` alike; the queue measurements are untouched.
    """
    return dataclasses.replace(
        telemetry,
        received=carry_forward(telemetry.received, lost),
        sent=carry_forward(telemetry.sent, lost),
        dropped=carry_forward(telemetry.dropped, lost),
    )
