"""Deterministic, seedable telemetry-degradation injectors.

Real coarse telemetry is never as clean as the simulator's: LANZ only
reports queues above a configured threshold (§2.1's footnote), and SNMP
polls get lost in flight, with collectors papering over the hole by
repeating the last delivered value.  These injectors reproduce both
defects on an :class:`~repro.telemetry.dataset.ImputationSample` so the
robustness suite (and ``benchmarks/bench_robustness.py``) can measure how
each method degrades under them.  The degradations themselves live in
:mod:`repro.telemetry.noise`; this module only routes a window through
them and rebuilds its features.

Everything here is deterministic given the RNG: the same seed produces
the same degraded window, bit for bit, which is what lets the shift grid
pin per-method degradation curves and lets CI replay the worst points as
regression sentinels.
"""

from __future__ import annotations

import dataclasses

import numpy as np

from repro.telemetry.dataset import FeatureScaler, ImputationSample, build_features
from repro.telemetry.noise import apply_lanz_threshold, drop_snmp_intervals
from repro.telemetry.sampling import CoarseTelemetry


def degrade_sample(
    sample: ImputationSample,
    scaler: FeatureScaler,
    *,
    lanz_threshold: float = 0.0,
    snmp_loss: float = 0.0,
    rng: int | np.random.Generator | None = None,
) -> ImputationSample:
    """Apply LANZ thresholding / SNMP poll loss to one window's measurements.

    * ``lanz_threshold`` — LANZ only reports per-interval maxima above the
      threshold (:func:`~repro.telemetry.noise.apply_lanz_threshold`).
    * ``snmp_loss`` — each port x interval counter poll is lost i.i.d.
      with this probability, in ``[0, 1)``; lost polls are repaired by
      :func:`~repro.telemetry.noise.drop_snmp_intervals`.  Requires
      ``rng`` (an int seed or a ``numpy`` Generator) so every
      degradation is reproducible.

    The features are rebuilt from the degraded telemetry with the given
    ``scaler`` (use the *training* scaler when evaluating a trained
    model), while ``target``/``target_raw`` keep the clean ground truth —
    degradation corrupts what the model sees, not what it is scored
    against.
    """
    if not 0.0 <= snmp_loss < 1.0:
        raise ValueError(f"snmp_loss must be in [0, 1), got {snmp_loss}")
    telemetry = CoarseTelemetry(
        interval=sample.interval,
        qlen_sample=sample.m_sample,
        qlen_max=sample.m_max,
        received=sample.m_received,
        sent=sample.m_sent,
        dropped=sample.m_dropped,
    )
    if lanz_threshold > 0:
        telemetry = apply_lanz_threshold(telemetry, lanz_threshold)
    if snmp_loss > 0:
        if rng is None:
            raise ValueError(
                "snmp_loss > 0 requires rng (an int seed or Generator); "
                "the injectors are deterministic by construction"
            )
        lost = np.random.default_rng(rng).random(sample.m_sent.shape) < snmp_loss
        telemetry = drop_snmp_intervals(telemetry, lost)
    features = build_features(telemetry, scaler, sample.num_bins)
    # Fresh arrays even when no knob is active: the degraded window never
    # aliases the caller's sample.
    return dataclasses.replace(
        sample,
        features=features,
        m_max=telemetry.qlen_max.copy(),
        m_sent=telemetry.sent.copy(),
        m_received=telemetry.received.copy(),
        m_dropped=telemetry.dropped.copy(),
    )


def degrade_dataset_samples(
    samples: list[ImputationSample],
    scaler: FeatureScaler,
    *,
    lanz_threshold: float = 0.0,
    snmp_loss: float = 0.0,
    seed: int = 0,
) -> list[ImputationSample]:
    """Degrade a list of windows under one deterministic RNG stream.

    The stream is seeded once and consumed in sample order, so the whole
    degraded evaluation set is a pure function of ``(samples, knobs,
    seed)`` — the property the shift grid's telemetry axes pin.
    """
    generator = np.random.default_rng(seed)
    return [
        degrade_sample(
            sample,
            scaler,
            lanz_threshold=lanz_threshold,
            snmp_loss=snmp_loss,
            rng=generator,
        )
        for sample in samples
    ]
