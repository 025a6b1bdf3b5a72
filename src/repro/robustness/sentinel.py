"""The OOD sentinel: the paper's constraints as a deployed drift detector.

The insight is that the serve path already computes everything a cheap
shift score needs: the C1-C3 residuals of the *pre-enforcement*
prediction (how far the model is from what the measurements pin) and the
CEM correction mass (how much L1 work the projection had to do).  On
in-distribution traffic a trained model lands near the constraint set,
so both quantities are small; off-distribution they grow long before
anyone inspects the imputed series — the failure mode Geyer & Bondorf
document for DL-predicted network models.

:func:`calibrate_sentinel` fits the score's exceedance threshold.  By
default it is **shift-driven**: the in-distribution quantile alone says
nothing about separation, so calibration additionally *measures* shifted
scores — it degrades the calibration windows at the robustness grid's
worst telemetry corruption (:data:`SHIFT_CAL_LANZ`/:data:`SHIFT_CAL_SNMP`,
via :mod:`repro.robustness.degrade` under a fixed seed) and places the
threshold midway between the in-distribution quantile and the median
shifted score.  An explicit float pins the bar directly.  The resulting
frozen :class:`OODSentinel` is handed to
:class:`~repro.serve.service.StreamService`, which observes every
window's score into the ``serve.ood.score`` histogram and flags (or
quarantines) windows above the threshold.  The sentinel never mutates
imputed values — it is a verdict, not a repair.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from repro.constraints.spec import check_constraints
from repro.switchsim.switch import SwitchConfig
from repro.telemetry.dataset import ImputationSample, TelemetryDataset


@dataclass(frozen=True)
class OODSentinel:
    """A calibrated shift detector over pre-enforcement constraint residuals.

    ``threshold`` is the exceedance bar (see :func:`calibrate_sentinel`);
    :meth:`flags` is the deployment predicate.  ``qlen_scale``
    normalises the CEM correction mass into the same dimensionless range
    as the residual terms (it is the training scaler's queue scale).
    """

    threshold: float
    quantile: float
    qlen_scale: float
    calibration_size: int
    # How the threshold was derived: "shift" (measured separation from
    # degraded windows, calibrate_sentinel's default) or "fixed"
    # (caller-supplied, as for any directly constructed sentinel).
    calibration: str = "fixed"

    def score(
        self,
        pre_enforcement: np.ndarray,
        corrected: np.ndarray | None,
        sample: ImputationSample,
        config: SwitchConfig,
    ) -> float:
        """The shift score of one window (higher = further off-distribution).

        Sum of the three normalised pre-enforcement residuals (C1-C3, as
        :func:`~repro.constraints.spec.check_constraints` defines them)
        plus the mean per-bin CEM correction normalised by the queue
        scale (0 when CEM is off).  All four terms are dimensionless and
        O(1) on in-distribution traffic, so a plain sum is a usable
        score without per-term weighting.
        """
        report = check_constraints(pre_enforcement, sample, config)
        mass_term = 0.0
        if corrected is not None:
            mass = np.abs(
                np.asarray(corrected, dtype=float)
                - np.asarray(pre_enforcement, dtype=float)
            ).mean()
            mass_term = float(mass) / self.qlen_scale
        return float(
            report.max_error + report.periodic_error + report.sent_error + mass_term
        )

    def flags(self, score: float) -> bool:
        """True when a window's score exceeds the calibrated threshold."""
        return score > self.threshold


#: The telemetry corruption used to *measure* shifted scores during
#: shift-driven calibration: the worst grid values of the robustness
#: suite's default lanz/snmp axes.
SHIFT_CAL_LANZ = 20.0
SHIFT_CAL_SNMP = 0.4
#: Seed of the degradation injector during shift-driven calibration.
SHIFT_CAL_SEED = 0x5E17


def calibrate_sentinel(
    model: Any,
    dataset: TelemetryDataset,
    *,
    quantile: float = 0.99,
    use_cem: bool = True,
    batch_size: int = 16,
    threshold: float | None = None,
) -> OODSentinel:
    """Calibrate a sentinel on in-distribution windows.

    Scores every window of ``dataset`` (typically the validation split —
    held out from training but drawn from the training distribution) with
    the deployed model.  ``threshold`` selects how the exceedance bar is
    derived:

    * ``None`` (default) — **shift-driven**: the same windows are
      degraded at the robustness grid's worst telemetry corruption
      (LANZ floor :data:`SHIFT_CAL_LANZ`, SNMP loss
      :data:`SHIFT_CAL_SNMP`, fixed seed) and re-scored; the bar sits
      midway between the in-distribution ``quantile`` score and the
      median shifted score.  If the shift does not separate (median
      shifted score at or below the quantile), the bar is the quantile
      itself — never below it.
    * a float — pin the bar directly; nothing is scored.

    Deterministic in both modes: the model, the dataset, the CEM
    projection, and the calibration degradation seed all are.
    """
    from repro.imputation.cem import ConstraintEnforcer

    if not 0.0 < quantile <= 1.0:
        raise ValueError(f"quantile must lie in (0, 1], got {quantile}")
    if isinstance(threshold, str):
        raise ValueError(f"threshold must be None or a float, got {threshold!r}")
    if len(dataset) == 0:
        raise ValueError("cannot calibrate a sentinel on an empty dataset")
    if threshold is not None:
        return OODSentinel(
            threshold=float(threshold),
            quantile=float(quantile),
            qlen_scale=dataset.scaler.qlen_scale,
            calibration_size=len(dataset),
        )
    enforcer = (
        ConstraintEnforcer(dataset.switch_config, vectorized=True) if use_cem else None
    )
    probe = OODSentinel(
        threshold=float("inf"),
        quantile=quantile,
        qlen_scale=dataset.scaler.qlen_scale,
        calibration_size=0,
    )

    from repro.imputation.cem import CEMInfeasibleError
    from repro.robustness.degrade import degrade_dataset_samples

    def scored(samples: list) -> list[float]:
        out: list[float] = []
        for start in range(0, len(samples), batch_size):
            chunk = samples[start : start + batch_size]
            for sample, pre in zip(chunk, model.impute_batch(chunk)):
                try:
                    corrected = (
                        enforcer.enforce(pre, sample) if enforcer is not None else None
                    )
                except CEMInfeasibleError:
                    # Heavily corrupted calibration windows can pin
                    # contradictory measurements; the pre-enforcement
                    # residuals alone already carry the shift signal.
                    corrected = None
                out.append(probe.score(pre, corrected, sample, dataset.switch_config))
        return out

    scores = scored(list(dataset.samples))
    in_dist = float(np.quantile(np.asarray(scores), quantile))
    shifted_samples = degrade_dataset_samples(
        list(dataset.samples),
        dataset.scaler,
        lanz_threshold=SHIFT_CAL_LANZ,
        snmp_loss=SHIFT_CAL_SNMP,
        seed=SHIFT_CAL_SEED,
    )
    shifted = float(np.median(np.asarray(scored(shifted_samples))))
    return OODSentinel(
        threshold=(in_dist + shifted) / 2.0 if shifted > in_dist else in_dist,
        quantile=float(quantile),
        qlen_scale=dataset.scaler.qlen_scale,
        calibration_size=len(scores),
        calibration="shift",
    )
