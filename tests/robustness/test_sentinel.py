"""The OOD sentinel: calibration, scoring, and the exceedance predicate."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.imputation.cem import ConstraintEnforcer
from repro.robustness.sentinel import OODSentinel, calibrate_sentinel


class _OracleModel:
    """A fake model that predicts the ground truth exactly.

    Its pre-enforcement residuals are ~0 on every in-distribution window,
    so calibration pins a tiny threshold and anything genuinely off the
    constraint set must flag.
    """

    def impute_batch(self, samples):
        return [s.target_raw.astype(float) for s in samples]


@pytest.fixture(scope="module")
def in_dist_q99(micro_datasets):
    """The 0.99 quantile of the oracle's in-distribution scores.

    Scored here the way calibration scores a window: pre-enforcement
    residuals plus the vectorized CEM's correction mass.
    """
    train, _, _ = micro_datasets
    enforcer = ConstraintEnforcer(train.switch_config, vectorized=True)
    probe = OODSentinel(
        threshold=float("inf"),
        quantile=0.99,
        qlen_scale=train.scaler.qlen_scale,
        calibration_size=0,
    )
    samples = list(train.samples)
    scores = [
        probe.score(pre, enforcer.enforce(pre, sample), sample, train.switch_config)
        for sample, pre in zip(samples, _OracleModel().impute_batch(samples))
    ]
    return float(np.quantile(np.asarray(scores), 0.99))


@pytest.fixture(scope="module")
def sentinel(micro_datasets, in_dist_q99):
    # A bar pinned at the in-distribution 0.99 quantile; the shift-driven
    # default is covered separately by TestShiftDrivenCalibration.
    train, _, _ = micro_datasets
    return calibrate_sentinel(
        _OracleModel(), train, quantile=0.99, threshold=in_dist_q99
    )


class TestCalibration:
    def test_records_its_own_provenance(self, sentinel, micro_datasets):
        train, _, _ = micro_datasets
        assert sentinel.quantile == 0.99
        assert sentinel.calibration_size == len(train)
        assert sentinel.qlen_scale == train.scaler.qlen_scale
        assert sentinel.calibration == "fixed"
        assert np.isfinite(sentinel.threshold)

    def test_oracle_threshold_is_small(self, sentinel):
        # The oracle lands on the constraint set; its calibrated
        # exceedance threshold is numerical noise, not a real margin.
        assert 0.0 <= sentinel.threshold < 0.1

    def test_in_distribution_windows_do_not_flag(self, sentinel, micro_datasets):
        train, _, _ = micro_datasets
        model = _OracleModel()
        for sample, pre in zip(train.samples[:4], model.impute_batch(train.samples[:4])):
            score = sentinel.score(pre, None, sample, train.switch_config)
            assert not sentinel.flags(score)

    def test_quantile_validated(self, micro_datasets):
        train, _, _ = micro_datasets
        for bad in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="quantile"):
                calibrate_sentinel(_OracleModel(), train, quantile=bad)

    def test_empty_dataset_rejected(self, micro_datasets):
        train, _, _ = micro_datasets
        empty = dataclasses.replace(train, samples=[])
        with pytest.raises(ValueError, match="empty"):
            calibrate_sentinel(_OracleModel(), empty)

    def test_deterministic(self, micro_datasets):
        train, _, _ = micro_datasets
        a = calibrate_sentinel(_OracleModel(), train, quantile=0.9)
        b = calibrate_sentinel(_OracleModel(), train, quantile=0.9)
        assert a == b

    def test_bad_threshold_string_rejected(self, micro_datasets):
        train, _, _ = micro_datasets
        for bad in ("median", "quantile"):
            with pytest.raises(ValueError, match="threshold"):
                calibrate_sentinel(_OracleModel(), train, threshold=bad)


class TestShiftDrivenCalibration:
    """The default threshold is measured, not assumed."""

    def test_default_is_shift_driven(self, micro_datasets):
        train, _, _ = micro_datasets
        shift = calibrate_sentinel(_OracleModel(), train, quantile=0.99)
        assert shift.calibration == "shift"

    def test_sits_between_quantile_and_shifted_scores(
        self, micro_datasets, in_dist_q99
    ):
        # The oracle scores ~0 in-distribution; degraded windows score
        # strictly higher, so the measured bar opens a real margin above
        # the in-distribution quantile while still flagging degraded traffic.
        train, _, _ = micro_datasets
        shift = calibrate_sentinel(_OracleModel(), train, quantile=0.99)
        assert shift.threshold >= in_dist_q99
        assert np.isfinite(shift.threshold)

    def test_shift_driven_is_deterministic(self, micro_datasets):
        train, _, _ = micro_datasets
        a = calibrate_sentinel(_OracleModel(), train)
        b = calibrate_sentinel(_OracleModel(), train)
        assert a == b

    def test_explicit_float_pins_the_bar(self, micro_datasets):
        train, _, _ = micro_datasets
        fixed = calibrate_sentinel(_OracleModel(), train, threshold=0.25)
        assert fixed.calibration == "fixed"
        assert fixed.threshold == 0.25
        assert fixed.flags(0.26)
        assert not fixed.flags(0.25)


class TestScoring:
    def test_constraint_violations_flag(self, sentinel, micro_datasets):
        train, _, _ = micro_datasets
        sample = train.samples[0]
        # An all-zeros prediction ignores the measurements entirely: the
        # pre-enforcement residuals blow past the oracle-calibrated bar.
        zeros = np.zeros_like(sample.target_raw, dtype=float)
        score = sentinel.score(zeros, None, sample, train.switch_config)
        assert sentinel.flags(score)
        assert score > sentinel.threshold

    def test_cem_correction_mass_raises_the_score(self, sentinel, micro_datasets):
        train, _, _ = micro_datasets
        sample = train.samples[0]
        pre = sample.target_raw.astype(float)
        base = sentinel.score(pre, None, sample, train.switch_config)
        corrected = pre + train.scaler.qlen_scale  # one queue-scale of L1 work
        shifted = sentinel.score(pre, corrected, sample, train.switch_config)
        assert shifted == pytest.approx(base + 1.0)

    def test_score_monotone_in_corruption(self, sentinel, micro_datasets):
        train, _, _ = micro_datasets
        sample = train.samples[0]
        truth = sample.target_raw.astype(float)
        scores = [
            sentinel.score(truth + offset, None, sample, train.switch_config)
            for offset in (0.0, 5.0, 50.0)
        ]
        assert scores == sorted(scores)

    def test_sentinel_is_frozen(self, sentinel):
        with pytest.raises(dataclasses.FrozenInstanceError):
            sentinel.threshold = 0.0

    def test_flags_is_strict_exceedance(self):
        probe = OODSentinel(
            threshold=1.0, quantile=0.99, qlen_scale=1.0, calibration_size=1
        )
        assert not probe.flags(1.0)
        assert probe.flags(1.0 + 1e-6)
