"""Tests for telemetry degradation models."""

import numpy as np
import pytest

from repro.telemetry import sample_trace
from repro.telemetry.noise import (
    apply_lanz_threshold,
    carry_forward,
    drop_snmp_intervals,
)


@pytest.fixture()
def telemetry(small_trace):
    return sample_trace(small_trace, 25)


class TestLanzThreshold:
    def test_small_maxima_replaced_by_samples(self, telemetry):
        degraded = apply_lanz_threshold(telemetry, threshold=3)
        suppressed = telemetry.qlen_max <= 3
        np.testing.assert_array_equal(
            degraded.qlen_max[suppressed], telemetry.qlen_sample[suppressed]
        )

    def test_large_maxima_untouched(self, telemetry):
        degraded = apply_lanz_threshold(telemetry, threshold=3)
        kept = telemetry.qlen_max > 3
        np.testing.assert_array_equal(
            degraded.qlen_max[kept], telemetry.qlen_max[kept]
        )

    def test_stays_consistent(self, telemetry):
        degraded = apply_lanz_threshold(telemetry, threshold=10)
        assert (degraded.qlen_max >= degraded.qlen_sample).all()

    def test_zero_threshold_is_identity(self, telemetry):
        degraded = apply_lanz_threshold(telemetry, threshold=0)
        # qlen_max <= 0 only where max == 0, where the sample is also 0.
        np.testing.assert_array_equal(degraded.qlen_max, telemetry.qlen_max)

    def test_rejects_negative(self, telemetry):
        with pytest.raises(ValueError):
            apply_lanz_threshold(telemetry, threshold=-1)


class TestDropSnmp:
    def test_no_loss_is_identity(self, telemetry):
        degraded = drop_snmp_intervals(
            telemetry, np.zeros(telemetry.sent.shape, dtype=bool)
        )
        np.testing.assert_array_equal(degraded.sent, telemetry.sent)
        np.testing.assert_array_equal(degraded.received, telemetry.received)
        np.testing.assert_array_equal(degraded.dropped, telemetry.dropped)

    def test_lost_cells_carried_forward(self, telemetry):
        lost = np.random.default_rng(1).random(telemetry.sent.shape) < 0.3
        lost[:, 0] = False
        assert lost.any()
        degraded = drop_snmp_intervals(telemetry, lost)
        for name in ("sent", "received", "dropped"):
            clean, repaired = getattr(telemetry, name), getattr(degraded, name)
            np.testing.assert_array_equal(repaired[~lost], clean[~lost])
            np.testing.assert_array_equal(
                repaired[lost], carry_forward(clean, lost)[lost]
            )
        np.testing.assert_array_equal(degraded.qlen_max, telemetry.qlen_max)
        np.testing.assert_array_equal(degraded.qlen_sample, telemetry.qlen_sample)

    def test_input_is_not_mutated(self, telemetry):
        before = telemetry.sent.copy()
        drop_snmp_intervals(telemetry, np.ones(telemetry.sent.shape, dtype=bool))
        np.testing.assert_array_equal(telemetry.sent, before)

    def test_rejects_mismatched_mask(self, telemetry):
        with pytest.raises(ValueError, match="does not match"):
            drop_snmp_intervals(telemetry, np.zeros((1, 1), dtype=bool))
