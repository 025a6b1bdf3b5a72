"""The degradation injectors: deterministic, vectorized, measurement-only."""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest

from repro.robustness.degrade import degrade_dataset_samples, degrade_sample
from repro.serve.records import records_from_telemetry
from repro.serve.windows import DegradedStreamPolicy, WindowAssembler
from repro.telemetry.noise import carry_forward, drop_snmp_intervals
from repro.telemetry.sampling import CoarseTelemetry


def _reference_carry_forward(values: np.ndarray, lost: np.ndarray) -> np.ndarray:
    """The per-element loop the vectorized forward-fill replaced."""
    out = values.copy()
    flat_out = out.reshape(-1, out.shape[-1])
    flat_lost = lost.reshape(-1, lost.shape[-1])
    for row in range(flat_out.shape[0]):
        for i in range(flat_out.shape[1]):
            if flat_lost[row, i] and i > 0:
                flat_out[row, i] = flat_out[row, i - 1]
    return out


class TestCarryForward:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    @pytest.mark.parametrize("shape", [(1, 8), (3, 12), (2, 2, 10), (4, 1)])
    def test_matches_reference_loop(self, seed, shape):
        rng = np.random.default_rng(seed)
        values = rng.integers(0, 100, size=shape).astype(float)
        lost = rng.random(shape) < 0.35
        np.testing.assert_array_equal(
            carry_forward(values, lost), _reference_carry_forward(values, lost)
        )

    def test_losses_chain_through_runs(self):
        values = np.array([[5.0, 6.0, 7.0, 8.0, 9.0]])
        lost = np.array([[False, True, True, True, False]])
        np.testing.assert_array_equal(
            carry_forward(values, lost), [[5.0, 5.0, 5.0, 5.0, 9.0]]
        )

    def test_interval_zero_keeps_its_value(self):
        values = np.array([[3.0, 4.0]])
        lost = np.array([[True, False]])
        np.testing.assert_array_equal(carry_forward(values, lost), values)

    def test_no_losses_is_identity_copy(self):
        values = np.arange(6.0).reshape(2, 3)
        out = carry_forward(values, np.zeros_like(values, dtype=bool))
        np.testing.assert_array_equal(out, values)
        assert out is not values  # fresh array, caller's input untouched

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError, match="does not match"):
            carry_forward(np.zeros((2, 3)), np.zeros((2, 4), dtype=bool))

    def test_empty_input(self):
        out = carry_forward(np.zeros((0, 5)), np.zeros((0, 5), dtype=bool))
        assert out.shape == (0, 5)


class TestDegradeSample:
    def test_deterministic_under_fixed_seed(self, micro_datasets):
        train, _, test = micro_datasets
        for sample in test.samples[:3]:
            first = degrade_sample(
                sample, train.scaler, lanz_threshold=5.0, snmp_loss=0.3, rng=11
            )
            second = degrade_sample(
                sample, train.scaler, lanz_threshold=5.0, snmp_loss=0.3, rng=11
            )
            np.testing.assert_array_equal(first.features, second.features)
            np.testing.assert_array_equal(first.m_sent, second.m_sent)
            np.testing.assert_array_equal(first.m_max, second.m_max)

    def test_different_seeds_differ(self, micro_datasets):
        train, _, test = micro_datasets
        sample = test.samples[0]
        a = degrade_sample(sample, train.scaler, snmp_loss=0.5, rng=1)
        b = degrade_sample(sample, train.scaler, snmp_loss=0.5, rng=2)
        assert not np.array_equal(a.m_sent, b.m_sent)

    def test_lanz_threshold_falls_back_to_sample(self, micro_datasets):
        train, _, test = micro_datasets
        sample = test.samples[0]
        threshold = float(np.median(sample.m_max)) + 1.0
        degraded = degrade_sample(sample, train.scaler, lanz_threshold=threshold)
        suppressed = sample.m_max <= threshold
        assert suppressed.any()
        np.testing.assert_array_equal(
            degraded.m_max[suppressed], sample.m_sample[suppressed]
        )
        np.testing.assert_array_equal(
            degraded.m_max[~suppressed], sample.m_max[~suppressed]
        )
        # The measurement set stays self-consistent: LANZ max >= sample.
        assert (degraded.m_max >= degraded.m_sample - 1e-12).all()

    def test_targets_stay_clean(self, micro_datasets):
        train, _, test = micro_datasets
        sample = test.samples[0]
        degraded = degrade_sample(
            sample, train.scaler, lanz_threshold=10.0, snmp_loss=0.5, rng=0
        )
        np.testing.assert_array_equal(degraded.target, sample.target)
        np.testing.assert_array_equal(degraded.target_raw, sample.target_raw)

    def test_original_sample_is_not_mutated(self, micro_datasets):
        train, _, test = micro_datasets
        sample = test.samples[0]
        before = {
            name: getattr(sample, name).copy()
            for name in ("m_max", "m_sent", "m_received", "m_dropped", "features")
        }
        degrade_sample(sample, train.scaler, lanz_threshold=50.0, snmp_loss=0.9, rng=0)
        for name, value in before.items():
            np.testing.assert_array_equal(getattr(sample, name), value)

    def test_snmp_loss_without_rng_rejected(self, micro_datasets):
        train, _, test = micro_datasets
        with pytest.raises(ValueError, match="deterministic"):
            degrade_sample(test.samples[0], train.scaler, snmp_loss=0.2)

    def test_snmp_loss_outside_unit_interval_rejected(self, micro_datasets):
        train, _, test = micro_datasets
        for loss in (-0.1, 1.0):
            with pytest.raises(ValueError, match=r"\[0, 1\)"):
                degrade_sample(test.samples[0], train.scaler, snmp_loss=loss, rng=0)

    def test_noop_knobs_return_equal_sample(self, micro_datasets):
        train, _, test = micro_datasets
        sample = test.samples[0]
        degraded = degrade_sample(sample, train.scaler)
        np.testing.assert_array_equal(degraded.features, sample.features)
        np.testing.assert_array_equal(degraded.m_sent, sample.m_sent)


class TestDegradeDatasetSamples:
    def test_pure_function_of_inputs(self, micro_datasets):
        train, _, test = micro_datasets
        first = degrade_dataset_samples(
            test.samples, train.scaler, lanz_threshold=5.0, snmp_loss=0.25, seed=9
        )
        second = degrade_dataset_samples(
            test.samples, train.scaler, lanz_threshold=5.0, snmp_loss=0.25, seed=9
        )
        assert len(first) == len(second) == len(test.samples)
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.features, b.features)
            np.testing.assert_array_equal(a.m_sent, b.m_sent)


class _MaskGenerator(np.random.Generator):
    """A generator whose ``random`` draw loses exactly the cells of ``mask``."""

    def __init__(self, mask: np.ndarray):
        super().__init__(np.random.PCG64(0))
        self.mask = mask

    def random(self, size=None, dtype=np.float64, out=None):
        assert size == self.mask.shape
        return np.where(self.mask, 0.0, 1.0)


class TestOneLostPollOneRepair:
    """A lost poll is repaired identically on every entry point."""

    def test_noise_degrade_and_serve_agree(self, micro_scenario, micro_datasets):
        train, _, test = micro_datasets
        # An interior interval whose counters differ from the previous
        # interval's, which in turn differ from interval 0's: the repair is
        # visible, and carrying from anywhere but interval k-1 is caught.
        sample, k = next(
            (sample, k)
            for sample in test.samples
            for k in range(2, sample.m_sent.shape[1] - 1)
            if (sample.m_sent[:, k] != sample.m_sent[:, k - 1]).any()
            and (sample.m_sent[:, k - 1] != sample.m_sent[:, 0]).any()
        )
        telemetry = CoarseTelemetry(
            interval=sample.interval,
            qlen_sample=sample.m_sample,
            qlen_max=sample.m_max,
            received=sample.m_received,
            sent=sample.m_sent,
            dropped=sample.m_dropped,
        )
        lost = np.zeros(telemetry.sent.shape, dtype=bool)
        lost[:, k] = True

        via_noise = drop_snmp_intervals(telemetry, lost)

        degraded = degrade_sample(
            sample, train.scaler, snmp_loss=0.5, rng=_MaskGenerator(lost)
        )
        via_degrade = dataclasses.replace(
            telemetry,
            received=degraded.m_received,
            sent=degraded.m_sent,
            dropped=degraded.m_dropped,
        )

        assembler = WindowAssembler(
            micro_scenario.switch_config(),
            telemetry.interval,
            telemetry.num_intervals,
            policy=DegradedStreamPolicy(repair_intervals=1),
        )
        tasks = []
        for record in records_from_telemetry("sw0", telemetry):
            if record.interval_index != k:
                tasks.extend(assembler.push(record))
        assert assembler.stats.gaps_repaired == 1
        (task,) = tasks
        via_serve = task.telemetry

        assert not np.array_equal(via_noise.sent, telemetry.sent)
        for name in ("sent", "received", "dropped"):
            np.testing.assert_array_equal(
                getattr(via_degrade, name), getattr(via_noise, name), err_msg=name
            )
            np.testing.assert_array_equal(
                getattr(via_serve, name), getattr(via_noise, name), err_msg=name
            )
