"""Vectorized CEM projection passes vs the per-interval reference loop.

The vectorized passes must be *bit-exact* against the loop they replaced
(:func:`repro.testing.cem_interval_loop`) in float64 — same queues zeroed
(same tie-breaks), same samples raised, same infeasibility verdicts.  The
differential-fuzz harness
(:func:`repro.testing.differential.diff_cem_vectorized`) sweeps random
cases nightly; these tests pin the structured ones.
"""

import numpy as np
import pytest

from repro.constraints import check_constraints
from repro.imputation import CEMInfeasibleError, ConstraintEnforcer
from repro.testing import cem_interval_loop
from repro.testing.differential import diff_cem_vectorized
from repro.testing.strategies import random_cem_case


def _pair(config):
    def reference(imputed, sample):
        return cem_interval_loop(config, imputed, sample)

    return reference, ConstraintEnforcer(config).enforce


class TestBitExactness:
    def test_dataset_windows_bitwise_identical(self, small_dataset, rng):
        reference, vectorized = _pair(small_dataset.switch_config)
        for sample in small_dataset.samples[:8]:
            noisy = np.clip(
                sample.target_raw + rng.normal(0, 3, sample.target_raw.shape), 0, None
            )
            np.testing.assert_array_equal(
                vectorized(noisy, sample), reference(noisy, sample)
            )

    def test_extreme_inputs_bitwise_identical(self, small_dataset):
        reference, vectorized = _pair(small_dataset.switch_config)
        sample = small_dataset[0]
        for imputed in (
            np.zeros_like(sample.target_raw),
            np.full_like(sample.target_raw, 1e6),
            np.full_like(sample.target_raw, -5.0),
            sample.target_raw.astype(float),
        ):
            np.testing.assert_array_equal(
                vectorized(imputed, sample), reference(imputed, sample)
            )

    def test_random_cases_agree(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            case = random_cem_case(rng)
            assert diff_cem_vectorized(case) is None

    def test_vectorized_output_satisfies_constraints(self, small_dataset, rng):
        vectorized = ConstraintEnforcer(small_dataset.switch_config)
        for sample in small_dataset.samples[:6]:
            noisy = np.clip(
                sample.target_raw + rng.normal(0, 3, sample.target_raw.shape), 0, None
            )
            out = vectorized.enforce(noisy, sample)
            report = check_constraints(out, sample, small_dataset.switch_config)
            assert report.satisfied, report


class TestInfeasibilityAgreement:
    def test_both_reject_oversubscribed_samples(self, small_dataset):
        """m_sample above m_max is infeasible for both implementations."""
        import dataclasses

        sample = small_dataset[0]
        broken = dataclasses.replace(sample, m_sample=sample.m_max + 10.0)
        imputed = np.zeros_like(sample.target_raw)
        for project in _pair(small_dataset.switch_config):
            with pytest.raises(CEMInfeasibleError):
                project(imputed, broken)
