"""Fault-injection matrix: every claimed recovery path demonstrably fires.

The four acceptance scenarios:

1. a killed simulation attempt is retried and the sweep's traces are
   bit-identical to the golden fingerprints (crash recovery is invisible
   in the data);
2. a hung job times out into the FailureReport without stalling siblings
   (covered in ``test_supervisor.py``; here the injector matrix re-checks
   it on a real simulation);
3. a corrupted cache entry is quarantined and re-simulated;
4. a budgeted branch-and-bound returns its incumbent within the deadline
   (covered in ``test_budget.py`` via :func:`stalling_lp`).
"""

from __future__ import annotations

import dataclasses

import pytest

from repro.eval.scenarios import generate_trace, quick_scenario, trace_cache_params
from repro.resilience import RetryPolicy, Supervisor
from repro.resilience.faults import (
    CrashOnce,
    FailOnce,
    HangOnce,
    corrupt_cache_entry,
    payload_key,
)
from repro.switchsim import TraceCache
from repro.testing import trace_fingerprint

# The TRAFFIC_REV=2 fingerprints pinned by tests/test_golden_traces.py.
GOLDEN_QUICK_300 = {
    0: "14ff120411fc8ec25bd79f17a363efddc3b0f8e543f9bfcfe031e82cbfc851fe",
    1: "d996de5053b66f0d7eca82ce5dff57550e2ad511726c1dd010a815edc79bdf0f",
}


def _golden_scenario():
    return dataclasses.replace(quick_scenario(), duration_bins=300)


def _simulate(payload):
    """Supervisor job: one uncached simulation of a (scenario, seed) pair."""
    config, seed = payload
    return generate_trace(config, seed=seed, cache=None)


def _sweep(job_fn, seeds, policy):
    return Supervisor(job_fn, policy=policy, workers=2).run(
        [(_golden_scenario(), seed) for seed in seeds]
    )


class TestCrashRecoveryBitIdentity:
    def test_killed_workers_retry_to_golden_fingerprints(self, tmp_path):
        """Acceptance: every attempt process crashes once; the retried
        sweep is bit-identical to the uninjected golden traces."""
        policy = RetryPolicy(backoff_base=0.01)
        sweep = _sweep(_simulate, [0, 1], policy)
        assert sweep.ok
        clean = [trace_fingerprint(t) for t in sweep.results]
        assert clean == [GOLDEN_QUICK_300[0], GOLDEN_QUICK_300[1]]

        injected = _sweep(CrashOnce(_simulate, tmp_path), [0, 1], policy)
        assert injected.ok
        assert injected.report.retries == 2  # both workers were killed once
        assert [trace_fingerprint(t) for t in injected.results] == clean

    def test_transient_error_heals_to_identical_trace(self, tmp_path):
        injected = _sweep(
            FailOnce(_simulate, tmp_path), [0], RetryPolicy(backoff_base=0.01)
        )
        assert injected.ok and injected.report.retries == 1
        assert trace_fingerprint(injected.results[0]) == GOLDEN_QUICK_300[0]


class TestHangThroughSupervisor:
    def test_hung_simulation_is_killed_and_retried(self, tmp_path):
        injected = _sweep(
            HangOnce(_simulate, tmp_path, hang_seconds=120.0),
            [0],
            RetryPolicy(timeout=5.0, backoff_base=0.01),
        )
        # hang (120 s) >> timeout (5 s) >> one 300-bin simulation (<2 s):
        # the only way this passes quickly is the kill-and-retry path.
        assert injected.ok and injected.report.retries == 1
        assert trace_fingerprint(injected.results[0]) == GOLDEN_QUICK_300[0]

    def test_terminal_failure_degrades_gracefully(self, tmp_path):
        always = FailOnce(_simulate, tmp_path)
        always._should_fire = lambda payload: True  # every attempt fails
        sweep = _sweep(
            always, [0, 1], RetryPolicy(max_attempts=2, backoff_base=0.01)
        )
        assert not sweep.ok
        assert sweep.report.failed_indices == [0, 1]
        assert sweep.results == [None, None]


class TestCorruptedCache:
    def test_corrupted_entry_is_quarantined_and_resimulated(self, tmp_path):
        """Acceptance: a corrupted entry is moved aside and re-simulated."""
        scenario = _golden_scenario()
        cache = TraceCache(tmp_path / "cache")
        generate_trace(scenario, seed=0, cache=cache)
        assert cache.stores == 1

        bad = corrupt_cache_entry(cache, trace_cache_params(scenario, 0))
        with pytest.warns(RuntimeWarning, match="unreadable"):
            again = generate_trace(scenario, seed=0, cache=cache)
        assert cache.quarantined == 1
        assert (cache.quarantine_dir / bad.name).exists()  # evidence kept
        assert trace_fingerprint(again) == GOLDEN_QUICK_300[0]
        assert cache.stores == 2 and bad.exists()  # the slot was repopulated

    @pytest.mark.parametrize("mode", ["truncate", "garbage"])
    def test_both_corruption_modes_are_misses(self, tmp_path, mode):
        scenario = _golden_scenario()
        cache = TraceCache(tmp_path / "cache")
        generate_trace(scenario, seed=0, cache=cache)
        corrupt_cache_entry(cache, trace_cache_params(scenario, 0), mode=mode)
        with pytest.warns(RuntimeWarning):
            trace = generate_trace(scenario, seed=0, cache=cache)
        assert trace_fingerprint(trace) == GOLDEN_QUICK_300[0]

    def test_corrupting_a_missing_entry_is_an_error(self, tmp_path):
        cache = TraceCache(tmp_path / "cache")
        with pytest.raises(FileNotFoundError):
            corrupt_cache_entry(cache, {"no": "entry"})


class TestPayloadKey:
    def test_stable_and_distinct(self):
        assert payload_key((1, 2)) == payload_key((1, 2))
        assert payload_key((1, 2)) != payload_key((2, 1))
