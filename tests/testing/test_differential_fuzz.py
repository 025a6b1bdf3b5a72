"""Tests for the differential harnesses and the fuzz driver.

The deterministic sweeps here are small (CI tier-1 stays fast); the
nightly workflow runs the same driver over hundreds of cases.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.testing import (
    AttentionCase,
    CemCase,
    EngineCase,
    LpCase,
    diff_attention,
    diff_cem,
    diff_engines,
    diff_simplex,
    replay_corpus,
    run_fuzz,
)
from repro.testing.differential import (
    _lp_case_brute_force,
    compare_traces,
    write_corpus,
)
from repro.testing.strategies import (
    random_attention_case,
    random_cem_case,
    random_engine_case,
    random_lp_case,
)

CORPUS = "tests/corpus/fuzz_corpus.json"


class TestCompareTraces:
    def test_identical_traces_agree(self, small_trace):
        assert compare_traces(small_trace, small_trace) is None

    def test_detects_divergent_field(self, small_trace):
        import dataclasses

        other = dataclasses.replace(small_trace, sent=small_trace.sent.copy())
        other.sent[0, 3] += 1
        detail = compare_traces(small_trace, other)
        assert detail is not None and "sent" in detail

    def test_detects_shape_mismatch(self, small_trace):
        import dataclasses

        other = dataclasses.replace(small_trace, qlen=small_trace.qlen[:, :-1].copy())
        detail = compare_traces(small_trace, other)
        assert detail is not None and "shape" in detail


class TestHarnesses:
    def test_engine_cases_agree(self):
        rng = np.random.default_rng(42)
        for _ in range(5):
            case = random_engine_case(rng)
            assert diff_engines(case) is None, case.to_dict()

    def test_cem_cases_agree(self):
        rng = np.random.default_rng(43)
        for _ in range(2):
            case = random_cem_case(rng)
            assert diff_cem(case) is None, case.to_dict()

    def test_lp_cases_agree(self):
        rng = np.random.default_rng(44)
        for _ in range(10):
            case = random_lp_case(rng)
            assert diff_simplex(case) is None, case.to_dict()

    def test_attention_cases_agree(self):
        rng = np.random.default_rng(45)
        for _ in range(40):
            case = random_attention_case(rng)
            assert diff_attention(case) is None, case.to_dict()

    def test_attention_harness_reports_a_one_ulp_divergence(self, monkeypatch):
        from repro.autodiff import fused

        exact = fused.attention_core

        def off_by_one_ulp(*args, **kwargs):
            out = exact(*args, **kwargs)
            out.data[0, 0, 0, 0] = np.nextafter(out.data[0, 0, 0, 0], np.inf)
            return out

        monkeypatch.setattr(fused, "attention_core", off_by_one_ulp)
        case = AttentionCase(
            batch=2, heads=2, q_len=3, k_len=4, head_dim=3, dtype="float32",
            mask="none", dropout=0.0, grad_of="qkv", seed=0,
        )
        detail = diff_attention(case)
        assert detail is not None and detail.startswith("no_grad out[0, 0, 0, 0]")
        # The shrinker takes any failing case down to the smallest call.
        (found,) = run_fuzz(seed=0, attention_cases=1).discrepancies
        assert {k: found.case[k] for k in ("batch", "heads", "q_len", "k_len", "head_dim")} == {
            "batch": 1, "heads": 1, "q_len": 1, "k_len": 1, "head_dim": 1,
        }
        assert (found.case["mask"], found.case["dropout"], found.case["grad_of"]) == (
            "none", 0.0, "",
        )

    def test_lp_brute_force_known_optimum(self):
        case = LpCase(
            domains=[2, 2],
            constraints=[{"coeffs": [1, 1], "sense": ">=", "rhs": 2}],
            objective=[1, 1],
        )
        assert _lp_case_brute_force(case) == 2
        assert diff_simplex(case) is None

    def test_lp_brute_force_unsat(self):
        case = LpCase(
            domains=[1, 1],
            constraints=[{"coeffs": [1, 1], "sense": ">=", "rhs": 5}],
            objective=[1, 0],
        )
        assert _lp_case_brute_force(case) is None
        assert diff_simplex(case) is None  # solver agrees: unsat

    def test_cases_roundtrip_through_json(self):
        rng = np.random.default_rng(7)
        for make, cls in (
            (random_engine_case, EngineCase),
            (random_cem_case, CemCase),
            (random_lp_case, LpCase),
            (random_attention_case, AttentionCase),
        ):
            case = make(rng)
            clone = cls.from_dict(json.loads(json.dumps(case.to_dict())))
            assert clone == case


class TestFuzzDriver:
    def test_small_sweep_is_clean(self):
        report = run_fuzz(seed=0, engine_cases=6, cem_cases=2, lp_cases=10)
        assert report.ok, [d.render() for d in report.discrepancies]
        assert report.cases_run == {"engine": 6, "cem": 2, "lp": 10}
        assert report.total_cases == 18
        assert "OK" in report.summary()

    def test_attention_sweep_is_clean(self):
        report = run_fuzz(seed=0, attention_cases=30)
        assert report.ok, [d.render() for d in report.discrepancies]
        assert report.cases_run == {"attention": 30}

    def test_sweep_is_deterministic(self):
        first = run_fuzz(seed=5, engine_cases=3, lp_cases=5)
        second = run_fuzz(seed=5, engine_cases=3, lp_cases=5)
        assert first.cases_run == second.cases_run
        assert first.ok and second.ok

    def test_zero_budget_runs_nothing(self):
        report = run_fuzz(seed=0)
        assert report.total_cases == 0
        assert report.ok


class TestCorpus:
    def test_shipped_corpus_replays_clean(self):
        report = replay_corpus(CORPUS)
        assert report.total_cases >= 10
        assert report.ok, [d.render() for d in report.discrepancies]

    def test_corpus_covers_every_harness(self):
        data = json.loads(open(CORPUS).read())
        assert set(data) == {"engine", "cem", "lp", "attention"}
        assert all(len(cases) >= 2 for cases in data.values())

    def test_write_replay_roundtrip(self, tmp_path):
        rng = np.random.default_rng(11)
        path = tmp_path / "corpus.json"
        write_corpus(
            path,
            {
                "engine": [random_engine_case(rng)],
                "lp": [random_lp_case(rng) for _ in range(3)],
            },
        )
        report = replay_corpus(path)
        assert report.cases_run == {"engine": 1, "lp": 3}
        assert report.ok


class TestFuzzCli:
    def test_replay_clean_case_exits_zero(self, capsys):
        from repro.testing.fuzz import main

        case = random_lp_case(np.random.default_rng(2))
        code = main(["--replay", "lp", json.dumps(case.to_dict())])
        assert code == 0
        assert "agrees" in capsys.readouterr().out

    def test_replay_attention_case_exits_zero(self, capsys):
        from repro.testing.fuzz import main

        case = random_attention_case(np.random.default_rng(3))
        code = main(["--replay", "attention", json.dumps(case.to_dict())])
        assert code == 0
        assert "agrees" in capsys.readouterr().out

    def test_replay_unknown_harness_exits_two(self, capsys):
        from repro.testing.fuzz import main

        code = main(["--replay", "nonesuch", "{}"])
        assert code == 2
        assert "unknown harness" in capsys.readouterr().out

    def test_sweep_writes_report(self, tmp_path, capsys):
        from repro.testing.fuzz import main

        out = tmp_path / "report.json"
        code = main(
            [
                "--engine-cases", "2", "--cem-cases", "0", "--lp-cases", "4",
                "--cem-vectorized-cases", "3", "--cem-misleading-cases", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["cases_run"] == {
            "engine": 2, "lp": 4, "cem_vectorized": 3, "cem_misleading": 5,
        }
        assert payload["discrepancies"] == []
