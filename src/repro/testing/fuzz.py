"""Command-line differential fuzz runner (the nightly CI entry point).

Usage::

    # the nightly sweep: corpus replay + 240 random cases
    PYTHONPATH=src python -m repro.testing.fuzz \
        --corpus tests/corpus/fuzz_corpus.json \
        --engine-cases 120 --cem-cases 60 --lp-cases 60 --seed 0

    # replay one minimized counterexample printed by a failing run
    PYTHONPATH=src python -m repro.testing.fuzz \
        --replay engine '{"num_ports": 1, ...}'

Exit code 0 when every case agrees, 1 on any discrepancy.  Discrepancies
are printed with their minimized repro JSON and, with ``--out``, written
to a JSON report for CI artifact upload.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from repro.testing.differential import (
    _CASE_TYPES,
    HARNESSES,
    FuzzReport,
    replay_corpus,
    run_fuzz,
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.testing.fuzz",
        description="differential fuzzing of engine/CEM/branch-and-bound vs references",
    )
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--engine-cases", type=int, default=40)
    parser.add_argument("--cem-cases", type=int, default=20)
    parser.add_argument("--lp-cases", type=int, default=40)
    parser.add_argument(
        "--cem-vectorized-cases",
        type=int,
        default=20,
        help="bit-exactness cases for the vectorized CEM vs the reference loop",
    )
    parser.add_argument(
        "--cem-misleading-cases",
        type=int,
        default=20,
        help="CEM on deliberately wrong inputs: zero post-CEM residual "
        "required; reports max EMD vs the truth",
    )
    parser.add_argument(
        "--corpus", type=Path, help="replay this corpus file before the random sweep"
    )
    parser.add_argument(
        "--no-minimize",
        action="store_true",
        help="report raw failing cases without shrinking",
    )
    parser.add_argument(
        "--out", type=Path, help="write a JSON report of the run (CI artifact)"
    )
    parser.add_argument(
        "--replay",
        nargs=2,
        metavar=("HARNESS", "CASE_JSON"),
        help="replay one serialized case through the named harness and exit",
    )
    return parser


def _report_payload(report: FuzzReport, seconds: float) -> dict:
    return {
        "cases_run": report.cases_run,
        "seconds": round(seconds, 2),
        "stats": report.stats,
        "discrepancies": [
            {
                "harness": d.harness,
                "detail": d.detail,
                "case": d.case,
                "original_case": d.original_case,
            }
            for d in report.discrepancies
        ],
    }


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)

    if args.replay:
        harness, case_json = args.replay
        if harness not in HARNESSES:
            print(f"unknown harness {harness!r}; choose from {sorted(HARNESSES)}")
            return 2
        case = _CASE_TYPES[harness].from_dict(json.loads(case_json))
        detail = HARNESSES[harness][0](case)
        if detail is None:
            print(f"[{harness}] case agrees with the reference")
            return 0
        print(f"[{harness}] DISCREPANCY: {detail}")
        return 1

    start = time.perf_counter()
    combined = FuzzReport()

    if args.corpus:
        corpus_report = replay_corpus(args.corpus)
        for harness, count in corpus_report.cases_run.items():
            combined.cases_run[harness] = combined.cases_run.get(harness, 0) + count
        combined.discrepancies.extend(corpus_report.discrepancies)
        print(f"corpus: {corpus_report.summary()}")

    sweep = run_fuzz(
        seed=args.seed,
        engine_cases=args.engine_cases,
        cem_cases=args.cem_cases,
        lp_cases=args.lp_cases,
        cem_vectorized_cases=args.cem_vectorized_cases,
        cem_misleading_cases=args.cem_misleading_cases,
        minimize=not args.no_minimize,
        log=print,
    )
    for harness, count in sweep.cases_run.items():
        combined.cases_run[harness] = combined.cases_run.get(harness, 0) + count
    combined.discrepancies.extend(sweep.discrepancies)
    combined.stats.update(sweep.stats)

    seconds = time.perf_counter() - start
    print(f"{combined.summary()} in {seconds:.1f}s")
    misleading = combined.stats.get("cem_misleading")
    if misleading:
        print(
            "cem_misleading: "
            f"{misleading['enforced']} enforced at zero residual "
            f"({misleading['infeasible']} infeasible) — "
            f"max EMD {misleading['max_emd']:.4f}, "
            f"mean EMD {misleading['mean_emd']:.4f} vs the true series"
        )
    for discrepancy in combined.discrepancies:
        print(discrepancy.render())

    if args.out:
        args.out.write_text(
            json.dumps(_report_payload(combined, seconds), indent=2, sort_keys=True)
            + "\n"
        )
    return 0 if combined.ok else 1


if __name__ == "__main__":
    sys.exit(main())
