"""The ``repro run robustness`` experiment entry point.

Thin shell around :func:`repro.robustness.suite.run_robustness`: print
the degradation table and the claim verdict, optionally serialize the
run as a ``BENCH_robustness.json``-shaped artifact (``--bench-out``),
and optionally turn the claim into the exit code (``--check-claim``) so
CI can use a micro suite as a regression sentinel.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from repro.robustness.config import RobustnessConfig

#: Version of the ``BENCH_*.json`` shape (``benchmarks.bench_schema`` imports it).
BENCH_SCHEMA_VERSION = 1


def run_robustness_experiment(
    config: RobustnessConfig,
    bench_out: Union[str, Path, None] = None,
    check_claim: bool = False,
    selfcheck: bool = False,
) -> int:
    """Run the shift suite, print the report, optionally pin the artifact."""
    from repro.config import config_digest
    from repro.robustness.suite import bench_payload, run_robustness

    result = run_robustness(config, selfcheck=selfcheck)
    print(result.render())
    if bench_out is not None:
        timings, metrics = bench_payload(result)
        payload = {
            "schema_version": BENCH_SCHEMA_VERSION,
            "bench": "robustness",
            "config_digest": config_digest(config),
            "timings": timings,
            "metrics": metrics,
        }
        path = Path(bench_out)
        path.write_text(json.dumps(payload, indent=2) + "\n")
        print(f"\nwrote {path}")
    if check_claim and not result.claim_holds:
        print("\nclaim check FAILED: KAL+CEM degraded faster than plain ML")
        return 1
    return 0
