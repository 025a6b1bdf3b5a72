"""Invariant oracles, differential fuzzing, and runtime self-checks.

The simulator, the CEM, and the SMT core each exist twice in this repo — a
fast implementation and a slower reference twin — and the paper's whole
argument rests on their outputs being *exactly* right.  This package turns
that correctness story into reusable machinery instead of per-test spot
checks:

* :mod:`repro.testing.oracles` — physical invariants (packet conservation,
  shared-buffer bounds, Dynamic-Threshold admission, work conservation,
  C1–C3 consistency, CEM exactness, finite-difference gradient checks)
  stated once and imported by the test suite, the fuzz harnesses, and the
  runtime hooks alike;
* :mod:`repro.testing.strategies` — randomized-but-serializable test-case
  constructors shared by the property tests and the fuzzer, so a failure
  always reduces to a small JSON repro config;
* :mod:`repro.testing.differential` — harnesses that diff the fast
  implementations against their reference twins (ArraySwitchEngine vs the
  per-packet loop, combinatorial CEM vs the MILP formulation, the CEM
  passes vs the per-interval loop they replaced, branch and bound vs
  brute-force enumeration, the fused attention node vs the node chain it
  replaced);
* :mod:`repro.testing.minimize` — greedy counterexample shrinking (bisect
  the time horizon, drop ports/queues, thin the traffic) so a fuzz failure
  lands as a ~10-line repro instead of a 12 000-bin trace;
* :mod:`repro.testing.selfcheck` — cheap inline oracles behind the
  ``selfcheck=`` option of :class:`~repro.switchsim.simulation.Simulation`
  / :func:`~repro.eval.scenarios.generate_trace` and the ``--selfcheck``
  CLI flag; violations raise :class:`SelfCheckError` carrying a serialized
  minimal repro;
* :mod:`repro.testing.golden` — content fingerprints of traces for golden
  regression tests that pin the RNG stream layout (``TRAFFIC_REV``);
* :mod:`repro.testing.stream` — the deterministic stream-test harness:
  golden fleet replays through :mod:`repro.serve` pinned bit-identical to
  the offline batch pipeline on the same windows;
* :mod:`repro.testing.fuzz` — the command-line fuzz runner used by the
  nightly CI job (``python -m repro.testing.fuzz``).
"""

from repro.testing.oracles import (
    OracleViolation,
    check_buffer_occupancy,
    check_cem_exactness,
    check_dataset_consistency,
    check_dt_admission_bound,
    check_gradients,
    check_packet_conservation,
    check_trace_invariants,
    check_work_conservation,
    finite_difference_gradient,
)
from repro.testing.golden import trace_fingerprint
from repro.testing.selfcheck import SelfCheckError, selfcheck_enforced, selfcheck_trace
from repro.testing.strategies import (
    AttentionCase,
    CemCase,
    EngineCase,
    LpCase,
    build_case_traffic,
    random_attention_case,
    random_cem_case,
    random_engine_case,
    random_lp_case,
)
from repro.testing.differential import (
    Discrepancy,
    FuzzReport,
    attention_node_chain,
    cem_interval_loop,
    diff_attention,
    diff_cem,
    diff_engines,
    diff_simplex,
    replay_corpus,
    run_fuzz,
)
from repro.testing.minimize import minimize_case
from repro.testing.stream import (
    assert_stream_matches_offline,
    fleet_record_schedule,
    offline_windows,
    replay,
)

__all__ = [
    "OracleViolation",
    "SelfCheckError",
    "check_buffer_occupancy",
    "check_cem_exactness",
    "check_dataset_consistency",
    "check_dt_admission_bound",
    "check_gradients",
    "check_packet_conservation",
    "check_trace_invariants",
    "check_work_conservation",
    "finite_difference_gradient",
    "selfcheck_enforced",
    "selfcheck_trace",
    "trace_fingerprint",
    "AttentionCase",
    "CemCase",
    "EngineCase",
    "LpCase",
    "build_case_traffic",
    "random_attention_case",
    "random_cem_case",
    "random_engine_case",
    "random_lp_case",
    "Discrepancy",
    "FuzzReport",
    "attention_node_chain",
    "cem_interval_loop",
    "diff_attention",
    "diff_cem",
    "diff_engines",
    "diff_simplex",
    "replay_corpus",
    "run_fuzz",
    "minimize_case",
    "assert_stream_matches_offline",
    "fleet_record_schedule",
    "offline_windows",
    "replay",
]
