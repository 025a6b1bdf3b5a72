"""repro.robustness — distribution shift, degraded telemetry, OOD guardrails.

The paper's pitch is that constraint integration makes ML-based network
models *trustworthy*; trustworthiness is decided off-distribution.  This
package operationalises that:

* :mod:`repro.robustness.shift` — a typed grid of distribution shifts
  (:class:`ShiftPoint` / :func:`shift_grid`): workload shifts (load,
  incast burst, buffer size) expressed as derived
  :class:`~repro.eval.scenarios.ScenarioConfig` s, and telemetry shifts
  (LANZ thresholding, SNMP poll loss) applied to the measurements alone;
* :mod:`repro.robustness.degrade` — the deterministic, seedable
  degradation injectors (:func:`degrade_sample`) shared with
  ``benchmarks/bench_robustness.py``; they route each window through
  :mod:`repro.telemetry.noise`, home of LANZ thresholding and the
  ``carry_forward`` repair of lost SNMP polls;
* :mod:`repro.robustness.suite` — train on the paper's base mix, walk
  the grid, and emit per-method degradation curves plus the
  machine-checked claim that ``Transformer+KAL+CEM`` degrades no faster
  than plain ``Transformer`` on any axis (:func:`run_robustness`,
  pinned in ``BENCH_robustness.json``);
* :mod:`repro.robustness.sentinel` — the deployed counterpart: a
  cheap OOD score calibrated from pre-enforcement constraint residuals
  and CEM correction mass (:class:`OODSentinel`,
  :func:`calibrate_sentinel`), consumed by :mod:`repro.serve` to flag
  or quarantine off-distribution windows;
* :mod:`repro.robustness.config` / :mod:`repro.robustness.runner` — the
  typed :class:`RobustnessConfig` and the ``repro run robustness``
  experiment.

Like :mod:`repro.serve`, the package is strictly opt-in: names re-export
lazily, and building the experiment registry imports only the config
module.
"""

from __future__ import annotations

from typing import Any

__all__ = [
    "RobustnessConfig",
    "ShiftPoint",
    "shift_grid",
    "degrade_sample",
    "degrade_dataset_samples",
    "OODSentinel",
    "calibrate_sentinel",
    "RobustnessResult",
    "run_robustness",
    "run_robustness_experiment",
    "METHODS",
]

_EXPORTS = {
    "RobustnessConfig": "repro.robustness.config",
    "ShiftPoint": "repro.robustness.shift",
    "shift_grid": "repro.robustness.shift",
    "degrade_sample": "repro.robustness.degrade",
    "degrade_dataset_samples": "repro.robustness.degrade",
    "OODSentinel": "repro.robustness.sentinel",
    "calibrate_sentinel": "repro.robustness.sentinel",
    "RobustnessResult": "repro.robustness.suite",
    "run_robustness": "repro.robustness.suite",
    "METHODS": "repro.robustness.suite",
    "run_robustness_experiment": "repro.robustness.runner",
}


def __getattr__(name: str) -> Any:
    """Lazy re-exports: nothing below this package loads until used."""
    try:
        module_name = _EXPORTS[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro.robustness' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
