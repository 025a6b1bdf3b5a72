"""Experiment harness: regenerates every table and figure of the paper.

* :mod:`~repro.eval.scenarios` — the evaluation scenario of §4 (websearch +
  incast traffic through a shared-buffer switch) and dataset generation.
* :mod:`~repro.eval.table1` — Table 1: consistency + downstream errors for
  the four methods.
* :mod:`~repro.eval.figures` — the data behind Fig. 1 (sampling hides
  incidents) and Fig. 4 (qualitative comparison of the methods).
* :mod:`~repro.eval.scalability` — §2.3/§4 scalability: FM-only solve time
  versus horizon, and CEM correction time per window.
* :mod:`~repro.eval.report` — plain-text table rendering.
"""

from repro.eval.scenarios import (
    ScenarioConfig,
    dataset_from_trace,
    generate_dataset,
    generate_trace,
    paper_scenario,
    quick_scenario,
    trace_cache_params,
)
from repro.eval.table1 import Table1Config, Table1Result, run_table1
from repro.eval.figures import fig1_data, fig4_data, pick_representative
from repro.eval.scalability import cem_timing, fm_scaling
from repro.eval.report import format_table, render_series
from repro.eval.upscaling import UpscalingPoint, run_upscaling
from repro.eval.replication import ReplicatedTable, run_replicated_table1

__all__ = [
    "ScenarioConfig",
    "generate_trace",
    "generate_dataset",
    "dataset_from_trace",
    "trace_cache_params",
    "paper_scenario",
    "quick_scenario",
    "Table1Config",
    "Table1Result",
    "run_table1",
    "fig1_data",
    "fig4_data",
    "pick_representative",
    "fm_scaling",
    "cem_timing",
    "format_table",
    "render_series",
    "UpscalingPoint",
    "run_upscaling",
    "ReplicatedTable",
    "run_replicated_table1",
]
