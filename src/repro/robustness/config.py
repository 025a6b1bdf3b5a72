"""The typed configuration of the robustness / distribution-shift suite.

:class:`RobustnessConfig` is the complete, digestable specification of a
``repro run robustness`` run: the base (training) scenario, the shift
grid swept per axis, the evaluation budget, and the training
hyper-parameters of the models under test.

Like :mod:`repro.serve.config`, this module stays deliberately light: it
is imported when the experiment registry is built (so ``repro --help``
can list ``robustness``) and must not pull in training or simulation
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.config.digest import register_digest_neutral_default
from repro.eval.scenarios import ScenarioConfig, quick_scenario


@dataclass(frozen=True)
class RobustnessConfig:
    """Everything that determines one robustness-suite run.

    The first value of every axis is the in-distribution anchor (scale
    1.0 / degradation 0.0): each method's degradation is measured against
    its own error at the anchor — as absolute MAE increase in packets for
    the pinned claim, and additionally as a ratio in the emitted curves.

    The training fields mirror :class:`~repro.eval.table1.Table1Config`
    — the suite trains the *same* models the offline pipeline would and
    then walks them off-distribution.
    """

    scenario: ScenarioConfig = field(default_factory=quick_scenario)

    # --- the shift grid (first point of each axis = the anchor) --------
    load_scales: tuple[float, ...] = (1.0, 1.5, 2.0)  # x websearch_load
    burst_scales: tuple[float, ...] = (1.0, 1.5, 2.0)  # x incast fan-in/burst
    buffer_scales: tuple[float, ...] = (1.0, 0.75, 0.5)  # x buffer_capacity
    lanz_thresholds: tuple[float, ...] = (0.0, 5.0, 20.0)  # LANZ report floor
    snmp_losses: tuple[float, ...] = (0.0, 0.2, 0.4)  # counter-poll loss rate
    # Optional structural axes (default off, digest-neutral when empty):
    # leaf counts of an evaluation fabric (anchor 1 = single switch) and
    # RED max drop probabilities (anchor 0.0 = plain DT admission).
    topology_leaves: tuple[int, ...] = ()
    red_drop_probs: tuple[float, ...] = ()

    # --- evaluation budget and determinism -----------------------------
    eval_windows: int = 0  # cap evaluated windows per point (0 = all)
    eval_seed: int = 101  # seed offset of the held-out evaluation traces
    degrade_seed: int = 7  # seeds the telemetry-degradation injectors
    claim_tolerance: float = 1.05  # multiplicative slack on the claim's
    # per-axis comparison of worst absolute MAE increases

    # --- model training (mirrors Table1Config) -------------------------
    epochs: int = 2
    batch_size: int = 8
    learning_rate: float = 1e-3
    d_model: int = 32
    num_layers: int = 2
    d_ff: int = 64
    num_heads: int = 4
    mu: float = 0.5
    seed: int = 0
    dtype: str = "float32"


# The structural axes post-date the pinned robustness digests (trace
# cache keys, BENCH artifacts, the examples corpus); while unused they
# must not move any of them.
register_digest_neutral_default("RobustnessConfig", "topology_leaves", ())
register_digest_neutral_default("RobustnessConfig", "red_drop_probs", ())
