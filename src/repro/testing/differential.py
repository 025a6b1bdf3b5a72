"""Differential harnesses: fast implementations vs their reference twins.

Each harness takes one serializable case (:mod:`repro.testing.strategies`)
and returns ``None`` when the implementations agree, or a human-readable
detail string describing the first divergence:

* :func:`diff_engines` — :class:`~repro.switchsim.engine.ArraySwitchEngine`
  vs the reference per-packet :class:`~repro.switchsim.switch.
  OutputQueuedSwitch` loop, compared bit-for-bit on every trace field and
  on the AQM policy's early-drop and mark counters (plus the invariant
  oracles on the reference trace, so a bug shared by both engines still
  surfaces);
* :func:`diff_cem` — the combinatorial :class:`~repro.imputation.cem.
  ConstraintEnforcer` vs the :class:`~repro.fm.cem_milp.MilpCem`
  reference: both must agree on feasibility, both outputs must satisfy
  C1–C3, and the L1 correction costs must match (both projections are
  optimal, so equal cost is the equivalence criterion — the argmin need
  not be unique);
* :func:`diff_cem_vectorized` — the vectorized CEM projection passes vs
  :func:`cem_interval_loop`, the per-interval loop they replaced,
  compared *bit-exactly* (same zeroed queues, same raised samples)
  including infeasibility agreement;
* :func:`diff_simplex` — the native two-phase simplex + branch-and-bound
  vs exhaustive enumeration over small all-integer domains;
* :func:`diff_cem_misleading` — CEM under *misleading* predictions
  (all-zeros / uniform-random inputs): the projection must still emit
  constraint-satisfying output (zero residual) or declare infeasibility,
  never silently violate C1–C3.  The harness additionally accumulates
  how *wrong* the constraint-satisfying output can be (max/mean EMD vs
  the true series, :data:`MISLEADING_STATS`) — quantifying the paper's
  caveat that constraints make output consistent, not correct;
* :func:`diff_attention` — the fused, batch-tiled
  :func:`~repro.autodiff.fused.attention_core` vs
  :func:`attention_node_chain`, a numpy transcription of the node chain
  it replaced, compared *bit-exactly* on the output (with and without
  ``no_grad``) and on every requested input gradient.

:func:`run_fuzz` drives the harnesses over seeded random cases and
greedily minimizes every discrepancy before reporting it; the nightly CI
job is a thin wrapper around it (:mod:`repro.testing.fuzz`).
"""

from __future__ import annotations

import dataclasses
import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from repro.testing.minimize import minimize_case
from repro.testing.oracles import OracleViolation, check_trace_invariants
from repro.testing.strategies import (
    SHRINKERS,
    AttentionCase,
    CemCase,
    EngineCase,
    LpCase,
    random_attention_case,
    random_cem_case,
    random_engine_case,
    random_lp_case,
)

#: Trace fields compared bit-for-bit by the engine harness.
TRACE_FIELDS = (
    "qlen",
    "qlen_max",
    "received",
    "sent",
    "dropped",
    "delay_sum",
    "buffer_occupancy",
)


def compare_traces(reference, candidate) -> str | None:
    """First field where two traces differ, or None when bit-identical."""
    for name in TRACE_FIELDS:
        left = getattr(reference, name)
        right = getattr(candidate, name)
        if left.shape != right.shape:
            return f"{name}: shape {left.shape} vs {right.shape}"
        diff = np.nonzero(left != right)
        if diff[0].size:
            where = tuple(int(d[0]) for d in diff)
            return (
                f"{name}{list(where)}: reference {left[where]} vs "
                f"candidate {right[where]}"
            )
    return None


# ----------------------------------------------------------------------
# Harnesses
# ----------------------------------------------------------------------
def diff_engines(case: EngineCase) -> str | None:
    """Array engine vs reference loop on one randomized configuration."""
    from repro.switchsim.simulation import Simulation

    config = case.switch_config()
    reference_sim = Simulation(
        config, case.build_traffic(), steps_per_bin=case.steps_per_bin,
        engine="reference",
    )
    candidate_sim = Simulation(
        config, case.build_traffic(), steps_per_bin=case.steps_per_bin,
        engine="array",
    )
    reference = reference_sim.run(case.num_bins)
    candidate = candidate_sim.run(case.num_bins)
    detail = compare_traces(reference, candidate)
    if detail is not None:
        return detail
    if reference_sim.switch.aqm is not None:
        for counter in ("early_drops", "packets_marked"):
            expected = getattr(reference_sim.switch.aqm, counter)
            actual = getattr(candidate_sim.switch.aqm, counter)
            if expected != actual:
                return f"aqm.{counter}: reference {expected} vs candidate {actual}"
    try:
        check_trace_invariants(reference)
    except OracleViolation as violation:
        return f"shared invariant violation: {violation}"
    return None


def diff_cem(case: CemCase) -> str | None:
    """Combinatorial CEM vs the MILP reference on one tiny window."""
    from repro.fm.cem_milp import MilpCem
    from repro.imputation.cem import CEMInfeasibleError, ConstraintEnforcer
    from repro.testing.oracles import check_cem_exactness

    sample, imputed = case.build()
    config = case.switch_config()
    enforcer = ConstraintEnforcer(config)
    milp = MilpCem(config, lp_backend="scipy")

    try:
        greedy = enforcer.enforce(imputed, sample)
    except CEMInfeasibleError as error:
        reference = milp.enforce(imputed, sample)
        if reference.status == "sat":
            return (
                f"greedy CEM declared infeasible ({error}) but the MILP found "
                f"a projection with objective {reference.objective:.6g}"
            )
        return None  # both infeasible: agreement

    try:
        check_cem_exactness(greedy, sample, config)
    except OracleViolation as violation:
        return f"greedy output inexact: {violation}"

    reference = milp.enforce(imputed, sample)
    if reference.status != "sat":
        return f"greedy CEM succeeded but the MILP reported {reference.status}"
    try:
        check_cem_exactness(reference.corrected, sample, config)
    except OracleViolation as violation:
        return f"MILP output inexact: {violation}"

    greedy_cost = enforcer.correction_cost(imputed, greedy, sample)
    if abs(greedy_cost - reference.objective) > 1e-6:
        return (
            f"correction cost diverged: greedy {greedy_cost:.6g} vs "
            f"MILP optimum {reference.objective:.6g}"
        )
    return None


def diff_cem_vectorized(case: CemCase) -> str | None:
    """The CEM projection vs :func:`cem_interval_loop`, bit for bit.

    Unlike :func:`diff_cem` (which accepts any equal-cost projection),
    the vectorized passes promise *bit-exact* float64 agreement with
    the loop they replaced — same zeroed queues, same raised samples,
    byte for byte.  Infeasibility must also agree, though the two paths
    may word their diagnostics differently.
    """
    from repro.imputation.cem import CEMInfeasibleError, ConstraintEnforcer

    sample, imputed = case.build()
    config = case.switch_config()
    vectorized = ConstraintEnforcer(config)

    try:
        expected = cem_interval_loop(config, imputed, sample)
    except CEMInfeasibleError as error:
        try:
            vectorized.enforce(imputed, sample)
        except CEMInfeasibleError:
            return None  # both infeasible: agreement
        return (
            f"reference CEM declared infeasible ({error}) but the vectorized "
            "passes produced a projection"
        )

    try:
        actual = vectorized.enforce(imputed, sample)
    except CEMInfeasibleError as error:
        return (
            f"vectorized CEM declared infeasible ({error}) but the reference "
            "loop produced a projection"
        )

    if expected.shape != actual.shape:
        return f"shape diverged: reference {expected.shape} vs vectorized {actual.shape}"
    diff = np.nonzero(expected != actual)
    if diff[0].size:
        where = tuple(int(d[0]) for d in diff)
        return (
            f"corrected[{list(where)}]: reference {expected[where]!r} vs "
            f"vectorized {actual[where]!r} (bit-exact agreement required)"
        )
    return None


def _lp_case_formulas(case: LpCase):
    from repro.smt import IntVar, Sum

    variables = [IntVar(f"x{i}", 0, d) for i, d in enumerate(case.domains)]
    formulas = []
    for constraint in case.constraints:
        expr = Sum(c * v for c, v in zip(constraint["coeffs"], variables))
        if constraint["sense"] == "<=":
            formulas.append(expr <= constraint["rhs"])
        elif constraint["sense"] == ">=":
            formulas.append(expr >= constraint["rhs"])
        else:
            formulas.append(expr.eq(constraint["rhs"]))
    objective = Sum(c * v for c, v in zip(case.objective, variables))
    return variables, formulas, objective


def _lp_case_brute_force(case: LpCase) -> int | None:
    """Optimal objective value by exhaustive enumeration, None if unsat."""
    best = None
    for values in itertools.product(*(range(d + 1) for d in case.domains)):
        feasible = True
        for constraint in case.constraints:
            total = sum(c * v for c, v in zip(constraint["coeffs"], values))
            if constraint["sense"] == "<=" and total > constraint["rhs"]:
                feasible = False
            elif constraint["sense"] == ">=" and total < constraint["rhs"]:
                feasible = False
            elif constraint["sense"] == "==" and total != constraint["rhs"]:
                feasible = False
            if not feasible:
                break
        if feasible:
            score = sum(c * v for c, v in zip(case.objective, values))
            best = score if best is None else min(best, score)
    return best


def diff_simplex(case: LpCase) -> str | None:
    """Native simplex + branch-and-bound vs brute-force enumeration."""
    from repro.smt import Solver

    variables, formulas, objective = _lp_case_formulas(case)
    brute = _lp_case_brute_force(case)

    solver = Solver(lp_backend="native")
    solver.add(*formulas)
    result = solver.minimize(objective)

    if brute is None:
        return None if result.status == "unsat" else (
            f"enumeration says unsat but solver returned {result.status}"
        )
    if not result.is_sat:
        return f"enumeration found optimum {brute} but solver returned {result.status}"
    if abs(result.objective - brute) > 1e-6:
        return (
            f"objective diverged: solver {result.objective:.6g} vs "
            f"enumeration {brute}"
        )
    model = {v: result.model[v] for v in variables}
    for value, domain in zip(model.values(), case.domains):
        if not (-1e-6 <= value <= domain + 1e-6):
            return f"solver model value {value} outside domain [0, {domain}]"
    return None


@dataclass
class MisleadingStats:
    """What the ``cem_misleading`` harness measured across one run.

    ``max_emd``/``mean_emd`` quantify how far a constraint-*satisfying*
    projection can sit from the truth when the prediction it started from
    was garbage — the residual is zero, the error is not.
    """

    cases: int = 0
    infeasible: int = 0  # CEM (correctly) refused the input
    enforced: int = 0  # CEM produced constraint-satisfying output
    max_emd: float = 0.0  # worst post-CEM EMD vs the true series
    sum_emd: float = 0.0
    worst_case: dict | None = None  # serialized case behind max_emd

    @property
    def mean_emd(self) -> float:
        return self.sum_emd / self.enforced if self.enforced else 0.0

    def reset(self) -> None:
        self.cases = 0
        self.infeasible = 0
        self.enforced = 0
        self.max_emd = 0.0
        self.sum_emd = 0.0
        self.worst_case = None

    def to_dict(self) -> dict:
        return {
            "cases": self.cases,
            "infeasible": self.infeasible,
            "enforced": self.enforced,
            "max_emd": self.max_emd,
            "mean_emd": self.mean_emd,
            "worst_case": self.worst_case,
        }


#: Accumulated by :func:`diff_cem_misleading`; reset per :func:`run_fuzz`.
MISLEADING_STATS = MisleadingStats()


def random_misleading_cem_case(rng) -> CemCase:
    """A CEM case whose input is deliberately wildly wrong."""
    case = random_cem_case(rng)
    kind = ("zeros", "random")[int(rng.integers(2))]
    return dataclasses.replace(case, input_kind=kind)


def diff_cem_misleading(case: CemCase) -> str | None:
    """CEM on a misleading prediction: zero residual or declared infeasible.

    A discrepancy is output that claims success while violating C1–C3.
    Infeasibility is *not* a discrepancy — refusing garbage is correct
    behaviour.  Side effect: accumulates the post-CEM EMD against the
    true series into :data:`MISLEADING_STATS`.
    """
    from repro.constraints.spec import check_constraints
    from repro.imputation.cem import CEMInfeasibleError, ConstraintEnforcer
    from repro.nn.losses import emd_numpy

    sample, imputed = case.build()
    config = case.switch_config()
    enforcer = ConstraintEnforcer(config)
    MISLEADING_STATS.cases += 1
    try:
        corrected = enforcer.enforce(imputed, sample)
    except CEMInfeasibleError:
        MISLEADING_STATS.infeasible += 1
        return None
    report = check_constraints(corrected, sample, config)
    if not report.satisfied:
        return (
            "post-CEM constraints unsatisfied on a misleading input "
            f"(kind={case.input_kind!r}): C1 {report.max_error:.3g} "
            f"C2 {report.periodic_error:.3g} C3 {report.sent_error:.3g}"
        )
    emd = float(
        np.mean(
            [
                emd_numpy(corrected[q], sample.target_raw[q])
                for q in range(corrected.shape[0])
            ]
        )
    )
    MISLEADING_STATS.enforced += 1
    MISLEADING_STATS.sum_emd += emd
    if emd > MISLEADING_STATS.max_emd:
        MISLEADING_STATS.max_emd = emd
        MISLEADING_STATS.worst_case = case.to_dict()
    return None


def cem_interval_loop(config, imputed, sample):
    """The per-interval CEM loop the vectorized passes replaced.

    The bit-exact oracle for :meth:`repro.imputation.cem.
    ConstraintEnforcer.enforce` at the default epsilon: clip at zero, pin
    the sampled bins (C2), run C1-down, C3 and C1-up one port or queue
    and one interval at a time, and validate the result.  Raises
    :class:`~repro.imputation.cem.CEMInfeasibleError` where ``enforce``
    would, though its diagnostic may name a different port or interval.
    """
    from repro.constraints.spec import NONEMPTY_EPSILON, check_constraints
    from repro.imputation.cem import CEMInfeasibleError

    eps = NONEMPTY_EPSILON
    series = np.clip(np.asarray(imputed, dtype=float), 0.0, None)
    series[:, sample.sample_positions] = sample.m_sample
    interval = sample.interval
    pinned = np.zeros(sample.num_bins, dtype=bool)
    pinned[sample.sample_positions] = True

    # C1-down: clip every bin to its interval's LANZ max.
    for i in range(sample.num_intervals):
        span = slice(i * interval, (i + 1) * interval)
        np.minimum(series[:, span], sample.m_max[:, i : i + 1], out=series[:, span])

    # C3: empty the cheapest non-pinned busy bins of an over-busy port.
    for port in range(config.num_ports):
        rows = list(config.queues_of_port(port))
        for i in range(sample.num_intervals):
            span = np.arange(i * interval, (i + 1) * interval)
            mass = series[np.ix_(rows, span)].sum(axis=0)
            busy = mass > eps
            excess = int(busy.sum()) - int(sample.m_sent[port, i])
            if excess <= 0:
                continue
            candidates = span[busy & ~pinned[span]]
            if len(candidates) < excess:
                raise CEMInfeasibleError(
                    f"port {port} interval {i}: {int(busy.sum())} busy bins, "
                    f"{int(sample.m_sent[port, i])} packets sent, but only "
                    f"{len(candidates)} bins can be emptied"
                )
            costs = series[np.ix_(rows, candidates)].sum(axis=0)
            cheapest = candidates[np.argsort(costs, kind="stable")[:excess]]
            series[np.ix_(rows, cheapest)] = 0.0

    # C1-up: raise one bin per queue and interval to the LANZ max.
    port_of_queue = [
        port for port in range(config.num_ports) for _ in config.queues_of_port(port)
    ]
    for queue in range(sample.num_queues):
        port = port_of_queue[queue]
        rows = list(config.queues_of_port(port))
        for i in range(sample.num_intervals):
            target = sample.m_max[queue, i]
            if target <= 0:
                continue  # C1-down already forced the interval to zero
            span = np.arange(i * interval, (i + 1) * interval)
            values = series[queue, span]
            if values.max() >= target - 1e-9:
                continue
            port_mass = series[np.ix_(rows, span)].sum(axis=0)
            busy = port_mass > eps
            free = ~pinned[span]
            budget = int(sample.m_sent[port, i]) - int(busy.sum())

            busy_free = span[busy & free]
            if len(busy_free) > 0:
                # Raising where the port is already busy costs no C3
                # budget; pick the bin needing the smallest raise.
                best = busy_free[np.argmax(series[queue, busy_free])]
            elif budget > 0:
                idle_free = span[~busy & free]
                if len(idle_free) == 0:
                    raise CEMInfeasibleError(
                        f"queue {queue} interval {i}: no bin available to "
                        f"carry the measured max {target}"
                    )
                best = idle_free[np.argmax(series[queue, idle_free])]
            else:
                raise CEMInfeasibleError(
                    f"queue {queue} interval {i}: max {target} cannot be "
                    "placed without exceeding the sent-count bound"
                )
            series[queue, best] = target

    report = check_constraints(series, sample, config)
    if not report.satisfied:
        raise CEMInfeasibleError(
            f"correction left violations: max={report.max_error:.3g}, "
            f"periodic={report.periodic_error:.3g}, sent={report.sent_error:.3g}"
        )
    return series


def attention_node_chain(q, k, v, g, scale, mask=None, dropout=None):
    """numpy transcription of the attention graph before ``attention_core``.

    The bit-exact oracle for :func:`repro.autodiff.fused.attention_core`.
    Forward: a QK^T matmul node, the fused scale+mask+softmax node, the
    dropout multiply and the context matmul, each over the whole batch.
    Backward: their closures in the order the graph ran them — context
    matmul, dropout multiply, softmax, QK^T matmul, then the swapaxes
    that produced K^T.  Returns ``(out, dq, dk, dv)`` for the seed
    gradient ``g``.
    """
    k_t = np.swapaxes(k, -1, -2)
    raw = q @ k_t
    t = raw * scale
    if mask is not None:
        t += mask
    np.subtract(t, t.max(axis=-1, keepdims=True), out=t)
    np.exp(t, out=t)
    probs = t
    probs /= probs.sum(axis=-1, keepdims=True)
    weights = probs if dropout is None else probs * dropout
    out = weights @ v

    d_weights = g @ np.swapaxes(v, -1, -2)
    dv = np.swapaxes(weights, -1, -2) @ g
    d_probs = d_weights if dropout is None else d_weights * dropout
    d_raw = d_probs * probs
    inner = d_raw.sum(axis=-1, keepdims=True)
    np.subtract(d_probs, inner, out=d_raw)
    d_raw *= probs
    d_raw *= scale
    dq = d_raw @ np.swapaxes(k_t, -1, -2)
    dk = np.swapaxes(np.swapaxes(q, -1, -2) @ d_raw, -1, -2)
    return out, dq, dk, dv


def _first_bit_difference(name: str, expected, actual) -> str | None:
    if actual.dtype != expected.dtype or actual.shape != expected.shape:
        return (
            f"{name}: {actual.dtype}{actual.shape} vs oracle "
            f"{expected.dtype}{expected.shape}"
        )
    diff = np.nonzero(actual != expected)
    if diff[0].size:
        where = tuple(int(d[0]) for d in diff)
        return (
            f"{name}{list(where)}: fused {actual[where]!r} vs node chain "
            f"{expected[where]!r} (bit-exact agreement required)"
        )
    return None


def diff_attention(case: AttentionCase) -> str | None:
    """Fused attention node vs the node chain it replaced, bit for bit.

    Compares the output in grad mode and under ``no_grad``, and the
    gradient of every input named in ``case.grad_of``; the others must
    receive none.
    """
    from repro.autodiff import Tensor, no_grad
    from repro.autodiff.fused import attention_core

    q, k, v, g, scale, mask, dropout = case.build()
    expected = dict(
        zip(("out", "q", "k", "v"), attention_node_chain(q, k, v, g, scale, mask, dropout))
    )
    tensors = {
        name: Tensor(array, requires_grad=name in case.grad_of, dtype=array.dtype)
        for name, array in zip("qkv", (q, k, v))
    }
    args = (tensors["q"], tensors["k"], tensors["v"], scale)
    with no_grad():
        inference = attention_core(*args, mask=mask, dropout=dropout)
    detail = _first_bit_difference("no_grad out", expected["out"], inference.data)
    if detail is not None:
        return detail
    out = attention_core(*args, mask=mask, dropout=dropout)
    detail = _first_bit_difference("out", expected["out"], out.data)
    if detail is not None or not case.grad_of:
        return detail
    out.backward(g)
    for name, tensor in tensors.items():
        if name not in case.grad_of:
            if tensor.grad is not None:
                return f"d{name}: set although {name} does not require grad"
            continue
        detail = _first_bit_difference(f"d{name}", expected[name], tensor.grad)
        if detail is not None:
            return detail
    return None


#: harness name -> (diff function, random case factory)
HARNESSES: dict[str, tuple[Callable, Callable]] = {
    "engine": (diff_engines, random_engine_case),
    "cem": (diff_cem, random_cem_case),
    "cem_vectorized": (diff_cem_vectorized, random_cem_case),
    "lp": (diff_simplex, random_lp_case),
    "cem_misleading": (diff_cem_misleading, random_misleading_cem_case),
    "attention": (diff_attention, random_attention_case),
}

_CASE_TYPES = {
    "engine": EngineCase,
    "cem": CemCase,
    "cem_vectorized": CemCase,
    "lp": LpCase,
    "cem_misleading": CemCase,
    "attention": AttentionCase,
}


# ----------------------------------------------------------------------
# Fuzz driver
# ----------------------------------------------------------------------
@dataclass
class Discrepancy:
    """One confirmed divergence, with its minimized repro."""

    harness: str
    detail: str
    case: dict  # minimized case, serialized
    original_case: dict

    def render(self) -> str:
        return (
            f"[{self.harness}] {self.detail}\n"
            f"repro: {json.dumps(self.case, sort_keys=True)}"
        )


@dataclass
class FuzzReport:
    """Outcome of a fuzz run: cases executed and discrepancies found."""

    cases_run: dict[str, int] = field(default_factory=dict)
    discrepancies: list[Discrepancy] = field(default_factory=list)
    #: per-harness side-channel measurements (e.g. cem_misleading EMDs)
    stats: dict[str, dict] = field(default_factory=dict)

    @property
    def total_cases(self) -> int:
        return sum(self.cases_run.values())

    @property
    def ok(self) -> bool:
        return not self.discrepancies

    def summary(self) -> str:
        per_harness = ", ".join(f"{k}={v}" for k, v in sorted(self.cases_run.items()))
        status = "OK" if self.ok else f"{len(self.discrepancies)} DISCREPANCIES"
        return f"fuzz: {self.total_cases} cases ({per_harness}) — {status}"


def _minimized(harness: str, diff: Callable, case) -> Discrepancy:
    detail = diff(case)

    def still_fails(candidate) -> bool:
        try:
            return diff(candidate) is not None
        except Exception:
            # A shrunk case that crashes outright is a *different* bug;
            # don't chase it while minimizing this one.
            return False

    small = minimize_case(case, still_fails, SHRINKERS[type(case)])
    return Discrepancy(
        harness=harness,
        detail=diff(small) or detail,
        case=small.to_dict(),
        original_case=case.to_dict(),
    )


def run_fuzz(
    seed: int = 0,
    engine_cases: int = 0,
    cem_cases: int = 0,
    lp_cases: int = 0,
    cem_vectorized_cases: int = 0,
    cem_misleading_cases: int = 0,
    attention_cases: int = 0,
    minimize: bool = True,
    max_discrepancies: int = 5,
    log: Callable[[str], None] | None = None,
) -> FuzzReport:
    """Run the differential harnesses over seeded random cases.

    Deterministic given ``seed`` and the case counts.  Stops collecting
    after ``max_discrepancies`` failures (minimization dominates the cost
    of a failing run).
    """
    report = FuzzReport()
    MISLEADING_STATS.reset()
    budgets = {
        "engine": engine_cases,
        "cem": cem_cases,
        "lp": lp_cases,
        "cem_vectorized": cem_vectorized_cases,
        "cem_misleading": cem_misleading_cases,
        "attention": attention_cases,
    }
    # Stable sub-stream ids: appending a harness must not reshuffle the
    # cases the existing harnesses see for a given seed.
    streams = {
        "engine": 1,
        "cem": 2,
        "lp": 3,
        "cem_vectorized": 4,
        "cem_misleading": 5,
        "attention": 6,
    }
    for harness, budget in budgets.items():
        diff, make_case = HARNESSES[harness]
        rng = np.random.default_rng([seed, streams[harness]])
        for index in range(budget):
            case = make_case(rng)
            detail = diff(case)
            report.cases_run[harness] = report.cases_run.get(harness, 0) + 1
            if detail is not None:
                if minimize:
                    report.discrepancies.append(_minimized(harness, diff, case))
                else:
                    report.discrepancies.append(
                        Discrepancy(harness, detail, case.to_dict(), case.to_dict())
                    )
                if log:
                    log(f"{harness} case {index}: {detail}")
                if len(report.discrepancies) >= max_discrepancies:
                    return _with_stats(report)
            elif log and (index + 1) % 25 == 0:
                log(f"{harness}: {index + 1}/{budget} cases clean")
    return _with_stats(report)


def _with_stats(report: FuzzReport) -> FuzzReport:
    if MISLEADING_STATS.cases:
        report.stats["cem_misleading"] = MISLEADING_STATS.to_dict()
    return report


# ----------------------------------------------------------------------
# Seed corpus
# ----------------------------------------------------------------------
def replay_corpus(path: str | Path) -> FuzzReport:
    """Re-run every case in a corpus file (see ``tests/corpus/``).

    The corpus pins previously interesting configurations — near-boundary
    buffer sizes, single-port switches, degenerate traffic — so refactors
    are always exercised against them before the random sweep.
    """
    data = json.loads(Path(path).read_text())
    report = FuzzReport()
    for harness, cases in data.items():
        diff, _ = HARNESSES[harness]
        case_type = _CASE_TYPES[harness]
        for entry in cases:
            case = case_type.from_dict(entry)
            detail = diff(case)
            report.cases_run[harness] = report.cases_run.get(harness, 0) + 1
            if detail is not None:
                report.discrepancies.append(
                    Discrepancy(harness, detail, case.to_dict(), case.to_dict())
                )
    return report


def write_corpus(path: str | Path, cases: dict[str, Sequence]) -> None:
    """Serialize a harness->cases mapping as a corpus file."""
    payload = {
        harness: [case.to_dict() for case in entries]
        for harness, entries in cases.items()
    }
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
