"""Randomized-but-serializable test cases for the differential harnesses.

Every case is a flat dataclass of JSON-encodable primitives with
``to_dict``/``from_dict``: the fuzzer draws cases from a seeded RNG, the
minimizer mutates copies of them, and a failure is reported as the
case's JSON — a ~10-line repro config anyone can replay with
``python -m repro.testing.fuzz --replay``.

Four case families mirror the repo's fast/reference implementation pairs:

* :class:`EngineCase` — a switch configuration (optionally with an AQM
  policy) plus a traffic spec, run through both
  :class:`~repro.switchsim.engine.ArraySwitchEngine` and the reference
  per-packet loop;
* :class:`CemCase` — a tiny simulated scenario plus a perturbed imputation,
  projected by both the combinatorial CEM and the MILP formulation;
* :class:`LpCase` — a small all-integer MILP, solved by branch and bound
  (HiGHS LP relaxations) and by exhaustive enumeration;
* :class:`AttentionCase` — one fused attention call, compared bit for bit
  with the matmul/softmax/dropout/matmul node chain it replaced.

Traffic specs intentionally store *raw* parameters (destination ports may
exceed ``num_ports``); builders clamp with a modulo so the minimizer can
shrink ``num_ports`` without invalidating the spec.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, replace
from typing import Any

import numpy as np

from repro.switchsim.switch import SwitchConfig

_SCHEDULERS = ("rr", "sp")


def _scheduler_factory(name: str):
    from repro.switchsim.scheduler import RoundRobinScheduler, StrictPriorityScheduler

    if name == "rr":
        return RoundRobinScheduler
    if name == "sp":
        return StrictPriorityScheduler
    raise ValueError(f"unknown scheduler {name!r}; expected one of {_SCHEDULERS}")


# ----------------------------------------------------------------------
# Traffic specs
# ----------------------------------------------------------------------
def build_case_traffic(spec: dict, num_ports: int, queues_per_port: int):
    """Materialise a traffic-spec dict into a fresh generator.

    Destinations and queue classes are clamped into range so a spec stays
    valid while the minimizer shrinks the switch underneath it.
    """
    from repro.traffic.distributions import FixedSizes, WebsearchSizes
    from repro.traffic.generators import (
        CompositeTraffic,
        IncastTraffic,
        PoissonFlowTraffic,
        ScriptedTraffic,
    )

    kind = spec["kind"]
    if kind == "poisson":
        sizes = (
            WebsearchSizes() if spec.get("flow_size", 0) <= 0 else FixedSizes(spec["flow_size"])
        )
        return PoissonFlowTraffic(
            num_sources=spec["num_sources"],
            num_ports=num_ports,
            flows_per_step=spec["flows_per_step"],
            sizes=sizes,
            class_weights=(1.0,) * queues_per_port,
            seed=spec["seed"],
        )
    if kind == "incast":
        return IncastTraffic(
            fan_in=spec["fan_in"],
            burst_size=spec["burst_size"],
            period=spec["period"],
            dst_port=spec["dst_port"] % num_ports,
            qclass=min(spec.get("qclass", 0), queues_per_port - 1),
            jitter=spec["jitter"],
            seed=spec["seed"],
            start_step=spec.get("start_step", 0),
        )
    if kind == "scripted":
        script = {
            int(step): [
                (dst % num_ports, min(qclass, queues_per_port - 1))
                for dst, qclass in packets
            ]
            for step, packets in spec["script"].items()
        }
        return ScriptedTraffic(script)
    if kind == "composite":
        return CompositeTraffic(
            [
                build_case_traffic(child, num_ports, queues_per_port)
                for child in spec["children"]
            ]
        )
    raise ValueError(f"unknown traffic kind {kind!r}")


def _random_traffic_spec(rng: np.random.Generator, num_ports: int) -> dict:
    kind = int(rng.integers(4))
    seed = int(rng.integers(2**31))
    if kind == 0:
        return {
            "kind": "poisson",
            "num_sources": int(rng.integers(2, 10)),
            "flows_per_step": round(float(rng.uniform(0.02, 0.4)), 4),
            "flow_size": int(rng.integers(0, 6)),  # 0 → websearch sizes
            "seed": seed,
        }
    if kind == 1:
        return {
            "kind": "incast",
            "fan_in": int(rng.integers(2, 8)),
            "burst_size": int(rng.integers(2, 30)),
            "period": int(rng.integers(10, 60)),
            "dst_port": int(rng.integers(num_ports)),
            "qclass": int(rng.integers(4)),
            "jitter": int(rng.integers(0, 12)),
            "seed": seed,
        }
    if kind == 2:
        script_rng = np.random.default_rng(seed)
        return {
            "kind": "scripted",
            "script": {
                str(int(step)): [
                    [int(script_rng.integers(num_ports)), int(script_rng.integers(4))]
                    for _ in range(int(script_rng.integers(1, 5)))
                ]
                for step in script_rng.integers(0, 200, size=20)
            },
        }
    children_rng = np.random.default_rng(seed)
    return {
        "kind": "composite",
        "children": [
            _random_traffic_spec(children_rng, num_ports)
            for _ in range(int(rng.integers(2, 4)))
        ],
    }


# ----------------------------------------------------------------------
# AQM specs
# ----------------------------------------------------------------------
def _aqm_factory(spec: dict | None):
    """The ``SwitchConfig.aqm_factory`` an AQM-spec dict describes.

    ``None`` keeps the inline Dynamic-Threshold path; ``{"kind": "dt"}``
    is :class:`~repro.switchsim.aqm.DtPolicy` as an object; ``"red"``
    carries ``min_th``/``max_th``/``max_p``/``seed`` and ``"ecn"`` its
    ``mark`` threshold, all in packets.
    """
    from repro.switchsim.aqm import DtPolicy, EcnPolicy, RedPolicy

    if spec is None:
        return None
    kind = spec["kind"]
    if kind == "dt":
        return DtPolicy
    if kind == "red":
        return lambda: RedPolicy(
            spec["min_th"], spec["max_th"], spec["max_p"], seed=spec["seed"]
        )
    if kind == "ecn":
        return lambda: EcnPolicy(spec["mark"])
    raise ValueError(f"unknown aqm kind {kind!r}")


def _random_aqm_spec(rng: np.random.Generator, buffer_capacity: int) -> dict | None:
    """No policy half the time, else DT-as-object, RED or ECN evenly."""
    kind = int(rng.integers(6))
    if kind < 3:
        return None
    if kind == 3:
        return {"kind": "dt"}
    if kind == 4:
        min_th = int(rng.integers(0, buffer_capacity // 2 + 1))
        return {
            "kind": "red",
            "min_th": min_th,
            "max_th": min_th + int(rng.integers(1, buffer_capacity + 1)),
            "max_p": round(float(rng.uniform(0.05, 1.0)), 3),
            "seed": int(rng.integers(2**31)),
        }
    return {"kind": "ecn", "mark": int(rng.integers(0, buffer_capacity + 1))}


# ----------------------------------------------------------------------
# Engine differential cases
# ----------------------------------------------------------------------
@dataclass
class EngineCase:
    """One randomized configuration for the engine differential harness.

    ``aqm`` is an optional AQM-spec dict (see :func:`_aqm_factory`);
    ``None``, the default, is the inline Dynamic-Threshold admission.
    """

    num_ports: int
    queues_per_port: int
    buffer_capacity: int
    alphas: list[float]
    scheduler: str  # "rr" | "sp"
    steps_per_bin: int
    num_bins: int
    traffic: dict
    aqm: dict | None = None

    def switch_config(self) -> SwitchConfig:
        return SwitchConfig(
            num_ports=self.num_ports,
            queues_per_port=self.queues_per_port,
            buffer_capacity=self.buffer_capacity,
            alphas=tuple(self.alphas[: self.queues_per_port]),
            scheduler_factory=_scheduler_factory(self.scheduler),
            aqm_factory=_aqm_factory(self.aqm),
        )

    def build_traffic(self):
        return build_case_traffic(self.traffic, self.num_ports, self.queues_per_port)

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "EngineCase":
        return cls(**data)


def random_engine_case(rng: np.random.Generator) -> EngineCase:
    """Draw a randomized engine case (same envelope as the property tests)."""
    num_ports = int(rng.integers(1, 5))
    queues_per_port = int(rng.integers(1, 4))
    alphas = [round(float(rng.uniform(0.2, 2.0)), 3) for _ in range(queues_per_port)]
    buffer_capacity = int(rng.integers(10, 120))
    return EngineCase(
        num_ports=num_ports,
        queues_per_port=queues_per_port,
        buffer_capacity=buffer_capacity,
        alphas=alphas,
        scheduler=_SCHEDULERS[int(rng.integers(2))],
        steps_per_bin=int(rng.integers(1, 20)),
        num_bins=int(rng.integers(10, 60)),
        traffic=_random_traffic_spec(rng, num_ports),
        # Drawn last, so every other field matches the pre-AQM draw.
        aqm=_random_aqm_spec(rng, buffer_capacity),
    )


def shrink_engine_case(case: EngineCase):
    """Candidate smaller cases, most aggressive first.

    Order matters for shrink quality: bisect the time horizon before
    touching structure, drop ports/queues before thinning traffic.
    """
    if case.num_bins > 1:
        yield replace(case, num_bins=case.num_bins // 2)
        yield replace(case, num_bins=case.num_bins - 1)
    if case.steps_per_bin > 1:
        yield replace(case, steps_per_bin=max(1, case.steps_per_bin // 2))
    if case.num_ports > 1:
        yield replace(case, num_ports=case.num_ports - 1)
    if case.queues_per_port > 1:
        yield replace(
            case,
            queues_per_port=case.queues_per_port - 1,
            alphas=case.alphas[: case.queues_per_port - 1],
        )
    if case.buffer_capacity > 2:
        yield replace(case, buffer_capacity=max(2, case.buffer_capacity // 2))
    if case.aqm is not None:
        yield replace(case, aqm=None)
    yield from (
        replace(case, traffic=spec) for spec in _shrink_traffic_spec(case.traffic)
    )


def _shrink_traffic_spec(spec: dict):
    kind = spec["kind"]
    if kind == "composite" and len(spec["children"]) > 1:
        for drop in range(len(spec["children"])):
            children = [c for i, c in enumerate(spec["children"]) if i != drop]
            yield children[0] if len(children) == 1 else {
                "kind": "composite",
                "children": children,
            }
    if kind == "poisson":
        if spec["num_sources"] > 1:
            yield {**spec, "num_sources": spec["num_sources"] // 2 or 1}
        if spec["flows_per_step"] > 0.02:
            yield {**spec, "flows_per_step": round(spec["flows_per_step"] / 2, 4)}
    if kind == "incast":
        if spec["burst_size"] > 1:
            yield {**spec, "burst_size": spec["burst_size"] // 2 or 1}
        if spec["fan_in"] > 1:
            yield {**spec, "fan_in": spec["fan_in"] // 2 or 1}
        if spec["jitter"] > 0:
            yield {**spec, "jitter": 0}
    if kind == "scripted" and len(spec["script"]) > 1:
        steps = sorted(spec["script"], key=int)
        half = {s: spec["script"][s] for s in steps[: len(steps) // 2]}
        yield {**spec, "script": half}


# ----------------------------------------------------------------------
# CEM differential cases
# ----------------------------------------------------------------------
@dataclass
class CemCase:
    """A tiny scenario + perturbed imputation for the CEM harness.

    Kept deliberately small (the MILP reference carries one binary per
    port × bin); the combinatorial CEM itself scales far beyond this.
    """

    num_ports: int
    queues_per_port: int
    buffer_capacity: int
    alphas: list[float]
    flows_per_step: float
    flow_size: int
    traffic_seed: int
    steps_per_bin: int
    interval: int
    window_intervals: int
    sample_index: int
    noise_seed: int
    noise_scale: float
    input_kind: str = "noisy"  # "noisy" | "zeros" | "random"

    def switch_config(self) -> SwitchConfig:
        return SwitchConfig(
            num_ports=self.num_ports,
            queues_per_port=self.queues_per_port,
            buffer_capacity=self.buffer_capacity,
            alphas=tuple(self.alphas[: self.queues_per_port]),
        )

    def build(self):
        """Simulate and window; returns (sample, imputed) for the harness."""
        from repro.switchsim.simulation import Simulation
        from repro.telemetry.dataset import build_dataset
        from repro.traffic.distributions import FixedSizes
        from repro.traffic.generators import PoissonFlowTraffic

        config = self.switch_config()
        traffic = PoissonFlowTraffic(
            num_sources=3,
            num_ports=self.num_ports,
            flows_per_step=self.flows_per_step,
            sizes=FixedSizes(self.flow_size),
            class_weights=(1.0,) * self.queues_per_port,
            seed=self.traffic_seed,
        )
        bins = 2 * self.window_intervals * self.interval
        trace = Simulation(config, traffic, steps_per_bin=self.steps_per_bin).run(bins)
        dataset = build_dataset(
            trace,
            interval=self.interval,
            window_intervals=self.window_intervals,
            stride_intervals=self.window_intervals,
        )
        sample = dataset.samples[self.sample_index % len(dataset.samples)]
        rng = np.random.default_rng(self.noise_seed)
        if self.input_kind == "zeros":
            imputed = np.zeros_like(sample.target_raw)
        elif self.input_kind == "random":
            imputed = rng.random(sample.target_raw.shape) * max(
                float(sample.m_max.max()), 1.0
            )
        else:
            imputed = np.clip(
                sample.target_raw
                + rng.normal(0.0, self.noise_scale, sample.target_raw.shape),
                0.0,
                None,
            )
        return sample, imputed

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "CemCase":
        return cls(**data)


def random_cem_case(rng: np.random.Generator) -> CemCase:
    queues_per_port = int(rng.integers(1, 3))
    return CemCase(
        num_ports=int(rng.integers(1, 3)),
        queues_per_port=queues_per_port,
        buffer_capacity=int(rng.integers(15, 50)),
        alphas=[round(float(rng.uniform(0.4, 1.5)), 3) for _ in range(queues_per_port)],
        flows_per_step=round(float(rng.uniform(0.05, 0.3)), 4),
        flow_size=int(rng.integers(2, 6)),
        traffic_seed=int(rng.integers(2**31)),
        steps_per_bin=int(rng.integers(2, 6)),
        interval=int(rng.integers(3, 6)),
        window_intervals=2,
        sample_index=int(rng.integers(4)),
        noise_seed=int(rng.integers(2**31)),
        noise_scale=round(float(rng.uniform(0.5, 4.0)), 3),
        input_kind=("noisy", "noisy", "zeros", "random")[int(rng.integers(4))],
    )


def shrink_cem_case(case: CemCase):
    if case.interval > 2:
        yield replace(case, interval=case.interval - 1)
    if case.num_ports > 1:
        yield replace(case, num_ports=case.num_ports - 1)
    if case.queues_per_port > 1:
        yield replace(
            case,
            queues_per_port=case.queues_per_port - 1,
            alphas=case.alphas[: case.queues_per_port - 1],
        )
    if case.noise_scale > 0.5:
        yield replace(case, noise_scale=round(case.noise_scale / 2, 3))
    if case.steps_per_bin > 1:
        yield replace(case, steps_per_bin=case.steps_per_bin - 1)


# ----------------------------------------------------------------------
# LP / branch-and-bound differential cases
# ----------------------------------------------------------------------
@dataclass
class LpCase:
    """A small all-integer MILP for branch and bound, checked by enumeration."""

    domains: list[int]  # variable i ranges over 0..domains[i]
    constraints: list[dict]  # {"coeffs": [...], "sense": "<="|">="|"==", "rhs": r}
    objective: list[int]

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "LpCase":
        return cls(**data)


def random_lp_case(rng: np.random.Generator) -> LpCase:
    num_vars = int(rng.integers(2, 4))
    domains = [int(rng.integers(1, 4)) for _ in range(num_vars)]
    constraints = []
    for _ in range(int(rng.integers(1, 4))):
        constraints.append(
            {
                "coeffs": [int(rng.integers(-2, 3)) for _ in range(num_vars)],
                "sense": ("<=", ">=", "==")[int(rng.integers(3))],
                "rhs": int(rng.integers(-3, 6)),
            }
        )
    return LpCase(
        domains=domains,
        constraints=constraints,
        objective=[int(rng.integers(-3, 4)) for _ in range(num_vars)],
    )


def shrink_lp_case(case: LpCase):
    if len(case.constraints) > 1:
        for drop in range(len(case.constraints)):
            yield replace(
                case,
                constraints=[c for i, c in enumerate(case.constraints) if i != drop],
            )
    if len(case.domains) > 1:
        for drop in range(len(case.domains)):
            yield LpCase(
                domains=[d for i, d in enumerate(case.domains) if i != drop],
                constraints=[
                    {**c, "coeffs": [x for i, x in enumerate(c["coeffs"]) if i != drop]}
                    for c in case.constraints
                ],
                objective=[x for i, x in enumerate(case.objective) if i != drop],
            )
    for i, d in enumerate(case.domains):
        if d > 1:
            yield replace(
                case, domains=[d - 1 if j == i else x for j, x in enumerate(case.domains)]
            )


# ----------------------------------------------------------------------
# Attention-kernel differential cases
# ----------------------------------------------------------------------
_MASKS = ("none", "causal", "per_batch")


@dataclass
class AttentionCase:
    """One ``fused.attention_core`` call with its seed gradient.

    Inputs are drawn in the model's head layout, a strided
    ``(batch, heads, len, head_dim)`` view of ``(batch, len, heads,
    head_dim)``.  ``mask`` is ``"none"``, ``"causal"`` (one
    ``(q_len, k_len)`` mask shared by every batch element and head) or
    ``"per_batch"`` (a random ``(batch, 1, q_len, k_len)`` mask broadcast
    over heads).  ``grad_of`` names the inputs that require grad, a
    subset of ``"qkv"``.
    """

    batch: int
    heads: int
    q_len: int
    k_len: int
    head_dim: int
    dtype: str  # "float32" | "float64"
    mask: str
    dropout: float
    grad_of: str
    seed: int

    def build(self):
        """``(q, k, v, g, scale, mask, dropout)`` as numpy arrays."""
        from repro.autodiff.functional import dropout_mask

        rng = np.random.default_rng(self.seed)
        dtype = np.dtype(self.dtype)

        def heads(length):
            shape = (self.batch, length, self.heads, self.head_dim)
            return rng.normal(size=shape).astype(dtype).transpose(0, 2, 1, 3)

        q, k, v, g = (heads(n) for n in (self.q_len, self.k_len, self.k_len, self.q_len))
        scores = (self.batch, self.heads, self.q_len, self.k_len)
        mask = None
        if self.mask == "causal":
            mask = np.triu(np.full(scores[2:], -1e9), k=1).astype(dtype)
        elif self.mask == "per_batch":
            blocked = rng.random((self.batch, 1) + scores[2:]) < 0.3
            mask = np.where(blocked, -1e9, 0.0).astype(dtype)
        elif self.mask != "none":
            raise ValueError(f"unknown mask {self.mask!r}; expected one of {_MASKS}")
        dropout = dropout_mask(scores, self.dropout, rng, dtype) if self.dropout else None
        scale = float(1.0 / np.sqrt(self.head_dim))
        return q, k, v, g, scale, mask, dropout

    def to_dict(self) -> dict[str, Any]:
        return asdict(self)

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "AttentionCase":
        return cls(**data)


def random_attention_case(rng: np.random.Generator) -> AttentionCase:
    grad_of = "".join(name for name in "qkv" if rng.random() < 0.6)
    return AttentionCase(
        batch=int(rng.integers(1, 4)),
        heads=int(rng.integers(1, 4)),
        q_len=int(rng.integers(1, 12)),
        k_len=int(rng.integers(1, 12)),
        head_dim=int(rng.integers(1, 8)),
        dtype=("float32", "float64")[int(rng.integers(2))],
        mask=_MASKS[int(rng.integers(len(_MASKS)))],
        dropout=(0.0, 0.1, 0.5)[int(rng.integers(3))],
        grad_of=grad_of,
        seed=int(rng.integers(2**31)),
    )


def shrink_attention_case(case: AttentionCase):
    for name in ("batch", "heads", "q_len", "k_len", "head_dim"):
        size = getattr(case, name)
        if size > 2:
            yield replace(case, **{name: 1})
        if size > 1:
            yield replace(case, **{name: size - 1})
    if case.mask != "none":
        yield replace(case, mask="none")
    if case.dropout:
        yield replace(case, dropout=0.0)
    for drop in case.grad_of:
        yield replace(case, grad_of=case.grad_of.replace(drop, ""))


#: shrink function per case type, used by the fuzz driver.
SHRINKERS = {
    EngineCase: shrink_engine_case,
    CemCase: shrink_cem_case,
    LpCase: shrink_lp_case,
    AttentionCase: shrink_attention_case,
}
