"""Benchmark-side spans around the public functions of each layer.

Nothing in ``src/`` is instrumented for this: :meth:`Tracer.installed`
replaces each target in :data:`TARGETS` with a wrapper that records a span
(name, start, end, parent, attributes) and restores the originals on exit.
A class method is patched on its class and on every loaded subclass that
overrides it; a module function is replaced in every loaded ``repro``
module that imported it, so calls through any import site are seen.

Spans stay in memory; :meth:`Tracer.chrome_trace` turns them into
Chrome-trace JSON when the run ends, and :func:`layer_table` turns them
into per-layer calls, inclusive busy time and self time.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import sys
import time
from dataclasses import dataclass
from typing import Any, Callable, Iterator


def _windows(args: tuple, result: Any, error: str | None) -> dict:
    return {"windows": len(args[1])}


def _one_window(args: tuple, result: Any, error: str | None) -> dict:
    return {"windows": 1}


def _dispatch_keys(args: tuple, result: Any, error: str | None) -> dict:
    keys = [list(window.key) for window in result or ()]
    return {"windows": len(keys), "keys": keys}


def _cem(args: tuple, result: Any, error: str | None) -> dict:
    if error is not None:
        return {"infeasible": int(error == "CEMInfeasibleError")}
    return {"corrected": int(not (result == args[1]).all())}


def _trainer(args: tuple, result: Any, error: str | None) -> dict:
    trainer = args[0]
    return {"windows": len(trainer.train_set) * trainer.config.epochs}


def _sim_steps(args: tuple, result: Any, error: str | None) -> dict:
    return {"steps": int(args[1]) * int(args[0].steps_per_bin)}


@dataclass(frozen=True)
class Target:
    """One public function to wrap: ``module:qualname`` -> span ``name``."""

    module: str
    qualname: str
    name: str
    attrs: Callable[[tuple, Any, str | None], dict] | None = None


#: Every layer boundary the benchmark records, named after this repo's
#: modules.  ``serve.dispatch`` is the one private method: it is the
#: micro-batch boundary, and its spans carry the keys of the windows served.
TARGETS: tuple[Target, ...] = (
    Target("repro.serve.service", "StreamService.submit", "serve.submit"),
    Target("repro.serve.service", "StreamService.drain", "serve.drain"),
    Target("repro.serve.service", "StreamService._dispatch", "serve.dispatch", _dispatch_keys),
    Target("repro.serve.windows", "WindowAssembler.push", "serve.windows.push"),
    Target(
        "repro.imputation.transformer_imputer",
        "TransformerImputer.impute_batch",
        "imputation.impute",
        _windows,
    ),
    Target(
        "repro.imputation.transformer_imputer",
        "TransformerImputer.impute",
        "imputation.impute",
        _one_window,
    ),
    Target("repro.nn.transformer", "TransformerEncoderLayer.forward", "nn.encoder_layer"),
    Target("repro.nn.attention", "MultiHeadAttention.forward", "nn.attention"),
    Target("repro.imputation.cem", "ConstraintEnforcer.enforce", "imputation.cem", _cem),
    Target("repro.imputation.trainer", "Trainer.train", "imputation.trainer", _trainer),
    Target("repro.autodiff.tensor", "Tensor.backward", "autodiff.backward"),
    Target("repro.autodiff.optim", "Optimizer.step", "autodiff.optim"),
    Target("repro.switchsim.simulation", "Simulation.run", "switchsim.run", _sim_steps),
    Target("repro.switchsim.fabric", "Fabric.run", "switchsim.fabric"),
    Target("repro.eval.scenarios", "generate_trace", "eval.generate_trace"),
    Target("repro.eval.scenarios", "build_traffic", "traffic.build"),
    Target("repro.traffic.distributions", "FlowSizeDistribution.mean", "traffic.size_mean"),
    Target("repro.telemetry.sampling", "sample_trace", "telemetry.sample"),
    Target("repro.telemetry.dataset", "build_dataset", "telemetry.build_dataset"),
    Target("repro.imputation.iterative", "IterativeImputer.impute", "imputation.iterative"),
    Target("repro.constraints.spec", "check_constraints", "constraints.check"),
    Target("repro.downstream.metrics", "evaluate_downstream", "downstream.evaluate"),
    Target("repro.robustness.degrade", "degrade_sample", "robustness.degrade"),
    Target("repro.eval.table1", "run_table1", "eval.table1"),
    Target("repro.robustness.suite", "run_robustness", "robustness.suite"),
)

#: Modules the targets live in; importing them is part of every set-up.
TARGET_MODULES: tuple[str, ...] = tuple(dict.fromkeys(t.module for t in TARGETS))


class Tracer:
    """In-memory span recorder for one benchmark run (single thread).

    A span is ``[name, start, end, parent_index, attrs]`` with
    ``perf_counter`` times; ``parent_index`` is -1 at the top level.
    """

    def __init__(self) -> None:
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[Any, str, Any]] = []
        self._recorded = 0
        self.suspended_s = 0.0

    def begin(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, None])
        index = len(self.spans) - 1
        self._stack.append(index)
        return index

    def end(self, index: int, attrs: dict | None = None) -> None:
        self.spans[index][2] = time.perf_counter()
        self.spans[index][4] = attrs
        self._stack.pop()

    def record(self, name: str, start: float, end: float, attrs: dict | None = None) -> None:
        """Add a span measured by the caller (load-generator idle, imports)."""
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, start, end, parent, attrs])
        self._recorded += 1

    def spans_since(self, mark: int, name: str) -> Iterator[list]:
        return (span for span in self.spans[mark:] if span[0] == name)

    # ------------------------------------------------------------------
    # Wrapper installation
    # ------------------------------------------------------------------
    def _wrap(self, target: Target, fn: Callable) -> Callable:
        tracer, name, attrs = self, target.name, target.attrs

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = tracer.begin(name)
            result, error = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = type(exc).__name__
                raise
            finally:
                extra = attrs(args, result, error) if attrs is not None else {}
                if error is not None:
                    extra["error"] = error
                tracer.end(index, extra or None)

        return traced

    def _patch(self, owner: Any, attr: str, value: Any) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def _install(self) -> None:
        for target in TARGETS:
            module = importlib.import_module(target.module)
            if "." in target.qualname:
                class_name, method = target.qualname.split(".")
                pending = [getattr(module, class_name)]
                while pending:
                    cls = pending.pop()
                    pending.extend(cls.__subclasses__())
                    if method in cls.__dict__:
                        self._patch(cls, method, self._wrap(target, cls.__dict__[method]))
            else:
                original = getattr(module, target.qualname)
                wrapped = self._wrap(target, original)
                for name, loaded in list(sys.modules.items()):
                    if name.split(".")[0] != "repro" or loaded is None:
                        continue
                    for attr, value in list(vars(loaded).items()):
                        if value is original:
                            self._patch(loaded, attr, wrapped)

    def _uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    @contextlib.contextmanager
    def installed(self) -> Iterator["Tracer"]:
        """Record spans for every target while the block runs."""
        self._install()
        try:
            yield self
        finally:
            self._uninstall()

    @contextlib.contextmanager
    def suspended(self) -> Iterator[None]:
        """Run a block untraced (correctness checks, the overhead reference).

        Its duration is excluded from the traced wall time.
        """
        installed = bool(self._patches)
        self._uninstall()
        start = time.perf_counter()
        try:
            yield
        finally:
            self.suspended_s += time.perf_counter() - start
            if installed:
                self._install()

    def wrapped_spans(self) -> int:
        """Spans recorded by wrappers, not by :meth:`record`."""
        return len(self.spans) - self._recorded

    # ------------------------------------------------------------------
    # Output
    # ------------------------------------------------------------------
    def chrome_trace(self, origin: float, metadata: dict) -> dict:
        """Chrome-trace (``chrome://tracing`` / Perfetto) JSON object."""
        events = []
        for index, (name, start, end, parent, attrs) in enumerate(self.spans):
            args = {"id": index, "parent": parent}
            if attrs:
                args.update(attrs)
            events.append(
                {
                    "name": name,
                    "cat": name.split(".")[0],
                    "ph": "X",
                    "ts": (start - origin) * 1e6,
                    "dur": (end - start) * 1e6,
                    "pid": 1,
                    "tid": 1,
                    "args": args,
                }
            )
        return {"traceEvents": events, "displayTimeUnit": "ms", "metadata": metadata}


def span_cost_s(calls: int = 20_000) -> float:
    """Measured seconds a wrapper adds to one call (begin, end, attrs)."""

    def noop() -> None:
        return None

    traced = Tracer()._wrap(Target("", "", "probe"), noop)
    start = time.perf_counter()
    for _ in range(calls):
        noop()
    plain = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(calls):
        traced()
    return max(time.perf_counter() - start - plain, 0.0) / calls


@dataclass
class LayerStats:
    """Aggregate of every span with one name."""

    calls: int = 0
    busy_s: float = 0.0  # inclusive, outermost spans of this name only
    self_s: float = 0.0  # minus the time covered by child spans
    attrs: dict | None = None  # summed numeric attributes

    def add_attrs(self, attrs: dict | None) -> None:
        if not attrs:
            return
        if self.attrs is None:
            self.attrs = {}
        for key, value in attrs.items():
            if isinstance(value, (int, float)):
                self.attrs[key] = self.attrs.get(key, 0) + value


def layer_table(spans: list[list]) -> dict[str, LayerStats]:
    """Per-name calls, inclusive busy time and self time of a span list."""
    child_time = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child_time[parent] += end - start
    table: dict[str, LayerStats] = {}
    for index, (name, start, end, parent, attrs) in enumerate(spans):
        stats = table.setdefault(name, LayerStats())
        stats.calls += 1
        stats.self_s += (end - start) - child_time[index]
        stats.add_attrs(attrs)
        ancestor = parent
        while ancestor >= 0 and spans[ancestor][0] != name:
            ancestor = spans[ancestor][3]
        if ancestor < 0:
            stats.busy_s += end - start
    return table
