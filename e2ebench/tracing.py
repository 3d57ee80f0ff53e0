"""Benchmark-local span recording around the public entry points of each layer.

The traced run patches the functions listed in :data:`LAYERS` with thin
wrappers that push a span onto an in-memory :class:`SpanRecorder`. Nothing
here touches the program's own tracer, registry or perf recorder, and the
untraced run installs none of it. Everything runs on one thread, so the
recorder keeps a single open-span stack.

A layer's *self time* is the summed duration of its spans minus the part
covered by their child spans, so the self times of all layers plus the time
outside every span add up exactly to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Any, Callable, Iterator, Optional

#: layer -> the (module, class, method) entry points whose calls are spans of it.
LAYERS: dict[str, list[tuple[str, str, str]]] = {
    "engine": [
        ("repro.engine.engine", "IdentificationEngine", "run"),
        ("repro.engine.hybrid", "HybridEngine", "run"),
    ],
    "simcore": [("repro.simcore.core", "Environment", "run")],
    "analytic": [("repro.engine.analytic", "AnalyticEngineModel", "evaluate_open")],
    "testbed": [
        ("repro.testbed.site", "Testbed", "reserve"),
        ("repro.testbed.deployment", "Deployment", "reconfigure"),
    ],
    "scenario": [("repro.plantnet.scenario", "PlantNetScenario", "evaluate")],
    "search": [
        ("repro.search.algos", "ConcurrencyLimiter", "suggest"),
        ("repro.search.algos", "ConcurrencyLimiter", "suggest_batch"),
        ("repro.search.algos", "ConcurrencyLimiter", "on_trial_complete"),
    ],
    "surrogate": [
        ("repro.surrogate.forest", "ExtraTreesRegressor", "fit"),
        ("repro.surrogate.forest", "ExtraTreesRegressor", "partial_fit"),
        ("repro.surrogate.forest", "ExtraTreesRegressor", "predict"),
    ],
    "evalcache": [
        ("repro.search.evalcache", "EvalCache", "lookup"),
        ("repro.search.evalcache", "EvalCache", "store"),
    ],
    "runner": [("repro.search.runner", "TrialRunner", "run")],
    "optimizer": [
        ("repro.optimizer.optimization", "Optimization", "execute"),
        ("repro.optimizer.optimization", "Optimization", "run_objective"),
    ],
    "archive": [
        ("repro.experiments.archive", "ExperimentArchive", "new_evaluation_dir"),
        ("repro.experiments.archive", "ExperimentArchive", "store_evaluation"),
        ("repro.experiments.archive", "ExperimentArchive", "store_checkpoint"),
        ("repro.experiments.archive", "ExperimentArchive", "store_summary"),
    ],
    "observability": [
        ("repro.observability.trace", "RecordingTracer", "start_span"),
        ("repro.observability.trace", "RecordingTracer", "end_span"),
        ("repro.observability.digest", "PerfRecorder", "record"),
        ("repro.observability.digest", "PerfRecorder", "timed"),
        ("repro.optimizer.optimization", "Optimization", "export_observability"),
    ],
}


@dataclass
class Span:
    id: int
    parent: Optional[int]
    layer: str
    op: str
    start: float
    end: float = 0.0
    #: simulation events processed inside this span (simcore spans only).
    events: int = 0
    #: the wrapped call returned a non-``None`` value (an EvalCache hit).
    hit: bool = False

    @property
    def duration(self) -> float:
        return self.end - self.start


class SpanRecorder:
    """In-memory spans of one traced run, plus per-request counts."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        #: simulated requests started (IdentificationEngine._lifecycle calls).
        self.requests = 0

    def open(self, layer: str, op: str) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, layer, op, time.perf_counter())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> dict[str, float]:
        """Seconds spent in each layer, excluding time inside child spans."""
        covered = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent is not None:
                covered[span.parent] += span.duration
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[span.layer] += span.duration - covered[span.id]
        return out

    def outermost(self, layer: str, ops: tuple[str, ...] = ()) -> list[Span]:
        """Spans of ``ops`` (default: any) with no enclosing span of the same layer."""
        chosen = []
        for span in self.spans:
            if span.layer != layer or (ops and span.op not in ops):
                continue
            parent = span.parent
            while parent is not None and self.spans[parent].layer != layer:
                parent = self.spans[parent].parent
            if parent is None:
                chosen.append(span)
        return chosen

    def write_jsonl(self, path: Path) -> Path:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as handle:
            for span in self.spans:
                handle.write(json.dumps(asdict(span)) + "\n")
        return path


def _span_wrapper(
    recorder: SpanRecorder, layer: str, op: str, original: Callable[..., Any]
) -> Callable[..., Any]:
    if op == "Environment.run":

        @functools.wraps(original)
        def traced_run(env: Any, *args: Any, **kwargs: Any) -> Any:
            stats = env.enable_stats()
            before = stats.events_processed
            span = recorder.open(layer, op)
            try:
                return original(env, *args, **kwargs)
            finally:
                recorder.close(span)
                span.events = stats.events_processed - before

        return traced_run

    @functools.wraps(original)
    def traced(*args: Any, **kwargs: Any) -> Any:
        span = recorder.open(layer, op)
        try:
            result = original(*args, **kwargs)
        finally:
            recorder.close(span)
        span.hit = result is not None
        return result

    return traced


@contextmanager
def installed(recorder: SpanRecorder) -> Iterator[SpanRecorder]:
    """Patch every layer entry point to record into ``recorder``; undo on exit."""
    undo: list[tuple[type, str, Any]] = []

    def patch(owner: type, attr: str, replacement: Any) -> None:
        # Remember the class's own attribute (None when inherited) so the
        # undo restores exactly what was there.
        undo.append((owner, attr, owner.__dict__.get(attr)))
        setattr(owner, attr, replacement)

    try:
        for layer, entries in LAYERS.items():
            for module_name, class_name, attr in entries:
                owner = getattr(importlib.import_module(module_name), class_name)
                op = f"{class_name}.{attr}"
                patch(owner, attr, _span_wrapper(recorder, layer, op, getattr(owner, attr)))

        engine_cls = importlib.import_module("repro.engine.engine").IdentificationEngine
        lifecycle = engine_cls._lifecycle

        @functools.wraps(lifecycle)
        def counted_lifecycle(*args: Any, **kwargs: Any) -> Any:
            recorder.requests += 1
            return lifecycle(*args, **kwargs)

        patch(engine_cls, "_lifecycle", counted_lifecycle)
        yield recorder
    finally:
        for owner, attr, original in reversed(undo):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
