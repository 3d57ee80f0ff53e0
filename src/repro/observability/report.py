"""The run report: render exported observability artifacts for humans.

``python -m repro report <run-dir>`` reads whatever artifacts a campaign
exported into its experiment directory —

- ``spans.jsonl`` — finished tracer spans,
- ``metrics.json`` — the metrics-registry snapshot,
- ``summary.json`` — the Phase III reproducibility summary,
- ``manifest.json`` — provenance (seed, environment),
- ``alerts.jsonl`` — the live watchdog's structured alerts,
- ``<name>.jsonl`` — the trial runner's one-line-per-trial log,

and renders a phase timeline, the trial table, a critical-path latency
attribution, watchdog alerts, the top-k slowest spans and metric rollups.
Every section is optional: the report degrades gracefully when a run
exported only some artifacts.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Optional

from repro.errors import ValidationError
from repro.observability.digest import PERF_PROFILE_FILE
from repro.observability.trace import Span, load_spans
from repro.observability.watchdog import ALERTS_FILE, load_alerts
from repro.utils.tables import Table

__all__ = ["RunArtifacts", "load_run", "render_report", "render_report_json"]

#: artifact names with fixed meaning inside a run directory.
SPANS_FILE = "spans.jsonl"
METRICS_FILE = "metrics.json"
PROMETHEUS_FILE = "metrics.prom"
SUMMARY_FILE = "summary.json"
MANIFEST_FILE = "manifest.json"


@dataclass
class RunArtifacts:
    """Everything found inside one run directory."""

    root: Path
    spans: list[Span] = field(default_factory=list)
    metrics: dict[str, Any] = field(default_factory=dict)
    summary: dict[str, Any] = field(default_factory=dict)
    manifest: dict[str, Any] = field(default_factory=dict)
    trials: list[dict[str, Any]] = field(default_factory=list)
    alerts: list[dict[str, Any]] = field(default_factory=list)
    #: the exported latency profile (``perf_profile.json``).
    perf: dict[str, Any] = field(default_factory=dict)


def _load_json(path: Path) -> dict[str, Any]:
    return json.loads(path.read_text())


def _load_trials(root: Path) -> list[dict[str, Any]]:
    # alerts.jsonl records carry a trial_id inside their details and would
    # otherwise be misread as trial-log lines.
    reserved = {SPANS_FILE, ALERTS_FILE}
    trials: list[dict[str, Any]] = []
    for path in sorted(root.glob("*.jsonl")):
        if path.name in reserved:
            continue
        for line in path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            record = json.loads(line)
            if isinstance(record, dict) and "trial_id" in record:
                trials.append(record)
    return trials


def load_run(run_dir: str | Path) -> RunArtifacts:
    """Collect artifacts from ``run_dir`` (missing pieces stay empty)."""
    root = Path(run_dir)
    if not root.is_dir():
        raise ValidationError(f"run directory {root} does not exist")
    artifacts = RunArtifacts(root=root)
    if (root / SPANS_FILE).exists():
        artifacts.spans = load_spans(root / SPANS_FILE)
    if (root / METRICS_FILE).exists():
        artifacts.metrics = _load_json(root / METRICS_FILE)
    if (root / SUMMARY_FILE).exists():
        artifacts.summary = _load_json(root / SUMMARY_FILE)
    if (root / MANIFEST_FILE).exists():
        artifacts.manifest = _load_json(root / MANIFEST_FILE)
    artifacts.trials = _load_trials(root)
    if (root / ALERTS_FILE).exists():
        artifacts.alerts = [alert.to_dict() for alert in load_alerts(root / ALERTS_FILE)]
    if (root / PERF_PROFILE_FILE).exists():
        artifacts.perf = _load_json(root / PERF_PROFILE_FILE)
    # A degenerate run (zero trials, an aborted export) may leave only empty
    # artifact files behind; report what exists rather than refusing. Only a
    # directory with no known artifact *files* at all is an error.
    known = [SPANS_FILE, METRICS_FILE, SUMMARY_FILE, MANIFEST_FILE, PERF_PROFILE_FILE, ALERTS_FILE]
    if not any((root / name).exists() for name in known) and not list(root.glob("*.jsonl")):
        raise ValidationError(
            f"{root} holds no observability artifacts "
            f"({SPANS_FILE}, {METRICS_FILE}, {SUMMARY_FILE} or a trial log)"
        )
    return artifacts


# -- rendering ----------------------------------------------------------------------


def _bar(offset: float, duration: float, total: float, width: int = 40) -> str:
    if total <= 0:
        return ""
    lead = int(round(width * offset / total))
    body = max(1, int(round(width * duration / total)))
    lead = min(lead, width - 1)
    body = min(body, width - lead)
    return "." * lead + "#" * body + "." * (width - lead - body)


def _render_timeline(spans: list[Span]) -> str:
    roots = sorted((s for s in spans if s.parent_id is None), key=lambda s: s.start_s)
    if not roots:
        return ""
    children: dict[Optional[int], list[Span]] = {}
    for span in spans:
        children.setdefault(span.parent_id, []).append(span)
    horizon = max((s.end_s or s.start_s) for s in spans)
    lines = ["--- phase timeline ---"]
    for root in roots:
        lines.append(
            f"{root.name:<28s} {_bar(root.start_s, root.duration_s, horizon)} "
            f"{root.duration_s:8.3f}s"
        )
        for child in sorted(children.get(root.span_id, []), key=lambda s: s.start_s):
            lines.append(
                f"  {child.name:<26s} {_bar(child.start_s, child.duration_s, horizon)} "
                f"{child.duration_s:8.3f}s"
            )
    return "\n".join(lines)


def _render_slowest(spans: list[Span], top_k: int) -> str:
    closed = [s for s in spans if s.end_s is not None]
    if not closed:
        return ""
    slowest = sorted(closed, key=lambda s: s.duration_s, reverse=True)[:top_k]
    table = Table(
        ["span", "duration_s", "sim_s", "status"], title=f"--- top {len(slowest)} slowest spans ---"
    )
    for span in slowest:
        sim = span.sim_duration
        table.add_row(
            [
                span.name,
                f"{span.duration_s:.4f}",
                "-" if sim is None else f"{sim:.1f}",
                span.status,
            ]
        )
    return table.render()


def _trial_records(artifacts: RunArtifacts) -> list[dict[str, Any]]:
    if artifacts.trials:
        return artifacts.trials
    # fall back to the Phase III evaluations (no status/runtime detail).
    return [
        {
            "trial_id": f"eval-{i + 1}",
            "status": "terminated",
            "result": {"objective": ev.get("value")},
            "config": ev.get("configuration", {}),
            "runtime_s": float("nan"),
        }
        for i, ev in enumerate(artifacts.summary.get("evaluations", []))
    ]


def _render_trials(artifacts: RunArtifacts) -> str:
    records = _trial_records(artifacts)
    if not records:
        return ""
    table = Table(
        ["trial", "status", "objective", "runtime_s", "suggest_s", "tell_s"],
        title=f"--- trials ({len(records)}) ---",
    )
    for record in records:
        result = record.get("result", {}) or {}
        objective = result.get("objective")
        if objective is None and result:
            objective = next(iter(result.values()))
        cost = record.get("cost", {}) or {}
        table.add_row(
            [
                record.get("trial_id", "?"),
                record.get("status", "?"),
                "-" if objective is None or objective != objective else f"{objective:.4g}",
                f"{float(record.get('runtime_s', float('nan'))):.3f}",
                f"{cost['suggest_s']:.4f}" if "suggest_s" in cost else "-",
                f"{cost['tell_s']:.4f}" if "tell_s" in cost else "-",
            ]
        )
    return table.render()


def _render_metrics(metrics: dict[str, Any]) -> str:
    families = metrics.get("metrics", [])
    if not families:
        return ""
    table = Table(["metric", "kind", "labels", "value"], title="--- metric rollups ---")
    for family in families:
        labelnames = family.get("labelnames", [])
        for sample in family.get("series", []):
            labels = sample.get("labels", {})
            label_text = ",".join(f"{k}={labels[k]}" for k in labelnames) or "-"
            value = sample.get("value")
            if isinstance(value, dict):  # histogram snapshot
                mean = value.get("mean")
                mean_text = (
                    f"{mean:.4g}" if isinstance(mean, (int, float)) and mean == mean else "nan"
                )
                text = f"count={value.get('count', 0)} mean={mean_text}"
            elif isinstance(value, (int, float)):
                text = f"{value:.6g}"
            else:
                text = str(value)
            table.add_row([family.get("name", "?"), family.get("kind", "?"), label_text, text])
    return table.render()


def _render_summary(summary: dict[str, Any]) -> str:
    if not summary:
        return ""
    lines = ["--- campaign ---"]
    best = summary.get("best_value")
    if isinstance(best, (int, float)) and not math.isnan(best):
        lines.append(f"best value:    {best:.6g}  at {summary.get('best_configuration')}")
    lines.append(f"evaluations:   {len(summary.get('evaluations', []))}")
    wall = summary.get("wall_clock_s")
    if isinstance(wall, (int, float)):
        lines.append(f"wall clock:    {wall:.2f} s")
    cost = summary.get("cost_profile") or {}
    if cost:
        fractions = cost.get("fractions", {})
        lines.append(
            "cost profile:  "
            f"suggest {cost.get('suggest_s', 0.0):.3f}s "
            f"({fractions.get('suggest_s', 0.0):.0%}) | "
            f"evaluate {cost.get('evaluate_s', 0.0):.3f}s "
            f"({fractions.get('evaluate_s', 0.0):.0%}) | "
            f"tell {cost.get('tell_s', 0.0):.3f}s "
            f"({fractions.get('tell_s', 0.0):.0%})"
        )
    return "\n".join(lines)


def _render_critical_path(spans: list[Span]) -> str:
    if not spans:
        return ""
    from repro.observability.analysis import analyze_spans

    analysis = analyze_spans(spans)
    if not analysis.trials:
        return ""
    critical = analysis.critical_path
    lines = ["--- critical path (latency attribution) ---"]
    horizon = critical.horizon_s
    for segment, seconds in critical.segments.items():
        if seconds <= 0:
            continue
        share = seconds / horizon if horizon > 0 else 0.0
        lines.append(f"{segment + ':':<14s}{seconds:8.3f} s  ({share:.0%})")
    idle_share = critical.idle_fraction
    lines.append(f"{'idle:':<14s}{critical.idle_s:8.3f} s  ({idle_share:.0%})")
    lines.append(
        f"slots:        {analysis.lane_count} concurrent "
        f"({analysis.slot_idle_fraction:.0%} slot-idle over {horizon:.3f} s)"
    )
    return "\n".join(lines)


def _render_perf(perf: dict[str, Any]) -> str:
    ops = perf.get("ops") or {}
    if not ops:
        return ""
    table = Table(
        ["op", "count", "mean", "p50", "p90", "p99"],
        title="--- latency percentiles ---",
    )

    def _cell(entry: dict[str, Any], key: str) -> str:
        value = entry.get(key)
        if not isinstance(value, (int, float)) or value != value:
            return "-"
        if value < 1e-3:
            return f"{value * 1e6:.1f}us"
        if value < 1.0:
            return f"{value * 1e3:.2f}ms"
        return f"{value:.3f}s"

    for op in sorted(ops):
        entry = ops[op] if isinstance(ops[op], dict) else {}
        table.add_row(
            [
                op,
                f"{int(entry.get('count', 0))}",
                _cell(entry, "mean"),
                _cell(entry, "p50"),
                _cell(entry, "p90"),
                _cell(entry, "p99"),
            ]
        )
    return table.render()


def _render_alerts(artifacts: RunArtifacts) -> str:
    alerts = artifacts.alerts or artifacts.summary.get("alerts", {}).get("alerts", [])
    if not alerts:
        return ""
    table = Table(
        ["severity", "kind", "t_s", "message"],
        title=f"--- watchdog alerts ({len(alerts)}) ---",
    )
    for alert in alerts:
        table.add_row(
            [
                alert.get("severity", "?"),
                alert.get("kind", "?"),
                f"{float(alert.get('time_s', float('nan'))):.3f}",
                alert.get("message", ""),
            ]
        )
    return table.render()


def render_report(artifacts: RunArtifacts, *, top_k: int = 10) -> str:
    """The full human-readable run report."""
    header = [f"=== run report: {artifacts.root} ==="]
    manifest = artifacts.manifest
    if manifest:
        header.append(
            f"experiment {manifest.get('name', '?')!r}  seed={manifest.get('seed')}  "
            f"repro={manifest.get('environment', {}).get('repro', '?')}"
        )
    sections = [
        "\n".join(header),
        _render_summary(artifacts.summary),
        _render_timeline(artifacts.spans),
        _render_critical_path(artifacts.spans),
        _render_perf(artifacts.perf),
        _render_alerts(artifacts),
        _render_trials(artifacts),
        _render_slowest(artifacts.spans, top_k),
        _render_metrics(artifacts.metrics),
    ]
    return "\n\n".join(section for section in sections if section)


def render_report_json(artifacts: RunArtifacts, *, top_k: int = 10) -> dict[str, Any]:
    """The run report as one machine-readable document (``--format json``).

    Consumed by the ``monitor`` CLI and CI jobs; the same sources as
    :func:`render_report`, minus the purely visual sections (timeline
    bars), plus raw span counts.
    """

    def _clean(value: Any) -> Any:
        # NaN is not valid JSON; normalize to null for strict consumers.
        if isinstance(value, float) and value != value:
            return None
        if isinstance(value, dict):
            return {k: _clean(v) for k, v in value.items()}
        if isinstance(value, list):
            return [_clean(v) for v in value]
        return value

    closed = [s for s in artifacts.spans if s.end_s is not None]
    slowest = sorted(closed, key=lambda s: s.duration_s, reverse=True)[:top_k]
    return _clean(
        {
            "schema": "repro.report/1",
            "root": str(artifacts.root),
            "manifest": artifacts.manifest,
            "summary": artifacts.summary,
            "trials": _trial_records(artifacts),
            "alerts": artifacts.alerts,
            "perf": artifacts.perf,
            "metrics": artifacts.metrics,
            "spans": {
                "total": len(artifacts.spans),
                "slowest": [
                    {
                        "name": s.name,
                        "duration_s": s.duration_s,
                        "sim_duration": s.sim_duration,
                        "status": s.status,
                        "attributes": dict(s.attributes),
                    }
                    for s in slowest
                ],
            },
        }
    )
