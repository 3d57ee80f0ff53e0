"""Perf baselines and the regression gate (``python -m repro perf``).

Closes the loop the bench trajectory was missing: a run's latency samples
(``perf_profile.json``) or a benchmark record become a committed
*baseline*, and every later run diffs against it with a non-zero exit on
regression, so CI can hold the line on the hot-path latencies the paper's
reproducibility claim rests on.

Every source is one JSON object with an ``ops`` block mapping an op name
to one entry, in one of two forms:

- raw samples ``{"unit": "s", "count": n, "samples": [...]}`` — the
  ``e2ebench/run.py`` records, the ``BENCH_*.json`` files the CI
  benchmarks write (``benchmarks/conftest.py::save_bench``) and
  ``perf_profile.json`` (or a run directory holding one), which adds the
  ``mean``/``p50``/``p90``/``p99`` rollup of the same samples;
- the ``count``/``mean``/``p50``/``p90``/``p99`` rollup alone (a
  ``repro.perf_profile/1`` profile loads this way).

A recorded baseline is the same block re-written. An entry whose ``unit``
is present must be seconds; a document without an ``ops`` block is
rejected.

The statistical test: each compared quantile regresses when its point
ratio exceeds ``1 + threshold`` *and*, when both sides carry raw samples,
the bootstrap confidence interval of the ratio excludes 1 — identical runs
diff clean, noise without signal diffs clean, a real 2× shift fails the
gate. With fewer than eight samples on a side the point ratio alone
decides.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping, Optional, Sequence

from repro.errors import ValidationError
from repro.observability.digest import PERF_PROFILE_FILE, PERF_QUANTILES, quantile_of, summarize

__all__ = [
    "OpStats",
    "PerfDiff",
    "load_profile",
    "record_baseline",
    "diff_profiles",
    "BASELINE_SCHEMA",
]

#: schema tag written into recorded baselines.
BASELINE_SCHEMA = "repro.perf_baseline/1"


@dataclass
class OpStats:
    """One op's latency statistics, with its raw samples when the source
    carries them."""

    op: str
    count: float = 0.0
    mean: float = math.nan
    quantiles: dict[str, float] = field(default_factory=dict)
    samples: Optional[list[float]] = None

    def value(self, key: str) -> Optional[float]:
        """The requested statistic (``p50``/``p90``/``p99``/``mean``)."""
        if key == "mean":
            return self.mean if math.isfinite(self.mean) else None
        value = self.quantiles.get(key)
        if value is None or not math.isfinite(value):
            return None
        return value

    def to_dict(self) -> dict[str, Any]:
        out: dict[str, Any] = {"count": self.count, "mean": self.mean, **self.quantiles}
        if self.samples is not None:
            out["unit"] = "s"
            out["samples"] = list(self.samples)
        return out


# -- loading ------------------------------------------------------------------------


def load_profile(path: str | Path) -> dict[str, OpStats]:
    """Load the ``ops`` block of a run directory or profile JSON."""
    source = Path(path)
    if source.is_dir():
        source = source / PERF_PROFILE_FILE
    if not source.exists():
        raise ValidationError(f"no perf profile at {source}")
    try:
        data = json.loads(source.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{source} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("ops"), Mapping):
        raise ValidationError(f"{source} has no 'ops' block")
    return _parse_ops(data["ops"])


def _parse_ops(ops: Mapping[str, Any]) -> dict[str, OpStats]:
    out: dict[str, OpStats] = {}
    for op, entry in ops.items():
        if not isinstance(entry, Mapping):
            continue
        unit = entry.get("unit", "s")
        if unit != "s":
            raise ValidationError(f"op {op!r} has unit {unit!r}; the gate compares seconds")
        raw = entry.get("samples")
        if raw is not None:
            out[str(op)] = _from_samples(str(op), raw)
            continue
        out[str(op)] = OpStats(
            op=str(op),
            count=float(entry.get("count", 0.0)),
            mean=float(entry.get("mean", math.nan)),
            quantiles={
                key: float(entry[key])
                for key, _ in PERF_QUANTILES
                if isinstance(entry.get(key), (int, float))
            },
        )
    return out


def _from_samples(op: str, raw: Any) -> OpStats:
    """Statistics of a raw-sample entry (the recorder's own rollup)."""
    try:
        samples = [float(v) for v in raw]
    except (TypeError, ValueError) as exc:
        raise ValidationError(f"op {op!r} samples are not a list of numbers") from exc
    stats = summarize(samples)
    return OpStats(
        op=op,
        count=float(len(samples)),
        mean=stats["mean"],
        quantiles={key: stats[key] for key, _ in PERF_QUANTILES} if samples else {},
        samples=samples,
    )


# -- recording ----------------------------------------------------------------------


def record_baseline(source: str | Path, out: str | Path) -> Path:
    """Snapshot a profile as a committed baseline; returns the path written."""
    ops = load_profile(source)
    payload = {
        "schema": BASELINE_SCHEMA,
        "source": str(source),
        "ops": {op: stats.to_dict() for op, stats in sorted(ops.items())},
    }
    path = Path(out)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2) + "\n")
    return path


# -- diffing ------------------------------------------------------------------------


@dataclass
class PerfDiff:
    """The outcome of one baseline/candidate comparison."""

    threshold: float
    rows: list[dict[str, Any]] = field(default_factory=list)
    skipped: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[dict[str, Any]]:
        return [row for row in self.rows if row["verdict"] == "regression"]

    @property
    def improvements(self) -> list[dict[str, Any]]:
        return [row for row in self.rows if row["verdict"] == "improvement"]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def to_dict(self) -> dict[str, Any]:
        return {
            "threshold": self.threshold,
            "ok": self.ok,
            "rows": list(self.rows),
            "skipped": list(self.skipped),
            "regressions": self.regressions,
        }

    def render(self) -> str:
        from repro.utils.tables import Table

        table = Table(
            ["op", "stat", "baseline", "candidate", "ratio", "verdict"],
            title=f"--- perf diff (threshold +{self.threshold:.0%}) ---",
        )
        for row in self.rows:
            table.add_row(
                [
                    row["op"],
                    row["stat"],
                    _fmt_seconds(row["baseline"]),
                    _fmt_seconds(row["candidate"]),
                    f"{row['ratio']:.2f}x",
                    row["verdict"],
                ]
            )
        lines = [table.render()]
        if self.skipped:
            lines.append(f"(skipped: {', '.join(self.skipped)})")
        if self.regressions:
            worst = max(self.regressions, key=lambda r: r["ratio"])
            lines.append(
                f"REGRESSION: {len(self.regressions)} stat(s) above threshold — "
                f"worst {worst['op']} {worst['stat']} at {worst['ratio']:.2f}x"
            )
        else:
            lines.append("ok: no regression above threshold")
        return "\n".join(lines)


def _fmt_seconds(value: float) -> str:
    if value < 1e-3:
        return f"{value * 1e6:.1f}us"
    if value < 1.0:
        return f"{value * 1e3:.2f}ms"
    return f"{value:.3f}s"


def _bootstrap_significant(
    base_samples: Sequence[float],
    cand_samples: Sequence[float],
    q: float,
    *,
    rounds: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> bool:
    """Whether the candidate's ``q``-quantile regression survives resampling.

    Bootstraps both sample lists and requires the lower confidence bound of
    the candidate/baseline quantile ratio to stay above 1 — i.e. the
    apparent regression is unlikely to be noise.
    """
    if len(base_samples) < 8 or len(cand_samples) < 8:
        return True  # too little data to argue noise: trust the point ratio
    rng = random.Random(seed)
    ratios: list[float] = []
    nb, nc = len(base_samples), len(cand_samples)
    for _ in range(rounds):
        b = sorted(base_samples[rng.randrange(nb)] for _ in range(nb))
        c = sorted(cand_samples[rng.randrange(nc)] for _ in range(nc))
        bq = quantile_of(b, q)
        cq = quantile_of(c, q)
        if bq > 0:
            ratios.append(cq / bq)
    if not ratios:
        return True
    ratios.sort()
    lower = quantile_of(ratios, 1.0 - confidence)
    return lower > 1.0


def diff_profiles(
    baseline: str | Path | Mapping[str, OpStats],
    candidate: str | Path | Mapping[str, OpStats],
    *,
    threshold: float = 0.25,
    stats: Sequence[str] = ("p50", "p90"),
    ops: Sequence[str] | None = None,
    bootstrap_rounds: int = 200,
    confidence: float = 0.95,
    seed: int = 0,
) -> PerfDiff:
    """Compare two profiles; a row regresses when its ratio exceeds
    ``1 + threshold`` (and, with samples on both sides, the bootstrap
    confirms the shift is not resampling noise)."""
    if threshold <= 0:
        raise ValidationError("threshold must be > 0")
    base_ops = baseline if isinstance(baseline, Mapping) else load_profile(baseline)
    cand_ops = candidate if isinstance(candidate, Mapping) else load_profile(candidate)
    wanted = set(ops) if ops else None
    diff = PerfDiff(threshold=float(threshold))
    q_of = dict(PERF_QUANTILES)
    for op in sorted(set(base_ops) | set(cand_ops)):
        if wanted is not None and op not in wanted:
            continue
        base = base_ops.get(op)
        cand = cand_ops.get(op)
        if base is None or cand is None:
            diff.skipped.append(f"{op} ({'baseline' if base is None else 'candidate'} missing)")
            continue
        compared = 0
        for stat in stats:
            base_v = base.value(stat)
            cand_v = cand.value(stat)
            if base_v is None or cand_v is None or base_v <= 0:
                continue
            compared += 1
            diff.rows.append(
                _compare_stat(
                    op, stat, base, cand, base_v, cand_v, threshold,
                    q_of.get(stat), bootstrap_rounds, confidence, seed,
                )
            )
        if compared == 0:
            diff.skipped.append(f"{op} (no comparable statistic)")
    return diff


def _compare_stat(
    op: str,
    stat: str,
    base: OpStats,
    cand: OpStats,
    base_v: float,
    cand_v: float,
    threshold: float,
    q: Optional[float],
    bootstrap_rounds: int,
    confidence: float,
    seed: int,
) -> dict[str, Any]:
    ratio = cand_v / base_v
    verdict = "ok"
    significant = None
    if ratio > 1.0 + threshold:
        significant = True
        if q is not None and base.samples is not None and cand.samples is not None:
            significant = _bootstrap_significant(
                base.samples,
                cand.samples,
                q,
                rounds=bootstrap_rounds,
                confidence=confidence,
                seed=seed,
            )
        verdict = "regression" if significant else "noise"
    elif ratio < 1.0 / (1.0 + threshold):
        verdict = "improvement"
    return {
        "op": op,
        "stat": stat,
        "baseline": base_v,
        "candidate": cand_v,
        "ratio": ratio,
        "verdict": verdict,
        "significant": significant,
    }
