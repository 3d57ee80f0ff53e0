"""Per-trial cost attribution for the optimization cycle.

Every trial's runtime decomposes into three components:

- **suggest** — acquisition-function optimization plus the surrogate state
  it reads (``SearchAlgorithm.suggest``);
- **evaluate** — deploying and running the configuration (the trainable);
- **tell** — feeding the observation back, which refits the surrogate
  (``SearchAlgorithm.on_trial_complete``).

The :class:`~repro.search.runner.TrialRunner` measures all three for every
trial (a handful of clock reads — cheap enough to stay always-on) and
stores them on :attr:`Trial.cost <repro.search.trial.Trial.cost>`;
:func:`aggregate_costs` pools them into the campaign-level profile folded
into the Phase III :class:`~repro.optimizer.summary.ReproducibilitySummary`,
so a summary can explain where its own wall-clock went.

Beyond the pooled sums, the profile carries per-component latency
*percentiles* (p50/p90/p99 of the trials' exact values, by the shared
:func:`~repro.observability.digest.quantile_of`) — means hide the tail,
and the tail is exactly what the perf-regression gate watches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Iterable, Mapping, Optional

from repro.observability.digest import PERF_QUANTILES, quantile_of

__all__ = ["CostBreakdown", "aggregate_costs", "COST_COMPONENTS"]

#: component keys, in cycle order.
COST_COMPONENTS = ("suggest_s", "evaluate_s", "tell_s")

#: components that also get a percentile column (cycle + executor wait).
PERCENTILE_COMPONENTS = ("suggest_s", "evaluate_s", "tell_s", "queue_wait_s")


def _finite(value: Any) -> Optional[float]:
    """``float(value)`` when it yields a finite number, else ``None``.

    Cost dicts cross process boundaries and checkpoints; a NaN/inf/str
    entry must degrade to "no data", never poison the campaign totals.
    """
    try:
        out = float(value)
    except (TypeError, ValueError):
        return None
    return out if math.isfinite(out) else None


@dataclass
class CostBreakdown:
    """Pooled suggest/evaluate/tell seconds over a set of trials."""

    suggest_s: float = 0.0
    evaluate_s: float = 0.0
    tell_s: float = 0.0
    trials: int = 0
    #: fault-tolerance tallies: attempts retried / attempts timed out.
    retries: int = 0
    timeouts: int = 0
    #: trials served from the evaluation cache instead of re-simulated.
    cache_hits: int = 0
    #: pooled executor queue wait (submit → worker pickup), when measured.
    queue_wait_s: float = 0.0
    #: per-component latency percentiles (component → p50/p90/p99 dict).
    percentiles: dict[str, dict[str, float]] = field(default_factory=dict)

    @property
    def total_s(self) -> float:
        return self.suggest_s + self.evaluate_s + self.tell_s

    def fractions(self) -> dict[str, float]:
        total = self.total_s
        if total <= 0:
            return {key: 0.0 for key in COST_COMPONENTS}
        return {
            "suggest_s": self.suggest_s / total,
            "evaluate_s": self.evaluate_s / total,
            "tell_s": self.tell_s / total,
        }

    def to_dict(self) -> dict[str, Any]:
        per_trial = (
            {key: getattr(self, key) / self.trials for key in COST_COMPONENTS}
            if self.trials
            else {}
        )
        return {
            "trials": self.trials,
            "total_s": self.total_s,
            "suggest_s": self.suggest_s,
            "evaluate_s": self.evaluate_s,
            "tell_s": self.tell_s,
            "queue_wait_s": self.queue_wait_s,
            "retries": self.retries,
            "timeouts": self.timeouts,
            "cache_hits": self.cache_hits,
            "fractions": self.fractions(),
            "mean_per_trial": per_trial,
            "percentiles": {k: dict(v) for k, v in self.percentiles.items()},
        }

    def __str__(self) -> str:
        frac = self.fractions()
        return (
            f"{self.total_s:.3f}s over {self.trials} trials "
            f"(suggest {frac['suggest_s']:.0%}, evaluate {frac['evaluate_s']:.0%}, "
            f"tell {frac['tell_s']:.0%})"
        )


def aggregate_costs(costs: Iterable[Mapping[str, float]]) -> CostBreakdown:
    """Pool per-trial ``cost`` dicts; entries without data are skipped.

    Robust against dirty cost dicts (NaN/inf/non-numeric values — e.g. a
    corrupted checkpoint or a misbehaving trainable writing into
    ``trial.cost``): a bad value contributes nothing instead of turning the
    whole campaign profile into NaN.
    """
    out = CostBreakdown()
    pools: dict[str, list[float]] = {key: [] for key in PERCENTILE_COMPONENTS}
    for cost in costs:
        if not cost:
            continue
        out.trials += 1
        for key in COST_COMPONENTS:
            if key not in cost:
                continue  # absent ≠ zero: keep it out of the percentile pool
            value = _finite(cost[key])
            if value is not None:
                setattr(out, key, getattr(out, key) + value)
                pools[key].append(value)
        wait = _finite(cost.get("queue_wait_s"))
        if wait is not None:
            out.queue_wait_s += wait
            pools["queue_wait_s"].append(wait)
        for attr, key in (
            ("retries", "retries"),
            ("timeouts", "timeouts"),
            ("cache_hits", "cache_hit"),
        ):
            value = _finite(cost.get(key, 0))
            if value is not None:
                setattr(out, attr, getattr(out, attr) + int(value))
    for key, values in pools.items():
        if values:
            values.sort()
            out.percentiles[key] = {name: quantile_of(values, q) for name, q in PERF_QUANTILES}
    return out
