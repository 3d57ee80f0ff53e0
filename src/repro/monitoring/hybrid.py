"""Mode-aware sample aggregation for hybrid fluid/DES runs.

A :class:`~repro.engine.hybrid.HybridEngine` run produces one sample per
epoch, but the samples come from two different instruments: DES sampling
windows carry *empirical* response distributions (every completed request),
while fluid epochs carry *parametric* estimates (corrected mean and p95
from the analytic model). Averaging those naively would let the handful of
DES windows drown in the fluid majority — and a pooled p95 is not the mean
of per-epoch p95s.

:class:`HybridAggregator` therefore keeps the two kinds apart and combines
them by what they are:

- per-epoch series are emitted into the standard
  :class:`~repro.engine.metrics.MetricSeries` (one sample per epoch, so
  downstream plotting/CSV export works unchanged);
- scalar summaries (mean response, throughput, CPU) are weighted by each
  epoch's *completed requests*, not by epoch count;
- pooled percentiles solve ``Σ wᵉ·Fᵉ(q) = p`` over a mixture whose DES
  components are empirical CDFs and whose fluid components are lognormals
  fitted to the epoch's (mean, p95) pair — the fluid tail shape the
  analytic model assumes, calibrated by the DES windows it ran against.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from typing import Any, Optional, Sequence

from repro.engine.metrics import MetricSeries
from repro.errors import ValidationError
from repro.utils.stats import RunningStats, Summary

__all__ = ["EpochSample", "HybridAggregator"]

#: standard-normal 95th percentile, used to fit lognormal tails.
_Z95 = 1.6448536269514722
#: the ``σ·√2`` factor of a fluid component's lognormal CDF.
_SQRT2 = math.sqrt(2.0)


@dataclass(frozen=True)
class EpochSample:
    """One epoch of a hybrid run, whichever mode produced it."""

    index: int
    start: float
    end: float
    #: ``"fluid"`` or ``"des"``.
    mode: str
    #: offered arrival rate over the epoch (requests/s).
    rate: float
    throughput: float
    response_mean: float
    response_p95: float
    cpu_usage: float
    #: un-served fluid carried out of the epoch (requests).
    backlog: float = 0.0
    saturated: bool = False
    #: relative error of the fluid prediction measured by this DES window
    #: (sampling windows only).
    window_error: Optional[float] = None

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def completions(self) -> float:
        """Requests served during the epoch (the mixture weight)."""
        return self.throughput * self.duration

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "start": self.start,
            "end": self.end,
            "mode": self.mode,
            "rate": self.rate,
            "throughput": self.throughput,
            "response_mean": self.response_mean,
            "response_p95": self.response_p95,
            "cpu_usage": self.cpu_usage,
            "backlog": self.backlog,
            "saturated": self.saturated,
            "window_error": self.window_error,
        }


def _lognormal_from_mean_p95(mean: float, p95: float) -> tuple[float, float]:
    """Fit ``(mu, sigma)`` of a lognormal from its mean and 95th percentile.

    Solving ``p95 = exp(mu + z·σ)`` with ``mean = exp(mu + σ²/2)`` gives the
    quadratic ``σ²/2 − z·σ + ln(p95/mean) = 0``; the smaller root is the
    physical one (σ grows continuously from 0 as p95/mean grows from 1).
    """
    ratio = p95 / mean
    if ratio <= 1.0:
        return math.log(mean), 0.0
    disc = _Z95 * _Z95 - 2.0 * math.log(ratio)
    sigma = _Z95 - math.sqrt(disc) if disc > 0 else _Z95
    return math.log(mean) - 0.5 * sigma * sigma, sigma


class _Component:
    """One mixture component of the pooled response distribution."""

    __slots__ = ("weight", "samples", "mu", "sigma", "mean")

    def __init__(
        self,
        weight: float,
        *,
        samples: Optional[Sequence[float]] = None,
        mean: float = 0.0,
        p95: float = 0.0,
    ) -> None:
        self.weight = weight
        if samples is not None:
            self.samples: Optional[list[float]] = sorted(samples)
            self.mu = self.sigma = 0.0
            self.mean = self.samples[-1]
        else:
            self.samples = None
            self.mean = mean
            self.mu, self.sigma = _lognormal_from_mean_p95(mean, p95)

    def upper(self) -> float:
        """A value with essentially all of this component's mass below it."""
        if self.samples is not None:
            return self.samples[-1]
        if self.sigma == 0.0:
            return self.mean
        return math.exp(self.mu + 6.0 * self.sigma)


class HybridAggregator:
    """Collects epoch samples and produces run-level metrics (see module doc)."""

    def __init__(self) -> None:
        self.epochs: list[EpochSample] = []
        self._components: list[_Component] = []
        self._response = RunningStats()
        self._throughput = RunningStats()
        self._cpu = RunningStats()
        self._completed = 0.0

    # -- ingestion ------------------------------------------------------------

    def add_fluid(self, sample: EpochSample) -> None:
        """Record a fluid epoch (parametric response estimate)."""
        if sample.mode != "fluid":
            raise ValidationError(f"expected a fluid sample, got mode={sample.mode!r}")
        self._add(sample, responses=None)

    def add_des(self, sample: EpochSample, responses: Sequence[float]) -> None:
        """Record a DES sampling window with its raw response samples."""
        if sample.mode != "des":
            raise ValidationError(f"expected a des sample, got mode={sample.mode!r}")
        self._add(sample, responses=responses)

    def _add(self, sample: EpochSample, responses: Optional[Sequence[float]]) -> None:
        self.epochs.append(sample)
        weight = sample.completions
        if weight <= 0:
            return
        self._completed += weight
        self._response.add(sample.response_mean, weight)
        self._throughput.add(sample.throughput, sample.duration)
        self._cpu.add(sample.cpu_usage, sample.duration)
        if responses:
            self._components.append(_Component(weight, samples=responses))
        elif sample.response_mean > 0 and sample.response_p95 > 0:
            self._components.append(
                _Component(weight, mean=sample.response_mean, p95=sample.response_p95)
            )

    # -- run-level outputs ----------------------------------------------------

    @property
    def completed(self) -> int:
        """Total requests served across all epochs (fluid mass included)."""
        return int(round(self._completed))

    def response_summary(self) -> Summary:
        """Completion-weighted mean ± std of per-epoch mean response."""
        return self._response.summary()

    def throughput_summary(self) -> Summary:
        """Duration-weighted mean ± std of per-epoch throughput."""
        return self._throughput.summary()

    def cpu_summary(self) -> Summary:
        return self._cpu.summary()

    def percentile(self, p: float) -> float:
        """Pooled response percentile across the epoch mixture.

        Bisects ``q`` such that the completion-weighted mixture CDF reaches
        ``p`` — empirical CDFs for DES windows, fitted lognormals for fluid
        epochs. The mixture is the ``sum`` of the weighted component CDFs in
        component order over the total weight (``sum``, not a ``+=`` loop:
        from Python 3.12 ``sum`` of floats is compensated). Each CDF is
        evaluated inline, with ``log(q)`` taken once per probe, through a
        generator so that no per-probe list is held. The bisection stops at
        its fixed point: once a step leaves both ends unchanged, every later
        step would too.
        """
        if not 0.0 < p < 1.0:
            raise ValidationError(f"percentile must be in (0, 1), got {p}")
        components = self._components
        if not components:
            raise ValidationError("no epochs with completions recorded")
        total = sum(c.weight for c in components)
        log = math.log
        erf = math.erf

        def mixture_cdf(x: float) -> float:
            positive = not x <= 0.0
            lx = log(x) if positive else 0.0
            return sum(
                c.weight * (bisect_right(c.samples, x) / len(c.samples))
                if c.samples is not None
                else c.weight * (
                    0.5 * (1.0 + erf((lx - c.mu) / (c.sigma * _SQRT2))) if positive else 0.0
                )
                if c.sigma != 0.0
                else c.weight * (1.0 if x >= c.mean else 0.0)
                for c in components
            ) / total

        lo, hi = 0.0, max(c.upper() for c in components)
        for _ in range(80):
            mid = 0.5 * (lo + hi)
            if mixture_cdf(mid) < p:
                if mid == lo:
                    break
                lo = mid
            else:
                if mid == hi:
                    break
                hi = mid
        return 0.5 * (lo + hi)

    def percentiles(self) -> dict[str, float]:
        """The standard ``{"p50", "p95", "p99"}`` mapping."""
        return {f"p{q:g}": self.percentile(q / 100.0) for q in (50.0, 95.0, 99.0)}

    def series(self) -> MetricSeries:
        """Per-epoch time series in the standard engine shape.

        One sample per epoch, stamped at the epoch end — downstream
        consumers (CSV export, campaign plots) treat it exactly like a
        DES run sampled at the epoch length.
        """
        series = MetricSeries()
        for e in self.epochs:
            if e.completions > 0:
                series.user_response_time.append(e.end, e.response_mean)
            series.throughput.append(e.end, e.throughput)
            series.cpu_usage.append(e.end, e.cpu_usage)
        return series

    def mode_counts(self) -> dict[str, int]:
        counts = {"fluid": 0, "des": 0}
        for e in self.epochs:
            counts[e.mode] += 1
        return counts

    def des_time_fraction(self) -> float:
        """Fraction of simulated time covered by DES windows."""
        total = sum(e.duration for e in self.epochs)
        if total <= 0:
            return 0.0
        des = sum(e.duration for e in self.epochs if e.mode == "des")
        return des / total

    def window_errors(self) -> list[float]:
        return [e.window_error for e in self.epochs if e.window_error is not None]
