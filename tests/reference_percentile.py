"""Reference pooled percentile: one ``cdf`` call per component per probe.

This is ``HybridAggregator.percentile`` as it was before the per-probe
work was inlined: each component evaluates its own CDF through a method
call, ``log(q)`` is taken once per fluid component, and the bisection runs
all 80 steps. It is kept here as the oracle the differential tests compare
the inlined percentile with, bit for bit.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from repro.errors import ValidationError
from repro.monitoring.hybrid import HybridAggregator


def component_cdf(component, x: float) -> float:
    """The CDF of one mixture component at ``x``."""
    if component.samples is not None:
        return bisect_right(component.samples, x) / len(component.samples)
    if component.sigma == 0.0:
        return 1.0 if x >= component.mean else 0.0
    if x <= 0.0:
        return 0.0
    return 0.5 * (
        1.0 + math.erf((math.log(x) - component.mu) / (component.sigma * math.sqrt(2.0)))
    )


def reference_percentile(aggregator: HybridAggregator, p: float) -> float:
    """Pooled response percentile of ``aggregator``'s epoch mixture."""
    if not 0.0 < p < 1.0:
        raise ValidationError(f"percentile must be in (0, 1), got {p}")
    components = aggregator._components
    if not components:
        raise ValidationError("no epochs with completions recorded")
    total = sum(c.weight for c in components)

    def mixture_cdf(x: float) -> float:
        return sum(c.weight * component_cdf(c, x) for c in components) / total

    lo, hi = 0.0, max(c.upper() for c in components)
    for _ in range(80):
        mid = 0.5 * (lo + hi)
        if mixture_cdf(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
