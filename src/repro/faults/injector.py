"""Deterministic, seedable fault injection for the simulated testbed.

The paper's optimization cycle assumes all 42 Grid'5000 nodes stay healthy
for the whole campaign. Real edge-to-cloud deployments do not: nodes crash,
links degrade, stragglers appear, and evaluators fail transiently. This
module makes those failure modes *reproducible* — every fault decision is a
pure function of ``(seed, configuration, attempt)``, so a faulty campaign
replays exactly and a retried attempt draws a fresh, independent stream.

Two surfaces:

- **evaluator surface** — :meth:`FaultInjector.wrap` decorates an evaluator
  callable; per call it may raise a :class:`TransientFault` /
  :class:`NodeCrashFault`, delay the evaluation (straggler), or inflate the
  returned metrics (measurement over a degraded link);
- **testbed surface** — :meth:`FaultInjector.crash_node` and
  :meth:`FaultInjector.degrade_link` mutate a simulated
  :class:`~repro.testbed.site.Testbed` directly (mark a node failed,
  install worse link characteristics), for scenario-level experiments.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass
from typing import Any, Callable, Mapping, Optional

import numpy as np

from repro.errors import FaultError, ValidationError
from repro.faults.context import current_attempt, mark_injection
from repro.utils.seeding import derive_seed

__all__ = [
    "FAULT_KINDS",
    "FaultSpec",
    "FaultInjector",
    "TransientFault",
    "NodeCrashFault",
]

#: fault kinds, in cumulative-draw order.
FAULT_KINDS = ("transient", "node_crash", "straggler", "link_degradation")


class TransientFault(FaultError):
    """Injected transient evaluator failure (flaky measurement harness)."""


class NodeCrashFault(FaultError):
    """Injected node crash during deployment of one evaluation."""


@dataclass(frozen=True)
class FaultSpec:
    """Fault-injection configuration (rates are per trial attempt).

    At most one fault fires per attempt: a single uniform draw is
    partitioned over the kinds, so ``transient + node_crash + straggler +
    link_degradation`` must stay <= 1.
    """

    transient: float = 0.0
    node_crash: float = 0.0
    straggler: float = 0.0
    link_degradation: float = 0.0
    #: extra wall-clock delay a straggler attempt suffers.
    straggler_delay_s: float = 0.05
    #: multiplier applied to numeric metrics measured over a degraded link.
    degradation_factor: float = 1.5
    seed: int = 0

    def __post_init__(self) -> None:
        for kind in FAULT_KINDS:
            rate = getattr(self, kind)
            if not 0.0 <= rate <= 1.0:
                raise ValidationError(f"fault rate {kind}={rate} must be in [0, 1]")
        if self.total_rate > 1.0:
            raise ValidationError(f"fault rates sum to {self.total_rate} > 1")
        if self.straggler_delay_s < 0:
            raise ValidationError("straggler_delay_s must be >= 0")
        if self.degradation_factor < 1.0:
            raise ValidationError("degradation_factor must be >= 1")

    @property
    def total_rate(self) -> float:
        return sum(getattr(self, kind) for kind in FAULT_KINDS)

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "FaultSpec":
        known = set(cls.__dataclass_fields__)  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown fault spec keys: {sorted(unknown)}")
        return cls(**dict(data))


def _config_key(config: Mapping[str, Any]) -> int:
    """Stable 63-bit key of a configuration dict (process-salt free)."""
    payload = json.dumps(dict(config), sort_keys=True, default=str)
    return int.from_bytes(hashlib.sha256(payload.encode("utf-8")).digest()[:8], "little") >> 1


class FaultInjector:
    """Draws deterministic faults and applies them to evaluations/testbeds."""

    def __init__(self, spec: FaultSpec) -> None:
        self.spec = spec
        self._crash_draws = 0
        #: injected-fault tally by kind (all zeros until something fires).
        self.injected: dict[str, int] = {kind: 0 for kind in FAULT_KINDS}

    # -- decisions ------------------------------------------------------------------

    def decide(self, config: Mapping[str, Any], attempt: int | None = None) -> Optional[str]:
        """Which fault (if any) hits this ``(config, attempt)`` evaluation.

        Deterministic: the same seed, configuration and attempt index always
        produce the same decision, and consecutive attempts draw independent
        streams — the property that makes retry-after-fault effective.
        """
        if self.spec.total_rate <= 0.0:
            return None
        attempt = current_attempt() if attempt is None else int(attempt)
        rng = np.random.default_rng(
            derive_seed(self.spec.seed, "fault", _config_key(config), attempt)
        )
        draw = float(rng.random())
        edge = 0.0
        for kind in FAULT_KINDS:
            edge += getattr(self.spec, kind)
            if draw < edge:
                return kind
        return None

    def _record(self, kind: str) -> None:
        """Tally one injected fault and mark it with a zero-length span."""
        self.injected[kind] += 1
        from repro.observability.trace import get_tracer

        tracer = get_tracer()
        if tracer.enabled:
            span = tracer.start_span("fault", kind=kind)
            tracer.end_span(span, end=span.start_s)

    # -- evaluator surface ----------------------------------------------------------

    def wrap(self, evaluator: Callable[..., Mapping[str, Any]]) -> Callable[..., dict[str, Any]]:
        """Wrap an evaluator so each call may suffer one injected fault."""

        def faulty_evaluator(config: Mapping[str, Any], *args: Any, **kwargs: Any) -> dict[str, Any]:
            kind = self.decide(config)
            if kind is not None:
                self._record(kind)
                mark_injection()
            if kind == "transient":
                raise TransientFault(
                    f"injected transient evaluator failure (attempt {current_attempt()})"
                )
            if kind == "node_crash":
                raise NodeCrashFault(
                    f"injected node crash during deployment (attempt {current_attempt()})"
                )
            if kind == "straggler" and self.spec.straggler_delay_s > 0:
                time.sleep(self.spec.straggler_delay_s)
            metrics = dict(evaluator(config, *args, **kwargs))
            if kind == "link_degradation":
                factor = self.spec.degradation_factor
                metrics = {
                    key: value * factor
                    if isinstance(value, (int, float)) and not isinstance(value, bool)
                    else value
                    for key, value in metrics.items()
                }
            return metrics

        faulty_evaluator.__name__ = getattr(evaluator, "__name__", "evaluator")
        faulty_evaluator.injector = self  # type: ignore[attr-defined]
        return faulty_evaluator

    # -- testbed surface ------------------------------------------------------------

    def crash_node(self, testbed: Any, cluster: str) -> Any:
        """Mark one free node of ``cluster`` as failed; returns the victim.

        The victim is chosen deterministically from the injector's seed and
        an internal crash counter, so a replay crashes the same nodes in the
        same order.
        """
        free = testbed.cluster(cluster).free_nodes()
        if not free:
            raise FaultError(f"no free node left to crash in cluster {cluster!r}")
        rng = np.random.default_rng(
            derive_seed(self.spec.seed, "crash", cluster, self._crash_draws)
        )
        self._crash_draws += 1
        victim = free[int(rng.integers(len(free)))]
        victim.fail()
        self._record("node_crash")
        return victim

    def degrade_link(
        self,
        network: Any,
        a: str,
        b: str,
        *,
        latency_factor: float = 4.0,
        bandwidth_factor: float = 0.25,
        added_loss: float = 0.05,
    ) -> Any:
        """Install degraded characteristics on the ``a``↔``b`` path.

        Reads the currently resolved path and replaces it with a direct link
        carrying ``latency * latency_factor``, ``bandwidth *
        bandwidth_factor`` and additional packet loss — the ``tc``-style
        degradation GMB-ECC prescribes for continuum benchmarks. Returns the
        new resolved path.
        """
        if a == b:
            raise FaultError("cannot degrade a loopback path")
        path = network.path(a, b)
        bandwidth = path.bandwidth_gbps
        if not np.isfinite(bandwidth):
            bandwidth = network.DEFAULT_BANDWIDTH_GBPS
        network.constrain(
            a,
            b,
            latency_ms=max(path.latency_ms, network.DEFAULT_LATENCY_MS) * latency_factor,
            bandwidth_gbps=bandwidth * bandwidth_factor,
            loss=min(0.99, path.loss + added_loss),
        )
        self._record("link_degradation")
        return network.path(a, b)
