"""Generic in-simulation metric sampler (dstat analogue)."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Generator, Optional

from repro import simcore
from repro.errors import ValidationError
from repro.observability.metrics import Counter, Gauge, MetricsRegistry
from repro.observability.trace import get_tracer
from repro.utils.timeseries import TimeSeries

__all__ = ["Probe", "MetricCollector"]


@dataclass(frozen=True)
class Probe:
    """A named metric source polled at every sampling tick."""

    name: str
    read: Callable[[], float]


class MetricCollector:
    """Polls probes every ``interval`` simulated seconds into time series.

    Example::

        env = simcore.Environment()
        pool = simcore.Resource(env, 4, name="workers")
        collector = MetricCollector(env, interval=10.0)
        collector.add_probe("pool_occupancy", pool.occupancy)
        collector.start()
        ... run simulation ...
        series = collector.series["pool_occupancy"]

    ``sample_at_start`` additionally samples every probe at the instant the
    collector starts (t=0 of the paper's 10 s protocol), so a run of
    duration ``D`` yields ``D / interval + 1`` samples instead of
    ``D / interval``. Off by default for backward compatibility.

    Samples are also published into a :class:`MetricsRegistry` (the
    recording tracer's ``tracer.metrics`` unless ``registry=`` is given) as
    the ``monitor_probe_value{probe=...}`` gauge plus a sample counter —
    skipped while tracing is off and no registry is passed.
    """

    def __init__(
        self,
        env: simcore.Environment,
        interval: float = 10.0,
        *,
        sample_at_start: bool = False,
        registry: Optional[MetricsRegistry] = None,
    ) -> None:
        if interval <= 0:
            raise ValidationError("interval must be positive")
        self.env = env
        self.interval = float(interval)
        self.sample_at_start = bool(sample_at_start)
        self.probes: list[Probe] = []
        self.series: dict[str, TimeSeries] = {}
        self._process: simcore.Process | None = None
        self._registry = registry
        self._gauge: Optional[Gauge] = None
        self._sample_counter: Optional[Counter] = None

    def add_probe(self, name: str, read: Callable[[], float]) -> None:
        """Register a probe; must be called before :meth:`start`."""
        if self._process is not None:
            raise ValidationError("cannot add probes after the collector started")
        if name in self.series:
            raise ValidationError(f"duplicate probe {name!r}")
        self.probes.append(Probe(name, read))
        self.series[name] = TimeSeries(name)

    def start(self) -> simcore.Process:
        """Start sampling; returns the collector process."""
        if self._process is not None:
            raise ValidationError("collector already started")
        registry = self._registry if self._registry is not None else get_tracer().metrics
        if registry is not None:
            self._gauge = registry.gauge(
                "monitor_probe_value", "last sampled value per probe", ("probe",)
            )
            self._sample_counter = registry.counter(
                "monitor_samples_total", "probe samples taken"
            )
        self._process = self.env.process(self._run(), name="metric-collector")
        return self._process

    def _sample(self) -> None:
        now = self.env.now
        for probe in self.probes:
            value = float(probe.read())
            self.series[probe.name].append(now, value)
            if self._gauge is not None:
                self._gauge.set(value, probe=probe.name)
                self._sample_counter.inc()

    def _run(self) -> Generator[simcore.Event, None, None]:
        try:
            if self.sample_at_start:
                self._sample()
            while True:
                yield self.env.timeout(self.interval)
                self._sample()
        except simcore.Interrupt:
            return

    def stop(self) -> None:
        """Stop sampling (idempotent)."""
        if self._process is not None and self._process.is_alive:
            self._process.interrupt("collector stopped")
