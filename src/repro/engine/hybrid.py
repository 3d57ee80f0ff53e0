"""Hybrid fluid/DES simulation of open-loop arrival schedules.

The DES (:mod:`repro.engine.engine`) simulates every request — exact but
~10³ simulated seconds per wall second; the analytic twin
(:mod:`repro.engine.analytic`) solves a fixed point in microseconds but
only describes (quasi-)steady state. Internet-scale open-loop scenarios
(1M+ users over a day) are long stretches of near-steady demand punctuated
by regime changes — exactly the split this engine exploits:

- **fluid epochs** — while the arrival rate moves slowly and the system is
  away from saturation, each epoch is one step of the epoch-stepped fluid
  model (:meth:`~repro.engine.analytic.AnalyticEngineModel.evaluate_open`),
  costing microseconds of wall time;
- **DES windows** — around regime changes (rate discontinuities, entering
  or leaving saturation) and periodically in between, the engine drops
  into the event simulator for a short window: the system is *primed* with
  the fluid model's concurrency estimate, warmed, measured, then drained,
  and the event-loop clock is fast-forwarded across the next fluid span
  (:meth:`repro.simcore.core.Environment.fast_forward`).

Each sampling window doubles as an **error probe**: the DES measurement is
compared against the fluid prediction for the same epoch, the relative
error is reported per window (and its maximum over the run), and EWMA
correction factors (throughput, mean, p95) continuously re-calibrate the
fluid epochs between windows. When a window's error exceeds the configured
bound, the sampling cadence tightens until predictions are back within it.

Determinism: window arrivals draw from ``derive_seed(seed, "hybrid",
epoch_index)`` and service noise from the inner engine's own stream, so a
hybrid run is exactly reproducible from ``(config, workload, seed)``.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import Any, Generator, Optional

from repro.engine.analytic import AnalyticEngineModel, OpenEpochResult, iter_epochs
from repro.engine.config import EngineModelParams, ThreadPoolConfig, WorkloadSpec
from repro.engine.engine import _ARRIVAL_BATCH, IdentificationEngine
from repro.engine.metrics import EngineRunResult, MetricsCollector, POOL_NAMES
from repro.engine.schedule import ArrivalSchedule
from repro.engine.tasks import TaskType
from repro.errors import ValidationError
from repro.monitoring.hybrid import EpochSample, HybridAggregator
from repro.observability.trace import get_tracer
from repro.utils.seeding import derive_seed, spawn_rng
from repro.utils.stats import RunningStats

__all__ = ["HybridKnobs", "HybridRunResult", "HybridEngine", "simulate_hybrid"]


@dataclass(frozen=True)
class HybridKnobs:
    """Tuning knobs of the hybrid engine (defaults favor the ≥50× target)."""

    #: fluid step length (seconds); also the granularity of mode decisions.
    epoch: float = 300.0
    #: run a DES sampling window every this many epochs when nothing else
    #: forces one.
    sample_every: int = 8
    #: measured span of a DES window (seconds), after its warm-up.
    window: float = 20.0
    #: minimum warm-up inside a DES window before measurement starts; the
    #: actual warm-up also covers a few fluid service times so the primed
    #: cohort has drained.
    window_warmup: float = 8.0
    #: relative error (throughput or p95 vs the DES window) above which the
    #: sampling cadence tightens and the run is flagged.
    error_bound: float = 0.05
    #: relative arrival-rate jump between epochs that forces a DES window.
    regime_threshold: float = 0.25
    #: EWMA weight of each new DES/fluid correction observation.
    correction_alpha: float = 0.4
    #: minimum completed requests in a window for it to update corrections.
    min_window_samples: int = 20
    #: priming cap, as a multiple of the HTTP pool size.
    prime_cap: float = 4.0
    #: extra simulated seconds allowed for in-flight requests to drain
    #: after a window before the engine is rebuilt instead.
    drain_grace: float = 30.0
    #: sampling-noise allowance, in multiples of ``1/√N`` for a window with
    #: ``N`` completions: a window can only *resolve* model error down to
    #: its own statistical noise, so cadence tightening triggers on
    #: ``|error| − allowance·N^-1/2 > error_bound`` rather than on raw
    #: error. Run-level bias (mean signed error across windows) is judged
    #: against the bound directly — noise cancels there.
    noise_allowance: float = 2.0

    def __post_init__(self) -> None:
        if self.epoch <= 0 or not math.isfinite(self.epoch):
            raise ValidationError(f"epoch must be positive and finite, got {self.epoch}")
        if self.sample_every < 1:
            raise ValidationError(f"sample_every must be >= 1, got {self.sample_every}")
        if self.window <= 0:
            raise ValidationError(f"window must be positive, got {self.window}")
        if self.window_warmup < 0:
            raise ValidationError(f"window_warmup must be >= 0, got {self.window_warmup}")
        if not 0.0 < self.error_bound < 1.0:
            raise ValidationError(f"error_bound must be in (0, 1), got {self.error_bound}")
        if self.regime_threshold <= 0:
            raise ValidationError(
                f"regime_threshold must be positive, got {self.regime_threshold}"
            )
        if not 0.0 < self.correction_alpha <= 1.0:
            raise ValidationError(
                f"correction_alpha must be in (0, 1], got {self.correction_alpha}"
            )
        if self.prime_cap < 0:
            raise ValidationError(f"prime_cap must be >= 0, got {self.prime_cap}")
        if self.drain_grace < 0:
            raise ValidationError(f"drain_grace must be >= 0, got {self.drain_grace}")
        if self.noise_allowance < 0:
            raise ValidationError(
                f"noise_allowance must be >= 0, got {self.noise_allowance}"
            )


@dataclass
class HybridRunResult(EngineRunResult):
    """An :class:`EngineRunResult` plus hybrid-mode accounting."""

    #: every epoch, in order, with the mode that produced it.
    epochs: list[EpochSample] = field(default_factory=list)
    fluid_epochs: int = 0
    des_epochs: int = 0
    #: fraction of simulated time actually event-simulated (window spans).
    des_time_fraction: float = 0.0
    #: per-window relative errors (fluid prediction vs DES measurement);
    #: each includes that window's sampling noise (~N^-1/2).
    window_errors: list[float] = field(default_factory=list)
    max_window_error: float = 0.0
    mean_window_error: float = 0.0
    #: run-level model bias: |mean signed error| across windows, where the
    #: per-window sampling noise cancels. This (less its own residual noise
    #: floor below) is what the bound judges.
    error_throughput_bias: float = 0.0
    error_p95_bias: float = 0.0
    #: residual sampling noise of the bias estimates themselves (the
    #: ``noise_allowance``-scaled standard error of the mean signed error):
    #: with few windows of few completions, the measured bias cannot be
    #: resolved below this floor.
    error_throughput_noise: float = 0.0
    error_p95_noise: float = 0.0
    #: the configured bound those errors are compared against.
    error_bound: float = 0.05
    #: final EWMA correction factors applied to fluid epochs.
    corrections: dict[str, float] = field(default_factory=dict)
    #: inner DES engines discarded because a window failed to drain.
    engine_rebuilds: int = 0
    #: wall-clock time of the whole hybrid run (seconds).
    wall_time_s: float = 0.0

    @property
    def within_bound(self) -> bool:
        """True when the run-level fluid-model bias is within the bound.

        Individual windows are noise-limited (a 20 s window at 10 req/s can
        only resolve ~7% throughput error), so the bound is enforced on the
        signed-mean bias across all windows, where sampling noise cancels —
        down to the bias estimate's own standard error, which is debited
        before the comparison (a run with few low-rate windows cannot
        resolve bias below that floor).
        """
        thr = max(0.0, self.error_throughput_bias - self.error_throughput_noise)
        p95 = max(0.0, self.error_p95_bias - self.error_p95_noise)
        return max(thr, p95) <= self.error_bound

    def to_dict(self) -> dict[str, Any]:
        out = super().to_dict()
        out.update(
            {
                "fluid_epochs": self.fluid_epochs,
                "des_epochs": self.des_epochs,
                "des_time_fraction": self.des_time_fraction,
                "max_window_error": self.max_window_error,
                "mean_window_error": self.mean_window_error,
                "error_throughput_bias": self.error_throughput_bias,
                "error_p95_bias": self.error_p95_bias,
                "error_throughput_noise": self.error_throughput_noise,
                "error_p95_noise": self.error_p95_noise,
                "error_bound": self.error_bound,
                "within_bound": self.within_bound,
                "corrections": dict(self.corrections),
                "engine_rebuilds": self.engine_rebuilds,
                "wall_time_s": self.wall_time_s,
            }
        )
        return out


class HybridEngine:
    """Per-epoch fluid/DES mode switching over an arrival schedule."""

    def __init__(
        self,
        config: ThreadPoolConfig,
        workload: WorkloadSpec,
        params: EngineModelParams | None = None,
        *,
        knobs: HybridKnobs | None = None,
        seed: int = 0,
    ) -> None:
        if workload.mode != "open":
            raise ValidationError("HybridEngine needs an open-loop workload")
        schedule = workload.arrival_schedule
        if schedule is None:
            assert workload.arrival_rate is not None
            schedule = ArrivalSchedule.constant(workload.arrival_rate)
        elif schedule.is_trace:
            raise ValidationError(
                "trace-replay schedules have no rate curve for the fluid model; "
                "run them through IdentificationEngine directly"
            )
        self.config = config
        self.workload = workload
        self.params = params or EngineModelParams()
        self.knobs = knobs or HybridKnobs()
        self.seed = int(seed)
        self.schedule = schedule
        self.analytic = AnalyticEngineModel(self.params)
        self._engine: Optional[IdentificationEngine] = None
        self._rebuilds = 0
        self._task_stats: dict[TaskType, RunningStats] = {t: RunningStats() for t in TaskType}
        self._last_window_responses: list[float] = []
        #: signed per-window relative errors (DES − prediction)/DES.
        self._signed_errors: dict[str, list[float]] = {"throughput": [], "p95": []}
        #: completions of the window behind each signed error (noise floor).
        self._error_samples: dict[str, list[int]] = {"throughput": [], "p95": []}
        #: simulated seconds actually run through the DES (window spans).
        self._des_sim_time = 0.0

    # -- inner DES management -------------------------------------------------

    def _des_engine(self, now: float) -> IdentificationEngine:
        """The persistent inner DES, aligned to simulated time ``now``."""
        engine = self._engine
        if engine is None:
            engine = IdentificationEngine(
                self.config,
                WorkloadSpec(duration=self.workload.duration, warmup=0.0),
                self.params,
                seed=derive_seed(self.seed, "hybrid-engine", self._rebuilds),
            )
            self._engine = engine
        if engine.env.now < now:
            engine.env.fast_forward(now - engine.env.now)
        return engine

    def _window_arrivals(
        self, engine: IdentificationEngine, rate: float, until: float, epoch_index: int
    ) -> Generator[Any, None, None]:
        """Poisson arrivals at ``rate`` for one DES window.

        Each window draws from its own derived stream so windows are
        independent of how many epochs ran fluid in between — the run
        stays deterministic under any mode sequence. Gaps are drawn in
        batches, which give the same sequence as scalar draws; the stream
        is discarded with the window, so over-drawing is never observed.
        """
        env = engine.env
        rng = spawn_rng(derive_seed(self.seed, "hybrid", epoch_index))
        scale = 1.0 / rate
        while True:
            for gap in rng.exponential(scale, size=_ARRIVAL_BATCH).tolist():
                if env.now + gap >= until:
                    return
                yield gap
                env.process(engine._lifecycle(), name="request")

    def _prime(self, engine: IdentificationEngine, count: int) -> None:
        """Inject the fluid model's in-flight cohort at window start.

        The primed requests occupy pools and CPU immediately; the window
        warm-up is sized so measurement starts only after this cohort has
        blended into the arrival flow.
        """
        for _ in range(count):
            engine.env.process(engine._lifecycle(), name="request")

    # -- mode decision --------------------------------------------------------

    def _des_reason(
        self,
        index: int,
        rate: float,
        prev_rate: Optional[float],
        fluid: OpenEpochResult,
        prev_saturated: bool,
        since_sample: int,
        sample_due: int,
    ) -> Optional[str]:
        if rate <= 0.0:
            return None  # nothing arrives; fluid (idle) is exact
        if index == 0:
            return "startup"
        if prev_rate is not None and prev_rate > 0:
            if abs(rate - prev_rate) > self.knobs.regime_threshold * prev_rate:
                return "regime-change"
        elif prev_rate == 0.0:
            return "regime-change"  # waking from an idle segment
        if fluid.saturated != prev_saturated:
            return "saturation-edge"
        if since_sample >= sample_due:
            return "sampling"
        return None

    # -- entry point ----------------------------------------------------------

    def run(self) -> HybridRunResult:
        wall_start = time.perf_counter()
        tracer = get_tracer()
        knobs = self.knobs
        duration = self.workload.duration
        agg = HybridAggregator()

        run_span = (
            tracer.start_span(
                "hybrid.run",
                config=str(self.config),
                duration=duration,
                seed=self.seed,
            )
            if tracer.enabled
            else None
        )

        corrections = {"throughput": 1.0, "mean": 1.0, "p95": 1.0}
        backlog = 0.0
        prev_rate: Optional[float] = None
        prev_saturated = False
        since_sample = 0
        sample_due = 1  # force an early calibration window
        for index, (start, end, rate) in enumerate(
            iter_epochs(self.schedule, duration, knobs.epoch)
        ):
            # The span covers the whole epoch (its duration is the
            # ``hybrid_epoch`` latency sample); the epoch's simulated start
            # is an attribute, not the span's wall start.
            span = (
                tracer.start_span(
                    "hybrid.epoch",
                    parent=run_span,
                    epoch_index=index,
                    epoch_start=start,
                    rate=rate,
                )
                if tracer.enabled
                else None
            )
            entering_backlog = backlog
            fluid = self.analytic.evaluate_open(
                self.config, rate, backlog=backlog, dt=end - start
            )
            backlog = fluid.backlog
            reason = self._des_reason(
                index, rate, prev_rate, fluid, prev_saturated, since_sample, sample_due
            )
            # Flow conservation makes un-saturated open-loop throughput exact
            # (served = offered); the DES-calibrated correction only carries
            # information where the fluid model prices capacity — at
            # saturation. Latency corrections apply everywhere.
            thr_corr = corrections["throughput"] if fluid.saturated else 1.0
            if reason is None:
                since_sample += 1
                agg.add_fluid(
                    EpochSample(
                        index=index,
                        start=start,
                        end=end,
                        mode="fluid",
                        rate=rate,
                        throughput=fluid.throughput * thr_corr,
                        response_mean=fluid.response_time * corrections["mean"],
                        response_p95=fluid.response_p95 * corrections["p95"],
                        cpu_usage=fluid.cpu_usage,
                        backlog=backlog,
                        saturated=fluid.saturated,
                    )
                )
            else:
                since_sample = 0
                sample_due = knobs.sample_every
                sample, excess = self._des_window(
                    index, start, end, rate, entering_backlog, fluid, corrections
                )
                agg.add_des(sample, self._last_window_responses)
                if excess is not None and excess > knobs.error_bound:
                    # prediction error beyond what window noise can explain:
                    # tighten the cadence until a window comes back inside.
                    sample_due = max(1, knobs.sample_every // 4)
            if span is not None:
                span.set("mode", "des" if reason else "fluid")
                span.set("reason", reason or "steady")
                span.set("throughput", agg.epochs[-1].throughput)
                span.set("backlog", backlog)
                tracer.end_span(span)
            prev_rate = rate
            prev_saturated = fluid.saturated

        result = self._result(agg, corrections, time.perf_counter() - wall_start)
        if run_span is not None:
            run_span.set("fluid_epochs", result.fluid_epochs)
            run_span.set("des_epochs", result.des_epochs)
            run_span.set("des_time_fraction", result.des_time_fraction)
            run_span.set("max_window_error", result.max_window_error)
            run_span.set("error_throughput_bias", result.error_throughput_bias)
            run_span.set("error_p95_bias", result.error_p95_bias)
            run_span.set("error_bound", knobs.error_bound)
            run_span.set("within_bound", result.within_bound)
            tracer.end_span(run_span)
        return result

    # -- DES sampling window --------------------------------------------------

    def _des_window(
        self,
        index: int,
        start: float,
        end: float,
        rate: float,
        entering_backlog: float,
        fluid: OpenEpochResult,
        corrections: dict[str, float],
    ) -> tuple[EpochSample, Optional[float]]:
        """Run one DES window at the head of epoch ``index``.

        Returns the epoch sample (DES-measured, extrapolated over the
        epoch) and the window's *noise-adjusted* error overage — raw
        relative error minus the window's own sampling-noise allowance
        (``None`` when the window completed too few requests to judge).
        """
        knobs = self.knobs
        engine = self._des_engine(start)
        env = engine.env

        # Warm-up long enough for the primed cohort to blend into the flow.
        warm = max(knobs.window_warmup, 3.0 * fluid.service_time)
        span_total = min(end - start, warm + knobs.window)
        warm = min(warm, 0.5 * span_total)
        win_end = start + span_total
        measure_start = start + warm

        prime = fluid.concurrency + min(entering_backlog, float(self.config.http))
        prime_n = min(int(round(prime)), int(knobs.prime_cap * self.config.http))
        self._prime(engine, prime_n)

        collector = MetricsCollector(warmup=measure_start)
        engine.metrics = collector
        env.process(
            self._window_arrivals(engine, rate, win_end, index), name="arrivals"
        )
        env.run(until=win_end)

        measured = win_end - measure_start
        des_thr = collector.completed / measured if measured > 0 else 0.0
        des_mean = collector.response_stats.mean if collector.completed else 0.0
        if collector.completed:
            percentiles = collector.response_reservoir.percentiles()
            des_p95 = percentiles["p95"]
            self._last_window_responses = [
                float(v) for v in collector.response_reservoir.values()
            ]
        else:
            des_p95 = 0.0
            self._last_window_responses = []
        for task, stats in collector.task_stats.items():
            self._task_stats[task].merge(stats)

        # Error probe: compare the corrected fluid prediction for this epoch
        # against what the DES actually measured. Signed errors accumulate
        # for the run-level bias (noise cancels); the noise-adjusted excess
        # drives cadence tightening.
        error: Optional[float] = None
        excess: Optional[float] = None
        enough = collector.completed >= knobs.min_window_samples
        thr_corr = corrections["throughput"] if fluid.saturated else 1.0
        if enough and fluid.throughput > 0:
            pred_thr = fluid.throughput * thr_corr
            pred_p95 = fluid.response_p95 * corrections["p95"]
            # one-sigma relative noise of the window's own estimators:
            # Poisson count for throughput, ~2× that for a tail quantile.
            sigma = 1.0 / math.sqrt(collector.completed)
            error = 0.0
            excess = 0.0
            if des_thr > 0:
                err_thr = (des_thr - pred_thr) / des_thr
                self._signed_errors["throughput"].append(err_thr)
                self._error_samples["throughput"].append(collector.completed)
                error = abs(err_thr)
                excess = max(0.0, abs(err_thr) - knobs.noise_allowance * sigma)
            if des_p95 > 0:
                err_p95 = (des_p95 - pred_p95) / des_p95
                self._signed_errors["p95"].append(err_p95)
                self._error_samples["p95"].append(collector.completed)
                error = max(error, abs(err_p95))
                excess = max(
                    0.0, abs(err_p95) - 2.0 * knobs.noise_allowance * sigma, excess
                )
            # Re-calibrate the fluid corrections (EWMA). The throughput
            # correction only learns from saturated windows — in stable
            # regime the ratio is 1 by conservation and any deviation the
            # window sees is its own sampling noise.
            a = knobs.correction_alpha
            if fluid.saturated and des_thr > 0:
                corrections["throughput"] += a * (
                    des_thr / fluid.throughput - corrections["throughput"]
                )
            if fluid.response_time > 0 and des_mean > 0:
                corrections["mean"] += a * (des_mean / fluid.response_time - corrections["mean"])
            if fluid.response_p95 > 0 and des_p95 > 0:
                corrections["p95"] += a * (des_p95 / fluid.response_p95 - corrections["p95"])

        # Drain in-flight requests without recording, then release the
        # engine for the next fluid span. A window that cannot drain within
        # the grace (deep saturation) discards the engine instead — the
        # next window starts from a freshly primed state.
        engine.metrics = MetricsCollector(warmup=math.inf)
        env.run(until=min(end, win_end + knobs.drain_grace))
        self._des_sim_time += env.now - start
        if env.peek() < math.inf:
            self._engine = None
            self._rebuilds += 1

        # In stable regime the fluid throughput (rate + backlog drain) is the
        # better epoch-level estimator than a 20 s window count extrapolated
        # 15×; the window's measurement enters through window_error and the
        # latency corrections instead. At saturation the DES count is the
        # ground truth the fluid model is being corrected toward.
        thr = des_thr if enough and fluid.saturated else fluid.throughput * thr_corr
        mean = des_mean if enough else fluid.response_time * corrections["mean"]
        p95 = des_p95 if enough else fluid.response_p95 * corrections["p95"]
        return (
            EpochSample(
                index=index,
                start=start,
                end=end,
                mode="des",
                rate=rate,
                throughput=thr,
                response_mean=mean,
                response_p95=p95,
                cpu_usage=fluid.cpu_usage,
                backlog=fluid.backlog,
                saturated=fluid.saturated,
                window_error=error,
            ),
            excess,
        )

    # -- result assembly ------------------------------------------------------

    def _result(
        self, agg: HybridAggregator, corrections: dict[str, float], wall: float
    ) -> HybridRunResult:
        duration = self.workload.duration
        counts = agg.mode_counts()
        errors = agg.window_errors()
        signed_thr = self._signed_errors["throughput"]
        signed_p95 = self._signed_errors["p95"]

        def noise_floor(samples: list[int], scale: float) -> float:
            # standard error of the mean signed error: each window's relative
            # error carries ~scale/√N sampling noise, independent across
            # windows, so the mean's noise is √(Σ 1/Nᵢ)·scale/W.
            if not samples:
                return 0.0
            sem = math.sqrt(sum(1.0 / n for n in samples)) / len(samples)
            return self.knobs.noise_allowance * scale * sem

        engine = self._engine
        pool_busy = (
            {name: engine.pools[name].occupancy() for name in POOL_NAMES}
            if engine is not None
            else {name: 0.0 for name in POOL_NAMES}
        )
        cpu = agg.cpu_summary()
        p = self.params
        node_power = p.node_idle_power_w + (
            p.node_max_power_w - p.node_idle_power_w
        ) * (cpu.mean if cpu.count else 0.0)
        try:
            percentiles = agg.percentiles()
        except ValidationError:
            percentiles = {}
        gpu_model = engine.gpu if engine is not None else None
        return HybridRunResult(
            config=self.config,
            workload=self.workload,
            seed=self.seed,
            user_response_time=agg.response_summary(),
            throughput=agg.completed / duration if duration > 0 else 0.0,
            completed_requests=agg.completed,
            task_times={str(t): s.summary() for t, s in self._task_stats.items()},
            pool_busy=pool_busy,
            gpu_memory_gb=(
                gpu_model.memory_gb(self.config.extract) if gpu_model is not None else 0.0
            ),
            system_memory_gb=(
                engine._system_memory_gb() if engine is not None else 0.0
            ),
            cpu_usage=cpu,
            gpu_utilization=RunningStats().summary(),
            response_percentiles=percentiles,
            node_energy_wh=node_power * duration / 3600.0,
            gpu_energy_wh=0.0,
            series=agg.series(),
            epochs=list(agg.epochs),
            fluid_epochs=counts["fluid"],
            des_epochs=counts["des"],
            des_time_fraction=self._des_sim_time / duration if duration > 0 else 0.0,
            window_errors=errors,
            max_window_error=max(errors) if errors else 0.0,
            mean_window_error=sum(errors) / len(errors) if errors else 0.0,
            error_throughput_bias=(
                abs(sum(signed_thr) / len(signed_thr)) if signed_thr else 0.0
            ),
            error_p95_bias=abs(sum(signed_p95) / len(signed_p95)) if signed_p95 else 0.0,
            error_throughput_noise=noise_floor(self._error_samples["throughput"], 1.0),
            error_p95_noise=noise_floor(self._error_samples["p95"], 2.0),
            error_bound=self.knobs.error_bound,
            corrections=dict(corrections),
            engine_rebuilds=self._rebuilds,
            wall_time_s=wall,
        )


def simulate_hybrid(
    config: ThreadPoolConfig,
    schedule: ArrivalSchedule,
    *,
    duration: float = 86400.0,
    params: EngineModelParams | None = None,
    knobs: HybridKnobs | None = None,
    seed: int = 0,
) -> HybridRunResult:
    """Convenience one-call hybrid simulation of an arrival schedule."""
    workload = WorkloadSpec(
        arrival_schedule=schedule,
        duration=duration,
        warmup=0.0,
    )
    return HybridEngine(config, workload, params, knobs=knobs, seed=seed).run()
