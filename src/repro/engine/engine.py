"""Discrete-event simulation of the Pl@ntNet Identification Engine.

One :class:`IdentificationEngine` instance simulates one engine node serving
a closed-loop population of ``simultaneous_requests`` clients. Each request
executes the Table I pipeline::

    pre-process → [wait-download] → download → [wait-extract] → extract
    → process → [wait-simsearch] → simsearch → post-process

holding an HTTP pool thread end-to-end (the HTTP pool size is "the number of
simultaneous requests being processed", paper Table II) and claiming
Download / Extract / Simsearch threads for the bracketed stages.

Performance couplings modelled (see DESIGN.md §5 for calibration):

- **CPU contention** — CPU-bound stage times inflate when aggregate demand
  (weighted active tasks + background) exceeds the node's cores.
- **GPU concurrency** — per-inference latency grows with the number of
  concurrent extract streams; GPU memory is a function of the pool size.
- **Closed loop** — clients resubmit immediately on response, so response
  time and throughput obey Little's law (``R = X · T``) at steady state.
"""

from __future__ import annotations

import math
from typing import Any, Generator, Optional

from repro import simcore
from repro.engine.config import EngineModelParams, ThreadPoolConfig, WorkloadSpec
from repro.observability.trace import get_tracer
from repro.engine.cpumodel import CpuContentionModel, inflation_factor
from repro.engine.gpu import GpuModel
from repro.engine.metrics import EngineRunResult, MetricsCollector, POOL_NAMES, RequestTrace
from repro.engine.schedule import ArrivalSchedule
from repro.engine.tasks import TaskType
from repro.testbed.network import NetworkPath
from repro.utils.seeding import derive_seed, spawn_rng

__all__ = ["IdentificationEngine", "simulate_engine", "EngineRunResult"]

#: inter-arrival gaps drawn per batch in open-loop mode — large enough to
#: amortize the numpy call, small enough that short runs don't over-draw.
_ARRIVAL_BATCH = 256
#: service-noise factors drawn per batch (six per simulated request).
_NOISE_BATCH = 512

_PRE_PROCESS = TaskType.PRE_PROCESS
_WAIT_DOWNLOAD = TaskType.WAIT_DOWNLOAD
_DOWNLOAD = TaskType.DOWNLOAD
_WAIT_EXTRACT = TaskType.WAIT_EXTRACT
_EXTRACT = TaskType.EXTRACT
_PROCESS = TaskType.PROCESS
_WAIT_SIMSEARCH = TaskType.WAIT_SIMSEARCH
_SIMSEARCH = TaskType.SIMSEARCH
_POST_PROCESS = TaskType.POST_PROCESS


class IdentificationEngine:
    """Simulates one engine node under a closed-loop workload."""

    def __init__(
        self,
        config: ThreadPoolConfig,
        workload: WorkloadSpec | None = None,
        params: EngineModelParams | None = None,
        *,
        seed: int = 0,
        client_path: Optional[NetworkPath] = None,
        trace: bool = False,
    ) -> None:
        self.config = config
        self.workload = workload or WorkloadSpec()
        self.params = params or EngineModelParams()
        self.seed = int(seed)
        self.client_path = client_path

        self.env = simcore.Environment()
        self.cpu = CpuContentionModel(
            self.params.cpu_cores,
            base_load=(
                self.params.background_cores
                + self.params.extract_standby_cores * config.extract
            ),
            scale=self.params.contention_scale,
            sharpness=self.params.contention_sharpness,
            rho_max=self.params.contention_rho_max,
            kappa=self.params.contention_kappa,
        )
        self.gpu = GpuModel(self.params)
        if not self.gpu.fits_in_memory(config.extract):
            raise ValueError(
                f"extract pool of {config.extract} needs "
                f"{self.gpu.memory_gb(config.extract):.1f} GB GPU memory, "
                f"only {self.params.gpu_total_memory_gb} GB available"
            )
        env = self.env
        self.pools = {
            "http": simcore.Resource(env, config.http, name="http"),
            "download": simcore.Resource(env, config.download, name="download"),
            "extract": simcore.Resource(env, config.extract, name="extract"),
            "simsearch": simcore.Resource(env, config.simsearch, name="simsearch"),
        }
        self.metrics = MetricsCollector(self.workload.warmup, trace=trace)
        self._rng = spawn_rng(self.seed)
        #: undrawn service-noise factors, next one last (see :meth:`_noise`).
        self._noise_buf: list[float] = []
        # Pre-computed lognormal noise parameters (mean 1, given CV).
        cv = self.params.service_cv
        if cv > 0:
            self._sigma = math.sqrt(math.log(1.0 + cv * cv))
            self._mu = -0.5 * self._sigma * self._sigma
        else:
            self._sigma = 0.0
            self._mu = 0.0
        self._client_rtt = client_path.round_trip_time() if client_path else 0.0

    # -- service-time noise -------------------------------------------------------

    def _noise(self) -> float:
        """The next lognormal service-noise factor (mean 1, CV ``service_cv``).

        Draws come from ``self._rng`` in blocks of :data:`_NOISE_BATCH`: a
        numpy Generator yields the same sequence batched as one scalar call
        at a time, and ``_rng`` feeds nothing but this noise, so the values
        — and every simulated metric — match per-call draws exactly. Values
        left over in the block when a run ends are never observed.
        """
        buf = self._noise_buf
        if not buf:
            if self._sigma == 0.0:
                return 1.0
            block = self._rng.lognormal(self._mu, self._sigma, size=_NOISE_BATCH)
            buf.extend(block[::-1].tolist())  # reversed: pop() takes the next draw
        return buf.pop()

    # -- request lifecycle -------------------------------------------------------------

    def _lifecycle(self) -> Generator[simcore.Event, None, None]:
        """One request through the full Table I pipeline.

        Every stage is inlined into this one generator, with hot attributes
        held in locals: a request costs one generator and no per-stage
        delegation. The clock only moves across a ``yield``, so ``now`` is
        read once per resume. Plain delays are yielded as raw numbers, which
        simcore schedules through a recycled carrier event instead of a
        fresh :class:`~repro.simcore.events.Timeout` (the same heap entry,
        so the same event order).

        A CPU-bound stage that would draw ``weight`` cores uncontended is
        slowed by the current contention factor ``I``: it runs ``I`` times
        longer while drawing ``weight / I`` cores, keeping its CPU work
        invariant. Extract is a GPU-paced phase drawing ``w_extract_spin``
        cores (not stretched by CPU contention), then a CPU-side decode
        phase like any other CPU stage.

        Wait times, the response and the trace go to the collector in place
        when the request starts; service times go to ``self.metrics`` as of
        each stage's end (the hybrid engine swaps collectors between
        windows while requests are in flight). Both go straight to the
        collector's ``task_stats`` once the warm-up has passed, and each
        stage's slowdown comes straight from :func:`inflation_factor`, the
        contention curve the analytic model shares.
        """
        env = self.env
        p = self.params
        pools = self.pools
        metrics = self.metrics
        cpu = self.cpu
        cores = cpu.cores
        scale, sharpness, rho_max, kappa = cpu.scale, cpu.sharpness, cpu.rho_max, cpu.kappa
        acquire = cpu.acquire
        release = cpu.release
        noise = self._noise
        tracing = metrics.trace_enabled
        stamps: dict[str, float] = {}
        submitted = env._now

        http = pools["http"]
        http_req = http.request()
        yield http_req
        try:
            # pre-process
            t0 = now = env._now
            slowdown = inflation_factor(cpu._demand / cores, scale, sharpness, rho_max, kappa)
            draw = p.w_http_misc / slowdown
            acquire(draw, now)
            try:
                duration = p.t_preprocess * slowdown * noise()
                yield duration
            finally:
                now = env._now
                release(draw, now)
            collector = self.metrics
            if now >= collector.warmup:
                collector.task_stats[_PRE_PROCESS].add(duration)
            if tracing:
                stamps["pre-process"] = now - t0

            # wait-download, download: network transfer + CPU-slowed decode
            t0 = now
            pool = pools["download"]
            claim = pool.request()
            yield claim
            now = env._now
            if now >= metrics.warmup:
                metrics.task_stats[_WAIT_DOWNLOAD].add(now - t0)
            if tracing:
                stamps["wait-download"] = now - t0
            try:
                t0 = now
                slowdown = inflation_factor(cpu._demand / cores, scale, sharpness, rho_max, kappa)
                draw = p.w_download / slowdown
                acquire(draw, now)
                try:
                    network = p.image_bytes / p.download_bandwidth
                    duration = (network + p.t_download_cpu * slowdown) * noise()
                    yield duration
                finally:
                    now = env._now
                    release(draw, now)
                collector = self.metrics
                if now >= collector.warmup:
                    collector.task_stats[_DOWNLOAD].add(duration)
                if tracing:
                    stamps["download"] = now - t0
            finally:
                pool.release(claim)

            # wait-extract, extract: GPU phase, then CPU-side decode phase
            t0 = now
            pool = pools["extract"]
            claim = pool.request()
            yield claim
            now = env._now
            if now >= metrics.warmup:
                metrics.task_stats[_WAIT_EXTRACT].add(now - t0)
            if tracing:
                stamps["wait-extract"] = now - t0
            try:
                gpu = self.gpu
                concurrency = gpu.stream_started()
                t0 = now
                spin = p.w_extract_spin
                acquire(spin, now)
                try:
                    duration = gpu.inference_time(concurrency) * noise()
                    yield duration
                finally:
                    gpu.stream_finished()
                    now = env._now
                    release(spin, now)
                slowdown = inflation_factor(cpu._demand / cores, scale, sharpness, rho_max, kappa)
                draw = p.w_extract / slowdown
                acquire(draw, now)
                try:
                    duration = p.t_extract_cpu * slowdown * noise()
                    yield duration
                finally:
                    now = env._now
                    release(draw, now)
                collector = self.metrics
                if now >= collector.warmup:
                    collector.task_stats[_EXTRACT].add(now - t0)
                if tracing:
                    stamps["extract"] = now - t0
            finally:
                pool.release(claim)

            # process
            t0 = now
            slowdown = inflation_factor(cpu._demand / cores, scale, sharpness, rho_max, kappa)
            draw = p.w_http_misc / slowdown
            acquire(draw, now)
            try:
                duration = p.t_process * slowdown * noise()
                yield duration
            finally:
                now = env._now
                release(draw, now)
            collector = self.metrics
            if now >= collector.warmup:
                collector.task_stats[_PROCESS].add(duration)
            if tracing:
                stamps["process"] = now - t0

            # wait-simsearch, simsearch
            t0 = now
            pool = pools["simsearch"]
            claim = pool.request()
            yield claim
            now = env._now
            if now >= metrics.warmup:
                metrics.task_stats[_WAIT_SIMSEARCH].add(now - t0)
            if tracing:
                stamps["wait-simsearch"] = now - t0
            try:
                t0 = now
                slowdown = inflation_factor(cpu._demand / cores, scale, sharpness, rho_max, kappa)
                draw = p.w_simsearch / slowdown
                acquire(draw, now)
                try:
                    duration = p.t_simsearch * slowdown * noise()
                    yield duration
                finally:
                    now = env._now
                    release(draw, now)
                collector = self.metrics
                if now >= collector.warmup:
                    collector.task_stats[_SIMSEARCH].add(duration)
                if tracing:
                    stamps["simsearch"] = now - t0
            finally:
                pool.release(claim)

            # post-process
            t0 = now
            slowdown = inflation_factor(cpu._demand / cores, scale, sharpness, rho_max, kappa)
            draw = p.w_http_misc / slowdown
            acquire(draw, now)
            try:
                duration = p.t_postprocess * slowdown * noise()
                yield duration
            finally:
                now = env._now
                release(draw, now)
            collector = self.metrics
            if now >= collector.warmup:
                collector.task_stats[_POST_PROCESS].add(duration)
            if tracing:
                stamps["post-process"] = now - t0
        finally:
            http.release(http_req)

        response_time = now - submitted + self._client_rtt
        metrics.record_response(response_time, now)
        if tracing:
            metrics.record_trace(
                RequestTrace(submitted=submitted, response_time=response_time, tasks=stamps),
                now,
            )

    def _client(self, index: int = 0) -> Generator[simcore.Event, None, None]:
        """A closed-loop client: resubmit immediately upon each response.

        In scheduled mode the client parks itself whenever its index is at
        or above the current target population and resumes when the
        schedule readmits it — shrinking and growing the closed-loop
        population without tearing down state (E2Clab's transparent
        scenario scaling).
        """
        env = self.env
        duration = self.workload.duration
        while env.now < duration:
            while index >= self._allowed_population:
                gate = env.event()
                self._parked[index] = gate
                yield gate
                if env.now >= duration:
                    return
            yield from self._lifecycle()

    def _population_controller(self) -> Generator[simcore.Event, None, None]:
        """Applies the population schedule (scheduled mode only)."""
        env = self.env
        assert self.workload.population_schedule is not None
        for start, population in self.workload.population_schedule:
            if start > env.now:
                yield start - env.now
            self._allowed_population = population
            for index in sorted(self._parked):
                if index < population:
                    self._parked.pop(index).succeed()

    def _trace_source(self) -> Generator[simcore.Event, None, None]:
        """Replay an arrival trace verbatim (timestamps, no RNG draws)."""
        env = self.env
        duration = self.workload.duration
        assert self.workload.arrival_schedule is not None
        trace = self.workload.arrival_schedule.trace
        assert trace is not None
        for stamp in trace:
            if stamp >= duration:
                return
            if stamp > env.now:
                yield stamp - env.now
            env.process(self._lifecycle(), name="request")

    def _scheduled_source(
        self, schedule: ArrivalSchedule
    ) -> Generator[simcore.Event, None, None]:
        """Poisson arrivals following a rate curve; each arrival is an
        independent request. Plain ``arrival_rate`` mode runs here on
        :meth:`ArrivalSchedule.constant`, one segment that never crosses
        a boundary.

        Within a segment, inter-arrival gaps are drawn in batches at the
        segment's rate from a dedicated arrival RNG (derived from the run
        seed), so arrivals never perturb the service-noise stream. At a
        segment boundary the residual of the gap in flight is rescaled by
        the old/new rate ratio (memoryless rescaling), which makes the
        piecewise process an exact NHPP; undrawn gaps of the batch are
        discarded so every segment samples at its own scale.
        """
        env = self.env
        duration = self.workload.duration
        segments = schedule.segments(duration)
        rng = spawn_rng(derive_seed(self.seed, "arrivals"))
        index = 0
        carry = 0.0  # unit-exponential work left over from a boundary crossing
        while env.now < duration and index < len(segments):
            _, end, rate = segments[index]
            if rate <= 0.0:
                # idle segment: no arrivals, the pending work is preserved
                if end >= duration:
                    return
                yield end - env.now
                index += 1
                continue
            if carry > 0.0:
                gap = carry / rate
                carry = 0.0
                if env.now + gap >= end and end < duration:
                    carry = (env.now + gap - end) * rate
                    yield end - env.now
                    index += 1
                    continue
                yield gap
                env.process(self._lifecycle(), name="request")
                if env.now >= duration:
                    return
                continue
            scale = 1.0 / rate
            for gap in rng.exponential(scale, size=_ARRIVAL_BATCH).tolist():
                if env.now + gap >= end and end < duration:
                    carry = (env.now + gap - end) * rate
                    yield end - env.now
                    index += 1
                    break
                yield gap
                env.process(self._lifecycle(), name="request")
                if env.now >= duration:
                    return

    # -- monitoring ------------------------------------------------------------------------

    def _monitor(self) -> Generator[simcore.Event, None, None]:
        """Sample every metric each ``sample_interval`` (paper: 10 s)."""
        env = self.env
        wl = self.workload
        interval = wl.sample_interval
        cfg = self.config
        gpu_mem = self.gpu.memory_gb(cfg.extract)
        sys_mem = self._system_memory_gb()
        prev_cpu = self.cpu.usage_integral(env.now)
        prev_busy = {name: self.pools[name].busy_integral() for name in POOL_NAMES}

        while env.now < wl.duration:
            yield interval
            now = env.now
            cpu_int = self.cpu.usage_integral(now)
            cpu_usage = (cpu_int - prev_cpu) / interval
            prev_cpu = cpu_int

            busy: dict[str, float] = {}
            for name in POOL_NAMES:
                integral = self.pools[name].busy_integral()
                busy[name] = (integral - prev_busy[name]) / (interval * self.pools[name].capacity)
                prev_busy[name] = integral

            mean_streams = busy["extract"] * cfg.extract
            gpu_util = self.gpu.utilization(active_streams=mean_streams)  # type: ignore[arg-type]
            gpu_power = self.gpu.power_draw_w(active_streams=mean_streams)  # type: ignore[arg-type]
            node_power = (
                self.params.node_idle_power_w
                + (self.params.node_max_power_w - self.params.node_idle_power_w) * cpu_usage
            )

            if now >= wl.warmup:
                self.metrics.sample_window(
                    now,
                    interval,
                    cpu_usage=cpu_usage,
                    gpu_utilization=gpu_util,
                    gpu_power_w=gpu_power,
                    node_power_w=node_power,
                    gpu_memory_gb=gpu_mem,
                    system_memory_gb=sys_mem,
                    pool_busy=busy,
                )

    def _system_memory_gb(self) -> float:
        p = self.params
        cfg = self.config
        threads = cfg.http + cfg.download + cfg.simsearch
        return p.sys_mem_base_gb + p.sys_mem_per_extract_gb * cfg.extract + p.sys_mem_per_thread_gb * threads

    # -- entry point ------------------------------------------------------------------------

    def run(self) -> EngineRunResult:
        """Run the simulation for the workload's duration and aggregate.

        When the process-global tracer is recording (it is a no-op by
        default) the run additionally emits an ``engine.run`` span with
        per-pool wait/service children and event-loop statistics, from
        which the tracer derives the engine metrics — at zero cost for
        untraced runs.
        """
        env = self.env
        workload = self.workload
        tracer = get_tracer()
        observing = tracer.enabled
        if observing:
            env.enable_stats()
            run_span = tracer.start_span(
                "engine.run",
                sim_clock=lambda: env.now,
                config=str(self.config),
                requests=workload.simultaneous_requests,
                seed=self.seed,
            )
        self._parked: dict[int, simcore.Event] = {}
        if workload.mode == "open":
            self._allowed_population = 0
            schedule = workload.arrival_schedule or ArrivalSchedule.constant(
                workload.arrival_rate
            )
            if schedule.is_trace:
                source = self._trace_source()
            else:
                source = self._scheduled_source(schedule)
            env.process(source, name="arrivals")
        else:
            self._allowed_population = workload.population_at(0.0)
            for index in range(workload.simultaneous_requests):
                env.process(self._client(index), name="client")
            if workload.mode == "scheduled":
                env.process(self._population_controller(), name="population")
        env.process(self._monitor(), name="monitor")
        env.run(until=workload.duration)
        if observing:
            self._publish_observability(tracer, run_span)
        return self._result()

    def _publish_observability(self, tracer: Any, run_span: Any) -> None:
        """Emit the pool spans and close ``run_span`` after one engine run."""
        env = self.env
        loop = env.stats.snapshot(env.now)
        for name, pool in self.pools.items():
            stats = pool.stats
            span = tracer.start_span(
                f"pool:{name}",
                parent=run_span,
                start=run_span.start_s,
                capacity=pool.capacity,
                grants=stats.grants,
                wait_mean_s=stats.wait_times.summary().mean,
                service_mean_s=(
                    stats.busy_integral / stats.releases if stats.releases else 0.0
                ),
                occupancy=pool.occupancy(),
                mean_queue_length=stats.mean_queue_length(env.now),
            )
            tracer.end_span(span)
        for key, value in loop.items():
            run_span.set(key, value)
        run_span.set("completed_requests", self.metrics.completed)
        tracer.end_span(run_span)

    def _result(self) -> EngineRunResult:
        wl = self.workload
        m = self.metrics
        measured = wl.duration - wl.warmup
        throughput = m.completed / measured if measured > 0 else float("nan")
        percentiles = (
            m.response_reservoir.percentiles() if len(m.response_reservoir) else {}
        )
        node_energy_wh = m.series.node_power_w.summary().mean * measured / 3600.0 if len(
            m.series.node_power_w
        ) else 0.0
        gpu_energy_wh = m.series.gpu_power_w.summary().mean * measured / 3600.0 if len(
            m.series.gpu_power_w
        ) else 0.0
        return EngineRunResult(
            config=self.config,
            workload=wl,
            seed=self.seed,
            user_response_time=m.series.user_response_time.summary(),
            throughput=throughput,
            completed_requests=m.completed,
            task_times={str(t): m.task_stats[t].summary() for t in TaskType},
            pool_busy={name: self.pools[name].occupancy() for name in POOL_NAMES},
            gpu_memory_gb=self.gpu.memory_gb(self.config.extract),
            system_memory_gb=self._system_memory_gb(),
            cpu_usage=m.series.cpu_usage.summary(),
            gpu_utilization=m.series.gpu_utilization.summary(),
            response_percentiles=percentiles,
            node_energy_wh=node_energy_wh,
            gpu_energy_wh=gpu_energy_wh,
            series=m.series,
            traces=list(m.traces),
        )


def simulate_engine(
    config: ThreadPoolConfig,
    simultaneous_requests: int = 80,
    *,
    duration: float = 1380.0,
    warmup: float = 60.0,
    sample_interval: float = 10.0,
    params: EngineModelParams | None = None,
    seed: int = 0,
    client_path: Optional[NetworkPath] = None,
) -> EngineRunResult:
    """Convenience one-call engine simulation (one repetition)."""
    workload = WorkloadSpec(
        simultaneous_requests=simultaneous_requests,
        duration=duration,
        sample_interval=sample_interval,
        warmup=warmup,
    )
    engine = IdentificationEngine(config, workload, params, seed=seed, client_path=client_path)
    return engine.run()
