"""The Optimization Manager (paper Fig. 7, right side).

The manager interprets a user-defined optimization setup (an
``optimizer_conf``) and automates the optimization cycle:

1. parallel deployment of the application workflow,
2. simultaneous execution,
3. asynchronous model optimization,
4. reconfiguration for new evaluations,

then produces the Phase III reproducibility summary — and, when asked,
repeats the best configuration for the paper's validation protocol
(``e2clab optimize --repeat 6 --duration 1380``).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Any, Callable, Mapping

from repro import observability
from repro.errors import OptimizationError
from repro.observability.trace import get_tracer
from repro.optimizer.config import OptimizerConf
from repro.optimizer.optimization import Optimization
from repro.optimizer.summary import ReproducibilitySummary
from repro.utils.stats import Summary, mean_std

__all__ = ["OptimizationManager", "OptimizationOutcome", "CallableOptimization"]

Evaluator = Callable[..., dict[str, float]]


class CallableOptimization(Optimization):
    """Adapter: wraps a plain evaluator callable as an Optimization.

    The evaluator takes the configuration dict (plus optional ``seed=`` /
    ``duration=`` keyword overrides) and returns a metrics mapping.
    """

    def __init__(self, problem: Any, evaluator: Evaluator, **kwargs: Any) -> None:
        super().__init__(problem, **kwargs)
        self._evaluator = evaluator
        self._conf: OptimizerConf | None = None
        self._resume = False

    def launch(self, config: Mapping[str, Any], **kwargs: Any) -> dict[str, float]:
        return dict(self._evaluator(dict(config), **kwargs))

    def run(self) -> ReproducibilitySummary:
        if self._conf is None:
            raise OptimizationError(
                "CallableOptimization.run() needs a bound OptimizerConf; "
                "use OptimizationManager"
            )
        conf = self._conf
        space = self.problem.space
        search = conf.build_search(space)
        if conf.max_concurrent is not None:
            from repro.search.algos import ConcurrencyLimiter

            search = ConcurrencyLimiter(search, conf.max_concurrent)
        # The cache's JSONL ledger lives with the campaign's other artifacts,
        # so a resumed run re-opens it warm.
        eval_cache = conf.build_eval_cache(path=self.archive.root / "evalcache.jsonl")
        backend_options = None
        if conf.executor == "store":
            backend_options = dict(conf.store)
            # Manager-level store campaigns default to CLI workers: they
            # rebuild the evaluator from optimizer_conf.json (written below,
            # atomically), so the trainable — a bound method holding archive
            # locks — never needs to cross a process boundary.
            backend_options.setdefault("spawn", "cli")
            from repro.utils.serialization import dump_json

            dump_json(
                conf.to_dict(), self.archive.root / "optimizer_conf.json", atomic=True
            )
        return self.execute(
            num_samples=conf.num_samples,
            search_alg=search,
            scheduler=conf.build_scheduler(),
            executor=conf.executor,
            max_workers=conf.max_workers,
            algorithm_info=conf.algorithm_info(),
            sampling_info=conf.sampling_info(),
            max_retries=conf.max_retries,
            retry_backoff_s=conf.retry_backoff_s,
            trial_timeout_s=conf.trial_timeout_s,
            resume=self._resume,
            checkpoint_every=conf.checkpoint_every,
            eval_cache=eval_cache,
            backend_options=backend_options,
        )


@dataclass
class OptimizationOutcome:
    """Everything one manager run produced."""

    summary: ReproducibilitySummary
    #: pooled validation statistic of the best configuration, if repeated.
    validation: Summary | None = None
    validation_runs: list[dict[str, float]] = field(default_factory=list)

    @property
    def best_configuration(self) -> dict[str, Any]:
        return self.summary.best_configuration


class OptimizationManager:
    """Drives Phases I–III for a configuration + evaluation pair."""

    def __init__(
        self,
        conf: OptimizerConf,
        *,
        optimization: Optimization | None = None,
        evaluator: Evaluator | None = None,
        resume_from: Any = None,
    ) -> None:
        if (optimization is None) == (evaluator is None):
            raise OptimizationError("pass exactly one of optimization= or evaluator=")
        self.conf = conf
        if optimization is None:
            assert evaluator is not None
            injector = conf.build_fault_injector()
            if injector is not None:
                evaluator = injector.wrap(evaluator)
            self.fault_injector = injector
            problem = conf.build_problem()
            optimization = CallableOptimization(
                problem,
                evaluator,
                name=conf.name,
                workdir=conf.workdir,
                seed=conf.seed,
                resume_dir=resume_from,
            )
            optimization._conf = conf
            optimization._resume = resume_from is not None
        else:
            self.fault_injector = None
            if resume_from is not None:
                raise OptimizationError(
                    "resume_from= requires an evaluator-backed manager; pass the "
                    "archive to your Optimization subclass via resume_dir= instead"
                )
        self.optimization = optimization

    @property
    def run_dir(self) -> Any:
        """Where this campaign's artifacts (and run report inputs) live."""
        return self.optimization.archive.root

    def run(self) -> OptimizationOutcome:
        """Phase II + III, then the optional repeat-validation campaign.

        With ``conf.observability`` set, a recording tracer (which derives
        the metrics registry from its spans) is installed for the duration
        of the run and the
        resulting artifacts (``spans.jsonl``, ``metrics.json``,
        ``metrics.prom``, ``trace_events.json``, ``timeline.html``) are
        exported into the experiment directory, ready for
        ``python -m repro report`` / ``python -m repro dashboard``.

        A non-empty ``conf.watchdog`` block additionally arms a live
        :class:`~repro.observability.watchdog.CampaignWatchdog` on the span
        stream (implying span recording): its alerts are folded into the
        Phase III summary, exported as ``alerts.jsonl``, and checkpointed so
        a resumed campaign does not re-fire them.
        """
        watchdog = self.conf.build_watchdog()
        serving = self.conf.serve is not None
        observing = self.conf.observability or watchdog is not None or serving
        if observing:
            observability.enable()
        tracer = get_tracer()
        if watchdog is not None:
            watchdog.attach(tracer)
            archive = self.optimization.archive
            # Resume: restore fired-alert state, then rebuild the straggler /
            # objective baselines from the trials the searcher will replay.
            watchdog.load_state(archive.load_watchdog_state())
            watchdog.seed_from_trials(archive.load_checkpoint())
        monitor = None
        if serving:
            # After attach: the monitor subscribes to the tracer and to
            # the watchdog attached to it when it starts.
            from repro.observability.live import LiveMonitor

            monitor = LiveMonitor.from_spec(
                self.conf.serve,
                run_dir=self.run_dir,
                name=self.conf.name,
                num_samples=self.conf.num_samples,
            )
            # Set before the server binds: /status never reads "starting".
            monitor.board.set_phase("optimize")
            monitor.start()
        try:
            with tracer.span("phase:optimize"):
                summary = self.optimization.run()
            outcome = OptimizationOutcome(summary=summary)
            if self.conf.repeat > 0:
                if monitor is not None:
                    monitor.board.set_phase("validate")
                with tracer.span("phase:validate", repeat=self.conf.repeat):
                    outcome = self.validate(summary.best_configuration, outcome=outcome)
            if monitor is not None:
                monitor.board.set_phase("finished")
            return outcome
        finally:
            if observing:
                # Export even when the campaign failed: partial spans and
                # metrics are exactly what debugging the failure needs.
                try:
                    self.optimization.export_observability()
                finally:
                    if monitor is not None:
                        monitor.stop()
                    if watchdog is not None:
                        watchdog.detach()
                    observability.disable()

    def validate(
        self,
        configuration: Mapping[str, Any],
        *,
        outcome: OptimizationOutcome | None = None,
    ) -> OptimizationOutcome:
        """Re-run ``configuration`` ``repeat + 1`` times (paper protocol).

        The paper repeats each configuration 6 extra times (7 experiments
        total) at full duration to reduce measurement variance; seeds vary
        per repetition so runs are independent.
        """
        runs: list[dict[str, float]] = []
        metric = self.optimization.problem.primary_metric
        base_seed = self.conf.seed or 0
        kwargs: dict[str, Any] = {}
        if self.conf.duration is not None:
            kwargs["duration"] = self.conf.duration
        tracer = get_tracer()
        start = time.perf_counter()
        for repetition in range(self.conf.repeat + 1):
            with tracer.span(f"validation:rep{repetition}", seed=base_seed + 1000 + repetition):
                metrics = self.optimization.launch(
                    dict(configuration), seed=base_seed + 1000 + repetition, **kwargs
                )
            runs.append(dict(metrics))
        pooled = mean_std([run[metric] for run in runs])
        if outcome is None:
            # Standalone validation of a known-good configuration: summarize
            # the validation runs themselves. (This used to launch a whole
            # fresh optimization campaign just to build a summary object.)
            summary = ReproducibilitySummary(
                problem=self.optimization.problem.describe(),
                sampling={},
                algorithm={"search": "validation"},
                evaluations=[
                    {
                        "configuration": dict(configuration),
                        "metrics": dict(run),
                        "value": run[metric],
                    }
                    for run in runs
                ],
                best_configuration=dict(configuration),
                best_value=pooled.mean,
                wall_clock_s=time.perf_counter() - start,
            )
            outcome = OptimizationOutcome(summary=summary)
        outcome.validation = pooled
        outcome.validation_runs = runs
        return outcome
