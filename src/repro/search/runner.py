"""The trial runner: asynchronous parallel execution of trials.

``run()`` is the facade equivalent to the paper's ``tune.run`` (Listing 1
line 14): it drives a search algorithm, executes trials through a
pluggable :class:`~repro.search.backends.ExecutionBackend`, consults the
trial scheduler on intermediate results, and returns an
:class:`ExperimentAnalysis`.

Executor notes
--------------
- ``"sync"`` — deterministic sequential execution (tests, debugging).
- ``"thread"`` — overlapped trials; supports schedulers and intermediate
  reporting. Best when the trainable releases the GIL or is I/O-bound;
  also what gives the constant-liar asynchronous semantics without
  pickling constraints.
- ``"process"`` — true CPU parallelism for pure-Python trainables (the
  engine DES). The trainable must be picklable (a top-level function);
  intermediate reporting/schedulers are unsupported across the process
  boundary, so the scheduler must be FIFO.
- ``"store"`` — distributed execution through a shared file-backed
  :class:`~repro.search.store.TrialStore`: trials are persisted to a
  crash-safe ledger and claimed under lease+heartbeat by elastic workers
  (local children and/or ``python -m repro worker <run-dir>`` joiners).
  Configure with ``backend_options={"store_dir": ...}``.

The runner's main loop is backend-agnostic — suggest, submit, wait, fold.
Every backend runs the same attempt loop
(:func:`repro.search.execution.run_trial`) and returns the same outcome
dict: status, retry/timeout/taint markers, the worker-measured
``evaluate_s``, per-attempt records and, where the backend can see it,
``queue_wait_s``. :meth:`TrialRunner._fold` turns every outcome into the
trial record and its spans (one ``execute`` span per attempt) the same way,
so analyses are comparable across executors.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.bayesopt.space import Space
from repro.errors import TrialError, ValidationError
from repro.observability import fabric
from repro.observability.profile import CostBreakdown, aggregate_costs
from repro.observability.trace import get_tracer
from repro.search.algos import SearchAlgorithm, SurrogateSearch
from repro.search.backends import BACKENDS
from repro.search.evalcache import EvalCache
from repro.search.execution import Trainable, normalize_result
from repro.search.schedulers import FIFOScheduler, TrialDecision, TrialScheduler
from repro.search.trial import Trial, TrialStatus

__all__ = ["TrialRunner", "ExperimentAnalysis", "run"]

#: persistence callback: receives the finished trial records and the
#: searcher's ``state_dict()`` (refit cadence, hedge gains) so ``--resume``
#: restores the optimization cadence, not just the observations.
Checkpointer = Callable[[list[dict[str, Any]], Optional[dict[str, Any]]], Any]


@dataclass
class ExperimentAnalysis:
    """Results of one experiment: all trials plus best-of views."""

    name: str
    metric: str
    mode: str
    trials: list[Trial] = field(default_factory=list)
    wall_clock_s: float = 0.0

    def _completed(self) -> list[Trial]:
        done = [
            t
            for t in self.trials
            if t.status in (TrialStatus.TERMINATED, TrialStatus.STOPPED)
            and self.metric in t.result
        ]
        if not done:
            raise TrialError("no completed trials with the target metric")
        return done

    @property
    def best_trial(self) -> Trial:
        key = lambda t: t.result[self.metric]  # noqa: E731
        done = self._completed()
        return min(done, key=key) if self.mode == "min" else max(done, key=key)

    @property
    def best_config(self) -> dict[str, Any]:
        return dict(self.best_trial.config)

    @property
    def best_result(self) -> float:
        return self.best_trial.result[self.metric]

    def records(self) -> list[dict[str, Any]]:
        """Flat record per trial (a dataframe-ready structure)."""
        return [t.to_dict() for t in self.trials]

    def objective_history(self) -> list[float]:
        """Objective values in completion order (for convergence plots).

        NaN entries are skipped: an early-stopped trial that never produced
        an intermediate report scores NaN, which would otherwise poison the
        running-incumbent computation of a convergence plot.
        """
        return [
            t.result[self.metric]
            for t in self.trials
            if self.metric in t.result and t.result[self.metric] == t.result[self.metric]
        ]

    def cost_profile(self) -> CostBreakdown:
        """Pooled suggest/evaluate/tell cost over all trials."""
        return aggregate_costs(t.cost for t in self.trials)

    def __str__(self) -> str:
        return (
            f"ExperimentAnalysis({self.name!r}: {len(self.trials)} trials, "
            f"best {self.metric}={self.best_result:.4g})"
        )


class TrialRunner:
    """Executes trials against a search algorithm and a scheduler."""

    def __init__(
        self,
        trainable: Trainable,
        search_alg: SearchAlgorithm,
        *,
        metric: str,
        mode: str = "min",
        scheduler: TrialScheduler | None = None,
        num_samples: int = 10,
        executor: str = "sync",
        max_workers: int = 4,
        name: str = "experiment",
        raise_on_failed_trial: bool = False,
        log_dir: str | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        trial_timeout_s: float | None = None,
        resume_trials: list[Trial] | None = None,
        resume_searcher_state: dict[str, Any] | None = None,
        checkpoint: Checkpointer | None = None,
        checkpoint_every: int = 1,
        eval_cache: "EvalCache | None" = None,
        backend_options: dict[str, Any] | None = None,
    ) -> None:
        if mode not in ("min", "max"):
            raise ValidationError("mode must be 'min' or 'max'")
        if num_samples < 1:
            raise ValidationError("num_samples must be >= 1")
        backend_cls = BACKENDS.get(executor)
        if backend_cls is None:
            raise ValidationError(f"unknown executor {executor!r}")
        if max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        if max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValidationError("retry_backoff_s must be >= 0")
        if trial_timeout_s is not None and trial_timeout_s <= 0:
            raise ValidationError("trial_timeout_s must be > 0")
        if checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        # Validated here, before run() replays any resumed trial.
        backend_cls.check_options(backend_options or {})
        self.trainable = trainable
        self.search_alg = search_alg
        self.metric = metric
        self.mode = mode
        self.scheduler = scheduler or FIFOScheduler(mode)
        if not backend_cls.supports_mid_trial_scheduling and not isinstance(
            self.scheduler, FIFOScheduler
        ):
            raise ValidationError(
                f"{executor} executor cannot consult a scheduler mid-trial; use FIFO"
            )
        self.num_samples = int(num_samples)
        self.executor_kind = executor
        self.max_workers = int(max_workers)
        self.name = name
        self.raise_on_failed_trial = raise_on_failed_trial
        self.max_retries = int(max_retries)
        self.retry_backoff_s = float(retry_backoff_s)
        self.trial_timeout_s = None if trial_timeout_s is None else float(trial_timeout_s)
        self.backend_options = dict(backend_options or {})
        #: the process-global tracer, re-read when :meth:`run` starts.
        self._tracer = get_tracer()
        #: open per-trial spans (trial_id → Span). Only the thread running
        #: :meth:`run` emits spans, so no lock guards them.
        self._trial_spans: dict[str, Any] = {}
        #: serializes all scheduler access: with the thread executor,
        #: ``on_result`` fires from worker threads while ``on_complete``
        #: fires from the drain loop — stateful schedulers need one lock.
        self._scheduler_lock = threading.Lock()
        #: trials replayed from a checkpoint (count against num_samples).
        self._resume_trials: list[Trial] = list(resume_trials or [])
        #: searcher state from the checkpoint, restored after replay.
        self._resume_searcher_state = resume_searcher_state
        self._checkpoint = checkpoint
        self.checkpoint_every = int(checkpoint_every)
        #: memoizing trial cache consulted before executor submission.
        self.eval_cache = eval_cache
        self._finished: list[Trial] = list(self._resume_trials)
        self._since_checkpoint = 0
        self._log_path = None
        if log_dir is not None:
            from pathlib import Path

            directory = Path(log_dir)
            directory.mkdir(parents=True, exist_ok=True)
            self._log_path = directory / f"{name}.jsonl"
            self._log_path.write_text("")  # truncate previous runs

    @property
    def observing(self) -> bool:
        """Whether any telemetry consumer is active (workers should join)."""
        return self._tracer.enabled

    # -- observability hooks ---------------------------------------------------------

    def _ask(self, trial_ids: list[str]) -> tuple[list[dict[str, Any]], float]:
        """Time one ask; returns the configs and the per-config cost."""
        start = time.perf_counter()
        if len(trial_ids) == 1:
            config = self.search_alg.suggest(trial_ids[0])
            configs = [] if config is None else [config]
        else:
            configs = self.search_alg.suggest_batch(trial_ids)
        elapsed = time.perf_counter() - start
        return configs, elapsed / len(configs) if configs else elapsed

    def _open_trial(self, trial: Trial, suggest_s: float) -> None:
        """Record the suggest cost; open the trial span if tracing."""
        trial.cost["suggest_s"] = suggest_s
        tracer = self._tracer
        if not tracer.enabled:
            return
        now = tracer.clock()
        span = tracer.start_span(
            f"trial:{trial.trial_id}", start=now - suggest_s, trial_id=trial.trial_id
        )
        self._trial_spans[trial.trial_id] = span
        self._child_span(trial, "suggest", suggest_s, end=now)

    def _close_trial(self, trial: Trial) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        span = self._trial_spans.pop(trial.trial_id, None)
        if span is not None:
            span.set("status", trial.status.value)
            if self.metric in trial.result:
                span.set(self.metric, trial.result[self.metric])
            for key in ("retries", "timeouts"):
                if trial.cost.get(key):
                    span.set(key, int(trial.cost[key]))
            tracer.end_span(span, error=trial.error)

    def _child_span(
        self,
        trial: Trial,
        name: str,
        duration_s: float,
        *,
        end: float | None = None,
        error: str | None = None,
        **attributes: Any,
    ) -> None:
        """Emit one finished child of the trial span, ``duration_s`` long.

        The span ends at ``end`` on the tracer clock (default: now). Children
        finish (and stream to subscribers and the latency record) before
        their trial parent, so each carries the trial identity itself, plus
        the ``attributes`` the span → op table reads (``cache_hit``/``status``
        on execute).
        """
        tracer = self._tracer
        if not tracer.enabled:
            return
        parent = self._trial_spans.get(trial.trial_id)
        if end is None:
            end = tracer.clock()
        span = tracer.start_span(
            name,
            parent=parent,
            start=end - duration_s,
            trial_id=trial.trial_id,
            **attributes,
        )
        tracer.end_span(span, error=error, end=end)

    # -- evaluation cache -------------------------------------------------------------

    def _cache_lookup(self, trial: Trial) -> bool:
        """Serve ``trial`` from the evaluation cache; True on a hit.

        A hit completes the trial without touching the executor: the stored
        (normalized) result is replayed, the evaluate cost is zero, and the
        ``cache_hit`` cost marker feeds the Phase III profile.
        """
        if self.eval_cache is None:
            return False
        cached = self.eval_cache.lookup(trial.config)
        if cached is None:
            return False
        trial.result = cached
        trial.status = TrialStatus.TERMINATED
        trial.runtime_s = 0.0
        trial.cost["evaluate_s"] = 0.0
        trial.cost["cache_hit"] = 1.0
        self._child_span(trial, "execute", 0.0, status=trial.status.value, cache_hit=True)
        return True

    def _cache_store(self, trial: Trial) -> None:
        """Admit a finished trial's result, unless tainted.

        Only cleanly terminated results qualify; retried, timed-out,
        fault-injected and early-stopped trials are refused, and a trial
        that was itself served from the cache is not re-stored (it would
        inflate the replicate count without a fresh measurement).
        """
        if self.eval_cache is None or trial.status is not TrialStatus.TERMINATED:
            return
        if trial.cost.get("cache_hit"):
            return
        self.eval_cache.store(trial.config, trial.result, tainted=bool(trial.cost.get("tainted")))

    def on_report(self, trial: Trial, step: int, value: float) -> bool:
        """Consult the scheduler on an intermediate report; False stops the trial."""
        with self._scheduler_lock:
            decision = self.scheduler.on_result(trial, step, value)
        return decision is TrialDecision.CONTINUE

    def _log_trial(self, trial: Trial) -> None:
        """Append the finished trial as one JSON line (Tune-style log)."""
        if self._log_path is None:
            return
        import json

        with self._log_path.open("a") as handle:
            handle.write(json.dumps(trial.to_dict()) + "\n")

    def _after_trial(self, trial: Trial) -> None:
        with self._scheduler_lock:
            self.scheduler.on_complete(trial)
        try:
            if trial.status is TrialStatus.ERROR:
                self.search_alg.on_trial_error(trial.trial_id, trial.config)
                if self.raise_on_failed_trial:
                    raise TrialError(trial.error or "trial failed", trial_id=trial.trial_id)
                return
            value = trial.result.get(self.metric)
            if value is not None and value == value:  # not NaN
                start = time.perf_counter()
                self.search_alg.on_trial_complete(trial.trial_id, trial.config, value)
                trial.cost["tell_s"] = time.perf_counter() - start
                self._child_span(trial, "tell", trial.cost["tell_s"])
        finally:
            self._close_trial(trial)
            self._log_trial(trial)
            self._record_finished(trial)

    # -- checkpoint / resume ---------------------------------------------------------

    def _record_finished(self, trial: Trial) -> None:
        """Track a finished trial and periodically persist the campaign state."""
        if self._checkpoint is None:
            return
        self._finished.append(trial)
        self._since_checkpoint += 1
        if self._since_checkpoint >= self.checkpoint_every:
            self._flush_checkpoint()

    def _flush_checkpoint(self) -> None:
        if self._checkpoint is None or self._since_checkpoint == 0:
            return
        self._since_checkpoint = 0
        records = [t.to_dict() for t in self._finished]
        self._checkpoint(records, self.search_alg.state_dict())

    def _replay_resumed(self, trials: list[Trial]) -> int:
        """Feed checkpointed trials back into the searcher without re-executing.

        Completed trials are ``tell``-ed into the search algorithm so the
        surrogate resumes with its full observation history; errored trials
        surrender through ``on_trial_error``. Every resumed trial counts
        against the ``num_samples`` budget, and every resumed trial is
        re-logged into the fresh trial log so ``<name>.jsonl`` stays a
        complete ledger across resume generations — the archive falls back
        to it when ``checkpoint.json`` is lost to a crash.
        """
        for trial in self._resume_trials:
            trials.append(trial)
            value = trial.result.get(self.metric)
            if (
                trial.status in (TrialStatus.TERMINATED, TrialStatus.STOPPED)
                and value is not None
                and value == value
            ):
                self.search_alg.on_trial_complete(trial.trial_id, trial.config, value)
            elif trial.status is TrialStatus.ERROR:
                self.search_alg.on_trial_error(trial.trial_id, trial.config)
            self._log_trial(trial)
        if self._resume_searcher_state:
            # After replay, so counters restored here are clamped against
            # the full replayed history rather than an empty searcher.
            self.search_alg.load_state(self._resume_searcher_state)
        return len(self._resume_trials)

    # -- main loop --------------------------------------------------------------------

    def run(self) -> ExperimentAnalysis:
        self._tracer = get_tracer()
        start = time.perf_counter()
        trials: list[Trial] = []
        created = self._replay_resumed(trials)
        backend = BACKENDS[self.executor_kind](self)
        backend.start()
        futures: dict[Future, Trial] = {}
        cancel = False
        try:
            exhausted = False
            while True:
                # Fill every free backend slot from one batched suggest
                # (a single surrogate fit for model-based searchers).
                while not exhausted and created < self.num_samples:
                    want = min(self.num_samples - created, backend.capacity - len(futures))
                    if want <= 0:
                        break
                    ids = [f"{self.name}_{created + k:05d}" for k in range(want)]
                    configs, suggest_s = self._ask(ids)
                    if not configs:
                        if not futures:
                            exhausted = True  # nothing pending → truly done
                        break
                    for config in configs:
                        trial = Trial(trial_id=f"{self.name}_{created:05d}", config=config)
                        self._open_trial(trial, suggest_s)
                        trials.append(trial)
                        created += 1
                        if self._cache_lookup(trial):
                            # Completed without occupying an executor
                            # slot; tell the searcher right away.
                            self._after_trial(trial)
                        else:
                            trial.status = TrialStatus.RUNNING
                            futures[backend.submit(trial)] = trial
                    if len(configs) < len(ids):
                        break  # limited/exhausted for now: drain first

                if not futures:
                    if exhausted or created >= self.num_samples:
                        break
                    # Every config of a partial batch was served from
                    # the cache: nothing to drain, go refill.
                    continue
                done = backend.wait_any(set(futures))
                for future in done:
                    trial = futures.pop(future)
                    self._fold(trial, backend.collect(future))
                    self._cache_store(trial)
                    self._after_trial(trial)
                if created >= self.num_samples and not futures:
                    break
        except TrialError as exc:
            # Abort cleanly mid-drain: cancel everything still queued so
            # shutdown does not execute abandoned work, and hand the
            # partial analysis to the caller on the error.
            cancel = True
            for future in futures:
                future.cancel()
            exc.analysis = self._analysis(trials, start)
            raise
        except BaseException:
            cancel = True
            raise
        finally:
            backend.shutdown(cancel=cancel)
        self._flush_checkpoint()
        return self._analysis(trials, start)

    def _fold(self, trial: Trial, outcome: dict[str, Any]) -> None:
        """Fold one backend outcome into ``trial``, the same way for every executor.

        The outcome is the wire format of :mod:`repro.search.execution`.
        Sets status and result, the retry/timeout/taint markers and the
        worker-measured cost split, then emits the ``queue-wait`` span (where
        the backend measured the wait), one ``execute`` span per attempt and
        merges the worker's telemetry. The evaluation is taken to have ended
        now; spans are placed backwards from there by the worker's offsets.
        """
        cost = trial.cost
        if outcome.get("intermediate"):
            trial.intermediate = [(int(step), float(v)) for step, v in outcome["intermediate"]]
        if outcome.get("stopped"):
            # Early-stopped: score with the last intermediate value.
            last = trial.intermediate[-1][1] if trial.intermediate else float("nan")
            trial.result = {self.metric: last}
            trial.status = TrialStatus.STOPPED
        elif outcome.get("ok"):
            try:
                trial.result = normalize_result(outcome["raw"], self.metric)
                trial.status = TrialStatus.TERMINATED
            except Exception as exc:  # noqa: BLE001 - recorded on the trial
                trial.error = f"{type(exc).__name__}: {exc}"
                trial.status = TrialStatus.ERROR
        else:
            trial.error = str(outcome.get("error") or "trial failed")
            trial.status = TrialStatus.ERROR
        queue_wait_s = outcome.get("queue_wait_s")
        if queue_wait_s is not None:
            cost["queue_wait_s"] = float(queue_wait_s)
        trial.runtime_s = cost["evaluate_s"] = float(outcome.get("evaluate_s", 0.0))
        for key in ("retries", "timeouts", "reclaimed"):
            if outcome.get(key):
                cost[key] = float(outcome[key])
        if outcome.get("tainted"):
            # Retried, timed out, fault-injected or reclaimed: the
            # measurement never enters the evaluation cache.
            cost["tainted"] = 1.0
        if not self._tracer.enabled:
            return
        start = self._tracer.clock() - trial.runtime_s
        if queue_wait_s is not None:
            self._child_span(trial, "queue-wait", cost["queue_wait_s"], end=start)
        attempts = outcome.get("attempts") or ()
        for k, attempt in enumerate(attempts):
            status, error = attempt.get("status"), attempt.get("error")
            if k == len(attempts) - 1 and status != "timeout":
                status, error = trial.status.value, trial.error
            self._child_span(
                trial,
                "execute",
                float(attempt["duration_s"]),
                end=start + float(attempt["end_s"]),
                error=error,
                status=status,
            )
        telemetry = outcome.get("telemetry")
        if telemetry is not None:
            fabric.merge_payload(
                telemetry,
                tracer=self._tracer,
                parent=self._trial_spans.get(trial.trial_id),
                attributes={"trial_id": trial.trial_id},
            )

    def _analysis(self, trials: list[Trial], start: float) -> ExperimentAnalysis:
        return ExperimentAnalysis(
            name=self.name,
            metric=self.metric,
            mode=self.mode,
            trials=trials,
            wall_clock_s=time.perf_counter() - start,
        )


def run(
    trainable: Trainable,
    *,
    space: Space | None = None,
    metric: str,
    mode: str = "min",
    num_samples: int = 10,
    search_alg: SearchAlgorithm | None = None,
    scheduler: TrialScheduler | None = None,
    executor: str = "sync",
    max_workers: int = 4,
    name: str = "experiment",
    seed: int | None = None,
    log_dir: str | None = None,
    batch_size: int = 1,
    refit_every: int = 1,
    incremental: bool = False,
    background_refit: bool = False,
    backend_options: dict[str, Any] | None = None,
) -> ExperimentAnalysis:
    """``tune.run``-style entry point.

    Either pass a ``search_alg`` or a ``space`` (then a default
    :class:`SurrogateSearch` with Extra-Trees and LHS initialization is
    built, matching the paper's Listing 1 configuration). ``batch_size``
    and ``refit_every`` tune the default searcher's suggest hot path:
    batched asks amortize one surrogate fit over several suggestions, and
    refits are throttled to every ``refit_every`` fresh observations.
    ``incremental`` / ``background_refit`` take the remaining full refits
    off the ask path entirely (see :class:`repro.bayesopt.Optimizer`; both
    trade bit-exact reproducibility for a flat suggest tail). ``backend_options``
    parameterizes the execution backend (e.g. the ``"store"`` executor's
    ``store_dir``).
    """
    if search_alg is None:
        if space is None:
            raise ValidationError("pass either search_alg or space")
        search_alg = SurrogateSearch(
            space,
            mode=mode,
            base_estimator="ET",
            initial_point_generator="lhs",
            acq_func="gp_hedge",
            n_initial_points=max(1, min(10, num_samples // 2)),
            random_state=seed,
            batch_size=batch_size,
            refit_every=refit_every,
            incremental=incremental,
            background_refit=background_refit,
        )
    runner = TrialRunner(
        trainable,
        search_alg,
        metric=metric,
        mode=mode,
        scheduler=scheduler,
        num_samples=num_samples,
        executor=executor,
        max_workers=max_workers,
        name=name,
        log_dir=log_dir,
        backend_options=backend_options,
    )
    return runner.run()
