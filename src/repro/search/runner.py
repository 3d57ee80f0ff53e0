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

The runner's main loop is backend-agnostic — suggest, submit, wait, fold —
and every backend reports through the same observability spine (trial
spans, queue-wait/evaluate costs, fabric telemetry merge), so analyses are
comparable across executors.
"""

from __future__ import annotations

import threading
import time
from concurrent.futures import Future
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

from repro.bayesopt.space import Space
from repro.errors import TrialError, ValidationError
from repro.faults.context import injection_occurred, reset_injection_flag, set_current_attempt
from repro.observability import fabric
from repro.observability.metrics import get_registry
from repro.observability.profile import CostBreakdown, aggregate_costs
from repro.observability.trace import Tracer, get_tracer
from repro.search.algos import SearchAlgorithm, SurrogateSearch
from repro.search.backends import backend_class, create_backend
from repro.search.evalcache import EvalCache

# Worker-side primitives live in repro.search.execution; the historic
# underscore names stay importable from here for callers and tests.
from repro.search.execution import (
    Trainable,
    attempt_once as _attempt_once,  # noqa: F401 - re-export
    normalize_result as _normalize_result,
    pool_init as _pool_init,  # noqa: F401 - re-export
    process_attempts as _process_attempts,  # noqa: F401 - re-export
    process_entry as _process_entry,  # noqa: F401 - re-export
)
from repro.search.schedulers import FIFOScheduler, TrialDecision, TrialScheduler
from repro.search.trial import Reporter, StopTrial, Trial, TrialStatus

__all__ = ["TrialRunner", "ExperimentAnalysis", "run"]

#: persistence callback: receives the finished trial records and the
#: searcher's ``state_dict()`` (refit cadence, hedge gains) so ``--resume``
#: restores the optimization cadence, not just the observations.
Checkpointer = Callable[[list[dict[str, Any]], Optional[dict[str, Any]]], Any]


def _takes_reporter(trainable: Trainable) -> bool:
    """Whether ``trainable`` takes a second (:class:`Reporter`) parameter."""
    import inspect

    try:
        return len(inspect.signature(trainable).parameters) >= 2
    except (TypeError, ValueError):
        return False


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
        tracer: Tracer | None = None,
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
        backend_cls = backend_class(executor)  # raises for unknown executors
        if max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if retry_backoff_s < 0:
            raise ValidationError("retry_backoff_s must be >= 0")
        if trial_timeout_s is not None and trial_timeout_s <= 0:
            raise ValidationError("trial_timeout_s must be > 0")
        if checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        self.trainable = trainable
        #: two-parameter trainables also receive a :class:`Reporter`.
        self._wants_reporter = _takes_reporter(trainable)
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
        #: explicit tracer, or ``None`` to follow the process-global one
        #: installed when :meth:`run` starts.
        self._explicit_tracer = tracer
        self._tracer = tracer if tracer is not None else get_tracer()
        #: the live status board (resolved lazily in run(); inert by default,
        #: so the hooks cost one attribute check when nothing serves).
        self._board: Any = None
        #: open per-trial spans, for cross-thread parenting (trial_id → Span).
        self._trial_spans: dict[str, Any] = {}
        self._lock = threading.Lock()
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

    def _observing(self) -> bool:
        """Whether any telemetry consumer is active (workers should join)."""
        return bool(self._tracer.enabled or get_registry().enabled)

    # -- observability hooks ---------------------------------------------------------

    def _ask(self, trial_ids: list[str]) -> tuple[list[dict[str, Any]], float, bool]:
        """Time one ask; returns the configs, the per-config cost, and
        whether the ask blocked on an inline surrogate fit."""
        fits_before = self.search_alg.fit_count()
        start = time.perf_counter()
        if len(trial_ids) == 1:
            config = self.search_alg.suggest(trial_ids[0])
            configs = [] if config is None else [config]
        else:
            configs = self.search_alg.suggest_batch(trial_ids)
        elapsed = time.perf_counter() - start
        fit = self.search_alg.fit_count() > fits_before
        return configs, elapsed / len(configs) if configs else elapsed, fit

    def _open_trial(self, trial: Trial, suggest_s: float, *, fit: bool, batch: int) -> None:
        """Record the suggest cost; open the trial span if tracing.

        The suggest child span carries ``fit`` and ``batch`` (the ask's size
        on its first trial, 0 on the rest) so the latency digests keep
        fit-bearing asks apart from the amortized per-candidate hot path.
        """
        trial.cost["suggest_s"] = suggest_s
        tracer = self._tracer
        if not tracer.enabled:
            return
        now = tracer.clock()
        span = tracer.start_span(
            f"trial:{trial.trial_id}", start=now - suggest_s, trial_id=trial.trial_id
        )
        with self._lock:
            self._trial_spans[trial.trial_id] = span
        self._child_span(trial, "suggest", suggest_s, end=now, fit=fit, batch=batch)

    def _close_trial(self, trial: Trial) -> None:
        tracer = self._tracer
        if not tracer.enabled:
            return
        with self._lock:
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
        finish (and stream to subscribers and the latency digests) before
        their trial parent, so each carries the trial identity itself, plus
        the ``attributes`` the digest table reads (``fit``/``batch`` on
        suggest, ``cache_hit``/``status`` on execute).
        """
        tracer = self._tracer
        if not tracer.enabled:
            return
        with self._lock:
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

    # -- single-trial execution -----------------------------------------------------

    def _execute_inline(self, trial: Trial, attempt: int = 0) -> None:
        reporter = Reporter(trial, self._on_report, self._lock)
        set_current_attempt(attempt)
        reset_injection_flag()
        start = time.perf_counter()
        trial.status = TrialStatus.RUNNING
        try:
            if self._wants_reporter:
                raw = self.trainable(dict(trial.config), reporter)
            else:
                raw = self.trainable(dict(trial.config))
            trial.result = _normalize_result(raw, self.metric)
            trial.status = TrialStatus.TERMINATED
        except StopTrial:
            # Early-stopped: score with the last intermediate value.
            last = trial.intermediate[-1][1] if trial.intermediate else float("nan")
            trial.result = {self.metric: last}
            trial.status = TrialStatus.STOPPED
        except Exception as exc:  # noqa: BLE001 - recorded on the trial
            trial.error = f"{type(exc).__name__}: {exc}"
            trial.status = TrialStatus.ERROR
        if injection_occurred():
            # Read here, on the thread that ran the attempt (thread-local
            # flag); the cache refuses results carrying this marker.
            trial.cost["fault_injected"] = 1.0
        trial.runtime_s = time.perf_counter() - start
        trial.cost["evaluate_s"] = trial.runtime_s
        self._child_span(
            trial, "execute", trial.runtime_s, error=trial.error, status=trial.status.value
        )

    def _run_attempt(self, scratch: Trial, attempt: int) -> bool:
        """Run one attempt; ``False`` means it hit the per-trial timeout.

        With a timeout configured the attempt runs on its own daemon thread
        against a *scratch* trial; on timeout the thread is abandoned (Python
        cannot preempt it) but only ever mutates the scratch object, so the
        real trial stays consistent for the retry.
        """
        if self.trial_timeout_s is None:
            self._execute_inline(scratch, attempt)
            return True
        worker = threading.Thread(
            target=self._execute_inline,
            args=(scratch, attempt),
            name=f"trial-{scratch.trial_id}-attempt{attempt}",
            daemon=True,
        )
        worker.start()
        worker.join(self.trial_timeout_s)
        return not worker.is_alive()

    def _execute_with_retry(self, trial: Trial) -> None:
        """Execute a trial with per-attempt timeout and retry-with-backoff.

        A failed or hung attempt is retried up to ``max_retries`` times; the
        attempt index is published through :mod:`repro.faults.context` so
        stochastic components (fault injectors, seeded evaluators) draw a
        fresh stream per attempt. Retry/timeout counts are recorded on
        ``trial.cost`` and exported through the metrics registry.
        """
        if self.max_retries == 0 and self.trial_timeout_s is None:
            self._execute_inline(trial)
            return
        trial.status = TrialStatus.RUNNING
        retries = 0
        timeouts = 0
        total_runtime = 0.0
        attempts = self.max_retries + 1
        for attempt in range(attempts):
            scratch = Trial(trial_id=trial.trial_id, config=dict(trial.config))
            completed = self._run_attempt(scratch, attempt)
            with self._lock:
                trial.intermediate = list(scratch.intermediate)
            if completed:
                trial.result = scratch.result
                trial.error = scratch.error
                trial.status = scratch.status
                total_runtime += scratch.runtime_s
                # Mirror the final attempt's injected-fault marker.
                if scratch.cost.get("fault_injected"):
                    trial.cost["fault_injected"] = 1.0
                else:
                    trial.cost.pop("fault_injected", None)
            else:
                timeouts += 1
                trial.result = {}
                trial.error = (
                    f"TrialTimeout: attempt {attempt + 1} exceeded {self.trial_timeout_s}s"
                )
                trial.status = TrialStatus.ERROR
                total_runtime += self.trial_timeout_s or 0.0
                self._child_span(
                    trial,
                    "execute",
                    self.trial_timeout_s or 0.0,
                    error=trial.error,
                    status="timeout",
                )
            if trial.status in (TrialStatus.TERMINATED, TrialStatus.STOPPED):
                break
            if attempt < attempts - 1:
                retries += 1
                if self.retry_backoff_s > 0:
                    time.sleep(self.retry_backoff_s * (2**attempt))
        trial.runtime_s = total_runtime
        trial.cost["evaluate_s"] = total_runtime
        if retries:
            trial.cost["retries"] = float(retries)
        if timeouts:
            trial.cost["timeouts"] = float(timeouts)
        self._count_fault_metrics(retries, timeouts)

    def _count_fault_metrics(self, retries: int, timeouts: int) -> None:
        registry = get_registry()
        if not registry.enabled or not (retries or timeouts):
            return
        if retries:
            registry.counter(
                "repro_trial_retries_total", "trial attempts retried after failure or timeout"
            ).inc(retries)
        if timeouts:
            registry.counter(
                "repro_trial_timeouts_total", "trial attempts that hit the per-trial timeout"
            ).inc(timeouts)

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
        cost = trial.cost
        tainted = bool(
            cost.get("retries") or cost.get("timeouts") or cost.get("fault_injected")
        )
        self.eval_cache.store(trial.config, trial.result, tainted=tainted)

    def _on_report(self, trial: Trial, step: int, value: float) -> bool:
        with self._scheduler_lock:
            decision = self.scheduler.on_result(trial, step, value)
        return decision is TrialDecision.CONTINUE

    def _log_trial(self, trial: Trial) -> None:
        """Append the finished trial as one JSON line (Tune-style log)."""
        if self._log_path is None:
            return
        import json

        with self._lock:
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
            if self._board is not None and self._board.enabled:
                value = trial.result.get(self.metric) if trial.result else None
                self._board.trial_finished(
                    trial.trial_id,
                    value=value if isinstance(value, (int, float)) else None,
                    status=getattr(trial.status, "value", str(trial.status)),
                )

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
        from repro.observability.live import get_status_board

        self._board = get_status_board()
        if self._explicit_tracer is None:
            self._tracer = get_tracer()
        start = time.perf_counter()
        trials: list[Trial] = []
        created = self._replay_resumed(trials)
        backend = create_backend(self.executor_kind, self)
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
                    configs, suggest_s, fit = self._ask(ids)
                    if not configs:
                        if not futures:
                            exhausted = True  # nothing pending → truly done
                        break
                    for k, config in enumerate(configs):
                        trial = Trial(trial_id=f"{self.name}_{created:05d}", config=config)
                        self._open_trial(
                            trial, suggest_s, fit=fit, batch=0 if k else len(configs)
                        )
                        trials.append(trial)
                        created += 1
                        if self._cache_lookup(trial):
                            # Completed without occupying an executor
                            # slot; tell the searcher right away.
                            self._after_trial(trial)
                        else:
                            if self._board is not None and self._board.enabled:
                                self._board.trial_started(trial.trial_id)
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
                    backend.collect(future, trial)
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

    def _run_threaded(self, trial: Trial) -> None:
        """Thread-pool entry: record the submit → pickup wait, then execute."""
        if trial._submitted is not None:
            wait_s = time.perf_counter() - trial._submitted
            trial.cost["queue_wait_s"] = wait_s
            self._child_span(trial, "queue-wait", wait_s)
        self._execute_with_retry(trial)

    def _fold_worker_payload(self, trial: Trial, payload: Any) -> None:
        """Fold a worker's structured outcome payload into ``trial``.

        The payload is the shared wire format documented in
        :mod:`repro.search.execution` — produced identically by process-pool
        workers and store-backed distributed workers, so both backends share
        this one folding path (status, retry/timeout/taint markers, the
        parent-clamped cost split, and the fabric telemetry merge).
        ``payload=None`` means a harness-level failure already recorded on
        the trial by the backend; only the wall-clock accounting runs.
        """
        if isinstance(payload, dict):
            retries = int(payload.get("retries", 0))
            timeouts = int(payload.get("timeouts", 0))
            if retries:
                trial.cost["retries"] = float(retries)
            if timeouts:
                trial.cost["timeouts"] = float(timeouts)
            if payload.get("tainted"):
                trial.cost["fault_injected"] = 1.0
            if payload.get("reclaimed"):
                # The trial was reclaimed from a dead worker's expired lease;
                # the count is provenance (and the taint marker above keeps
                # the measurement out of the evaluation cache).
                trial.cost["reclaimed"] = float(payload["reclaimed"])
            self._count_fault_metrics(retries, timeouts)
            if payload.get("ok"):
                try:
                    trial.result = _normalize_result(payload["raw"], self.metric)
                    trial.status = TrialStatus.TERMINATED
                except Exception as exc:  # noqa: BLE001 - recorded on the trial
                    trial.error = f"{type(exc).__name__}: {exc}"
                    trial.status = TrialStatus.ERROR
            else:
                trial.error = str(payload.get("error") or "trial failed")
                trial.status = TrialStatus.ERROR
        wall = time.perf_counter() - (trial._start or time.perf_counter())
        trial.runtime_s = wall
        worker = payload if isinstance(payload, dict) and "evaluate_s" in payload else None
        if worker is not None:
            # A fabric worker measured the split itself: clamp both pieces to
            # the parent-observed wall (clock skew must not inflate costs).
            evaluate_s = min(max(float(worker["evaluate_s"]), 0.0), wall)
            queue_wait_s = min(
                max(float(worker.get("queue_wait_s", 0.0)), 0.0),
                max(wall - evaluate_s, 0.0),
            )
            if queue_wait_s > 0:
                trial.cost["queue_wait_s"] = queue_wait_s
                # The wait happened at the *start* of the submit→collect wall.
                self._child_span(
                    trial,
                    "queue-wait",
                    queue_wait_s,
                    end=self._tracer.clock() - wall + queue_wait_s,
                )
        else:
            # Pre-fabric fallback: only the submit→collect wall is
            # observable, queue wait included.
            evaluate_s = wall
        trial.cost["evaluate_s"] = evaluate_s
        self._child_span(
            trial, "execute", evaluate_s, error=trial.error, status=trial.status.value
        )
        telemetry = payload.get("telemetry") if isinstance(payload, dict) else None
        if telemetry is not None:
            with self._lock:
                trial_span = self._trial_spans.get(trial.trial_id)
            fabric.merge_payload(
                telemetry, parent=trial_span, attributes={"trial_id": trial.trial_id}
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
