"""Trial-execution backends for the :class:`TrialRunner`.

The runner's main loop is backend-agnostic: it suggests configurations,
hands trials to a backend, and folds each completed outcome back into the
trial and the search algorithm. Backends own *where* a trial executes —
every one of them runs the same attempt loop,
:func:`repro.search.execution.run_trial`, and returns its outcome dict
(the wire format documented there), adding ``queue_wait_s`` when it can
measure the submit → pickup wait:

- :class:`SyncBackend` — the loop inline in the caller thread
  (deterministic; tests, debugging).
- :class:`ThreadBackend` — the loop on a pool thread; supports schedulers
  and intermediate reporting; measures the queue wait.
- :class:`ProcessBackend` — the loop in a process-pool child; the
  trainable is registered once per worker by the pool initializer,
  submissions ship compact trial specs; measures the queue wait.
- :class:`StoreBackend` — **distributed** execution through a shared
  file-backed :class:`~repro.search.store.TrialStore`: trials are
  persisted to the campaign ledger, workers (local child processes and/or
  elastic ``python -m repro worker <run-dir>`` joiners, possibly on other
  hosts) claim them under lease+heartbeat and ledger their outcomes.

:data:`BACKENDS` maps each ``TrialRunner(executor=...)`` name to its class.
"""

from __future__ import annotations

import abc
import inspect
import os
import subprocess
import sys
import time
import warnings
from concurrent.futures import (
    FIRST_COMPLETED,
    Future,
    ProcessPoolExecutor,
    ThreadPoolExecutor,
    wait,
)
from pathlib import Path
from typing import TYPE_CHECKING, Any, Mapping

from repro.errors import TrialError, ValidationError
from repro.search.execution import failed_outcome, pool_init, process_entry, run_trial
from repro.search.store import DEFAULT_LEASE_S, TrialStore
from repro.search.trial import Trial

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.search.runner import TrialRunner

__all__ = [
    "ExecutionBackend",
    "SyncBackend",
    "ThreadBackend",
    "ProcessBackend",
    "StoreBackend",
    "BACKENDS",
]


class ExecutionBackend(abc.ABC):
    """One way of executing trials on behalf of a :class:`TrialRunner`.

    A backend is constructed per run with the owning runner, whose public
    attributes (trainable, retry/timeout knobs, ``max_workers``) it reads.
    Lifecycle::

        backend.start()
        future = backend.submit(trial)        # any number of times
        done = backend.wait_any(futures)      # blocks for >=1 completion
        outcome = backend.collect(future)     # the trial's outcome dict
        backend.shutdown(cancel=...)          # always called (finally)
    """

    #: whether trials can consult the scheduler mid-flight (thread/sync).
    supports_mid_trial_scheduling: bool = True
    #: the ``backend_options`` keys this backend accepts.
    option_keys: frozenset[str] = frozenset()

    def __init__(self, runner: "TrialRunner") -> None:
        self.runner = runner

    @classmethod
    def check_options(cls, options: Mapping[str, Any]) -> None:
        """Reject ``backend_options`` this backend cannot honour."""
        unknown = sorted(set(options) - cls.option_keys)
        if unknown:
            accepted = sorted(cls.option_keys) or "none"
            raise ValidationError(
                f"unknown backend_options {unknown} for this executor (accepted: {accepted})"
            )

    @property
    def capacity(self) -> int:
        """How many trials may be in flight (sizes the suggest batches)."""
        return self.runner.max_workers

    def start(self) -> None:
        """Acquire executor resources (pools, stores, worker processes)."""

    @abc.abstractmethod
    def submit(self, trial: Trial) -> Future:
        """Dispatch one trial; the future resolves to its outcome dict."""

    def wait_any(self, futures: set[Future]) -> set[Future]:
        """Block until at least one submitted trial completes."""
        done, _ = wait(futures, return_when=FIRST_COMPLETED)
        return done

    def collect(self, future: Future) -> dict[str, Any]:
        """The outcome of a completed future; harness failures become one."""
        try:
            outcome = future.result()
        except Exception as exc:  # noqa: BLE001 - pickling, a dead pool
            return failed_outcome(f"{type(exc).__name__}: {exc}")
        if not isinstance(outcome, dict):
            return failed_outcome("the worker recorded no structured outcome")
        return outcome

    def shutdown(self, cancel: bool = False) -> None:
        """Release resources; ``cancel`` abandons queued work."""


class _InProcessBackend(ExecutionBackend):
    """Runs the attempt loop in this process, with scheduler reporting."""

    def __init__(self, runner: "TrialRunner") -> None:
        super().__init__(runner)
        #: two-parameter trainables also receive a Reporter.
        self._on_report = runner.on_report if _takes_reporter(runner.trainable) else None

    def _run(self, trial: Trial) -> dict[str, Any]:
        runner = self.runner
        return run_trial(
            runner.trainable,
            trial.config,
            runner.max_retries,
            runner.retry_backoff_s,
            runner.trial_timeout_s,
            trial_id=trial.trial_id,
            on_report=self._on_report,
        )


def _takes_reporter(trainable: Any) -> bool:
    """Whether ``trainable`` takes a second (Reporter) parameter."""
    try:
        return len(inspect.signature(trainable).parameters) >= 2
    except (TypeError, ValueError):
        return False


class SyncBackend(_InProcessBackend):
    """Sequential in-caller execution; ``submit`` returns a done future."""

    @property
    def capacity(self) -> int:
        return 1

    def submit(self, trial: Trial) -> Future:
        future: Future = Future()
        future.set_result(self._run(trial))
        return future


class ThreadBackend(_InProcessBackend):
    """Thread-pool execution with mid-trial scheduler consultation."""

    def start(self) -> None:
        self._pool = ThreadPoolExecutor(max_workers=self.runner.max_workers)

    def submit(self, trial: Trial) -> Future:
        return self._pool.submit(self._run_queued, trial, time.perf_counter())

    def _run_queued(self, trial: Trial, submitted: float) -> dict[str, Any]:
        queue_wait_s = time.perf_counter() - submitted
        outcome = self._run(trial)
        outcome["queue_wait_s"] = queue_wait_s
        return outcome

    def shutdown(self, cancel: bool = False) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)


class ProcessBackend(ExecutionBackend):
    """Process-pool execution via the picklable :func:`process_entry`."""

    supports_mid_trial_scheduling = False

    def start(self) -> None:
        # The initializer registers the trainable once per worker, so each
        # submission ships only a compact per-trial spec. Workers join the
        # telemetry fabric whenever the parent is observing.
        runner = self.runner
        self._pool = ProcessPoolExecutor(
            max_workers=runner.max_workers,
            initializer=pool_init,
            initargs=(runner.trainable, runner.observing, runner.name),
        )

    def submit(self, trial: Trial) -> Future:
        runner = self.runner
        return self._pool.submit(
            process_entry,
            dict(trial.config),
            runner.max_retries,
            runner.retry_backoff_s,
            runner.trial_timeout_s,
            trial.trial_id,
            time.time(),  # wall clock: the only timeline workers share
        )

    def shutdown(self, cancel: bool = False) -> None:
        self._pool.shutdown(wait=True, cancel_futures=cancel)


class StoreBackend(ExecutionBackend):
    """Distributed execution through a shared file-backed trial store.

    ``TrialRunner(backend_options=...)`` knobs:

    - ``store_dir`` (required) — the store directory, shared with workers.
    - ``spawn`` — ``"mp"`` (default) forks ``local_workers`` child
      processes running :func:`repro.search.worker.run_worker` on this
      runner's trainable; ``"cli"`` launches ``python -m repro worker
      <run_dir>`` subprocesses (workers rebuild the evaluator from
      ``optimizer_conf.json``, so the trainable need not be picklable);
      ``"none"`` spawns nothing and relies on elastic external joiners.
    - ``local_workers`` — children to spawn (default ``max_workers``).
    - ``run_dir`` — campaign directory, required for ``spawn="cli"``.
    - ``lease_s`` / ``poll_s`` — worker lease duration and the parent's
      completion-poll interval.
    """

    supports_mid_trial_scheduling = False
    option_keys = frozenset({"store_dir", "spawn", "local_workers", "run_dir", "lease_s", "poll_s"})

    @classmethod
    def check_options(cls, options: Mapping[str, Any]) -> None:
        super().check_options(options)
        if options.get("store_dir") is None:
            raise ValidationError(
                "the store backend needs backend_options={'store_dir': ...}"
            )
        spawn = options.get("spawn", "mp")
        if spawn not in ("mp", "cli", "none"):
            raise ValidationError(f"unknown store spawn mode {spawn!r}")
        if spawn == "cli" and options.get("run_dir") is None:
            raise ValidationError("spawn='cli' needs backend_options={'run_dir': ...}")
        try:
            periods = [float(options[k]) for k in ("lease_s", "poll_s") if k in options]
            local_workers = int(options.get("local_workers", 0))
        except (TypeError, ValueError) as exc:
            raise ValidationError(f"bad store backend_options: {exc}") from None
        if any(not period > 0 for period in periods):
            raise ValidationError("backend_options 'lease_s' and 'poll_s' must be > 0")
        if local_workers < 0:
            raise ValidationError("backend_options 'local_workers' must be >= 0")

    def start(self) -> None:
        runner = self.runner
        options = runner.backend_options  # validated by check_options
        self.lease_s = float(options.get("lease_s", DEFAULT_LEASE_S))
        self.poll_s = float(options.get("poll_s", 0.05))
        spawn = options.get("spawn", "mp")
        local_workers = int(options.get("local_workers", runner.max_workers))
        self.store = TrialStore.create(
            options["store_dir"],
            name=runner.name,
            metric=runner.metric,
            max_retries=runner.max_retries,
            retry_backoff_s=runner.retry_backoff_s,
            trial_timeout_s=runner.trial_timeout_s,
            lease_s=self.lease_s,
            telemetry=runner.observing,
            # Each campaign session starts a fresh ledger: resume replays
            # finished trials through the checkpoint layer, and a stale
            # ``close`` event must not poison the new session's workers.
            fresh=True,
        )
        self._trial_ids: dict[Future, str] = {}
        self._procs: list[Any] = []
        self._popen: list[subprocess.Popen] = []
        self._warned_no_workers = False
        self._dead_since: float | None = None
        if spawn == "mp":
            import multiprocessing

            from repro.search.worker import _local_worker_main

            ctx = multiprocessing.get_context()
            for index in range(local_workers):
                proc = ctx.Process(
                    target=_local_worker_main,
                    args=(str(self.store.root), runner.trainable, f"{runner.name}/local{index}"),
                    daemon=True,
                )
                proc.start()
                self._procs.append(proc)
        elif spawn == "cli":
            pkg_root = str(Path(__file__).resolve().parents[2])
            env = dict(os.environ)
            env["PYTHONPATH"] = pkg_root + os.pathsep + env.get("PYTHONPATH", "")
            for index in range(local_workers):
                log = (self.store.root / f"worker-local{index}.log").open("w")
                self._popen.append(
                    subprocess.Popen(
                        [
                            sys.executable,
                            "-m",
                            "repro",
                            "worker",
                            str(options["run_dir"]),
                            "--runner-id",
                            f"{runner.name}/local{index}",
                        ],
                        stdout=log,
                        stderr=subprocess.STDOUT,
                        env=env,
                    )
                )

    def submit(self, trial: Trial) -> Future:
        self.store.add_trial(trial.trial_id, trial.config)
        future: Future = Future()
        self._trial_ids[future] = trial.trial_id
        return future

    def wait_any(self, futures: set[Future]) -> set[Future]:
        while True:
            state = self.store.snapshot()
            done: set[Future] = set()
            for future in futures:
                info = state.trials.get(self._trial_ids.get(future, ""))
                if info is not None and info.status == "done" and not future.done():
                    future.set_result(info.outcome)
                    done.add(future)
            if done:
                return done
            self._check_liveness(state)
            time.sleep(self.poll_s)

    def _check_liveness(self, state: Any) -> None:
        """Fail fast when work can no longer make progress.

        With spawned local workers: if every child exited while trials are
        unfinished and no peer holds a live lease, the campaign is stuck —
        raise instead of polling forever (a short grace period tolerates an
        elastic joiner racing in). Without spawned workers, warn once that
        the campaign is waiting for ``python -m repro worker`` joiners.
        """
        spawned = self._procs or self._popen
        liveness = self.store.worker_liveness(state=state)
        any_live = any(info["lease_state"] == "live" for info in liveness)
        if not spawned:
            if not self._warned_no_workers and not any_live:
                self._warned_no_workers = True
                warnings.warn(
                    "store backend has no local workers; waiting for "
                    "'python -m repro worker <run-dir>' processes to join",
                    RuntimeWarning,
                    stacklevel=4,
                )
            return
        alive = any(p.is_alive() for p in self._procs) or any(
            p.poll() is None for p in self._popen
        )
        if alive or any_live:
            self._dead_since = None
            return
        now = time.monotonic()
        if self._dead_since is None:
            self._dead_since = now
            return
        if now - self._dead_since > max(2.0, 2 * self.poll_s):
            unfinished = len(state.unfinished())
            raise TrialError(
                f"all local store workers exited with {unfinished} trial(s) "
                "unfinished and no live leases — see the worker logs in "
                f"{self.store.root}"
            )

    def shutdown(self, cancel: bool = False) -> None:
        self.store.close()
        deadline = time.monotonic() + max(self.lease_s, 5.0)
        for proc in self._procs:
            proc.join(timeout=max(0.1, deadline - time.monotonic()))
            if proc.is_alive():
                proc.terminate()
                proc.join(timeout=2.0)
        for proc in self._popen:
            try:
                proc.wait(timeout=max(0.1, deadline - time.monotonic()))
            except subprocess.TimeoutExpired:
                proc.terminate()
                try:
                    proc.wait(timeout=2.0)
                except subprocess.TimeoutExpired:
                    proc.kill()


#: ``TrialRunner(executor=...)`` name -> backend class.
BACKENDS: dict[str, type[ExecutionBackend]] = {
    "sync": SyncBackend,
    "thread": ThreadBackend,
    "process": ProcessBackend,
    "store": StoreBackend,
}
