"""The one trial-execution loop shared by every backend.

Every :class:`~repro.search.backends.ExecutionBackend` runs a trial through
:func:`run_trial` — inline for ``sync``, on the pool thread for
``thread``, in the child for ``process`` (via :func:`process_entry`) and
in the store worker (:mod:`repro.search.worker`) — so retries, timeouts,
taint markers and the reported outcome cannot depend on the executor:

- :func:`attempt_once` — one attempt, isolated on a daemon thread when a
  timeout is set (an abandoned attempt only ever writes to its own box);
- :func:`run_trial` — the retry-with-backoff loop, publishing the attempt
  index through :mod:`repro.faults.context`; in-process callers may pass
  an ``on_report`` scheduler hook, and each attempt then reports into its
  own scratch :class:`~repro.search.trial.Trial`;
- :func:`process_entry` / :func:`pool_init` — the picklable process-pool
  entry and the initializer that registers the trainable once per worker;
- :func:`failed_outcome` — the outcome of a trial whose harness failed;
- :func:`normalize_result` — the parent's coercion of a raw result.

The **outcome** is the one wire format every backend returns and the
parent's ``TrialRunner`` folds::

    {"ok": bool, "raw": ... | "stopped": True | "error": str,
     "retries": int, "timeouts": int, "tainted": bool, "evaluate_s": float,
     "attempts": [{"status": "ok" | "stopped" | "error" | "timeout",
                   "duration_s": float, "end_s": float, ["error": str]}],
     ["queue_wait_s": float, "intermediate": [[step, value], ...],
      "telemetry": {...}]}

``evaluate_s`` is the worker-measured wall of the attempt loop, and each
attempt's ``end_s`` is its end relative to the loop's start, so the parent
places one ``execute`` span per attempt without sharing a clock with the
worker. ``queue_wait_s`` is added by the backends that can measure it
(thread, process). Store workers persist exactly this payload into the
trial ledger, plus the ``tainted`` / ``reclaimed`` markers of a reclaimed
trial.
"""

from __future__ import annotations

import os
import threading
import time
from contextlib import nullcontext
from typing import Any, Callable, Optional

from repro.errors import TrialError
from repro.faults.context import injection_occurred, reset_injection_flag, set_current_attempt
from repro.observability import fabric
from repro.observability.trace import get_tracer
from repro.search.trial import Reporter, StopTrial, Trial

__all__ = [
    "Trainable",
    "normalize_result",
    "attempt_once",
    "run_trial",
    "failed_outcome",
    "process_entry",
    "pool_init",
]

Trainable = Callable[..., Any]


def normalize_result(raw: Any, metric: str) -> dict[str, float]:
    """Coerce a trainable's return value into a float metrics dict.

    The target metric is strict (a non-numeric value is a trial error);
    auxiliary entries that do not convert to float (e.g. a ``"deployment"``
    tag string) are silently dropped rather than failing the whole trial.
    """
    if isinstance(raw, dict):
        if metric not in raw:
            raise TrialError(f"trainable result lacks metric {metric!r}: {sorted(raw)}")
        out: dict[str, float] = {metric: float(raw[metric])}
        for key, value in raw.items():
            if key == metric:
                continue
            try:
                out[key] = float(value)
            except (TypeError, ValueError):
                continue
        return out
    return {metric: float(raw)}


def attempt_once(
    trainable: Trainable,
    config: dict[str, Any],
    timeout_s: float | None,
    attempt: int = 0,
    reporter: Reporter | None = None,
) -> tuple[str, Any, bool]:
    """One attempt at one trial.

    Returns ``(status, payload, injected)``: status is ``"ok"`` (payload:
    the raw result), ``"stopped"`` (the scheduler raised
    :class:`StopTrial` through ``reporter``), ``"error"`` or ``"timeout"``
    (payload: the error text); ``injected`` records whether a fault was
    injected into the attempt, read on the thread that ran it since the
    marker is thread-local. ``SystemExit`` is one trial's error like any
    other exception; only ``KeyboardInterrupt`` propagates.
    """
    if timeout_s is None:
        set_current_attempt(attempt)
        reset_injection_flag()
        try:
            raw = trainable(config) if reporter is None else trainable(config, reporter)
            return ("ok", raw, injection_occurred())
        except StopTrial:
            return ("stopped", None, injection_occurred())
        except KeyboardInterrupt:
            raise
        except BaseException as exc:  # noqa: BLE001 - SystemExit & friends included
            return ("error", f"{type(exc).__name__}: {exc}", injection_occurred())
    box: list[tuple[str, Any, bool]] = []

    def _worker() -> None:
        try:
            box.append(attempt_once(trainable, config, None, attempt, reporter))
        except BaseException as exc:  # noqa: BLE001 - keep the box non-empty
            box.append(("error", f"{type(exc).__name__}: {exc}", True))

    worker = threading.Thread(target=_worker, name=f"trial-attempt{attempt}", daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        # Python cannot preempt the thread: it is abandoned, and whatever it
        # still does lands in a box nobody reads.
        return ("timeout", f"TrialTimeout: attempt {attempt + 1} exceeded {timeout_s}s", True)
    if not box:
        return ("error", "trial worker exited without reporting a result", True)
    return box[0]


def run_trial(
    trainable: Trainable,
    config: dict[str, Any],
    max_retries: int = 0,
    backoff_s: float = 0.0,
    timeout_s: float | None = None,
    *,
    trial_id: str = "",
    on_report: Optional[Callable[[Trial, int, float], bool]] = None,
    telemetry: bool = False,
) -> dict[str, Any]:
    """Run one trial with retries and a per-attempt timeout; return its outcome.

    A failed or hung attempt is retried up to ``max_retries`` times, after
    an exponential ``backoff_s`` pause. With ``on_report`` the trainable
    also receives a :class:`Reporter` writing into a per-attempt scratch
    trial, and the final attempt's reports travel back as
    ``intermediate``. With ``telemetry`` (an activated fabric worker) the
    loop runs under an ``evaluate`` span and the worker's drained spans
    ride along as ``telemetry``. Never raises for trainable failures.
    """
    attempts: list[dict[str, Any]] = []
    scratch: Trial | None = None
    reporter: Reporter | None = None
    span = get_tracer().span("evaluate", trial_id=trial_id) if telemetry else nullcontext()
    with span:
        start = time.perf_counter()
        for attempt in range(int(max_retries) + 1):
            if attempt and backoff_s > 0:
                time.sleep(backoff_s * 2 ** (attempt - 1))
            if on_report is not None:
                scratch = Trial(trial_id=trial_id, config=dict(config))
                reporter = Reporter(scratch, on_report)
            began = time.perf_counter()
            status, payload, injected = attempt_once(
                trainable, dict(config), timeout_s, attempt, reporter
            )
            now = time.perf_counter()
            attempts.append({"status": status, "duration_s": now - began, "end_s": now - start})
            if status in ("ok", "stopped"):
                break
            attempts[-1]["error"] = payload
        evaluate_s = time.perf_counter() - start
    ok = status in ("ok", "stopped")
    outcome: dict[str, Any] = {
        "ok": ok,
        "retries": len(attempts) - 1,
        "timeouts": sum(a["status"] == "timeout" for a in attempts),
        "tainted": bool(not ok or injected or len(attempts) > 1),
        "evaluate_s": evaluate_s,
        "attempts": attempts,
    }
    if status == "ok":
        outcome["raw"] = payload
    elif status == "stopped":
        outcome["stopped"] = True
    else:
        outcome["error"] = payload
    if scratch is not None and scratch.intermediate:
        outcome["intermediate"] = list(scratch.intermediate)
    if telemetry:
        outcome["telemetry"] = fabric.drain_worker()
    return outcome


def failed_outcome(error: str) -> dict[str, Any]:
    """The outcome of a trial whose harness failed (pool death, no ledger record)."""
    return {
        "ok": False,
        "error": error,
        "retries": 0,
        "timeouts": 0,
        "tainted": True,
        "evaluate_s": 0.0,
        "attempts": [{"status": "error", "duration_s": 0.0, "end_s": 0.0, "error": error}],
    }


#: per-worker registration installed by :func:`pool_init` — the trainable
#: is pickled once per worker process instead of once per submitted trial.
_WORKER_TRAINABLE: Optional[Trainable] = None


def pool_init(
    trainable: Trainable, telemetry: bool = False, runner_name: str = "experiment"
) -> None:
    """Process-pool initializer: register the trainable once per worker.

    With ``telemetry`` the worker also joins the cross-process fabric —
    a worker-local tracer captures every span the trainable's
    instrumentation records, shipped back per trial.
    """
    global _WORKER_TRAINABLE
    _WORKER_TRAINABLE = trainable
    if telemetry:
        fabric.activate_worker(f"{runner_name}/w{os.getpid()}")


def process_entry(
    config: dict[str, Any],
    max_retries: int,
    backoff_s: float,
    timeout_s: float | None,
    trial_id: str,
    submitted_unix: float,
) -> dict[str, Any]:
    """Top-level process-pool entry (picklable): :func:`run_trial` in the child.

    The trainable is the one :func:`pool_init` registered, so each
    submission ships only the compact trial spec. The submit → pickup wait
    is measured against the parent's ``submitted_unix`` wall-clock stamp —
    the only clock both processes share.
    """
    queue_wait_s = max(0.0, time.time() - float(submitted_unix))
    outcome = run_trial(
        _WORKER_TRAINABLE,
        config,
        max_retries,
        backoff_s,
        timeout_s,
        trial_id=trial_id,
        telemetry=fabric.worker_active(),
    )
    outcome["queue_wait_s"] = queue_wait_s
    return outcome
