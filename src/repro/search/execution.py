"""Worker-side trial execution primitives.

Everything a *worker* — a process-pool child, or a store-backed runner on
another host — needs to execute one trial attempt lives here, so the same
retry/timeout/taint semantics apply no matter which
:class:`~repro.search.backends.ExecutionBackend` dispatched the trial:

- :func:`normalize_result` — coerce a trainable's return value into the
  float metrics dict the parent folds into the :class:`Trial`;
- :func:`attempt_once` / :func:`process_attempts` — one attempt (with the
  per-attempt timeout isolation thread) and the retry-with-backoff loop,
  both publishing the attempt index through :mod:`repro.faults.context`;
- :func:`process_entry` — the picklable top-level entry submitted to
  process pools, returning the structured outcome payload;
- :func:`pool_init` — the pool initializer that registers the trainable
  once per worker and joins the telemetry fabric.

The **outcome payload** is the shared wire format between any worker and
the parent's :meth:`TrialRunner._fold_worker_payload`::

    {"ok": bool, "raw"/"error": ..., "retries": int, "timeouts": int,
     "tainted": bool, ["queue_wait_s": float, "evaluate_s": float,
     "telemetry": {...}]}

Store-backed workers (:mod:`repro.search.worker`) persist exactly this
payload into the trial ledger, so distributed outcomes replay through the
same parent-side folding as local process-pool results.
"""

from __future__ import annotations

import threading
import time
from typing import Any, Callable, Optional

from repro.errors import TrialError
from repro.faults.context import injection_occurred, reset_injection_flag, set_current_attempt
from repro.observability import fabric
from repro.observability.trace import get_tracer

__all__ = [
    "Trainable",
    "normalize_result",
    "attempt_once",
    "process_attempts",
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
    trainable: Trainable, config: dict[str, Any], timeout_s: float | None
) -> tuple[str, Any, bool]:
    """One attempt in a worker process.

    Returns ``(status, payload, injected)`` where status is ``"ok"`` /
    ``"error"`` / ``"timeout"`` and ``injected`` records whether a fault
    was injected into the attempt (read on the thread that ran it, since
    the marker is thread-local).
    """
    if timeout_s is None:
        reset_injection_flag()
        try:
            raw = trainable(config)
            return ("ok", raw, injection_occurred())
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            return ("error", f"{type(exc).__name__}: {exc}", injection_occurred())
        except BaseException as exc:  # SystemExit & friends: still one trial's error
            if isinstance(exc, KeyboardInterrupt):
                raise
            return ("error", f"{type(exc).__name__}: {exc}", injection_occurred())
    box: list[tuple[str, Any, bool]] = []

    def _worker() -> None:
        try:
            box.append(attempt_once(trainable, config, None))
        except BaseException as exc:  # noqa: BLE001 - keep the box non-empty
            box.append(("error", f"{type(exc).__name__}: {exc}", True))

    worker = threading.Thread(target=_worker, daemon=True)
    worker.start()
    worker.join(timeout_s)
    if worker.is_alive():
        return ("timeout", f"TrialTimeout: exceeded {timeout_s}s", True)
    if not box:
        return ("error", "trial worker exited without reporting a result", True)
    return box[0]


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
        fabric.activate_worker(runner_name)


def process_attempts(
    trainable: Trainable,
    config: dict[str, Any],
    max_retries: int,
    backoff_s: float,
    timeout_s: float | None,
) -> dict[str, Any]:
    """The worker-side retry/timeout loop shared by all process entries."""
    retries = 0
    timeouts = 0
    payload: Any = None
    injected = False
    for attempt in range(int(max_retries) + 1):
        set_current_attempt(attempt)
        status, payload, injected = attempt_once(trainable, config, timeout_s)
        if status == "ok":
            return {
                "ok": True,
                "raw": payload,
                "retries": retries,
                "timeouts": timeouts,
                "tainted": bool(injected or retries or timeouts),
            }
        if status == "timeout":
            timeouts += 1
        if attempt < max_retries:
            retries += 1
            if backoff_s > 0:
                time.sleep(backoff_s * (2**attempt))
    return {
        "ok": False,
        "error": payload,
        "retries": retries,
        "timeouts": timeouts,
        "tainted": True,
    }


def process_entry(
    trainable: Optional[Trainable],
    config: dict[str, Any],
    max_retries: int = 0,
    backoff_s: float = 0.0,
    timeout_s: float | None = None,
    trial_id: str | None = None,
    submitted_unix: float | None = None,
) -> dict[str, Any]:
    """Top-level entry for process executors (picklable).

    ``trainable=None`` uses the per-worker registration from
    :func:`pool_init`, so each submission ships only the compact trial
    spec (config + retry knobs), not a re-pickled trainable/conf object.
    The retry/timeout loop runs *inside* the worker so the parent's drain
    loop stays a plain future wait. Never raises for trainable failures —
    the structured payload carries the outcome plus retry/timeout counts
    and a ``tainted`` marker (fault injected or timed out on the final
    attempt) the evaluation cache uses to refuse admission.

    In a fabric-activated worker the payload additionally carries
    worker-measured ``queue_wait_s``/``evaluate_s`` and a ``telemetry``
    blob (spans) for the parent to merge.
    """
    if trainable is None:
        trainable = _WORKER_TRAINABLE
        if trainable is None:  # pragma: no cover - defensive
            return {"ok": False, "error": "no trainable registered in worker", "retries": 0, "timeouts": 0, "tainted": True}
    if not fabric.worker_active():
        return process_attempts(trainable, config, max_retries, backoff_s, timeout_s)
    queue_wait = 0.0
    if submitted_unix is not None:
        # Submit→pickup across the process boundary: only wall clocks are
        # shared, so the parent stamps a unix timestamp at submit time.
        queue_wait = max(0.0, time.time() - float(submitted_unix))
    start = time.perf_counter()
    with get_tracer().span("evaluate", trial_id=trial_id):
        result = process_attempts(trainable, config, max_retries, backoff_s, timeout_s)
    evaluate_s = time.perf_counter() - start
    result["queue_wait_s"] = queue_wait
    result["evaluate_s"] = evaluate_s
    result["telemetry"] = fabric.drain_worker()
    return result
