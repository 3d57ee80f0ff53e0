"""The store-backed trial worker loop (``python -m repro worker``).

A worker is the distributed counterpart of one process-pool slot: it opens
the campaign's :class:`~repro.search.store.TrialStore`, then loops
``pick_trial`` → execute → ``end_trial`` until the campaign closes (the
powerlift ``run_trials`` shape). Workers are elastic — any number can join
or leave mid-campaign, from any process or host that can see the run
directory — and crash-tolerant: a heartbeat thread renews the worker's
lease while a trial runs, so a worker that dies (even ``kill -9``) simply
stops heartbeating and its trial is reclaimed by a peer once the lease
expires.

Execution semantics are identical to the in-process executors: the same
:func:`~repro.search.execution.process_attempts` retry/timeout loop, the
same taint markers, and — when the campaign parent is observing — the same
telemetry fabric, with per-trial payloads persisted into the ledger for the
parent to merge (spans arrive stamped with this worker's ``runner_id``).
"""

from __future__ import annotations

import os
import socket
import threading
import time
from pathlib import Path
from typing import Any, Optional

from repro.observability import fabric
from repro.search.execution import Trainable, process_attempts
from repro.search.store import TrialClaim, TrialStore

__all__ = ["run_worker", "default_runner_id", "worker_trainable_from_run_dir"]


def default_runner_id(prefix: str | None = None) -> str:
    """A stable-for-this-process worker identity: ``host-pid``."""
    base = f"{socket.gethostname()}-{os.getpid()}"
    return f"{prefix}/{base}" if prefix else base


class _Heartbeat:
    """Renews one claim's lease on a background thread while a trial runs."""

    def __init__(self, store: TrialStore, claim: TrialClaim, lease_s: float) -> None:
        self._store = store
        self._claim = claim
        self._lease_s = lease_s
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._beat, name=f"heartbeat-{claim.trial_id}", daemon=True
        )
        self._thread.start()

    def _beat(self) -> None:
        # Renew well inside the lease window so one missed beat (GC pause,
        # slow filesystem) does not forfeit the claim.
        interval = max(self._lease_s / 3.0, 0.05)
        while not self._stop.wait(interval):
            try:
                self._store.heartbeat(
                    self._claim.trial_id, self._claim.runner_id, lease_s=self._lease_s
                )
            except OSError:  # pragma: no cover - fs hiccup: retry next beat
                continue

    def stop(self) -> None:
        self._stop.set()
        self._thread.join(timeout=2.0)


def run_worker(
    store: TrialStore | str | Path,
    trainable: Trainable,
    *,
    runner_id: str | None = None,
    lease_s: float | None = None,
    poll_s: float = 0.1,
    idle_timeout_s: float | None = None,
    max_trials: int | None = None,
    on_trial: Any = None,
    push: Any = None,
) -> int:
    """Process trials from ``store`` until the campaign closes.

    Returns the number of trials this worker completed. Exits when the
    store is closed and no work is claimable, after ``idle_timeout_s``
    seconds without claimable work, or after ``max_trials`` completions.
    ``on_trial(claim, outcome)`` is an optional observer hook (used by the
    CLI for progress lines). ``push`` is an optional
    :class:`~repro.observability.live.TelemetryPusher`: per-trial fabric
    payloads then stream to the campaign's live monitor *mid-campaign*
    (activating worker telemetry even when the parent is not observing);
    a failed push falls back to embedding the payload in the ledger
    outcome, so telemetry is never lost.
    """
    if not isinstance(store, TrialStore):
        store = TrialStore.open(store)
    meta = store.meta
    runner_id = runner_id or default_runner_id(str(meta.get("name", "")) or None)
    lease = float(meta.get("lease_s", 30.0) if lease_s is None else lease_s)
    max_retries = int(meta.get("max_retries", 0))
    backoff_s = float(meta.get("retry_backoff_s", 0.0))
    timeout_s = meta.get("trial_timeout_s")
    timeout_s = None if timeout_s is None else float(timeout_s)
    telemetry = bool(meta.get("telemetry", False)) or push is not None
    if telemetry:
        fabric.activate_worker(str(meta.get("name", "experiment")))
    completed = 0
    idle_since: Optional[float] = None
    while True:
        if max_trials is not None and completed >= max_trials:
            break
        claim = store.pick_trial(runner_id, lease_s=lease)
        if claim is None:
            state = store.snapshot()
            if state.closed and not state.unfinished():
                break
            if state.closed and not state.live_leases():
                # Closed with unfinished trials and nobody working on them:
                # the parent aborted mid-campaign. Nothing left to do.
                break
            now = time.monotonic()
            idle_since = now if idle_since is None else idle_since
            if idle_timeout_s is not None and now - idle_since >= idle_timeout_s:
                break
            time.sleep(poll_s)
            continue
        idle_since = None
        heartbeat = _Heartbeat(store, claim, lease)
        try:
            outcome = _execute_claim(
                trainable, claim, max_retries, backoff_s, timeout_s, telemetry, push
            )
        finally:
            heartbeat.stop()
        store.end_trial(claim.trial_id, runner_id, outcome)
        completed += 1
        if on_trial is not None:
            on_trial(claim, outcome)
    return completed


def _execute_claim(
    trainable: Trainable,
    claim: TrialClaim,
    max_retries: int,
    backoff_s: float,
    timeout_s: float | None,
    telemetry: bool,
    push: Any = None,
) -> dict[str, Any]:
    """Run one claimed trial and build its ledger outcome payload."""
    from repro.observability.trace import get_tracer

    if not (telemetry and fabric.worker_active()):
        outcome = process_attempts(
            trainable, dict(claim.config), max_retries, backoff_s, timeout_s
        )
    else:
        start = time.perf_counter()
        with get_tracer().span("evaluate", trial_id=claim.trial_id):
            outcome = process_attempts(
                trainable, dict(claim.config), max_retries, backoff_s, timeout_s
            )
        evaluate_s = time.perf_counter() - start
        outcome["evaluate_s"] = evaluate_s
        payload = fabric.drain_worker()
        pushed = False
        if push is not None and payload is not None:
            # Streamed to the live monitor: do not also embed the payload,
            # or the parent would merge every span twice at drain time.
            pushed = push.push(payload, attributes={"trial_id": claim.trial_id})
        if pushed:
            outcome["telemetry_pushed"] = True
        else:
            outcome["telemetry"] = payload
    # A reclaimed trial's measurement may overlap a zombie twin still
    # running elsewhere; flag it so the evaluation cache refuses admission.
    if claim.prior_claims:
        outcome["tainted"] = True
        outcome["reclaimed"] = claim.prior_claims
    return outcome


def _local_worker_main(
    store_root: str, trainable: Trainable, runner_id: str, poll_s: float = 0.05
) -> None:
    """Child-process target for the store backend's ``spawn="mp"`` workers."""
    run_worker(store_root, trainable, runner_id=runner_id, poll_s=poll_s)


def worker_trainable_from_run_dir(run_dir: str | Path) -> Trainable:
    """Rebuild a campaign's evaluation callable from its run directory.

    Mirrors what ``python -m repro optimize`` wires up for the parent: the
    ``optimizer_conf.json`` saved next to the artifacts defines the
    Pl@ntNet scenario (duration, seed), the fault injector, and the
    objective scalarization — so a worker on another host evaluates
    configurations *identically* to an in-process executor slot.
    """
    from repro.optimizer import OptimizerConf
    from repro.optimizer.optimization import SCALAR_METRIC
    from repro.plantnet import PlantNetScenario

    run_dir = Path(run_dir)
    conf_path = run_dir / "optimizer_conf.json"
    if not conf_path.exists():
        raise FileNotFoundError(
            f"{conf_path} not found — store-backed workers rebuild the "
            "evaluator from the conf the campaign parent saved there"
        )
    conf = OptimizerConf.from_json(conf_path)
    scenario = PlantNetScenario(duration=conf.duration or 300.0, base_seed=conf.seed or 0)
    problem = conf.build_problem()

    def evaluator(config: dict[str, Any], **kwargs: Any) -> dict[str, float]:
        return scenario.evaluate(config, **kwargs)

    injector = conf.build_fault_injector()
    evaluate = injector.wrap(evaluator) if injector is not None else evaluator

    def trainable(config: dict[str, Any]) -> dict[str, float]:
        metrics = dict(evaluate(dict(config)))
        metrics[SCALAR_METRIC] = problem.scalarize(metrics)
        return metrics

    return trainable
