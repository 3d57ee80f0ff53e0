"""Differential test: a trial's record does not depend on the executor.

The same seeded random-search campaign runs on the sync, thread, process
and store executors. Its trainable fails by attempt index (so retries
decide the outcome), one configuration calls ``sys.exit`` and, in the
timeout case, the first attempt of some configurations hangs past the
per-attempt timeout. Every executor must produce the same trial ids,
configs, statuses, results, errors, retry/timeout counts and incumbent.
"""

from __future__ import annotations

import sys
import time

import pytest

import repro.observability as obs
from repro.bayesopt import Integer, Space
from repro.faults.context import current_attempt
from repro.search import RandomSearch, TrialRunner, TrialStatus

EXECUTORS = ("sync", "thread", "process", "store")


def _space():
    return Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])


def _by_attempt(config):
    """Fails its first ``a % 4`` attempts; ``b == 0`` exits the interpreter."""
    a, b = config["a"], config["b"]
    if b == 0:
        sys.exit(2)
    if current_attempt() < a % 4:
        raise RuntimeError(f"a={a} failed attempt {current_attempt()}")
    return {"loss": float((a - 21) ** 2 + (b - 4) ** 2)}


def _by_attempt_with_hang(config):
    """:func:`_by_attempt`, whose first attempt hangs when ``b == 10``."""
    if config["b"] == 10 and current_attempt() == 0:
        time.sleep(1.5)
    return _by_attempt(config)


def _campaign(executor, seed, tmp_path, trainable=_by_attempt, timeout_s=None):
    options = None
    if executor == "store":
        options = {"store_dir": str(tmp_path / f"store-{seed}"), "lease_s": 10.0}
    runner = TrialRunner(
        trainable,
        RandomSearch(_space(), seed=seed),
        metric="loss",
        num_samples=6,
        executor=executor,
        max_workers=2,
        max_retries=2,
        trial_timeout_s=timeout_s,
        name=f"parity{seed}",
        backend_options=options,
    )
    return runner.run()


def _record(analysis):
    trials = [
        (
            t.trial_id,
            t.config,
            t.status.value,
            t.result,
            t.error,
            t.cost.get("retries", 0.0),
            t.cost.get("timeouts", 0.0),
        )
        for t in analysis.trials
    ]
    return trials, analysis.best_config, analysis.best_result


def _assert_parity(records):
    baseline = records["sync"]
    for executor in EXECUTORS[1:]:
        assert records[executor] == baseline, executor


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_executors_agree_on_every_trial(seed, tmp_path):
    records = {ex: _record(_campaign(ex, seed, tmp_path)) for ex in EXECUTORS}
    _assert_parity(records)
    trials = records["sync"][0]
    statuses = {status for _, _, status, *_ in trials}
    assert statuses == {"terminated", "error"}
    assert any("SystemExit: 2" in (error or "") for *_, error, _, _ in trials)
    assert any(retries for *_, retries, _ in trials)


def test_executors_agree_with_timed_out_attempts(tmp_path):
    records = {
        ex: _record(_campaign(ex, 0, tmp_path, _by_attempt_with_hang, timeout_s=0.5))
        for ex in EXECUTORS
    }
    _assert_parity(records)
    trials = records["sync"][0]
    assert sum(timeouts for *_, timeouts in trials) == 2
    # The retry after a timeout runs as attempt 1, in every executor.
    assert all(
        status == "terminated" for _, config, status, *_ in trials if config == {"a": 25, "b": 10}
    )


def _loss(config):
    return {"loss": float(config["a"])}


def test_process_cost_keys_do_not_depend_on_telemetry():
    def trials(telemetry):
        if telemetry:
            obs.enable()
        try:
            return TrialRunner(
                _loss,
                RandomSearch(_space(), seed=4),
                metric="loss",
                num_samples=3,
                executor="process",
                max_workers=2,
            ).run().trials
        finally:
            if telemetry:
                obs.disable()

    on, off = trials(telemetry=True), trials(telemetry=False)
    expected = [["evaluate_s", "queue_wait_s", "suggest_s", "tell_s"]] * 3
    assert [sorted(t.cost) for t in on] == expected
    assert [sorted(t.cost) for t in off] == expected
    for trial in on + off:
        # Worker-measured: the attempt loop only, never the queue wait.
        assert 0.0 <= trial.cost["evaluate_s"] == trial.runtime_s


def _sleeps(config):
    time.sleep(0.5)
    return {"loss": 1.0}


def test_timed_out_attempt_posts_no_late_span():
    """An abandoned attempt finishing after the campaign emits nothing."""
    tracer = obs.enable()
    try:
        TrialRunner(
            _sleeps,
            RandomSearch(_space(), seed=0),
            metric="loss",
            num_samples=1,
            trial_timeout_s=0.2,
        ).run()

        def executes():
            return [s for s in tracer.finished() if s.name == "execute"]

        assert [s.attributes["status"] for s in executes()] == ["timeout"]
        time.sleep(0.6)  # the abandoned attempt has returned by now
        assert [s.attributes["status"] for s in executes()] == ["timeout"]
        evaluate = tracer.perf.ops().get("evaluate")
        assert evaluate is None or evaluate.count == 0
    finally:
        obs.disable()
