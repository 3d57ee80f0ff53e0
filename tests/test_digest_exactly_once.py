"""Differential test: every hot op lands in ``perf_profile.json`` exactly once.

Small seeded campaigns run on each executor under ``obs.enable()``; the
per-op sample counts of the exported latency profile must equal the counts
an earlier implementation (which timed every op a second time, next to its
span) produced for the same campaigns. The campaigns cover retries, a trial
timeout, an evaluation-cache hit and a batched fit-bearing ask.
``tests/test_metrics_exactly_once.py`` runs the same campaigns against the
exported metrics. Every campaign also feeds a live status board from the
span stream, which must count each trial exactly once on every executor.
"""

from __future__ import annotations

import itertools
import json
import threading
from contextlib import contextmanager

import repro.observability as obs
from repro.bayesopt import Integer, Space
from repro.observability.digest import PERF_PROFILE_FILE
from repro.observability.live import StatusBoard
from repro.search import (
    RandomSearch,
    SearchAlgorithm,
    SurrogateSearch,
    TrialRunner,
    TrialStatus,
)
from repro.search.evalcache import EvalCache


def _space():
    return Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])


def _loss(config):
    return {"loss": float((config["a"] - 21) ** 2 + (config["b"] - 4) ** 2)}


def run_traced(runner, run_dir):
    """Run ``runner`` with telemetry on and export its artifacts to ``run_dir``.

    A status board subscribed to the tracer must end with every trial done,
    none running, and one error per ERROR trial.
    """
    tracer = obs.enable()
    board = StatusBoard(num_samples=runner.num_samples)
    tracer.subscribe(board.on_span)
    try:
        analysis = runner.run()
        obs.export(run_dir)
    finally:
        obs.disable()
    counts = board.snapshot()["trials"]
    assert counts["done"] == len(analysis.trials)
    assert counts["running"] == 0
    assert counts["errors"] == sum(t.status is TrialStatus.ERROR for t in analysis.trials)


def _op_counts(runner, run_dir):
    """Run ``runner`` with telemetry on; return the exported op -> count map."""
    run_traced(runner, run_dir)
    profile = json.loads((run_dir / PERF_PROFILE_FILE).read_text())
    return {op: int(entry["count"]) for op, entry in profile["ops"].items()}


class _FixedSearch(SearchAlgorithm):
    """Suggests a fixed list of configs in order (repeats hit the cache)."""

    def __init__(self, space, configs):
        super().__init__(space)
        self._configs = list(configs)

    def suggest(self, trial_id):
        return self._configs.pop(0) if self._configs else None

    def on_trial_complete(self, trial_id, config, value):
        pass


# -- the campaigns: each yields ``(runner, run_dir)`` --------------------------------


@contextmanager
def sync_campaign(tmp_path):
    search = SurrogateSearch(
        _space(), base_estimator="ET", n_initial_points=3, random_state=0
    )
    yield TrialRunner(_loss, search, metric="loss", num_samples=6, name="sync"), tmp_path


@contextmanager
def retry_campaign(tmp_path):
    release = threading.Event()
    calls = itertools.count(1)

    def flaky(config):
        call = next(calls)
        if call == 1:
            release.wait(30.0)  # hangs past the timeout, then is abandoned
        elif call == 3:
            raise RuntimeError("transient")
        return _loss(config)

    runner = TrialRunner(
        flaky,
        RandomSearch(_space(), seed=3),
        metric="loss",
        num_samples=3,
        max_retries=1,
        trial_timeout_s=0.5,
        name="retry",
    )
    try:
        yield runner, tmp_path
    finally:
        release.set()


@contextmanager
def cache_campaign(tmp_path):
    a, b, c = {"a": 1, "b": 2}, {"a": 5, "b": 5}, {"a": 9, "b": 0}
    runner = TrialRunner(
        _loss,
        _FixedSearch(_space(), [a, b, a, c]),
        metric="loss",
        num_samples=4,
        eval_cache=EvalCache(),
        name="cache",
    )
    yield runner, tmp_path


@contextmanager
def thread_campaign(tmp_path):
    # Four observations told up front: the first batched ask (three
    # slots) fits the surrogate once; refit_every=100 keeps every later
    # ask fit-free whatever order the threads finish in.
    search = SurrogateSearch(
        _space(),
        base_estimator="ET",
        n_initial_points=3,
        refit_every=100,
        random_state=0,
    )
    for k, config in enumerate(
        [{"a": 3, "b": 1}, {"a": 12, "b": 8}, {"a": 25, "b": 3}, {"a": 18, "b": 6}]
    ):
        search.on_trial_complete(f"seed{k}", config, _loss(config)["loss"])
    runner = TrialRunner(
        _loss,
        search,
        metric="loss",
        num_samples=6,
        executor="thread",
        max_workers=3,
        name="thread",
    )
    yield runner, tmp_path


@contextmanager
def process_campaign(tmp_path):
    runner = TrialRunner(
        _loss,
        RandomSearch(_space(), seed=5),
        metric="loss",
        num_samples=4,
        executor="process",
        max_workers=2,
        name="proc",
    )
    yield runner, tmp_path


@contextmanager
def store_campaign(tmp_path):
    runner = TrialRunner(
        _loss,
        RandomSearch(_space(), seed=9),
        metric="loss",
        num_samples=3,
        executor="store",
        max_workers=2,
        name="store",
        backend_options={"store_dir": str(tmp_path / "store"), "lease_s": 10.0},
    )
    yield runner, tmp_path / "run"


class TestDigestsExactlyOnce:
    def test_sync_surrogate_campaign(self, tmp_path):
        with sync_campaign(tmp_path) as (runner, run_dir):
            counts = _op_counts(runner, run_dir)
        assert counts == {
            "evaluate": 6,
            "refit": 3,
            "suggest": 3,
            "suggest_fit": 3,
            "tell": 6,
        }

    def test_sync_retries_and_timeout(self, tmp_path):
        with retry_campaign(tmp_path) as (runner, run_dir):
            counts = _op_counts(runner, run_dir)
        # Four attempts completed (the timed-out one never reports).
        assert counts == {"evaluate": 4, "suggest": 3, "tell": 3}

    def test_sync_evalcache_hit(self, tmp_path):
        with cache_campaign(tmp_path) as (runner, run_dir):
            counts = _op_counts(runner, run_dir)
        assert counts == {
            "evalcache_lookup": 4,
            "evaluate": 3,
            "suggest": 4,
            "tell": 4,
        }

    def test_thread_batched_fit_bearing_ask(self, tmp_path):
        with thread_campaign(tmp_path) as (runner, run_dir):
            counts = _op_counts(runner, run_dir)
        assert counts == {
            "evaluate": 6,
            "queue_wait": 6,
            "refit": 1,
            "suggest": 3,
            "suggest_fit": 1,
            "tell": 6,
        }

    def test_process_executor(self, tmp_path):
        with process_campaign(tmp_path) as (runner, run_dir):
            counts = _op_counts(runner, run_dir)
        assert counts == {
            "evaluate": 4,
            "queue_wait": 4,
            "suggest": 4,
            "tell": 4,
        }

    def test_store_executor(self, tmp_path):
        with store_campaign(tmp_path) as (runner, run_dir):
            counts = _op_counts(runner, run_dir)
        assert counts == {
            "evaluate": 3,
            "suggest": 3,
            "tell": 3,
        }
