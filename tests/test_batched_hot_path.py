"""Tests for the fast ask/tell hot path through the search layer.

Covers batched suggestions (SurrogateSearch / ConcurrencyLimiter /
TrialRunner slot-filling), the structured worker error path, and the cost
profile picking up the new suggest/tell latencies.
"""

import sys

import pytest

from repro.bayesopt import Integer, Optimizer, Real, Space
from repro.search import run
from repro.search.algos import ConcurrencyLimiter, GridSearch, RandomSearch, SurrogateSearch
from repro.search.execution import attempt_once as _attempt_once
from repro.search.runner import TrialRunner
from repro.search.trial import TrialStatus


def _space():
    return Space([Real(0.0, 1.0, name="a"), Real(0.0, 1.0, name="b")])


def _objective(config):
    return (config["a"] - 0.25) ** 2 + (config["b"] - 0.5) ** 2


class TestSuggestBatch:
    def test_surrogate_search_batch_shares_one_ask(self):
        space = _space()
        search = SurrogateSearch(space, n_initial_points=2, random_state=0,
                                 acq_n_candidates=100)
        configs = search.suggest_batch([f"t{i}" for i in range(5)])
        assert len(configs) == 5
        assert len(search.optimizer._pending) == 5
        keys = {tuple(round(c[n], 9) for n in space.names) for c in configs}
        assert len(keys) == 5

    def test_prefetch_queue_feeds_single_suggests(self):
        space = _space()
        search = SurrogateSearch(space, batch_size=4, n_initial_points=2,
                                 random_state=0, acq_n_candidates=100)
        first = search.suggest("t0")
        assert first is not None
        assert len(search._prefetched) == 3
        assert len(search.optimizer._pending) == 4
        for i in range(3):
            assert search.suggest(f"t{i + 1}") is not None
        assert not search._prefetched

    def test_default_batch_falls_back_to_suggest_loop(self):
        space = _space()
        search = RandomSearch(space, seed=0)
        configs = search.suggest_batch(["a", "b", "c"])
        assert len(configs) == 3

    def test_grid_batch_stops_at_exhaustion(self):
        space = Space([Integer(0, 4, name="k"), Real(0.0, 1.0, name="x")])
        search = GridSearch(space, {"k": [0, 1], "x": [0.5]})
        configs = search.suggest_batch([f"t{i}" for i in range(5)])
        assert len(configs) == 2
        assert search.suggest_batch(["t9"]) == []

    def test_limiter_caps_batches_and_frees_on_complete(self):
        space = _space()
        limited = ConcurrencyLimiter(
            SurrogateSearch(space, n_initial_points=2, random_state=0,
                            acq_n_candidates=100),
            max_concurrent=3,
        )
        configs = limited.suggest_batch([f"t{i}" for i in range(6)])
        assert len(configs) == 3
        assert limited.suggest_batch(["t6"]) == []
        limited.on_trial_complete("t0", configs[0], 1.0)
        assert len(limited.suggest_batch(["t7", "t8"])) == 1
        limited.on_trial_complete("t1", configs[1], 1.0)
        limited.on_trial_complete("t2", configs[2], 1.0)
        assert len(limited.suggest_batch(["t9", "t10"])) == 2


class TestRunnerBatching:
    def test_thread_executor_fills_slots_from_one_batch(self):
        space = _space()
        analysis = run(
            _objective,
            space=space,
            metric="loss",
            num_samples=12,
            executor="thread",
            max_workers=4,
            seed=0,
            name="batched",
        )
        assert len(analysis.trials) == 12
        assert all(t.status is TrialStatus.TERMINATED for t in analysis.trials)
        assert analysis.best_result < 0.5
        assert all("suggest_s" in t.cost for t in analysis.trials)

    def test_batched_campaign_with_limiter_completes(self):
        space = _space()
        search = ConcurrencyLimiter(
            SurrogateSearch(space, n_initial_points=3, random_state=1,
                            acq_n_candidates=100),
            max_concurrent=2,
        )
        runner = TrialRunner(
            _objective, search, metric="loss", num_samples=8,
            executor="thread", max_workers=4, name="limited",
        )
        analysis = runner.run()
        assert len(analysis.trials) == 8
        assert not search._outstanding

    def test_sync_runner_with_prefetching_search(self):
        space = _space()
        search = SurrogateSearch(space, batch_size=4, n_initial_points=3,
                                 random_state=0, acq_n_candidates=100)
        analysis = run(
            _objective, space=space, metric="loss", num_samples=10,
            search_alg=search, name="prefetch",
        )
        assert len(analysis.trials) == 10
        assert analysis.best_result < 0.5

    def test_run_facade_batch_knobs(self):
        analysis = run(
            _objective, space=_space(), metric="loss", num_samples=10,
            executor="thread", max_workers=4, seed=2, batch_size=4,
            refit_every=4, name="knobs",
        )
        assert len(analysis.trials) == 10

    def test_cost_profile_reflects_suggest_and_tell(self):
        analysis = run(
            _objective, space=_space(), metric="loss", num_samples=8,
            seed=0, name="costs",
        )
        profile = analysis.cost_profile()
        assert profile.trials == 8
        assert profile.suggest_s > 0.0
        assert profile.tell_s > 0.0
        assert profile.evaluate_s >= 0.0

    def test_cost_profile_after_resume_and_batched_tells(self):
        """Hedge gains and per-trial costs survive a resume-style replay."""
        space = _space()
        search = SurrogateSearch(space, n_initial_points=2, random_state=0,
                                 acq_n_candidates=100)
        # Replay two finished trials into the searcher (resume semantics:
        # told but never suggested) — gains must stay untouched.
        search.on_trial_complete("old_0", {"a": 0.1, "b": 0.2}, 0.9)
        search.on_trial_complete("old_1", {"a": 0.9, "b": 0.8}, 0.7)
        assert float(search.optimizer._gains.sum()) == 0.0
        analysis = run(
            _objective, space=space, metric="loss", num_samples=6,
            search_alg=search, name="resumed",
        )
        assert len(analysis.trials) == 6
        assert len(search.optimizer.yi) == 8  # 2 replayed + 6 fresh
        assert analysis.cost_profile().suggest_s > 0.0


def _raises_system_exit(config):
    sys.exit(3)


def _raises_value_error(config):
    raise ValueError("boom")


class TestAttemptOnce:
    def test_base_exception_becomes_structured_error(self):
        status, payload, _injected = _attempt_once(_raises_system_exit, {}, None)
        assert status == "error"
        assert "SystemExit" in payload

    def test_base_exception_in_timeout_thread(self):
        """Regression: SystemExit in the worker thread left the box empty
        and crashed the pool worker with IndexError."""
        status, payload, _injected = _attempt_once(_raises_system_exit, {}, 5.0)
        assert status == "error"
        assert "SystemExit" in payload

    def test_ordinary_error_with_timeout(self):
        status, payload, _injected = _attempt_once(_raises_value_error, {}, 5.0)
        assert status == "error"
        assert "ValueError: boom" in payload

    def test_ok_path_with_timeout(self):
        status, payload, injected = _attempt_once(lambda c: {"loss": 1.0}, {}, 5.0)
        assert status == "ok"
        assert payload == {"loss": 1.0}
        assert injected is False

    def test_trial_with_system_exit_is_an_error_not_a_crash(self):
        analysis = run(
            _raises_system_exit, space=_space(), metric="loss",
            num_samples=2, executor="process", max_workers=2, seed=0,
            name="sysexit",
        )
        assert all(t.status is TrialStatus.ERROR for t in analysis.trials)
        assert all("SystemExit" in (t.error or "") for t in analysis.trials)


class TestBatchKnobValidation:
    def test_bad_batch_size_rejected(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            SurrogateSearch(_space(), batch_size=0)

    def test_prebuilt_optimizer_still_works_with_batches(self):
        space = _space()
        opt = Optimizer(space, n_initial_points=2, random_state=0,
                        acq_n_candidates=100, refit_every=4)
        search = SurrogateSearch(space, optimizer=opt)
        configs = search.suggest_batch(["a", "b", "c"])
        assert len(configs) == 3
