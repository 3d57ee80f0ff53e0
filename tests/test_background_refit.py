"""Tests for the flat suggest tail: incremental updates, the background
refit worker, and the checkpointed refit cadence."""

import os
import threading
import time

import numpy as np
import pytest

import repro.observability as obs
from repro.bayesopt import Integer, Optimizer, Real, Space
from repro.errors import ValidationError
from repro.experiments import ExperimentArchive, ExperimentManifest
from repro.search.algos import ConcurrencyLimiter, SurrogateSearch
from repro.search.runner import TrialRunner
from repro.surrogate.forest import ExtraTreesRegressor
from repro.surrogate.gbrt import GBRTQuantile
from repro.surrogate.tree import DecisionTreeRegressor


def _space():
    return Space([Real(-5, 5, name="x"), Real(-5, 5, name="y")])


def _objective(point):
    return float(point[0] ** 2 + point[1] ** 2)


def _campaign(opt, n=40):
    values = []
    for _ in range(n):
        x = opt.ask()
        y = _objective(x)
        opt.tell(x, y)
        values.append(y)
    return values


def _training_data(seed=0, n=120):
    rng = np.random.default_rng(seed)
    X = rng.random((n, 3))
    y = X[:, 0] * 2.0 + np.sin(3 * X[:, 1]) + 0.1 * rng.standard_normal(n)
    return X, y


class TestPartialFit:
    def test_tree_leaf_means_shift(self):
        X, y = _training_data()
        tree = DecisionTreeRegressor(max_depth=4, random_state=0).fit(X, y)
        before = np.asarray(tree.predict(X[:8]))
        tree.partial_fit(X[:8], y[:8] + 5.0)
        after = np.asarray(tree.predict(X[:8]))
        assert np.isfinite(after).all()
        assert (after >= before - 1e-12).all()
        assert after.mean() > before.mean()

    def test_forest_update_preserves_structure(self):
        X, y = _training_data()
        forest = ExtraTreesRegressor(n_estimators=8, random_state=3).fit(X, y)
        nodes_before = [t.node_count for t in forest.estimators_]
        forest.partial_fit(X[:10], y[:10] + 3.0)
        assert [t.node_count for t in forest.estimators_] == nodes_before
        pred = np.asarray(forest.predict(X[:10]))
        assert np.isfinite(pred).all()

    def test_gbrt_appends_stages(self):
        X, y = _training_data()
        model = GBRTQuantile(n_estimators=20, random_state=0).fit(X, y)
        stages = [len(m.estimators_) for m in model._models]
        model.partial_fit(X[:6], y[:6])
        assert all(
            len(m.estimators_) > before
            for m, before in zip(model._models, stages)
        )
        mid, std = model.predict(X[:6], return_std=True)
        assert np.isfinite(mid).all() and np.isfinite(std).all()

    def test_unfitted_partial_fit_rejected(self):
        with pytest.raises(ValidationError):
            DecisionTreeRegressor().partial_fit([[0.0]], [1.0])


class TestIncrementalOptimizer:
    def test_incremental_suppresses_periodic_full_refits(self):
        """With partial_fit absorbing tells, full fits happen O(log n) times
        (first model + dataset doublings) instead of every refit_every."""
        base = Optimizer(_space(), n_initial_points=5, refit_every=1, random_state=11)
        inc = Optimizer(
            _space(), n_initial_points=5, refit_every=1, incremental=True, random_state=11
        )
        _campaign(base, 40)
        _campaign(inc, 40)
        assert base.n_fits > 10
        assert inc.n_fits <= 8
        assert np.isfinite(inc.result().fun)

    def test_default_path_unchanged_by_new_knobs(self):
        """background_refit=False + incremental=False is the seed behaviour:
        two runs (one naming the defaults explicitly) are byte-identical."""
        a = Optimizer(_space(), n_initial_points=5, refit_every=4, random_state=21)
        b = Optimizer(
            _space(),
            n_initial_points=5,
            refit_every=4,
            incremental=False,
            background_refit=False,
            random_state=21,
        )
        va = _campaign(a, 30)
        vb = _campaign(b, 30)
        assert va == vb
        assert a.result().fun == b.result().fun
        assert [list(p) for p in a.Xi] == [list(p) for p in b.Xi]


class TestBackgroundRefit:
    def test_background_fits_publish(self):
        opt = Optimizer(
            _space(),
            n_initial_points=5,
            refit_every=2,
            background_refit=True,
            random_state=5,
        )
        try:
            _campaign(opt, 50)
            # A short campaign can end before the first background refit
            # publishes; give the in-flight one a bounded time to land.
            deadline = time.monotonic() + 30.0
            while opt._refit_inflight and time.monotonic() < deadline:
                time.sleep(0.01)
            # Only the very first model fit may block the ask path.
            assert opt.n_fits == 1
            assert opt.n_background_fits >= 1
            assert np.isfinite(opt.result().fun)
        finally:
            opt.close()
        opt.close()  # idempotent

    def test_refits_run_in_a_child_process(self):
        opt = Optimizer(
            _space(), n_initial_points=5, refit_every=2, background_refit=True,
            random_state=5,
        )
        try:
            _campaign(opt, 12)
            process = opt._refit_process
            assert process is not None
            assert process._proc.pid != os.getpid()
            assert process._proc.poll() is None
        finally:
            opt.close()
        assert process._proc.poll() is not None  # close() stopped the child

    def test_dead_child_is_replaced(self):
        opt = Optimizer(
            _space(), n_initial_points=5, refit_every=1, background_refit=True,
            random_state=5,
        )
        try:
            _campaign(opt, 8)
            dead = opt._refit_process
            dead.kill()
            deadline = time.monotonic() + 30.0
            while opt.n_background_fits == 0 or opt._refit_process is dead:
                assert time.monotonic() < deadline, "no refit after the child died"
                _campaign(opt, 1)
                time.sleep(0.01)
            published = opt.n_background_fits
            while opt.n_background_fits == published:
                assert time.monotonic() < deadline, "the new child never published"
                _campaign(opt, 1)
                time.sleep(0.01)
            assert opt.n_fits == 1
        finally:
            opt.close()

    def test_unpicklable_surrogate_rejected(self):
        class LocalForest(ExtraTreesRegressor):
            """Defined in a function, so the child cannot import it."""

        opt = Optimizer(
            _space(), base_estimator=lambda: LocalForest(n_estimators=4),
            n_initial_points=3, refit_every=1, background_refit=True, random_state=5,
        )
        try:
            with pytest.raises(ValidationError, match="picklable"):
                _campaign(opt, 6)
        finally:
            opt.close()

    def test_concurrent_ask_tell_hammer(self):
        """Worker threads ask/tell against in-flight background refits:
        no torn model reads (every prediction path stays finite), and no
        duplicate suggestions across the whole run."""
        opt = Optimizer(
            _space(),
            n_initial_points=6,
            refit_every=1,
            background_refit=True,
            incremental=True,
            random_state=9,
        )
        errors = []
        seen = []
        seen_lock = threading.Lock()

        def worker():
            try:
                for _ in range(15):
                    x = opt.ask()
                    with seen_lock:
                        seen.append(tuple(np.round(x, 9)))
                    opt.tell(x, _objective(x))
            except Exception as exc:  # noqa: BLE001 - surfaced below
                errors.append(exc)

        threads = [threading.Thread(target=worker) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        try:
            assert not errors, errors
            assert len(seen) == 60
            assert len(set(seen)) == 60  # no duplicate suggestions
            result = opt.result()
            assert result.n_evaluations == 60
            assert np.isfinite(result.fun)
            assert np.isfinite(np.asarray(result.func_vals)).all()
        finally:
            opt.close()


class TestRefitCadenceCheckpoint:
    def test_export_state_round_trip(self):
        opt = Optimizer(_space(), n_initial_points=4, refit_every=6, random_state=2)
        _campaign(opt, 20)
        state = opt.export_state()
        replayed = Optimizer(_space(), n_initial_points=4, refit_every=6, random_state=2)
        for x, y in zip(opt.Xi, opt.yi):
            replayed.tell(x, y)
        replayed.restore_state(state)
        assert replayed.export_state() == state

    def test_restore_clamps_to_history(self):
        opt = Optimizer(_space(), n_initial_points=4, random_state=2)
        opt.tell([1.0, 1.0], 2.0)
        opt.restore_state(
            {"fit_told": 99, "full_fit_size": 99, "initial_cursor": 99}
        )
        state = opt.export_state()
        assert state["fit_told"] == 1
        assert state["full_fit_size"] == 1
        assert state["initial_cursor"] == 4

    def test_resume_keeps_cadence_and_gains(self, tmp_path):
        """The searcher state rides in checkpoint.json; a resumed campaign
        restores the refit counters and hedge gains instead of refitting
        blind (no refit storm) or replaying with amnesiac gains."""
        space = _space()
        manifest = ExperimentManifest(name="cadence", seed=1)
        archive = ExperimentArchive(tmp_path, manifest)

        def trainable(config):
            return {"score": config["x"] ** 2 + config["y"] ** 2}

        search = SurrogateSearch(
            space, mode="min", base_estimator="ET", n_initial_points=4,
            refit_every=8, random_state=1,
        )
        runner = TrialRunner(
            trainable,
            search,
            metric="score",
            num_samples=12,
            name="cadence",
            checkpoint=lambda records, state=None: archive.store_checkpoint(
                records, searcher_state=state
            ),
        )
        runner.run()
        saved = archive.load_searcher_state()
        assert saved is not None
        assert saved["optimizer"]["fit_told"] > 0
        assert saved["optimizer"] == search.optimizer.export_state()

        from repro.search.trial import Trial

        resumed = [Trial.from_dict(r) for r in archive.load_checkpoint()]
        assert len(resumed) == 12
        search2 = SurrogateSearch(
            space, mode="min", base_estimator="ET", n_initial_points=4,
            refit_every=8, random_state=1,
        )
        runner2 = TrialRunner(
            trainable,
            search2,
            metric="score",
            num_samples=16,
            name="cadence2",
            resume_trials=resumed,
            resume_searcher_state=saved,
        )
        analysis = runner2.run()
        assert len(analysis.trials) == 16
        # Replay + restore left the cadence counters where the first
        # campaign's checkpoint put them — then the four new trials moved
        # them forward; at no point did the resumed searcher refit-storm.
        assert search2.optimizer.n_fits <= 2

    def test_limiter_delegates_state(self):
        search = SurrogateSearch(
            _space(), base_estimator="ET", n_initial_points=3, random_state=0
        )
        limited = ConcurrencyLimiter(search, 2)
        assert limited.state_dict() == search.state_dict()
        assert limited.fit_count() == 0
        limited.load_state(search.state_dict())
        limited.close()


class TestSuggestDigestSplit:
    def test_suggest_and_suggest_fit_series(self):
        """Fit-bearing asks and amortized suggests land in separate digests,
        and every surrogate fit records a refit observation."""
        tracer = obs.enable()
        try:
            space = Space([Integer(0, 40, name="n"), Real(-2, 2, name="r")])
            search = SurrogateSearch(
                space, mode="min", base_estimator="ET", n_initial_points=4,
                refit_every=4, batch_size=4, random_state=0,
            )
            runner = TrialRunner(
                lambda config: {"score": config["n"] + config["r"] ** 2},
                search,
                metric="score",
                num_samples=24,
                name="digest-split",
            )
            runner.run()
            ops = tracer.perf.ops()
            assert "suggest" in ops
            assert "suggest_fit" in ops
            assert "refit" in ops
            # One suggest observation per non-fit-bearing candidate; the
            # fit-bearing asks only appear in the suggest_fit series.
            assert ops["suggest"].count + ops["suggest_fit"].count >= 1
            assert ops["refit"].count == search.optimizer.n_fits
            # The split is the point: the amortized path must be far
            # cheaper than the fit-bearing one at the median.
            if ops["suggest"].count and ops["suggest_fit"].count:
                assert ops["suggest"].quantile(0.5) < ops["suggest_fit"].quantile(0.5)
        finally:
            obs.disable()
