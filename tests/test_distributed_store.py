"""Crash-safety + distributed-execution tests (PR 7).

Covers the store-backed distributed runner (exactly-once completion,
lease-expiry reclamation of killed workers, parity with the single-process
incumbent) and the crash-safe persistence satellites (atomic checkpoints,
truncated-checkpoint resume, torn-line-free concurrent cache appends,
fabric re-activation).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
import warnings
from pathlib import Path

import pytest

from repro.bayesopt.space import Integer, Space
from repro.errors import TrialError, ValidationError
from repro.experiments import ExperimentArchive, ExperimentManifest
from repro.observability import fabric
from repro.search import RandomSearch, TrialRunner, TrialStatus, run, run_worker
from repro.search.evalcache import EvalCache
from repro.search.store import TrialStore
from repro.utils.serialization import dump_json


def make_space():
    return Space([Integer(0, 20, name="x")])


def _make_store(root, **kwargs):
    kwargs.setdefault("name", "t")
    kwargs.setdefault("metric", "loss")
    return TrialStore.create(root, **kwargs)


def _quadratic(config):
    return {"loss": (config["x"] - 7) ** 2}


def _slow_trainable(config):
    time.sleep(60.0)
    return {"loss": 0.0}


def _worker_main(store_root, runner_id, lease_s):
    run_worker(store_root, _quadratic, runner_id=runner_id, lease_s=lease_s, poll_s=0.02)


def _hung_worker_main(store_root, runner_id, lease_s):
    run_worker(
        store_root, _slow_trainable, runner_id=runner_id, lease_s=lease_s, poll_s=0.02
    )


def _cache_appender(path, fingerprint, start, count):
    cache = EvalCache(path=path, fingerprint=fingerprint)
    for k in range(start, start + count):
        cache.store({"x": k}, {"objective": float(k)})


class TestTrialStore:
    def test_lifecycle(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        store.add_trial("t1", {"x": 2})
        assert store.snapshot().counts() == {"queued": 2, "claimed": 0, "done": 0}

        claim = store.pick_trial("w1", lease_s=30.0)
        assert claim.trial_id == "t0"
        assert claim.config == {"x": 1}
        assert claim.prior_claims == 0
        store.heartbeat("t0", "w1", lease_s=30.0)
        store.end_trial("t0", "w1", {"ok": True, "raw": {"loss": 1.0}})
        state = store.snapshot()
        assert state.trials["t0"].status == "done"
        assert state.trials["t0"].completed_by == "w1"
        assert state.unfinished() == ["t1"]

    def test_no_double_claim(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        a = store.pick_trial("w1", lease_s=30.0)
        b = store.pick_trial("w2", lease_s=30.0)
        assert a is not None
        assert b is None  # one trial, one claim

    def test_lease_expiry_reclamation(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        store.pick_trial("dead", lease_s=0.05)
        time.sleep(0.1)
        claim = store.pick_trial("alive", lease_s=30.0)
        assert claim is not None
        assert claim.trial_id == "t0"
        assert claim.runner_id == "alive"
        assert claim.prior_claims == 1

    def test_heartbeat_keeps_lease_alive(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        store.pick_trial("w1", lease_s=0.15)
        time.sleep(0.08)
        store.heartbeat("t0", "w1", lease_s=0.5)
        time.sleep(0.1)  # past the original lease, inside the renewed one
        assert store.pick_trial("w2", lease_s=30.0) is None

    def test_foreign_heartbeat_and_release_ignored(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        store.pick_trial("w1", lease_s=0.2)
        store.heartbeat("t0", "intruder", lease_s=300.0)  # not the claimer
        state = store.snapshot()
        assert state.trials["t0"].lease_until < time.time() + 10
        store._append(
            {"type": "release", "trial_id": "t0", "runner_id": "intruder", "t": 0.0}
        )
        assert store.snapshot().trials["t0"].status == "claimed"

    def test_first_done_wins(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        store.pick_trial("w1", lease_s=0.01)
        time.sleep(0.05)
        store.pick_trial("w2", lease_s=30.0)  # reclaimed
        store.end_trial("t0", "w2", {"ok": True, "raw": 2.0})
        store.end_trial("t0", "w1", {"ok": True, "raw": 9.0})  # zombie finishes late
        state = store.snapshot()
        assert state.trials["t0"].outcome == {"ok": True, "raw": 2.0}
        assert state.trials["t0"].completed_by == "w2"
        assert state.duplicate_done == 1

    def test_torn_tail_line_skipped(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        with (store.root / "ledger.jsonl").open("a") as handle:
            handle.write('{"type": "trial", "trial_id": "t1", "conf')  # crash mid-write
        state = store.snapshot()
        assert list(state.trials) == ["t0"]
        assert state.torn_lines == 1

    def test_closed_store_hands_out_nothing(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 1})
        store.close()
        assert store.pick_trial("w1") is None

    def test_open_missing_store_fails(self, tmp_path):
        with pytest.raises(ValidationError):
            TrialStore.open(tmp_path / "nowhere")


class TestRunWorker:
    def test_drains_and_exits_on_close(self, tmp_path):
        store = _make_store(tmp_path / "store")
        for k in range(3):
            store.add_trial(f"t{k}", {"x": k})
        store.close()  # closed up front: a worker must still not touch queued work
        assert run_worker(store, _quadratic, poll_s=0.01) == 0

        store2 = _make_store(tmp_path / "store2")
        for k in range(3):
            store2.add_trial(f"t{k}", {"x": k})
        done = {}

        def closer(claim, outcome):
            done[claim.trial_id] = outcome
            if len(done) == 3:
                store2.close()

        completed = run_worker(store2, _quadratic, poll_s=0.01, on_trial=closer)
        assert completed == 3
        assert done["t2"]["raw"] == {"loss": 25}
        assert not done["t0"].get("tainted")

    def test_reclaimed_trial_is_tainted(self, tmp_path):
        store = _make_store(tmp_path / "store")
        store.add_trial("t0", {"x": 7})
        store.pick_trial("dead", lease_s=0.01)
        time.sleep(0.05)
        completed = run_worker(store, _quadratic, poll_s=0.01, max_trials=1)
        assert completed == 1
        outcome = store.done_records()["t0"]
        assert outcome["ok"] is True
        assert outcome["tainted"] is True
        assert outcome["reclaimed"] == 1

    def test_idle_timeout(self, tmp_path):
        store = _make_store(tmp_path / "store")
        start = time.perf_counter()
        assert run_worker(store, _quadratic, poll_s=0.01, idle_timeout_s=0.1) == 0
        assert time.perf_counter() - start < 5.0


class TestStoreBackendCampaigns:
    def test_two_workers_match_sync_incumbent(self, tmp_path):
        space = make_space()
        baseline = run(
            _quadratic,
            search_alg=RandomSearch(space, seed=11),
            metric="loss",
            num_samples=10,
            executor="sync",
            name="base",
        )
        distributed = run(
            _quadratic,
            search_alg=RandomSearch(space, seed=11),
            metric="loss",
            num_samples=10,
            executor="store",
            max_workers=2,
            name="dist",
            backend_options={"store_dir": str(tmp_path / "store"), "lease_s": 10.0},
        )
        assert len(distributed.trials) == 10
        assert all(t.status is TrialStatus.TERMINATED for t in distributed.trials)
        assert distributed.best_result == baseline.best_result
        assert distributed.best_config == baseline.best_config
        # exactly-once: every trial completed once, none duplicated.
        store = TrialStore.open(tmp_path / "store")
        state = store.snapshot()
        assert state.counts()["done"] == 10
        assert state.duplicate_done == 0

    def test_elastic_external_worker_spawn_none(self, tmp_path):
        store_dir = tmp_path / "store"
        ctx = multiprocessing.get_context()
        procs = []

        def launch_worker():
            # Elastic joiner: waits for the parent to create the store.
            deadline = time.time() + 30.0
            while not (store_dir / "store.json").exists():
                if time.time() > deadline:  # pragma: no cover - CI guard
                    raise RuntimeError("store never appeared")
                time.sleep(0.01)
            proc = ctx.Process(
                target=_worker_main, args=(str(store_dir), "elastic-1", 10.0), daemon=True
            )
            proc.start()
            procs.append(proc)

        import threading

        joiner = threading.Thread(target=launch_worker, daemon=True)
        joiner.start()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            analysis = run(
                _quadratic,
                search_alg=RandomSearch(make_space(), seed=5),
                metric="loss",
                num_samples=6,
                executor="store",
                name="elastic",
                backend_options={"store_dir": str(store_dir), "spawn": "none"},
            )
        joiner.join(timeout=30.0)
        for proc in procs:
            proc.join(timeout=30.0)
        assert len(analysis.trials) == 6
        assert all(t.status is TrialStatus.TERMINATED for t in analysis.trials)

    def test_sigkilled_worker_trial_reclaimed(self, tmp_path):
        """A kill -9'd worker stops heartbeating; a peer reclaims its trial."""
        store_dir = tmp_path / "store"
        store = _make_store(store_dir, lease_s=0.3)
        store.add_trial("t0", {"x": 7})
        ctx = multiprocessing.get_context()
        victim = ctx.Process(
            target=_hung_worker_main, args=(str(store_dir), "victim", 0.3), daemon=True
        )
        victim.start()
        deadline = time.time() + 30.0
        while not store.snapshot().trials["t0"].status == "claimed":
            assert time.time() < deadline, "victim never claimed the trial"
            time.sleep(0.02)
        victim.kill()  # SIGKILL: no cleanup, no release event
        victim.join(timeout=10.0)
        completed = run_worker(
            store, _quadratic, runner_id="rescuer", lease_s=0.3, poll_s=0.02, max_trials=1
        )
        assert completed == 1
        state = store.snapshot()
        assert state.trials["t0"].status == "done"
        assert state.trials["t0"].completed_by == "rescuer"
        outcome = state.trials["t0"].outcome
        assert outcome["raw"] == {"loss": 0}
        assert outcome["tainted"] is True  # reclaimed measurements never enter the cache

    def test_all_workers_dead_raises_instead_of_hanging(self, tmp_path):
        def impossible(config):  # workers die before this ever runs
            return {"loss": 0.0}

        runner = TrialRunner(
            impossible,
            RandomSearch(make_space(), seed=1),
            metric="loss",
            num_samples=2,
            executor="store",
            max_workers=1,
            backend_options={
                "store_dir": str(tmp_path / "store"),
                "spawn": "cli",
                "run_dir": str(tmp_path / "no-such-run-dir"),  # workers exit at startup
                "poll_s": 0.05,
            },
        )
        with pytest.raises(TrialError, match="unfinished"):
            runner.run()

    def test_store_requires_store_dir(self, tmp_path):
        runner = TrialRunner(
            _quadratic,
            RandomSearch(make_space(), seed=1),
            metric="loss",
            num_samples=1,
            executor="store",
        )
        with pytest.raises(ValidationError, match="store_dir"):
            runner.run()

    def test_unknown_executor_rejected(self):
        with pytest.raises(ValidationError, match="unknown executor"):
            TrialRunner(
                _quadratic, RandomSearch(make_space(), seed=1), metric="loss",
                executor="carrier-pigeon",
            )


class TestManagerStoreCampaign:
    def test_cli_worker_campaign_end_to_end(self, tmp_path):
        """Full stack: optimizer_conf → store backend → CLI subprocess workers.

        The workers are real ``python -m repro worker`` processes that
        rebuild the Pl@ntNet evaluator from the run directory's
        ``optimizer_conf.json`` — the same elastic entrypoint a second host
        would use.
        """
        from repro.optimizer import OptimizationManager, OptimizerConf
        from repro.plantnet import PlantNetScenario

        conf = OptimizerConf.from_dict(
            {
                "name": "store-e2e",
                "variables": [
                    {"name": "http", "type": "integer", "low": 20, "high": 60},
                    {"name": "download", "type": "integer", "low": 20, "high": 60},
                    {"name": "extract", "type": "integer", "low": 3, "high": 9},
                    {"name": "simsearch", "type": "integer", "low": 20, "high": 60},
                ],
                "objectives": [{"metric": "user_resp_time", "mode": "min"}],
                "algorithm": {"search": "random"},
                "num_samples": 4,
                "executor": "store",
                "max_workers": 2,
                "seed": 3,
                "duration": 150.0,
                "workdir": str(tmp_path),
                "store": {"local_workers": 2, "lease_s": 15.0},
            }
        )
        scenario = PlantNetScenario(duration=150.0, base_seed=3)

        def evaluator(config, seed=None, duration=None):
            return scenario.evaluate(config, seed=seed, duration=duration)

        manager = OptimizationManager(conf, evaluator=evaluator)
        outcome = manager.run()
        assert len(outcome.summary.evaluations) == 4
        assert outcome.summary.best_value == outcome.summary.best_value  # not NaN
        store = TrialStore.open(Path(manager.run_dir) / "store")
        state = store.snapshot()
        assert state.counts()["done"] == 4
        assert state.closed
        # Both CLI workers really ran (each logs its joins into the store dir).
        completers = {t.completed_by for t in state.trials.values()}
        assert all(cid and cid.startswith("store-e2e/local") for cid in completers)


class TestConcurrentCacheAppends:
    def test_multiprocess_appenders_tear_no_lines(self, tmp_path):
        path = tmp_path / "evalcache.jsonl"
        ctx = multiprocessing.get_context()
        workers = 4
        per_worker = 50
        procs = [
            ctx.Process(
                target=_cache_appender, args=(str(path), None, w * per_worker, per_worker)
            )
            for w in range(workers)
        ]
        for proc in procs:
            proc.start()
        for proc in procs:
            proc.join(timeout=60.0)
            assert proc.exitcode == 0
        reloaded = EvalCache(path=path)
        assert reloaded.corrupt == 0
        assert len(reloaded) == workers * per_worker
        for k in (0, 77, workers * per_worker - 1):
            assert reloaded.lookup({"x": k}) == {"objective": float(k)}

    def test_mismatched_key_records_skipped(self, tmp_path):
        path = tmp_path / "evalcache.jsonl"
        cache = EvalCache(path=path, fingerprint={"seed": 1})
        cache.store({"x": 1}, {"objective": 2.0})
        # A record written under a different fingerprint no longer re-hashes
        # to its stored key and must not be served.
        other = EvalCache(path=tmp_path / "other.jsonl", fingerprint={"seed": 2})
        other.store({"x": 5}, {"objective": 9.0})
        with path.open("a") as handle:
            handle.write((tmp_path / "other.jsonl").read_text())
            handle.write("not json at all\n")
        reloaded = EvalCache(path=path, fingerprint={"seed": 1})
        assert len(reloaded) == 1
        assert reloaded.corrupt == 2
        assert reloaded.lookup({"x": 5}) is None
        assert reloaded.stats()["corrupt"] == 2


class TestAtomicCheckpoints:
    def _archive(self, tmp_path, name="crashy"):
        return ExperimentArchive(tmp_path, ExperimentManifest(name=name))

    def test_failed_replace_leaves_original_intact(self, tmp_path, monkeypatch):
        archive = self._archive(tmp_path)
        archive.store_checkpoint([{"trial_id": "a", "config": {"x": 1}}])

        def crash(*args, **kwargs):
            raise OSError("simulated crash during checkpoint replace")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            archive.store_checkpoint([{"trial_id": "b", "config": {"x": 2}}])
        monkeypatch.undo()
        # The original checkpoint is untouched and no temp litter remains.
        assert [r["trial_id"] for r in archive.load_checkpoint()] == ["a"]
        assert list(archive.root.glob("*.tmp")) == []

    def test_truncated_checkpoint_degrades_to_cold_start(self, tmp_path):
        archive = self._archive(tmp_path)
        archive.store_checkpoint([{"trial_id": "a", "config": {"x": 1}}])
        path = archive.root / "checkpoint.json"
        path.write_bytes(path.read_bytes()[:17])  # torn mid-write
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert archive.load_checkpoint() == []
        with pytest.warns(RuntimeWarning, match="unreadable"):
            assert archive.load_watchdog_state() is None

    def test_truncated_checkpoint_falls_back_to_trial_ledger(self, tmp_path):
        archive = self._archive(tmp_path)
        records = [
            {"trial_id": "t0", "config": {"x": 1}, "status": "terminated",
             "result": {"loss": 1.0}},
            {"trial_id": "t1", "config": {"x": 2}, "status": "terminated",
             "result": {"loss": 4.0}},
        ]
        archive.store_checkpoint(records)
        ledger = archive.root / f"{archive.manifest.name}.jsonl"
        with ledger.open("w") as handle:
            for record in records:
                handle.write(json.dumps(record) + "\n")
            # the same trial re-logged later wins (latest record kept) ...
            handle.write(json.dumps({**records[0], "result": {"loss": 1.5}}) + "\n")
            handle.write('{"trial_id": "t2", "conf')  # ... and torn tails are skipped
        (archive.root / "checkpoint.json").write_text('{"trials": [{"trial')
        with pytest.warns(RuntimeWarning, match="unreadable"):
            recovered = {r["trial_id"]: r for r in archive.load_checkpoint()}
        assert set(recovered) == {"t0", "t1"}
        assert recovered["t0"]["result"] == {"loss": 1.5}

    def test_missing_checkpoint_is_a_plain_cold_start(self, tmp_path):
        archive = self._archive(tmp_path)
        # No checkpoint.json at all: no warning, no ledger fallback.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert archive.load_checkpoint() == []

    def test_dump_json_atomic_cleans_up_temp_on_failure(self, tmp_path, monkeypatch):
        target = tmp_path / "out.json"
        dump_json({"v": 1}, target, atomic=True)

        def crash(*args, **kwargs):
            raise OSError("boom")

        monkeypatch.setattr(os, "replace", crash)
        with pytest.raises(OSError):
            dump_json({"v": 2}, target, atomic=True)
        monkeypatch.undo()
        assert json.loads(target.read_text()) == {"v": 1}
        assert list(tmp_path.iterdir()) == [target]


class TestFabricReactivation:
    def test_reactivation_resets_stale_identity(self):
        from repro.observability.metrics import MetricsRegistry, get_registry, set_registry
        from repro.observability.trace import get_tracer, set_tracer

        saved = (get_tracer(), get_registry())
        saved_id = (fabric._runner_id, fabric._activated_pid)
        try:
            first = fabric.activate_worker("alpha")
            assert first == f"alpha/w{os.getpid()}"
            tracer_a = get_tracer()
            # Same identity: idempotent, telemetry slots untouched.
            assert fabric.activate_worker("alpha") == first
            assert get_tracer() is tracer_a
            # A reused worker process activated under a new runner name must
            # not keep shipping spans under the old identity.
            second = fabric.activate_worker("beta")
            assert second == f"beta/w{os.getpid()}"
            assert fabric.worker_runner_id() == second
            assert get_tracer() is not tracer_a
            # Simulate fork inheritance: the recorded pid differs from ours.
            fabric._activated_pid = os.getpid() + 1
            tracer_b = get_tracer()
            assert fabric.activate_worker("beta") == second
            assert get_tracer() is not tracer_b  # fresh slots for the "child"
        finally:
            set_tracer(saved[0])
            set_registry(MetricsRegistry() if saved[1] is None else saved[1])
            fabric._runner_id, fabric._activated_pid = saved_id
