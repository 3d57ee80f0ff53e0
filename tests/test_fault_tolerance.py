"""Tests for the fault-tolerance layer: injection, retry/timeout, resume."""

import json
import time
import warnings

import pytest

from repro.bayesopt import Integer, Space
from repro.cli import main
from repro.errors import FaultError, ReservationError, TrialError, ValidationError, WallClockTimeout
from repro.faults import (
    FAULT_KINDS,
    FaultInjector,
    FaultSpec,
    NodeCrashFault,
    TransientFault,
    current_attempt,
)
from repro.optimizer import OptimizationManager, OptimizerConf
from repro.search import RandomSearch, TrialRunner, TrialStatus
from repro.search.schedulers import TrialDecision, TrialScheduler
from repro.search.trial import Trial
from repro.simcore import Environment, Resource
from repro.testbed import grid5000


def _space():
    return Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])


def _ok_objective(config):
    return {"objective": float((config["a"] - 21) ** 2 + (config["b"] - 4) ** 2)}


def _failing_objective(config):
    """Module-level (picklable) trainable that always blows up."""
    raise RuntimeError(f"boom at a={config['a']}")


def _flaky_by_attempt(config):
    """Picklable trainable that only succeeds from the second retry on."""
    if current_attempt() < 2:
        raise RuntimeError(f"flaky failure on attempt {current_attempt()}")
    return {"objective": float(config["a"])}


def _hang_then_succeed(config):
    if current_attempt() == 0:
        time.sleep(10.0)
    return {"objective": 1.0}


class TestFaultSpec:
    def test_rates_validated(self):
        with pytest.raises(ValidationError):
            FaultSpec(transient=1.5)
        with pytest.raises(ValidationError):
            FaultSpec(transient=0.6, node_crash=0.6)
        with pytest.raises(ValidationError):
            FaultSpec(degradation_factor=0.5)

    def test_from_dict_rejects_unknown_keys(self):
        with pytest.raises(ValidationError):
            FaultSpec.from_dict({"transient": 0.1, "typo": 1})

    def test_total_rate(self):
        spec = FaultSpec(transient=0.1, straggler=0.2)
        assert spec.total_rate == pytest.approx(0.3)


class TestFaultInjector:
    def test_decisions_are_deterministic(self):
        spec = FaultSpec(transient=0.3, node_crash=0.2, straggler=0.2, seed=7)
        a = FaultInjector(spec)
        b = FaultInjector(spec)
        config = {"x": 3, "y": "edge"}
        for attempt in range(20):
            assert a.decide(config, attempt) == b.decide(config, attempt)

    def test_attempts_draw_independent_streams(self):
        injector = FaultInjector(FaultSpec(transient=0.5, seed=1))
        config = {"x": 1}
        decisions = {injector.decide(config, attempt) for attempt in range(30)}
        # A retried attempt must be able to dodge the fault of the previous one.
        assert decisions == {None, "transient"}

    def test_zero_rates_never_fire(self):
        injector = FaultInjector(FaultSpec(seed=3))
        assert all(injector.decide({"x": i}) is None for i in range(50))

    def test_wrap_raises_and_tallies(self):
        injector = FaultInjector(FaultSpec(transient=1.0, seed=0))
        wrapped = injector.wrap(_ok_objective)
        with pytest.raises(TransientFault):
            wrapped({"a": 21, "b": 4})
        assert injector.injected["transient"] == 1

    def test_wrap_node_crash(self):
        injector = FaultInjector(FaultSpec(node_crash=1.0, seed=0))
        wrapped = injector.wrap(_ok_objective)
        with pytest.raises(NodeCrashFault):
            wrapped({"a": 1, "b": 1})

    def test_wrap_degradation_inflates_numeric_metrics(self):
        injector = FaultInjector(
            FaultSpec(link_degradation=1.0, degradation_factor=2.0, seed=0)
        )
        wrapped = injector.wrap(lambda config: {"latency": 3.0, "deployment": "edge"})
        metrics = wrapped({"a": 1})
        assert metrics["latency"] == pytest.approx(6.0)
        assert metrics["deployment"] == "edge"

    def test_crash_node_marks_victim_failed(self):
        testbed = grid5000({"gros": 4})
        injector = FaultInjector(FaultSpec(seed=11))
        victim = injector.crash_node(testbed, "gros")
        assert victim.failed
        assert victim not in testbed.cluster("gros").free_nodes()
        with pytest.raises(ReservationError):
            victim.reserve("job-1")
        victim.repair()
        assert victim in testbed.cluster("gros").free_nodes()

    def test_crash_node_exhausts(self):
        testbed = grid5000({"gros": 2})
        injector = FaultInjector(FaultSpec(seed=2))
        injector.crash_node(testbed, "gros")
        injector.crash_node(testbed, "gros")
        with pytest.raises(FaultError):
            injector.crash_node(testbed, "gros")

    def test_degrade_link_worsens_path(self):
        testbed = grid5000()
        network = testbed.network
        before = network.path("lille", "nancy")
        injector = FaultInjector(FaultSpec(seed=0))
        after = injector.degrade_link(network, "lille", "nancy")
        assert after.latency_ms > before.latency_ms
        assert after.bandwidth_gbps < before.bandwidth_gbps
        assert after.loss > before.loss
        with pytest.raises(FaultError):
            injector.degrade_link(network, "lille", "lille")


class TestRetryAndTimeout:
    def test_flaky_trainable_succeeds_after_retries(self):
        calls = {"n": 0}

        def flaky(config):
            calls["n"] += 1
            if calls["n"] % 3 != 0:  # fails twice, succeeds on the 3rd call
                raise RuntimeError("flaky")
            return {"objective": float(config["a"])}

        runner = TrialRunner(
            flaky,
            RandomSearch(_space(), seed=0),
            metric="objective",
            num_samples=2,
            max_retries=2,
        )
        analysis = runner.run()
        assert all(t.status is TrialStatus.TERMINATED for t in analysis.trials)
        assert all(t.cost["retries"] == 2 for t in analysis.trials)
        assert analysis.cost_profile().retries == 4

    def test_retries_exhausted_surrenders_to_searcher(self):
        class Recording(RandomSearch):
            def __init__(self, space):
                super().__init__(space, seed=0)
                self.errors = []

            def on_trial_error(self, trial_id, config):
                self.errors.append(trial_id)
                super().on_trial_error(trial_id, config)

        search = Recording(_space())
        calls = {"n": 0}

        def always_fails(config):
            calls["n"] += 1
            raise RuntimeError("permanent")

        runner = TrialRunner(
            always_fails,
            search,
            metric="objective",
            num_samples=1,
            max_retries=3,
        )
        analysis = runner.run()
        trial = analysis.trials[0]
        assert calls["n"] == 4  # 1 try + 3 retries
        assert trial.status is TrialStatus.ERROR
        assert search.errors == [trial.trial_id]  # exactly once, after retries

    def test_hung_trainable_times_out_and_retries(self):
        runner = TrialRunner(
            _hang_then_succeed,
            RandomSearch(_space(), seed=0),
            metric="objective",
            num_samples=1,
            max_retries=1,
            trial_timeout_s=0.2,
        )
        analysis = runner.run()
        trial = analysis.trials[0]
        assert trial.status is TrialStatus.TERMINATED
        assert trial.cost["timeouts"] == 1
        assert trial.cost["retries"] == 1

    def test_timeout_without_retry_is_an_error(self):
        def hangs(config):
            time.sleep(10.0)

        runner = TrialRunner(
            hangs,
            RandomSearch(_space(), seed=0),
            metric="objective",
            num_samples=1,
            trial_timeout_s=0.2,
        )
        analysis = runner.run()
        trial = analysis.trials[0]
        assert trial.status is TrialStatus.ERROR
        assert "TrialTimeout" in trial.error

    def test_process_executor_retries_in_worker(self):
        runner = TrialRunner(
            _flaky_by_attempt,
            RandomSearch(_space(), seed=0),
            metric="objective",
            num_samples=2,
            executor="process",
            max_workers=2,
            max_retries=3,
        )
        analysis = runner.run()
        assert all(t.status is TrialStatus.TERMINATED for t in analysis.trials)
        assert all(t.cost["retries"] == 2 for t in analysis.trials)

    def test_process_raise_on_failed_attaches_partial_analysis(self):
        runner = TrialRunner(
            _failing_objective,
            RandomSearch(_space(), seed=0),
            metric="objective",
            num_samples=6,
            executor="process",
            max_workers=2,
            raise_on_failed_trial=True,
        )
        with pytest.raises(TrialError) as excinfo:
            runner.run()
        analysis = excinfo.value.analysis
        assert analysis is not None
        assert any(t.status is TrialStatus.ERROR for t in analysis.trials)

    def test_validation_of_fault_tolerance_params(self):
        with pytest.raises(ValidationError):
            TrialRunner(
                _ok_objective,
                RandomSearch(_space(), seed=0),
                metric="objective",
                max_retries=-1,
            )
        with pytest.raises(ValidationError):
            TrialRunner(
                _ok_objective,
                RandomSearch(_space(), seed=0),
                metric="objective",
                trial_timeout_s=0.0,
            )


class TestRunnerFixes:
    def test_non_numeric_aux_results_are_dropped(self):
        def trainable(config):
            return {"objective": 2.0, "deployment": "edge-gateway", "count": "7"}

        runner = TrialRunner(
            trainable, RandomSearch(_space(), seed=0), metric="objective", num_samples=1
        )
        analysis = runner.run()
        result = analysis.trials[0].result
        assert result["objective"] == 2.0
        assert result["count"] == 7.0
        assert "deployment" not in result

    def test_non_numeric_target_metric_is_still_an_error(self):
        def trainable(config):
            return {"objective": "broken"}

        runner = TrialRunner(
            trainable, RandomSearch(_space(), seed=0), metric="objective", num_samples=1
        )
        analysis = runner.run()
        assert analysis.trials[0].status is TrialStatus.ERROR

    def test_scheduler_access_is_serialized(self):
        class RacyScheduler(TrialScheduler):
            """Counts concurrent entries; any overlap is a violation."""

            def __init__(self):
                super().__init__("min")
                self.active = 0
                self.violations = 0
                self.completed = 0

            def _enter(self):
                if self.active != 0:
                    self.violations += 1
                self.active += 1
                time.sleep(0.001)
                self.active -= 1

            def on_result(self, trial, step, value):
                self._enter()
                return TrialDecision.CONTINUE

            def on_complete(self, trial):
                self._enter()
                self.completed += 1

        def reporting(config, reporter):
            for step in range(4):
                reporter.report(float(config["a"] + step), step=step + 1)
            return {"objective": float(config["a"])}

        scheduler = RacyScheduler()
        runner = TrialRunner(
            reporting,
            RandomSearch(_space(), seed=0),
            metric="objective",
            num_samples=8,
            executor="thread",
            max_workers=4,
            scheduler=scheduler,
        )
        analysis = runner.run()
        assert scheduler.completed == 8
        assert scheduler.violations == 0
        assert len(analysis.trials) == 8


def _conf_dict(workdir, num_samples=6, **extra):
    data = {
        "name": "ft_campaign",
        "variables": [{"name": "x", "type": "integer", "low": 0, "high": 10}],
        "objectives": [{"metric": "latency", "mode": "min"}],
        "algorithm": {"search": "random"},
        "num_samples": num_samples,
        "seed": 3,
        "workdir": str(workdir),
    }
    data.update(extra)
    return data


class TestFaultyCampaign:
    def test_campaign_with_injected_faults_completes(self, tmp_path):
        conf = OptimizerConf.from_dict(
            _conf_dict(
                tmp_path,
                num_samples=20,
                max_retries=3,
                faults={"transient": 0.2},
            )
        )

        def evaluator(config, seed=None, duration=None):
            return {"latency": float(config["x"])}

        manager = OptimizationManager(conf, evaluator=evaluator)
        outcome = manager.run()
        summary = outcome.summary
        assert summary.n_evaluations == conf.num_samples
        assert manager.fault_injector.injected["transient"] > 0
        assert summary.cost_profile["retries"] > 0
        assert "fault tolerance:" in summary.render()

    def test_conf_validates_fault_rates(self, tmp_path):
        with pytest.raises(ValidationError):
            OptimizerConf.from_dict(_conf_dict(tmp_path, faults={"transient": 2.0}))
        with pytest.raises(ValidationError):
            OptimizerConf.from_dict(_conf_dict(tmp_path, max_retries=-1))

    def test_conf_round_trips_through_to_dict(self, tmp_path):
        conf = OptimizerConf.from_dict(
            _conf_dict(tmp_path, max_retries=2, faults={"straggler": 0.1})
        )
        clone = OptimizerConf.from_dict(conf.to_dict())
        assert clone.max_retries == 2
        assert clone.faults == {"straggler": 0.1}


class TestCheckpointResume:
    def test_resume_runs_only_the_remaining_trials(self, tmp_path):
        calls = {"n": 0}

        def evaluator(config, seed=None, duration=None):
            calls["n"] += 1
            return {"latency": float(config["x"])}

        # Phase 1: a campaign that stops after 6 of the eventual 10 samples
        # (stands in for an interrupted run — the checkpoint is identical).
        first = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=6)),
            evaluator=evaluator,
        )
        first.run()
        assert calls["n"] == 6
        assert (first.run_dir / "checkpoint.json").exists()

        # Phase 2: resume to the full budget; only 4 new evaluations happen.
        second = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=10)),
            evaluator=evaluator,
            resume_from=first.run_dir,
        )
        outcome = second.run()
        assert calls["n"] == 10
        assert outcome.summary.n_evaluations == 10
        # Same trial count as an uninterrupted 10-sample campaign.
        uninterrupted = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path / "fresh", num_samples=10)),
            evaluator=lambda config, seed=None, duration=None: {
                "latency": float(config["x"])
            },
        )
        assert uninterrupted.run().summary.n_evaluations == 10

    def test_pretty_printed_checkpoint_still_resumes(self, tmp_path):
        """Checkpoints are written as one compact line; an indented one
        (the earlier format) still loads and resumes."""
        calls = {"n": 0}

        def evaluator(config, seed=None, duration=None):
            calls["n"] += 1
            return {"latency": float(config["x"])}

        first = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=6)),
            evaluator=evaluator,
        )
        first.run()
        path = first.run_dir / "checkpoint.json"
        compact = path.read_text()
        assert "\n" not in compact
        path.write_text(json.dumps(json.loads(compact), indent=2, sort_keys=True))
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no fallback to the trial ledger
            assert len(first.optimization.archive.load_checkpoint()) == 6

        second = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=10)),
            evaluator=evaluator,
            resume_from=first.run_dir,
        )
        assert second.run().summary.n_evaluations == 10
        assert calls["n"] == 10

    def test_checkpoint_contents_round_trip(self, tmp_path):
        conf = OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=3))
        manager = OptimizationManager(
            conf, evaluator=lambda config, **kw: {"latency": 1.0}
        )
        manager.run()
        records = manager.optimization.archive.load_checkpoint()
        assert len(records) == 3
        rebuilt = [Trial.from_dict(r) for r in records]
        assert all(t.status is TrialStatus.TERMINATED for t in rebuilt)
        assert all("objective" in t.result for t in rebuilt)

    def test_resume_from_requires_evaluator_manager(self, tmp_path):
        from repro.errors import OptimizationError
        from repro.optimizer.manager import CallableOptimization

        conf = OptimizerConf.from_dict(_conf_dict(tmp_path))
        opt = CallableOptimization(
            conf.build_problem(),
            lambda config, **kw: {"latency": 1.0},
            workdir=str(tmp_path),
        )
        with pytest.raises(OptimizationError):
            OptimizationManager(conf, optimization=opt, resume_from=tmp_path)


class TestStandaloneValidate:
    def test_validate_does_not_launch_a_campaign(self, tmp_path):
        calls = {"n": 0}

        def evaluator(config, seed=None, duration=None):
            calls["n"] += 1
            return {"latency": float(config["x"]) + (seed or 0) * 0.0}

        conf = OptimizerConf.from_dict(_conf_dict(tmp_path, repeat=2))
        manager = OptimizationManager(conf, evaluator=evaluator)
        outcome = manager.validate({"x": 5})
        assert calls["n"] == 3  # repeat + 1 — and no extra campaign
        assert outcome.summary.algorithm == {"search": "validation"}
        assert outcome.summary.n_evaluations == 3
        assert outcome.summary.best_configuration == {"x": 5}
        assert outcome.summary.best_value == pytest.approx(outcome.validation.mean)
        assert len(outcome.validation_runs) == 3


class TestWallClockTimeout:
    def test_runaway_simulation_is_cut_off(self):
        env = Environment()

        def runaway(env):
            while True:
                yield env.timeout(1.0)

        env.process(runaway(env))
        with pytest.raises(WallClockTimeout):
            env.run(wall_timeout_s=0.05)

    def test_zero_time_claim_spin_is_cut_off(self):
        """A process re-taking a free claim at one instant never leaves the
        run loop's in-place grant pump; the deadline must still fire there."""
        env = Environment()
        pool = Resource(env, capacity=1)
        bound = 2_000_000

        def spin(env):
            # Bounded (~2 µs per grant), so a missing check fails the test
            # after a few seconds instead of hanging the suite.
            for _ in range(bound):
                req = pool.request()
                yield req
                pool.release(req)

        env.process(spin(env))
        env.timeout(1.0)
        with pytest.raises(WallClockTimeout):
            env.run(wall_timeout_s=0.05)
        # Cut off inside the spin, not at the next pop after it ended.
        assert pool.stats.grants < bound
        assert env.now == 0.0

    def test_invalid_budget_rejected(self):
        with pytest.raises(ValueError):
            Environment().run(wall_timeout_s=0.0)

    def test_normal_run_unaffected(self):
        env = Environment()

        def short(env):
            yield env.timeout(5.0)

        env.process(short(env))
        env.run(wall_timeout_s=30.0)
        assert env.now == 5.0


class TestCliResume:
    def _conf(self, tmp_path):
        return {
            "name": "cli_resume",
            "variables": [
                {"name": "http", "type": "integer", "low": 20, "high": 60},
                {"name": "download", "type": "integer", "low": 20, "high": 60},
                {"name": "simsearch", "type": "integer", "low": 20, "high": 60},
                {"name": "extract", "type": "integer", "low": 3, "high": 9},
            ],
            "objectives": [{"metric": "user_resp_time", "mode": "min"}],
            "algorithm": {"search": "random"},
            "num_samples": 3,
            "seed": 0,
            "duration": 120.0,
            "workdir": str(tmp_path / "work"),
        }

    def test_resume_replays_without_rerunning(self, tmp_path, capsys):
        conf_path = tmp_path / "conf.json"
        conf_path.write_text(json.dumps(self._conf(tmp_path)))
        assert main(["optimize", str(conf_path)]) == 0
        run_dir = tmp_path / "work" / "cli_resume"
        assert (run_dir / "optimizer_conf.json").exists()
        assert (run_dir / "checkpoint.json").exists()
        eval_dirs = len(list(run_dir.glob("optimization-*")))
        capsys.readouterr()

        # Resume without the conf file: it is reloaded from the run dir, all
        # trials replay from the checkpoint, and nothing re-executes.
        assert main(["optimize", "--resume", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "Optimization summary" in out
        assert len(list(run_dir.glob("optimization-*"))) == eval_dirs

    def test_optimize_requires_conf_or_resume(self):
        with pytest.raises(SystemExit):
            main(["optimize"])

    def test_resume_without_saved_conf_fails(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["optimize", "--resume", str(tmp_path)])
