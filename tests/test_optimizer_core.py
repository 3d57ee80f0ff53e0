"""Tests for the Optimization base class, OptimizerConf and the manager."""

import pytest

from repro.bayesopt import Integer, Space
from repro.errors import OptimizationError, ValidationError
from repro.optimizer import (
    Objective,
    OptimizationManager,
    OptimizationProblem,
    OptimizerConf,
)
from repro.optimizer.optimization import Optimization
from repro.search.schedulers import AsyncHyperBandScheduler, FIFOScheduler


def _problem():
    return OptimizationProblem(
        Space([Integer(0, 20, name="a"), Integer(0, 20, name="b")]),
        Objective("loss", "min"),
    )


class RecordingOptimization(Optimization):
    """Concrete Optimization for tests: quadratic bowl, call recording."""

    def __init__(self, workdir, **kwargs):
        super().__init__(_problem(), workdir=workdir, **kwargs)
        self.launches = []

    def launch(self, config, **kwargs):
        self.launches.append((dict(config), dict(kwargs)))
        return {"loss": (config["a"] - 7) ** 2 + (config["b"] - 3) ** 2}

    def run(self):
        return self.execute(num_samples=15)


class TestOptimizationLifecycle:
    def test_prepare_launch_finalize_chain(self, tmp_path):
        opt = RecordingOptimization(tmp_path, seed=0)
        metrics = opt.run_objective({"a": 7, "b": 3})
        assert metrics["loss"] == 0.0
        assert metrics["objective"] == 0.0
        evaluations = opt.archive.load_evaluations()
        assert len(evaluations) == 1
        assert evaluations[0]["configuration"] == {"a": 7, "b": 3}

    def test_run_produces_summary_and_archive(self, tmp_path):
        opt = RecordingOptimization(tmp_path, seed=1)
        summary = opt.run()
        assert summary.n_evaluations == 15
        assert summary.best_value <= min(e["value"] for e in summary.evaluations)
        assert summary.convergence_evaluation <= 15
        assert opt.archive.load_summary()["best_value"] == summary.best_value
        # Phase I definition present
        assert summary.problem["objectives"][0]["metric"] == "loss"

    def test_summary_render(self, tmp_path):
        opt = RecordingOptimization(tmp_path, seed=2)
        text = opt.run().render()
        assert "Optimization summary" in text
        assert "best configuration" in text

    def test_summarize_requires_successes(self, tmp_path):
        from repro.search.runner import ExperimentAnalysis

        opt = RecordingOptimization(tmp_path)
        empty = ExperimentAnalysis(name="x", metric="objective", mode="min")
        with pytest.raises(OptimizationError):
            opt.summarize(empty, algorithm_info={}, sampling_info={}, wall_clock_s=0.0)


class TestOptimizerConf:
    def _conf_dict(self, **overrides):
        base = {
            "name": "exp",
            "variables": [
                {"name": "a", "type": "integer", "low": 0, "high": 20},
                {"name": "b", "type": "integer", "low": 0, "high": 20},
            ],
            "objectives": [{"metric": "loss"}],
            "num_samples": 10,
        }
        base.update(overrides)
        return base

    def test_build_space_and_problem(self):
        conf = OptimizerConf.from_dict(self._conf_dict())
        assert conf.build_space().names == ["a", "b"]
        assert conf.build_problem().primary_metric == "loss"

    def test_variable_types(self):
        conf = OptimizerConf.from_dict(
            self._conf_dict(
                variables=[
                    {"name": "i", "type": "integer", "low": 1, "high": 5},
                    {"name": "r", "type": "real", "low": 0.1, "high": 10.0, "prior": "log-uniform"},
                    {"name": "c", "type": "categorical", "categories": ["x", "y"]},
                ]
            )
        )
        space = conf.build_space()
        assert len(space) == 3

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown optimizer_conf keys"):
            OptimizerConf.from_dict(self._conf_dict(banana=1))

    def test_unknown_algorithm_keys_rejected_together(self):
        # Every unknown key is named in one error, at the conf boundary,
        # not as a TypeError from the optimizer at build time.
        with pytest.raises(ValidationError) as info:
            OptimizerConf.from_dict(
                self._conf_dict(algorithm={"bogus": 1, "keep_modelz": 3})
            )
        message = str(info.value)
        assert "unknown optimizer_conf algorithm keys" in message
        assert "'bogus'" in message and "'keep_modelz'" in message
        conf = OptimizerConf.from_dict(
            self._conf_dict(algorithm={"batch_size": 2, "refit_every": 4, "search": "surrogate"})
        )
        assert conf.build_search(conf.build_space()).batch_size == 2

    def test_random_search_rejects_optimizer_keys_together(self):
        # Random search takes none of the optimizer's knobs; passing them
        # (valid or not) is an error naming every one, not a silent drop.
        with pytest.raises(ValidationError) as info:
            OptimizerConf.from_dict(
                self._conf_dict(
                    algorithm={"search": "random", "acq_func": "nonsense", "refit_every": 4}
                )
            )
        message = str(info.value)
        assert "'acq_func'" in message and "'refit_every'" in message
        conf = OptimizerConf.from_dict(self._conf_dict(algorithm={"search": "Random"}))
        assert type(conf.build_search(conf.build_space())).__name__ == "RandomSearch"

    def test_unknown_variable_type(self):
        with pytest.raises(ValidationError):
            OptimizerConf.from_dict(
                self._conf_dict(variables=[{"name": "x", "type": "bool"}])
            ).build_space()

    def test_scheduler_building(self):
        conf = OptimizerConf.from_dict(self._conf_dict(scheduler={"type": "fifo"}))
        assert isinstance(conf.build_scheduler(), FIFOScheduler)
        conf = OptimizerConf.from_dict(
            self._conf_dict(scheduler={"type": "asha", "grace_period": 2})
        )
        assert isinstance(conf.build_scheduler(), AsyncHyperBandScheduler)
        conf = OptimizerConf.from_dict(self._conf_dict(scheduler={"type": "wat"}))
        with pytest.raises(ValidationError):
            conf.build_scheduler()

    def test_json_roundtrip(self, tmp_path):
        from repro.utils.serialization import dump_json

        path = dump_json(self._conf_dict(), tmp_path / "conf.json")
        conf = OptimizerConf.from_json(path)
        assert conf.name == "exp"


class TestOptimizationManager:
    def _conf(self, tmp_path, **overrides):
        data = {
            "name": "managed",
            "variables": [{"name": "a", "type": "integer", "low": 0, "high": 20}],
            "objectives": [{"metric": "loss"}],
            "algorithm": {"base_estimator": "ET", "n_initial_points": 5},
            "num_samples": 12,
            "seed": 0,
            "workdir": str(tmp_path),
        }
        data.update(overrides)
        return OptimizerConf.from_dict(data)

    @staticmethod
    def _evaluator(config, seed=None, duration=None):
        return {"loss": (config["a"] - 13) ** 2}

    def test_runs_campaign(self, tmp_path):
        manager = OptimizationManager(self._conf(tmp_path), evaluator=self._evaluator)
        outcome = manager.run()
        assert outcome.summary.best_value <= 4.0
        assert outcome.validation is None

    def test_repeat_validation(self, tmp_path):
        manager = OptimizationManager(
            self._conf(tmp_path, repeat=4, duration=100.0), evaluator=self._evaluator
        )
        outcome = manager.run()
        assert outcome.validation is not None
        assert len(outcome.validation_runs) == 5
        assert outcome.validation.mean == pytest.approx(outcome.summary.best_value, abs=1e-9)

    def test_needs_exactly_one_backend(self, tmp_path):
        conf = self._conf(tmp_path)
        with pytest.raises(OptimizationError):
            OptimizationManager(conf)

    def test_validation_seeds_passed(self, tmp_path):
        seeds = []

        def evaluator(config, seed=None, duration=None):
            seeds.append(seed)
            return {"loss": 1.0}

        conf = self._conf(tmp_path, repeat=2, num_samples=3)
        manager = OptimizationManager(conf, evaluator=evaluator)
        manager.run()
        validation_seeds = [s for s in seeds if s is not None]
        assert len(set(validation_seeds)) == 3  # distinct per repetition
