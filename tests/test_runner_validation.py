"""Runner construction rejects what no executor can run.

``max_workers`` and ``backend_options`` are checked when the
:class:`TrialRunner` is built — before ``run()`` replays any resumed trial
into the searcher or starts a pool, store or worker process.
"""

from __future__ import annotations

import threading

import pytest

from repro.bayesopt import Integer, Space
from repro.errors import ValidationError
from repro.optimizer import OptimizerConf
from repro.search import RandomSearch, Trial, TrialRunner, TrialStatus


def _space():
    return Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])


def _loss(config):
    return {"loss": float(config["a"])}


def _runner(executor="sync", **kwargs):
    return TrialRunner(
        _loss,
        RandomSearch(_space(), seed=0),
        metric="loss",
        num_samples=2,
        executor=executor,
        **kwargs,
    )


def _raised_within(seconds, fn):
    """Run ``fn`` on a daemon thread; the exception it raised within ``seconds``."""
    box = []

    def target():
        try:
            fn()
        except BaseException as exc:  # noqa: BLE001 - handed to the test
            box.append(exc)
        else:
            box.append(None)

    thread = threading.Thread(target=target, daemon=True)
    thread.start()
    thread.join(seconds)
    assert box, f"still running after {seconds}s"
    return box[0]


class TestMaxWorkers:
    @pytest.mark.parametrize("executor", ["sync", "thread", "process"])
    @pytest.mark.parametrize("max_workers", [0, -1])
    def test_rejected_at_construction(self, executor, max_workers):
        with pytest.raises(ValidationError, match="max_workers"):
            _runner(executor, max_workers=max_workers)

    def test_store_rejected_instead_of_spinning(self, tmp_path):
        """A zero-capacity store campaign used to poll forever."""
        error = _raised_within(
            20.0,
            lambda: _runner(
                "store", max_workers=0, backend_options={"store_dir": str(tmp_path / "s")}
            ).run(),
        )
        assert isinstance(error, ValidationError)
        assert "max_workers" in str(error)

    def test_conf_rejects_it(self):
        with pytest.raises(ValidationError, match="max_workers"):
            OptimizerConf(
                name="c",
                variables=[{"name": "x", "type": "integer", "low": 0, "high": 1}],
                objectives=[{"metric": "m"}],
                executor="thread",
                max_workers=0,
            )


class TestBackendOptions:
    @pytest.mark.parametrize(
        "options, match",
        [
            ({"store_dir": "s", "lease": 5.0}, "lease"),
            ({"store_dir": "s", "lease_s": 0}, "lease_s"),
            ({"store_dir": "s", "poll_s": -0.1}, "poll_s"),
            ({"store_dir": "s", "poll_s": "soon"}, "poll_s|soon"),
            ({"store_dir": "s", "local_workers": -1}, "local_workers"),
            ({"store_dir": "s", "spawn": "ssh"}, "spawn"),
            ({"store_dir": "s", "spawn": "cli"}, "run_dir"),
            ({"lease_s": 5.0}, "store_dir"),
        ],
    )
    def test_bad_store_options_rejected(self, options, match):
        with pytest.raises(ValidationError, match=match):
            _runner("store", backend_options=options)

    @pytest.mark.parametrize("executor", ["sync", "thread", "process"])
    def test_options_for_another_executor_rejected(self, executor):
        with pytest.raises(ValidationError, match="store_dir"):
            _runner(executor, backend_options={"store_dir": "s"})

    def test_good_store_options_accepted(self, tmp_path):
        runner = _runner(
            "store",
            backend_options={
                "store_dir": str(tmp_path / "s"),
                "spawn": "none",
                "local_workers": 0,
                "lease_s": 5,
                "poll_s": 0.01,
            },
        )
        assert runner.backend_options["spawn"] == "none"

    def test_resumed_campaign_tells_nothing_before_rejecting(self, tmp_path):
        class Recording(RandomSearch):
            told = 0

            def on_trial_complete(self, trial_id, config, value):
                Recording.told += 1

        resumed = Trial(
            trial_id="r_00000",
            config={"a": 3, "b": 1},
            status=TrialStatus.TERMINATED,
            result={"loss": 3.0},
        )
        with pytest.raises(ValidationError, match="lease"):
            TrialRunner(
                _loss,
                Recording(_space(), seed=0),
                metric="loss",
                num_samples=2,
                executor="store",
                resume_trials=[resumed],
                backend_options={"store_dir": str(tmp_path / "s"), "lease": 5.0},
            ).run()
        assert Recording.told == 0
