"""Tests for the live campaign watchdog: detection, rate limits, resume."""

import json

import pytest

from repro.errors import ValidationError
from repro.faults import FaultInjector, FaultSpec, TransientFault
from repro import observability as obs
from repro.observability import set_tracer
from repro.observability.trace import RecordingTracer, Span
from repro.observability.watchdog import (
    ALERTS_FILE,
    Alert,
    CampaignWatchdog,
    WatchdogConfig,
    load_alerts,
)
from repro.optimizer import OptimizationManager, OptimizerConf


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    set_tracer(None)


def _execute_span(span_id, trial_id, duration, *, status="ok", error=None, end=None):
    end = end if end is not None else float(span_id)
    return Span(
        name="execute",
        span_id=span_id,
        start_s=end - duration,
        end_s=end,
        attributes={"trial_id": trial_id},
        status=status,
        error=error,
    )


def _trial_span(span_id, trial_id, objective, *, end=None):
    end = end if end is not None else float(span_id)
    return Span(
        name=f"trial:{trial_id}",
        span_id=span_id,
        start_s=end - 1.0,
        end_s=end,
        attributes={"trial_id": trial_id, "objective": objective},
    )


class TestWatchdogConfig:
    def test_defaults_valid(self):
        config = WatchdogConfig()
        assert config.straggler_zscore == 3.5
        assert config.to_dict()["mode"] == "min"

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValidationError, match="unknown watchdog keys"):
            WatchdogConfig.from_dict({"stragler_zscore": 3.0})

    @pytest.mark.parametrize(
        "overrides",
        [
            {"straggler_zscore": 0.0},
            {"straggler_min_trials": 1},
            {"stall_patience": 0},
            {"regression_zscore": -1.0},
            {"saturation_threshold": 1.5},
            {"fault_storm_window_s": 0.0},
            {"fault_storm_count": 0},
            {"max_alerts_per_kind": 0},
            {"mode": "sideways"},
        ],
    )
    def test_threshold_validation(self, overrides):
        with pytest.raises(ValidationError):
            WatchdogConfig.from_dict(overrides)

    def test_round_trip(self):
        config = WatchdogConfig(straggler_zscore=2.5, stall_patience=3)
        clone = WatchdogConfig.from_dict(config.to_dict())
        assert clone == config

    def test_conf_block_builds_watchdog(self, tmp_path):
        conf = OptimizerConf.from_dict(_conf_dict(tmp_path, watchdog={"enabled": True}))
        watchdog = conf.build_watchdog()
        assert isinstance(watchdog, CampaignWatchdog)
        assert OptimizerConf.from_dict(_conf_dict(tmp_path)).build_watchdog() is None

    def test_conf_block_validates_thresholds_early(self, tmp_path):
        with pytest.raises(ValidationError):
            OptimizerConf.from_dict(_conf_dict(tmp_path, watchdog={"stall_patience": 0}))


class TestStragglerDetection:
    def test_outlier_duration_fires_once(self):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=4))
        for i in range(5):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0))
        watchdog.on_span(_execute_span(10, "slow", 30.0))
        watchdog.on_span(_execute_span(11, "slow", 30.0))  # same subject: deduped
        alerts = watchdog.alerts()
        assert [a.kind for a in alerts] == ["straggler"]
        assert alerts[0].details["trial_id"] == "slow"
        assert alerts[0].details["zscore"] >= 3.5

    def test_not_armed_before_min_trials(self):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=4))
        watchdog.on_span(_execute_span(1, "t0", 1.0))
        watchdog.on_span(_execute_span(2, "slow", 50.0))
        assert watchdog.alerts() == []

    def test_flat_baseline_does_not_divide_by_zero(self):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=2))
        for i in range(4):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 2.0))  # zero MAD
        watchdog.on_span(_execute_span(9, "slow", 3.0))
        assert [a.kind for a in watchdog.alerts()] == ["straggler"]


class TestObjectiveRules:
    def test_stall_fires_after_patience(self):
        watchdog = CampaignWatchdog(WatchdogConfig(stall_patience=3))
        watchdog.on_span(_trial_span(1, "t1", 5.0))
        for i in range(3):
            watchdog.on_span(_trial_span(i + 2, f"t{i + 2}", 6.0))
        alerts = [a for a in watchdog.alerts() if a.kind == "stall"]
        assert len(alerts) == 1
        assert alerts[0].details["since_improve"] == 3

    def test_stall_rearms_after_improvement(self):
        watchdog = CampaignWatchdog(WatchdogConfig(stall_patience=2))
        watchdog.on_span(_trial_span(1, "t1", 5.0))
        watchdog.on_span(_trial_span(2, "t2", 6.0))
        watchdog.on_span(_trial_span(3, "t3", 6.0))  # stall #1
        watchdog.on_span(_trial_span(4, "t4", 1.0))  # improvement resets
        watchdog.on_span(_trial_span(5, "t5", 2.0))
        watchdog.on_span(_trial_span(6, "t6", 2.0))  # stall #2
        stalls = [a for a in watchdog.alerts() if a.kind == "stall"]
        assert len(stalls) == 2

    def test_regression_direction_aware(self):
        watchdog = CampaignWatchdog(
            WatchdogConfig(straggler_min_trials=4, regression_zscore=4.0, stall_patience=99)
        )
        for i in range(6):
            watchdog.on_span(_trial_span(i + 1, f"t{i}", 10.0 + 0.1 * i))
        watchdog.on_span(_trial_span(10, "better", 0.5))  # improvement: no alert
        watchdog.on_span(_trial_span(11, "worse", 500.0))
        kinds = [a.kind for a in watchdog.alerts()]
        assert kinds.count("regression") == 1
        regression = next(a for a in watchdog.alerts() if a.kind == "regression")
        assert regression.details["trial_id"] == "worse"

    def test_max_mode_inverts_direction(self):
        watchdog = CampaignWatchdog(
            WatchdogConfig(mode="max", straggler_min_trials=4, stall_patience=99)
        )
        for i in range(6):
            watchdog.on_span(_trial_span(i + 1, f"t{i}", 100.0 - i))
        watchdog.on_span(_trial_span(10, "collapse", 1.0))  # much lower = worse
        assert "regression" in [a.kind for a in watchdog.alerts()]


class TestPoolAndFaultRules:
    def test_saturated_pool(self):
        watchdog = CampaignWatchdog(WatchdogConfig(saturation_threshold=0.9))
        span = Span(
            name="pool:extract", span_id=1, start_s=0.0, end_s=1.0,
            attributes={"occupancy": 0.97},
        )
        watchdog.on_span(span)
        watchdog.on_span(span)  # deduped per pool
        alerts = watchdog.alerts()
        assert [a.kind for a in alerts] == ["saturation"]
        assert alerts[0].details["pool"] == "extract"

    def test_fault_storm_from_error_spans(self):
        watchdog = CampaignWatchdog(
            WatchdogConfig(fault_storm_window_s=10.0, fault_storm_count=3)
        )
        for i in range(3):
            watchdog.on_span(
                _execute_span(i + 1, f"t{i}", 0.5, status="error", error="boom", end=1.0 + i)
            )
        storms = [a for a in watchdog.alerts() if a.kind == "fault_storm"]
        assert len(storms) == 1
        assert storms[0].severity == "critical"

    def test_slow_failures_do_not_storm(self):
        watchdog = CampaignWatchdog(
            WatchdogConfig(fault_storm_window_s=1.0, fault_storm_count=3)
        )
        for i in range(4):
            watchdog.on_span(
                _execute_span(i + 1, f"t{i}", 0.5, status="error", error="x", end=10.0 * i)
            )
        assert [a for a in watchdog.alerts() if a.kind == "fault_storm"] == []

    def test_poll_reads_injected_fault_counter(self):
        """Injected faults finish ``fault`` spans; the storm rule reads the
        counter derived from them on the tracer the watchdog is attached to."""
        tracer = set_tracer(RecordingTracer())
        watchdog = CampaignWatchdog(WatchdogConfig(fault_storm_count=2))
        watchdog.attach(tracer)
        evaluate = FaultInjector(FaultSpec(transient=1.0)).wrap(lambda config: {"loss": 1.0})
        for a in range(3):
            with pytest.raises(TransientFault):
                evaluate({"a": a})
        faults = [s for s in tracer.finished() if s.name == "fault"]
        assert [(s.attributes["kind"], s.duration_s) for s in faults] == [("transient", 0.0)] * 3
        watchdog.poll(time_s=5.0)
        storms = [a for a in watchdog.alerts() if a.kind == "fault_storm"]
        assert len(storms) == 1
        assert storms[0].details["injected"] == {"transient": 3.0}
        # no fresh faults since: polling again stays quiet.
        watchdog.poll(time_s=6.0)
        assert len(watchdog.alerts()) == 1

    def test_trial_span_polls_the_attached_tracer(self):
        tracer = set_tracer(RecordingTracer())
        watchdog = CampaignWatchdog(WatchdogConfig(fault_storm_count=2))
        watchdog.attach(tracer)
        evaluate = FaultInjector(FaultSpec(transient=1.0)).wrap(lambda config: {"loss": 1.0})
        for a in range(2):
            with pytest.raises(TransientFault):
                evaluate({"a": a})
        with tracer.span("trial:t0", trial_id="t0"):
            pass
        assert [a.kind for a in watchdog.alerts()] == ["fault_storm"]
        # a detached watchdog has no tracer to poll
        watchdog.detach()
        for a in range(10, 13):
            with pytest.raises(TransientFault):
                evaluate({"a": a})
        watchdog.poll(time_s=9.0)
        assert len(watchdog.alerts()) == 1


class TestRateLimiting:
    def test_per_kind_cap_and_suppressed_counter(self):
        watchdog = CampaignWatchdog(
            WatchdogConfig(straggler_min_trials=2, max_alerts_per_kind=2)
        )
        for i in range(8):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0))
        # each outlier is checked against the baseline *before* it joins it,
        # so the first four all score as stragglers: 2 fire, 2 suppressed.
        for i in range(4):
            watchdog.on_span(_execute_span(10 + i, f"slow{i}", 60.0 + i))
        alerts = watchdog.alerts()
        assert len([a for a in alerts if a.kind == "straggler"]) == 2
        assert watchdog.suppressed == 2
        summary = watchdog.summary()
        assert summary["total"] == 2
        assert summary["suppressed"] == 2
        assert summary["by_kind"] == {"straggler": 2}


class TestSpanStream:
    def test_attach_receives_finished_spans(self):
        tracer = RecordingTracer()
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=2, stall_patience=1))
        watchdog.attach(tracer)
        assert tracer.watchdog is watchdog
        try:
            with tracer.span("trial:t1", trial_id="t1", objective=1.0):
                pass
            with tracer.span("trial:t2", trial_id="t2", objective=2.0):
                pass
        finally:
            watchdog.detach()
        # both trial spans streamed through: one stall alert after patience=1.
        assert [a.kind for a in watchdog.alerts()] == ["stall"]

    def test_detach_stops_the_stream(self):
        tracer = RecordingTracer()
        watchdog = CampaignWatchdog(WatchdogConfig(stall_patience=1))
        watchdog.attach(tracer)
        watchdog.detach()
        assert tracer.watchdog is None
        with tracer.span("trial:t1", trial_id="t1", objective=1.0):
            pass
        assert watchdog.alerts() == []

    def test_broken_subscriber_never_breaks_the_campaign(self):
        tracer = RecordingTracer()

        def broken(span):
            raise RuntimeError("bad consumer")

        tracer.subscribe(broken)
        with tracer.span("trial:t1"):
            pass  # must not raise
        assert len(tracer.finished()) == 1


class TestPersistence:
    def test_alerts_jsonl_round_trip(self, tmp_path):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=2))
        for i in range(3):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0))
        watchdog.on_span(_execute_span(9, "slow", 40.0))
        path = watchdog.export_jsonl(tmp_path / ALERTS_FILE)
        loaded = load_alerts(path)
        assert [a.kind for a in loaded] == ["straggler"]
        assert isinstance(loaded[0], Alert)
        assert loaded[0].details["trial_id"] == "slow"

    def test_state_dict_round_trip_excludes_baselines(self):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=2))
        for i in range(3):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0))
        watchdog.on_span(_execute_span(9, "slow", 40.0))
        state = json.loads(json.dumps(watchdog.state_dict()))  # JSON-safe
        assert "durations" not in state and "objectives" not in state

        restored = CampaignWatchdog(WatchdogConfig(straggler_min_trials=2))
        restored.load_state(state)
        assert [a.kind for a in restored.alerts()] == ["straggler"]
        # the fired key survives: the same straggler does not re-fire.
        restored.seed_from_trials(
            [{"cost": {"evaluate_s": 1.0}, "result": {"objective": 1.0}}] * 3
        )
        restored.on_span(_execute_span(20, "slow", 40.0))
        assert len(restored.alerts()) == 1

    def test_seed_from_trials_restores_baselines(self):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=4, stall_patience=99))
        absorbed = watchdog.seed_from_trials(
            [
                {"cost": {"evaluate_s": 1.0 + 0.01 * i}, "result": {"objective": 5.0 - i}}
                for i in range(6)
            ]
        )
        assert absorbed == 6
        # baselines are armed immediately: a fresh outlier fires at once.
        watchdog.on_span(_execute_span(30, "slow", 25.0))
        assert [a.kind for a in watchdog.alerts()] == ["straggler"]


def _conf_dict(workdir, num_samples=6, **extra):
    data = {
        "name": "wd_campaign",
        "variables": [{"name": "x", "type": "integer", "low": 0, "high": 10}],
        "objectives": [{"metric": "latency", "mode": "min"}],
        "algorithm": {"search": "random"},
        "num_samples": num_samples,
        "seed": 3,
        "workdir": str(workdir),
    }
    data.update(extra)
    return data


class TestCampaignIntegration:
    def test_watchdog_block_implies_observability_artifacts(self, tmp_path, monkeypatch):
        tracers = []
        enable = obs.enable

        def recording_enable():
            tracer = enable()
            tracers.append(tracer)
            return tracer

        monkeypatch.setattr(obs, "enable", recording_enable)
        conf = OptimizerConf.from_dict(
            _conf_dict(tmp_path, watchdog={"enabled": True})
        )
        assert conf.observability is False
        manager = OptimizationManager(
            conf, evaluator=lambda config, **kw: {"latency": float(config["x"])}
        )
        outcome = manager.run()
        for name in ("spans.jsonl", ALERTS_FILE, "timeline.html", "trace_events.json"):
            assert (manager.run_dir / name).exists(), name
        assert "total" in outcome.summary.alerts
        [tracer] = tracers
        assert tracer.watchdog is None  # detached after the run

    def test_summary_renders_watchdog_line(self, tmp_path):
        conf = OptimizerConf.from_dict(
            _conf_dict(
                tmp_path,
                watchdog={"straggler_min_trials": 2, "stall_patience": 1},
            )
        )
        manager = OptimizationManager(
            conf, evaluator=lambda config, **kw: {"latency": 5.0}
        )
        outcome = manager.run()
        assert "watchdog:" in outcome.summary.render()

    def test_checkpoint_carries_watchdog_state(self, tmp_path):
        conf = OptimizerConf.from_dict(
            _conf_dict(tmp_path, watchdog={"straggler_min_trials": 2, "stall_patience": 1})
        )
        manager = OptimizationManager(
            conf, evaluator=lambda config, **kw: {"latency": 5.0}
        )
        manager.run()
        checkpoint = json.loads((manager.run_dir / "checkpoint.json").read_text())
        assert "watchdog" in checkpoint
        state = checkpoint["watchdog"]
        assert {"fired", "counts", "suppressed", "stall_active", "alerts"} <= set(state)

    def test_resume_does_not_refire_old_alerts(self, tmp_path):
        """ISSUE satellite: watchdog state across checkpoint/resume."""
        # straggler detection effectively off: sub-millisecond evaluations
        # are all noise, and this test is about stall-alert persistence.
        watchdog_block = {"stall_patience": 2, "straggler_min_trials": 99}

        def evaluator(config, seed=None, duration=None):
            return {"latency": 5.0}  # constant: stalls immediately

        first = OptimizationManager(
            OptimizerConf.from_dict(
                _conf_dict(tmp_path, num_samples=6, watchdog=watchdog_block)
            ),
            evaluator=evaluator,
        )
        first_outcome = first.run()
        first_stalls = [
            a for a in first_outcome.summary.alerts["alerts"] if a["kind"] == "stall"
        ]
        assert first_stalls, "constant objective must stall in phase 1"

        second = OptimizationManager(
            OptimizerConf.from_dict(
                _conf_dict(tmp_path, num_samples=10, watchdog=watchdog_block)
            ),
            evaluator=evaluator,
            resume_from=first.run_dir,
        )
        second_outcome = second.run()
        alerts = second_outcome.summary.alerts["alerts"]
        # old alerts restored, and the still-stalled campaign did not re-fire
        # the same episode: the fired-key set survived the checkpoint.
        second_stalls = [a for a in alerts if a["kind"] == "stall"]
        assert second_stalls == first_stalls

    def test_resume_seeds_baselines_from_replayed_trials(self, tmp_path):
        calls = {"n": 0}

        def evaluator(config, seed=None, duration=None):
            calls["n"] += 1
            if calls["n"] == 9:  # one straggler in the resumed half
                import time

                time.sleep(0.4)
            return {"latency": float(config["x"])}

        block = {"straggler_zscore": 3.0, "straggler_min_trials": 3, "stall_patience": 99}
        first = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=6, watchdog=block)),
            evaluator=evaluator,
        )
        first.run()

        second = OptimizationManager(
            OptimizerConf.from_dict(_conf_dict(tmp_path, num_samples=10, watchdog=block)),
            evaluator=evaluator,
            resume_from=first.run_dir,
        )
        outcome = second.run()
        stragglers = [
            a for a in outcome.summary.alerts["alerts"] if a["kind"] == "straggler"
        ]
        # baselines came from the replayed records (only 3 fresh trials ran
        # before the straggler — not enough on their own with min_trials=3
        # unless the replayed durations seeded the baseline).
        assert stragglers, outcome.summary.alerts
        assert calls["n"] == 10


class TestTailRule:
    def test_disabled_by_default(self):
        watchdog = CampaignWatchdog(WatchdogConfig(straggler_min_trials=2))
        for i in range(6):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0))
        watchdog.on_span(_execute_span(10, "slow", 40.0))
        assert all(a.kind != "tail" for a in watchdog.alerts())

    def test_fires_on_tail_outlier(self):
        config = WatchdogConfig(straggler_min_trials=4, tail_factor=3.0)
        watchdog = CampaignWatchdog(config)
        for i in range(8):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0 + 0.01 * i))
        watchdog.on_span(_execute_span(20, "slow", 30.0))
        tails = [a for a in watchdog.alerts() if a.kind == "tail"]
        assert len(tails) == 1
        details = tails[0].details
        assert details["trial_id"] == "slow"
        assert details["duration_s"] == pytest.approx(30.0)
        assert details["threshold_s"] < 30.0
        assert details["quantile"] == pytest.approx(0.99)

    def test_not_armed_before_min_trials(self):
        config = WatchdogConfig(straggler_min_trials=5, tail_factor=2.0)
        watchdog = CampaignWatchdog(config)
        watchdog.on_span(_execute_span(1, "t0", 1.0))
        watchdog.on_span(_execute_span(2, "slow", 50.0))
        assert all(a.kind != "tail" for a in watchdog.alerts())

    def test_same_trial_deduped(self):
        config = WatchdogConfig(straggler_min_trials=3, tail_factor=2.0)
        watchdog = CampaignWatchdog(config)
        for i in range(5):
            watchdog.on_span(_execute_span(i + 1, f"t{i}", 1.0))
        watchdog.on_span(_execute_span(10, "slow", 20.0))
        watchdog.on_span(_execute_span(11, "slow", 20.0))
        assert len([a for a in watchdog.alerts() if a.kind == "tail"]) == 1

    def test_seed_from_trials_feeds_digest(self):
        config = WatchdogConfig(straggler_min_trials=4, tail_factor=3.0)
        watchdog = CampaignWatchdog(config)
        seeded = watchdog.seed_from_trials(
            [{"trial_id": f"r{i}", "cost": {"evaluate_s": 1.0}} for i in range(6)]
        )
        assert seeded == 6
        # the very next outlier fires without any fresh trials
        watchdog.on_span(_execute_span(1, "slow", 25.0))
        assert any(a.kind == "tail" for a in watchdog.alerts())

    @pytest.mark.parametrize(
        "overrides",
        [{"tail_quantile": 0.0}, {"tail_quantile": 1.0}, {"tail_factor": -1.0}],
    )
    def test_config_validation(self, overrides):
        with pytest.raises(ValidationError):
            WatchdogConfig(**overrides)
