"""Tests for the cross-process telemetry fabric.

Workers in a process pool record spans locally; the parent merges them
back with ``runner_id``/``pid`` attribution and derives digests and metrics
from the merged spans once. The end-to-end tests run real process-executor
campaigns and assert every trial's trace carries a worker-side
``evaluate`` span and that worker-side engine metrics reach the parent.
"""

import math

import pytest

import repro.observability as obs
from repro.bayesopt import Integer, Space
from repro.observability import fabric
from repro.observability.trace import RecordingTracer, get_tracer, set_tracer
from repro.search import RandomSearch, TrialStatus, run


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    set_tracer(None)


def _space():
    return Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])


def _objective(config):
    return (config["a"] - 21) ** 2 + (config["b"] - 4) ** 2


def _worker_payload():
    """Build a fabric payload the way a worker would (fresh local state)."""
    tracer = RecordingTracer()
    with tracer.span("evaluate", trial_id="t0"):
        with tracer.span("des_run"):
            pass
        with tracer.span("cycle:reconfigure") as span:
            span.set("evaluation_s", 0.25)
    return {
        "schema": fabric.FABRIC_SCHEMA,
        "pid": 4242,
        "runner_id": "exp/w4242",
        "epoch_unix": tracer.started_at,
        "spans": [s.to_dict() for s in tracer.drain()],
    }


class TestSpanIngest:
    def test_ids_remapped_parentage_preserved(self):
        parent_tracer = RecordingTracer()
        payload = _worker_payload()
        with parent_tracer.span("trial:t0") as trial_span:
            merged = fabric.merge_payload(
                payload,
                tracer=parent_tracer,
                parent=trial_span,
                attributes={"trial_id": "t0"},
            )
        assert merged == 3
        spans = {s.name: s for s in parent_tracer.finished()}
        evaluate = spans["evaluate"]
        des = spans["des_run"]
        trial = spans["trial:t0"]
        # worker root attaches to the trial span; intra-payload parentage kept
        assert evaluate.parent_id == trial.span_id
        assert des.parent_id == evaluate.span_id
        assert des.span_id != evaluate.span_id

    def test_attribution_stamped(self):
        parent_tracer = RecordingTracer()
        fabric.merge_payload(
            _worker_payload(),
            tracer=parent_tracer,
            attributes={"trial_id": "t0"},
        )
        for span in parent_tracer.finished():
            assert span.attributes["runner_id"] == "exp/w4242"
            assert span.attributes["pid"] == 4242
            assert span.attributes["trial_id"] == "t0"

    def test_metrics_and_perf_merged(self):
        tracer = RecordingTracer()
        fabric.merge_payload(_worker_payload(), tracer=tracer)
        # neither metrics nor digests travel in the payload: the worker's
        # spans are metered and digested once, in the parent, as they merge
        assert tracer.metrics.counter("repro_evaluations_total").value() == 1
        evaluation = tracer.metrics.histogram("repro_evaluation_seconds").snapshot()
        assert (evaluation["count"], evaluation["sum"]) == (1, 0.25)
        assert {op: len(s) for op, s in tracer.perf.ops().items()} == {
            "des_run": 1,
            "reconfigure": 1,
        }

    def test_merged_spans_stream_to_subscribers(self):
        parent_tracer = RecordingTracer()
        seen = []
        parent_tracer.subscribe(seen.append)
        fabric.merge_payload(_worker_payload(), tracer=parent_tracer)
        assert {s.name for s in seen} == {"evaluate", "des_run", "cycle:reconfigure"}

    def test_malformed_payload_dropped_not_fatal(self):
        tracer = RecordingTracer()
        merged = fabric.merge_payload(
            {"schema": "wrong/1", "spans": [{"bad": True}]}, tracer=tracer
        )
        assert merged == 0
        dropped = tracer.metrics.counter(
            "repro_fabric_merge_dropped_total", "malformed fabric entries dropped during merge"
        )
        assert sum(v for _, v in dropped.series()) == 1

    def test_malformed_span_entries_dropped(self):
        payload = _worker_payload()
        payload["spans"].append({"garbage": 1})
        tracer = RecordingTracer()
        merged = fabric.merge_payload(payload, tracer=tracer)
        assert merged == 3

    def test_clock_rebased_into_parent_timeline(self):
        parent_tracer = RecordingTracer()
        payload = _worker_payload()
        # pretend the worker epoch was 100s after the parent epoch
        payload["epoch_unix"] = parent_tracer.started_at + 100.0
        fabric.merge_payload(payload, tracer=parent_tracer)
        for span in parent_tracer.finished():
            assert span.start_s >= 100.0

    def test_self_metric_counters(self):
        tracer = RecordingTracer()
        with tracer.span("x"):
            pass
        assert tracer.spans_recorded == 1

        def _broken(span):
            raise RuntimeError("bad consumer")

        tracer.subscribe(_broken)
        with tracer.span("y"):
            pass
        assert tracer.subscriber_errors == 1
        assert tracer.spans_recorded == 2


class TestWorkerLifecycle:
    def test_drain_outside_worker_is_none(self):
        assert fabric.drain_worker() is None
        assert not fabric.worker_active()

    def test_drained_payload_carries_spans_only(self):
        saved_id = (fabric._runner_id, fabric._activated_pid)
        try:
            fabric.activate_worker("drain")
            with get_tracer().span("evaluate", trial_id="t0"):
                pass
            payload = fabric.drain_worker()
        finally:
            fabric._runner_id, fabric._activated_pid = saved_id
        assert set(payload) == {"schema", "pid", "runner_id", "epoch_unix", "spans"}
        assert [span["name"] for span in payload["spans"]] == ["evaluate"]

    def test_export_includes_tracer_self_metrics(self, tmp_path):
        tracer = obs.enable()
        with tracer.span("x"):
            pass
        obs.export(tmp_path)
        import json

        metrics = json.loads((tmp_path / "metrics.json").read_text())
        names = {family["name"] for family in metrics["metrics"]}
        assert "repro_tracer_spans_recorded" in names
        assert "repro_tracer_subscriber_errors" in names
        obs.disable()


class TestProcessExecutorEndToEnd:
    def test_worker_spans_merged_with_attribution(self):
        """Acceptance: a process campaign yields worker-side evaluate spans
        (runner_id/pid stamped) for every trial, plus merged digests."""
        tracer = obs.enable()
        registry = tracer.metrics
        try:
            analysis = run(
                _objective,
                search_alg=RandomSearch(_space(), seed=5),
                metric="loss",
                num_samples=4,
                executor="process",
                max_workers=2,
                name="fabric-e2e",
            )
            assert all(t.status is TrialStatus.TERMINATED for t in analysis.trials)
            spans = tracer.finished()
            evaluates = [s for s in spans if s.name == "evaluate"]
            by_trial = {s.attributes.get("trial_id") for s in evaluates}
            assert by_trial == {t.trial_id for t in analysis.trials}
            for span in evaluates:
                assert str(span.attributes["runner_id"]).startswith("fabric-e2e/w")
                assert isinstance(span.attributes["pid"], int)
                # adopted by the trial span
                parent = next(
                    s for s in spans if s.span_id == span.parent_id
                )
                assert parent.name == f"trial:{span.attributes['trial_id']}"
            # worker-measured costs landed on the trials
            for trial in analysis.trials:
                assert trial.cost["evaluate_s"] <= trial.runtime_s + 1e-9
            # latency samples: one per trial and op, each from one span
            ops = tracer.perf.ops()
            assert len(ops["suggest"]) == 4
            assert len(ops["evaluate"]) == 4
            assert len(ops["queue_wait"]) == 4
            # merge accounting
            merged = registry.counter(
                "repro_fabric_merged_spans_total",
                "worker spans merged into the parent tracer",
            )
            assert sum(v for _, v in merged.series()) >= 4
        finally:
            obs.disable()

    def test_process_campaign_without_observability_still_works(self):
        analysis = run(
            _objective,
            search_alg=RandomSearch(_space(), seed=6),
            metric="loss",
            num_samples=3,
            executor="process",
            max_workers=2,
        )
        assert all(t.status is TrialStatus.TERMINATED for t in analysis.trials)
        assert not get_tracer().enabled
        assert get_tracer().metrics is None
        assert get_tracer().perf is None

    def test_perf_profile_has_hot_path_percentiles(self, tmp_path):
        """Acceptance: perf_profile.json reports p50/p90/p99 for the
        suggest / tell / evaluate / queue-wait ops."""
        import json

        obs.enable()
        try:
            run(
                _objective,
                search_alg=RandomSearch(_space(), seed=7),
                metric="loss",
                num_samples=4,
                executor="process",
                max_workers=2,
                name="fabric-profile",
            )
            obs.export(tmp_path)
        finally:
            obs.disable()
        profile = json.loads((tmp_path / "perf_profile.json").read_text())
        for op in ("suggest", "tell", "evaluate", "queue_wait"):
            entry = profile["ops"][op]
            for key in ("p50", "p90", "p99"):
                assert math.isfinite(entry[key]), (op, key)
        prom = (tmp_path / "metrics.prom").read_text()
        assert 'repro_latency_seconds{op="evaluate",quantile="0.99"}' in prom
