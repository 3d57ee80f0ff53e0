"""Tests for the observability layer: tracing, metrics, profiling, report."""

import json
import math
import threading

import pytest

from repro import simcore
from repro.bayesopt import Integer, Space
from repro.errors import ValidationError
from repro.monitoring import MetricCollector
from repro.observability import (
    CostBreakdown,
    MetricsRegistry,
    NoopTracer,
    RecordingTracer,
    Span,
    aggregate_costs,
    get_tracer,
    load_run,
    load_spans,
    render_report,
    set_tracer,
    tracing,
)
from repro.search import RandomSearch, run


@pytest.fixture(autouse=True)
def _clean_globals():
    """Never leak a tracer (and its registry) into other tests."""
    yield
    set_tracer(None)


def _space():
    return Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])


def _objective(config):
    return (config["a"] - 21) ** 2 + (config["b"] - 4) ** 2


class TestTracer:
    def test_default_is_noop(self):
        tracer = get_tracer()
        assert isinstance(tracer, NoopTracer)
        assert not tracer.enabled
        with tracer.span("anything", attr=1) as span:
            assert span.set("k", "v") is span  # chainable, absorbed
        assert tracer.current() is None

    def test_noop_allocates_nothing(self):
        tracer = NoopTracer()
        assert tracer.span("a") is tracer.span("b")  # shared context
        assert tracer.start_span("a") is tracer.start_span("b")  # shared span

    def test_nesting_and_parents(self):
        tracer = RecordingTracer()
        with tracer.span("outer") as outer:
            with tracer.span("inner") as inner:
                assert tracer.current() is inner
            assert tracer.current() is outer
        spans = {s.name: s for s in tracer.finished()}
        assert spans["outer"].parent_id is None
        assert spans["inner"].parent_id == spans["outer"].span_id
        assert spans["inner"].duration_s <= spans["outer"].duration_s

    def test_error_status(self):
        tracer = RecordingTracer()
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("kaput")
        (span,) = tracer.finished()
        assert span.status == "error"
        assert "kaput" in span.error

    def test_explicit_parent_cross_thread(self):
        tracer = RecordingTracer()
        parent = tracer.start_span("root")

        def worker():
            with tracer.span("child", parent=parent):
                pass

        t = threading.Thread(target=worker)
        t.start()
        t.join()
        tracer.end_span(parent)
        spans = {s.name: s for s in tracer.finished()}
        assert spans["child"].parent_id == spans["root"].span_id

    def test_backdated_start(self):
        tracer = RecordingTracer()
        now = tracer.clock()
        span = tracer.start_span("late", start=now - 5.0)
        tracer.end_span(span)
        assert span.duration_s >= 5.0

    def test_sim_clock(self):
        sim_now = [0.0]
        tracer = RecordingTracer()
        with tracer.span("sim", sim_clock=lambda: sim_now[0]) as span:
            sim_now[0] = 42.0
        assert span.sim_start == 0.0
        assert span.sim_end == 42.0
        assert span.sim_duration == 42.0
        assert "_sim_clock" not in span.attributes  # popped at end

    def test_jsonl_roundtrip(self, tmp_path):
        tracer = RecordingTracer()
        with tracer.span("a", answer=42):
            with tracer.span("b"):
                pass
        path = tracer.export_jsonl(tmp_path / "spans.jsonl")
        loaded = load_spans(path)
        assert [s.name for s in loaded] == ["b", "a"]  # completion order
        assert loaded[1].attributes == {"answer": 42}
        assert all(isinstance(s, Span) for s in loaded)

    def test_tracing_context_restores_previous(self):
        before = get_tracer()
        with tracing() as tracer:
            assert get_tracer() is tracer
            assert tracer.enabled
        assert get_tracer() is before


class TestMetricsRegistry:
    def test_counter(self):
        reg = MetricsRegistry()
        c = reg.counter("hits", "hit count")
        c.inc()
        c.inc(2.5)
        assert c.value() == 3.5
        with pytest.raises(ValidationError):
            c.inc(-1)

    def test_gauge_labels(self):
        reg = MetricsRegistry()
        g = reg.gauge("depth", labelnames=("pool",))
        g.set(3, pool="http")
        g.inc(pool="http")
        g.dec(2, pool="http")
        assert g.value(pool="http") == 2.0
        assert math.isnan(g.value(pool="unseen"))
        with pytest.raises(ValidationError):
            g.set(1)  # missing required label

    def test_histogram_snapshot(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0, 10.0))
        for v in (0.5, 0.7, 5.0, 100.0):
            h.observe(v)
        snap = h.snapshot()
        assert snap["count"] == 4
        assert snap["sum"] == pytest.approx(106.2)
        assert snap["buckets"]["1.0"] == 2
        assert snap["buckets"]["10.0"] == 3
        assert snap["buckets"]["+Inf"] == 4

    def test_get_or_create_and_kind_conflict(self):
        reg = MetricsRegistry()
        assert reg.counter("x") is reg.counter("x")
        with pytest.raises(ValidationError):
            reg.gauge("x")

    def test_prometheus_rendering(self):
        reg = MetricsRegistry()
        reg.counter("evals_total", "evals").inc(3)
        reg.gauge("busy", labelnames=("pool",)).set(0.5, pool="http")
        reg.histogram("secs", buckets=(1.0,)).observe(0.2)
        text = reg.render_prometheus()
        assert "# TYPE evals_total counter" in text
        assert "evals_total 3.0" in text
        assert 'busy{pool="http"} 0.5' in text
        assert 'secs_bucket{le="1.0"} 1' in text
        assert 'secs_bucket{le="+Inf"} 1' in text
        assert "secs_count 1" in text

    def test_json_export(self, tmp_path):
        reg = MetricsRegistry()
        reg.counter("n").inc(7)
        data = json.loads((reg.export_json(tmp_path / "m.json")).read_text())
        (metric,) = data["metrics"]
        assert metric["name"] == "n"
        assert metric["series"][0]["value"] == 7.0

    def test_null_registry_is_inert(self):
        """With tracing off there is no registry to publish into at all."""
        from repro.engine import BASELINE_CONFIG, simulate_engine

        assert NoopTracer().metrics is None
        assert get_tracer().metrics is None
        simulate_engine(BASELINE_CONFIG, 10, duration=30.0, warmup=5.0, seed=1)
        assert get_tracer().metrics is None


class TestCostBreakdown:
    def test_aggregate_and_fractions(self):
        costs = [
            {"suggest_s": 1.0, "evaluate_s": 8.0, "tell_s": 1.0},
            {"suggest_s": 1.0, "evaluate_s": 8.0},
        ]
        agg = aggregate_costs(costs)
        assert agg.trials == 2
        assert agg.total_s == pytest.approx(19.0)
        assert agg.fractions()["evaluate_s"] == pytest.approx(16.0 / 19.0)
        d = agg.to_dict()
        assert d["trials"] == 2
        assert d["mean_per_trial"]["suggest_s"] == pytest.approx(1.0)

    def test_empty(self):
        agg = aggregate_costs([])
        assert agg == CostBreakdown()
        assert agg.total_s == 0.0
        assert all(v == 0.0 for v in agg.fractions().values())


class TestLoopStats:
    def test_disabled_by_default(self):
        env = simcore.Environment()
        assert env.stats is None

    def test_counts_events_and_depth(self):
        env = simcore.Environment()
        stats = env.enable_stats()

        def proc(env):
            for _ in range(5):
                yield env.timeout(1.0)

        env.process(proc(env))
        env.process(proc(env))
        env.run()
        assert stats.events_processed > 0
        assert stats.max_queue_depth >= 1
        snap = stats.snapshot(env.now)
        assert snap["events_processed"] == stats.events_processed
        assert snap["wall_s"] >= 0.0
        assert "sim_wall_ratio" in snap

    @staticmethod
    def _deepest_at_an_in_place_grant(env):
        """The heap is deepest (4) only when run() grants a claim in place."""
        pool = simcore.Resource(env, capacity=1)

        def proc():
            for _ in range(3):
                env.timeout(10.0)
            req = pool.request()
            yield req
            pool.release(req)
            yield env.event()  # parked: no completion event is pushed

        env.process(proc())

    def test_run_derives_what_step_counts(self):
        fields = []
        for stepped in (True, False):
            env = simcore.Environment()
            stats = env.enable_stats()
            self._deepest_at_an_in_place_grant(env)
            if stepped:
                while env.peek() < float("inf"):
                    env.step()
            else:
                env.run()
            fields.append(
                (
                    stats.events_processed,
                    stats.first_event_time,
                    stats.last_event_time,
                    stats.max_queue_depth,
                )
            )
        assert fields[0] == fields[1] == (5, 0.0, 10.0, 4)


class TestCollectorBridge:
    def _env_with_collector(self, **kwargs):
        env = simcore.Environment()
        value = [0.0]

        def proc(env):
            while True:
                yield env.timeout(1.0)
                value[0] += 1.0

        env.process(proc(env))
        collector = MetricCollector(env, interval=10.0, **kwargs)
        collector.add_probe("v", lambda: value[0])
        collector.start()
        return env, collector

    def test_sample_at_start_adds_t0_sample(self):
        env, collector = self._env_with_collector()
        env.run(until=90.0)
        baseline = len(collector.series["v"])

        env2, collector2 = self._env_with_collector(sample_at_start=True)
        env2.run(until=90.0)
        assert len(collector2.series["v"]) == baseline + 1
        assert collector2.series["v"].times[0] == 0.0

    def test_publishes_into_registry(self):
        reg = MetricsRegistry()
        env, collector = self._env_with_collector(sample_at_start=True, registry=reg)
        env.run(until=30.0)
        gauge = reg.gauge("monitor_probe_value", labelnames=("probe",))
        assert gauge.value(probe="v") == collector.series["v"].values[-1]
        assert reg.counter("monitor_samples_total").value() == len(collector.series["v"])

    def test_defaults_to_global_null_registry(self):
        env, collector = self._env_with_collector()
        env.run(until=30.0)  # tracing off: nothing to publish into
        assert len(collector.series["v"]) == 2  # t=10, t=20; no t=0 sample

    def test_defaults_to_tracer_registry(self):
        with tracing() as tracer:
            env, collector = self._env_with_collector()
            env.run(until=30.0)
        assert tracer.metrics.counter("monitor_samples_total").value() == 2


class TestRunnerTracing:
    def test_spans_and_costs_per_trial(self):
        with tracing() as tracer:
            analysis = run(
                _objective,
                search_alg=RandomSearch(_space(), seed=0),
                metric="loss",
                num_samples=4,
            )
        spans = tracer.finished()
        by_name = {}
        for s in spans:
            by_name.setdefault(s.name, []).append(s)
        trial_spans = [s for s in spans if s.name.startswith("trial:")]
        assert len(trial_spans) == 4
        assert len(by_name["suggest"]) == 4
        assert len(by_name["execute"]) == 4
        assert len(by_name["tell"]) == 4
        trial_ids = {s.span_id for s in trial_spans}
        for child in by_name["suggest"] + by_name["execute"] + by_name["tell"]:
            assert child.parent_id in trial_ids
        for trial in analysis.trials:
            assert set(trial.cost) == {"suggest_s", "evaluate_s", "tell_s"}
        profile = analysis.cost_profile()
        assert profile.trials == 4
        assert profile.total_s > 0

    def test_trial_span_status_on_error(self):
        def bad(config):
            raise RuntimeError("nope")

        with tracing() as tracer:
            run(bad, search_alg=RandomSearch(_space(), seed=0), metric="loss", num_samples=2)
        trial_spans = [s for s in tracer.finished() if s.name.startswith("trial:")]
        assert all(s.attributes["status"] == "error" for s in trial_spans)

    def test_thread_executor_spans_keep_parentage(self):
        with tracing() as tracer:
            run(
                _objective,
                space=_space(),
                metric="loss",
                num_samples=6,
                executor="thread",
                max_workers=3,
                seed=1,
            )
        spans = tracer.finished()
        trial_ids = {s.span_id for s in spans if s.name.startswith("trial:")}
        assert len(trial_ids) == 6
        executes = [s for s in spans if s.name == "execute"]
        assert len(executes) == 6
        assert all(s.parent_id in trial_ids for s in executes)

    def test_untraced_run_records_costs_but_no_spans(self):
        analysis = run(
            _objective, search_alg=RandomSearch(_space(), seed=0), metric="loss", num_samples=3
        )
        assert isinstance(get_tracer(), NoopTracer)
        for trial in analysis.trials:
            assert trial.cost["evaluate_s"] >= 0.0


class TestAnalysisNanHandling:
    def test_objective_history_skips_nan(self):
        calls = [0]

        def sometimes_nan(config):
            calls[0] += 1
            return math.nan if calls[0] % 2 == 0 else float(calls[0])

        analysis = run(
            sometimes_nan,
            search_alg=RandomSearch(_space(), seed=0),
            metric="loss",
            num_samples=6,
        )
        history = analysis.objective_history()
        assert len(history) == 3
        assert all(v == v for v in history)


class TestEnginePublishing:
    def test_engine_run_exports_spans_and_metrics(self):
        from repro.engine import BASELINE_CONFIG, simulate_engine

        with tracing() as tracer:
            simulate_engine(BASELINE_CONFIG, 20, duration=60.0, warmup=10.0, seed=3)
        reg = tracer.metrics
        spans = {s.name: s for s in tracer.finished()}
        assert "engine.run" in spans
        run_span = spans["engine.run"]
        assert run_span.sim_duration == pytest.approx(60.0)
        assert run_span.attributes["events_processed"] > 0
        pool_spans = [s for s in spans.values() if s.name.startswith("pool:")]
        assert {s.name for s in pool_spans} == {
            "pool:http",
            "pool:download",
            "pool:extract",
            "pool:simsearch",
        }
        assert all(s.parent_id == run_span.span_id for s in pool_spans)
        # the metrics are derived from exactly these spans
        completed = reg.counter("engine_requests_completed_total").value()
        assert completed == run_span.attributes["completed_requests"] > 0
        assert reg.counter("engine_loop_events_total").value() == (
            run_span.attributes["events_processed"]
        )
        for span in pool_spans:
            pool = span.name.split(":", 1)[1]
            assert reg.gauge("engine_pool_busy", labelnames=("pool",)).value(pool=pool) == (
                span.attributes["occupancy"]
            )
            assert reg.counter("engine_pool_grants_total", labelnames=("pool",)).value(
                pool=pool
            ) == span.attributes["grants"]

    def test_engine_untraced_no_stats_overhead(self):
        from repro.engine import BASELINE_CONFIG, simulate_engine

        result = simulate_engine(BASELINE_CONFIG, 10, duration=40.0, warmup=5.0, seed=4)
        assert result.completed_requests > 0


class TestManagerEndToEnd:
    def _conf(self, tmp_path):
        from repro.optimizer import OptimizerConf

        return OptimizerConf.from_dict(
            {
                "name": "obs_e2e",
                "variables": [
                    {"name": "a", "type": "integer", "low": 0, "high": 20},
                    {"name": "b", "type": "integer", "low": 0, "high": 20},
                ],
                "objectives": [{"metric": "loss", "mode": "min"}],
                "algorithm": {"search": "random"},
                "num_samples": 5,
                "seed": 0,
                "repeat": 1,
                "workdir": str(tmp_path),
                "observability": True,
            }
        )

    @staticmethod
    def _evaluator(config, seed=None, duration=None):
        return {"loss": (config["a"] - 7) ** 2 + (config["b"] - 3) ** 2}

    def test_traced_campaign_exports_and_reports(self, tmp_path, capsys):
        from repro.cli import main
        from repro.optimizer import OptimizationManager

        manager = OptimizationManager(self._conf(tmp_path), evaluator=self._evaluator)
        outcome = manager.run()
        run_dir = manager.run_dir

        # observability disabled again after the run
        assert isinstance(get_tracer(), NoopTracer)
        assert get_tracer().metrics is None

        spans = load_spans(run_dir / "spans.jsonl")
        names = {s.name for s in spans}
        assert "phase:optimize" in names
        assert "phase:validate" in names
        assert "experiment:obs_e2e" in names
        assert any(n.startswith("trial:") for n in names)
        assert any(n.startswith("cycle:") for n in names)
        assert any(n.startswith("validation:rep") for n in names)

        metrics = json.loads((run_dir / "metrics.json").read_text())
        by_name = {m["name"]: m for m in metrics["metrics"]}
        assert by_name["repro_evaluations_total"]["series"][0]["value"] == 5.0
        assert by_name["repro_validation_runs_total"]["series"][0]["value"] == 2.0
        assert "repro_best_value" in by_name
        assert (run_dir / "metrics.prom").read_text().startswith("# ")

        # the summary folds in the cost profile
        assert outcome.summary.cost_profile["trials"] == 5
        assert "cost profile" in outcome.summary.render()

        # the report CLI renders everything
        rc = main(["report", str(run_dir)])
        assert rc == 0
        out = capsys.readouterr().out
        assert "phase:optimize" in out
        assert "--- trials" in out
        assert "slowest spans" in out
        assert "--- metric rollups ---" in out
        assert "repro_evaluations_total" in out

    def test_untraced_campaign_exports_nothing(self, tmp_path):
        from repro.optimizer import OptimizationManager

        conf = self._conf(tmp_path)
        conf.observability = False
        manager = OptimizationManager(conf, evaluator=self._evaluator)
        outcome = manager.run()
        assert not (manager.run_dir / "spans.jsonl").exists()
        assert not (manager.run_dir / "metrics.json").exists()
        # cost profile is still recorded (cheap, always on)
        assert outcome.summary.cost_profile["trials"] == 5

    def test_load_run_requires_artifacts(self, tmp_path):
        with pytest.raises(ValidationError):
            load_run(tmp_path)

    def test_render_report_from_loaded_artifacts(self, tmp_path):
        from repro.optimizer import OptimizationManager

        manager = OptimizationManager(self._conf(tmp_path), evaluator=self._evaluator)
        manager.run()
        artifacts = load_run(manager.run_dir)
        text = render_report(artifacts, top_k=3)
        assert "=== run report" in text
        assert "obs_e2e" in text
        assert "top 3 slowest spans" in text


class TestNullInstrumentParity:
    """An instrument nothing was observed into answers every read-side call.

    Families can exist with no series (the watchdog reads the injected-fault
    counter before any fault span arrives), and reports read them back.
    """

    def test_null_histogram_snapshot(self):
        reg = MetricsRegistry()
        snap = reg.histogram("h").snapshot()
        assert snap["count"] == 0
        assert snap["sum"] == 0.0
        assert math.isnan(snap["mean"])
        assert snap["buckets"] == {}
        snap = reg.histogram("lh", labelnames=("pool",)).snapshot(pool="http")
        assert snap["count"] == 0

    def test_null_series_and_to_dict(self):
        reg = MetricsRegistry()
        assert reg.counter("c").series() == []
        assert reg.counter("c").to_dict()["series"] == []
        assert math.isnan(reg.gauge("g").value())


class TestPrometheusHistogramBuckets:
    def test_labeled_buckets_are_cumulative_and_scrapable(self):
        reg = MetricsRegistry()
        h = reg.histogram("wait_seconds", "waits", ("pool",), buckets=(0.1, 1.0, 10.0))
        for pool, values in {
            "http": (0.05, 0.5, 0.7, 5.0, 100.0),
            "extract": (0.01, 0.02),
        }.items():
            for v in values:
                h.observe(v, pool=pool)
        text = reg.render_prometheus()
        # per-label cumulative series, monotonically non-decreasing per le.
        for pool, counts in {"http": [1, 3, 4, 5], "extract": [2, 2, 2, 2]}.items():
            rendered = []
            for le in ("0.1", "1.0", "10.0", "+Inf"):
                line = next(
                    ln
                    for ln in text.splitlines()
                    if ln.startswith("wait_seconds_bucket")
                    and f'le="{le}"' in ln
                    and f'pool="{pool}"' in ln
                )
                rendered.append(int(float(line.rsplit(" ", 1)[1])))
            assert rendered == counts
            assert rendered == sorted(rendered)  # cumulative => monotone
            # +Inf equals the series count line.
            count_line = next(
                ln
                for ln in text.splitlines()
                if ln.startswith("wait_seconds_count") and f'pool="{pool}"' in ln
            )
            assert int(float(count_line.rsplit(" ", 1)[1])) == rendered[-1]

    def test_series_copies_state_for_exporters(self):
        reg = MetricsRegistry()
        h = reg.histogram("lat", buckets=(1.0,))
        h.observe(0.5)
        ((labels, value),) = h.series()
        assert labels == {}
        assert value["count"] == 1
        h.observe(0.6)  # the exported snapshot must be a copy, not a view
        assert value["count"] == 1


class TestQueueWaitSpans:
    def test_threaded_runner_emits_queue_wait(self):
        from repro.search import TrialRunner

        tracer = RecordingTracer()
        set_tracer(tracer)
        runner = TrialRunner(
            lambda config: {"objective": float(config["a"])},
            RandomSearch(_space(), seed=5),
            metric="objective",
            num_samples=4,
            executor="thread",
            max_workers=2,
        )
        runner.run()
        waits = [s for s in tracer.finished() if s.name == "queue-wait"]
        assert waits, "threaded runs must record queue-wait spans"
        assert all("trial_id" in s.attributes for s in waits)
        assert all(s.duration_s >= 0 for s in waits)
        trials = [s for s in tracer.finished() if s.name.startswith("trial:")]
        assert len(waits) == len(trials)


class TestExportedAnalyticsArtifacts:
    def test_traced_export_includes_timeline_and_trace_events(self, tmp_path):
        from repro.optimizer import OptimizationManager, OptimizerConf

        conf = OptimizerConf.from_dict(
            {
                "name": "artifacts",
                "variables": [{"name": "x", "type": "integer", "low": 0, "high": 5}],
                "objectives": [{"metric": "latency", "mode": "min"}],
                "algorithm": {"search": "random"},
                "num_samples": 3,
                "seed": 0,
                "workdir": str(tmp_path),
                "observability": True,
            }
        )
        manager = OptimizationManager(
            conf, evaluator=lambda config, **kw: {"latency": 1.0}
        )
        manager.run()
        assert (manager.run_dir / "trace_events.json").exists()
        assert (manager.run_dir / "timeline.html").exists()
        document = json.loads((manager.run_dir / "trace_events.json").read_text())
        assert document["traceEvents"]
