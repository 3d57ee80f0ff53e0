"""Tests for the per-op latency record (exact samples) and the perf recorder."""

import json
import math
import random

import pytest

import repro.observability as obs
from repro.observability.digest import PERF_PROFILE_FILE, PerfRecorder, quantile_of, summarize
from repro.observability.perf import diff_profiles, load_profile
from repro.observability.profile import aggregate_costs
from repro.observability.trace import NoopTracer, RecordingTracer, get_tracer


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    obs.disable()


def _finished(tracer, name, duration_s, **attributes):
    """One finished span of ``name`` lasting exactly ``duration_s``."""
    end = tracer.clock()
    span = tracer.start_span(name, start=end - duration_s, **attributes)
    tracer.end_span(span, end=end)


class TestLatencyDigest:
    """The per-op latency record: exact samples and the shared quantile helper."""

    def test_quantiles_on_uniform(self):
        rng = random.Random(7)
        perf = PerfRecorder()
        for _ in range(20_000):
            perf.record("evaluate", rng.uniform(0.0, 1.0))
        stats = summarize(perf.ops()["evaluate"])
        assert stats["count"] == 20_000
        assert abs(stats["p50"] - 0.5) < 0.02
        assert abs(stats["p90"] - 0.9) < 0.02
        assert abs(stats["p99"] - 0.99) < 0.01

    def test_min_max_exact(self):
        perf = PerfRecorder()
        for v in (0.5, 0.1, 0.9, 0.3):
            perf.record("tell", v)
        ordered = sorted(perf.ops()["tell"])
        assert quantile_of(ordered, 0.0) == 0.1
        assert quantile_of(ordered, 1.0) == 0.9

    def test_non_finite_skipped(self):
        perf = PerfRecorder()
        perf.record("tell", float("nan"))
        perf.record("tell", float("inf"))
        perf.record("tell", 1.0)
        perf.record("deploy", float("-inf"))
        assert perf.ops() == {"tell": [1.0]}

    def test_empty_quantile_is_nan(self):
        assert math.isnan(quantile_of([], 0.5))
        stats = summarize([])
        assert stats["count"] == 0
        for key in ("mean", "p50", "p90", "p99"):
            assert math.isnan(stats[key])

    def test_serialization_roundtrip(self, tmp_path):
        rng = random.Random(3)
        perf = PerfRecorder()
        for _ in range(2000):
            perf.record("tell", rng.uniform(0, 2))
        perf.export_json(tmp_path / PERF_PROFILE_FILE)
        loaded = load_profile(tmp_path)["tell"]
        assert loaded.samples == perf.ops()["tell"]
        assert loaded.value("p90") == pytest.approx(summarize(perf.ops()["tell"])["p90"])

    def test_samples_below_the_cap_keep_every_observation(self):
        """There is no cap: every observation is kept, in recording order."""
        perf = PerfRecorder()
        values = [float((7 * i) % 5000) for i in range(5000)]
        for v in values:
            perf.record("des_run", v)
        assert perf.ops()["des_run"] == values
        assert perf.to_dict()["ops"]["des_run"]["samples"] == values

    def test_percentiles_rollup_keys(self):
        assert set(summarize([1.0])) == {"count", "mean", "p50", "p90", "p99"}
        perf = PerfRecorder()
        perf.record("tell", 1.0)
        entry = perf.to_dict()["ops"]["tell"]
        assert set(entry) == {"unit", "count", "samples", "mean", "p50", "p90", "p99"}


class TestPerfRecorder:
    def test_record_and_quantiles(self):
        perf = PerfRecorder()
        for i in range(100):
            perf.record("suggest", 0.001 * (i + 1))
        assert "suggest" in perf.ops()
        assert summarize(perf.ops()["suggest"])["p50"] == pytest.approx(0.0505)

    def test_timed_context(self):
        perf = PerfRecorder()
        with perf.timed("deploy"):
            pass
        assert len(perf.ops()["deploy"]) == 1

    def test_merge_garbage_is_safe(self):
        """Malformed worker spans are dropped at ingest, never recorded."""
        parent = RecordingTracer()
        merged, dropped = parent.ingest(
            [{"name": "execute"}, {"garbage": 1}, {"name": "tell", "span_id": 1}]
        )
        assert (merged, dropped) == (0, 3)
        assert parent.perf.ops() == {}

    def test_null_recorder_is_inert(self):
        """The inert default tracer has no recorder; its spans record nothing."""
        tracer = NoopTracer()
        assert tracer.perf is None
        with tracer.span("execute", status="terminated"):
            pass
        assert get_tracer().perf is None

    def test_global_slot(self):
        """The live recorder is the installed tracer's, on and off with it."""
        assert get_tracer().perf is None
        tracer = obs.enable()
        assert isinstance(tracer.perf, PerfRecorder)
        assert get_tracer().perf is tracer.perf
        obs.disable()
        assert get_tracer().perf is None

    def test_export_and_prometheus(self, tmp_path):
        perf = PerfRecorder()
        perf.record("suggest", 0.002)
        path = perf.export_json(tmp_path / PERF_PROFILE_FILE)
        data = json.loads(path.read_text())
        assert data["schema"] == "repro.perf_profile/2"
        entry = data["ops"]["suggest"]
        for key in ("unit", "count", "samples", "mean", "p50", "p90", "p99"):
            assert key in entry
        assert "windows" not in data
        prom = perf.render_prometheus()
        assert 'repro_latency_seconds{op="suggest",quantile="0.5"}' in prom
        assert 'repro_latency_seconds_count{op="suggest"} 1' in prom
        assert "summary" in prom


class TestPerfProfileRecord:
    """``perf_profile.json`` is the benchmarks' ops block plus its rollup."""

    def test_entries_carry_raw_samples_and_the_helper_rollup(self, tmp_path):
        rng = random.Random(17)
        perf = PerfRecorder()
        for _ in range(37):
            perf.record("suggest", rng.expovariate(200.0))
            perf.record("tell", rng.uniform(0.001, 0.002))
        perf.export_json(tmp_path / PERF_PROFILE_FILE)
        ops = json.loads((tmp_path / PERF_PROFILE_FILE).read_text())["ops"]
        for op, samples in perf.ops().items():
            entry = ops[op]
            assert entry["unit"] == "s"
            assert entry["samples"] == samples
            assert entry["count"] == len(samples) == 37
            ordered = sorted(samples)
            assert entry["mean"] == pytest.approx(math.fsum(samples) / len(samples))
            for key, q in (("p50", 0.5), ("p90", 0.9), ("p99", 0.99)):
                assert entry[key] == quantile_of(ordered, q)

    def test_schema_1_profile_with_a_digest_loads_as_a_rollup(self, tmp_path):
        profile = tmp_path / PERF_PROFILE_FILE
        profile.write_text(json.dumps({
            "schema": "repro.perf_profile/1",
            "window_s": 30.0,
            "ops": {
                "suggest": {
                    "count": 3.0, "mean": 0.02, "p50": 0.02, "p90": 0.028, "p99": 0.0298,
                    "sum": 0.06,
                    "digest": {
                        "compression": 100, "count": 3, "sum": 0.06, "min": 0.01,
                        "max": 0.03, "means": [0.01, 0.02, 0.03], "weights": [1, 1, 1],
                    },
                },
            },
            "windows": [],
        }))
        stats = load_profile(tmp_path)["suggest"]
        assert stats.samples is None
        assert stats.count == 3.0
        assert stats.value("p90") == pytest.approx(0.028)
        assert diff_profiles(tmp_path, tmp_path).ok

    def test_drained_worker_tracer_holds_no_samples(self):
        """A long-lived worker drains after every trial; the parent
        re-derives the samples from the shipped spans."""
        worker = RecordingTracer()
        parent = RecordingTracer()
        for _ in range(50):
            _finished(worker, "des_run", 0.002)
            _finished(worker, "execute", 0.004, status="terminated")
            parent.ingest([span.to_dict() for span in worker.drain()])
            assert worker.perf.ops() == {}
        assert worker.finished() == []
        assert {op: len(s) for op, s in parent.perf.ops().items()} == {
            "des_run": 50,
            "evaluate": 50,
        }


class TestSpanDerivedDigests:
    def test_each_mapped_span_is_one_sample(self):
        tracer = RecordingTracer()
        _finished(tracer, "suggest", 0.004)
        _finished(tracer, "queue-wait", 0.002)
        _finished(tracer, "execute", 0.5, status="terminated")
        _finished(tracer, "execute", 0.0, status="terminated", cache_hit=True)
        _finished(tracer, "execute", 0.3, status="timeout")
        _finished(tracer, "tell", 0.01)
        _finished(tracer, "refit", 0.2, n_obs=4)
        _finished(tracer, "cycle:deploy", 0.05)
        _finished(tracer, "cycle:execute", 0.6)  # not a latency op
        _finished(tracer, "cycle:reconfigure", 0.05)
        with tracer.span("evalcache_lookup"):
            pass
        with tracer.span("des_run"):
            pass
        ops = tracer.perf.ops()
        assert {op: len(samples) for op, samples in ops.items()} == {
            "suggest": 1,
            "queue_wait": 1,
            "evaluate": 1,
            "tell": 1,
            "refit": 1,
            "deploy": 1,
            "reconfigure": 1,
            "evalcache_lookup": 1,
            "des_run": 1,
        }
        assert ops["evaluate"] == [pytest.approx(0.5)]
        assert ops["suggest"] == [pytest.approx(0.004)]

    def test_fit_bearing_ask_is_one_whole_sample(self):
        """A batched ask that blocked on a fit is recorded whole in
        ``suggest``: one sample per trial (its share), summing to the ask."""
        tracer = RecordingTracer()
        for _ in range(3):
            _finished(tracer, "suggest", 0.1)
        ops = tracer.perf.ops()
        assert set(ops) == {"suggest"}
        assert ops["suggest"] == [pytest.approx(0.1)] * 3
        assert math.fsum(ops["suggest"]) == pytest.approx(0.3)

    def test_percentiles_from_spans(self):
        tracer = RecordingTracer()
        for i in range(100):
            _finished(tracer, "tell", 0.001 * (i + 1))
        stats = summarize(tracer.perf.ops()["tell"])
        assert stats["count"] == 100
        assert stats["p50"] == pytest.approx(0.0505)
        assert stats["p90"] == pytest.approx(0.0901)
        assert stats["p99"] == pytest.approx(0.09901)

    def test_ingested_worker_spans_digest_once_in_parent_windows(self):
        """A worker's span is recorded once, in the parent, as it merges."""
        worker = RecordingTracer()
        _finished(worker, "execute", 0.25, status="terminated")
        parent = RecordingTracer()
        merged, dropped = parent.ingest(
            [span.to_dict() for span in worker.drain()],
            epoch_unix=parent.started_at + 100.0,
        )
        assert (merged, dropped) == (1, 0)
        assert parent.perf.ops() == {"evaluate": [pytest.approx(0.25)]}
        assert worker.perf.ops() == {}


class TestAggregateCostsHardening:
    def test_nan_and_garbage_values_skipped(self):
        """Regression: one NaN cost must not poison the campaign profile."""
        costs = [
            {"suggest_s": 0.1, "evaluate_s": 1.0, "tell_s": 0.01},
            {"suggest_s": float("nan"), "evaluate_s": float("inf"), "tell_s": "bogus"},
            {"suggest_s": 0.3, "evaluate_s": 2.0, "tell_s": 0.03, "retries": float("nan")},
        ]
        out = aggregate_costs(costs)
        assert out.trials == 3
        assert out.suggest_s == pytest.approx(0.4)
        assert out.evaluate_s == pytest.approx(3.0)
        assert out.tell_s == pytest.approx(0.04)
        assert out.retries == 0
        assert math.isfinite(out.total_s)

    def test_percentiles_present(self):
        costs = [
            {"suggest_s": 0.1, "evaluate_s": 1.0, "tell_s": 0.01, "queue_wait_s": 0.2}
            for _ in range(5)
        ]
        out = aggregate_costs(costs)
        assert out.queue_wait_s == pytest.approx(1.0)
        for key in ("suggest_s", "evaluate_s", "tell_s", "queue_wait_s"):
            assert out.percentiles[key]["p50"] == pytest.approx(costs[0][key])
        assert "percentiles" in out.to_dict()

    def test_absent_component_stays_out_of_percentiles(self):
        out = aggregate_costs([{"suggest_s": 0.1}])
        assert "tell_s" not in out.percentiles
