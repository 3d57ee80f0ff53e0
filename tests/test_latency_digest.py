"""Tests for the mergeable latency digests and the perf recorder."""

import json
import math
import random

import pytest

import repro.observability as obs
from repro.observability.digest import PERF_PROFILE_FILE, LatencyDigest, PerfRecorder
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
    def test_quantiles_on_uniform(self):
        rng = random.Random(7)
        digest = LatencyDigest()
        for _ in range(20_000):
            digest.add(rng.uniform(0.0, 1.0))
        assert digest.count == 20_000
        assert abs(digest.quantile(0.5) - 0.5) < 0.02
        assert abs(digest.quantile(0.9) - 0.9) < 0.02
        assert abs(digest.quantile(0.99) - 0.99) < 0.01

    def test_compression_bounds_memory(self):
        digest = LatencyDigest(compression=50)
        for i in range(10_000):
            digest.add(float(i))
        small = len(digest.to_dict()["means"])
        for i in range(10_000, 50_000):
            digest.add(float(i))
        big = len(digest.to_dict()["means"])
        # centroid count is O(compression), independent of observations
        assert big <= 10 * 50
        assert big <= small * 1.5 + 10
        assert digest.count == 50_000

    def test_min_max_exact(self):
        digest = LatencyDigest()
        for v in (0.5, 0.1, 0.9, 0.3):
            digest.add(v)
        assert digest.quantile(0.0) == 0.1
        assert digest.quantile(1.0) == 0.9

    def test_non_finite_skipped(self):
        digest = LatencyDigest()
        digest.add(float("nan"))
        digest.add(float("inf"))
        digest.add(1.0)
        assert digest.count == 1

    def test_empty_quantile_is_nan(self):
        assert math.isnan(LatencyDigest().quantile(0.5))

    def test_merge_matches_pooled(self):
        rng = random.Random(11)
        pooled = LatencyDigest()
        left, right = LatencyDigest(), LatencyDigest()
        for i in range(6000):
            v = rng.expovariate(10.0)
            pooled.add(v)
            (left if i % 2 else right).add(v)
        left.merge(right)
        assert left.count == pooled.count
        for q in (0.5, 0.9, 0.99):
            assert left.quantile(q) == pytest.approx(pooled.quantile(q), rel=0.1)

    def test_serialization_roundtrip(self):
        rng = random.Random(3)
        digest = LatencyDigest()
        for _ in range(2000):
            digest.add(rng.uniform(0, 2))
        clone = LatencyDigest.from_dict(json.loads(json.dumps(digest.to_dict())))
        assert clone.count == digest.count
        assert clone.quantile(0.9) == pytest.approx(digest.quantile(0.9))

    def test_samples_reconstruction(self):
        digest = LatencyDigest()
        for i in range(1000):
            digest.add(i / 1000.0)
        samples = digest.samples(cap=500)
        assert samples
        assert min(samples) >= 0.0 and max(samples) <= 1.0

    @pytest.mark.parametrize("n", [20_000, 100_000])
    def test_samples_respect_the_cap(self, n):
        """Regression: a one-sample floor per centroid overshot the cap
        (2262 samples for 100k exponential values at the default cap)."""
        rng = random.Random(5)
        digest = LatencyDigest()
        for _ in range(n):
            digest.add(rng.expovariate(1.0))
        samples = digest.samples()
        assert len(samples) == 2000
        assert samples == sorted(samples)
        assert len(digest.samples(cap=500)) == 500
        # the reconstruction still tracks the distribution
        assert samples[len(samples) // 2] == pytest.approx(digest.quantile(0.5), rel=0.05)

    def test_samples_below_the_cap_keep_every_observation(self):
        digest = LatencyDigest()
        for i in range(300):
            digest.add(float(i))
        assert len(digest.samples(cap=2000)) == 300

    def test_percentiles_rollup_keys(self):
        digest = LatencyDigest()
        digest.add(1.0)
        stats = digest.percentiles()
        assert set(stats) >= {"count", "mean", "p50", "p90", "p99"}


class TestPerfRecorder:
    def test_record_and_quantiles(self):
        perf = PerfRecorder()
        for i in range(100):
            perf.record("suggest", 0.001 * (i + 1))
        assert "suggest" in perf.ops()
        assert perf.digest("suggest").quantile(0.5) == pytest.approx(0.0505, rel=0.1)

    def test_timed_context(self):
        perf = PerfRecorder()
        with perf.timed("deploy"):
            pass
        assert perf.digest("deploy").count == 1

    def test_merge_garbage_is_safe(self):
        """Malformed worker spans are dropped at ingest, never digested."""
        parent = RecordingTracer()
        merged, dropped = parent.ingest(
            [{"name": "execute"}, {"garbage": 1}, {"name": "tell", "span_id": 1}]
        )
        assert (merged, dropped) == (0, 3)
        assert parent.perf.ops() == {}

    def test_null_recorder_is_inert(self):
        """The inert default tracer has no recorder; its spans digest nothing."""
        tracer = NoopTracer()
        assert tracer.perf is None
        with tracer.span("execute", status="terminated"):
            pass
        assert get_tracer().perf is None

    def test_global_slot(self):
        """The live recorder is the installed tracer's, on and off with it."""
        assert get_tracer().perf is None
        tracer, _ = obs.enable()
        assert isinstance(tracer.perf, PerfRecorder)
        assert get_tracer().perf is tracer.perf
        obs.disable()
        assert get_tracer().perf is None

    def test_export_and_prometheus(self, tmp_path):
        perf = PerfRecorder()
        perf.record("suggest", 0.002)
        path = perf.export_json(tmp_path / PERF_PROFILE_FILE)
        data = json.loads(path.read_text())
        assert data["schema"].startswith("repro.perf_profile/")
        entry = data["ops"]["suggest"]
        for key in ("count", "mean", "p50", "p90", "p99", "digest"):
            assert key in entry
        prom = perf.render_prometheus()
        assert 'repro_latency_seconds{op="suggest",quantile="0.5"}' in prom
        assert "summary" in prom



class TestSpanDerivedDigests:
    def test_each_mapped_span_is_one_sample(self):
        tracer = RecordingTracer()
        _finished(tracer, "suggest", 0.004, fit=False, batch=1)
        _finished(tracer, "queue-wait", 0.002)
        _finished(tracer, "execute", 0.5, status="terminated")
        _finished(tracer, "execute", 0.0, status="terminated", cache_hit=True)
        _finished(tracer, "execute", 0.3, status="timeout")
        _finished(tracer, "tell", 0.01)
        _finished(tracer, "refit", 0.2, n_obs=4)
        _finished(tracer, "cycle:deploy", 0.05)
        _finished(tracer, "cycle:execute", 0.6)  # not a digest op
        _finished(tracer, "cycle:reconfigure", 0.05)
        with tracer.span("evalcache_lookup"):
            pass
        with tracer.span("des_run"):
            pass
        counts = {op: d.count for op, d in tracer.perf.ops().items()}
        assert counts == {
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
        assert tracer.perf.digest("evaluate").sum == pytest.approx(0.5)
        assert tracer.perf.digest("suggest").sum == pytest.approx(0.004)

    def test_fit_bearing_ask_is_one_whole_sample(self):
        """A batched ask that blocked on a fit: three per-candidate suggest
        spans, one ``suggest_fit`` sample covering the whole ask."""
        tracer = RecordingTracer()
        for batch in (3, 0, 0):
            _finished(tracer, "suggest", 0.1, fit=True, batch=batch)
        ops = tracer.perf.ops()
        assert "suggest" not in ops
        assert ops["suggest_fit"].count == 1
        assert ops["suggest_fit"].sum == pytest.approx(0.3)

    def test_percentiles_from_spans(self):
        tracer = RecordingTracer()
        for i in range(100):
            _finished(tracer, "tell", 0.001 * (i + 1))
        stats = tracer.perf.digest("tell").percentiles()
        assert stats["count"] == 100
        assert stats["p50"] == pytest.approx(0.0505, rel=0.1)
        assert stats["p90"] == pytest.approx(0.0905, rel=0.1)
        assert stats["p99"] == pytest.approx(0.0995, rel=0.05)

    def test_ingested_worker_spans_digest_once_in_parent_windows(self):
        worker = RecordingTracer()
        _finished(worker, "execute", 0.25, status="terminated")
        parent = RecordingTracer()
        # the worker's epoch is 100 s after the parent's: with 30 s windows
        # the sample lands in the window of the span's rebased end (3).
        merged, dropped = parent.ingest(
            [span.to_dict() for span in worker.drain()],
            epoch_unix=parent.started_at + 100.0,
        )
        assert (merged, dropped) == (1, 0)
        assert parent.perf.digest("evaluate").count == 1
        windows = parent.perf.to_dict()["windows"]
        assert [w["index"] for w in windows] == [3]
        assert windows[0]["ops"]["evaluate"]["count"] == 1

    def test_window_series_follows_span_end(self):
        tracer = RecordingTracer()
        tracer.perf.window_s = 1.0
        for end in (0.5, 0.7, 2.5):
            span = tracer.start_span("tell", start=end - 0.1)
            tracer.end_span(span, end=end)
        windows = tracer.perf.to_dict()["windows"]
        assert [(w["index"], w["ops"]["tell"]["count"]) for w in windows] == [(0, 2), (2, 1)]



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
