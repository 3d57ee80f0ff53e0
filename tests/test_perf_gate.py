"""Tests for the perf baseline store and the regression gate.

The gate must diff clean on identical runs, fail on an injected 2x
suggest-latency regression, and read the one source shape it accepts: an
``ops`` block of raw samples (perf_profile.json, run directories,
e2ebench and BENCH_*.json records) or, for old profiles, rollups alone.
"""

import json
import math
import random
import time
from pathlib import Path

import pytest

import repro.observability as obs
from repro.bayesopt import Integer, Space
from repro.cli import main
from repro.errors import ValidationError
from repro.observability.digest import PERF_PROFILE_FILE, PerfRecorder
from repro.observability.perf import (
    BASELINE_SCHEMA,
    diff_profiles,
    load_profile,
    record_baseline,
)
from repro.search import SurrogateSearch, TrialRunner

BASELINES = Path(__file__).resolve().parent.parent / "benchmarks" / "baselines"

#: the ops the CI perf-gate compares, per committed baseline.
GATED_OPS = {
    "BENCH_campaign.json": {
        f"{arm}.{op}" for arm in ("baseline", "fast", "flat") for op in ("suggest", "tell", "trial")
    } | {"flat.suggest_tail"},
    "BENCH_eval.json": {
        "campaign.baseline.trial", "campaign.fast.trial", "des.fast.event", "des.legacy.event",
    },
    "BENCH_hybrid.json": {"hybrid.window", "des.request"},
}


def _profile(tmp_path, name, *, scale=1.0, n=200, seed=9):
    """Write a perf_profile.json with deterministic suggest/tell latencies."""
    rng = random.Random(seed)
    perf = PerfRecorder()
    for _ in range(n):
        perf.record("suggest", scale * rng.uniform(0.008, 0.012))
        perf.record("tell", rng.uniform(0.001, 0.002))
    path = tmp_path / name
    path.mkdir()
    perf.export_json(path / PERF_PROFILE_FILE)
    return path


class TestLoadProfile:
    def test_loads_profile_file_and_run_dir(self, tmp_path):
        run_dir = _profile(tmp_path, "run")
        by_dir = load_profile(run_dir)
        by_file = load_profile(run_dir / PERF_PROFILE_FILE)
        assert set(by_dir) == set(by_file) == {"suggest", "tell"}
        # a run directory carries the raw samples, like a bench record
        assert len(by_dir["suggest"].samples) == 200
        assert math.isfinite(by_dir["suggest"].value("p90"))

    def test_loads_e2ebench_record(self, tmp_path):
        # the trace-0 record shape e2ebench/run.py writes: raw samples per op
        record = {
            "benchmark": "e2ebench",
            "workload": "table3",
            "host": {"cpu_count": 4},
            "ops": {
                "wall": {"unit": "s", "count": 1, "samples": [6.0]},
                "suggest": {"unit": "s", "count": 4, "samples": [0.4, 0.1, 0.3, 0.2]},
                "evaluate": {"unit": "s", "count": 2, "samples": [0.5, 0.7]},
                "tell": {"unit": "s", "count": 3, "samples": [0.001, 0.003, 0.002]},
            },
        }
        path = tmp_path / "table3-seed2021-trace0.json"
        path.write_text(json.dumps(record))
        ops = load_profile(path)
        assert set(ops) == {"wall", "suggest", "evaluate", "tell"}
        assert ops["suggest"].samples == [0.4, 0.1, 0.3, 0.2]
        assert ops["suggest"].count == 4
        assert ops["suggest"].value("p50") == pytest.approx(0.25)
        assert ops["suggest"].value("mean") == pytest.approx(0.25)
        assert ops["wall"].value("p90") == pytest.approx(6.0)
        assert ops["tell"].value("p99") == pytest.approx(0.00298)
        assert diff_profiles(path, path).ok

    def test_loads_bench_campaign_shape(self, tmp_path):
        # per-arm percentile blocks ride along; only the ops block is read
        payload = {
            "baseline": {
                "opt_time_s": 10.0,
                "suggest": {"p50_ms": 2.0, "p90_ms": 4.0, "p99_ms": 8.0},
            },
            "n_trials": 3,
            "ops": {
                "baseline.suggest": {"unit": "s", "count": 3, "samples": [0.001, 0.002, 0.003]},
                "baseline.tell": {"unit": "s", "count": 2, "samples": [0.0005, 0.0005]},
                "baseline.trial": {"unit": "s", "count": 1, "samples": [0.02]},
            },
        }
        path = tmp_path / "BENCH_campaign.json"
        path.write_text(json.dumps(payload))
        ops = load_profile(path)
        assert set(ops) == {"baseline.suggest", "baseline.tell", "baseline.trial"}
        assert ops["baseline.suggest"].value("p50") == pytest.approx(0.002)
        assert ops["baseline.trial"].value("mean") == pytest.approx(0.02)

    def test_loads_bench_eval_shape(self, tmp_path):
        payload = {
            "campaign": {"fast": {"trials": 16, "wall_s": 8.0}},
            "des": {"fast": {"events_per_sec": 50_000.0}},
            "ops": {
                "campaign.fast.trial": {"unit": "s", "count": 1, "samples": [0.5]},
                "des.fast.event": {"unit": "s", "count": 3, "samples": [1e-5, 2e-5, 3e-5]},
            },
        }
        path = tmp_path / "BENCH_eval.json"
        path.write_text(json.dumps(payload))
        ops = load_profile(path)
        assert set(ops) == {"campaign.fast.trial", "des.fast.event"}
        assert ops["campaign.fast.trial"].value("mean") == pytest.approx(0.5)
        assert ops["des.fast.event"].value("mean") == pytest.approx(2e-5)
        assert ops["des.fast.event"].count == 3

    def test_loads_bench_hybrid_shape(self, tmp_path):
        # carries a "des" arm next to the ops block; op names come from ops only
        payload = {
            "hybrid": {"wall_s": 0.8, "des_epochs": 32},
            "des": {"wall_s": 80.0, "completed": 1_000_000},
            "speedup": 100.0,
            "ops": {
                "hybrid.window": {"unit": "s", "count": 1, "samples": [0.025]},
                "des.request": {"unit": "s", "count": 1, "samples": [8e-5]},
            },
        }
        path = tmp_path / "BENCH_hybrid.json"
        path.write_text(json.dumps(payload))
        ops = load_profile(path)
        assert set(ops) == {"hybrid.window", "des.request"}
        assert ops["hybrid.window"].value("mean") == pytest.approx(0.025)
        assert ops["des.request"].value("mean") == pytest.approx(8e-5)

    def test_non_second_unit_rejected_with_op_name(self, tmp_path):
        path = tmp_path / "bad_unit.json"
        path.write_text(json.dumps({
            "ops": {
                "tell": {"unit": "s", "count": 1, "samples": [0.1]},
                "events": {"unit": "count", "count": 1, "samples": [12.0]},
            }
        }))
        with pytest.raises(ValidationError, match="'events'"):
            load_profile(path)

    def test_old_bench_shape_rejected(self, tmp_path):
        # BENCH_*.json before the ops block: per-arm percentile blocks only
        payload = {
            "baseline": {
                "trials": 500,
                "wall_s": 10.0,
                "suggest": {"p50_ms": 2.0, "p90_ms": 4.0, "p99_ms": 8.0},
            },
            "n_trials": 500,
        }
        path = tmp_path / "BENCH_campaign.json"
        path.write_text(json.dumps(payload))
        with pytest.raises(ValidationError, match="no 'ops' block"):
            load_profile(path)

    def test_garbage_rejected(self, tmp_path):
        path = tmp_path / "junk.json"
        path.write_text('{"hello": "world"}')
        with pytest.raises(ValidationError):
            load_profile(path)
        path.write_text("not json")
        with pytest.raises(ValidationError):
            load_profile(path)
        with pytest.raises(ValidationError):
            load_profile(tmp_path / "missing.json")

    def test_committed_baselines_parse(self):
        for name, wanted in GATED_OPS.items():
            ops = load_profile(BASELINES / name)
            missing = wanted - set(ops)
            assert not missing, (name, sorted(missing))
            for op in wanted:
                assert ops[op].samples, (name, op)
                assert ops[op].value("p50") > 0, (name, op)


@pytest.mark.parametrize(
    "name,op", [(name, op) for name, ops in GATED_OPS.items() for op in sorted(ops)]
)
def test_committed_baseline_gates_a_4_5x_shift(tmp_path, name, op):
    # the CI gate (--threshold 3.0) must fail when one gated op's samples
    # grow 4.5x and every other op is unchanged
    doc = json.loads((BASELINES / name).read_text())
    doc["ops"][op]["samples"] = [4.5 * v for v in doc["ops"][op]["samples"]]
    scaled = tmp_path / name
    scaled.write_text(json.dumps(doc))
    diff = diff_profiles(BASELINES / name, scaled, threshold=3.0)
    assert {row["op"] for row in diff.regressions} == {op}
    assert main(["perf", "diff", str(BASELINES / name), str(scaled), "--threshold", "3.0"]) == 1


class TestRawSampleBootstrap:
    @staticmethod
    def _record(tmp_path, name, samples):
        path = tmp_path / name
        path.write_text(json.dumps(
            {"ops": {"suggest": {"unit": "s", "count": len(samples), "samples": samples}}}
        ))
        return path

    def test_identical_samples_diff_clean(self, tmp_path):
        rng = random.Random(3)
        samples = [rng.uniform(0.008, 0.012) for _ in range(120)]
        path = self._record(tmp_path, "base.json", samples)
        diff = diff_profiles(path, path, threshold=0.25)
        assert diff.ok
        assert [row["verdict"] for row in diff.rows] == ["ok", "ok"]

    def test_2x_shift_fails(self, tmp_path):
        rng = random.Random(3)
        samples = [rng.uniform(0.008, 0.012) for _ in range(120)]
        base = self._record(tmp_path, "base.json", samples)
        slow = self._record(tmp_path, "slow.json", [2.0 * v for v in samples])
        diff = diff_profiles(base, slow, threshold=0.25)
        assert not diff.ok
        assert {row["stat"] for row in diff.regressions} == {"p50", "p90"}
        # the bootstrap ran on the raw samples and confirmed the shift
        assert all(row["significant"] is True for row in diff.regressions)

    def test_bootstrap_rejects_a_noise_shift(self, tmp_path):
        # one outlier moves the p90 point ratio past the threshold, but
        # resampling the raw samples shows the shift is not significant
        base = self._record(tmp_path, "base.json", [0.01] * 27 + [0.05] * 3)
        cand = self._record(tmp_path, "cand.json", [0.01] * 26 + [0.05] * 4)
        diff = diff_profiles(base, cand, threshold=0.25, stats=("p90",))
        assert diff.ok
        assert [row["verdict"] for row in diff.rows] == ["noise"]


class TestRecordBaseline:
    def test_roundtrip(self, tmp_path):
        run_dir = _profile(tmp_path, "run")
        out = record_baseline(run_dir, tmp_path / "baseline.json")
        data = json.loads(out.read_text())
        assert data["schema"] == BASELINE_SCHEMA
        ops = load_profile(out)
        assert ops["suggest"].samples == load_profile(run_dir)["suggest"].samples
        # recorded baseline diffs clean against its own source
        assert diff_profiles(out, run_dir).ok

    def test_roundtrip_keeps_raw_samples(self, tmp_path):
        source = tmp_path / "record.json"
        samples = [0.01 * (i % 7 + 1) for i in range(30)]
        source.write_text(json.dumps(
            {"ops": {"tell": {"unit": "s", "count": 30, "samples": samples}}}
        ))
        out = record_baseline(source, tmp_path / "baseline.json")
        assert load_profile(out)["tell"].samples == samples
        assert diff_profiles(out, source).ok


class TestDiffProfiles:
    def test_identical_runs_diff_clean(self, tmp_path):
        run = _profile(tmp_path, "run")
        diff = diff_profiles(run, run)
        assert diff.ok
        assert diff.rows
        assert all(row["verdict"] == "ok" for row in diff.rows)

    def test_2x_suggest_regression_fails(self, tmp_path):
        base = _profile(tmp_path, "base", seed=9)
        slow = _profile(tmp_path, "slow", scale=2.0, seed=10)
        diff = diff_profiles(base, slow)
        assert not diff.ok
        ops_with_regression = {row["op"] for row in diff.regressions}
        assert "suggest" in ops_with_regression
        # tell is untouched
        assert all(row["op"] != "tell" for row in diff.regressions)
        assert "REGRESSION" in diff.render()

    def test_improvement_verdict(self, tmp_path):
        base = _profile(tmp_path, "base", scale=2.0, seed=9)
        fast = _profile(tmp_path, "fast", scale=1.0, seed=10)
        diff = diff_profiles(base, fast)
        assert diff.ok
        assert any(row["op"] == "suggest" for row in diff.improvements)

    def test_one_sided_ops_skipped(self, tmp_path):
        base = _profile(tmp_path, "base")
        extra = load_profile(base)
        trimmed = {op: s for op, s in extra.items() if op != "tell"}
        diff = diff_profiles(extra, trimmed)
        assert diff.ok
        assert any(entry.startswith("tell") for entry in diff.skipped)

    def test_ops_filter(self, tmp_path):
        base = _profile(tmp_path, "base")
        slow = _profile(tmp_path, "slow", scale=2.0)
        diff = diff_profiles(base, slow, ops=["tell"])
        assert diff.ok  # the regressed suggest op was filtered out

    def test_bad_threshold(self, tmp_path):
        run = _profile(tmp_path, "run")
        with pytest.raises(ValidationError):
            diff_profiles(run, run, threshold=0.0)

    def test_serializable(self, tmp_path):
        run = _profile(tmp_path, "run")
        report = diff_profiles(run, run).to_dict()
        json.dumps(report)
        assert report["ok"] is True


class TestPerfCli:
    def test_record_then_diff_exit_codes(self, tmp_path, capsys):
        run = _profile(tmp_path, "run")
        baseline = tmp_path / "baseline.json"
        assert main(["perf", "record", str(run), "--out", str(baseline)]) == 0
        # identical candidate: exit 0
        assert main(["perf", "diff", str(baseline), str(run)]) == 0
        out = capsys.readouterr().out
        assert "perf diff" in out
        # regressed candidate: exit 1 + machine-readable report
        slow = _profile(tmp_path, "slow", scale=2.0, seed=10)
        report = tmp_path / "report.json"
        code = main(
            ["perf", "diff", str(baseline), str(slow), "--report", str(report)]
        )
        assert code == 1
        data = json.loads(report.read_text())
        assert data["ok"] is False
        assert data["regressions"]

    def test_record_bad_source_exits_nonzero(self, tmp_path):
        bad = tmp_path / "junk.json"
        bad.write_text("[]")
        with pytest.raises(SystemExit):
            main(["perf", "record", str(bad), "--out", str(tmp_path / "b.json")])

    def test_custom_quantiles_and_threshold(self, tmp_path, capsys):
        base = _profile(tmp_path, "base")
        slow = _profile(tmp_path, "slow", scale=1.4, seed=10)
        # generous threshold: the 1.4x shift passes
        assert (
            main(
                [
                    "perf", "diff", str(base), str(slow),
                    "--threshold", "0.6", "--quantiles", "p50",
                ]
            )
            == 0
        )
        capsys.readouterr()


class TestRunDirectoryAgainstItsBenchRecord:
    """A run directory and a bench record of the same run are one ops block."""

    @staticmethod
    def _ops_block(trials):
        """The ops block a benchmark builds from trial costs (as e2ebench does)."""
        ops = {}
        for key in ("suggest_s", "evaluate_s", "tell_s"):
            values = [t.cost[key] for t in trials if key in t.cost]
            if values:
                ops[key[: -len("_s")]] = values
        return {op: {"unit": "s", "count": len(v), "samples": v} for op, v in ops.items()}

    def test_traced_sync_campaign_diffs_clean_against_its_trial_costs(self, tmp_path):
        def trainable(config):
            time.sleep(0.002)
            return {"loss": float((config["a"] - 21) ** 2 + (config["b"] - 4) ** 2)}

        space = Space([Integer(0, 30, name="a"), Integer(0, 10, name="b")])
        # ET after three initial points: every later ask blocks on a fit.
        search = SurrogateSearch(space, base_estimator="ET", n_initial_points=3, random_state=0)
        runner = TrialRunner(trainable, search, metric="loss", num_samples=10, name="parity")
        run_dir = tmp_path / "run"
        obs.enable()
        try:
            analysis = runner.run()
            obs.export(run_dir)
        finally:
            obs.disable()
        trials = analysis.trials
        bench = tmp_path / "bench.json"
        bench.write_text(json.dumps({"ops": self._ops_block(trials)}))
        run_ops = load_profile(run_dir)
        bench_ops = load_profile(bench)
        for op, key in (("suggest", "suggest_s"), ("tell", "tell_s")):
            assert run_ops[op].samples == pytest.approx([t.cost[key] for t in trials])
        for op in ("suggest", "evaluate", "tell"):
            assert run_ops[op].count == bench_ops[op].count == len(trials)
        diff = diff_profiles(run_ops, bench_ops, threshold=0.05, stats=("p50", "p90", "mean"))
        assert {row["op"] for row in diff.rows} == {"suggest", "evaluate", "tell"}
        assert diff.regressions == [], diff.render()
