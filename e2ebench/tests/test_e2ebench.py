"""Tests of the end-to-end benchmark itself, at smoke size.

Run from the repository root:

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path[:0] = [str(BENCH_DIR), str(ROOT / "src")]

import run  # noqa: E402
import workloads  # noqa: E402
from repro.plantnet import BASELINE, PRELIMINARY_OPTIMUM  # noqa: E402

SMOKE = {
    "table3": dict(num_samples=4, n_initial_points=3, duration=20.0, warmup=5.0, check_optimum=False),
    "long_campaign": dict(num_samples=5, n_initial_points=3, duration=15.0, warmup=5.0),
    "diurnal_week": dict(users=100_000, days=1),
}


def declared() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }


@pytest.fixture(params=sorted(SMOKE))
def smoke(request, monkeypatch):
    name = request.param
    small = dataclasses.replace(workloads.WORKLOADS[name], **SMOKE[name])
    monkeypatch.setitem(workloads.WORKLOADS, name, small)
    return name


def run_bench(name: str, trace: int, capsys) -> tuple[dict, dict]:
    record = run.main(["--workload", name, "--seconds", "0", "--trace", str(trace)])
    last = capsys.readouterr().out.strip().splitlines()[-1]
    return record, json.loads(last)


def test_untraced_smoke_run_reports_declared_metrics(smoke, capsys):
    record, summary = run_bench(smoke, 0, capsys)
    assert set(summary) == {"correct", "attempted", "failed", "metrics"}
    assert summary["correct"], record["checks"]
    assert summary["failed"] == 0 and summary["attempted"] >= 1
    units = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert units == declared()["end_to_end"]
    assert all(v["value"] > 0 for v in summary["metrics"].values())
    host = record["host"]
    assert host["nproc"] >= 1 and host["python"] and host["numpy"] and host["source_sha256"]
    for op in ("wall", "norm_wall"):
        assert record["ops"][op]["count"] == len(record["ops"][op]["samples"]) == 1
    assert record["info"]["wall_s"] > 0


def test_traced_smoke_run_layers_add_up(smoke, capsys):
    record, summary = run_bench(smoke, 1, capsys)
    assert summary["correct"], record["checks"]
    metrics = {k: v["value"] for k, v in summary["metrics"].items()}
    units = {k: v["unit"] for k, v in summary["metrics"].items()}
    assert units == declared()["per_layer"]
    self_times = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
    assert metrics["unattributed_s"] >= 0.0
    assert self_times + metrics["unattributed_s"] == pytest.approx(metrics["trace.wall_s"], rel=1e-9)
    assert metrics["engine.runs"] >= 1 and metrics["simcore.events"] > 0
    spans = (ROOT / record["info"]["spans_file"]).read_text().splitlines()
    assert len(spans) == record["info"]["spans"] > 0


def test_tracing_is_removed_after_the_traced_run():
    from repro.simcore.core import Environment
    from repro.surrogate.forest import ExtraTreesRegressor

    import tracing

    before = (Environment.run, ExtraTreesRegressor.__dict__.get("fit"))
    with tracing.installed(tracing.SpanRecorder()):
        assert Environment.run is not before[0]
        assert "fit" in ExtraTreesRegressor.__dict__
    assert (Environment.run, ExtraTreesRegressor.__dict__.get("fit")) == before


def test_paced_call_is_cut_at_simulation_runs_and_unpatched_after(monkeypatch):
    from repro.simcore.core import Environment

    import pacing

    monkeypatch.setattr(pacing, "STEP_S", 0.0)
    original = Environment.__dict__["run"]
    clock = pacing.SpeedClock()
    with pacing.paced(clock):
        assert Environment.__dict__["run"] is not original
        Environment().run(until=1.0)
    assert Environment.__dict__["run"] is original
    # block start -> run start -> run end -> block end
    assert len(clock.steps) == 3
    assert all(before > 0 and after > 0 for _, before, after in clock.steps)


def test_each_step_is_rescaled_by_its_bracketing_bursts():
    import pacing

    clock = pacing.SpeedClock()
    ref = pacing.REF_BURST_S
    # a step at reference speed, then one while the host ran at half speed
    clock.steps = [(1.0, ref, ref), (2.0, 1.5 * ref, 2.5 * ref)]
    assert clock.wall_s == pytest.approx(3.0)
    assert clock.norm_s == pytest.approx(2.0)


def test_optimum_check_accepts_table3_optimum_and_rejects_baseline():
    table3 = workloads.WORKLOADS["table3"]
    baseline_s = table3._baseline_s(2021)

    def rep_for(config) -> workloads.Rep:
        summary = type("Summary", (), {"best_configuration": config.to_dict()})()
        return workloads.Rep(seed=2021, wall_s=0.0, result=summary)

    assert all(c.ok for c in table3._optimum_checks(rep_for(PRELIMINARY_OPTIMUM), baseline_s))
    checks = {c.name: c.ok for c in table3._optimum_checks(rep_for(BASELINE), baseline_s)}
    assert checks == {"optimum_near_table3[2021]": True, "optimum_beats_baseline[2021]": False}


def test_tail_is_the_highest_percentile_with_ten_samples_beyond():
    assert run.tail(list(range(10))) is None
    value, pct, n = run.tail([float(i) for i in range(1, 46)])
    assert (pct, n) == (77, 45)
    assert sum(1 for i in range(1, 46) if i > value) == 10


def test_rep_seeds_are_reproducible_and_distinct():
    seeds = [run.rep_seed(2021, i) for i in range(5)]
    assert seeds[0] == 2021
    assert seeds == [run.rep_seed(2021, i) for i in range(5)]
    assert len(set(seeds)) == 5


def test_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / BENCH_DIR.name, ignore=shutil.ignore_patterns("work", "results", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "table3", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
