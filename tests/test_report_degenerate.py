"""Report/dashboard CLIs against degenerate run directories.

A run that crashed early, exported nothing but spans, or recorded zero
trials must still render — the observability surface is most needed
exactly when the run went wrong.
"""

import json

import pytest

import repro.observability as obs
from repro.cli import main
from repro.errors import ValidationError
from repro.observability import load_run, render_report
from repro.observability.digest import PERF_PROFILE_FILE
from repro.observability.metrics import set_registry
from repro.observability.trace import set_tracer


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    set_tracer(None)
    set_registry(None)


def _minimal_run(tmp_path, *, spans=True, perf=True):
    """Export a tiny but real run directory, optionally dropping artifacts."""
    tracer, _ = obs.enable()
    with tracer.span("trial:t0", trial_id="t0"):
        with tracer.span("suggest", trial_id="t0"):
            pass
        with tracer.span("execute", trial_id="t0"):
            pass
    assert set(tracer.perf.ops()) == {"suggest", "evaluate"}
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    obs.export(run_dir)
    obs.disable()
    if not spans:
        (run_dir / "spans.jsonl").unlink()
    if not perf:
        (run_dir / PERF_PROFILE_FILE).unlink(missing_ok=True)
    return run_dir


class TestLoadRun:
    def test_empty_dir_rejected(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(ValidationError):
            load_run(empty)

    def test_missing_dir_rejected(self, tmp_path):
        with pytest.raises(ValidationError):
            load_run(tmp_path / "nope")

    def test_perf_profile_alone_is_enough(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / PERF_PROFILE_FILE).write_text(
            json.dumps({"schema": "repro.perf_profile/1", "ops": {}, "windows": []})
        )
        artifacts = load_run(run_dir)
        assert artifacts.spans == []
        assert artifacts.perf.get("schema") == "repro.perf_profile/1"

    def test_empty_spans_file_ok(self, tmp_path):
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "spans.jsonl").write_text("")
        artifacts = load_run(run_dir)
        assert artifacts.spans == []


class TestReportCli:
    def test_full_run_includes_perf_section(self, tmp_path, capsys):
        run_dir = _minimal_run(tmp_path)
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" in out

    def test_run_without_perf_profile(self, tmp_path, capsys):
        run_dir = _minimal_run(tmp_path, perf=False)
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        assert "latency percentiles" not in out

    def test_zero_trial_run(self, tmp_path, capsys):
        """spans.jsonl exists but holds no trial spans at all."""
        run_dir = tmp_path / "run"
        run_dir.mkdir()
        (run_dir / "spans.jsonl").write_text("")
        assert main(["report", str(run_dir)]) == 0
        assert "report" in capsys.readouterr().out.lower()

    def test_render_report_with_degenerate_perf(self, tmp_path):
        run_dir = _minimal_run(tmp_path)
        artifacts = load_run(run_dir)
        # ops entry with an empty digest / missing keys must not crash
        artifacts.perf = {"ops": {"weird": {"count": 0}}, "windows": []}
        assert isinstance(render_report(artifacts), str)


class TestDashboardCli:
    def test_builds_without_perf_or_alerts(self, tmp_path, capsys):
        run_dir = _minimal_run(tmp_path, perf=False)
        assert main(["dashboard", str(run_dir)]) == 0
        html = (run_dir / "timeline.html").read_text()
        assert "Latency percentiles" in html  # card renders (empty) regardless
        capsys.readouterr()

    def test_embeds_perf_payload(self, tmp_path, capsys):
        run_dir = _minimal_run(tmp_path)
        out_dir = tmp_path / "out"
        assert main(["dashboard", str(run_dir), "--out", str(out_dir)]) == 0
        html = (out_dir / "timeline.html").read_text()
        assert '"perf"' in html
        assert "queue_wait" in html or "ops" in html
        capsys.readouterr()

    def test_missing_spans_fails_cleanly(self, tmp_path):
        run_dir = _minimal_run(tmp_path, spans=False)
        with pytest.raises(SystemExit):
            main(["dashboard", str(run_dir)])
