"""Tests for campaign analytics: breakdowns, critical path, trace export, dashboard."""

import json

import pytest

from repro.cli import main
from repro.observability import set_tracer
from repro.observability.analysis import (
    SEGMENTS,
    TRACE_EVENTS_FILE,
    TrialBreakdown,
    analyze_spans,
    compute_critical_path,
    pack_lanes,
    to_trace_events,
    trial_breakdowns,
    write_trace_events,
)
from repro.observability.dashboard import TIMELINE_FILE, render_dashboard, write_dashboard
from repro.observability.trace import Span
from repro.optimizer import OptimizationManager, OptimizerConf


@pytest.fixture(autouse=True)
def _clean_globals():
    yield
    set_tracer(None)


def _trial_span(span_id, trial_id, start, end, children=(), objective=None):
    """One trial span plus its segment children as a flat span list."""
    trial = Span(
        name=f"trial:{trial_id}",
        span_id=span_id,
        start_s=start,
        end_s=end,
        attributes={"trial_id": trial_id},
    )
    if objective is not None:
        trial.attributes["objective"] = objective
    spans = [trial]
    for offset, (name, s0, s1) in enumerate(children):
        spans.append(
            Span(
                name=name,
                span_id=span_id * 100 + offset,
                parent_id=span_id,
                start_s=s0,
                end_s=s1,
                attributes={"trial_id": trial_id},
            )
        )
    return spans


class TestTrialBreakdowns:
    def test_segments_attributed_from_children(self):
        spans = _trial_span(
            1,
            "t1",
            0.0,
            10.0,
            children=[
                ("suggest", 0.0, 1.0),
                ("queue-wait", 1.0, 2.0),
                ("cycle:deploy", 2.0, 3.0),
                ("execute", 3.0, 9.0),
                ("tell", 9.0, 10.0),
            ],
        )
        (b,) = trial_breakdowns(spans)
        assert b.trial_id == "t1"
        assert b.segments == {
            "suggest": 1.0,
            "queue_wait": 1.0,
            "deploy": 1.0,
            "evaluate": 6.0,
            "tell": 1.0,
        }
        assert set(b.segments) <= set(SEGMENTS)
        assert b.duration_s == 10.0
        assert b.unattributed_s == 0.0

    def test_unattributed_gap_is_reported(self):
        spans = _trial_span(1, "t1", 0.0, 5.0, children=[("execute", 0.0, 3.0)])
        (b,) = trial_breakdowns(spans)
        assert b.unattributed_s == pytest.approx(2.0)

    def test_open_spans_ignored(self):
        open_trial = Span(name="trial:open", span_id=9, start_s=0.0, end_s=None)
        assert trial_breakdowns([open_trial]) == []


class TestCriticalPath:
    def test_sequential_trials_have_no_idle(self):
        breakdowns = [
            TrialBreakdown(
                "t1", 0.0, 2.0, intervals=[("evaluate", 0.0, 2.0)], segments={"evaluate": 2.0}
            ),
            TrialBreakdown(
                "t2", 2.0, 5.0, intervals=[("evaluate", 2.0, 5.0)], segments={"evaluate": 3.0}
            ),
        ]
        path = compute_critical_path(breakdowns)
        assert path.horizon_s == pytest.approx(5.0)
        assert path.segments["evaluate"] == pytest.approx(5.0)
        assert path.idle_s == pytest.approx(0.0)

    def test_gap_between_trials_counts_as_idle(self):
        breakdowns = [
            TrialBreakdown("t1", 0.0, 2.0, intervals=[("evaluate", 0.0, 2.0)]),
            TrialBreakdown("t2", 3.0, 5.0, intervals=[("evaluate", 3.0, 5.0)]),
        ]
        path = compute_critical_path(breakdowns)
        assert path.idle_s == pytest.approx(1.0)
        assert path.idle_fraction == pytest.approx(0.2)
        kinds = [step["kind"] for step in path.steps]
        assert kinds == ["evaluate", "idle", "evaluate"]

    def test_straggler_dominates_the_critical_path(self):
        # Three parallel trials; the straggler runs 10x longer, so the path
        # must attribute at least its extra delay to the evaluate segment.
        breakdowns = [
            TrialBreakdown("fast1", 0.0, 1.0, intervals=[("evaluate", 0.0, 1.0)]),
            TrialBreakdown("fast2", 0.0, 1.2, intervals=[("evaluate", 0.0, 1.2)]),
            TrialBreakdown("slow", 0.0, 10.0, intervals=[("evaluate", 0.0, 10.0)]),
        ]
        path = compute_critical_path(breakdowns)
        assert path.segments["evaluate"] >= 8.8  # the injected delay
        slow_steps = [s for s in path.steps if s.get("trial_id") == "slow"]
        assert slow_steps and slow_steps[0]["kind"] == "evaluate"

    def test_empty(self):
        path = compute_critical_path([])
        assert path.horizon_s == 0.0
        assert path.idle_fraction == 0.0


class TestLanePacking:
    def test_sequential_trials_share_one_lane(self):
        breakdowns = [
            TrialBreakdown("t1", 0.0, 1.0),
            TrialBreakdown("t2", 1.0, 2.0),
            TrialBreakdown("t3", 2.5, 3.0),
        ]
        lanes, count = pack_lanes(breakdowns)
        assert count == 1
        assert set(lanes.values()) == {0}

    def test_overlap_opens_new_lanes(self):
        breakdowns = [
            TrialBreakdown("t1", 0.0, 3.0),
            TrialBreakdown("t2", 1.0, 4.0),
            TrialBreakdown("t3", 2.0, 5.0),
            TrialBreakdown("t4", 4.5, 6.0),  # reuses a freed lane
        ]
        lanes, count = pack_lanes(breakdowns)
        assert count == 3
        assert lanes["t4"] in (0, 1)


def _campaign_conf(tmp_path, **extra):
    data = {
        "name": "analytics",
        "variables": [{"name": "x", "type": "integer", "low": 0, "high": 10}],
        "objectives": [{"metric": "latency", "mode": "min"}],
        "algorithm": {"search": "random"},
        "num_samples": 5,
        "executor": "thread",
        "max_workers": 2,
        "seed": 7,
        "workdir": str(tmp_path),
        "observability": True,
    }
    data.update(extra)
    return OptimizerConf.from_dict(data)


def _run_campaign(tmp_path, **extra):
    manager = OptimizationManager(
        _campaign_conf(tmp_path, **extra),
        evaluator=lambda config, seed=None, duration=None: {"latency": float(config["x"])},
    )
    manager.run()
    return manager.run_dir


class TestTraceEventExport:
    def test_round_trips_with_one_slice_per_trial_span(self, tmp_path):
        run_dir = _run_campaign(tmp_path)
        document = json.loads((run_dir / TRACE_EVENTS_FILE).read_text())
        events = document["traceEvents"]
        slices = [e for e in events if e["ph"] == "X"]
        trial_slices = [e for e in slices if e["name"].startswith("trial:")]
        assert len(trial_slices) == 5
        for event in slices:
            assert event["dur"] >= 0
            assert {"ph", "name", "cat", "ts", "dur", "pid", "tid", "args"} <= set(event)
        # metadata names the campaign process and at least one slot thread.
        metas = [e for e in events if e["ph"] == "M"]
        named = {(m["pid"], m["args"].get("name")) for m in metas}
        assert (1, "campaign") in named
        assert any(name and name.startswith("slot-") for _, name in named)

    def test_export_from_synthetic_spans(self, tmp_path):
        spans = _trial_span(1, "t1", 0.0, 2.0, children=[("execute", 0.0, 2.0)])
        path = write_trace_events(spans, tmp_path / "trace_events.json")
        document = json.loads(path.read_text())
        trial = [e for e in document["traceEvents"] if e["name"] == "trial:t1"]
        assert len(trial) == 1
        # child slices land on the same slot thread as their trial.
        execute = next(e for e in document["traceEvents"] if e["name"] == "execute")
        assert execute["pid"] == trial[0]["pid"] == 1
        assert execute["tid"] == trial[0]["tid"]

    def test_engine_and_reservation_spans_get_own_processes(self):
        spans = [
            Span(name="pool:extract", span_id=1, start_s=0.0, end_s=1.0),
            Span(name="reservation:job.1", span_id=2, start_s=0.0, end_s=2.0),
        ]
        document = to_trace_events(spans)
        by_name = {e["name"]: e for e in document["traceEvents"] if e["ph"] == "X"}
        assert by_name["pool:extract"]["pid"] == 2
        assert by_name["reservation:job.1"]["pid"] == 3


class TestDashboard:
    def test_html_is_self_contained(self, tmp_path):
        run_dir = _run_campaign(tmp_path)
        html = (run_dir / TIMELINE_FILE).read_text()
        assert html.lstrip().startswith("<!DOCTYPE html>")
        assert "campaign-data" in html
        # no external assets: everything inline.
        assert "http://" not in html and "https://" not in html
        assert "<script src" not in html and '<link rel="stylesheet" href' not in html
        payload = html.split('id="campaign-data" type="application/json">')[1]
        payload = payload.split("</script>")[0].replace("<\\/", "</")
        data = json.loads(payload)
        assert len(data["analysis"]["trials"]) == 5

    def test_render_escapes_embedded_html(self):
        analysis = analyze_spans(
            _trial_span(1, "</script><script>x", 0.0, 1.0, children=[("execute", 0.0, 1.0)])
        )
        html = render_dashboard(analysis)
        # the raw close-tag must never appear inside the data block.
        data_block = html.split('id="campaign-data"')[1].split("</script>")[0]
        assert "</script><script>" not in data_block

    def test_write_dashboard_with_alerts(self, tmp_path):
        analysis = analyze_spans(
            _trial_span(1, "t1", 0.0, 1.0, children=[("execute", 0.0, 1.0)])
        )
        alerts = [
            {
                "kind": "straggler",
                "severity": "warning",
                "message": "trial t1 took too long",
                "time_s": 1.0,
                "details": {},
            }
        ]
        path = write_dashboard(analysis, tmp_path / "timeline.html", alerts=alerts)
        html = path.read_text()
        assert "straggler" in html
        assert "trial t1 took too long" in html


class TestDashboardCli:
    def test_dashboard_command(self, tmp_path, capsys):
        run_dir = _run_campaign(tmp_path)
        code = main(["dashboard", str(run_dir)])
        assert code == 0
        out = capsys.readouterr().out
        assert "timeline.html" in out and "trace_events.json" in out
        assert (run_dir / TIMELINE_FILE).exists()

    def test_dashboard_out_dir(self, tmp_path, capsys):
        run_dir = _run_campaign(tmp_path)
        out_dir = tmp_path / "elsewhere"
        code = main(["dashboard", str(run_dir), "--out", str(out_dir)])
        assert code == 0
        assert (out_dir / TIMELINE_FILE).exists()
        assert (out_dir / TRACE_EVENTS_FILE).exists()

    def test_dashboard_requires_spans(self, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        with pytest.raises(SystemExit):
            main(["dashboard", str(empty)])


class TestStragglerAcceptance:
    def test_injected_straggler_is_caught_and_attributed(self, tmp_path):
        """ISSUE acceptance: injected straggler -> alert + critical path."""
        delay = 0.25
        conf = _campaign_conf(
            tmp_path,
            num_samples=8,
            seed=1,
            # seed 1 @ rate 0.2 injects exactly one straggler over 8 trials.
            faults={"straggler": 0.2, "straggler_delay_s": delay, "seed": 1},
            watchdog={"straggler_zscore": 3.0, "straggler_min_trials": 3},
        )
        def evaluator(config, seed=None, duration=None):
            import time

            time.sleep(0.02)  # stable baseline: the injected delay is the only outlier
            return {"latency": 1.0}

        manager = OptimizationManager(conf, evaluator=evaluator)
        outcome = manager.run()
        injected = manager.fault_injector.injected["straggler"]
        assert injected >= 1, "seeded rate should inject at least one straggler"

        from repro.observability.analysis import analyze_run

        analysis = analyze_run(manager.run_dir)
        slow = max(analysis.trials, key=lambda b: b.segments.get("evaluate", 0.0))
        assert slow.segments["evaluate"] >= delay

        straggler_alerts = [
            a for a in outcome.summary.alerts["alerts"] if a["kind"] == "straggler"
        ]
        assert any(
            a["details"]["trial_id"] == slow.trial_id for a in straggler_alerts
        ), f"watchdog missed the straggler: {outcome.summary.alerts}"

        path = analysis.critical_path
        assert path.segments.get("evaluate", 0.0) >= delay
