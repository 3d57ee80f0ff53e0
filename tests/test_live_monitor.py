"""Tests for the live telemetry plane (``repro.observability.live``).

Covers the embedded HTTP monitor end to end: serve-spec parsing and the
``OptimizerConf.serve`` field, the status board, store-derived worker
liveness, concurrent ``/metrics`` + ``/status`` scrapes during an active
campaign, SSE delivery of injected watchdog alerts, slow-consumer drop
accounting, the read-only surface (a ``POST`` is refused and merges
nothing), the ``--format json`` CLI surfaces, the ``monitor`` CLI, and a
subprocess CLI worker whose spans come back through the trial ledger,
adopted under each ``trial:<id>`` span.
"""

import json
import os
import subprocess
import sys
import threading
import time
import urllib.error
import urllib.request
from pathlib import Path

import pytest

import repro
from repro import observability as obs
from repro.cli import main
from repro.errors import ValidationError
from repro.observability.digest import PERF_PROFILE_FILE, PerfRecorder
from repro.observability.live import (
    MONITOR_FILE,
    LiveMonitor,
    StatusBoard,
    parse_serve_spec,
    render_status_line,
    stream_events,
)
from repro.observability.trace import RecordingTracer
from repro.observability.watchdog import CampaignWatchdog
from repro.optimizer import OptimizationManager, OptimizerConf
from repro.search.store import TrialStore

VARIABLES = [
    {"name": "http", "type": "integer", "low": 20, "high": 60},
    {"name": "download", "type": "integer", "low": 20, "high": 60},
    {"name": "simsearch", "type": "integer", "low": 20, "high": 60},
    {"name": "extract", "type": "integer", "low": 3, "high": 9},
]
OBJECTIVES = [{"metric": "user_resp_time", "mode": "min"}]


@pytest.fixture(autouse=True)
def _clean_globals():
    """Every test leaves the process-global tracer inert."""
    yield
    obs.disable()


def _conf(tmp_path, **overrides):
    data = {
        "name": "live_test",
        "variables": VARIABLES,
        "objectives": OBJECTIVES,
        "algorithm": {"search": "random"},
        "num_samples": 4,
        "executor": "thread",
        "max_workers": 2,
        "seed": 0,
        "duration": 60.0,
        "workdir": str(tmp_path / "work"),
    }
    data.update(overrides)
    return OptimizerConf.from_dict(data)


def _wait_for_monitor(run_dir, timeout_s=15.0):
    """Poll the run dir for an open monitor.json; returns the document."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        path = Path(run_dir) / MONITOR_FILE
        if path.exists():
            try:
                doc = json.loads(path.read_text())
            except ValueError:
                doc = {}
            if doc.get("url") and not doc.get("closed"):
                return doc
        time.sleep(0.02)
    raise AssertionError(f"no open {MONITOR_FILE} appeared under {run_dir}")


class TestParseServeSpec:
    def test_accepts_port_forms(self):
        assert parse_serve_spec(None) is None
        assert parse_serve_spec(8080) == ("127.0.0.1", 8080)
        assert parse_serve_spec("8080") == ("127.0.0.1", 8080)
        assert parse_serve_spec("0.0.0.0:0") == ("0.0.0.0", 0)
        assert parse_serve_spec("myhost:9090") == ("myhost", 9090)

    @pytest.mark.parametrize("bad", ["", ":", "host:", "host:abc", 70000, -1, True])
    def test_rejects_bad_specs(self, bad):
        with pytest.raises(ValidationError):
            parse_serve_spec(bad)

    def test_conf_field_roundtrips_and_validates(self, tmp_path):
        conf = _conf(tmp_path, serve="127.0.0.1:0")
        again = OptimizerConf.from_dict(conf.to_dict())
        assert again.serve == "127.0.0.1:0"
        with pytest.raises(ValidationError):
            _conf(tmp_path, serve="nope:nope")


class TestStatusBoard:
    def test_counts_incumbent_and_tail(self):
        board = StatusBoard(name="camp", num_samples=5)
        board.set_phase("optimize")
        tracer = RecordingTracer()
        tracer.subscribe(board.on_span)
        for trial_id in ("t1", "t2", "t3"):
            with tracer.span("suggest", trial_id=trial_id):
                pass
        assert board.snapshot()["trials"]["running"] == 3
        for trial_id, status, value in (
            ("t1", "terminated", 3.0),
            ("t2", "terminated", 2.0),
            ("t3", "error", float("nan")),
        ):
            with tracer.span(
                f"trial:{trial_id}", trial_id=trial_id, status=status, objective=value
            ):
                pass
        snap = board.snapshot()
        assert snap["phase"] == "optimize"
        assert snap["trials"] == {
            "total": 5,
            "done": 3,
            "running": 0,
            "pending": 2,
            "errors": 1,
        }
        assert snap["incumbent"] == {"trial_id": "t2", "value": 2.0}
        # the NaN objective was dropped from the history tail
        assert snap["objective_tail"] == [["t1", 3.0], ["t2", 2.0]]

    def test_concurrent_span_stream_counts_every_trial(self):
        board = StatusBoard(num_samples=400)
        tracer = RecordingTracer()
        tracer.subscribe(board.on_span)

        def emit(k):
            for i in range(50):
                trial_id = f"w{k}_{i}"
                with tracer.span("suggest", trial_id=trial_id):
                    pass
                with tracer.span(
                    f"trial:{trial_id}",
                    trial_id=trial_id,
                    status="terminated",
                    objective=float(50 * k + i),
                ):
                    pass

        threads = [threading.Thread(target=emit, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=30)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        snap = board.snapshot()
        assert snap["trials"]["done"] == 400
        assert snap["trials"]["running"] == 0
        assert snap["incumbent"] == {"trial_id": "w0_0", "value": 0.0}

    def test_max_objective_incumbent_is_the_summary_best(self, tmp_path, monkeypatch):
        """The board ranks the runner's scalarized objective, which is always
        minimized: a ``mode: "max"`` campaign reports its best trial."""
        seen = {}
        stop = LiveMonitor.stop

        def capture_then_stop(monitor):
            seen.setdefault("status", monitor.status())
            stop(monitor)

        monkeypatch.setattr(LiveMonitor, "stop", capture_then_stop)
        conf = OptimizerConf.from_dict(
            {
                "name": "maxprobe",
                "variables": [{"name": "x", "type": "integer", "low": 0, "high": 10}],
                "objectives": [{"metric": "throughput", "mode": "max"}],
                "algorithm": {"search": "random"},
                "num_samples": 8,
                "seed": 3,
                "workdir": str(tmp_path / "work"),
                "serve": "127.0.0.1:0",
            }
        )
        manager = OptimizationManager(
            conf, evaluator=lambda config, **kw: {"throughput": float(config["x"])}
        )
        summary = manager.run().summary
        status = seen["status"]
        assert status["phase"] == "finished"
        assert status["trials"]["done"] == 8
        incumbent = status["incumbent"]
        assert incumbent["value"] == summary.best_value
        index = int(incumbent["trial_id"].rsplit("_", 1)[1])
        assert summary.evaluations[index]["configuration"] == summary.best_configuration


class TestWorkerLiveness:
    def _store(self, tmp_path):
        store = TrialStore.create(tmp_path / "store", lease_s=0.2)
        store.add_trial("t0", {"x": 1})
        return store

    def test_live_then_expired_then_idle(self, tmp_path):
        store = self._store(tmp_path)
        claim = store.pick_trial("w1", lease_s=0.2)
        assert claim is not None
        [info] = store.worker_liveness()
        assert info["runner_id"] == "w1"
        assert info["lease_state"] == "live"
        assert info["active_trials"] == ["t0"]
        assert info["lease_remaining_s"] > 0
        time.sleep(0.25)
        [info] = store.worker_liveness()
        assert info["lease_state"] == "expired"
        store.end_trial("t0", "w1", {"ok": True})
        [info] = store.worker_liveness()
        assert info["lease_state"] == "idle"
        assert info["claims"] == 1 and info["done"] == 1

    def test_reclaim_release_does_not_resurrect_dead_worker(self, tmp_path):
        store = self._store(tmp_path)
        store.pick_trial("dead", lease_s=0.05)
        time.sleep(0.1)
        # w2's pick appends a release event carrying runner_id="dead";
        # that event must not refresh the dead worker's last-seen age.
        claim = store.pick_trial("w2", lease_s=30.0)
        assert claim is not None and claim.prior_claims == 1
        liveness = {info["runner_id"]: info for info in store.worker_liveness()}
        assert liveness["w2"]["lease_state"] == "live"
        assert liveness["dead"]["lease_state"] == "idle"
        assert liveness["dead"]["last_seen_age_s"] > liveness["w2"]["last_seen_age_s"]


class TestLiveServer:
    def test_concurrent_scrapes_during_active_campaign(self, tmp_path):
        release = threading.Event()

        def evaluator(config, seed=None, duration=None):
            # hold trials open until the scrapes have landed
            release.wait(timeout=10.0)
            return {"user_resp_time": float(sum(config.values()))}

        conf = _conf(tmp_path, serve="127.0.0.1:0", num_samples=8)
        manager = OptimizationManager(conf, evaluator=evaluator)
        campaign = threading.Thread(target=manager.run, daemon=True)
        campaign.start()
        try:
            url = _wait_for_monitor(manager.run_dir)["url"]
            results = []
            errors = []

            def scrape(endpoint):
                try:
                    with urllib.request.urlopen(url + endpoint, timeout=10) as resp:
                        results.append((endpoint, resp.status, resp.read()))
                except Exception as exc:  # noqa: BLE001 - collected for the assert
                    errors.append((endpoint, exc))

            threads = [
                threading.Thread(target=scrape, args=(ep,))
                for ep in ("/metrics", "/status") * 3
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=15)
        finally:
            release.set()
        campaign.join(timeout=60)
        assert not campaign.is_alive()
        assert not errors, errors
        assert len(results) == 6
        assert all(status == 200 for _, status, _ in results)
        metrics = next(body for ep, _, body in results if ep == "/metrics").decode()
        assert "repro_live_requests_total" in metrics
        status_doc = json.loads(next(body for ep, _, body in results if ep == "/status"))
        assert status_doc["schema"] == "repro.live/1"
        assert status_doc["name"] == "live_test"
        assert status_doc["trials"]["total"] == 8
        # graceful shutdown marks the discovery file closed
        closed = json.loads((Path(manager.run_dir) / MONITOR_FILE).read_text())
        assert closed["closed"] is True

    def test_sse_client_receives_injected_watchdog_alert(self):
        tracer = obs.enable()
        watchdog = CampaignWatchdog()
        watchdog.attach(tracer)
        monitor = LiveMonitor("127.0.0.1", 0, name="sse")
        monitor.start()
        try:
            events = []
            consumer = threading.Thread(
                target=lambda: events.extend(
                    stream_events(monitor.url, limit=3, timeout_s=15)
                ),
                daemon=True,
            )
            consumer.start()
            deadline = time.monotonic() + 5
            while not monitor.self_stats()["sse_clients"] and time.monotonic() < deadline:
                time.sleep(0.02)
            with tracer.span("trial:x", trial_id="x"):
                pass
            watchdog._emit(
                "straggler",
                "warning",
                "injected for the SSE test",
                key="sse-test",
                time_s=1.0,
                details={"trial_id": "x"},
            )
            consumer.join(timeout=15)
            kinds = [event for event, _ in events]
            assert kinds[0] == "hello"
            assert "span" in kinds and "alert" in kinds
            alert = next(data for event, data in events if event == "alert")
            assert alert["kind"] == "straggler"
            assert alert["message"] == "injected for the SSE test"
            span = next(data for event, data in events if event == "span")
            assert span["name"] == "trial:x"
            assert span["trial_id"] == "x"
        finally:
            monitor.stop()

    def test_slow_sse_client_drops_are_counted_not_blocking(self):
        monitor = LiveMonitor("127.0.0.1", 0, name="slow", sse_queue_size=2)
        # the client never drains: only queue_size events fit, the rest drop
        client = monitor._register_client()
        started = time.monotonic()
        for i in range(10):
            monitor._broadcast("span", {"i": i})
        elapsed = time.monotonic() - started
        assert elapsed < 1.0  # fan-out never blocked on the full queue
        assert client.dropped == 8
        stats = monitor.self_stats()
        assert stats["sse_events_sent"] == 2
        assert stats["sse_events_dropped"] == 8
        # drop counters surface in the self-metrics exposition
        assert "repro_live_events_dropped_total 8" in monitor.render_metrics()

    def test_post_is_refused_and_merges_nothing(self):
        tracer = obs.enable()
        monitor = LiveMonitor("127.0.0.1", 0, name="read-only")
        monitor.start()
        try:
            with tracer.span("trial:x", trial_id="x"):
                pass
            before = monitor.status()["spans_recorded"]
            payload = {
                "schema": "repro.fabric/1",
                "pid": 4242,
                "runner_id": "camp/w4242",
                "spans": [
                    {"name": "evaluate", "span_id": 1, "start_s": 0.0, "end_s": 0.5}
                ],
            }
            request = urllib.request.Request(
                monitor.url + "/telemetry",
                data=json.dumps(payload).encode("utf-8"),
                headers={"Content-Type": "application/json"},
                method="POST",
            )
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(request, timeout=5)
            assert excinfo.value.code == 501
            assert monitor.status()["spans_recorded"] == before == 1
            assert [s.name for s in tracer.finished()] == ["trial:x"]
        finally:
            monitor.stop()

    def test_metrics_and_404_without_enabled_registry(self):
        monitor = LiveMonitor("127.0.0.1", 0, name="bare")
        monitor.start()
        try:
            with urllib.request.urlopen(monitor.url + "/metrics", timeout=5) as resp:
                text = resp.read().decode()
            assert "repro_live_sse_clients 0" in text
            with pytest.raises(urllib.error.HTTPError) as excinfo:
                urllib.request.urlopen(monitor.url + "/nope", timeout=5)
            assert excinfo.value.code == 404
        finally:
            monitor.stop()


class TestFormatJson:
    def _run_dir(self, tmp_path):
        tracer = obs.enable()
        with tracer.span("phase:optimize"):
            with tracer.span("trial:live_test_00000", trial_id="live_test_00000"):
                pass
        run_dir = tmp_path / "run"
        obs.export(run_dir)
        obs.disable()
        return run_dir

    def test_report_format_json(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path)
        assert main(["report", str(run_dir), "--format", "json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == "repro.report/1"
        assert doc["spans"]["total"] == 2
        names = {s["name"] for s in doc["spans"]["slowest"]}
        assert "phase:optimize" in names

    def test_report_default_stays_text(self, tmp_path, capsys):
        run_dir = self._run_dir(tmp_path)
        assert main(["report", str(run_dir)]) == 0
        out = capsys.readouterr().out
        with pytest.raises(ValueError):
            json.loads(out)

    def test_perf_diff_format_json(self, tmp_path, capsys):
        perf = PerfRecorder()
        for _ in range(50):
            perf.record("suggest", 0.01)
        profile = tmp_path / PERF_PROFILE_FILE
        perf.export_json(profile)
        code = main(["perf", "diff", str(profile), str(profile), "--format", "json"])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["ok"] is True
        assert doc["rows"]
        assert doc["regressions"] == []


class TestMonitorCli:
    def test_once_against_live_url(self, capsys):
        tracer = obs.enable()
        monitor = LiveMonitor("127.0.0.1", 0, name="cli", num_samples=3)
        monitor.start()
        monitor.board.set_phase("optimize")
        with tracer.span("suggest", trial_id="t1"):
            pass
        try:
            assert main(["monitor", monitor.url, "--once"]) == 0
            out = capsys.readouterr().out
            assert "[optimize]" in out
            assert "0/3 done" in out
            assert "1 running" in out
        finally:
            monitor.stop()

    def test_finished_run_dir_falls_back_to_report(self, tmp_path, capsys):
        tracer = obs.enable()
        with tracer.span("phase:optimize"):
            pass
        run_dir = tmp_path / "run"
        obs.export(run_dir)
        obs.disable()
        assert main(["monitor", str(run_dir), "--once"]) == 0
        assert "finished-run report" in capsys.readouterr().out

    def test_render_status_line_smoke(self):
        line = render_status_line(
            {
                "phase": "optimize",
                "trials": {"done": 2, "total": 8, "running": 1, "errors": 1},
                "incumbent": {"trial_id": "t1", "value": 42.0},
                "workers": [{"lease_state": "live"}, {"lease_state": "expired"}],
                "alerts": {"total": 3},
            }
        )
        assert "[optimize]" in line
        assert "2/8 done" in line
        assert "1 errors" in line
        assert "best 42 (t1)" in line
        assert "1/2 workers live" in line
        assert "3 alerts" in line


class TestWorkerLedgerIntegration:
    def test_cli_worker_spans_come_back_under_trials(self, tmp_path):
        """A CLI worker's spans come back in the ledger, under each trial.

        Every worker-side ``evaluate`` span (stamped with the worker's
        ``runner_id``/``pid``) must hang under its ``trial:<id>`` span in the
        exported trace, and every ledger outcome carries its ``telemetry``.
        """
        conf = _conf(
            tmp_path,
            serve="127.0.0.1:0",
            num_samples=3,
            executor="store",
            store={"spawn": "none", "lease_s": 15.0},
            duration=120.0,
        )
        manager = OptimizationManager(conf, evaluator=lambda config, **kw: {})
        box = {}

        def run_campaign():
            try:
                box["outcome"] = manager.run()
            except Exception as exc:  # noqa: BLE001 - surfaced by the assert
                box["error"] = exc

        campaign = threading.Thread(target=run_campaign, daemon=True)
        campaign.start()
        discovery = _wait_for_monitor(manager.run_dir)
        assert "token" not in discovery
        env = dict(os.environ)
        env["PYTHONPATH"] = str(Path(repro.__file__).resolve().parents[1])
        worker = subprocess.run(
            [
                sys.executable,
                "-m",
                "repro",
                "worker",
                str(manager.run_dir),
                "--poll",
                "0.05",
                "--idle-timeout",
                "30",
            ],
            env=env,
            capture_output=True,
            text=True,
            timeout=180,
        )
        campaign.join(timeout=60)
        assert not campaign.is_alive()
        assert "error" not in box, box.get("error")
        assert worker.returncode == 0, worker.stderr

        spans_path = Path(manager.run_dir) / "spans.jsonl"
        spans = [
            json.loads(line)
            for line in spans_path.read_text().splitlines()
            if line.strip()
        ]
        by_id = {s["span_id"]: s for s in spans}
        remote = [
            s
            for s in spans
            if s["name"] == "evaluate" and s["attributes"].get("runner_id")
        ]
        assert len(remote) == 3, remote
        for span in remote:
            attributes = span["attributes"]
            assert attributes["runner_id"].startswith("live_test/")
            assert attributes.get("pid")
            parent = by_id[span["parent_id"]]
            assert parent["name"] == f"trial:{attributes['trial_id']}"
        assert len({s["attributes"]["trial_id"] for s in remote}) == 3

        state = TrialStore.open(Path(manager.run_dir) / "store").snapshot()
        assert state.counts()["done"] == 3
        outcomes = [t.outcome for t in state.trials.values()]
        assert all(o.get("telemetry", {}).get("spans") for o in outcomes), outcomes
