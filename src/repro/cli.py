"""Command-line interface — the ``e2clab optimize`` analogue.

Subcommands::

    e2clab-repro optimize [CONF.json] [--repeat N] [--duration S]
                          [--resume RUN_DIR]
        Run a full optimization campaign from an optimizer_conf file
        against the Pl@ntNet scenario (the paper's `e2clab optimize
        --repeat 6 --duration 1380 ...` workflow). With ``--resume`` an
        interrupted campaign continues from its checkpoint: finished
        trials are replayed into the searcher instead of re-executed.

    e2clab-repro worker RUN_DIR [--runner-id ID] [--idle-timeout S]
        Join a store-backed distributed campaign as an elastic trial
        worker: open the campaign's trial store, claim trials under
        lease+heartbeat, execute them with the evaluator rebuilt from the
        run directory's ``optimizer_conf.json``, and exit when the
        campaign closes. Any number of workers may join or leave
        mid-campaign (even from other hosts sharing the run directory);
        a killed worker's trial is reclaimed by a peer once its lease
        expires.

    e2clab-repro scenario [--config baseline|preliminary|refined]
                          [--requests N] [--duration S] [--repetitions K]
        Run one configuration and print its metrics.

    e2clab-repro calibration [--evaluator analytic|des]
        Print the model-vs-paper calibration report.

    e2clab-repro monitor RUN_DIR_OR_URL [--interval S] [--once]
        Tail a campaign in the terminal. Pointed at a live monitor URL (or
        a run directory whose campaign was started with ``--serve``), it
        polls ``/status`` and streams ``/events``; pointed at a finished
        run directory, it prints a static summary from the exported
        artifacts.

    e2clab-repro report RUN_DIR [--top-k N] [--format text|json]
        Render a human-readable run report (phase timeline, trial table,
        critical path, watchdog alerts, slowest spans, metric rollups)
        from the observability artifacts an ``optimize --trace`` campaign
        exported into its experiment directory.

    e2clab-repro dashboard RUN_DIR [--out DIR]
        Build the campaign-analytics artifacts from ``spans.jsonl``: a
        self-contained ``timeline.html`` (per-slot utilization timeline,
        critical-path attribution, latency percentiles, alerts — no
        external assets) and a Chrome-loadable ``trace_events.json``.

    e2clab-repro perf record SOURCE --out BASELINE.json
    e2clab-repro perf diff BASELINE CANDIDATE [--threshold F]
        The perf-regression gate. ``record`` snapshots a run's
        ``perf_profile.json`` (or any record with an ``ops`` block: an
        e2ebench or ``BENCH_*.json`` result) as a committed baseline;
        ``diff`` compares two profiles and exits non-zero when any watched
        quantile regressed beyond the threshold (with a bootstrap
        significance check when both sides carry raw samples).

Also reachable as ``python -m repro ...``.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import Sequence

from repro.engine.calibration import calibration_report
from repro.engine.config import ThreadPoolConfig
from repro.optimizer import OptimizationManager, OptimizerConf
from repro.plantnet import (
    BASELINE,
    PRELIMINARY_OPTIMUM,
    REFINED_OPTIMUM,
    PlantNetScenario,
)
from repro.utils.tables import Table
from repro.version import __version__

__all__ = ["main", "build_parser"]

_NAMED_CONFIGS = {
    "baseline": BASELINE,
    "preliminary": PRELIMINARY_OPTIMUM,
    "refined": REFINED_OPTIMUM,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="e2clab-repro",
        description="Reproduction of the CLUSTER'21 E2Clab optimization paper.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_opt = sub.add_parser("optimize", help="run an optimizer_conf campaign")
    p_opt.add_argument(
        "conf",
        nargs="?",
        default=None,
        help="path to the optimizer_conf JSON file (optional with --resume)",
    )
    p_opt.add_argument("--repeat", type=int, default=None, help="extra validation runs of the best config")
    p_opt.add_argument("--duration", type=float, default=None, help="validation run duration (simulated seconds)")
    p_opt.add_argument(
        "--trace",
        action="store_true",
        help="record spans + metrics and export them into the experiment directory",
    )
    p_opt.add_argument(
        "--resume",
        metavar="RUN_DIR",
        default=None,
        help="resume an interrupted campaign from its experiment directory "
        "(finished trials are replayed from checkpoint.json, not re-run)",
    )
    p_opt.add_argument(
        "--serve",
        metavar="[HOST:]PORT",
        default=None,
        help="attach the read-only live HTTP monitor (/metrics, /status, "
        "/events) to the campaign; port 0 binds an ephemeral port published "
        "in the run dir's monitor.json",
    )

    p_wrk = sub.add_parser(
        "worker", help="join a store-backed campaign as an elastic trial worker"
    )
    p_wrk.add_argument(
        "run_dir", help="the campaign's experiment directory (holds store/ and optimizer_conf.json)"
    )
    p_wrk.add_argument(
        "--runner-id", default=None, help="worker identity (default: <name>/<host>-<pid>)"
    )
    p_wrk.add_argument(
        "--poll", type=float, default=0.1, help="seconds between claim attempts when idle"
    )
    p_wrk.add_argument(
        "--idle-timeout",
        type=float,
        default=None,
        help="exit after this many seconds without claimable work (default: wait for close)",
    )
    p_wrk.add_argument(
        "--max-trials", type=int, default=None, help="exit after completing this many trials"
    )

    p_sc = sub.add_parser("scenario", help="run one Pl@ntNet configuration")
    p_sc.add_argument("--config", default="baseline", help="baseline|preliminary|refined or h,d,e,s")
    p_sc.add_argument("--requests", type=int, default=80)
    p_sc.add_argument("--duration", type=float, default=300.0)
    p_sc.add_argument("--repetitions", type=int, default=1)
    p_sc.add_argument("--seed", type=int, default=0)

    p_cal = sub.add_parser("calibration", help="print paper-vs-model calibration")
    p_cal.add_argument("--evaluator", choices=("analytic", "des"), default="analytic")

    p_rep = sub.add_parser("report", help="render a run report from exported artifacts")
    p_rep.add_argument("run_dir", help="experiment directory holding the artifacts")
    p_rep.add_argument("--top-k", type=int, default=10, help="how many slowest spans to list")
    p_rep.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="output format: human-readable text (default) or machine-readable JSON",
    )

    p_mon = sub.add_parser(
        "monitor", help="tail a live (or finished) campaign in the terminal"
    )
    p_mon.add_argument(
        "target", help="live monitor URL (http://...) or a campaign run directory"
    )
    p_mon.add_argument(
        "--interval", type=float, default=2.0, help="seconds between /status polls"
    )
    p_mon.add_argument(
        "--once", action="store_true", help="print one status snapshot and exit"
    )

    p_dash = sub.add_parser(
        "dashboard", help="build timeline.html + trace_events.json from spans.jsonl"
    )
    p_dash.add_argument("run_dir", help="experiment directory holding spans.jsonl")
    p_dash.add_argument(
        "--out",
        default=None,
        help="directory to write the artifacts into (defaults to RUN_DIR)",
    )

    p_perf = sub.add_parser("perf", help="perf baselines and the regression gate")
    perf_sub = p_perf.add_subparsers(dest="perf_command", required=True)
    p_rec = perf_sub.add_parser(
        "record", help="snapshot a perf profile (or bench record) as a baseline"
    )
    p_rec.add_argument(
        "source", help="run directory, perf_profile.json, or a record with an ops block"
    )
    p_rec.add_argument("--out", required=True, help="baseline JSON path to write")
    p_diff = perf_sub.add_parser(
        "diff", help="compare a candidate profile against a baseline"
    )
    p_diff.add_argument("baseline", help="baseline profile (recorded or raw)")
    p_diff.add_argument("candidate", help="candidate profile to gate")
    p_diff.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="relative slowdown that counts as a regression (default 0.25 = +25%%)",
    )
    p_diff.add_argument(
        "--quantiles",
        default="p50,p90",
        help="comma-separated statistics to compare (default p50,p90)",
    )
    p_diff.add_argument(
        "--report",
        default=None,
        help="also write the structured diff as JSON to this path",
    )
    p_diff.add_argument(
        "--format",
        choices=("text", "json"),
        default="text",
        help="stdout format: rendered text (default) or the structured diff "
        "as JSON (exit code unchanged)",
    )
    return parser


def _parse_config(text: str) -> ThreadPoolConfig:
    if text in _NAMED_CONFIGS:
        return _NAMED_CONFIGS[text]
    parts = [int(p) for p in text.split(",")]
    if len(parts) != 4:
        raise SystemExit(
            f"--config must be one of {sorted(_NAMED_CONFIGS)} or 'http,download,extract,simsearch'"
        )
    return ThreadPoolConfig(http=parts[0], download=parts[1], extract=parts[2], simsearch=parts[3])


def _cmd_optimize(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.utils.serialization import dump_json

    if args.conf is not None:
        conf = OptimizerConf.from_json(args.conf)
    elif args.resume is not None:
        saved = Path(args.resume) / "optimizer_conf.json"
        if not saved.exists():
            raise SystemExit(
                f"--resume without CONF needs {saved} (written by the original run)"
            )
        conf = OptimizerConf.from_json(saved)
    else:
        raise SystemExit("optimize needs a CONF file or --resume RUN_DIR")
    if args.repeat is not None:
        conf.repeat = args.repeat
    if args.duration is not None:
        conf.duration = args.duration
    if args.trace:
        conf.observability = True
    if args.serve is not None:
        conf.serve = args.serve

    scenario = PlantNetScenario(duration=conf.duration or 300.0, base_seed=conf.seed or 0)

    def evaluator(config: dict, seed: int | None = None, duration: float | None = None):
        return scenario.evaluate(config, seed=seed, duration=duration)

    manager = OptimizationManager(conf, evaluator=evaluator, resume_from=args.resume)
    if args.resume is None:
        # Save the conf next to the artifacts so `--resume RUN_DIR` can
        # rebuild the campaign without the original file.
        dump_json(conf.to_dict(), Path(manager.run_dir) / "optimizer_conf.json", atomic=True)
    outcome = manager.run()
    print(outcome.summary.render())
    if outcome.validation is not None:
        print(f"\nvalidation over {len(outcome.validation_runs)} runs: {outcome.validation}")
    if conf.observability or conf.watchdog:
        print(
            f"\nobservability artifacts exported to {manager.run_dir} "
            f"(render with: python -m repro report {manager.run_dir} | "
            f"python -m repro dashboard {manager.run_dir})"
        )
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.search.store import TrialStore
    from repro.search.worker import (
        default_runner_id,
        run_worker,
        worker_trainable_from_run_dir,
    )

    run_dir = Path(args.run_dir)
    store_dir = run_dir / "store"
    if not (store_dir / "store.json").exists():
        raise SystemExit(
            f"no trial store under {store_dir} — start the campaign parent "
            "(executor: 'store') first, then join workers"
        )
    store = TrialStore.open(store_dir)
    trainable = worker_trainable_from_run_dir(run_dir)
    runner_id = args.runner_id or default_runner_id(
        str(store.meta.get("name", "")) or None
    )
    # flush=True throughout: a worker's stdout is typically piped into a
    # log file or `tail -f`; block buffering would delay progress lines
    # until exit.
    print(f"worker {runner_id} joining {store_dir}", flush=True)

    def on_trial(claim, outcome):  # noqa: ANN001 - progress hook
        status = "ok" if outcome.get("ok") else "error"
        reclaimed = " (reclaimed)" if outcome.get("reclaimed") else ""
        print(f"  {claim.trial_id}: {status}{reclaimed}", flush=True)

    completed = run_worker(
        store,
        trainable,
        runner_id=runner_id,
        poll_s=args.poll,
        idle_timeout_s=args.idle_timeout,
        max_trials=args.max_trials,
        on_trial=on_trial,
    )
    print(f"worker {runner_id} done: {completed} trial(s) completed", flush=True)
    return 0


def _cmd_report(args: argparse.Namespace) -> int:
    from repro.observability import load_run, render_report

    artifacts = load_run(args.run_dir)
    if args.format == "json":
        import json

        from repro.observability.report import render_report_json

        print(json.dumps(render_report_json(artifacts, top_k=args.top_k), indent=2))
        return 0
    print(render_report(artifacts, top_k=args.top_k))
    return 0


def _resolve_monitor_url(target: str) -> str | None:
    """A live monitor URL for ``target``, or ``None`` (finished run dir)."""
    import json
    from pathlib import Path

    if target.startswith(("http://", "https://")):
        return target.rstrip("/")
    from repro.observability.live import MONITOR_FILE

    monitor_path = Path(target) / MONITOR_FILE
    if not monitor_path.exists():
        return None
    try:
        doc = json.loads(monitor_path.read_text())
    except (OSError, ValueError):
        return None
    if doc.get("closed") or not doc.get("url"):
        return None
    return str(doc["url"]).rstrip("/")


def _cmd_monitor(args: argparse.Namespace) -> int:
    import threading
    import urllib.error

    from repro.observability.live import (
        fetch_status,
        render_status_line,
        stream_events,
    )

    url = _resolve_monitor_url(args.target)
    if url is None:
        # No live monitor: fall back to the post-hoc report of a finished run.
        from pathlib import Path

        from repro.observability import load_run, render_report

        run_dir = Path(args.target)
        if not run_dir.is_dir():
            raise SystemExit(
                f"{args.target!r} is neither a live monitor URL nor a run directory"
            )
        print(f"no live monitor for {run_dir}; rendering the finished-run report\n")
        artifacts = load_run(run_dir)
        print(render_report(artifacts))
        return 0

    try:
        status = fetch_status(url)
    except (urllib.error.URLError, OSError, ValueError) as exc:
        raise SystemExit(f"live monitor at {url} is unreachable: {exc}") from exc
    print(render_status_line(status), flush=True)
    if args.once:
        return 0

    # Live tail: one thread streams /events, the main loop polls /status.
    def tail_events() -> None:
        try:
            for event, data in stream_events(url, timeout_s=max(args.interval * 5, 30.0)):
                if event == "alert":
                    print(
                        f"  ALERT [{data.get('severity')}] {data.get('kind')}: "
                        f"{data.get('message')}",
                        flush=True,
                    )
                elif event == "span" and data.get("name", "").startswith("trial:"):
                    runner = f" @{data['runner_id']}" if data.get("runner_id") else ""
                    print(
                        f"  {data.get('trial_id') or data['name']}: "
                        f"{data.get('status')} in {data.get('duration_s')}s{runner}",
                        flush=True,
                    )
        except (urllib.error.URLError, OSError, ValueError):
            pass  # campaign over: the poll loop below reports and exits

    tail = threading.Thread(target=tail_events, name="monitor-events", daemon=True)
    tail.start()
    last_line = ""
    try:
        while True:
            time.sleep(max(args.interval, 0.1))
            try:
                status = fetch_status(url)
            except (urllib.error.URLError, OSError, ValueError):
                print("monitor gone (campaign finished or aborted)", flush=True)
                return 0
            line = render_status_line(status)
            if line != last_line:
                print(line, flush=True)
                last_line = line
            if status.get("phase") == "finished":
                return 0
    except KeyboardInterrupt:
        return 0


def _cmd_dashboard(args: argparse.Namespace) -> int:
    import json
    from pathlib import Path

    from repro.observability.analysis import (
        TRACE_EVENTS_FILE,
        analyze_spans,
        write_trace_events,
    )
    from repro.observability.dashboard import TIMELINE_FILE, write_dashboard
    from repro.observability.digest import PERF_PROFILE_FILE
    from repro.observability.trace import load_spans
    from repro.observability.watchdog import ALERTS_FILE, load_alerts

    run_dir = Path(args.run_dir)
    spans_path = run_dir / "spans.jsonl"
    if not spans_path.exists():
        raise SystemExit(
            f"{spans_path} not found — run the campaign with --trace (or a "
            "watchdog block) so spans are exported first"
        )
    out_dir = Path(args.out) if args.out is not None else run_dir
    spans = load_spans(spans_path)
    alerts_path = run_dir / ALERTS_FILE
    alerts = (
        [alert.to_dict() for alert in load_alerts(alerts_path)] if alerts_path.exists() else []
    )
    perf_path = run_dir / PERF_PROFILE_FILE
    perf = json.loads(perf_path.read_text()) if perf_path.exists() else None
    analysis = analyze_spans(spans)
    timeline = write_dashboard(
        analysis, out_dir / TIMELINE_FILE, title=run_dir.name, alerts=alerts, perf=perf
    )
    trace_events = write_trace_events(spans, out_dir / TRACE_EVENTS_FILE)
    print(f"wrote {timeline}")
    print(f"wrote {trace_events}")
    print(
        f"({len(analysis.trials)} trials over {analysis.lane_count} slots, "
        f"slot idle {analysis.slot_idle_fraction:.0%}, "
        f"critical-path idle {analysis.critical_path.idle_fraction:.0%}, "
        f"{len(alerts)} alerts)"
    )
    return 0


def _cmd_perf(args: argparse.Namespace) -> int:
    from repro.errors import ValidationError
    from repro.observability.perf import diff_profiles, record_baseline

    if args.perf_command == "record":
        try:
            path = record_baseline(args.source, args.out)
        except ValidationError as exc:
            raise SystemExit(str(exc)) from exc
        print(f"wrote baseline {path}")
        return 0
    stats = tuple(s.strip() for s in args.quantiles.split(",") if s.strip())
    try:
        diff = diff_profiles(
            args.baseline, args.candidate, threshold=args.threshold, stats=stats
        )
    except ValidationError as exc:
        raise SystemExit(str(exc)) from exc
    if args.format == "json":
        import json

        print(json.dumps(diff.to_dict(), indent=2))
    else:
        print(diff.render())
    if args.report is not None:
        import json
        from pathlib import Path

        report_path = Path(args.report)
        report_path.parent.mkdir(parents=True, exist_ok=True)
        report_path.write_text(json.dumps(diff.to_dict(), indent=2) + "\n")
        # Keep stdout pure JSON under --format json: consumers pipe it.
        out = sys.stderr if args.format == "json" else sys.stdout
        print(f"wrote {report_path}", file=out)
    return 0 if diff.ok else 1


def _cmd_scenario(args: argparse.Namespace) -> int:
    config = _parse_config(args.config)
    scenario = PlantNetScenario(
        duration=args.duration, repetitions=args.repetitions, base_seed=args.seed
    )
    result = scenario.run(config, args.requests)
    table = Table(["metric", "value"], title=f"Pl@ntNet {config} @ {args.requests} requests")
    for key, value in result.metrics().items():
        table.add_row([key, value])
    print(table.render())
    return 0


def _cmd_calibration(args: argparse.Namespace) -> int:
    report = calibration_report(evaluator=args.evaluator)
    table = Table(
        ["target", "source", "paper", "measured", "rel. error", "ok"],
        title=f"Calibration report ({args.evaluator})",
    )
    ok = True
    for row in report:
        table.add_row(
            [
                row["target"],
                row["source"],
                row["paper"],
                round(float(row["measured"]), 3),
                f"{float(row['relative_error']):+.1%}",
                "yes" if row["within_tolerance"] else "NO",
            ]
        )
        ok = ok and bool(row["within_tolerance"])
    print(table.render())
    return 0 if ok else 1


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "optimize":
        return _cmd_optimize(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "scenario":
        return _cmd_scenario(args)
    if args.command == "calibration":
        return _cmd_calibration(args)
    if args.command == "report":
        return _cmd_report(args)
    if args.command == "monitor":
        return _cmd_monitor(args)
    if args.command == "dashboard":
        return _cmd_dashboard(args)
    if args.command == "perf":
        return _cmd_perf(args)
    raise SystemExit(f"unknown command {args.command!r}")  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
