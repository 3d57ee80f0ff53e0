"""End-to-end campaign benchmark with per-layer attribution.

Run from the repository root:

    python3 e2ebench/run.py --workload table3 --seed 2021 --seconds 20 --trace 0

``--trace 0`` times the workload with no span wrappers installed and
reports the end-to-end metrics declared in ``BENCHMARK.json``. Its main
calls are paced (``pacing.py``): ``norm_wall_s`` is their wall time
rescaled, step by step, to a fixed reference host speed, so that the
shared host's speed swings cancel out; the raw ``wall_s`` is reported
alongside. ``--trace 1`` runs the run seed's input untraced, traced (span
wrappers around every layer, see ``tracing.py``) and untraced again, all
unpaced, and reports the per-layer split; the layers' self times plus
``unattributed_s`` add up to ``trace.wall_s``.

A run executes ``round(seconds / rep_seconds)`` (at least one) inputs, each
from a seed derived from ``--seed``, and reports medians. Correctness
checks run after the timed calls. Human-readable lines come first; the last
line of stdout is one JSON object ``{correct, attempted, failed, metrics}``.
The full record (scale, host fingerprint, checks, the informational metrics
that are not gated, and every op's raw samples) is written to
``e2ebench/results/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any, Optional

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK_DIR = BENCH_DIR / "work"
RESULTS_DIR = BENCH_DIR / "results"
#: fresh interpreters timed per run; setup_s is their median.
SETUP_PROBES = 3

Metrics = dict[str, tuple[float, str]]


def rep_seed(seed: int, index: int) -> int:
    """The input seed of a run's ``index``-th input (the run seed first)."""
    if index == 0:
        return seed
    digest = hashlib.sha256(f"{seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "big")


def tail(samples: list[float]) -> Optional[tuple[float, int, int]]:
    """(value, percentile, n) of the highest percentile with >= 10 samples beyond it."""
    n = len(samples)
    if n < 11:
        return None
    pct = math.floor(100 * (n - 10) / n)
    rank = max(1, math.ceil(pct / 100 * n))
    return sorted(samples)[rank - 1], pct, n


def median(samples: list[float]) -> float:
    return statistics.median(samples) if samples else 0.0


# -- host fingerprint --------------------------------------------------------


def git_commit() -> Optional[str]:
    """HEAD of the checkout's own ``.git``, if it has one."""
    git = ROOT / ".git"
    head = git / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[len("ref: "):]
    if (git / name).is_file():
        return (git / name).read_text().strip()
    packed = git / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest() -> str:
    """sha256 over every ``src/repro`` source file (path and content)."""
    digest = hashlib.sha256()
    for path in sorted((SRC / "repro").rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def host_fingerprint() -> dict[str, Any]:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as handle:
            cpu = next(
                (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")),
                cpu,
            )
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "platform": platform.platform(),
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
    }


# -- measurement -------------------------------------------------------------


def measure_setup(name: str, seed: int) -> list[float]:
    """Wall seconds of fresh interpreters that import repro and build the workload."""
    samples = []
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, str(BENCH_DIR / "setup_probe.py"), name, str(seed)],
            cwd=ROOT,
            check=True,
            timeout=120,
            stdout=subprocess.DEVNULL,
        )
        samples.append(time.perf_counter() - start)
    return samples


def run_reps(workload: Any, seed: int, seconds: float, workdir: Path) -> list[Any]:
    count = max(1, round(seconds / workload.rep_seconds))
    return [
        workload.run(rep_seed(seed, i), workdir / f"rep{i}") for i in range(count)
    ]


def campaign_info(reps: list[Any]) -> dict[str, Any]:
    """The campaign's user-facing numbers that are reported but not gated."""
    from workloads import time_to_quality, trial_ms

    trials = [trial_ms(t) for rep in reps for t in rep.trials]
    quality = [time_to_quality(rep.trials) for rep in reps]
    trial_tail = tail(trials)
    return {
        "trial_p50_ms": median(trials),
        "trial_tail_ms": trial_tail[0] if trial_tail else None,
        "trial_tail_percentile": trial_tail[1] if trial_tail else None,
        "trial_n": len(trials),
        "best_resp_s": [rep.result.best_value for rep in reps],
        "trials_to_quality": [q[0] for q in quality],
        "time_to_quality_s": [q[1] for q in quality],
    }


def ops_block(reps: list[Any]) -> dict[str, dict[str, Any]]:
    ops: dict[str, list[float]] = {"wall": [rep.wall_s for rep in reps]}
    if all(rep.norm_s is not None for rep in reps):
        ops["norm_wall"] = [rep.norm_s for rep in reps]
    for key in ("suggest_s", "evaluate_s", "tell_s"):
        values = [t["cost"][key] for rep in reps for t in rep.trials if key in t.get("cost", {})]
        if values:
            ops[key[: -len("_s")]] = values
    return {op: {"unit": "s", "count": len(v), "samples": v} for op, v in ops.items()}


def end_to_end(workload: Any, args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    from workloads import Campaign

    setup = measure_setup(workload.name, args.seed)
    reps = run_reps(workload, args.seed, args.seconds, workdir)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    checks = workload.checks(reps)
    metrics: Metrics = {
        "setup_s": (median(setup), "s"),
        "norm_wall_s": (median([rep.norm_s for rep in reps]), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    info: dict[str, Any] = {"wall_s": median([rep.wall_s for rep in reps])}
    if isinstance(workload, Campaign):
        info.update(campaign_info(reps))
    else:
        info["model_error"] = [workload.model_error(rep) for rep in reps]
    ops = ops_block(reps)
    ops["setup"] = {"unit": "s", "count": len(setup), "samples": setup}
    return {"reps": reps, "checks": checks, "metrics": metrics, "info": info, "ops": ops}


def layer_metrics(
    workload: Any, recorder: Any, base: Any, traced: Any, untraced_wall_s: float
) -> Metrics:
    """The per-layer split of one traced call, plus untraced campaign numbers."""
    from workloads import DiurnalWeek, time_to_quality, trial_ms

    spans = recorder.spans
    self_s = recorder.self_times()

    def of(layer: str, *ops: str) -> list[Any]:
        return [s for s in spans if s.layer == layer and (not ops or s.op in ops)]

    def busy(layer: str, *ops: str) -> float:
        return sum(s.duration for s in recorder.outermost(layer, ops))

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    engine_s = busy("engine")
    simcore_s = busy("simcore")
    events = sum(s.events for s in of("simcore"))
    suggest_ms = [1000.0 * s.duration for s in of("search", "ConcurrencyLimiter.suggest", "ConcurrencyLimiter.suggest_batch")]
    suggest_tail = tail(suggest_ms)
    lookups = of("evalcache", "EvalCache.lookup")
    hits = sum(1 for s in lookups if s.hit)
    observability = of("observability")

    m: Metrics = {
        "engine.runs": (len(recorder.outermost("engine", ("IdentificationEngine.run", "HybridEngine.run"))), "count"),
        "engine.requests": (recorder.requests, "count"),
        "engine.busy_s": (engine_s, "s"),
        "engine.us_per_request": (1e6 * ratio(engine_s, recorder.requests), "us"),
        "simcore.busy_s": (simcore_s, "s"),
        "simcore.events": (events, "count"),
        "simcore.events_per_s": (ratio(events, simcore_s), "1/s"),
        "analytic.calls": (len(of("analytic")), "count"),
        "analytic.busy_s": (busy("analytic"), "s"),
        "testbed.place_s": (busy("testbed", "Testbed.reserve"), "s"),
        "testbed.reconfigure.calls": (len(of("testbed", "Deployment.reconfigure")), "count"),
        "testbed.reconfigure.busy_s": (busy("testbed", "Deployment.reconfigure"), "s"),
        "search.suggest.calls": (len(suggest_ms), "count"),
        "search.suggest.busy_s": (sum(suggest_ms) / 1000.0, "s"),
        "search.suggest.p50_ms": (median(suggest_ms), "ms"),
        "search.suggest.tail_ms": (suggest_tail[0] if suggest_tail else max(suggest_ms, default=0.0), "ms"),
        "search.tell.busy_s": (busy("search", "ConcurrencyLimiter.on_trial_complete"), "s"),
        "surrogate.fit.calls": (len(of("surrogate", "ExtraTreesRegressor.fit", "ExtraTreesRegressor.partial_fit")), "count"),
        "surrogate.fit.busy_s": (busy("surrogate", "ExtraTreesRegressor.fit", "ExtraTreesRegressor.partial_fit"), "s"),
        "surrogate.predict.busy_s": (busy("surrogate", "ExtraTreesRegressor.predict"), "s"),
        "evalcache.lookups": (len(lookups), "count"),
        "evalcache.hits": (hits, "count"),
        "evalcache.hit_ratio": (ratio(hits, len(lookups)), "ratio"),
        "runner.self_ms_per_trial": (1000.0 * ratio(self_s["runner"], len(base.trials)), "ms"),
        "archive.checkpoint.calls": (len(of("archive", "ExperimentArchive.store_checkpoint")), "count"),
        "archive.checkpoint.busy_s": (busy("archive", "ExperimentArchive.store_checkpoint"), "s"),
        "archive.evaluation.busy_s": (busy("archive", "ExperimentArchive.store_evaluation"), "s"),
        "observability.calls": (len(observability), "count"),
        "observability.busy_s": (busy("observability"), "s"),
        "observability.export_s": (busy("observability", "Optimization.export_observability"), "s"),
    }

    hybrid = isinstance(workload, DiurnalWeek)
    m["hybrid.des_windows"] = (base.result.des_epochs if hybrid else 0, "count")
    m["hybrid.fluid_epochs"] = (base.result.fluid_epochs if hybrid else 0, "count")
    m["hybrid.des_time_fraction"] = (base.result.des_time_fraction if hybrid else 0.0, "ratio")
    m["hybrid.model_error"] = (workload.model_error(base) if hybrid else 0.0, "ratio")

    # Campaign numbers from the untraced call: wrappers would inflate them.
    trials = [trial_ms(t) for t in base.trials]
    trial_tail = tail(trials)
    reached, seconds = time_to_quality(base.trials)
    m["runner.trial_p50_ms"] = (median(trials), "ms")
    m["runner.trial_tail_ms"] = (trial_tail[0] if trial_tail else max(trials, default=0.0), "ms")
    m["search.best_resp_s"] = (base.result.best_value if trials else 0.0, "s")
    # Not reached within the budget: censored at the whole campaign.
    m["search.trials_to_quality"] = (reached if reached else len(trials), "count")
    m["search.time_to_quality_s"] = (seconds if reached else sum(trials) / 1000.0, "s")

    for layer, seconds_in_layer in self_s.items():
        m[f"{layer}.self_s"] = (seconds_in_layer, "s")
    m["unattributed_s"] = (traced.wall_s - sum(self_s.values()), "s")
    m["trace.wall_s"] = (traced.wall_s, "s")
    m["trace_overhead_s"] = (traced.wall_s - untraced_wall_s, "s")
    return m


def per_layer(workload: Any, args: argparse.Namespace, workdir: Path) -> dict[str, Any]:
    import tracing
    from workloads import Check

    # Untraced calls on both sides of the traced one, so the overhead
    # estimate is not skewed by drift in the machine's speed. No call is
    # paced: the reference bursts would land inside the layers' spans.
    base = workload.run(args.seed, workdir / "untraced-0", pace=False)
    recorder = tracing.SpanRecorder()
    with tracing.installed(recorder):
        traced = workload.run(args.seed, workdir / "traced", pace=False)
    again = workload.run(args.seed, workdir / "untraced-1", pace=False)
    metrics = layer_metrics(workload, recorder, base, traced, (base.wall_s + again.wall_s) / 2)
    unattributed = metrics["unattributed_s"][0]
    checks = workload.checks([base]) + [
        Check("same_seed_same_result", workload.same_output(base, again)),
        Check("tracing_changes_no_result", workload.same_output(base, traced)),
        Check("spans_inside_wall", unattributed >= 0.0, f"unattributed {unattributed:.6f}s"),
    ]
    spans_path = recorder.write_jsonl(RESULTS_DIR / f"{args.workload}-seed{args.seed}-spans.jsonl")
    ops: dict[str, list[float]] = {}
    for span in recorder.spans:
        ops.setdefault(f"{span.layer}:{span.op}", []).append(span.duration)
    return {
        "reps": [base],
        "checks": checks,
        "metrics": metrics,
        "info": {"spans_file": str(spans_path.relative_to(ROOT)), "spans": len(recorder.spans)},
        "ops": {op: {"unit": "s", "count": len(v), "samples": v} for op, v in ops.items()},
    }


# -- entry point -------------------------------------------------------------


def parse_args(argv: Optional[list[str]]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("table3", "long_campaign", "diurnal_week"))
    parser.add_argument("--seed", type=int, default=2021)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def load_workload(name: str) -> Any:
    """Import ``repro`` from this checkout's ``src`` and return the workload."""
    if not (SRC / "repro" / "__init__.py").is_file():
        raise SystemExit(f"error: no repro sources under {SRC}")
    sys.path.insert(0, str(SRC))
    # workloads imports repro, so it (and tracing) is imported only from here on.
    import workloads

    return workloads.WORKLOADS[name]


def main(argv: Optional[list[str]] = None) -> dict[str, Any]:
    args = parse_args(argv)
    workload = load_workload(args.workload)
    WORK_DIR.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        measure = per_layer if args.trace else end_to_end
        run = measure(workload, args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reps, checks = run["reps"], run["checks"]
    attempted = sum(len(r.trials) or 1 for r in reps) + len(checks)
    failed = sum(workload.failed_ops(r) for r in reps) + sum(1 for c in checks if not c.ok)
    metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in run["metrics"].items()}
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}

    record = {
        "benchmark": "e2ebench",
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": {**dataclasses.asdict(workload), "inputs": [r.seed for r in reps]},
        "host": host_fingerprint(),
        **summary,
        "failed_frac": failed / attempted,
        "info": run["info"],
        "checks": [vars(c) for c in checks],
        "ops": run["ops"],
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1, default=str))

    print(f"{args.workload}: seed {args.seed}, {len(reps)} input(s) {[r.seed for r in reps]}, trace {args.trace}")
    for name, (value, unit) in run["metrics"].items():
        print(f"  {name:32s} {value:>14.6g} {unit}")
    for name, value in run["info"].items():
        print(f"  (info) {name:25s} {value}")
    print(f"  (info) {'failed_frac':25s} {record['failed_frac']:.6g} ({failed} of {attempted})")
    for check in checks:
        print(f"  check {'ok  ' if check.ok else 'FAIL'} {check.name} {check.detail}")
    print(f"  record: {out.relative_to(ROOT)}")
    print(json.dumps(summary))
    return record


if __name__ == "__main__":
    main()
