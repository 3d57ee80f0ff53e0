"""Hybrid fluid/DES engine benchmark: internet-scale open-loop workloads.

One day of Pl@ntNet traffic at a 1M-user base (~1 photo per user per day,
diurnal peak-to-trough ratio 3) is simulated twice:

- **pure DES** — the :class:`~repro.engine.engine.IdentificationEngine`
  driven by the scheduled Poisson source, every one of the ~1M requests
  event-simulated through the nine-step pipeline;
- **hybrid** — :class:`~repro.engine.hybrid.HybridEngine` fast-forwarding
  fluid epochs through the open-loop analytic model and dropping into
  short DES calibration windows at regime changes and on a fixed cadence.

The pure-DES run doubles as ground truth: hybrid throughput / mean / p95
must agree within the configured error bound (default 5%), and the
hybrid's own window-level error accounting (``within_bound``) must agree.
A repeat hybrid run with the same seed must reproduce identical numbers.

Results land in ``benchmarks/results/BENCH_hybrid.json``. Scale: set
``REPRO_BENCH_SMOKE=1`` for the CI-sized smoke run (a compressed 2-hour
"day" with the same rate curve — per-unit costs stay comparable, which is
what the perf gate diffs: the ``ops`` block's wall per DES calibration
window, ``hybrid.window``, and pure-DES wall per completed request,
``des.request``).
"""

from __future__ import annotations

import os
import time
from typing import Any

from benchmarks.conftest import save_bench
from repro.engine import (
    BASELINE_CONFIG,
    HybridKnobs,
    IdentificationEngine,
    WorkloadSpec,
    simulate_hybrid,
)
from repro.plantnet.growth import UserGrowthModel

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
SEED = 2021

USERS = 1_000_000
REQUESTS_PER_USER_PER_DAY = 1.0
DIURNAL_RATIO = 3.0
#: smoke compresses the diurnal day so the pure-DES arm stays CI-sized;
#: the rate curve (and hence per-request / per-window cost) is unchanged.
DAY_S = 7200.0 if SMOKE else 86400.0
ERROR_BOUND = 0.05
#: windows amortize poorly over a short smoke day (fewer fluid epochs per
#: calibration window), so the smoke floor is lower than the headline 50x.
MIN_SPEEDUP = 5.0 if SMOKE else 50.0

KNOBS = HybridKnobs(error_bound=ERROR_BOUND)


def _schedule():
    return UserGrowthModel().arrival_schedule(
        users=USERS,
        requests_per_user_per_day=REQUESTS_PER_USER_PER_DAY,
        diurnal_ratio=DIURNAL_RATIO,
        period=DAY_S,
    )


def _des_arm(schedule) -> dict[str, Any]:
    workload = WorkloadSpec(arrival_schedule=schedule, duration=DAY_S, warmup=0.0)
    engine = IdentificationEngine(BASELINE_CONFIG, workload, seed=SEED)
    t0 = time.perf_counter()
    result = engine.run()
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "completed": result.completed_requests,
        "throughput": result.throughput,
        "response_mean_s": result.user_response_time.mean,
        "response_p95_s": result.response_percentiles["p95"],
    }


def _hybrid_arm(schedule) -> tuple[dict[str, Any], Any]:
    t0 = time.perf_counter()
    result = simulate_hybrid(
        BASELINE_CONFIG, schedule, duration=DAY_S, knobs=KNOBS, seed=SEED
    )
    wall = time.perf_counter() - t0
    arm = {
        "wall_s": wall,
        "completed": result.completed_requests,
        "throughput": result.throughput,
        "response_mean_s": result.user_response_time.mean,
        "response_p95_s": result.response_percentiles["p95"],
        "epochs": result.fluid_epochs + result.des_epochs,
        "fluid_epochs": result.fluid_epochs,
        "des_epochs": result.des_epochs,
        "des_time_fraction": result.des_time_fraction,
        "max_window_error": result.max_window_error,
        "error_throughput_bias": result.error_throughput_bias,
        "error_p95_bias": result.error_p95_bias,
        "within_bound": result.within_bound,
        "engine_rebuilds": result.engine_rebuilds,
    }
    return arm, result


def _rel_err(measured: float, truth: float) -> float:
    return abs(measured - truth) / truth


def test_hybrid_workload_scaling():
    schedule = _schedule()

    des = _des_arm(schedule)
    hybrid, hybrid_result = _hybrid_arm(schedule)
    speedup = des["wall_s"] / hybrid["wall_s"]

    # Reproducibility: the hybrid path is deterministic under a fixed seed.
    replay, _ = _hybrid_arm(schedule)
    for key in ("completed", "throughput", "response_mean_s", "response_p95_s"):
        assert replay[key] == hybrid[key], f"hybrid replay diverged on {key}"

    errors = {
        "throughput": _rel_err(hybrid["throughput"], des["throughput"]),
        "response_mean": _rel_err(des["response_mean_s"], hybrid["response_mean_s"]),
        "response_p95": _rel_err(des["response_p95_s"], hybrid["response_p95_s"]),
    }

    payload = {
        "scale": "smoke" if SMOKE else "full",
        "seed": SEED,
        "scenario": {
            "users": USERS,
            "requests_per_user_per_day": REQUESTS_PER_USER_PER_DAY,
            "diurnal_ratio": DIURNAL_RATIO,
            "day_s": DAY_S,
            "mean_rate": schedule.mean_rate(DAY_S),
            "peak_rate": schedule.peak_rate(DAY_S),
        },
        "des": des,
        "hybrid": hybrid,
        "speedup": speedup,
        "calibration": {
            "error_bound": ERROR_BOUND,
            "errors_vs_des": errors,
            "within_bound": hybrid["within_bound"],
        },
    }
    ops = {
        "hybrid.window": [hybrid["wall_s"] / hybrid["des_epochs"]],
        "des.request": [des["wall_s"] / des["completed"]],
    }
    save_bench("BENCH_hybrid", payload, ops)

    print()
    print(f"hybrid fluid/DES scaling ({payload['scale']})")
    print(
        f"  scenario: {USERS:,} users, mean {schedule.mean_rate(DAY_S):.2f} req/s, "
        f"peak {schedule.peak_rate(DAY_S):.2f} req/s over {DAY_S:,.0f}s"
    )
    print(
        f"  pure DES: {des['wall_s']:.2f}s wall for {des['completed']:,} requests "
        f"({des['throughput']:.2f} req/s, p95 {des['response_p95_s']:.3f}s)"
    )
    print(
        f"  hybrid:   {hybrid['wall_s']:.2f}s wall, {hybrid['des_epochs']} DES windows / "
        f"{hybrid['epochs']} epochs, {hybrid['des_time_fraction']:.1%} time event-simulated"
    )
    print(
        f"  speedup {speedup:.1f}x; errors vs DES: "
        + ", ".join(f"{k} {v:.2%}" for k, v in errors.items())
    )

    assert speedup >= MIN_SPEEDUP, (
        f"expected >={MIN_SPEEDUP:.0f}x hybrid speedup, got {speedup:.1f}x"
    )
    for metric, err in errors.items():
        assert err <= ERROR_BOUND, (
            f"hybrid {metric} off by {err:.2%} vs DES (bound {ERROR_BOUND:.0%})"
        )
    # The engine's own error accounting must agree with the external check.
    assert hybrid_result.within_bound, (
        f"hybrid self-reported bias out of bound: "
        f"throughput {hybrid_result.error_throughput_bias:.2%}, "
        f"p95 {hybrid_result.error_p95_bias:.2%}"
    )
