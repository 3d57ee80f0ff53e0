"""Evaluation-path throughput benchmark: raw-number delays, warm reuse, cache.

Two measurements, both against a faithful emulation of the pre-optimization
evaluation path:

- **DES microbenchmark** — pure simulated-delay churn. The baseline arm
  yields ``LegacyTimeout`` events (the old protocol: a full
  ``Event.__init__`` with a callbacks list, a separate ``env.schedule()``
  call, and a ``step()``-per-event drain loop). The fast arm yields raw
  numbers, which ride the pooled :class:`~repro.simcore.events.SlimDelay`
  fast lane through the localized run loop. Both arms must end at the
  same simulated clock — the lanes are byte-identical by construction.

- **End-to-end campaign** — a duplicate-heavy trial sequence over the
  Pl@ntNet scenario. The baseline arm disables warm deployment reuse and
  the evaluation cache (every trial re-places the deployment and
  re-simulates). The fast arm enables both, so repeated configurations
  hit the :class:`~repro.search.evalcache.EvalCache` and unique ones
  simulate against a warm deployment. Both arms simulate on the engine's
  one delay path, raw-number yields. Trial results must match the
  baseline arm exactly, trial by trial.

Results land in ``benchmarks/results/BENCH_eval.json``; its ``ops`` block
holds each DES arm's per-repeat cost per event (``des.<arm>.event``) and
each campaign arm's wall per trial (``campaign.<arm>.trial``). Scale: set
``REPRO_BENCH_SMOKE=1`` for the CI-sized smoke run.
"""

from __future__ import annotations

import math
import os
import time
from typing import Any, Optional

from benchmarks.conftest import save_bench
from repro.plantnet.scenario import PlantNetScenario
from repro.search.algos import SearchAlgorithm
from repro.search.evalcache import EvalCache
from repro.search.runner import TrialRunner
from repro.simcore.core import EmptySchedule, Environment
from repro.simcore.events import NORMAL, Event

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
SEED = 2021

# -- DES microbenchmark --------------------------------------------------------------

N_PROCS = 200
N_WAITS = 250 if SMOKE else 1000
DES_REPEATS = 3 if SMOKE else 5


class LegacyTimeout(Event):
    """The pre-optimization timeout protocol, kept for the baseline arm.

    Finiteness validation, a full ``Event.__init__`` (callbacks list,
    pending value), then a separate ``env.schedule()`` call (which
    validates again) — exactly what every simulated delay used to cost
    before raw-number yields and the ``SlimDelay`` pool.
    """

    __slots__ = ("delay",)

    def __init__(self, env: Environment, delay: float) -> None:
        if not math.isfinite(delay) or delay < 0:
            raise ValueError(f"timeout delay must be finite and >= 0, got {delay}")
        Event.__init__(self, env)
        self.delay = delay
        self._ok = True
        self._value = None
        env.schedule(self, NORMAL, delay)


def _delay_plan() -> list[tuple[float, ...]]:
    """Per-process delay sequences, precomputed so neither arm pays for
    the arithmetic inside the measured loop."""
    return [
        tuple(0.001 * ((i + k) % 7 + 1) for k in range(N_WAITS))
        for i in range(N_PROCS)
    ]


def _des_workload(env: Environment, plan: list[tuple[float, ...]], legacy: bool):
    if legacy:
        def proc(delays: tuple[float, ...]):
            for delay in delays:
                yield LegacyTimeout(env, delay)
    else:
        def proc(delays: tuple[float, ...]):
            for delay in delays:
                yield delay

    for i, delays in enumerate(plan):
        env.process(proc(delays), name=f"p{i}")


def _des_arm(legacy: bool) -> tuple[dict[str, float], list[float]]:
    walls: list[float] = []
    final_now = 0.0
    plan = _delay_plan()
    for _ in range(DES_REPEATS):
        env = Environment()
        _des_workload(env, plan, legacy)
        t0 = time.perf_counter()
        if legacy:
            # The old drain loop: one step() call per event, with the
            # per-event wall-deadline check the old run() always made.
            wall_deadline = None
            try:
                while True:
                    env.step()
                    if wall_deadline is not None and time.perf_counter() > wall_deadline:
                        raise RuntimeError("unreachable")
            except EmptySchedule:
                pass
        else:
            env.run()
        walls.append(time.perf_counter() - t0)
        final_now = env.now
    events = N_PROCS * (N_WAITS + 2)  # +init +completion per process
    best = min(walls)
    return {
        "wall_s": best,
        "events_per_sec": events / best,
        "final_now": final_now,
    }, [wall / events for wall in walls]


# -- end-to-end campaign --------------------------------------------------------------

UNIQUE_CONFIGS: list[dict[str, int]] = [
    {"http": 20, "download": 20, "simsearch": 20, "extract": 3},
    {"http": 40, "download": 30, "simsearch": 40, "extract": 5},
    {"http": 60, "download": 40, "simsearch": 30, "extract": 7},
    {"http": 30, "download": 50, "simsearch": 50, "extract": 4},
]
REPLAYS = 4  # every config proposed this many times → 3/4 of trials are duplicates
SIM_REQUESTS = 40 if SMOKE else 80
DURATION = 60.0 if SMOKE else 180.0
WARMUP = 10.0


class ReplaySearch(SearchAlgorithm):
    """Proposes a fixed, duplicate-heavy configuration sequence."""

    def __init__(self, space: Any, sequence: list[dict[str, Any]]) -> None:
        self._sequence = list(sequence)
        self._i = 0

    def suggest(self, trial_id: str) -> Optional[dict[str, Any]]:
        if self._i >= len(self._sequence):
            return None
        config = dict(self._sequence[self._i])
        self._i += 1
        return config

    def on_trial_complete(
        self, trial_id: str, config: dict[str, Any], value: float
    ) -> None:
        pass


def _campaign_sequence() -> list[dict[str, int]]:
    # Interleaved (a b c d a b c d ...) so duplicates are never adjacent.
    return [config for _ in range(REPLAYS) for config in UNIQUE_CONFIGS]


def _campaign_arm(*, fast: bool) -> tuple[dict[str, Any], list[dict[str, float]]]:
    scenario = PlantNetScenario(
        duration=DURATION,
        warmup=WARMUP,
        repetitions=1,
        base_seed=SEED,
        use_testbed=True,
        warm_reuse=fast,
    )
    cache = None
    if fast:
        cache = EvalCache(
            fingerprint={
                "scenario": scenario.fingerprint(),
                "simultaneous_requests": SIM_REQUESTS,
            }
        )

    def evaluate(config: dict[str, Any]) -> dict[str, float]:
        return scenario.evaluate(dict(config), SIM_REQUESTS)

    sequence = _campaign_sequence()
    runner = TrialRunner(
        evaluate,
        ReplaySearch(None, sequence),
        metric="user_resp_time",
        mode="min",
        num_samples=len(sequence),
        executor="sync",
        name="bench_eval_fast" if fast else "bench_eval_base",
        eval_cache=cache,
    )
    t0 = time.perf_counter()
    try:
        analysis = runner.run()
    finally:
        scenario.close()
    wall = time.perf_counter() - t0
    results = [dict(t.result) for t in analysis.trials]
    arm = {
        "trials": len(analysis.trials),
        "wall_s": wall,
        "trials_per_sec": len(analysis.trials) / wall,
        "cache": cache.stats() if cache is not None else None,
    }
    return arm, results


# -- the benchmark --------------------------------------------------------------------


def test_eval_throughput():
    # DES microbenchmark: raw-number fast lane vs the legacy event protocol.
    legacy, legacy_samples = _des_arm(legacy=True)
    fast, fast_samples = _des_arm(legacy=False)
    assert fast["final_now"] == legacy["final_now"], "lanes diverged in simulated time"
    des_speedup = legacy["wall_s"] / fast["wall_s"]

    # End-to-end campaign: all optimizations on vs the pre-PR path.
    base_arm, base_results = _campaign_arm(fast=False)
    fast_arm, fast_results = _campaign_arm(fast=True)
    campaign_speedup = base_arm["wall_s"] / fast_arm["wall_s"]

    # Byte-identity: same seeds → same objectives, trial by trial, with
    # warm reuse and the cache enabled.
    assert len(base_results) == len(fast_results) == len(_campaign_sequence())
    for i, (b, f) in enumerate(zip(base_results, fast_results)):
        assert b == f, f"trial {i} diverged: {b} != {f}"

    payload = {
        "scale": "smoke" if SMOKE else "full",
        "seed": SEED,
        "des": {
            "n_procs": N_PROCS,
            "n_waits": N_WAITS,
            "legacy": legacy,
            "fast": fast,
            "speedup": des_speedup,
        },
        "campaign": {
            "unique_configs": len(UNIQUE_CONFIGS),
            "replays": REPLAYS,
            "simultaneous_requests": SIM_REQUESTS,
            "duration_s": DURATION,
            "baseline": base_arm,
            "fast": fast_arm,
            "speedup": campaign_speedup,
            "byte_identical": True,
        },
    }
    ops = {
        "des.legacy.event": legacy_samples,
        "des.fast.event": fast_samples,
        "campaign.baseline.trial": [base_arm["wall_s"] / base_arm["trials"]],
        "campaign.fast.trial": [fast_arm["wall_s"] / fast_arm["trials"]],
    }
    save_bench("BENCH_eval", payload, ops)

    print()
    print(f"evaluation-path throughput ({payload['scale']})")
    print(
        f"  DES micro: legacy {legacy['events_per_sec']:,.0f} ev/s, "
        f"fast {fast['events_per_sec']:,.0f} ev/s → {des_speedup:.1f}x"
    )
    print(
        f"  campaign ({len(base_results)} trials, "
        f"{len(UNIQUE_CONFIGS)} unique): baseline {base_arm['wall_s']:.2f}s, "
        f"fast {fast_arm['wall_s']:.2f}s → {campaign_speedup:.1f}x"
    )
    print(f"  cache: {fast_arm['cache']}")

    assert des_speedup >= 2.0, f"expected >=2x DES speedup, got {des_speedup:.2f}x"
    assert campaign_speedup >= 3.0, (
        f"expected >=3x campaign speedup, got {campaign_speedup:.2f}x"
    )
    # The duplicate replays must all have come from the cache.
    stats = fast_arm["cache"]
    assert stats["hits"] == len(_campaign_sequence()) - len(UNIQUE_CONFIGS)
    assert stats["stores"] == len(UNIQUE_CONFIGS)
