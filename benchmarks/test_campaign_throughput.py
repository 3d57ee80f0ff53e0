"""Campaign-throughput benchmark for the ask/tell hot path.

Measures how fast an optimization campaign turns the suggest → evaluate →
tell crank, comparing three arms over the same search space and seed:

- **baseline** — the pre-batching protocol: one ``ask()`` per trial with a
  surrogate refit on every ask (``refit_every=1``), an unbounded fitted-model
  history, and an eager ``result()`` rebuild after every ``tell`` (what the
  optimizer used to do internally).
- **fast** — the batched hot path through :func:`repro.search.run`: asks are
  drawn eight at a time from a single surrogate fit, refits are throttled
  (``refit_every=8``), the model history is off, and results are lazy.
- **flat** — refits off the ask path entirely: incremental per-tell
  ``partial_fit`` updates and full refits on the background worker, over a
  longer campaign. The payload's
  ``suggest_head`` / ``suggest_tail`` blocks hold the first-window vs
  last-window suggest percentiles; the benchmark asserts the tail stays
  flat (p99 within 2× of the head) as the trial count grows.

The objective is a cheap analytic quadratic so the measurement isolates the
optimizer-side cost (suggest + tell), not the evaluation. Results land in
``benchmarks/results/BENCH_campaign.json``: trials/sec per arm, the
suggest+tell speedup, p50/p90/p99 suggest and tell latencies, the flat arm's
head/tail split and fit counters, a sync-determinism marker, and peak RSS.

Scale: 500 trials (flat arm 1000) by default; set ``REPRO_BENCH_SMOKE=1``
for a 120-trial (flat arm 360) smoke run (used by CI).

Set ``REPRO_BENCH_SERVE=1`` to run the fast arm in the served
configuration of ``optimize --serve``: tracing on, the embedded HTTP
monitor with its span-fed status board, and a background scraper
hammering ``/metrics`` and ``/status``. The measured suggest/tell
percentiles then include the telemetry plane's hot-path cost, and the
perf gate downstream verifies serving does not regress the campaign.
"""

from __future__ import annotations

import contextlib
import os
import resource
import threading
import time

import numpy as np

from benchmarks.conftest import save_results
from repro.bayesopt import Optimizer, Real, Space
from repro.search import run
from repro.search.algos import SurrogateSearch

SMOKE = os.environ.get("REPRO_BENCH_SMOKE", "") == "1"
SERVE = os.environ.get("REPRO_BENCH_SERVE", "") == "1"
N_TRIALS = 120 if SMOKE else 500
N_FLAT = 360 if SMOKE else 1000
WINDOW = 120  # head/tail window for the flat-arm percentile split
BATCH_SIZE = 8
REFIT_EVERY = 8
SEED = 2021


def _space() -> Space:
    return Space([
        Real(0.0, 1.0, name="a"),
        Real(0.0, 1.0, name="b"),
        Real(0.0, 1.0, name="c"),
    ])


def _objective(config: dict) -> float:
    return (
        (config["a"] - 0.25) ** 2
        + (config["b"] - 0.5) ** 2
        + (config["c"] - 0.75) ** 2
    )


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _percentiles(samples: list[float]) -> dict[str, float]:
    arr = np.asarray(samples, dtype=float)
    return {
        "p50_ms": float(np.percentile(arr, 50) * 1e3),
        "p90_ms": float(np.percentile(arr, 90) * 1e3),
        "p99_ms": float(np.percentile(arr, 99) * 1e3),
    }


def _run_baseline(n: int) -> dict:
    """Legacy per-trial protocol: refit-per-ask, model history, eager result."""
    space = _space()
    opt = Optimizer(space, random_state=SEED, refit_every=1, keep_models=n)
    names = space.names
    suggest_s: list[float] = []
    tell_s: list[float] = []
    wall0 = time.perf_counter()
    for _ in range(n):
        t0 = time.perf_counter()
        point = opt.ask()
        t1 = time.perf_counter()
        y = _objective(dict(zip(names, point)))
        t2 = time.perf_counter()
        opt.tell(point, y)
        opt.result()  # the old tell() rebuilt this eagerly every time
        t3 = time.perf_counter()
        suggest_s.append(t1 - t0)
        tell_s.append(t3 - t2)
    wall = time.perf_counter() - wall0
    opt_time = sum(suggest_s) + sum(tell_s)
    return {
        "trials": n,
        "wall_s": wall,
        "opt_time_s": opt_time,
        "trials_per_sec": n / wall,
        "opt_trials_per_sec": n / opt_time,
        "suggest": _percentiles(suggest_s),
        "tell": _percentiles(tell_s),
        "models_kept": len(opt.models),
        "best": opt.result().fun,
    }


@contextlib.contextmanager
def _serving(n: int):
    """With ``REPRO_BENCH_SERVE=1``: tracing on, a live monitor whose status
    board is fed from the span stream, and a background scraper polling
    ``/metrics`` + ``/status`` while the timed arm runs — so the
    measurement includes the telemetry plane's cost on the hot path.
    Yields the monitor (or ``None`` when serving is off)."""
    if not SERVE:
        yield None
        return
    import urllib.request

    from repro import observability
    from repro.observability.live import LiveMonitor

    observability.enable()
    monitor = LiveMonitor("127.0.0.1", 0, name="bench_campaign", num_samples=n)
    monitor.start()
    stop = threading.Event()

    def scrape() -> None:
        while not stop.wait(0.2):
            for endpoint in ("/metrics", "/status"):
                try:
                    with urllib.request.urlopen(monitor.url + endpoint, timeout=5) as r:
                        r.read()
                except OSError:
                    pass

    scraper = threading.Thread(target=scrape, name="bench-scraper", daemon=True)
    scraper.start()
    try:
        yield monitor
    finally:
        stop.set()
        scraper.join(timeout=5)
        monitor.stop()
        observability.disable()


def _run_fast(n: int) -> dict:
    """Batched hot path through the trial runner, costs from Trial.cost."""
    space = _space()
    search = SurrogateSearch(
        space,
        batch_size=BATCH_SIZE,
        random_state=SEED,
        refit_every=REFIT_EVERY,
    )
    with _serving(n) as monitor:
        wall0 = time.perf_counter()
        analysis = run(
            _objective,
            space=space,
            metric="loss",
            num_samples=n,
            search_alg=search,
            name="bench_campaign",
        )
        wall = time.perf_counter() - wall0
        serve_stats = None
        if monitor is not None:
            serve_stats = monitor.self_stats()
            assert monitor.board.snapshot()["trials"]["done"] == n
    suggest_s = [t.cost.get("suggest_s", 0.0) for t in analysis.trials]
    tell_s = [t.cost.get("tell_s", 0.0) for t in analysis.trials]
    opt_time = sum(suggest_s) + sum(tell_s)
    return {
        "trials": len(analysis.trials),
        "wall_s": wall,
        "opt_time_s": opt_time,
        "trials_per_sec": len(analysis.trials) / wall,
        "opt_trials_per_sec": len(analysis.trials) / opt_time,
        "suggest": _percentiles(suggest_s),
        "tell": _percentiles(tell_s),
        "models_kept": len(search.optimizer.models),
        "best": analysis.best_result,
        "serve": serve_stats,
    }


def _run_flat(n: int) -> dict:
    """Long campaign with refits off the ask path: incremental per-tell
    updates plus background full refits. Records
    the first-window vs last-window suggest percentiles so the payload can
    show (and the test can assert) that the tail stays flat as trials grow.
    """
    space = _space()
    opt = Optimizer(
        space,
        random_state=SEED,
        refit_every=REFIT_EVERY,
        incremental=True,
        background_refit=True,
    )
    names = space.names
    suggest_s: list[float] = []
    tell_s: list[float] = []
    wall0 = time.perf_counter()
    try:
        for _ in range(n):
            t0 = time.perf_counter()
            point = opt.ask()
            t1 = time.perf_counter()
            y = _objective(dict(zip(names, point)))
            t2 = time.perf_counter()
            opt.tell(point, y)
            t3 = time.perf_counter()
            suggest_s.append(t1 - t0)
            tell_s.append(t3 - t2)
        wall = time.perf_counter() - wall0
        best = opt.result().fun
        n_fits = opt.n_fits
        n_background = opt.n_background_fits
    finally:
        opt.close()
    head = _percentiles(suggest_s[:WINDOW])
    tail = _percentiles(suggest_s[-WINDOW:])
    # A tiny absolute floor keeps the ratio meaningful when both windows
    # are sub-millisecond and dominated by scheduler noise.
    floor_ms = 5.0
    tail_ratio = tail["p99_ms"] / max(head["p99_ms"], floor_ms)
    return {
        "trials": n,
        "wall_s": wall,
        "trials_per_sec": n / wall,
        "suggest": _percentiles(suggest_s),
        "suggest_head": head,
        "suggest_tail": tail,
        "tell": _percentiles(tell_s),
        "tail_ratio_p99": tail_ratio,
        "n_full_fits": n_fits,
        "n_background_fits": n_background,
        "best": best,
    }


def _run_sync_determinism(n: int = 60) -> dict:
    """Two identical synchronous runs (background_refit off) must agree
    byte-for-byte — the deterministic fallback the docs promise."""

    def _once() -> tuple[list[float], float]:
        space = _space()
        opt = Optimizer(
            space, random_state=SEED, refit_every=REFIT_EVERY,
            background_refit=False,
        )
        names = space.names
        for _ in range(n):
            point = opt.ask()
            opt.tell(point, _objective(dict(zip(names, point))))
        result = opt.result()
        return [float(v) for v in result.func_vals], float(result.fun)

    vals_a, best_a = _once()
    vals_b, best_b = _once()
    return {
        "trials": n,
        "identical": vals_a == vals_b and best_a == best_b,
        "best": best_a,
    }


def test_campaign_throughput():
    fast = _run_fast(N_TRIALS)
    rss_after_fast = _peak_rss_mb()
    base = _run_baseline(N_TRIALS)
    flat = _run_flat(N_FLAT)
    determinism = _run_sync_determinism()

    speedup = base["opt_time_s"] / fast["opt_time_s"]
    payload = {
        "scale": "smoke" if SMOKE else "full",
        "serve": SERVE,
        "n_trials": N_TRIALS,
        "n_flat_trials": N_FLAT,
        "flat_window": WINDOW,
        "batch_size": BATCH_SIZE,
        "refit_every": REFIT_EVERY,
        "seed": SEED,
        "baseline": base,
        "fast": fast,
        "flat": flat,
        "sync_determinism": determinism,
        "suggest_tell_speedup": speedup,
        "peak_rss_mb": _peak_rss_mb(),
        "peak_rss_after_fast_mb": rss_after_fast,
    }
    save_results("BENCH_campaign", payload)

    print()
    print(f"campaign throughput ({payload['scale']}, {N_TRIALS} trials)")
    print(
        f"  baseline: {base['trials_per_sec']:7.1f} trials/s wall, "
        f"{base['opt_trials_per_sec']:7.1f} trials/s opt-side, "
        f"{base['models_kept']} models kept"
    )
    print(
        f"  fast:     {fast['trials_per_sec']:7.1f} trials/s wall, "
        f"{fast['opt_trials_per_sec']:7.1f} trials/s opt-side, "
        f"{fast['models_kept']} models kept"
    )
    print(f"  suggest+tell speedup: {speedup:.1f}x")
    print(
        f"  fast suggest p50/p90/p99: "
        f"{fast['suggest']['p50_ms']:.2f}/{fast['suggest']['p90_ms']:.2f}/"
        f"{fast['suggest']['p99_ms']:.2f} ms"
    )
    print(
        f"  fast tell p50/p90/p99: "
        f"{fast['tell']['p50_ms']:.2f}/{fast['tell']['p90_ms']:.2f}/"
        f"{fast['tell']['p99_ms']:.2f} ms"
    )
    print(
        f"  flat ({N_FLAT} trials): suggest p99 head/tail "
        f"{flat['suggest_head']['p99_ms']:.2f}/{flat['suggest_tail']['p99_ms']:.2f} ms "
        f"(ratio {flat['tail_ratio_p99']:.2f}), "
        f"{flat['n_full_fits']} blocking + {flat['n_background_fits']} background fits"
    )
    print(f"  sync determinism: {determinism['identical']}")
    print(f"  peak RSS: {payload['peak_rss_mb']:.1f} MB")
    if SERVE and fast.get("serve"):
        stats = fast["serve"]
        print(
            f"  live monitor: {stats['requests']} requests scraped, "
            f"{stats['sse_events_sent']} SSE events, "
            f"{stats['sse_events_dropped']} dropped"
        )

    # The hot-path rewrite must hold a >=5x suggest+tell advantage and keep
    # the fitted-model history flat (no per-trial model retention).
    assert speedup >= 5.0, f"expected >=5x suggest+tell speedup, got {speedup:.1f}x"
    assert fast["models_kept"] == 0
    assert fast["trials"] == N_TRIALS
    # Both arms optimize: sanity that batching didn't break convergence badly.
    assert fast["best"] < 0.5
    assert base["best"] < 0.5
    # Flat arm: with refits off the ask path, the suggest p99 at trial
    # N_FLAT must stay within 2x of the p99 over the first WINDOW trials,
    # and at most the initial model fit may have blocked an ask.
    assert flat["tail_ratio_p99"] <= 2.0, (
        f"suggest tail grew: head p99 {flat['suggest_head']['p99_ms']:.2f} ms, "
        f"tail p99 {flat['suggest_tail']['p99_ms']:.2f} ms"
    )
    assert flat["n_full_fits"] <= 1
    assert flat["n_background_fits"] >= 1
    assert flat["best"] < 0.5
    # And the synchronous fallback stays byte-deterministic.
    assert determinism["identical"]
