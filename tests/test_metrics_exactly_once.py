"""Differential test: every span-derived metric lands in ``metrics.json`` once.

The campaigns of ``tests/test_digest_exactly_once.py`` (sync, retries and a
timeout, a cache hit, a batched thread campaign, process and store
executors) plus one small ``PlantNetOptimization`` campaign with injected
faults and a validation repeat run under ``obs.enable()``. The exported
``metrics.json`` must equal, family by family and label set by label set,
what an earlier implementation exported for the same campaigns. That
implementation wrote the registry directly at each hot path, next to the
span, and its process workers shipped drained registry state to the
parent.

Counters and gauges compare by value, histograms by observation count.
Wall-valued series (histogram sums, ``engine_loop_sim_wall_ratio``) are
compared by presence only.
"""

from __future__ import annotations

import json

import pytest

import repro.observability as obs
from repro.faults import FaultInjector, FaultSpec
from repro.optimizer import OptimizationManager, OptimizerConf
from repro.plantnet import PlantNetOptimization
from repro.search import RandomSearch, run
from tests.test_digest_exactly_once import (
    _space,
    cache_campaign,
    process_campaign,
    retry_campaign,
    run_traced,
    store_campaign,
    sync_campaign,
    thread_campaign,
)

#: gauges whose value is a wall-clock measurement.
WALL_GAUGES = {"engine_loop_sim_wall_ratio"}


def _metric_map(path):
    """``{family: {"k=v,...": value}}``; histograms map to their count."""
    out = {}
    for family in json.loads(path.read_text())["metrics"]:
        series = {}
        for entry in family["series"]:
            key = ",".join(f"{k}={v}" for k, v in sorted(entry["labels"].items()))
            if family["kind"] == "histogram":
                series[key] = entry["value"]["count"]
            elif family["name"] in WALL_GAUGES:
                series[key] = "present"
            else:
                series[key] = entry["value"]
        out[family["name"]] = series
    return out


def _self_metrics(spans):
    return {
        "repro_tracer_spans_recorded": {"": float(spans)},
        "repro_tracer_subscriber_errors": {"": 0.0},
    }


def _fabric(merged):
    return {
        "repro_fabric_merge_dropped_total": {"": 0.0},
        "repro_fabric_merged_spans_total": {"": float(merged)},
    }


RUNNER_CAMPAIGNS = {
    "sync": (sync_campaign, _self_metrics(27)),
    "retries": (
        retry_campaign,
        {
            **_self_metrics(14),
            "repro_trial_retries_total": {"": 2.0},
            "repro_trial_timeouts_total": {"": 1.0},
        },
    ),
    "cache": (
        cache_campaign,
        {
            **_self_metrics(20),
            "repro_eval_cache_lookups_total": {"outcome=hits": 1.0, "outcome=misses": 3.0},
        },
    ),
    "thread": (thread_campaign, _self_metrics(31)),
    "process": (process_campaign, {**_self_metrics(24), **_fabric(4)}),
    "store": (store_campaign, {**_self_metrics(15), **_fabric(3)}),
}


@pytest.mark.parametrize("name", sorted(RUNNER_CAMPAIGNS))
def test_runner_campaign_metrics(name, tmp_path):
    campaign, expected = RUNNER_CAMPAIGNS[name]
    with campaign(tmp_path) as (runner, run_dir):
        run_traced(runner, run_dir)
    assert _metric_map(run_dir / "metrics.json") == expected


class _FaultyPlantNet(PlantNetOptimization):
    """Pl@ntNet evaluations that may suffer one injected fault each."""

    def __init__(self, injector, **kwargs):
        super().__init__(**kwargs)
        self._faulty_launch = injector.wrap(super().launch)

    def launch(self, config, **kwargs):
        return self._faulty_launch(config, **kwargs)


#: the earlier implementation's export, plus one zero-length ``fault`` span
#: per injected fault (the spans the injected-fault counter now derives from).
PLANTNET_METRICS = {
    "engine_loop_events_total": {"": 80471.0},
    "engine_loop_max_queue_depth": {"": 22.0},
    "engine_loop_sim_wall_ratio": {"": "present"},
    "engine_pool_busy": {
        "pool=download": 0.011321402971708952,
        "pool=extract": 0.3975053413144315,
        "pool=http": 0.4255319148936161,
        "pool=simsearch": 0.40209718744049616,
    },
    "engine_pool_grants_total": {
        "pool=download": 7325.0,
        "pool=extract": 7323.0,
        "pool=http": 7326.0,
        "pool=simsearch": 7306.0,
    },
    "engine_pool_wait_mean_s": {
        "pool=download": 0.0,
        "pool=extract": 0.0023611430531913853,
        "pool=http": 0.0,
        "pool=simsearch": 0.0,
    },
    "engine_pool_wait_seconds": {
        "pool=download": 5,
        "pool=extract": 5,
        "pool=http": 5,
        "pool=simsearch": 5,
    },
    "engine_requests_completed_total": {"": 4866.0},
    "repro_best_value": {"": 1.2335685051539131},
    "repro_eval_cache_lookups_total": {"outcome=misses": 5.0},
    "repro_evaluation_seconds": {"": 3},
    "repro_evaluations_total": {"": 3.0},
    "repro_faults_injected_total": {
        "kind=link_degradation": 1.0,
        "kind=straggler": 4.0,
        "kind=transient": 2.0,
    },
    **_self_metrics(74 + 7),
    "repro_validation_runs_total": {"": 2.0},
    "testbed_nodes_reserved": {
        "cluster=chetemi": 13.0,
        "cluster=chiclet": 8.0,
        "cluster=chifflet": 8.0,
        "cluster=chifflot": 1.0,
        "cluster=gros": 12.0,
    },
}


def test_plantnet_campaign_with_faults_and_validation(tmp_path):
    injector = FaultInjector(
        FaultSpec(
            transient=0.3, link_degradation=0.3, straggler=0.2, straggler_delay_s=0.0, seed=1
        )
    )
    optimization = _FaultyPlantNet(
        injector,
        simultaneous_requests=20,
        duration=90.0,
        warmup=30.0,
        n_initial_points=3,
        num_samples=5,
        max_concurrent=1,
        workdir=tmp_path / "work",
        seed=4,
    )
    conf = OptimizerConf.from_dict(
        {
            "name": "plantnet_engine",
            "variables": [{"name": "x", "type": "integer", "low": 0, "high": 1}],
            "objectives": [{"metric": "user_resp_time", "mode": "min"}],
            "repeat": 1,
            "duration": 90.0,
            "observability": True,
            "seed": 4,
        }
    )
    outcome = OptimizationManager(conf, optimization=optimization).run()
    assert len(outcome.validation_runs) == 2
    assert injector.injected == {
        "transient": 2,
        "node_crash": 0,
        "straggler": 4,
        "link_degradation": 1,
    }
    metrics = _metric_map(optimization.archive.root / "metrics.json")
    assert metrics == PLANTNET_METRICS


def _engine_objective(config):
    from repro.engine import BASELINE_CONFIG, simulate_engine

    result = simulate_engine(BASELINE_CONFIG, 5, duration=20.0, warmup=5.0, seed=config["a"])
    return float(result.completed_requests)


def test_worker_engine_metrics_match_in_process_run():
    """Engine spans recorded in process workers become parent metrics once:
    the same seeded campaign meters the same engine totals on either side
    of the process boundary."""

    def metered(executor):
        tracer = obs.enable()
        try:
            run(
                _engine_objective,
                search_alg=RandomSearch(_space(), seed=8),
                metric="completed",
                num_samples=3,
                executor=executor,
                max_workers=2,
                name=f"metered-{executor}",
            )
        finally:
            obs.disable()
        return tracer.metrics

    inline, workers = metered("sync"), metered("process")
    for name in ("engine_requests_completed_total", "engine_loop_events_total"):
        assert workers.counter(name).value() == inline.counter(name).value() > 0
    grants = "engine_pool_grants_total"
    assert workers.counter(grants, labelnames=("pool",)).series() == (
        inline.counter(grants, labelnames=("pool",)).series()
    )
    wait = workers.histogram("engine_pool_wait_seconds", labelnames=("pool",))
    assert wait.snapshot(pool="http")["count"] == 3
