"""Golden outputs of the engine DES, pinned as exact literals.

Every case below runs the discrete-event engine (or the hybrid engine on
top of it) with a fixed seed and compares its outputs with ``==`` against
literals captured from the reference implementation. A hot-path change to
``repro.engine`` or ``repro.simcore`` must reproduce them bit for bit:
same heap keys, same event count, same service-noise stream. A deliberate
model or RNG-stream change re-baselines them explicitly — print the new
values with ``PYTHONPATH=src python tests/test_engine_golden.py`` and say
why in the change log.

Bulky per-request data (trace stamps, sampled series) is compared through
a SHA-256 digest of the ``repr`` of every float, which is exact.
"""

from __future__ import annotations

import hashlib
import pprint

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BASELINE_CONFIG,
    ArrivalSchedule,
    IdentificationEngine,
    ThreadPoolConfig,
    WorkloadSpec,
    simulate_hybrid,
)
from repro.engine.calibration import PRELIMINARY_OPTIMUM, REFINED_OPTIMUM
from repro.simcore import Environment

CONFIGS = {
    "baseline": BASELINE_CONFIG,
    "preliminary": PRELIMINARY_OPTIMUM,
    "refined": REFINED_OPTIMUM,
}

#: workload of each engine case (all run on the baseline config unless the
#: case name says otherwise).
WORKLOADS = {
    "closed": dict(simultaneous_requests=60, duration=100.0, warmup=20.0),
    "open": dict(arrival_rate=20.0, duration=90.0, warmup=15.0),
    "population": dict(
        simultaneous_requests=60,
        population_schedule=((0.0, 20), (40.0, 60), (70.0, 30)),
        duration=100.0,
        warmup=10.0,
    ),
    "diurnal": dict(
        arrival_schedule=ArrivalSchedule.diurnal(5.0, 25.0, period=120.0, steps=12),
        duration=120.0,
        warmup=10.0,
    ),
    "replay": dict(
        arrival_schedule=ArrivalSchedule.from_trace([0.05 * i * i for i in range(1, 40)]),
        duration=80.0,
        warmup=5.0,
    ),
}
SEED = 11


def _digest(values) -> str:
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def _summary(summary) -> tuple:
    return (summary.mean, summary.std, summary.count, summary.minimum, summary.maximum)


def fingerprint(result) -> dict:
    """The exact outputs of one engine run that the golden cases pin."""
    out = {
        "completed": result.completed_requests,
        "throughput": result.throughput,
        "response": _summary(result.user_response_time),
        "task_means": {name: s.mean for name, s in result.task_times.items()},
        "percentiles": dict(result.response_percentiles),
        "pool_busy": dict(result.pool_busy),
        "series": _digest(
            value for series in result.series.as_dict().values() for _, value in series
        ),
    }
    if result.traces:
        out["traces"] = (
            len(result.traces),
            _digest(
                (t.submitted, t.response_time, sorted(t.tasks.items())) for t in result.traces
            ),
        )
    return out


def _timeout_lane(env, generator):
    """Drive ``generator``, turning each raw-number delay into ``env.timeout``."""
    value = error = None
    while True:
        try:
            target = generator.send(value) if error is None else generator.throw(error)
        except StopIteration as stop:
            return stop.value
        if type(target) in (int, float):
            target = env.timeout(target)
        value = error = None
        try:
            value = yield target
        except BaseException as exc:  # noqa: BLE001 - forwarded into the generator
            error = exc


def run_engine(case: str, *, timeouts: bool = False, stats: bool = False) -> dict:
    """Fingerprint of one engine case; ``stats`` adds the simcore event count.

    ``timeouts`` runs every engine process through :func:`_timeout_lane`,
    so each plain delay allocates a :class:`~repro.simcore.events.Timeout`
    instead of taking simcore's raw-number path.
    """
    mode, _, config_name = case.partition(":")
    trace = mode == "traced"
    workload = WORKLOADS["closed" if trace else mode]
    return run_workload(
        CONFIGS[config_name or "baseline"],
        WorkloadSpec(**workload),
        seed=SEED,
        trace=trace,
        timeouts=timeouts,
        stats=stats,
    )


def _run_by_steps(env, until: float) -> None:
    """``env.run(until=until)`` driven by ``env.step()``, the reference path.

    It pushes the same ``(until, -1)`` stop entry ``run()`` does, so both
    pop the same events, the stop event included.
    """
    stop = env.event()
    stop._ok = True
    env.schedule(stop, priority=-1, delay=until - env.now)
    while not stop.processed:
        env.step()


def run_workload(
    config: ThreadPoolConfig,
    workload: WorkloadSpec,
    *,
    seed: int,
    trace: bool = False,
    timeouts: bool = False,
    stats: bool = False,
    stepped: bool = False,
    loop: bool = False,
) -> dict:
    """Fingerprint of one engine run (see :func:`run_engine` for the flags).

    ``stepped`` drives the run through :func:`_run_by_steps`; ``loop``
    (with ``stats``) adds the loop's first/last event time and heap depth.
    """
    engine = IdentificationEngine(config, workload, seed=seed, trace=trace)
    env = engine.env
    if timeouts:
        process = env.process
        env.process = lambda gen, name=None: process(_timeout_lane(env, gen), name=name)
    if stepped:
        env.run = lambda until: _run_by_steps(env, until)
    if stats:
        env.enable_stats()
    out = fingerprint(engine.run())
    if stats:
        out["events"] = env.stats.events_processed
    if loop:
        loop_stats = env.stats
        out["loop"] = (
            loop_stats.first_event_time,
            loop_stats.last_event_time,
            loop_stats.max_queue_depth,
        )
    return out


def run_hybrid() -> dict:
    schedule = ArrivalSchedule.diurnal(4.0, 12.0, period=1800.0, steps=12)
    result = simulate_hybrid(BASELINE_CONFIG, schedule, duration=1800.0, seed=3)
    out = fingerprint(result)
    out.update(
        fluid_epochs=result.fluid_epochs,
        des_epochs=result.des_epochs,
        window_errors=list(result.window_errors),
        corrections=dict(result.corrections),
    )
    return out


ENGINE_CASES = (
    "closed:baseline",
    "closed:preliminary",
    "closed:refined",
    "traced",
    "open",
    "population",
    "diurnal",
    "replay",
)

GOLDEN: dict[str, dict] = {
    "closed:baseline": {
        "completed": 2501,
        "throughput": 31.2625,
        "response": (
            1.91998568661291,
            0.010894091522543949,
            7,
            1.906980369400388,
            1.9310036573857365,
        ),
        "task_means": {
            "pre-process": 0.012501154152035327,
            "wait-download": 0.0,
            "download": 0.025616306195025255,
            "wait-extract": 0.011636517275676328,
            "extract": 0.17566378268183444,
            "process": 0.020602459961056974,
            "wait-simsearch": 0.0,
            "simsearch": 1.0230819416448473,
            "post-process": 0.010480652720909915,
        },
        "percentiles": {
            "p50": 1.913700326770595,
            "p95": 2.1695029580269676,
            "p99": 2.2991346733735156,
        },
        "pool_busy": {
            "http": 1.0000000000000004,
            "download": 0.020062140279236435,
            "extract": 0.7845302920260698,
            "simsearch": 0.7957157396482188,
        },
        "series": "63ae80317c619cb1",
        "events": 34425,
    },
    "closed:preliminary": {
        "completed": 2630,
        "throughput": 32.875,
        "response": (
            1.823731902671208,
            0.009320417915126396,
            7,
            1.8076551211501737,
            1.8368662859119864,
        ),
        "task_means": {
            "pre-process": 0.014812871483829562,
            "wait-download": 0.0,
            "download": 0.02834472987170216,
            "wait-extract": 0.13013082647273957,
            "extract": 0.21104264605560202,
            "process": 0.02340788637775488,
            "wait-simsearch": 0.0,
            "simsearch": 1.2213932783142514,
            "post-process": 0.012457613902032958,
        },
        "percentiles": {
            "p50": 1.8128429509947281,
            "p95": 2.216731033837953,
            "p99": 2.4060596070557323,
        },
        "pool_busy": {
            "http": 1.000000000000001,
            "download": 0.017339407171906622,
            "extract": 0.9914420231302755,
            "simsearch": 0.7506221612042531,
        },
        "series": "d94cda1f4e7b4194",
        "events": 36246,
    },
    "closed:refined": {
        "completed": 2647,
        "throughput": 33.0875,
        "response": (
            1.8126022929505698,
            0.005358259882651861,
            7,
            1.8031796438940917,
            1.8193947166611824,
        ),
        "task_means": {
            "pre-process": 0.012772050686443001,
            "wait-download": 0.0,
            "download": 0.025874159901192857,
            "wait-extract": 0.33711972759831643,
            "extract": 0.1813054431632276,
            "process": 0.020733973445855123,
            "wait-simsearch": 0.0,
            "simsearch": 1.0429213960500954,
            "post-process": 0.01069414684943468,
        },
        "percentiles": {
            "p50": 1.8010172171932766,
            "p95": 2.0850129437177123,
            "p99": 2.2724175438084004,
        },
        "pool_busy": {
            "http": 1.0,
            "download": 0.015970601360705067,
            "extract": 0.9996391129073126,
            "simsearch": 0.6488088699255024,
        },
        "series": "0aa56068a42fdc1c",
        "events": 36467,
    },
    "traced": {
        "completed": 2501,
        "throughput": 31.2625,
        "response": (
            1.91998568661291,
            0.010894091522543949,
            7,
            1.906980369400388,
            1.9310036573857365,
        ),
        "task_means": {
            "pre-process": 0.012501154152035327,
            "wait-download": 0.0,
            "download": 0.025616306195025255,
            "wait-extract": 0.011636517275676328,
            "extract": 0.17566378268183444,
            "process": 0.020602459961056974,
            "wait-simsearch": 0.0,
            "simsearch": 1.0230819416448473,
            "post-process": 0.010480652720909915,
        },
        "percentiles": {
            "p50": 1.913700326770595,
            "p95": 2.1695029580269676,
            "p99": 2.2991346733735156,
        },
        "pool_busy": {
            "http": 1.0000000000000004,
            "download": 0.020062140279236435,
            "extract": 0.7845302920260698,
            "simsearch": 0.7957157396482188,
        },
        "series": "63ae80317c619cb1",
        "traces": (2501, "60ff5b5a8c5df454"),
        "events": 34425,
    },
    "open": {
        "completed": 1512,
        "throughput": 20.16,
        "response": (
            1.2269402656792974,
            0.011998243876312965,
            7,
            1.1993830564671355,
            1.239209253560646,
        ),
        "task_means": {
            "pre-process": 0.011980072892266502,
            "wait-download": 0.0,
            "download": 0.025106641808767826,
            "wait-extract": 0.0018370779858845722,
            "extract": 0.17073177433469947,
            "process": 0.02014968379075033,
            "wait-simsearch": 0.0,
            "simsearch": 0.987440999712602,
            "post-process": 0.010068179639350638,
        },
        "percentiles": {
            "p50": 1.220072028218226,
            "p95": 1.4298557287233993,
            "p99": 1.5441193866512646,
        },
        "pool_busy": {
            "http": 0.605130590277366,
            "download": 0.01245799611142243,
            "extract": 0.48419681370694706,
            "simsearch": 0.4862199070085303,
        },
        "series": "f60095a28e43d60a",
        "events": 24961,
    },
    "population": {
        "completed": 2150,
        "throughput": 23.88888888888889,
        "response": (
            1.50893516283355,
            0.317282003461868,
            8,
            1.2084107332143887,
            1.9362911328190529,
        ),
        "task_means": {
            "pre-process": 0.012260860067436343,
            "wait-download": 0.0,
            "download": 0.02545890921446454,
            "wait-extract": 0.008589988906270607,
            "extract": 0.17206637178894063,
            "process": 0.020360159528899243,
            "wait-simsearch": 0.0,
            "simsearch": 1.009030921780321,
            "post-process": 0.010219456038029321,
        },
        "percentiles": {
            "p50": 1.3949753093787933,
            "p95": 2.143879167296721,
            "p99": 2.260701291568563,
        },
        "pool_busy": {
            "http": 0.7288969277662863,
            "download": 0.014828761573713607,
            "extract": 0.5730151213718678,
            "simsearch": 0.5834472189316277,
        },
        "series": "9537c51090e4d29f",
        "events": 25710,
    },
    "diurnal": {
        "completed": 1760,
        "throughput": 16.0,
        "response": (
            1.226687979093147,
            0.02054095092417932,
            10,
            1.1984035175932695,
            1.2628762847103527,
        ),
        "task_means": {
            "pre-process": 0.012064865511075044,
            "wait-download": 0.0,
            "download": 0.025157285899893373,
            "wait-extract": 0.0024000408730604876,
            "extract": 0.1708732345744524,
            "process": 0.020127353804754954,
            "wait-simsearch": 0.0,
            "simsearch": 0.9884688942988977,
            "post-process": 0.010083408410675907,
        },
        "percentiles": {
            "p50": 1.2242769806876233,
            "p95": 1.4501194750775668,
            "p99": 1.5659258077293357,
        },
        "pool_busy": {
            "http": 0.46262187919587555,
            "download": 0.009488712386444638,
            "extract": 0.36797962288468883,
            "simsearch": 0.37192677219803283,
        },
        "series": "16e39fd2f0e02816",
        "events": 25338,
    },
    "replay": {
        "completed": 31,
        "throughput": 0.41333333333333333,
        "response": (
            1.225234634942046,
            0.05031511313373354,
            7,
            1.171582253558422,
            1.326836282499577,
        ),
        "task_means": {
            "pre-process": 0.011955383219678036,
            "wait-download": 0.0,
            "download": 0.02544294610519521,
            "wait-extract": 0.0,
            "extract": 0.1701361817711611,
            "process": 0.01995783969066224,
            "wait-simsearch": 0.0,
            "simsearch": 0.9961904234336643,
            "post-process": 0.01006510577160869,
        },
        "percentiles": {
            "p50": 1.2125387887747507,
            "p95": 1.4274940131472542,
            "p99": 1.51535173298792,
        },
        "pool_busy": {
            "http": 0.014793431292425614,
            "download": 0.00031107055385864736,
            "extract": 0.011696897804446814,
            "simsearch": 0.011920865993291787,
        },
        "series": "b02e8c26fc1a69be",
        "events": 557,
    },
    "hybrid": {
        "completed": 14400,
        "throughput": 8.0,
        "response": (
            1.2152298737568563,
            0.004797309110569983,
            12,
            1.2042328235289421,
            1.2242223366545977,
        ),
        "task_means": {
            "pre-process": 0.01202085548611321,
            "wait-download": 0.0,
            "download": 0.02488574673033791,
            "wait-extract": 0.0,
            "extract": 0.17030245719695544,
            "process": 0.020031618651549107,
            "wait-simsearch": 0.0,
            "simsearch": 0.9781921003826703,
            "post-process": 0.010027369036180163,
        },
        "percentiles": {
            "p50": 1.2083223924436859,
            "p95": 1.425140783028553,
            "p99": 1.5324855384527925,
        },
        "pool_busy": {
            "http": 0.01661350433683291,
            "download": 0.00033980657724359494,
            "extract": 0.01324897551823742,
            "simsearch": 0.013364776903994643,
        },
        "series": "7e8b93becf0326b8",
        "fluid_epochs": 7,
        "des_epochs": 5,
        "window_errors": [
            0.04188933680036848,
            0.13530127198043415,
            0.0849524454953665,
            0.03590504819964964,
            0.03529073818744277,
        ],
        "corrections": {
            "throughput": 1.0,
            "mean": 0.9970612886381895,
            "p95": 0.9677532153316637,
        },
    },
}


def _without_events(case: str) -> dict:
    return {k: v for k, v in GOLDEN[case].items() if k != "events"}


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_engine_matches_golden(case):
    assert run_engine(case, stats=True) == GOLDEN[case]


@pytest.mark.parametrize("case", ENGINE_CASES)
def test_uninstrumented_loop_matches_golden(case):
    """Without stats the run loop skips its per-event checks; it must agree too."""
    assert run_engine(case) == _without_events(case)


@pytest.mark.parametrize("case", ["closed:baseline", "closed:preliminary", "closed:refined", "open"])
def test_event_lane_matches_golden(case):
    """Timeout events and raw-number delays give the same run, event for event."""
    assert run_engine(case, timeouts=True, stats=True) == GOLDEN[case]


def _random_workload(mode: str, load: int) -> WorkloadSpec:
    """A short workload of ``mode`` whose size scales with ``load``."""
    span = dict(duration=40.0, warmup=5.0)
    if mode == "closed":
        return WorkloadSpec(simultaneous_requests=load, **span)
    if mode == "open":
        return WorkloadSpec(arrival_rate=load / 2.0, **span)
    if mode == "population":
        schedule = ((0.0, load), (12.0, max(1, load // 3)), (25.0, load))
        return WorkloadSpec(simultaneous_requests=load, population_schedule=schedule, **span)
    schedule = ArrivalSchedule.diurnal(load / 8.0, load / 2.0, period=40.0, steps=4)
    return WorkloadSpec(arrival_schedule=schedule, **span)


@given(
    pools=st.tuples(
        st.integers(1, 30), st.integers(1, 6), st.integers(1, 9), st.integers(1, 30)
    ),
    mode=st.sampled_from(["closed", "open", "population", "diurnal"]),
    load=st.integers(2, 40),
    seed=st.integers(0, 2**16),
)
@settings(max_examples=12, deadline=None)
def test_loops_and_lanes_agree_on_random_runs(pools, mode, load, seed):
    """``step()``, ``run()`` with and without stats, Timeout lane: one run.

    Small random pools make claims queue, so queued and in-place grants,
    carried claims and process starts all mix with plain delays. The
    stepped run counts its statistics event by event; ``run()`` derives
    them from the event-id counter, and they must agree exactly.
    """
    config = ThreadPoolConfig(*pools)
    workload = _random_workload(mode, load)
    stepped = run_workload(config, workload, seed=seed, stats=True, loop=True, stepped=True)
    derived = run_workload(config, workload, seed=seed, stats=True, loop=True)
    lane = run_workload(config, workload, seed=seed, stats=True, loop=True, timeouts=True)
    plain = run_workload(config, workload, seed=seed)
    assert derived == stepped
    assert lane == stepped
    assert plain == {k: v for k, v in derived.items() if k not in ("events", "loop")}


def test_stats_run_takes_the_inlined_pump(monkeypatch):
    """Loop statistics leave ``run()`` on its one loop: no event goes
    through ``Environment._dispatch``, the reference path of ``step()``."""

    def dispatch(self, event):
        raise AssertionError(f"run() dispatched {event!r} through _dispatch")

    monkeypatch.setattr(Environment, "_dispatch", dispatch)
    assert run_engine("closed:baseline", stats=True) == GOLDEN["closed:baseline"]


def test_hybrid_matches_golden():
    assert run_hybrid() == GOLDEN["hybrid"]


if __name__ == "__main__":
    current = {case: run_engine(case, stats=True) for case in ENGINE_CASES}
    current["hybrid"] = run_hybrid()
    print("GOLDEN: dict[str, dict] = " + pprint.pformat(current, width=96, sort_dicts=False))
