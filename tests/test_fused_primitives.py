"""Bitwise differentials for the fused and batched DES primitives.

Each fused call must return what the call sequence it replaced returned,
and leave the same state behind, compared through ``float.hex``:

- ``CpuContentionModel.start`` against ``inflation_factor`` + ``acquire``;
- ``GpuModel.start_stream`` against a stream count increment followed by
  ``inference_time``;
- ``RunningStats.extend`` (the Welford fold) and
  ``ReservoirSampler.extend`` against one ``add`` per value, under any
  chunking of the stream;
- ``HybridAggregator.percentile`` against the per-component oracle in
  :mod:`tests.reference_percentile`.
"""

from __future__ import annotations

import dataclasses
import math
from array import array

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine.config import EngineModelParams
from repro.engine.cpumodel import CpuContentionModel, inflation_factor
from repro.engine.gpu import GpuModel
from repro.monitoring.hybrid import EpochSample, HybridAggregator
from repro.utils.reservoir import ReservoirSampler
from repro.utils.stats import RunningStats
from tests.reference_percentile import reference_percentile

RHO_MAX = 0.97
UP = math.inf
DOWN = -math.inf

#: utilization ratios at every branch edge of the contention curve.
RATIOS = (
    0.0,
    5e-324,
    0.5,
    math.nextafter(RHO_MAX, DOWN),
    RHO_MAX,
    math.nextafter(RHO_MAX, UP),
    math.nextafter(1.0, DOWN),
    1.0,
    math.nextafter(1.0, UP),
    3.0,
    math.nextafter(8.0, DOWN),
    8.0,
    math.nextafter(8.0, UP),
    20.0,
)


def _cpu_state(cpu: CpuContentionModel) -> tuple[str, str, str]:
    return (cpu._demand.hex(), cpu._usage_integral.hex(), float(cpu._last_time).hex())


def _cpu_pair(cores, demand, scale, sharpness, kappa, last_time):
    models = []
    for _ in range(2):
        cpu = CpuContentionModel(
            cores, base_load=demand, scale=scale, sharpness=sharpness, rho_max=RHO_MAX, kappa=kappa
        )
        cpu.acquire(0.0, last_time)
        models.append(cpu)
    return models


def _reference_start(cpu: CpuContentionModel, weight: float, now: float) -> tuple[float, float]:
    """The two calls ``CpuContentionModel.start`` replaces."""
    slowdown = inflation_factor(
        cpu._demand / cpu.cores, cpu.scale, cpu.sharpness, cpu.rho_max, cpu.kappa
    )
    draw = weight / slowdown
    cpu.acquire(draw, now)
    return slowdown, draw


class TestCpuStart:
    @pytest.mark.parametrize("ratio", RATIOS, ids=lambda r: r.hex())
    @pytest.mark.parametrize("scale", [0.0, 0.05])
    @pytest.mark.parametrize("sharpness", [0.0, 6.0])
    @pytest.mark.parametrize("now", [2.0, 3.5], ids=["dt0", "dt"])
    def test_branch_edges(self, ratio, scale, sharpness, now):
        fused, reference = _cpu_pair(1.0, ratio, scale, sharpness, 1.5, 2.0)
        got = fused.start(0.85, now)
        want = _reference_start(reference, 0.85, now)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert _cpu_state(fused) == _cpu_state(reference)

    @settings(max_examples=300, deadline=None)
    @given(
        cores=st.floats(0.25, 64.0),
        demand=st.floats(0.0, 600.0),
        weight=st.floats(0.0, 8.0),
        scale=st.sampled_from([0.0, 0.002, 0.05, 1.0]),
        sharpness=st.sampled_from([0.0, 1.0, 4.0, 6.0]),
        kappa=st.sampled_from([1.0, 1.5, 3.0]),
        last_time=st.floats(0.0, 1e3),
        dt=st.floats(0.0, 1e3),
    )
    def test_random_states(self, cores, demand, weight, scale, sharpness, kappa, last_time, dt):
        fused, reference = _cpu_pair(cores, demand, scale, sharpness, kappa, last_time)
        now = last_time + dt
        got = fused.start(weight, now)
        want = _reference_start(reference, weight, now)
        assert [v.hex() for v in got] == [v.hex() for v in want]
        assert _cpu_state(fused) == _cpu_state(reference)

    def test_negative_weight_rejected_before_any_change(self):
        fused, reference = _cpu_pair(4.0, 1.0, 0.05, 6.0, 1.5, 0.0)
        with pytest.raises(ValueError):
            fused.start(-1.0, 5.0)
        assert _cpu_state(fused) == _cpu_state(reference)


def _reference_stream(gpu: GpuModel) -> float:
    """The two calls ``GpuModel.start_stream`` replaces: count, then latency."""
    gpu._active_streams += 1
    return gpu.inference_time(gpu._active_streams)


class TestGpuStartStream:
    @settings(max_examples=200, deadline=None)
    @given(
        gpus=st.integers(1, 8),
        penalty=st.one_of(st.sampled_from([0.0, 0.1492, 1.7]), st.floats(0.0, 5.0)),
        t_gpu=st.one_of(st.sampled_from([0.008, 0.1, 3.3]), st.floats(1e-4, 10.0)),
        finishes=st.lists(st.booleans(), min_size=1, max_size=40),
    )
    def test_matches_count_then_inference_time(self, gpus, penalty, t_gpu, finishes):
        params = dataclasses.replace(
            EngineModelParams(),
            gpus_per_node=gpus,
            gpu_concurrency_penalty=penalty,
            t_extract_gpu=t_gpu,
        )
        fused, reference = GpuModel(params), GpuModel(params)
        for finish in finishes:
            if finish and fused.active_streams:  # streams also finish in between
                fused.stream_finished()
                reference.stream_finished()
            assert fused.start_stream().hex() == _reference_stream(reference).hex()
            assert fused.active_streams == reference.active_streams


def _welford_state(stats: RunningStats) -> tuple:
    return (
        stats.count,
        stats._weight.hex(),
        stats._mean.hex(),
        stats._m2.hex(),
        stats.minimum.hex(),
        stats.maximum.hex(),
    )


_EDGE_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e-300, 7.0]
)
_VALUES = st.lists(
    st.one_of(st.floats(allow_nan=False, allow_infinity=False), _EDGE_VALUES), max_size=60
)


def _chunks(values: list, cuts: list[int]) -> list[list]:
    points = sorted({min(c, len(values)) for c in cuts})
    out, start = [], 0
    for point in points + [len(values)]:
        out.append(values[start:point])
        start = point
    return out


class TestWelfordFold:
    @settings(max_examples=300, deadline=None)
    @given(
        values=_VALUES,
        cuts=st.lists(st.integers(0, 60), max_size=8),
        prior=st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.01, 100.0)), max_size=4),
    )
    def test_any_chunking_equals_sequential_add(self, values, cuts, prior):
        folded, added = RunningStats(), RunningStats()
        for value, weight in prior:  # weighted history: total is not a count
            folded.add(value, weight)
            added.add(value, weight)
        for chunk in _chunks(values, cuts):
            folded.extend(chunk)
        for value in values:
            added.add(value)
        assert _welford_state(folded) == _welford_state(added)

    def test_fixed_chunkings_of_extreme_values(self):
        values = [1e308, -1e308, 5e-324, -7.5, 1e-310, 3.0, -0.0, 2e307, 1.0] * 7
        want = RunningStats()
        for value in values:
            want.add(value)
        for size in (1, 2, 3, 7, 64):
            for pending in (list, lambda chunk: array("d", chunk)):
                got = RunningStats()
                for start in range(0, len(values), size):
                    got.extend(pending(values[start:start + size]))
                assert _welford_state(got) == _welford_state(want)

    def test_non_float_values_convert_like_add(self):
        folded, added = RunningStats(), RunningStats()
        folded.extend([1, 2, True, 3.5])
        for value in (1, 2, True, 3.5):
            added.add(value)
        assert _welford_state(folded) == _welford_state(added)


class TestReservoirExtend:
    @settings(max_examples=100, deadline=None)
    @given(
        values=st.lists(st.floats(0.0, 10.0), max_size=80),
        cuts=st.lists(st.integers(0, 80), max_size=6),
        capacity=st.integers(1, 30),
    )
    def test_any_chunking_equals_sequential_add(self, values, cuts, capacity):
        folded = ReservoirSampler(capacity, seed=5)
        added = ReservoirSampler(capacity, seed=5)
        for chunk in _chunks(values, cuts):
            folded.extend(chunk)
        for value in values:
            added.add(value)
        assert [v.hex() for v in folded._values] == [v.hex() for v in added._values]
        assert folded.seen == added.seen
        assert folded._rng.bit_generator.state == added._rng.bit_generator.state


def _sample(index: int, mode: str, throughput: float, mean: float, p95: float) -> EpochSample:
    return EpochSample(
        index=index,
        start=10.0 * index,
        end=10.0 * index + 10.0,
        mode=mode,
        rate=throughput,
        throughput=throughput,
        response_mean=mean,
        response_p95=p95,
        cpu_usage=0.5,
    )


#: DES samples on a dyadic grid, so bisection probes land on sample values.
_GRID_SAMPLE = st.integers(1, 96).map(lambda k: k / 16.0)
_DES = st.tuples(
    st.just("des"),
    st.floats(0.05, 50.0),
    st.lists(st.one_of(_GRID_SAMPLE, st.floats(1e-3, 12.0)), min_size=1, max_size=40),
)
_FLUID = st.tuples(
    st.just("fluid"),
    st.floats(0.05, 50.0),
    st.floats(0.01, 8.0),
    # p95 / mean: at or below 1 fits a sigma = 0 (step) component.
    st.one_of(st.just(1.0), st.floats(0.5, 3.5)),
)
_P = st.one_of(
    st.floats(1e-9, 1.0 - 1e-9),
    st.sampled_from([5e-324, 1e-12, 0.5, 0.95, 0.99, 1.0 - 1e-12, math.nextafter(1.0, 0.0)]),
)


def _aggregator(components) -> HybridAggregator:
    agg = HybridAggregator()
    for index, component in enumerate(components):
        if component[0] == "des":
            _, throughput, samples = component
            mean = sum(samples) / len(samples)
            agg.add_des(_sample(index, "des", throughput, mean, max(samples)), samples)
        else:
            _, throughput, mean, ratio = component
            agg.add_fluid(_sample(index, "fluid", throughput, mean, mean * ratio))
    return agg


class TestPercentile:
    @settings(max_examples=150, deadline=None)
    @given(
        components=st.one_of(
            st.lists(_DES, min_size=1, max_size=6),
            st.lists(_FLUID, min_size=1, max_size=6),
            st.lists(st.one_of(_DES, _FLUID), min_size=1, max_size=10),
        ),
        p=_P,
    )
    def test_matches_reference(self, components, p):
        agg = _aggregator(components)
        assert agg.percentile(p).hex() == reference_percentile(agg, p).hex()

    @pytest.mark.parametrize("p", [1e-12, 0.25, 0.5, 0.95, 0.99, 1.0 - 1e-12])
    def test_step_components_and_sample_hits(self, p):
        agg = _aggregator(
            [
                ("fluid", 3.0, 1.0, 1.0),
                ("des", 2.0, [0.5, 1.0, 1.0, 1.5, 2.0]),
                ("fluid", 1.0, 2.0, 0.75),
                ("fluid", 4.0, 1.25, 2.0),
                ("des", 0.5, [2.0]),
            ]
        )
        assert agg.percentile(p).hex() == reference_percentile(agg, p).hex()
