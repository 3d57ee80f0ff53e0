"""Tests for the engine's CPU/GPU models and configuration types."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.engine import (
    BASELINE_CONFIG,
    CpuContentionModel,
    EngineModelParams,
    GpuModel,
    ThreadPoolConfig,
    WorkloadSpec,
)
from repro.engine.cpumodel import inflation_factor
from repro.errors import ValidationError


class TestThreadPoolConfig:
    def test_baseline_matches_table_ii(self):
        assert BASELINE_CONFIG.http == 40
        assert BASELINE_CONFIG.download == 40
        assert BASELINE_CONFIG.extract == 7
        assert BASELINE_CONFIG.simsearch == 40

    def test_replace(self, baseline_config):
        refined = baseline_config.replace(extract=6)
        assert refined.extract == 6
        assert refined.http == 40
        assert baseline_config.extract == 7  # original untouched

    def test_validation(self):
        with pytest.raises(ValidationError):
            ThreadPoolConfig(http=0, download=1, extract=1, simsearch=1)
        with pytest.raises(ValidationError):
            ThreadPoolConfig(http=1.5, download=1, extract=1, simsearch=1)  # type: ignore[arg-type]

    def test_paper_bounds(self):
        ThreadPoolConfig(20, 60, 3, 60).validate_paper_bounds()
        with pytest.raises(ValidationError):
            ThreadPoolConfig(61, 40, 7, 40).validate_paper_bounds()
        with pytest.raises(ValidationError):
            ThreadPoolConfig(40, 40, 10, 40).validate_paper_bounds()

    def test_dict_roundtrip(self, baseline_config):
        assert ThreadPoolConfig.from_dict(baseline_config.to_dict()) == baseline_config

    def test_from_dict_missing_key(self):
        with pytest.raises(ValidationError, match="missing"):
            ThreadPoolConfig.from_dict({"http": 40})


class TestWorkloadSpec:
    def test_paper_defaults(self):
        spec = WorkloadSpec()
        assert spec.duration == 1380.0
        assert spec.sample_interval == 10.0

    def test_samples_per_run(self):
        # the paper's 138 samples minus our explicit warm-up window
        spec = WorkloadSpec(duration=1380.0, warmup=0.0)
        assert spec.samples_per_run == 138

    def test_validation(self):
        with pytest.raises(ValidationError):
            WorkloadSpec(simultaneous_requests=0)
        with pytest.raises(ValidationError):
            WorkloadSpec(warmup=2000.0, duration=1000.0)


class TestInflationFactor:
    def test_idle_is_one(self):
        assert inflation_factor(0.0, 0.002, 4.0) == 1.0

    def test_low_load_near_one(self):
        assert inflation_factor(0.5, 0.002, 4.0) == pytest.approx(1.0, abs=0.01)

    @given(st.floats(0.0, 0.99), st.floats(0.0, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_monotone_in_rho(self, r1, r2):
        lo, hi = sorted((r1, r2))
        assert inflation_factor(lo, 0.01, 4.0) <= inflation_factor(hi, 0.01, 4.0) + 1e-12

    def test_clamp_bounds_max(self):
        capped = inflation_factor(0.9999, 0.01, 4.0, rho_max=0.97)
        at_max = inflation_factor(0.97, 0.01, 4.0, rho_max=0.97)
        assert capped == pytest.approx(at_max)

    def test_oversaturation_penalized(self):
        assert inflation_factor(1.5, 0.01, 4.0, kappa=1.5) > inflation_factor(1.0, 0.01, 4.0)

    def test_zero_scale_disables(self):
        assert inflation_factor(0.95, 0.0, 4.0) == 1.0


class TestCpuContentionModel:
    def test_work_invariance(self):
        """Draw w/I for duration b*I keeps core-seconds at w*b."""
        cpu = CpuContentionModel(40.0, base_load=38.0, scale=0.01, sharpness=2.0)
        slowdown = cpu.inflation()
        assert slowdown > 1.0
        draw = 1.0 / slowdown
        work = draw * (1.0 * slowdown)
        assert work == pytest.approx(1.0)

    def test_usage_integral(self):
        cpu = CpuContentionModel(10.0)
        cpu.acquire(5.0, 0.0)
        cpu.release(5.0, 10.0)
        assert cpu.usage_integral(10.0) == pytest.approx(5.0)  # 0.5 × 10s

    def test_usage_capped_at_one(self):
        cpu = CpuContentionModel(10.0)
        cpu.acquire(100.0, 0.0)
        assert cpu.usage() == 1.0

    def test_release_floors_at_base_load(self):
        cpu = CpuContentionModel(10.0, base_load=2.0)
        cpu.acquire(1.0, 0.0)
        cpu.release(5.0, 1.0)  # over-release
        assert cpu.demand == 2.0

    def test_validation(self):
        with pytest.raises(ValueError):
            CpuContentionModel(10.0, scale=-1)
        with pytest.raises(ValueError):
            CpuContentionModel(10.0, kappa=0.5)
        cpu = CpuContentionModel(10.0)
        with pytest.raises(ValueError):
            cpu.acquire(-1.0, 0.0)


class TestGpuModel:
    def test_memory_matches_paper_claim(self):
        """E=7 → ~10 GB, E=6 → ~7 GB (the 30 % reduction of Sec. IV-C)."""
        gpu = GpuModel(EngineModelParams())
        assert gpu.memory_gb(7) == pytest.approx(10.0, rel=0.02)
        assert gpu.memory_gb(6) == pytest.approx(7.0, rel=0.02)
        reduction = 1 - gpu.memory_gb(6) / gpu.memory_gb(7)
        assert reduction == pytest.approx(0.30, abs=0.02)

    def test_memory_monotone_and_bounded(self):
        gpu = GpuModel(EngineModelParams())
        values = [gpu.memory_gb(e) for e in range(1, 10)]
        assert values == sorted(values)
        assert all(v <= 32.0 for v in values)

    def test_latency_grows_with_concurrency(self):
        gpu = GpuModel(EngineModelParams())
        assert gpu.inference_time(1) < gpu.inference_time(4) < gpu.inference_time(9)

    def test_throughput_grows_with_pool(self):
        gpu = GpuModel(EngineModelParams())
        assert gpu.max_throughput(7) > gpu.max_throughput(3)

    def test_stream_accounting(self):
        gpu = GpuModel(EngineModelParams())
        assert gpu.start_stream() == gpu.inference_time(1)
        assert gpu.active_streams == 1
        assert gpu.start_stream() == gpu.inference_time(2)
        assert gpu.active_streams == 2
        gpu.stream_finished()
        assert gpu.active_streams == 1
        gpu.stream_finished()
        with pytest.raises(ValidationError):
            gpu.stream_finished()

    def test_utilization_band(self):
        """Paper: GPU utilization 35-60 % at typical concurrency."""
        gpu = GpuModel(EngineModelParams())
        assert 0.3 <= gpu.utilization(active_streams=6) <= 0.65

    def test_power_band(self):
        """Paper: 50-80 W power draw."""
        gpu = GpuModel(EngineModelParams())
        power = gpu.power_draw_w(active_streams=6)
        assert 45.0 <= power <= 85.0

    def test_invalid_concurrency(self):
        gpu = GpuModel(EngineModelParams())
        with pytest.raises(ValidationError):
            gpu.inference_time(0)


class TestEngineModelParams:
    def test_defaults_valid(self):
        EngineModelParams()

    def test_validation(self):
        with pytest.raises(ValidationError):
            EngineModelParams(t_simsearch=-1)
        with pytest.raises(ValidationError):
            EngineModelParams(contention_rho_max=1.5)
        with pytest.raises(ValidationError):
            EngineModelParams(service_cv=-0.1)

    def test_t_download_combines_parts(self):
        p = EngineModelParams(image_bytes=1e6, download_bandwidth=1e6, t_download_cpu=0.5)
        assert p.t_download == pytest.approx(1.5)
