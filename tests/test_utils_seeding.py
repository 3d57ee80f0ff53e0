"""Tests for repro.utils.seeding."""

import numpy as np

from repro.utils.seeding import SeedSequenceFactory, derive_seed, spawn_rng


class TestSpawnRng:
    def test_deterministic(self):
        assert spawn_rng(7).integers(0, 1000) == spawn_rng(7).integers(0, 1000)

    def test_from_generator_spawns_child(self):
        parent = np.random.default_rng(0)
        child = spawn_rng(parent)
        assert isinstance(child, np.random.Generator)

    def test_none_allowed(self):
        assert isinstance(spawn_rng(None), np.random.Generator)


class TestDeriveSeed:
    def test_stable_across_calls(self):
        assert derive_seed(42, "workload", 3) == derive_seed(42, "workload", 3)

    def test_components_matter(self):
        assert derive_seed(42, "a") != derive_seed(42, "b")
        assert derive_seed(42, "a", 0) != derive_seed(42, "a", 1)

    def test_base_matters(self):
        assert derive_seed(1, "x") != derive_seed(2, "x")

    def test_positive_63bit(self):
        seed = derive_seed(123456789, "very-long-component-name", 999)
        assert 0 <= seed < 2**63


class TestSeedSequenceFactory:
    def test_same_name_same_stream(self):
        factory = SeedSequenceFactory(5)
        a = factory.rng("workload").integers(0, 10**9)
        b = factory.rng("workload").integers(0, 10**9)
        assert a == b

    def test_different_names_independent(self):
        factory = SeedSequenceFactory(5)
        assert factory.seed("a") != factory.seed("b")

    def test_seeds_distinct(self):
        factory = SeedSequenceFactory(5)
        seeds = list(factory.seeds("reps", 20))
        assert len(set(seeds)) == 20


class TestBenchSeed:
    def test_bench_scenarios_take_the_seed_from_the_environment(self, monkeypatch):
        import importlib

        import benchmarks.conftest as bench

        try:
            monkeypatch.setenv("REPRO_BENCH_SEED", "7")
            assert importlib.reload(bench).SEED == 7
            monkeypatch.delenv("REPRO_BENCH_SEED")
            assert importlib.reload(bench).SEED == 2021
        finally:
            monkeypatch.undo()
            importlib.reload(bench)
