"""Tests for the Pl@ntNet application layer."""

import pytest

from repro.engine import ThreadPoolConfig
from repro.errors import ValidationError
from repro.plantnet import (
    BASELINE,
    PRELIMINARY_OPTIMUM,
    REFINED_OPTIMUM,
    PlantNetOptimization,
    PlantNetScenario,
    UserGrowthModel,
    paper_problem,
    paper_search_space,
)
from repro.plantnet.configs import MAX_TOLERATED_RESPONSE_TIME, USER_RESPONSE_METRIC


class TestConfigs:
    def test_table_iv_configs(self):
        assert BASELINE == ThreadPoolConfig(40, 40, 7, 40)
        assert PRELIMINARY_OPTIMUM == ThreadPoolConfig(54, 54, 7, 53)
        assert REFINED_OPTIMUM == ThreadPoolConfig(54, 54, 6, 53)

    def test_search_space_eq2(self):
        space = paper_search_space()
        assert space.names == ["http", "download", "simsearch", "extract"]
        http = space.dimensions[0]
        extract = space.dimensions[3]
        assert (http.low, http.high) == (20, 60)
        assert (extract.low, extract.high) == (3, 9)

    def test_problem_objective(self):
        problem = paper_problem()
        assert problem.primary_metric == USER_RESPONSE_METRIC
        assert problem.primary_mode == "min"
        assert not problem.constraints

    def test_problem_with_tolerance(self):
        problem = paper_problem(with_tolerance_constraint=True)
        assert str(problem.constraints[0]) == f"user_resp_time <= {MAX_TOLERATED_RESPONSE_TIME}"


class TestScenario:
    @pytest.fixture(scope="class")
    def scenario(self):
        return PlantNetScenario(duration=200.0, warmup=40.0, repetitions=2, base_seed=3)

    def test_deployment_manifest_covers_42_nodes(self, scenario):
        result = scenario.run(BASELINE, 80)
        nodes = {entry["node"] for entry in result.deployment_manifest}
        assert len(nodes) == 42
        engine_nodes = [
            e for e in result.deployment_manifest if e["service"] == "plantnet-engine"
        ]
        assert len(engine_nodes) == 1
        assert engine_nodes[0]["node"].startswith("chifflot")
        assert engine_nodes[0]["gpus"] == 1

    def test_clients_sum_to_population(self, scenario):
        result = scenario.run(BASELINE, 80)
        clients = sum(
            e["clients"]
            for e in result.deployment_manifest
            if e["service"] == "plantnet-clients"
        )
        assert clients == 80

    def test_repetitions_pooled(self, scenario):
        result = scenario.run(BASELINE, 40)
        assert len(result.runs) == 2
        assert result.aggregate.repetitions == 2

    def test_metrics_flat_mapping(self, scenario):
        metrics = scenario.evaluate(BASELINE.to_dict(), 40, seed=1)
        assert USER_RESPONSE_METRIC in metrics
        assert "busy_extract" in metrics
        assert "task_simsearch" in metrics
        # extensions: tail latency and energy are exposed to the optimizer,
        # enabling the paper's Sec. II-B energy/performance objectives
        assert metrics["user_resp_time_p95"] >= metrics[USER_RESPONSE_METRIC]
        assert metrics["energy_wh"] > 0

    def test_seed_controls_result(self, scenario):
        a = scenario.evaluate(BASELINE.to_dict(), 40, seed=10)
        b = scenario.evaluate(BASELINE.to_dict(), 40, seed=10)
        c = scenario.evaluate(BASELINE.to_dict(), 40, seed=11)
        assert a[USER_RESPONSE_METRIC] == b[USER_RESPONSE_METRIC]
        assert a[USER_RESPONSE_METRIC] != c[USER_RESPONSE_METRIC]

    def test_without_testbed(self):
        scenario = PlantNetScenario(duration=150.0, use_testbed=False, base_seed=0)
        result = scenario.run(BASELINE, 40)
        assert result.deployment_manifest == []
        assert result.user_response_time.mean > 0

    def test_zero_repetitions_rejected_at_construction(self):
        with pytest.raises(ValidationError, match="repetitions"):
            PlantNetScenario(repetitions=0)

    def test_zero_repetitions_rejected_per_run(self):
        scenario = PlantNetScenario(duration=150.0, use_testbed=False)
        with pytest.raises(ValidationError, match="repetitions"):
            scenario.run(BASELINE, 40, repetitions=0)

    def test_definition_reserves_paper_nodes(self, scenario):
        definition = scenario.definition(BASELINE, 80)
        total = sum(r.nodes for r in definition.resource_requests())
        assert total == 42

    @pytest.mark.parametrize(
        "population, expected",
        [
            (1, {"chiclet": 1}),
            (6, {"chiclet": 2, "chetemi": 2, "chifflet": 1, "gros": 1}),
            (81, {"chiclet": 21, "chetemi": 20, "chifflet": 20, "gros": 20}),
        ],
    )
    def test_declared_client_split_is_the_placed_one(self, population, expected):
        scenario = PlantNetScenario(duration=150.0, warmup=40.0, warm_reuse=False)
        [edge] = [
            layer
            for layer in scenario.definition(BASELINE, population).layers
            if layer.name == "edge"
        ]
        declared = {
            mapping.cluster: mapping.options["simultaneous_requests"]
            for mapping in edge.services
        }
        result = scenario.run(BASELINE, population)
        placed: dict[str, int] = {}
        for entry in result.deployment_manifest:
            if entry["service"] == "plantnet-clients":
                cluster = entry["node"].rsplit("-", 1)[0]
                placed[cluster] = placed.get(cluster, 0) + entry["clients"]
        assert declared == placed == expected



class TestWarmReuse:
    def test_cold_and_warm_results_identical(self):
        cold = PlantNetScenario(
            duration=150.0, warmup=30.0, base_seed=5, warm_reuse=False
        )
        with PlantNetScenario(
            duration=150.0, warmup=30.0, base_seed=5, warm_reuse=True
        ) as warm:
            for config in (BASELINE, ThreadPoolConfig(60, 40, 5, 40)):
                a = cold.evaluate(config.to_dict(), 40)
                b = warm.evaluate(config.to_dict(), 40)
                assert a == b

    def test_deployment_reused_across_trials(self):
        with PlantNetScenario(duration=150.0, base_seed=1, warm_reuse=True) as sc:
            sc.evaluate(BASELINE.to_dict(), 40)
            first = sc._warm[40]["deployment"]
            sc.evaluate(ThreadPoolConfig(60, 40, 5, 40).to_dict(), 40)
            assert sc._warm[40]["deployment"] is first

    def test_manifest_tracks_reconfigured_pools(self):
        with PlantNetScenario(duration=150.0, base_seed=1, warm_reuse=True) as sc:
            sc.run(BASELINE, 40)
            new = ThreadPoolConfig(60, 40, 5, 40)
            result = sc.run(new, 40)
            engine = [
                e for e in result.deployment_manifest
                if e["service"] == "plantnet-engine"
            ][0]
            assert engine["thread_pools"] == new.to_dict()

    def test_close_releases_everything(self):
        sc = PlantNetScenario(duration=150.0, base_seed=1, warm_reuse=True)
        sc.evaluate(BASELINE.to_dict(), 40)
        entry = sc._warm[40]
        sc.close()
        assert sc._warm == {}
        assert all(
            node.allocated_cores == 0
            for node in entry["deployment"]._nodes_by_name.values()
        )

class TestPlantNetOptimization:
    def test_listing1_campaign(self, tmp_path):
        opt = PlantNetOptimization(
            num_samples=8,
            n_initial_points=5,
            duration=150.0,
            warmup=30.0,
            workdir=tmp_path,
            seed=0,
        )
        summary = opt.run()
        assert summary.n_evaluations == 8
        cfg = summary.best_configuration
        assert 20 <= cfg["http"] <= 60
        assert 3 <= cfg["extract"] <= 9
        assert summary.algorithm["base_estimator"] == "ET"
        assert summary.sampling["generator"] == "lhs"
        # archive holds the evaluations
        assert len(opt.archive.load_evaluations()) == 8


class TestUserGrowth:
    def test_spring_peaks_visible(self):
        model = UserGrowthModel()
        assert model.spring_peak_ratio() > 2.0

    def test_exponential_trend(self):
        model = UserGrowthModel(noise_cv=0.0)
        y0 = model.expected_rate(30.0)
        y1 = model.expected_rate(30.0 + 365.25)
        assert y1 / y0 == pytest.approx(2.718281828 ** model.yearly_growth, rel=1e-6)

    def test_generate_deterministic(self):
        model = UserGrowthModel()
        a = model.generate(100, seed=1)
        b = model.generate(100, seed=1)
        assert list(a.values) == list(b.values)

    def test_capacity_bridge_grows(self):
        model = UserGrowthModel()
        early = model.expected_simultaneous_requests(200.0)
        later = model.expected_simultaneous_requests(600.0)
        assert later > early > 0

    def test_validation(self):
        from repro.errors import ValidationError

        with pytest.raises(ValidationError):
            UserGrowthModel(base_rate=0)
        with pytest.raises(ValidationError):
            UserGrowthModel().generate(0)
