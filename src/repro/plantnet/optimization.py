"""The Pl@ntNet optimization — the reproduction of paper Listing 1.

``PlantNetOptimization`` inherits the framework's :class:`Optimization`
and wires the Eq. 2 problem to the Grid'5000 scenario. Its :meth:`run`
mirrors Listing 1: Extra-Trees surrogate, LHS initial design, gp_hedge
acquisition, a concurrency limiter of 2, the AsyncHyperBand scheduler, and
``metric="user_resp_time", mode="min"``.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Mapping

from repro.engine.config import EngineModelParams
from repro.optimizer.optimization import Optimization
from repro.optimizer.summary import ReproducibilitySummary
from repro.plantnet.configs import paper_problem
from repro.plantnet.scenario import PlantNetScenario
from repro.search.algos import ConcurrencyLimiter, SurrogateSearch
from repro.search.evalcache import EvalCache
from repro.search.schedulers import AsyncHyperBandScheduler

__all__ = ["PlantNetOptimization"]


class PlantNetOptimization(Optimization):
    """Find the thread-pool configuration minimizing user response time.

    Parameters
    ----------
    simultaneous_requests:
        The workload; the paper uses 80 for the search (it must exceed the
        HTTP upper bound of 60, since the HTTP pool is the number of
        requests being processed).
    duration / repetitions:
        Per-evaluation simulation length and repetition count. The paper
        runs 23-minute experiments; the default here is shorter so a
        search of tens of evaluations stays interactive — pass
        ``duration=1380`` for the full protocol.
    """

    def __init__(
        self,
        *,
        simultaneous_requests: int = 80,
        duration: float = 300.0,
        warmup: float = 60.0,
        repetitions: int = 1,
        n_initial_points: int = 10,
        num_samples: int = 25,
        max_concurrent: int = 2,
        executor: str = "sync",
        params: EngineModelParams | None = None,
        workdir: str | Path = ".repro-optimizations",
        seed: int = 0,
        warm_reuse: bool = True,
        eval_cache: bool = True,
    ) -> None:
        super().__init__(
            paper_problem(),
            name="plantnet_engine",
            workdir=workdir,
            seed=seed,
            description=(
                "Reproduction of paper Listing 1: minimize user_resp_time over "
                "the Eq. 2 thread-pool space"
            ),
        )
        self.simultaneous_requests = int(simultaneous_requests)
        self.n_initial_points = int(n_initial_points)
        self.num_samples = int(num_samples)
        self.max_concurrent = int(max_concurrent)
        self.executor = executor
        self.scenario = PlantNetScenario(
            params=params,
            duration=duration,
            warmup=warmup,
            repetitions=repetitions,
            base_seed=seed,
            use_testbed=True,
            warm_reuse=warm_reuse,
        )
        self.use_eval_cache = bool(eval_cache)

    # -- Listing 1 line 31: deploy the configs on the testbed ------------------------

    def launch(self, config: Mapping[str, Any], **kwargs: Any) -> dict[str, float]:
        return self.scenario.evaluate(
            dict(config),
            self.simultaneous_requests,
            seed=kwargs.get("seed"),
            duration=kwargs.get("duration"),
            repetitions=kwargs.get("repetitions"),
        )

    # -- Listing 1 lines 5-26: the search definition ----------------------------------

    def run(self) -> ReproducibilitySummary:
        algo = SurrogateSearch(
            self.problem.space,
            mode="min",
            base_estimator="ET",
            n_initial_points=self.n_initial_points,
            initial_point_generator="lhs",
            acq_func="gp_hedge",
            random_state=self.seed,
        )
        limited = ConcurrencyLimiter(algo, max_concurrent=self.max_concurrent)
        scheduler = AsyncHyperBandScheduler(mode="min")
        cache = None
        if self.use_eval_cache:
            # Key = canonical thread-pool config + the scenario fingerprint
            # (seeds, durations, model params) + the workload intensity.
            cache = EvalCache(
                path=self.archive.root / "evalcache.jsonl",
                fingerprint={
                    "scenario": self.scenario.fingerprint(),
                    "simultaneous_requests": self.simultaneous_requests,
                },
            )
        try:
            return self.execute(
                num_samples=self.num_samples,
                search_alg=limited,
                scheduler=scheduler,
                executor=self.executor,
                max_workers=self.max_concurrent,
                algorithm_info={
                    "search": "SurrogateSearch (SkOptSearch analogue)",
                    "base_estimator": "ET",
                    "n_initial_points": self.n_initial_points,
                    "initial_point_generator": "lhs",
                    "acq_func": "gp_hedge",
                    "max_concurrent": self.max_concurrent,
                    "scheduler": "AsyncHyperBandScheduler",
                },
                sampling_info={"generator": "lhs", "n_points": self.n_initial_points},
                eval_cache=cache,
            )
        finally:
            # Warm deployments outlive individual trials by design; the
            # campaign end is where they are finally torn down.
            self.scenario.close()
