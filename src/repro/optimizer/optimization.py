"""The user-facing ``Optimization`` class (paper Listing 1).

Users inherit :class:`Optimization` and

- define the search in :meth:`run` (search algorithm, scheduler, metric,
  number of samples — Listing 1 lines 5–26), typically via the
  :meth:`execute` helper;
- define the evaluation logic in :meth:`launch` (deploy the application on
  the testbed, run it, collect metrics — Listing 1 line 31).

The framework provides :meth:`prepare` (a dedicated directory per model
evaluation), :meth:`finalize` (persists the evaluation computations), and
:meth:`run_objective` chaining prepare → launch → finalize exactly like
Listing 1 lines 28–35.
"""

from __future__ import annotations

import abc
import threading
import time
from pathlib import Path
from typing import Any, Mapping

from repro.errors import OptimizationError
from repro.experiments import EvaluationRecord, ExperimentArchive, ExperimentManifest
from repro.observability import export as export_observability_artifacts
from repro.observability.trace import SCALAR_METRIC, get_tracer
from repro.optimizer.problem import OptimizationProblem
from repro.optimizer.summary import ReproducibilitySummary
from repro.search.algos import ConcurrencyLimiter, SearchAlgorithm, SurrogateSearch
from repro.search.evalcache import EvalCache
from repro.search.runner import ExperimentAnalysis, TrialRunner
from repro.search.schedulers import TrialScheduler

__all__ = ["Optimization"]


class Optimization(abc.ABC):
    """Base class for user-defined optimizations."""

    def __init__(
        self,
        problem: OptimizationProblem,
        *,
        name: str = "optimization",
        workdir: str | Path = ".repro-optimizations",
        seed: int | None = None,
        description: str = "",
        resume_dir: str | Path | None = None,
    ) -> None:
        self.problem = problem
        self.name = name
        self.seed = seed
        if resume_dir is not None:
            # Re-open the interrupted campaign's archive: keeps the manifest
            # and the evaluation counter, so new evaluations continue the
            # optimization-<k> numbering instead of colliding.
            path = Path(resume_dir)
            self.archive = ExperimentArchive.open(path.parent, path.name)
            self.name = self.archive.manifest.name
        else:
            manifest = ExperimentManifest(
                name=name,
                description=description,
                seed=seed,
                parameters={"problem": problem.describe()},
            )
            self.archive = ExperimentArchive(workdir, manifest)
        self._lock = threading.Lock()
        self._records: list[EvaluationRecord] = []

    # -- the optimization cycle hooks (Listing 1 lines 28-35) -------------------------

    def prepare(self) -> Path:
        """Create a dedicated optimization directory for one evaluation."""
        with self._lock:
            return self.archive.new_evaluation_dir()

    @abc.abstractmethod
    def launch(self, config: Mapping[str, Any], **kwargs: Any) -> dict[str, float]:
        """Deploy the configuration and return the measured metrics.

        Implementations deploy the application workflow on the (simulated)
        testbed, run the workload, and return every metric the problem's
        objectives and constraints reference. ``kwargs`` may carry
        ``seed=`` / ``duration=`` overrides from repeat campaigns.
        """

    def finalize(
        self,
        directory: Path,
        config: Mapping[str, Any],
        metrics: Mapping[str, Any],
        *,
        deployment: list[dict[str, Any]] | None = None,
    ) -> EvaluationRecord:
        """Persist the computations of one evaluation (reproducibility)."""
        index = int(directory.name.split("-")[1])
        record = EvaluationRecord(
            index=index,
            configuration=dict(config),
            metrics=dict(metrics),
            deployment=deployment or [],
            seed=self.seed,
        )
        with self._lock:
            self.archive.store_evaluation(record, directory)
            self._records.append(record)
        return record

    def run_objective(self, config: Mapping[str, Any]) -> dict[str, float]:
        """prepare → launch → finalize → report (Listing 1 lines 28-35).

        The three hooks map onto the optimization cycle's deploy, execute
        and reconfigure steps, each traced as its own span (the fourth step,
        *optimize*, is the runner's suggest/tell pair). The reconfigure span
        carries the whole evaluation's wall time as ``evaluation_s``.
        """
        tracer = get_tracer()
        start = time.perf_counter()
        with tracer.span("cycle:deploy"):
            directory = self.prepare()
        with tracer.span("cycle:execute"):
            metrics = dict(self.launch(config))
        metrics[SCALAR_METRIC] = self.problem.scalarize(metrics)
        with tracer.span("cycle:reconfigure") as span:
            self.finalize(directory, config, metrics)
            span.set("evaluation_s", time.perf_counter() - start)
        return metrics

    # -- the search (Listing 1 lines 5-26) ------------------------------------------------

    @abc.abstractmethod
    def run(self) -> ReproducibilitySummary:
        """Define and execute the search; typically calls :meth:`execute`."""

    def execute(
        self,
        *,
        num_samples: int,
        search_alg: SearchAlgorithm | None = None,
        scheduler: TrialScheduler | None = None,
        max_concurrent: int | None = None,
        executor: str = "sync",
        max_workers: int = 4,
        algorithm_info: dict[str, Any] | None = None,
        sampling_info: dict[str, Any] | None = None,
        max_retries: int = 0,
        retry_backoff_s: float = 0.0,
        trial_timeout_s: float | None = None,
        resume: bool = False,
        checkpoint_every: int = 1,
        eval_cache: EvalCache | None = None,
        backend_options: dict[str, Any] | None = None,
    ) -> ReproducibilitySummary:
        """Run the optimization cycle and emit the Phase III summary.

        Defaults reproduce Listing 1: Extra-Trees surrogate, LHS initial
        design, gp_hedge acquisition, concurrency-limited asynchronous
        evaluation. With ``resume=True`` finished trials from the archive's
        checkpoint are replayed into the searcher (no re-execution) and the
        campaign continues until ``num_samples`` total.

        ``backend_options`` parameterizes the execution backend; for the
        distributed ``"store"`` executor the trial store and worker run
        directory default into this campaign's archive, so elastic workers
        only need the experiment directory to join.
        """
        if executor == "store":
            backend_options = dict(backend_options or {})
            backend_options.setdefault("store_dir", str(self.archive.root / "store"))
            backend_options.setdefault("run_dir", str(self.archive.root))
        if search_alg is None:
            n_initial = max(1, min(10, num_samples // 2))
            search_alg = SurrogateSearch(
                self.problem.space,
                mode="min",
                base_estimator="ET",
                n_initial_points=n_initial,
                initial_point_generator="lhs",
                acq_func="gp_hedge",
                random_state=self.seed,
            )
            algorithm_info = algorithm_info or {
                "search": "SurrogateSearch",
                "base_estimator": "ET",
                "acq_func": "gp_hedge",
                "n_initial_points": n_initial,
            }
            sampling_info = sampling_info or {
                "generator": "lhs",
                "n_points": n_initial,
            }
        if max_concurrent is not None:
            search_alg = ConcurrencyLimiter(search_alg, max_concurrent)

        resume_trials = None
        resume_searcher_state = None
        if resume:
            from repro.search.trial import Trial

            resume_trials = [Trial.from_dict(r) for r in self.archive.load_checkpoint()]
            resume_searcher_state = self.archive.load_searcher_state()

        tracer = get_tracer()

        def checkpoint(
            records: list[dict[str, Any]], searcher_state: dict[str, Any] | None = None
        ) -> Path:
            # When a live watchdog is armed, its control state rides along in
            # checkpoint.json so --resume does not re-fire old alerts; the
            # searcher state keeps the refit cadence across resumes.
            watchdog = tracer.watchdog
            state = watchdog.state_dict() if watchdog is not None else None
            return self.archive.store_checkpoint(
                records, watchdog_state=state, searcher_state=searcher_state
            )

        start = time.perf_counter()
        runner = TrialRunner(
            self.run_objective,
            search_alg,
            metric=SCALAR_METRIC,
            mode="min",
            scheduler=scheduler,
            num_samples=num_samples,
            executor=executor,
            max_workers=max_workers,
            name=self.name,
            max_retries=max_retries,
            retry_backoff_s=retry_backoff_s,
            trial_timeout_s=trial_timeout_s,
            resume_trials=resume_trials,
            resume_searcher_state=resume_searcher_state,
            checkpoint=checkpoint,
            checkpoint_every=checkpoint_every,
            eval_cache=eval_cache,
            backend_options=backend_options,
            # With tracing on, also drop the one-line-per-trial log next to
            # the other artifacts so the run report can render a trial table.
            log_dir=str(self.archive.root) if tracer.enabled else None,
        )
        with tracer.span(f"experiment:{self.name}", executor=executor):
            analysis = runner.run()
        wall = time.perf_counter() - start
        summary = self.summarize(
            analysis,
            algorithm_info=algorithm_info or {"search": type(search_alg).__name__},
            sampling_info=sampling_info or {},
            wall_clock_s=wall,
        )
        if tracer.metrics is not None:
            tracer.metrics.gauge("repro_best_value", "incumbent objective value").set(
                summary.best_value
            )
        if tracer.watchdog is not None:
            summary.alerts = tracer.watchdog.summary()
        with self._lock:
            self.archive.store_summary(summary.to_dict())
        self.export_observability()
        return summary

    def export_observability(self) -> list[Path]:
        """Write spans/metrics artifacts into the archive root, if enabled."""
        return export_observability_artifacts(self.archive.root)

    # -- Phase III --------------------------------------------------------------------------

    def summarize(
        self,
        analysis: ExperimentAnalysis,
        *,
        algorithm_info: dict[str, Any],
        sampling_info: dict[str, Any],
        wall_clock_s: float,
    ) -> ReproducibilitySummary:
        """Build the reproducibility summary from an experiment analysis."""
        evaluations = []
        values: list[float] = []
        for trial in analysis.trials:
            if SCALAR_METRIC not in trial.result:
                continue
            value = trial.result[SCALAR_METRIC]
            values.append(value)
            evaluations.append(
                {
                    "configuration": dict(trial.config),
                    "metrics": dict(trial.result),
                    "value": value,
                }
            )
        # NaN scores (early-stopped trials without an intermediate report)
        # stay in `evaluations` for completeness but cannot win or converge.
        finite = [(i, v) for i, v in enumerate(values) if v == v]
        if not finite:
            raise OptimizationError("no successful evaluations to summarize")
        best_idx, best_value = min(finite, key=lambda iv: iv[1])
        # Convergence: first evaluation whose incumbent equals the final best.
        convergence = next(
            i + 1 for i, v in finite if v <= best_value + 1e-12
        )
        return ReproducibilitySummary(
            cost_profile=analysis.cost_profile().to_dict(),
            problem=self.problem.describe(),
            sampling=sampling_info,
            algorithm=algorithm_info,
            evaluations=evaluations,
            best_configuration=evaluations[best_idx]["configuration"],
            best_value=best_value,
            wall_clock_s=wall_clock_s,
            convergence_evaluation=convergence,
        )
