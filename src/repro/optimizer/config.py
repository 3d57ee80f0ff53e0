"""The ``optimizer_conf`` configuration file (paper Sec. V-A).

The whole optimization cycle is defined through a configuration structure
that "can be easily adapted to different optimization problems". This
module parses that structure (a dict, or a JSON file) into typed pieces:
the search :class:`~repro.bayesopt.space.Space`, the
:class:`~repro.optimizer.problem.OptimizationProblem`, the search
algorithm, and the trial scheduler.

Example::

    conf = OptimizerConf.from_dict({
        "name": "plantnet_engine",
        "variables": [
            {"name": "http", "type": "integer", "low": 20, "high": 60},
            {"name": "download", "type": "integer", "low": 20, "high": 60},
            {"name": "simsearch", "type": "integer", "low": 20, "high": 60},
            {"name": "extract", "type": "integer", "low": 3, "high": 9},
        ],
        "objectives": [{"metric": "user_resp_time", "mode": "min"}],
        "algorithm": {
            "base_estimator": "ET",
            "n_initial_points": 45,
            "initial_point_generator": "lhs",
            "acq_func": "gp_hedge",
        },
        "max_concurrent": 2,
        "num_samples": 10,
    })
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from repro.bayesopt import Optimizer
from repro.bayesopt.space import Categorical, Dimension, Integer, Real, Space
from repro.errors import ValidationError
from repro.faults import FaultInjector, FaultSpec
from repro.optimizer.problem import MetricConstraint, Objective, OptimizationProblem
from repro.search.algos import SearchAlgorithm, SurrogateSearch
from repro.search.schedulers import AsyncHyperBandScheduler, FIFOScheduler, TrialScheduler
from repro.utils.serialization import load_json

__all__ = ["OptimizerConf"]


def _parse_dimension(spec: Mapping[str, Any]) -> Dimension:
    kind = str(spec.get("type", "")).lower()
    name = spec.get("name", "")
    if not name:
        raise ValidationError(f"variable needs a name: {spec}")
    if kind == "integer":
        return Integer(int(spec["low"]), int(spec["high"]), name=name)
    if kind == "real":
        return Real(
            float(spec["low"]),
            float(spec["high"]),
            prior=spec.get("prior", "uniform"),
            name=name,
        )
    if kind == "categorical":
        return Categorical(list(spec["categories"]), name=name)
    raise ValidationError(f"unknown variable type {kind!r} for {name!r}")


@dataclass
class OptimizerConf:
    """Typed view of an ``optimizer_conf`` document."""

    name: str
    variables: list[dict[str, Any]]
    objectives: list[dict[str, Any]]
    constraints: list[dict[str, Any]] = field(default_factory=list)
    algorithm: dict[str, Any] = field(default_factory=dict)
    scheduler: dict[str, Any] = field(default_factory=dict)
    num_samples: int = 10
    max_concurrent: int | None = None
    executor: str = "sync"
    max_workers: int = 4
    seed: int | None = None
    #: repeat count and duration for the final validation campaign
    #: (``e2clab optimize --repeat 6 --duration 1380``).
    repeat: int = 0
    duration: float | None = None
    workdir: str = ".repro-optimizations"
    #: trace + meter the whole run and export ``spans.jsonl`` /
    #: ``metrics.json`` / ``metrics.prom`` into the experiment directory
    #: (the ``e2clab-repro optimize --trace`` switch).
    observability: bool = False
    #: attach the live HTTP monitor to the campaign: a port (``8080``) or
    #: ``"HOST:PORT"`` string (the ``optimize --serve`` switch; port ``0``
    #: binds an ephemeral port published in the run dir's ``monitor.json``).
    #: Implies span recording for the event stream. ``None`` disables.
    serve: str | int | None = None
    #: fault tolerance — how many times a failed/hung trial is retried
    #: before surrendering to the search algorithm's ``on_trial_error``.
    max_retries: int = 0
    #: base of the exponential backoff between retry attempts (seconds).
    retry_backoff_s: float = 0.0
    #: per-trial wall-clock timeout in seconds (``None`` disables).
    trial_timeout_s: float | None = None
    #: persist campaign state every N completed trials (``--resume`` input).
    checkpoint_every: int = 1
    #: deterministic fault-injection rates (see ``repro.faults.FaultSpec``),
    #: e.g. ``{"transient": 0.2, "straggler": 0.1}``. Empty disables.
    faults: dict[str, Any] = field(default_factory=dict)
    #: live-watchdog thresholds (see ``repro.observability.WatchdogConfig``),
    #: e.g. ``{"straggler_zscore": 3.0, "stall_patience": 10}``. A non-empty
    #: block arms the watchdog (and implies span recording for its stream);
    #: pass ``{"enabled": True}`` to arm it with pure defaults.
    watchdog: dict[str, Any] = field(default_factory=dict)
    #: distributed-execution options for ``executor: "store"`` (see
    #: ``repro.search.backends.StoreBackend``), e.g. ``{"lease_s": 30,
    #: "local_workers": 2, "spawn": "cli"}``. ``store_dir`` and ``run_dir``
    #: default to the campaign's experiment directory; ``spawn: "none"``
    #: relies entirely on elastic ``python -m repro worker`` joiners.
    store: dict[str, Any] = field(default_factory=dict)
    #: evaluation memoization (see ``repro.search.evalcache.EvalCache``),
    #: e.g. ``{"enabled": True, "min_replicates": 1}``. Duplicate
    #: configurations proposed by the search are then served from the cache
    #: instead of re-simulated; the cache persists as ``evalcache.jsonl`` in
    #: the run directory so ``--resume`` starts warm. Empty disables.
    eval_cache: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.variables:
            raise ValidationError("optimizer_conf declares no variables")
        if not self.objectives:
            raise ValidationError("optimizer_conf declares no objectives")
        if self.num_samples < 1:
            raise ValidationError("num_samples must be >= 1")
        if self.repeat < 0:
            raise ValidationError("repeat must be >= 0")
        if self.max_workers < 1:
            raise ValidationError("max_workers must be >= 1")
        if self.max_retries < 0:
            raise ValidationError("max_retries must be >= 0")
        if self.retry_backoff_s < 0:
            raise ValidationError("retry_backoff_s must be >= 0")
        if self.trial_timeout_s is not None and self.trial_timeout_s <= 0:
            raise ValidationError("trial_timeout_s must be > 0")
        if self.checkpoint_every < 1:
            raise ValidationError("checkpoint_every must be >= 1")
        self._validate_algorithm()
        if self.serve is not None:
            from repro.observability.live import parse_serve_spec

            parse_serve_spec(self.serve)  # validate the spec early
        if self.faults:
            self.build_fault_injector()  # validate rates early
        if self.watchdog:
            self.build_watchdog()  # validate thresholds early
        if self.eval_cache:
            self.build_eval_cache()  # validate the block early

    def _validate_algorithm(self) -> None:
        """Reject every unknown ``algorithm`` key at once, before any build.

        The known keys are ``search``, :class:`SurrogateSearch`'s
        ``batch_size`` and the keyword knobs of
        :class:`repro.bayesopt.Optimizer` (the search space comes from
        ``variables``, not from this block).
        """
        known = {"search", "batch_size"} | set(
            inspect.signature(Optimizer).parameters
        ) - {"dimensions"}
        unknown = sorted(set(self.algorithm) - known)
        if unknown:
            raise ValidationError(
                f"unknown optimizer_conf algorithm keys: {unknown} "
                f"(known: {sorted(known)})"
            )

    # -- constructors ----------------------------------------------------------------

    @classmethod
    def from_dict(cls, data: Mapping[str, Any]) -> "OptimizerConf":
        known = {f for f in cls.__dataclass_fields__}  # type: ignore[attr-defined]
        unknown = set(data) - known
        if unknown:
            raise ValidationError(f"unknown optimizer_conf keys: {sorted(unknown)}")
        return cls(**dict(data))  # type: ignore[arg-type]

    @classmethod
    def from_json(cls, path: str | Path) -> "OptimizerConf":
        return cls.from_dict(load_json(path))

    def to_dict(self) -> dict[str, Any]:
        """JSON-ready form, round-trippable through :meth:`from_dict`.

        Saved next to the archive on fresh runs so ``--resume`` can rebuild
        the exact campaign without the user re-passing the conf file.
        """
        import dataclasses

        return dataclasses.asdict(self)

    # -- builders ---------------------------------------------------------------------

    def build_space(self) -> Space:
        return Space([_parse_dimension(spec) for spec in self.variables])

    def build_problem(self) -> OptimizationProblem:
        objectives = [
            Objective(
                metric=o["metric"],
                mode=o.get("mode", "min"),
                weight=float(o.get("weight", 1.0)),
            )
            for o in self.objectives
        ]
        constraints = [
            MetricConstraint(
                metric=c["metric"], bound=float(c["bound"]), kind=c.get("kind", "<=")
            )
            for c in self.constraints
        ]
        return OptimizationProblem(self.build_space(), objectives, constraints=constraints)

    def build_search(self, space: Space) -> SearchAlgorithm:
        """Build the search algorithm from the ``algorithm`` block.

        The other keys forward to :class:`SurrogateSearch` and on to
        :class:`repro.bayesopt.Optimizer`, so the suggest hot-path knobs —
        ``batch_size``, ``refit_every``, ``incremental`` and
        ``background_refit`` — are all configurable here.
        """
        algo = dict(self.algorithm)
        kind = algo.pop("search", "surrogate").lower()
        if kind in ("surrogate", "skopt"):
            algo.setdefault("base_estimator", "ET")
            algo.setdefault("initial_point_generator", "lhs")
            algo.setdefault("acq_func", "gp_hedge")
            algo.setdefault("random_state", self.seed)
            return SurrogateSearch(space, mode="min", **algo)
        if kind == "random":
            from repro.search.algos import RandomSearch

            return RandomSearch(space, mode="min", seed=self.seed)
        raise ValidationError(f"unknown search algorithm {kind!r}")

    def build_scheduler(self) -> TrialScheduler:
        sched = dict(self.scheduler)
        kind = sched.pop("type", "fifo").lower()
        if kind == "fifo":
            return FIFOScheduler("min")
        if kind in ("asha", "async_hyperband", "asynchyperband"):
            return AsyncHyperBandScheduler(mode="min", **sched)
        raise ValidationError(f"unknown scheduler {kind!r}")

    def build_fault_injector(self) -> FaultInjector | None:
        """A deterministic fault injector for the declared rates, or ``None``."""
        if not self.faults:
            return None
        spec = dict(self.faults)
        spec.setdefault("seed", self.seed or 0)
        return FaultInjector(FaultSpec.from_dict(spec))

    def build_eval_cache(self, path: str | Path | None = None) -> "Any | None":
        """A memoizing :class:`~repro.search.evalcache.EvalCache`, or ``None``.

        The cache key covers the configuration *and* a fingerprint of
        everything else that determines a result — the conf name, the
        campaign seed, and any user-supplied ``fingerprint`` entry — so two
        campaigns with different seeds never share entries.
        """
        if not self.eval_cache:
            return None
        spec = dict(self.eval_cache)
        if not spec.pop("enabled", True):
            return None
        from repro.search.evalcache import EvalCache

        fingerprint = {
            "name": self.name,
            "seed": self.seed,
            "extra": spec.pop("fingerprint", None),
        }
        min_replicates = int(spec.pop("min_replicates", 1))
        if spec:
            raise ValidationError(f"unknown eval_cache keys: {sorted(spec)}")
        return EvalCache(
            path=path, fingerprint=fingerprint, min_replicates=min_replicates
        )

    def build_watchdog(self) -> "Any | None":
        """A configured live watchdog, or ``None`` when the block is empty."""
        if not self.watchdog:
            return None
        from repro.observability.watchdog import CampaignWatchdog, WatchdogConfig

        spec = dict(self.watchdog)
        spec.pop("enabled", None)  # {"enabled": True} arms pure defaults
        return CampaignWatchdog(WatchdogConfig.from_dict(spec))

    def algorithm_info(self) -> dict[str, Any]:
        info = {"search": self.algorithm.get("search", "surrogate")}
        info.update({k: v for k, v in self.algorithm.items() if k != "search"})
        return info

    def sampling_info(self) -> dict[str, Any]:
        return {
            "generator": self.algorithm.get("initial_point_generator", "lhs"),
            "n_points": self.algorithm.get("n_initial_points", 10),
        }
