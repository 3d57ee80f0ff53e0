"""Asynchronous parallel trial execution (the reproduction's Ray Tune).

The paper's Optimization Manager uses Ray Tune to run parallel application
evaluations with state-of-the-art search algorithms, a concurrency limiter
and the AsyncHyperBand trial scheduler (Listing 1). This package provides
the equivalent pieces:

- :class:`Trial` / :class:`TrialRunner` — trial lifecycle and the
  asynchronous execution loop over a pluggable
  :class:`ExecutionBackend` (sync, thread, process, or the distributed
  store backend).
- :class:`TrialStore` / :func:`run_worker` — the shared crash-safe trial
  ledger and the elastic worker loop behind the ``"store"`` executor.
- :class:`SurrogateSearch` — a search algorithm wrapping
  :class:`repro.bayesopt.Optimizer` (the analogue of ``SkOptSearch``).
- :class:`RandomSearch`, :class:`GridSearch` — non-model baselines.
- :class:`ConcurrencyLimiter` — caps simultaneous suggestions.
- :class:`FIFOScheduler`, :class:`AsyncHyperBandScheduler` — trial
  schedulers (ASHA-style early stopping of bad configurations).
- :func:`run` — the ``tune.run``-like facade returning an
  :class:`ExperimentAnalysis`.
"""

from repro.search.trial import Trial, TrialStatus, Reporter
from repro.search.algos import (
    ConcurrencyLimiter,
    GridSearch,
    RandomSearch,
    SearchAlgorithm,
    SurrogateSearch,
)
from repro.search.schedulers import (
    AsyncHyperBandScheduler,
    FIFOScheduler,
    TrialDecision,
    TrialScheduler,
)
from repro.search.backends import ExecutionBackend
from repro.search.runner import ExperimentAnalysis, TrialRunner, run
from repro.search.store import TrialClaim, TrialStore
from repro.search.worker import run_worker, worker_trainable_from_run_dir

__all__ = [
    "ExecutionBackend",
    "TrialStore",
    "TrialClaim",
    "run_worker",
    "worker_trainable_from_run_dir",
    "Trial",
    "TrialStatus",
    "Reporter",
    "SearchAlgorithm",
    "SurrogateSearch",
    "RandomSearch",
    "GridSearch",
    "ConcurrencyLimiter",
    "TrialScheduler",
    "TrialDecision",
    "FIFOScheduler",
    "AsyncHyperBandScheduler",
    "TrialRunner",
    "ExperimentAnalysis",
    "run",
]
