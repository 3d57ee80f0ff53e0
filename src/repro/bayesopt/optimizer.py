"""The ask/tell sequential model-based optimizer (skopt's ``Optimizer``).

Supports the exact knobs of the paper's Listing 1 (base estimator alias,
initial point count and generator, ``gp_hedge`` acquisition portfolio) plus
**constant-liar** pending-point handling so several configurations can be
evaluated in parallel — the heart of the paper's asynchronous optimization
cycle.

gp_hedge follows the Hedge bandit of Hoffman et al. (2011), as adopted by
scikit-optimize: each base acquisition (EI, PI, LCB) proposes a candidate,
one proposal is drawn with probability ``softmax(η · gains)``, and after the
objective value arrives the chosen strategy's gain is updated with the
realized improvement.

Hot-path design
---------------
``ask``/``tell`` are the per-trial costs of the optimization cycle, so both
are kept off the campaign's critical path:

- ``ask(n)`` fits the surrogate at most once and draws a whole batch of
  distinct points from it; every batched point is registered as a pending
  constant-liar fantasy so the *next* refit accounts for in-flight trials.
- surrogate refits are throttled (``refit_every`` fresh observations, with
  a data-doubling staleness override) and the fitted-model history is a
  capped opt-in record (``keep_models``) instead of an unbounded list.
- ``tell`` is O(1): it caches the decoded point and the running best, and
  ``result()`` assembles the :class:`OptimizeResult` lazily from those
  caches instead of inverse-transforming the full history per call.
- with ``incremental=True`` each tell folds the fresh observation into the
  published surrogate via ``partial_fit`` (frozen-structure leaf updates),
  so full from-scratch refits only fire on dataset doubling — log-many over
  a campaign instead of every ``refit_every`` trials.
- with ``background_refit=True`` those full refits move off the ask path:
  a child process fits a *second* model instance while ``ask`` keeps
  reading the last published one, and a daemon thread that waits for the
  child swaps the fresh model in with a single attribute assignment under
  the optimizer lock (double buffering). The fit runs in another
  interpreter because a pure-Python fit on a thread would hold the GIL
  that every numpy call of an overlapping ask has to win back
  (:mod:`repro.bayesopt.refit_worker`). The deterministic single-thread
  behaviour of ``background_refit=False`` is bit-for-bit identical to
  previous releases.

All public methods are thread-safe: ``ask``/``tell``/``result`` serialize
on one re-entrant lock, which is also what makes the background publish an
atomic swap from the caller's point of view.
"""

from __future__ import annotations

import math
import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Sequence

import numpy as np

from repro.bayesopt.acquisition import (
    expected_improvement,
    lower_confidence_bound,
    probability_of_improvement,
)
from repro.bayesopt.refit_worker import RefitProcess, encode_request
from repro.bayesopt.space import Dimension, Space
from repro.errors import OptimizationError, ValidationError
from repro.observability.trace import get_tracer
from repro.sampling import get_sampler
from repro.surrogate import SurrogateModel, get_surrogate
from repro.utils.serialization import canonical_config

__all__ = ["Optimizer", "OptimizeResult"]

_HEDGE_ACQS = ("EI", "PI", "LCB")


@dataclass
class OptimizeResult:
    """Best-so-far view over everything the optimizer was told."""

    x: list[Any]
    fun: float
    x_iters: list[list[Any]] = field(default_factory=list)
    func_vals: list[float] = field(default_factory=list)
    space: Space | None = None
    n_initial_points: int = 0

    @property
    def n_evaluations(self) -> int:
        return len(self.func_vals)

    def best_after(self, n: int) -> float:
        """Best objective among the first ``n`` evaluations.

        Quarantined non-finite evaluations are ignored; ``inf`` is returned
        if the prefix holds none that are finite.
        """
        if n < 1 or n > len(self.func_vals):
            raise ValidationError(f"n must be in [1, {len(self.func_vals)}]")
        prefix = np.asarray(self.func_vals[:n], dtype=float)
        finite = prefix[np.isfinite(prefix)]
        return float(np.min(finite)) if len(finite) else math.inf

    def to_dict(self) -> dict[str, Any]:
        return {
            "x": self.x,
            "fun": self.fun,
            "x_iters": self.x_iters,
            "func_vals": list(self.func_vals),
            "n_initial_points": self.n_initial_points,
        }


def _points_equal(a: Sequence[Any], b: Sequence[Any]) -> bool:
    """Element-wise point equality tolerant of list/tuple and numeric drift.

    Both points go through the same canonicalization as the evaluation
    cache key (:func:`repro.utils.serialization.canonical_config`), so
    checkpoint replay matching and cache identity cannot drift apart —
    ``5`` matches ``5.0``, tuples match lists, numpy scalars match both.
    """
    return canonical_config(list(a)) == canonical_config(list(b))


class Optimizer:
    """Sequential model-based minimizer with ask/tell interface.

    Parameters mirror scikit-optimize:

    - ``base_estimator``: surrogate alias (``"ET"``, ``"RF"``, ``"GBRT"``,
      ``"GP"``, ...) or a :class:`~repro.surrogate.base.SurrogateModel`
      factory.
    - ``n_initial_points``: evaluations taken from the initial design
      before the surrogate drives the search.
    - ``initial_point_generator``: sampler name (``"lhs"``, ``"sobol"``,
      ``"halton"``, ``"random"``, ``"grid"``).
    - ``acq_func``: ``"EI"``, ``"PI"``, ``"LCB"`` or ``"gp_hedge"``.
    - ``lie_strategy``: fantasy value for pending points — ``"cl_min"``
      (optimistic), ``"cl_mean"``, or ``"cl_max"`` (pessimistic).
    - ``refit_every``: fresh observations (tells plus pending-set changes)
      tolerated before the cached surrogate is refitted. The default of 1
      preserves the refit-per-ask behaviour; larger values amortize fits
      across many asks, with a staleness override forcing a refit once the
      observation set has doubled since the cached fit.
    - ``keep_models``: size of the fitted-surrogate history exposed through
      :attr:`models`. 0 (default) keeps none — campaign memory stays flat.
    - ``incremental``: fold each finite tell into the published surrogate
      via ``partial_fit`` (frozen-structure leaf updates) instead of
      counting it towards the refit throttle; full refits then only fire on
      dataset doubling. Slightly changes which model serves each ask, so it
      is off by default for reproducibility.
    - ``background_refit``: run full refits in a child process and
      double-buffer the model — ``ask`` always reads the last published
      fit and a lock-protected attribute swap publishes the new one. The
      surrogate must be picklable (the built-in ones are). Off by default:
      the single-thread path is bit-for-bit reproducible.
    """

    def __init__(
        self,
        dimensions: Space | Sequence[Dimension],
        *,
        base_estimator: str | Callable[[], SurrogateModel] = "ET",
        n_initial_points: int = 10,
        initial_point_generator: str = "lhs",
        acq_func: str = "gp_hedge",
        acq_n_candidates: int = 2000,
        xi: float = 0.01,
        kappa: float = 1.96,
        lie_strategy: str = "cl_min",
        hedge_eta: float = 1.0,
        refit_every: int = 1,
        keep_models: int = 0,
        incremental: bool = False,
        background_refit: bool = False,
        random_state: int | None = None,
    ) -> None:
        self.space = dimensions if isinstance(dimensions, Space) else Space(dimensions)
        if n_initial_points < 1:
            raise ValidationError("n_initial_points must be >= 1")
        if acq_func not in ("EI", "PI", "LCB", "gp_hedge"):
            raise ValidationError(f"unknown acq_func {acq_func!r}")
        if lie_strategy not in ("cl_min", "cl_mean", "cl_max"):
            raise ValidationError(f"unknown lie_strategy {lie_strategy!r}")
        if refit_every < 1:
            raise ValidationError("refit_every must be >= 1")
        if keep_models < 0:
            raise ValidationError("keep_models must be >= 0")
        self.base_estimator = base_estimator
        self.n_initial_points = int(n_initial_points)
        self.acq_func = acq_func
        self.acq_n_candidates = int(acq_n_candidates)
        self.xi = float(xi)
        self.kappa = float(kappa)
        self.lie_strategy = lie_strategy
        self.hedge_eta = float(hedge_eta)
        self.refit_every = int(refit_every)
        self.keep_models = int(keep_models)
        self.incremental = bool(incremental)
        self.background_refit = bool(background_refit)
        self.rng = np.random.default_rng(random_state)

        sampler = get_sampler(initial_point_generator)
        self._initial_points = sampler.generate(
            self.n_initial_points, len(self.space), self.rng
        )
        self._initial_cursor = 0

        self.Xi_unit: list[np.ndarray] = []
        self.yi: list[float] = []
        #: decoded points, cached at tell time so ``result()`` never has to
        #: inverse-transform the history.
        self.Xi: list[list[Any]] = []
        #: pending = (unit point, decoded point, hedge acq). Matching in
        #: tell() uses the *decoded* point: integer/categorical dimensions
        #: collapse many unit coordinates onto one native value, so the
        #: caller's x would not reproduce the asked unit coordinate.
        self._pending: list[tuple[np.ndarray, list[Any], str | None]] = []
        self._gains = np.zeros(len(_HEDGE_ACQS))
        self._model: SurrogateModel | None = None
        self._fit_told = 0
        self._fit_pending = 0
        #: observation count at the last FULL fit — drives the doubling
        #: override. Without incremental updates it tracks ``_fit_told``
        #: exactly, preserving the historical staleness behaviour.
        self._full_fit_size = 0
        self._model_history: deque[SurrogateModel] = deque(maxlen=self.keep_models)
        self._best_idx = -1
        self._best_y = math.inf
        #: finite tells only — NaN/inf objectives are recorded in the
        #: history but quarantined from fitting and incumbent tracking.
        self._n_finite = 0

        #: counters for tests/benchmarks: inline (blocking) full fits vs
        #: fits published by the background worker.
        self.n_fits = 0
        self.n_background_fits = 0

        # One re-entrant lock serializes all public-state mutation; the
        # condition hands full-refit jobs to the lazily started worker.
        # Lock order is always _lock → _refit_cond, never the reverse.
        self._lock = threading.RLock()
        self._refit_cond = threading.Condition()
        #: (encoded refit request, rows, told, pending) for the worker.
        self._refit_job: tuple[bytes, int, int, int] | None = None
        self._refit_inflight = False
        self._refit_thread: threading.Thread | None = None
        self._refit_process: RefitProcess | None = None
        self._closed = False

    @property
    def models(self) -> list[SurrogateModel]:
        """Capped record of fitted surrogates (opt-in via ``keep_models``)."""
        return list(self._model_history)

    # -- surrogate construction -----------------------------------------------------

    def _new_model(self) -> SurrogateModel:
        if callable(self.base_estimator):
            return self.base_estimator()
        seed = int(self.rng.integers(0, 2**31))
        try:
            return get_surrogate(self.base_estimator, random_state=seed)
        except TypeError:
            return get_surrogate(self.base_estimator)

    def _fit_model(self, model: SurrogateModel, X: np.ndarray, y: np.ndarray) -> None:
        """Fit + observability: a ``refit`` span (the latency digest's source)."""
        start = time.perf_counter()
        try:
            model.fit(X, y)
        finally:
            self._record_refit(time.perf_counter() - start, len(y))

    @staticmethod
    def _record_refit(elapsed: float, n_obs: int) -> None:
        tracer = get_tracer()
        if tracer.enabled:
            end = tracer.clock()
            span = tracer.start_span("refit", start=end - elapsed, n_obs=n_obs)
            tracer.end_span(span, end=end)

    def _surrogate(self) -> SurrogateModel:
        """The published surrogate, refitted only when stale enough.

        A full refit is due when ``refit_every`` fresh observations
        accumulated (new tells plus changes of the pending set, so the
        default of 1 also refreshes constant-liar fantasies between asks)
        or when the observation set has doubled since the last full fit
        regardless of the throttle. With ``incremental=True`` per-tell
        ``partial_fit`` absorbs freshness, so only the doubling override
        reaches here. With ``background_refit=True`` a due refit is handed
        to the worker and the *current* model keeps serving asks until the
        new one is published — only the very first fit blocks.
        """
        told, pend = len(self.yi), len(self._pending)
        if self._model is not None:
            fresh = (told - self._fit_told) + abs(pend - self._fit_pending)
            doubled = told >= 2 * max(self._full_fit_size, 1)
            if fresh < self.refit_every and not doubled:
                return self._model
            if self.background_refit:
                self._schedule_refit()
                return self._model
        X, y = self._augmented_data()
        model = self._new_model()
        self._fit_model(model, X, y)
        self._model = model
        self._fit_told = told
        self._fit_pending = pend
        self._full_fit_size = told
        self.n_fits += 1
        if self._model_history.maxlen:
            self._model_history.append(model)
        return model

    def _schedule_refit(self) -> None:
        """Queue a background full refit (caller holds ``self._lock``).

        The training snapshot and the unfitted model instance — including
        its rng draw for the surrogate seed — are both produced on the
        *caller* thread, so the optimizer rng is never touched off-thread
        and the background path consumes the same rng stream as the inline
        one. At most one refit is in flight; while it runs, later asks keep
        reading the current model instead of piling up jobs. The request is
        encoded and the refit child started here too, so an unpicklable
        surrogate or a child that cannot start fails this ask loudly.
        """
        if self._refit_inflight or self._closed:
            return
        X, y = self._augmented_data()
        request = encode_request(self._new_model(), X, y)
        told, pend = len(self.yi), len(self._pending)
        with self._refit_cond:
            if self._refit_process is None:
                self._refit_process = RefitProcess()
        self._refit_inflight = True
        if self._refit_thread is None or not self._refit_thread.is_alive():
            self._refit_thread = threading.Thread(
                target=self._refit_worker, name="surrogate-refit", daemon=True
            )
            self._refit_thread.start()
        with self._refit_cond:
            self._refit_job = (request, len(y), told, pend)
            self._refit_cond.notify()

    def _refit_worker(self) -> None:
        """Hand each queued job to the refit child and publish its model.

        A failed refit is dropped and the published model keeps serving; a
        child that died is replaced at the next refit.
        """
        while True:
            with self._refit_cond:
                while self._refit_job is None and not self._closed:
                    self._refit_cond.wait()
                if self._refit_job is None:
                    if self._refit_process is not None:
                        self._refit_process.close()
                        self._refit_process = None
                    return  # closed with nothing queued
                job, self._refit_job = self._refit_job, None
                process = self._refit_process
            assert process is not None  # started with the job
            request, n_obs, told, pend = job
            try:
                model, elapsed = process.fit(request)
            except Exception as exc:
                if not isinstance(exc, OptimizationError):
                    with self._refit_cond:
                        if self._refit_process is process:
                            self._refit_process = None
                    process.close()
                with self._lock:
                    self._refit_inflight = False
                continue
            self._record_refit(elapsed, n_obs)
            with self._lock:
                # Double-buffer publish: one attribute swap under the lock;
                # concurrent asks read either the old or the new model.
                self._model = model
                self._fit_told = told
                self._fit_pending = pend
                self._full_fit_size = told
                self.n_background_fits += 1
                if self._model_history.maxlen:
                    self._model_history.append(model)
                self._refit_inflight = False

    def close(self) -> None:
        """Stop the background refit worker and its child (idempotent).

        Pending jobs are dropped and a refit in progress is abandoned; the
        last published model stays readable. Only needed with
        ``background_refit=True`` — and even then the worker is a daemon
        and the child exits with its parent, so skipping ``close`` never
        hangs interpreter shutdown.
        """
        with self._refit_cond:
            self._closed = True
            self._refit_job = None
            self._refit_cond.notify_all()
            if self._refit_process is not None:
                self._refit_process.kill()
        thread = self._refit_thread
        if thread is not None and thread.is_alive():
            thread.join(timeout=10.0)

    # -- ask -----------------------------------------------------------------------

    def ask(self, n: int | None = None) -> list[Any]:
        """Next point(s) to evaluate (registered as pending).

        Without ``n`` returns a single point, as before. With ``n`` returns
        a batch of ``n`` distinct points generated from a *single* surrogate
        fit: each pick is drawn from the acquisition ranking (gp_hedge draws
        a portfolio member per point), deduplicated against everything asked
        or told, and registered as a pending constant-liar fantasy so later
        refits see the in-flight batch.
        """
        if n is not None and n < 1:
            raise ValidationError("batch size n must be >= 1")
        with self._lock:
            units, acqs = self._ask_units(1 if n is None else int(n))
            points = self.space.inverse_transform(np.asarray(units))
            for unit, point, acq_name in zip(units, points, acqs):
                self._pending.append((unit, point, acq_name))
        return points[0] if n is None else points

    def _ask_units(self, n: int) -> tuple[list[np.ndarray], list[str | None]]:
        taken = self._taken_keys()
        units: list[np.ndarray] = []
        acqs: list[str | None] = []
        candidates: np.ndarray | None = None
        mu = std = None
        y_best = 0.0
        order_cache: dict[str, np.ndarray] = {}
        for _ in range(n):
            if self._initial_cursor < self.n_initial_points or not self._n_finite:
                unit, acq_name = self._cold_unit(taken), None
            else:
                if candidates is None:
                    model = self._surrogate()
                    candidates = self.rng.random((self.acq_n_candidates, len(self.space)))
                    mu, std = model.predict(candidates, return_std=True)
                    y_best = self._best_y
                if self.acq_func == "gp_hedge":
                    probs = self._hedge_probabilities()
                    acq_name = _HEDGE_ACQS[int(self.rng.choice(len(_HEDGE_ACQS), p=probs))]
                else:
                    acq_name = self.acq_func
                order = order_cache.get(acq_name)
                if order is None:
                    scores = self._acquisition(acq_name, mu, std, y_best)
                    order = np.argsort(scores)[::-1]
                    order_cache[acq_name] = order
                unit = None
                for idx in order:
                    if tuple(np.round(candidates[idx], 6)) not in taken:
                        unit = candidates[idx]
                        break
                if unit is None:
                    # Every candidate collides (tiny spaces): random fallback.
                    unit, acq_name = self._random_untaken(taken), None
                elif self.acq_func != "gp_hedge":
                    acq_name = None
            taken.add(tuple(np.round(unit, 6)))
            units.append(np.asarray(unit, dtype=float))
            acqs.append(acq_name)
        return units, acqs

    def _taken_keys(self) -> set[tuple[float, ...]]:
        taken = {tuple(np.round(u, 6)) for u, _, _ in self._pending}
        taken.update(tuple(np.round(u, 6)) for u in self.Xi_unit)
        return taken

    def _cold_unit(self, taken: set[tuple[float, ...]]) -> np.ndarray:
        """Next initial-design point not asked/told yet, else uniform random.

        Skipping design points already in ``taken`` matters on resume
        replay, where the campaign's early tells collide with the design.
        """
        while self._initial_cursor < self.n_initial_points:
            unit = self._initial_points[self._initial_cursor].copy()
            self._initial_cursor += 1
            if tuple(np.round(unit, 6)) not in taken:
                return unit
        return self._random_untaken(taken)

    def _random_untaken(self, taken: set[tuple[float, ...]]) -> np.ndarray:
        """Uniform random point, rejection-sampled away from ``taken``."""
        for _ in range(32):
            unit = self.rng.random(len(self.space))
            if tuple(np.round(unit, 6)) not in taken:
                return unit
        # Space effectively exhausted at key resolution: give up on dedup.
        return self.rng.random(len(self.space))

    def _acquisition(
        self, name: str, mu: np.ndarray, std: np.ndarray, y_best: float
    ) -> np.ndarray:
        if name == "EI":
            return expected_improvement(mu, std, y_best, self.xi)
        if name == "PI":
            return probability_of_improvement(mu, std, y_best, self.xi)
        if name == "LCB":
            return lower_confidence_bound(mu, std, self.kappa)
        raise ValidationError(f"unknown acquisition {name!r}")  # pragma: no cover

    def _hedge_probabilities(self) -> np.ndarray:
        scaled = self.hedge_eta * (self._gains - self._gains.max())
        exp = np.exp(scaled)
        return exp / exp.sum()

    def _augmented_data(self) -> tuple[np.ndarray, np.ndarray]:
        """Observed data plus constant-liar fantasies for pending points.

        Non-finite objectives (quarantined tells) are excluded — both from
        the training rows and from the lie statistics, which would otherwise
        be NaN-poisoned.
        """
        if self._n_finite == len(self.yi):
            X = list(self.Xi_unit)
            y = list(self.yi)
        else:
            keep = [i for i, v in enumerate(self.yi) if math.isfinite(v)]
            X = [self.Xi_unit[i] for i in keep]
            y = [self.yi[i] for i in keep]
        if self._pending and y:
            if self.lie_strategy == "cl_min":
                lie = float(np.min(y))
            elif self.lie_strategy == "cl_mean":
                lie = float(np.mean(y))
            else:
                lie = float(np.max(y))
            for unit, _, _ in self._pending:
                X.append(unit)
                y.append(lie)
        return np.asarray(X), np.asarray(y)

    # -- tell ----------------------------------------------------------------------

    def tell(self, x: Sequence[Any], y: float) -> None:
        """Report an observed objective value for ``x``.

        O(1) in the campaign length: the decoded point and the running best
        are cached here; build the full view with :meth:`result`.

        A non-finite ``y`` (crashed trial, diverged measurement) is
        *quarantined*, not rejected: the point is recorded in the history so
        it is never re-suggested, but it contributes to neither the
        incumbent, the hedge gains, nor any surrogate fit.
        """
        y = float(y)
        x = list(x)
        with self._lock:
            unit = self.space.transform([x])[0]
            popped = self._pop_pending(unit, x)
            if popped is not None:
                _, point, acq_name = popped
            else:
                point = self.space.inverse_transform(unit[None, :])[0]
                acq_name = None
            finite = math.isfinite(y)
            if acq_name is not None and finite:
                best_before = self._best_y if self._n_finite else y
                self._gains[_HEDGE_ACQS.index(acq_name)] += max(0.0, best_before - y)
            self.Xi_unit.append(unit)
            self.yi.append(y)
            self.Xi.append(point)
            if finite:
                self._n_finite += 1
                if y < self._best_y:
                    self._best_y = y
                    self._best_idx = len(self.yi) - 1
                self._absorb_incremental(unit, y)

    def _absorb_incremental(self, unit: np.ndarray, y: float) -> None:
        """Fold one finite tell into the published model via ``partial_fit``.

        On success the model is marked current (``_fit_told``/``_fit_pending``
        resynced), so full refits only fire at dataset doubling. Constant-liar
        fantasy refreshes between full fits are sacrificed — the stale lies
        remain baked into the frozen structure, which is the documented
        approximation of incremental mode. No-op unless ``incremental`` is on
        and the surrogate supports partial fits.
        """
        if not self.incremental or self._model is None:
            return
        if not getattr(self._model, "supports_partial_fit", False):
            return
        self._model.partial_fit(unit.reshape(1, -1), [y])
        self._fit_told = len(self.yi)
        self._fit_pending = len(self._pending)

    def _pop_pending(
        self, unit: np.ndarray, x: list[Any]
    ) -> tuple[np.ndarray, list[Any], str | None] | None:
        """Resolve a told point against the pending suggestions.

        Exact decoded-point matches win (robust to list/tuple and int/float
        representation drift, e.g. on ``--resume`` replay); otherwise the
        *nearest* pending unit point within tolerance is taken, so two close
        asked points cannot steal each other's hedge attribution.
        """
        if not self._pending:
            return None
        for i, entry in enumerate(self._pending):
            if _points_equal(entry[1], x):
                return self._pending.pop(i)
        dists = np.array(
            [float(np.max(np.abs(pending_unit - unit))) for pending_unit, _, _ in self._pending]
        )
        nearest = int(np.argmin(dists))
        if dists[nearest] <= 1e-6:
            return self._pending.pop(nearest)
        return None

    # -- results ---------------------------------------------------------------------

    def result(self) -> OptimizeResult:
        """Best-so-far view, assembled lazily from the tell-time caches."""
        with self._lock:
            if not self.yi:
                raise OptimizationError("no evaluations told yet")
            if not self._n_finite:
                raise OptimizationError("no finite evaluations told yet")
            return OptimizeResult(
                x=list(self.Xi[self._best_idx]),
                fun=self._best_y,
                x_iters=[list(p) for p in self.Xi],
                func_vals=list(self.yi),
                space=self.space,
                n_initial_points=self.n_initial_points,
            )

    # -- checkpoint state -------------------------------------------------------------

    def export_state(self) -> dict[str, Any]:
        """Checkpointable optimizer internals that tells cannot reconstruct.

        Covers the refit-cadence counters (so ``--resume`` neither triggers
        a refit storm nor serves a stale model), the hedge gains (replayed
        tells carry no pending entries, so gains would otherwise reset to
        zero), and the initial-design cursor. Observation history itself is
        rebuilt by the caller replaying ``tell``.
        """
        with self._lock:
            return {
                "fit_told": int(self._fit_told),
                "fit_pending": int(self._fit_pending),
                "full_fit_size": int(self._full_fit_size),
                "gains": [float(g) for g in self._gains],
                "initial_cursor": int(self._initial_cursor),
            }

    def restore_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`export_state` output after replaying the tells.

        Counters are clamped to the replayed history length so a truncated
        checkpoint can never make the optimizer think it is fresher than
        the data it actually holds.
        """
        if not isinstance(state, dict):
            raise ValidationError("optimizer state must be a mapping")
        with self._lock:
            told = len(self.yi)
            self._fit_told = min(int(state.get("fit_told", 0)), told)
            self._fit_pending = max(int(state.get("fit_pending", 0)), 0)
            self._full_fit_size = min(int(state.get("full_fit_size", 0)), told)
            gains = state.get("gains")
            if gains is not None and len(gains) == len(_HEDGE_ACQS):
                self._gains = np.asarray(gains, dtype=float)
            cursor = int(state.get("initial_cursor", self._initial_cursor))
            self._initial_cursor = min(max(cursor, 0), self.n_initial_points)

    def run(self, func: Callable[[list[Any]], float], n_calls: int) -> OptimizeResult:
        """Sequential convenience loop: ask → evaluate → tell, n times."""
        if n_calls < 1:
            raise ValidationError("n_calls must be >= 1")
        for _ in range(n_calls):
            x = self.ask()
            self.tell(x, float(func(x)))
        return self.result()
