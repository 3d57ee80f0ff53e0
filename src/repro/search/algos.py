"""Search algorithms: how the next trial configuration is chosen."""

from __future__ import annotations

import abc
import itertools
from typing import Any, Optional

import numpy as np

from repro.bayesopt.optimizer import Optimizer
from repro.bayesopt.space import Space
from repro.errors import ValidationError

__all__ = [
    "SearchAlgorithm",
    "SurrogateSearch",
    "RandomSearch",
    "GridSearch",
    "ConcurrencyLimiter",
]


class SearchAlgorithm(abc.ABC):
    """Suggests configurations and learns from completed trials."""

    def __init__(self, space: Space, *, mode: str = "min") -> None:
        if mode not in ("min", "max"):
            raise ValidationError(f"mode must be 'min' or 'max', got {mode!r}")
        self.space = space
        self.mode = mode

    def _sign(self, value: float) -> float:
        """Internally everything minimizes; flip for mode='max'."""
        return value if self.mode == "min" else -value

    @abc.abstractmethod
    def suggest(self, trial_id: str) -> Optional[dict[str, Any]]:
        """Next configuration, or ``None`` when the algorithm is exhausted."""

    def suggest_batch(self, trial_ids: list[str]) -> list[dict[str, Any]]:
        """Up to ``len(trial_ids)`` configurations in one call.

        The returned list may be shorter when the algorithm is exhausted or
        concurrency-limited; it never contains ``None``. The default loops
        :meth:`suggest`; model-based searchers override it to amortize one
        surrogate fit across the whole batch.
        """
        out: list[dict[str, Any]] = []
        for trial_id in trial_ids:
            config = self.suggest(trial_id)
            if config is None:
                break
            out.append(config)
        return out

    @abc.abstractmethod
    def on_trial_complete(self, trial_id: str, config: dict[str, Any], value: float) -> None:
        """Feed back the objective value of a finished trial."""

    def on_trial_error(self, trial_id: str, config: dict[str, Any]) -> None:
        """Default: forget the pending suggestion (subclasses may override)."""

    # -- checkpoint / lifecycle hooks -------------------------------------------------

    def state_dict(self) -> Optional[dict[str, Any]]:
        """Checkpointable searcher internals, or ``None`` when stateless.

        Whatever this returns is stored verbatim in ``checkpoint.json`` and
        handed back to :meth:`load_state` on ``--resume`` *after* the
        finished trials have been replayed through
        :meth:`on_trial_complete`.
        """
        return None

    def load_state(self, state: dict[str, Any]) -> None:
        """Restore :meth:`state_dict` output (no-op for stateless searchers)."""

    def close(self) -> None:
        """Release background resources (refit worker threads); idempotent."""


class SurrogateSearch(SearchAlgorithm):
    """Model-based search wrapping :class:`repro.bayesopt.Optimizer`.

    The analogue of the paper's ``SkOptSearch(optimizer=Optimizer(...))``;
    pass either a pre-built optimizer or the optimizer's keyword arguments.

    ``batch_size`` > 1 prefetches suggestions: one ``ask(batch_size)``
    (a single surrogate fit) feeds that many ``suggest`` calls. The trial
    runner additionally asks for whole batches directly via
    :meth:`suggest_batch` to fill all free executor slots at once.
    """

    def __init__(
        self,
        space: Space,
        *,
        mode: str = "min",
        optimizer: Optimizer | None = None,
        batch_size: int = 1,
        **optimizer_kwargs: Any,
    ) -> None:
        super().__init__(space, mode=mode)
        if optimizer is not None and optimizer_kwargs:
            raise ValidationError("pass either optimizer or kwargs, not both")
        if batch_size < 1:
            raise ValidationError("batch_size must be >= 1")
        self.optimizer = optimizer or Optimizer(space, **optimizer_kwargs)
        if self.optimizer.space is not space:
            # Allow a pre-built optimizer but insist the spaces agree.
            if self.optimizer.space.names != space.names:
                raise ValidationError("optimizer space does not match search space")
        self.batch_size = int(batch_size)
        self._prefetched: list[dict[str, Any]] = []

    def suggest(self, trial_id: str) -> Optional[dict[str, Any]]:
        if self._prefetched:
            return self._prefetched.pop(0)
        if self.batch_size > 1:
            points = self.optimizer.ask(self.batch_size)
            self._prefetched = [self.space.to_dict(p) for p in points]
            return self._prefetched.pop(0)
        return self.space.to_dict(self.optimizer.ask())

    def suggest_batch(self, trial_ids: list[str]) -> list[dict[str, Any]]:
        out: list[dict[str, Any]] = []
        while self._prefetched and len(out) < len(trial_ids):
            out.append(self._prefetched.pop(0))
        need = len(trial_ids) - len(out)
        if need > 0:
            out.extend(self.space.to_dict(p) for p in self.optimizer.ask(need))
        return out

    def on_trial_complete(self, trial_id: str, config: dict[str, Any], value: float) -> None:
        point = [config[name] for name in self.space.names]
        self.optimizer.tell(point, self._sign(value))

    def state_dict(self) -> Optional[dict[str, Any]]:
        return {"optimizer": self.optimizer.export_state()}

    def load_state(self, state: dict[str, Any]) -> None:
        optimizer_state = state.get("optimizer")
        if optimizer_state:
            self.optimizer.restore_state(optimizer_state)

    def close(self) -> None:
        self.optimizer.close()


class RandomSearch(SearchAlgorithm):
    """Uniform random sampling of the space."""

    def __init__(self, space: Space, *, mode: str = "min", seed: int | None = None) -> None:
        super().__init__(space, mode=mode)
        self.rng = np.random.default_rng(seed)

    def suggest(self, trial_id: str) -> Optional[dict[str, Any]]:
        unit = self.rng.random(len(self.space))
        point = self.space.inverse_transform(unit[None, :])[0]
        return self.space.to_dict(point)

    def on_trial_complete(self, trial_id: str, config: dict[str, Any], value: float) -> None:
        pass  # memoryless


class GridSearch(SearchAlgorithm):
    """Exhaustive scan over explicit value lists per dimension."""

    def __init__(
        self,
        space: Space,
        values: dict[str, list[Any]],
        *,
        mode: str = "min",
    ) -> None:
        super().__init__(space, mode=mode)
        missing = set(space.names) - set(values)
        if missing:
            raise ValidationError(f"grid values missing for dimensions: {sorted(missing)}")
        axes = [values[name] for name in space.names]
        self._points = [
            dict(zip(space.names, combo)) for combo in itertools.product(*axes)
        ]
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._points)

    def suggest(self, trial_id: str) -> Optional[dict[str, Any]]:
        if self._cursor >= len(self._points):
            return None
        point = self._points[self._cursor]
        self._cursor += 1
        return dict(point)

    def on_trial_complete(self, trial_id: str, config: dict[str, Any], value: float) -> None:
        pass


class ConcurrencyLimiter(SearchAlgorithm):
    """Caps the number of outstanding suggestions (Listing 1 line 12).

    ``suggest`` returns ``None`` while ``max_concurrent`` suggestions are
    unresolved; the trial runner interprets ``None`` as "wait".
    """

    def __init__(self, searcher: SearchAlgorithm, max_concurrent: int) -> None:
        if max_concurrent < 1:
            raise ValidationError("max_concurrent must be >= 1")
        super().__init__(searcher.space, mode=searcher.mode)
        self.searcher = searcher
        self.max_concurrent = int(max_concurrent)
        self._outstanding: set[str] = set()

    def suggest(self, trial_id: str) -> Optional[dict[str, Any]]:
        if len(self._outstanding) >= self.max_concurrent:
            return None
        config = self.searcher.suggest(trial_id)
        if config is not None:
            self._outstanding.add(trial_id)
        return config

    def suggest_batch(self, trial_ids: list[str]) -> list[dict[str, Any]]:
        free = self.max_concurrent - len(self._outstanding)
        if free <= 0:
            return []
        ids = list(trial_ids)[:free]
        configs = self.searcher.suggest_batch(ids)
        self._outstanding.update(ids[: len(configs)])
        return configs

    def on_trial_complete(self, trial_id: str, config: dict[str, Any], value: float) -> None:
        self._outstanding.discard(trial_id)
        self.searcher.on_trial_complete(trial_id, config, value)

    def on_trial_error(self, trial_id: str, config: dict[str, Any]) -> None:
        self._outstanding.discard(trial_id)
        self.searcher.on_trial_error(trial_id, config)

    def state_dict(self) -> Optional[dict[str, Any]]:
        return self.searcher.state_dict()

    def load_state(self, state: dict[str, Any]) -> None:
        self.searcher.load_state(state)

    def close(self) -> None:
        self.searcher.close()
