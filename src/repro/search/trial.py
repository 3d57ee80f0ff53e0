"""Trials: one objective evaluation each, with intermediate reporting."""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable, Optional

__all__ = ["TrialStatus", "Trial", "Reporter", "StopTrial"]


class TrialStatus(str, enum.Enum):
    PENDING = "pending"
    RUNNING = "running"
    TERMINATED = "terminated"
    STOPPED = "stopped"  # early-stopped by a scheduler
    ERROR = "error"


class StopTrial(Exception):
    """Raised inside a trainable when the scheduler stops the trial."""


@dataclass
class Trial:
    """One configuration under evaluation."""

    trial_id: str
    config: dict[str, Any]
    status: TrialStatus = TrialStatus.PENDING
    #: final metrics (includes the objective metric).
    result: dict[str, float] = field(default_factory=dict)
    #: (step, metric value) intermediate reports.
    intermediate: list[tuple[int, float]] = field(default_factory=list)
    error: Optional[str] = None
    runtime_s: float = 0.0
    #: cycle-cost attribution filled by the runner: ``suggest_s`` /
    #: ``evaluate_s`` / ``tell_s`` seconds (see repro.observability.profile).
    cost: dict[str, float] = field(default_factory=dict)

    @property
    def last_step(self) -> int:
        return self.intermediate[-1][0] if self.intermediate else 0

    def metric_value(self, metric: str) -> float:
        try:
            return self.result[metric]
        except KeyError:
            raise KeyError(
                f"trial {self.trial_id} reported no metric {metric!r}; "
                f"has: {sorted(self.result)}"
            ) from None

    def to_dict(self) -> dict[str, Any]:
        return {
            "trial_id": self.trial_id,
            "config": dict(self.config),
            "status": self.status.value,
            "result": dict(self.result),
            "intermediate": list(self.intermediate),
            "error": self.error,
            "runtime_s": self.runtime_s,
            "cost": dict(self.cost),
        }

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "Trial":
        """Rebuild a trial from its :meth:`to_dict` form (checkpoint resume)."""
        return cls(
            trial_id=str(data["trial_id"]),
            config=dict(data["config"]),
            status=TrialStatus(data.get("status", "pending")),
            result={k: float(v) for k, v in data.get("result", {}).items()},
            intermediate=[(int(s), float(v)) for s, v in data.get("intermediate", [])],
            error=data.get("error"),
            runtime_s=float(data.get("runtime_s", 0.0)),
            cost={k: float(v) for k, v in data.get("cost", {}).items()},
        )


class Reporter:
    """Handed to trainables for intermediate metric reporting.

    Calling :meth:`report` records the value and consults the scheduler;
    if the scheduler decides to stop the trial, :class:`StopTrial` is
    raised inside the trainable — catch-free propagation ends the trial
    cleanly with its last reported value.
    """

    def __init__(self, trial: Trial, on_report: Callable[[Trial, int, float], bool]) -> None:
        self._trial = trial
        self._on_report = on_report
        self._step = 0

    def report(self, value: float, step: int | None = None) -> None:
        """Report an intermediate objective value; may raise StopTrial."""
        self._step = self._step + 1 if step is None else int(step)
        self._trial.intermediate.append((self._step, float(value)))
        if not self._on_report(self._trial, self._step, float(value)):
            raise StopTrial()
