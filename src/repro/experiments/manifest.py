"""Experiment manifests: who/what/how, captured once per experiment."""

from __future__ import annotations

import platform
import sys
import time
from dataclasses import dataclass, field
from typing import Any

from repro.version import __version__

__all__ = ["environment_info", "ExperimentManifest"]


def environment_info() -> dict[str, str]:
    """Software environment snapshot (Phase III provenance)."""
    import numpy
    import scipy

    return {
        "repro": __version__,
        "python": sys.version.split()[0],
        "platform": platform.platform(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


@dataclass
class ExperimentManifest:
    """Experiment-level provenance record."""

    name: str
    description: str = ""
    seed: int | None = None
    #: free-form experiment parameters (workload, durations, bounds, ...).
    parameters: dict[str, Any] = field(default_factory=dict)
    created_at: float = field(default_factory=time.time)
    environment: dict[str, str] = field(default_factory=environment_info)

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "description": self.description,
            "seed": self.seed,
            "parameters": self.parameters,
            "created_at": self.created_at,
            "environment": dict(self.environment),
        }
