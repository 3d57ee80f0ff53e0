"""Shared infrastructure for the benchmark harness.

Every benchmark regenerates one table or figure of the paper and prints a
*paper vs measured* report (run with ``pytest benchmarks/ --benchmark-only
-s`` to see them). Results are also dumped as JSON under
``benchmarks/results/`` so EXPERIMENTS.md can be refreshed from them; the
benchmarks the CI perf gate diffs also save an ``ops`` block of raw
samples (:func:`save_bench`).

Scale: by default experiments run at a reduced duration/repetition count
(the shapes are stable well below the paper's 7 × 23 min protocol). Set
``REPRO_PAPER_SCALE=full`` to use the paper's exact protocol.

Seed: the shared scenarios draw every repetition from ``REPRO_BENCH_SEED``
(default 2021), so the paper-shape assertions can be re-run at other seeds,
e.g. ``REPRO_BENCH_SEED=7 pytest benchmarks/test_fig3_*.py``.
"""

from __future__ import annotations

import os
from pathlib import Path

import pytest

from repro.plantnet import PlantNetScenario
from repro.utils.serialization import dump_json

RESULTS_DIR = Path(__file__).parent / "results"

FULL_SCALE = os.environ.get("REPRO_PAPER_SCALE", "").lower() == "full"
#: base seed of the shared scenarios.
SEED = int(os.environ.get("REPRO_BENCH_SEED", "2021"))

#: per-evaluation measurement protocol.
DURATION = 1380.0 if FULL_SCALE else 345.0
WARMUP = 60.0
REPETITIONS = 7 if FULL_SCALE else 3
SWEEP_REPETITIONS = 7 if FULL_SCALE else 1


@pytest.fixture(scope="session")
def scenario() -> PlantNetScenario:
    """The shared Grid'5000 Pl@ntNet scenario at benchmark scale."""
    return PlantNetScenario(
        duration=DURATION,
        warmup=WARMUP,
        repetitions=REPETITIONS,
        base_seed=SEED,
    )


@pytest.fixture(scope="session")
def sweep_scenario() -> PlantNetScenario:
    """Lighter scenario for many-point sweeps (OAT, workload curves)."""
    return PlantNetScenario(
        duration=DURATION,
        warmup=WARMUP,
        repetitions=SWEEP_REPETITIONS,
        base_seed=SEED,
    )


def save_results(name: str, payload: dict) -> None:
    """Persist a benchmark's rows for EXPERIMENTS.md."""
    dump_json(payload, RESULTS_DIR / f"{name}.json")


def save_bench(name: str, payload: dict, ops: dict[str, list[float]]) -> None:
    """Persist a gated benchmark's payload plus its ``ops`` block.

    ``ops`` maps an op name to raw samples in seconds per unit of work
    (one per trial, repeat or window; a whole-run cost is saved as the
    one sample ``wall / units``). The block has the shape ``e2ebench/``
    records use, ``{op: {"unit": "s", "count": n, "samples": [...]}}``,
    which is the only shape ``python -m repro perf diff`` reads.
    """
    payload["ops"] = {
        op: {"unit": "s", "count": len(samples), "samples": [float(v) for v in samples]}
        for op, samples in ops.items()
    }
    save_results(name, payload)


def print_table(table) -> None:
    print()
    print(table.render())
