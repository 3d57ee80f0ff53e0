"""Import budget: the default path never loads SciPy's heavy subpackages, networkx,
or the live telemetry plane's HTTP stack.

Every deployment (the CLI, each store worker, the background-refit child)
starts a fresh interpreter, so what the default import path and a default
campaign load is paid on every cold start. Each check runs in a fresh
interpreter and lists which heavy modules ended up in ``sys.modules``.

The default path needs ``scipy.special`` (``ndtr``/``ndtri``), so whatever a
bare ``import scipy.special`` loads is part of its floor: SciPy before 1.17
imports ``scipy.linalg`` from ``scipy.special`` at module level, later
versions do not. The budget is what the default path loads beyond that.

The live monitor (``repro.observability.live``) and the ``http.server`` /
``urllib.request`` modules it needs load only when a campaign serves or
``python -m repro monitor`` reads a live campaign.
"""

import functools
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = (
    "scipy.stats",
    "scipy.optimize",
    "scipy.linalg",
    "networkx",
    "repro.observability.live",
    "http.server",
    "urllib.request",
)


def loaded_heavy_modules(code: str, cwd: Path) -> list[str]:
    """Run ``code`` in a fresh interpreter; the HEAVY modules it left loaded."""
    probe = textwrap.dedent(code) + textwrap.dedent(
        f"""
        import json, sys
        print(json.dumps([m for m in {HEAVY!r} if m in sys.modules]))
        """
    )
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-c", probe],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
        timeout=240,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return json.loads(result.stdout.splitlines()[-1])


@functools.cache
def scipy_special_floor() -> frozenset[str]:
    """The HEAVY modules a bare ``import scipy.special`` loads on this SciPy."""
    return frozenset(loaded_heavy_modules("import scipy.special", Path.cwd()))


def heavy_beyond_floor(code: str, cwd: Path) -> list[str]:
    """The HEAVY modules ``code`` loads that ``scipy.special`` does not load itself."""
    return [m for m in loaded_heavy_modules(code, cwd) if m not in scipy_special_floor()]


@pytest.mark.parametrize(
    "module",
    ["repro.plantnet", "repro.cli", "repro.search.worker", "repro.bayesopt.refit_worker"],
)
def test_entry_point_imports_stay_light(module, tmp_path):
    assert heavy_beyond_floor(f"import {module}", tmp_path) == []


def test_default_campaign_and_hybrid_run_stay_light(tmp_path):
    code = """
        from repro.engine import BASELINE_CONFIG, HybridEngine, HybridKnobs, WorkloadSpec
        from repro.optimizer.summary import ReproducibilitySummary
        from repro.plantnet import PlantNetOptimization, UserGrowthModel

        optimization = PlantNetOptimization(
            simultaneous_requests=20, duration=90.0, warmup=30.0,
            n_initial_points=2, num_samples=4, executor="sync", workdir="work", seed=0,
        )
        summary = optimization.run()
        assert isinstance(summary, ReproducibilitySummary)
        assert len(summary.evaluations) == 4

        schedule = UserGrowthModel().arrival_schedule(
            users=20000, requests_per_user_per_day=2.0, diurnal_ratio=3.0
        )
        workload = WorkloadSpec(arrival_schedule=schedule, duration=86400.0, warmup=0.0)
        result = HybridEngine(
            BASELINE_CONFIG, workload, knobs=HybridKnobs(error_bound=0.05), seed=1
        ).run()
        assert result.completed_requests > 0
    """
    assert heavy_beyond_floor(code, tmp_path) == []


def test_gp_fit_loads_scipy_lazily(tmp_path):
    lazy = [m for m in ("scipy.optimize", "scipy.linalg") if m not in scipy_special_floor()]
    code = f"""
        import sys

        import numpy as np
        from repro.surrogate.gp import GaussianProcessRegressor

        assert not [m for m in {lazy!r} if m in sys.modules]
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 2))
        gp = GaussianProcessRegressor(n_restarts=1, random_state=0).fit(X, X.sum(axis=1))
        mean, std = gp.predict(X[:3], return_std=True)
        assert mean.shape == std.shape == (3,)
    """
    assert loaded_heavy_modules(code, tmp_path) == ["scipy.optimize", "scipy.linalg"]
