"""Import budget: the default path never loads a SciPy subpackage, networkx, or
the live telemetry plane's HTTP stack.

Every deployment (the CLI, each store worker, the background-refit child)
starts a fresh interpreter, so what the default import path and a default
campaign load is paid on every cold start. Each check runs in a fresh
interpreter and lists which heavy modules ended up in ``sys.modules``.

EI/PI evaluate the Gaussian cdf with a numpy port of Cephes ``ndtr``, so
``scipy.special`` is heavy like the rest: SciPy loads only for a GP fit
(``scipy.linalg``/``scipy.optimize``) or ``confidence_interval`` (``ndtri``).

The live monitor (``repro.observability.live``) and the ``http.server`` /
``urllib.request`` modules it needs load only when a campaign serves or
``python -m repro monitor`` reads a live campaign.
"""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
HEAVY = (
    "scipy.special",
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


@pytest.mark.parametrize(
    "module",
    ["repro.plantnet", "repro.cli", "repro.search.worker", "repro.bayesopt.refit_worker"],
)
def test_entry_point_imports_stay_light(module, tmp_path):
    assert loaded_heavy_modules(f"import {module}", tmp_path) == []


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
    assert loaded_heavy_modules(code, tmp_path) == []


def test_gp_fit_loads_scipy_lazily(tmp_path):
    code = """
        import sys

        import numpy as np
        from repro.surrogate.gp import GaussianProcessRegressor

        assert not [m for m in sys.modules if m.startswith("scipy.")]
        rng = np.random.default_rng(0)
        X = rng.uniform(size=(12, 2))
        gp = GaussianProcessRegressor(n_restarts=1, random_state=0).fit(X, X.sum(axis=1))
        mean, std = gp.predict(X[:3], return_std=True)
        assert mean.shape == std.shape == (3,)
    """
    assert loaded_heavy_modules(code, tmp_path) == [
        "scipy.special",
        "scipy.optimize",
        "scipy.linalg",
    ]
