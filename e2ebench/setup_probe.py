"""Import ``repro`` and build one workload's objects, then exit.

``run.py`` times this script in a fresh interpreter for ``setup_s``:

    python3 e2ebench/setup_probe.py <workload> <seed>
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent


def main(name: str, seed: int) -> None:
    sys.path.insert(0, str(BENCH_DIR.parent / "src"))
    import workloads

    workdir = Path(tempfile.mkdtemp(prefix="setup-", dir=BENCH_DIR / "work"))
    try:
        workloads.WORKLOADS[name].build(seed, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    main(sys.argv[1], int(sys.argv[2]))
