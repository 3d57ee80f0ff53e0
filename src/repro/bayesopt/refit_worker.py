"""Both ends of the child process that runs the optimizer's background refits.

A pure-Python surrogate fit holds the GIL. Run on a thread next to the ask
path, it stalls every ask that overlaps it: each numpy call of the ask
releases the GIL, and getting it back from a busy thread takes up to a
whole switch interval (5 ms). An ask makes such a call for every array
operation of its tree traversal over the candidate batch, so an ask that
overlapped a threaded refit waited for most of the refit (200-800 ms asks
against a ~40 ms norm in the campaign-throughput smoke benchmark). The
refits therefore run in a separate interpreter, which the parent feeds
over its standard streams:

- request: one pickled ``(model, X, y)`` per fit, ``model`` unfitted
  (:func:`encode_request`);
- reply: one pickled ``(fitted model, fit seconds)``, or ``(None, message)``
  when ``model.fit`` raised.

The child fits one request at a time and exits at end of input, so it dies
with its parent even when the parent never calls :meth:`RefitProcess.close`.
:class:`RefitProcess` starts the child as
``python -c "from repro.bayesopt.refit_worker import main; main()"``.
"""

from __future__ import annotations

import os
import pickle
import signal
import subprocess
import sys
import time
from typing import Any

import numpy as np

from repro.errors import OptimizationError, ValidationError

__all__ = ["RefitProcess", "encode_request"]


def encode_request(model: Any, X: np.ndarray, y: np.ndarray) -> bytes:
    """One refit request; the model must be picklable to reach the child."""
    try:
        return pickle.dumps((model, X, y), protocol=pickle.HIGHEST_PROTOCOL)
    except (pickle.PicklingError, AttributeError, TypeError) as exc:
        raise ValidationError(
            f"background_refit needs a picklable surrogate; "
            f"{type(model).__name__} is not: {exc}"
        ) from exc


class RefitProcess:
    """Parent-side handle of one refit child process (one fit at a time)."""

    def __init__(self) -> None:
        env = dict(os.environ)
        # The child imports the surrogate classes by name: give it the
        # parent's import path, wherever that came from.
        env["PYTHONPATH"] = os.pathsep.join(os.path.abspath(p) for p in sys.path)
        self._proc = subprocess.Popen(
            [sys.executable, "-c", "from repro.bayesopt.refit_worker import main; main()"],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=env,
        )

    def fit(self, request: bytes) -> tuple[Any, float]:
        """Run one encoded request in the child: ``(fitted model, seconds)``.

        Raises :class:`OptimizationError` when the fit itself failed (the
        child stays usable), and ``OSError`` or ``EOFError`` when the child
        is gone.
        """
        assert self._proc.stdin is not None and self._proc.stdout is not None
        self._proc.stdin.write(request)
        self._proc.stdin.flush()
        fitted, result = pickle.load(self._proc.stdout)
        if fitted is None:
            raise OptimizationError(f"background refit failed: {result}")
        return fitted, result

    def kill(self) -> None:
        """Stop the child now, interrupting a fit in progress (idempotent)."""
        self._proc.kill()

    def close(self) -> None:
        """Stop the child and release its pipes (idempotent)."""
        self._proc.kill()
        self._proc.wait()
        for stream in (self._proc.stdin, self._proc.stdout):
            if stream is not None:
                stream.close()


def main() -> None:
    # The parent owns the child's lifetime (end of input or kill): a Ctrl-C
    # aimed at the parent's process group must not kill a fit midway.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    requests = sys.stdin.buffer
    replies = sys.stdout.buffer
    sys.stdout = sys.stderr  # stray prints must not corrupt the reply stream
    while True:
        try:
            model, X, y = pickle.load(requests)
        except EOFError:
            return
        start = time.perf_counter()
        try:
            model.fit(X, y)
        except Exception as exc:  # noqa: BLE001 - reported to the parent
            reply: tuple[Any, Any] = (None, f"{type(exc).__name__}: {exc}")
        else:
            reply = (model, time.perf_counter() - start)
        try:
            replies.write(pickle.dumps(reply, protocol=pickle.HIGHEST_PROTOCOL))
            replies.flush()
        except BrokenPipeError:
            return  # the parent is gone
