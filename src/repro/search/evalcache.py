"""Content-addressed memoization of trial evaluations.

Populations (GA/PSO/DE) and batched-ask fallbacks over the discrete
Pl@ntNet space re-propose duplicate configurations constantly; each
re-simulation of a duplicate costs a full engine DES run for an answer the
campaign already has. The :class:`EvalCache` keys finished results by the
*canonical* configuration (via
:func:`repro.utils.serialization.config_hash`, so ``{"http": 80}`` and
``{"http": 80.0}`` collide as they should) plus a scenario fingerprint
covering everything else that determines the result — seeds, workload
duration, repetitions, model parameters.

Admission is strict: only cleanly terminated results enter. Fault-injected
attempts (any kind, including stragglers and link degradation), timed-out
or retried trials, and early-stopped trials are refused — a cache must
never replay a tainted measurement as a clean one.

Replicate-awareness: ``min_replicates=k`` serves hits only once a key has
``k`` stored evaluations, so noisy setups that deliberately re-measure a
configuration keep re-measuring until the quota is met. ``k=1`` (the
default) memoizes deterministic objectives; opting out entirely means not
attaching a cache.

Persistence is one JSONL line per stored result in the run directory, so
a resumed campaign starts warm and the cache contents are plain
provenance data.
"""

from __future__ import annotations

import json
import os
import threading
from pathlib import Path
from typing import Any, Mapping, Optional

from repro.errors import ValidationError
from repro.utils.serialization import canonical_config, config_hash

__all__ = ["EvalCache"]


class EvalCache:
    """Memoizes evaluation results by canonical config + scenario fingerprint."""

    def __init__(
        self,
        *,
        path: str | Path | None = None,
        fingerprint: Any = None,
        min_replicates: int = 1,
        fsync: bool = False,
    ) -> None:
        if int(min_replicates) < 1:
            raise ValidationError("min_replicates must be >= 1")
        self.min_replicates = int(min_replicates)
        self.fingerprint = canonical_config(fingerprint) if fingerprint is not None else None
        self.path = Path(path) if path is not None else None
        #: fsync every ledger append — cheap insurance when several hosts
        #: share the cache file over a network filesystem.
        self.fsync = bool(fsync)
        self._entries: dict[str, list[dict[str, float]]] = {}
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.rejected = 0
        self.corrupt = 0
        if self.path is not None and self.path.exists():
            self._load()

    # -- keys -----------------------------------------------------------------------

    def key(self, config: Mapping[str, Any]) -> str:
        """Content hash identifying one evaluation of ``config``."""
        return config_hash({"config": config, "fingerprint": self.fingerprint})

    # -- lookup / store ---------------------------------------------------------------

    def lookup(self, config: Mapping[str, Any]) -> Optional[dict[str, float]]:
        """A stored result for ``config``, or ``None`` (a miss).

        Hits are only served once the key holds at least
        ``min_replicates`` stored results; the first stored replicate is
        returned, so a deterministic objective replays byte-identically.
        """
        from repro.observability.trace import get_tracer

        with get_tracer().span("evalcache_lookup") as span:
            key = self.key(config)
            with self._lock:
                replicates = self._entries.get(key)
                if replicates is not None and len(replicates) >= self.min_replicates:
                    self.hits += 1
                    span.set("outcome", "hits")
                    return dict(replicates[0])
                self.misses += 1
                span.set("outcome", "misses")
                return None

    def store(
        self,
        config: Mapping[str, Any],
        result: Mapping[str, float],
        *,
        tainted: bool = False,
    ) -> bool:
        """Admit a finished result; refused (``False``) when ``tainted``.

        Callers pass ``tainted=True`` for anything that must never be
        replayed: fault-injected attempts, timeouts, retried trials,
        early-stopped partial scores.
        """
        if tainted:
            with self._lock:
                self.rejected += 1
            return False
        key = self.key(config)
        payload = {str(k): float(v) for k, v in result.items()}
        with self._lock:
            self._entries.setdefault(key, []).append(payload)
            self.stores += 1
            if self.path is not None:
                line = json.dumps(
                    {"key": key, "config": canonical_config(config), "result": payload},
                    sort_keys=True,
                )
                self._append_line(line)
        return True

    def _append_line(self, line: str) -> None:
        """One record = one ``write()`` on an ``O_APPEND`` descriptor.

        ``O_APPEND`` makes the kernel pick the offset atomically per write,
        so concurrent runners sharing one cache file (the distributed store
        backend's workers, or two campaigns over a shared cache) can never
        interleave bytes or tear each other's lines — the failure mode of
        buffered ``open("a")`` appends, where one logical record may flush
        as several writes.
        """
        assert self.path is not None
        self.path.parent.mkdir(parents=True, exist_ok=True)
        fd = os.open(self.path, os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644)
        try:
            os.write(fd, (line + "\n").encode("utf-8"))
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)

    # -- persistence ------------------------------------------------------------------

    def _load(self) -> None:
        assert self.path is not None
        for line in self.path.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
                key = record["key"]
                config = record["config"]
                result = {str(k): float(v) for k, v in record["result"].items()}
            except (json.JSONDecodeError, KeyError, TypeError, ValueError):
                # A torn tail line from a crashed run is not fatal.
                self.corrupt += 1
                continue
            if self.key(config) != key:
                # The config no longer re-hashes to the stored key: a
                # corrupted record, or an entry written under a different
                # scenario fingerprint — either way it must not be served.
                self.corrupt += 1
                continue
            self._entries.setdefault(key, []).append(result)

    # -- reporting --------------------------------------------------------------------

    def stats(self) -> dict[str, int]:
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "stores": self.stores,
                "rejected": self.rejected,
                "corrupt": self.corrupt,
                "entries": len(self._entries),
            }

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"EvalCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, min_replicates={self.min_replicates})"
        )
