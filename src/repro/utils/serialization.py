"""JSON-based serialization with numpy support, used for provenance capture.

Phase III of the methodology archives the optimization definition, every
evaluated point, and intermediate models. All of those records flow through
:func:`to_jsonable` so archives are plain JSON — diff-able and re-loadable
without this library.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import json
import os
import tempfile
from pathlib import Path
from typing import Any

import numpy as np

__all__ = ["to_jsonable", "dump_json", "load_json", "canonical_config", "config_hash"]


def to_jsonable(obj: Any) -> Any:
    """Recursively convert ``obj`` into JSON-serializable primitives.

    Handles dataclasses, numpy scalars/arrays, paths, sets and mappings.
    Objects exposing ``to_dict()`` are converted through it.
    """
    if obj is None or isinstance(obj, (bool, int, float, str)):
        return obj
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return [to_jsonable(x) for x in obj.tolist()]
    if isinstance(obj, Path):
        return str(obj)
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: to_jsonable(getattr(obj, f.name)) for f in dataclasses.fields(obj)}
    if hasattr(obj, "to_dict") and callable(obj.to_dict):
        return to_jsonable(obj.to_dict())
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted(to_jsonable(x) for x in obj)
    raise TypeError(f"cannot serialize object of type {type(obj).__name__}")


def canonical_config(obj: Any) -> Any:
    """Normalize a configuration for identity comparison and hashing.

    Two configs that denote the same point must normalize identically even
    when their representations drifted — the failure mode PR 3's checkpoint
    replay hit: ints resurfacing as floats after a JSON round-trip, tuples
    becoming lists, keys reordered. Rules:

    - mappings → dicts with stringified keys, entries sorted by key;
    - lists/tuples/arrays → lists of normalized elements;
    - whole floats (``5.0``, numpy scalars) → ints, so ``5`` == ``5.0``;
    - everything else goes through :func:`to_jsonable`.
    """
    obj = to_jsonable(obj)

    def norm(value: Any) -> Any:
        if isinstance(value, bool):
            return value
        if isinstance(value, float):
            if value.is_integer():
                return int(value)
            return value
        if isinstance(value, dict):
            return {str(k): norm(v) for k, v in sorted(value.items(), key=lambda kv: str(kv[0]))}
        if isinstance(value, list):
            return [norm(v) for v in value]
        return value

    return norm(obj)


def config_hash(obj: Any, *extra: Any) -> str:
    """Stable content hash of a configuration (plus optional extras).

    The hash is over the canonical JSON encoding, so any two configs that
    :func:`canonical_config` maps to the same value share a hash — the
    identity used by the evaluation cache and checkpoint replay matching.
    """
    payload = canonical_config(obj if not extra else (obj, *extra))
    encoded = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(encoded.encode("utf-8")).hexdigest()


def dump_json(
    obj: Any, path: str | Path, *, indent: int | None = 2, atomic: bool = False
) -> Path:
    """Serialize ``obj`` to ``path`` as JSON; returns the path.

    With ``atomic=True`` the document is written to a temporary file in the
    *same directory* (same filesystem, so the rename cannot cross devices),
    fsync'd, then moved into place with :func:`os.replace`. A reader — or a
    process resuming after a crash mid-write — can then only ever observe
    the previous complete document or the new one, never a truncated JSON.
    Checkpoints (``checkpoint.json``) and perf profiles are written this way.
    ``indent=None`` writes one compact line through ``json``'s C encoder,
    which an indented document cannot use.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    text = json.dumps(to_jsonable(obj), indent=indent, sort_keys=True)
    if not atomic:
        path.write_text(text)
        return path
    fd, tmp_name = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_name, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_name)
        raise
    return path


def load_json(path: str | Path) -> Any:
    """Load JSON from ``path``."""
    return json.loads(Path(path).read_text())
