"""On-disk experiment archives (the ``prepare()``/``finalize()`` backend)."""

from __future__ import annotations

import json
import warnings
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from repro.errors import ValidationError
from repro.experiments.manifest import ExperimentManifest
from repro.utils.serialization import dump_json, load_json

__all__ = ["EvaluationRecord", "ExperimentArchive"]


@dataclass
class EvaluationRecord:
    """One model evaluation: configuration in, metrics out, plus context."""

    index: int
    configuration: dict[str, Any]
    metrics: dict[str, Any] = field(default_factory=dict)
    #: deployment manifest captured by ``launch()`` (nodes, constraints).
    deployment: list[dict[str, Any]] = field(default_factory=list)
    seed: int | None = None

    def to_dict(self) -> dict[str, Any]:
        return {
            "index": self.index,
            "configuration": self.configuration,
            "metrics": self.metrics,
            "deployment": self.deployment,
            "seed": self.seed,
        }


class ExperimentArchive:
    """Directory-per-evaluation archive with a manifest and a summary."""

    def __init__(self, root: str | Path, manifest: ExperimentManifest) -> None:
        self.root = Path(root) / manifest.name
        self.manifest = manifest
        self._eval_counter = 0
        self.root.mkdir(parents=True, exist_ok=True)
        dump_json(manifest.to_dict(), self.root / "manifest.json")

    # -- per-evaluation directories ("prepare") --------------------------------------

    def new_evaluation_dir(self) -> Path:
        """Create ``optimization-<k>/`` for the next evaluation."""
        self._eval_counter += 1
        path = self.root / f"optimization-{self._eval_counter}"
        path.mkdir(parents=True, exist_ok=False)
        return path

    @property
    def evaluation_count(self) -> int:
        return self._eval_counter

    # -- records ("finalize") ----------------------------------------------------------

    def store_evaluation(self, record: EvaluationRecord, directory: Path | None = None) -> Path:
        """Persist one evaluation record into its directory."""
        if directory is None:
            directory = self.root / f"optimization-{record.index}"
            if not directory.exists():
                raise ValidationError(
                    f"evaluation directory {directory} does not exist; "
                    "call new_evaluation_dir() first"
                )
        return dump_json(record.to_dict(), directory / "evaluation.json")

    def store_summary(self, summary: dict[str, Any]) -> Path:
        """Persist the Phase III summary at the archive root."""
        return dump_json(summary, self.root / "summary.json")

    # -- campaign checkpoints (fault-tolerant resume) ----------------------------------

    def store_checkpoint(
        self,
        records: list[dict[str, Any]],
        watchdog_state: dict[str, Any] | None = None,
        searcher_state: dict[str, Any] | None = None,
    ) -> Path:
        """Persist the finished-trial state for ``--resume``.

        The full list is rewritten each time (trial records are small JSON
        dicts), compact so ``json``'s C encoder serializes it, through an
        atomic temp-file + ``os.replace`` write, so a
        crash — even a SIGKILL — mid-checkpoint leaves either the previous
        complete state or the new one on disk, never a truncated JSON.
        When a live watchdog is armed, its control state (fired alert keys,
        counts) rides along under ``"watchdog"`` so a resumed campaign does
        not re-fire alerts the crashed one already raised. Likewise the
        searcher's internal state (surrogate refit cadence, hedge gains)
        rides along under ``"searcher"`` so a resumed campaign neither
        refit-storms nor serves a stale model.
        """
        payload: dict[str, Any] = {"trials": records}
        if watchdog_state is not None:
            payload["watchdog"] = watchdog_state
        if searcher_state is not None:
            payload["searcher"] = searcher_state
        return dump_json(payload, self.root / "checkpoint.json", indent=None, atomic=True)

    def _read_checkpoint(self) -> dict[str, Any] | None:
        """The checkpoint document, or ``None`` when missing or unreadable.

        A corrupt/truncated ``checkpoint.json`` (written by a pre-atomic
        version, or mangled by the filesystem) must degrade a resume, not
        crash it — the caller warns and falls back to the trial ledger.
        """
        path = self.root / "checkpoint.json"
        if not path.exists():
            return None
        try:
            data = load_json(path)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            warnings.warn(
                f"checkpoint {path} is unreadable ({exc}); resuming from the "
                "trial ledger instead",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        if not isinstance(data, dict):
            warnings.warn(
                f"checkpoint {path} holds {type(data).__name__}, expected an "
                "object; resuming from the trial ledger instead",
                RuntimeWarning,
                stacklevel=3,
            )
            return None
        return data

    def load_checkpoint(self) -> list[dict[str, Any]]:
        """Finished-trial records from the last checkpoint (empty if none).

        When the checkpoint is corrupt, falls back to the per-trial JSONL
        ledger the runner appends next to the artifacts (one ``to_dict``
        line per finished trial) — a cold start only when neither exists.
        """
        data = self._read_checkpoint()
        if data is not None:
            return list(data.get("trials", []))
        if (self.root / "checkpoint.json").exists():
            return self._ledgered_trials()
        return []

    def _ledgered_trials(self) -> list[dict[str, Any]]:
        """Recover finished-trial records from ``<name>.jsonl`` (best effort).

        Torn lines are skipped; duplicate trial ids keep the latest record.
        """
        ledger = self.root / f"{self.manifest.name}.jsonl"
        if not ledger.exists():
            return []
        records: dict[str, dict[str, Any]] = {}
        for line in ledger.read_text().splitlines():
            line = line.strip()
            if not line:
                continue
            try:
                record = json.loads(line)
            except json.JSONDecodeError:
                continue  # torn tail line from a crashed writer
            if isinstance(record, dict) and "trial_id" in record and "config" in record:
                records[str(record["trial_id"])] = record
        return list(records.values())

    def load_watchdog_state(self) -> dict[str, Any] | None:
        """The checkpointed watchdog control state, if any.

        Corrupt checkpoints yield ``None`` (a cold watchdog start) rather
        than raising — alert dedupe state is not worth failing a resume.
        """
        data = self._read_checkpoint()
        if data is None:
            return None
        state = data.get("watchdog")
        return dict(state) if isinstance(state, dict) else None

    def load_searcher_state(self) -> dict[str, Any] | None:
        """The checkpointed searcher state (refit cadence, hedge gains), if any.

        Corrupt or pre-upgrade checkpoints yield ``None`` — the searcher
        then recomputes its cadence from the replayed tells alone.
        """
        data = self._read_checkpoint()
        if data is None:
            return None
        state = data.get("searcher")
        return dict(state) if isinstance(state, dict) else None

    # -- packing ("E2Clab provides an archive of the generated data") ------------------

    def pack(self, destination: str | Path | None = None) -> Path:
        """Bundle the whole experiment directory into a ``.tar.gz``.

        This is the artifact the paper shares for reproducibility (its
        Sec. V-A / reference [45]); hand the file to another researcher and
        ``ExperimentArchive.unpack`` restores the exact directory tree.
        """
        import tarfile

        destination = (
            Path(destination)
            if destination is not None
            else self.root.parent / f"{self.root.name}.tar.gz"
        )
        destination.parent.mkdir(parents=True, exist_ok=True)
        with tarfile.open(destination, "w:gz") as tar:
            tar.add(self.root, arcname=self.root.name)
        return destination

    @classmethod
    def unpack(cls, archive_path: str | Path, destination: str | Path) -> "ExperimentArchive":
        """Restore a packed experiment and open it."""
        import tarfile

        destination = Path(destination)
        destination.mkdir(parents=True, exist_ok=True)
        with tarfile.open(archive_path, "r:gz") as tar:
            tar.extractall(destination)  # noqa: S202 - trusted local artifact
            names = {member.name.split("/")[0] for member in tar.getmembers()}
        if len(names) != 1:
            raise ValidationError(f"archive holds {len(names)} top-level entries, expected 1")
        return cls.open(destination, names.pop())

    # -- reading back ---------------------------------------------------------------------

    def load_summary(self) -> dict[str, Any]:
        return load_json(self.root / "summary.json")

    def load_evaluations(self) -> list[dict[str, Any]]:
        """All evaluation records, in index order."""
        records = []
        for path in sorted(
            self.root.glob("optimization-*/evaluation.json"),
            key=lambda p: int(p.parent.name.split("-")[1]),
        ):
            records.append(load_json(path))
        return records

    @classmethod
    def open(cls, root: str | Path, name: str) -> "ExperimentArchive":
        """Re-open an existing archive (e.g. for ``--repeat`` replays)."""
        path = Path(root) / name
        if not (path / "manifest.json").exists():
            raise ValidationError(f"no archive manifest under {path}")
        data = load_json(path / "manifest.json")
        manifest = ExperimentManifest(
            name=data["name"],
            description=data.get("description", ""),
            seed=data.get("seed"),
            parameters=data.get("parameters", {}),
            created_at=data.get("created_at", 0.0),
            environment=data.get("environment", {}),
        )
        archive = cls.__new__(cls)
        archive.root = path
        archive.manifest = manifest
        existing = [
            int(p.name.split("-")[1]) for p in path.glob("optimization-*") if p.is_dir()
        ]
        archive._eval_counter = max(existing, default=0)
        return archive
