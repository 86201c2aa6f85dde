"""Versioned checkpoints and the gated hot-swap (the ``model@vN`` lineage).

Promotion is the only step of the online loop that mutates shared state, so
it is deliberately small and ordered for crash safety:

1. the candidate is checkpointed as ``<name>@v<N>.npz`` (atomic write via
   :func:`repro.core.serialization.save_seqfm`);
2. the registry hot-swaps the weights in place with ``rebuild_index=True``,
   so the IVF/exact item index is re-snapshotted from the new weights in the
   same step — retrieval never serves stale vectors;
3. the interaction-log cursor advances (the consumed tail is now durable);
4. the manifest records the version.

A gate-rejected candidate records a ``rejected`` manifest entry for the
audit trail and touches **nothing** else — registry, index and cursor are
exactly as before, so the next retrain reconsiders the same events.

``MANIFEST_STATUSES`` is the manifest's status vocabulary;
:meth:`ModelLineage.record` rejects a :class:`ModelVersion` with any other
status.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Union

from repro.core.serialization import atomic_write_text, save_seqfm
from repro.core.tasks import TaskModel
from repro.online.gate import GateVerdict
from repro.online.log_reader import InteractionLogReader, LogTail

PathLike = Union[str, Path]

#: Every status a manifest entry may carry (``ModelLineage.record`` checks).
MANIFEST_STATUSES = (
    "promoted",   # passed the gate; checkpoint written, registry swapped
    "rejected",   # failed the gate; audit entry only, nothing else mutated
)

MANIFEST_NAME = "manifest.json"
_MANIFEST_FORMAT = 1


@dataclass(frozen=True)
class ModelVersion:
    """One manifest entry: what version N was and how it fared."""

    version: int
    status: str
    #: Checkpoint filename relative to the lineage directory; ``None`` for
    #: rejected candidates (their weights are discarded, not archived).
    checkpoint: Optional[str]
    #: WAL sequence the training tail ended at.
    cursor_seq: int
    #: The promoted version this candidate warm-started from (0: the
    #: offline-trained seed checkpoint).
    parent: int
    gate: dict
    examples: int

    def as_dict(self) -> dict:
        return {
            "version": int(self.version),
            "status": self.status,
            "checkpoint": self.checkpoint,
            "cursor_seq": int(self.cursor_seq),
            "parent": int(self.parent),
            "gate": self.gate,
            "examples": int(self.examples),
        }

    @staticmethod
    def from_dict(doc: dict) -> "ModelVersion":
        return ModelVersion(
            version=int(doc["version"]),
            status=str(doc["status"]),
            checkpoint=doc.get("checkpoint"),
            cursor_seq=int(doc.get("cursor_seq", 0)),
            parent=int(doc.get("parent", 0)),
            gate=dict(doc.get("gate", {})),
            examples=int(doc.get("examples", 0)),
        )


class ModelLineage:
    """The ``manifest.json`` ledger of a model's online versions.

    Versions count from 1 and never reuse a number; ``active`` is the most
    recent *promoted* entry (rejected candidates consume a version number —
    the audit trail records every attempt).  All writes are atomic.
    """

    def __init__(self, directory: PathLike, name: Optional[str] = None):
        self.directory = Path(directory)
        self.manifest_path = self.directory / MANIFEST_NAME
        self._versions: List[ModelVersion] = []
        if self.manifest_path.exists():
            doc = json.loads(self.manifest_path.read_text())
            if doc.get("format") != _MANIFEST_FORMAT:
                raise ValueError(
                    f"{self.manifest_path} has manifest format "
                    f"{doc.get('format')!r}; this build reads {_MANIFEST_FORMAT}"
                )
            self._versions = [ModelVersion.from_dict(entry)
                              for entry in doc.get("versions", [])]
            # The manifest remembers its model; an explicit name wins.
            name = name if name is not None else doc.get("model")
        self.name = name if name is not None else "model"

    # -- queries ---------------------------------------------------------- #
    def __len__(self) -> int:
        return len(self._versions)

    @property
    def versions(self) -> List[ModelVersion]:
        return list(self._versions)

    @property
    def active(self) -> Optional[ModelVersion]:
        """The most recent promoted version (what serving should hold)."""
        for version in reversed(self._versions):
            if version.status == "promoted":
                return version
        return None

    def next_version(self) -> int:
        return (max(version.version for version in self._versions) + 1
                if self._versions else 1)

    def tag(self, version: int) -> str:
        return f"{self.name}@v{version}"

    def checkpoint_path(self, version: int) -> Path:
        return self.directory / f"{self.tag(version)}.npz"

    def status_payload(self) -> dict:
        """The ``retrain`` block of the ``status`` head."""
        active = self.active
        last = self._versions[-1] if self._versions else None
        return {
            "versions": len(self._versions),
            "promoted": sum(1 for version in self._versions
                            if version.status == "promoted"),
            "rejected": sum(1 for version in self._versions
                            if version.status == "rejected"),
            "active": self.tag(active.version) if active else None,
            "cursor_seq": active.cursor_seq if active else 0,
            "last": last.as_dict() if last else None,
        }

    # -- mutation --------------------------------------------------------- #
    def record(self, version: ModelVersion) -> ModelVersion:
        if version.status not in MANIFEST_STATUSES:
            raise ValueError(
                f"manifest status {version.status!r} is not in "
                f"MANIFEST_STATUSES {MANIFEST_STATUSES}"
            )
        if any(existing.version == version.version
               for existing in self._versions):
            raise ValueError(f"version {version.version} is already recorded")
        self._versions.append(version)
        self.directory.mkdir(parents=True, exist_ok=True)
        atomic_write_text(
            self.manifest_path,
            json.dumps({
                "format": _MANIFEST_FORMAT,
                "model": self.name,
                "versions": [entry.as_dict() for entry in self._versions],
            }, separators=(",", ":"), sort_keys=True))
        return version


class PromotionPipeline:
    """Apply a gate verdict to the registry, the index and the cursor."""

    def __init__(self, registry, name: str, lineage: ModelLineage,
                 reader: InteractionLogReader):
        self.registry = registry
        self.name = name
        self.lineage = lineage
        self.reader = reader

    def _parent(self) -> int:
        active = self.lineage.active
        return active.version if active else 0

    def promote(self, candidate: TaskModel, verdict: GateVerdict,
                tail: LogTail, examples: int) -> ModelVersion:
        """Checkpoint → hot-swap (index rebuilt) → advance cursor → record."""
        if not verdict.passed:
            raise ValueError("refusing to promote a candidate whose gate "
                             "verdict failed; use reject()")
        number = self.lineage.next_version()
        self.lineage.directory.mkdir(parents=True, exist_ok=True)
        path = self.lineage.checkpoint_path(number)
        save_seqfm(candidate.scorer, path)
        try:
            entry = self.registry.load(self.name, path, rebuild_index=True)
        except BaseException:
            path.unlink()  # a refused candidate leaves no unrecorded checkpoint
            raise
        self.reader.advance(tail.cursor)
        version = self.lineage.record(ModelVersion(
            version=number,
            status="promoted",
            checkpoint=path.name,
            cursor_seq=tail.cursor.seq,
            parent=self._parent(),
            gate=verdict.as_dict(),
            examples=examples,
        ))
        entry.lineage = self.lineage
        return version

    def reject(self, verdict: GateVerdict, tail: LogTail,
               examples: int) -> ModelVersion:
        """Record the failed attempt; registry, index and cursor untouched."""
        entry = self.registry.get(self.name)
        version = self.lineage.record(ModelVersion(
            version=self.lineage.next_version(),
            status="rejected",
            checkpoint=None,
            cursor_seq=tail.start.seq,
            parent=self._parent(),
            gate=verdict.as_dict(),
            examples=examples,
        ))
        entry.lineage = self.lineage
        return version
