"""Checkpointing: save and restore trained models.

Models are stored as a single ``.npz`` archive containing every parameter
array plus a JSON-encoded configuration, so a checkpoint is self-describing:
:func:`load_seqfm` rebuilds the exact architecture before loading the
weights.  Baselines (and arbitrary modules) can be round-tripped with the
weight-only helpers as long as the caller reconstructs the module first.
"""

from __future__ import annotations

import contextlib
import dataclasses
import json
import os
from pathlib import Path
from typing import IO, Iterator, Union

import numpy as np

from repro.core.config import SeqFMConfig
from repro.core.model import SeqFM
from repro.nn.module import Module

PathLike = Union[str, Path]

_CONFIG_KEY = "__seqfm_config_json__"


# --------------------------------------------------------------------------- #
# Atomic on-disk writes
# --------------------------------------------------------------------------- #
@contextlib.contextmanager
def atomic_write(path: PathLike, mode: str = "wb") -> Iterator[IO]:
    """Write ``path`` atomically: temp file → flush+fsync → rename.

    A crash at any point leaves either the previous contents or the complete
    new ones — never a torn file.  The temp file lives next to the target
    (``os.replace`` must not cross filesystems) and is removed on failure;
    after the rename the parent directory is fsynced so the new directory
    entry itself is durable.  All checkpoint, index and snapshot writers go
    through this helper.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp_path = path.parent / f".{path.name}.tmp.{os.getpid()}"
    try:
        with open(tmp_path, mode) as handle:
            yield handle
            handle.flush()
            os.fsync(handle.fileno())
        os.replace(tmp_path, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp_path)
        raise
    _fsync_directory(path.parent)


def _fsync_directory(directory: Path) -> None:
    """Make a directory entry durable (no-op where dirs cannot be opened)."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # e.g. Windows — rename durability is best-effort there
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write_text(path: PathLike, text: str) -> None:
    """Atomically replace ``path`` with ``text`` (UTF-8)."""
    with atomic_write(path, "w") as handle:
        handle.write(text)


# --------------------------------------------------------------------------- #
# Weight-only (module-agnostic) helpers
# --------------------------------------------------------------------------- #
def save_weights(module: Module, path: PathLike) -> None:
    """Save every parameter of ``module`` into a compressed ``.npz`` archive."""
    path = Path(path)
    state = module.state_dict()
    # savez appends ".npz" to bare paths, so hand it an open handle instead:
    # the archive lands in the temp file and is renamed into place whole.
    with atomic_write(path) as handle:
        np.savez_compressed(handle, **state)


def load_weights(module: Module, path: PathLike) -> None:
    """Load parameters saved with :func:`save_weights` into ``module``."""
    path = Path(path)
    with np.load(path) as archive:
        state = {name: archive[name] for name in archive.files if name != _CONFIG_KEY}
    module.load_state_dict(state)


# --------------------------------------------------------------------------- #
# Self-describing SeqFM checkpoints
# --------------------------------------------------------------------------- #
def save_seqfm(model: SeqFM, path: PathLike) -> None:
    """Save a SeqFM model together with its configuration."""
    path = Path(path)
    state = model.state_dict()
    config_json = json.dumps(dataclasses.asdict(model.config))
    state[_CONFIG_KEY] = np.frombuffer(config_json.encode("utf-8"), dtype=np.uint8)
    with atomic_write(path) as handle:
        np.savez_compressed(handle, **state)


def load_seqfm(path: PathLike) -> SeqFM:
    """Rebuild a SeqFM model from a checkpoint written by :func:`save_seqfm`."""
    path = Path(path)
    with np.load(path) as archive:
        if _CONFIG_KEY not in archive.files:
            raise ValueError(f"{path} is not a SeqFM checkpoint (missing embedded config)")
        config_json = bytes(archive[_CONFIG_KEY].tolist()).decode("utf-8")
        state = {name: archive[name] for name in archive.files if name != _CONFIG_KEY}
    config = SeqFMConfig(**json.loads(config_json))
    model = SeqFM(config)
    model.load_state_dict(state)
    return model
