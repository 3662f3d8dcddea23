"""Atomic, versioned checkpoints of complete run state.

A checkpoint is a directory ``ckpt-<tick>`` under a run-specific
checkpoint root.  It is produced atomically: payload files (ndarray
``.npz`` bundles and pickled control objects) are first written into a
deterministic staging directory ``tmp-<tick>``, then a
``manifest.json`` recording the format version, the run fingerprint
and a SHA-256 digest of every payload file is written and fsynced,
and finally the staging directory is renamed into place.  A reader
therefore never observes a partially written checkpoint: either the
``ckpt-<tick>`` directory exists with a verifiable manifest, or it
does not exist at all.

The deterministic staging name is part of the fleet cut protocol: the
tick loop creates ``tmp-<tick>`` before stepping the server slices,
every slice then writes its own snapshot into the same staging
directory (a forked worker finds it from the cut tick announced
through shared memory), and the loop seals the manifest only after
every slice has stepped — so a committed checkpoint always contains
every slice's state for the same tick.

The *fingerprint* embedded in the manifest pins the run topology
(backend, server count, step grid, seed, scheduler/controller names,
shard layout, spill grid) and, under ``code``, the digest of the
``repro`` source that wrote it (:func:`code_digest`).  Resuming
validates the fingerprint before restoring any state, so a checkpoint
can never be silently applied to a different run, or resumed by other
code than the code that wrote its trace rows and pickles.
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import pickle
import re
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

import numpy as np

#: Bump when the manifest layout changes incompatibly.  A change to the
#: code that writes the payload (a controller's attributes, a trace
#: rule) is caught by the fingerprint's ``code`` digest instead.
CHECKPOINT_FORMAT_VERSION = 2

#: BSD ``sysexits.h`` EX_TEMPFAIL: the run was interrupted but a
#: checkpoint was written — re-invoking with ``--resume`` will finish it.
EX_TEMPFAIL = 75

_MANIFEST_NAME = "manifest.json"
_CKPT_RE = re.compile(r"^ckpt-(\d+)$")
_DIGEST_CHUNK = 1 << 20


class CheckpointError(RuntimeError):
    """A checkpoint could not be written, read or verified."""


class RunInterrupted(RuntimeError):
    """A run stopped cooperatively before completing all its ticks.

    ``checkpoint_path`` is the last committed checkpoint when one was
    written (the run is resumable), else ``None``.
    """

    def __init__(
        self, message: str, checkpoint_path: Optional[Path] = None
    ) -> None:
        super().__init__(message)
        self.checkpoint_path = checkpoint_path


@dataclass(frozen=True)
class CheckpointConfig:
    """Where and how often to checkpoint, plus the restart budget."""

    #: Checkpoint root directory (created on first write).
    directory: Union[str, Path]
    #: Simulated seconds between checkpoints.
    every_s: float = 300.0
    #: Committed checkpoints retained (older ones are pruned).
    keep: int = 2
    #: Supervisor restarts allowed per sharded run before giving up.
    max_restarts: int = 2
    #: Base supervisor backoff; doubles on each successive restart.
    restart_backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if not float(self.every_s) > 0.0:
            raise ValueError("checkpoint every_s must be positive")
        if int(self.keep) < 1:
            raise ValueError("checkpoint keep must be at least 1")
        if int(self.max_restarts) < 0:
            raise ValueError("max_restarts must be non-negative")
        if float(self.restart_backoff_s) < 0.0:
            raise ValueError("restart_backoff_s must be non-negative")

    @property
    def root(self) -> Path:
        """The checkpoint root directory as a :class:`~pathlib.Path`."""
        return Path(self.directory)

    def every_ticks(self, dt_s: float) -> int:
        """Checkpoint cadence on the tick grid (at least one tick)."""
        return max(1, int(round(float(self.every_s) / float(dt_s))))


# ----------------------------------------------------------------------
# directory naming
# ----------------------------------------------------------------------
def checkpoint_dir_for_tick(root: Union[str, Path], tick: int) -> Path:
    """Committed checkpoint directory for ``tick`` completed ticks."""
    return Path(root) / f"ckpt-{int(tick):012d}"


def staging_dir_for_tick(root: Union[str, Path], tick: int) -> Path:
    """Deterministic staging directory shared by all writers of a cut."""
    return Path(root) / f"tmp-{int(tick):012d}"


def _tick_of(path: Path) -> Optional[int]:
    match = _CKPT_RE.match(path.name)
    return int(match.group(1)) if match else None


# ----------------------------------------------------------------------
# payload helpers (used directly by fleet slices)
# ----------------------------------------------------------------------
def save_arrays(
    directory: Union[str, Path],
    name: str,
    arrays: Mapping[str, np.ndarray],
) -> Path:
    """Write an ``.npz`` bundle of named arrays into ``directory``."""
    path = Path(directory) / f"{name}.npz"
    with open(path, "wb") as handle:
        np.savez(handle, **{key: np.asarray(val) for key, val in arrays.items()})
        handle.flush()
        os.fsync(handle.fileno())
    return path


def load_arrays(
    directory: Union[str, Path], name: str
) -> Dict[str, np.ndarray]:
    """Read back an ``.npz`` bundle written by :func:`save_arrays`."""
    path = Path(directory) / f"{name}.npz"
    with np.load(path, allow_pickle=False) as bundle:
        return {key: np.array(bundle[key]) for key in bundle.files}


def save_pickle(directory: Union[str, Path], name: str, obj: Any) -> Path:
    """Pickle one control object (controllers, scheduler, ...)."""
    path = Path(directory) / f"{name}.pkl"
    with open(path, "wb") as handle:
        pickle.dump(obj, handle, protocol=pickle.HIGHEST_PROTOCOL)
        handle.flush()
        os.fsync(handle.fileno())
    return path


def load_pickle(directory: Union[str, Path], name: str) -> Any:
    """Read back a pickle payload written by :func:`save_pickle`."""
    path = Path(directory) / f"{name}.pkl"
    with open(path, "rb") as handle:
        return pickle.load(handle)


def _sha256(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        while True:
            block = handle.read(_DIGEST_CHUNK)
            if not block:
                break
            digest.update(block)
    return digest.hexdigest()


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """SHA-256 over every ``*.py`` file of the ``repro`` package.

    Each file contributes its path relative to the package root and its
    bytes, in sorted path order, so any edit, addition, removal or
    rename of a source file changes the digest.  Computed once per
    process.
    """
    package = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    for relpath in sorted(
        path.relative_to(package).as_posix() for path in package.rglob("*.py")
    ):
        source = (package / relpath).read_bytes()
        digest.update(f"{relpath}\0{len(source)}\0".encode())
        digest.update(source)
    return digest.hexdigest()


def _fsync_dir(path: Path) -> None:
    fd = os.open(str(path), os.O_RDONLY)
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - fsync on dirs unsupported
        pass
    finally:
        os.close(fd)


# ----------------------------------------------------------------------
# writer
# ----------------------------------------------------------------------
class CheckpointWriter:
    """Stage payload files for one cut, then commit them atomically.

    ``CheckpointWriter(root, tick)`` creates (or adopts) the staging
    directory ``tmp-<tick>``; payloads are added with
    :meth:`arrays` / :meth:`pickle` or written externally into
    :attr:`staging`; :meth:`commit` seals the checksummed manifest and
    renames the directory to ``ckpt-<tick>``.
    """

    def __init__(self, root: Union[str, Path], tick: int) -> None:
        self.root = Path(root)
        self.tick = int(tick)
        self.staging = staging_dir_for_tick(self.root, self.tick)
        self.root.mkdir(parents=True, exist_ok=True)
        self.staging.mkdir(exist_ok=True)

    def arrays(self, name: str, payload: Mapping[str, np.ndarray]) -> Path:
        """Stage an ``.npz`` bundle of named arrays as ``<name>.npz``."""
        return save_arrays(self.staging, name, payload)

    def pickle(self, name: str, obj: Any) -> Path:
        """Stage a pickle payload as ``<name>.pkl``."""
        return save_pickle(self.staging, name, obj)

    def commit(self, kind: str, fingerprint: Mapping[str, Any]) -> Path:
        """Checksum every staged file, seal the manifest, rename."""
        files: Dict[str, str] = {}
        for path in sorted(self.staging.iterdir()):
            if not path.is_file() or path.name == _MANIFEST_NAME:
                continue
            files[path.name] = _sha256(path)
        if not files:
            raise CheckpointError(
                f"refusing to commit empty checkpoint at {self.staging}"
            )
        manifest: Dict[str, Any] = {
            "format_version": CHECKPOINT_FORMAT_VERSION,
            "kind": kind,
            "tick": self.tick,
            "fingerprint": dict(fingerprint),
            "files": files,
        }
        manifest_path = self.staging / _MANIFEST_NAME
        with open(manifest_path, "w", encoding="utf-8") as handle:
            json.dump(manifest, handle, indent=2, sort_keys=True)
            handle.write("\n")
            handle.flush()
            os.fsync(handle.fileno())
        final = checkpoint_dir_for_tick(self.root, self.tick)
        if final.exists():
            shutil.rmtree(final)
        os.rename(self.staging, final)
        _fsync_dir(self.root)
        return final


# ----------------------------------------------------------------------
# readers
# ----------------------------------------------------------------------
def read_manifest(
    checkpoint: Union[str, Path], verify: bool = True
) -> Dict[str, Any]:
    """Load and (by default) checksum-verify a checkpoint manifest."""
    directory = Path(checkpoint)
    manifest_path = directory / _MANIFEST_NAME
    if not manifest_path.is_file():
        raise CheckpointError(f"no checkpoint manifest at {directory}")
    with open(manifest_path, "r", encoding="utf-8") as handle:
        manifest_obj = json.load(handle)
    if not isinstance(manifest_obj, dict):
        raise CheckpointError(f"malformed checkpoint manifest at {directory}")
    manifest: Dict[str, Any] = manifest_obj
    version = manifest.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"checkpoint format version {version!r} at {directory} is not "
            f"supported (expected {CHECKPOINT_FORMAT_VERSION})"
        )
    files = manifest.get("files")
    if not isinstance(files, dict) or not files:
        raise CheckpointError(f"checkpoint manifest at {directory} lists no files")
    if verify:
        for name, expected in files.items():
            payload = directory / str(name)
            if not payload.is_file():
                raise CheckpointError(
                    f"checkpoint {directory} is missing payload file {name!r}"
                )
            actual = _sha256(payload)
            if actual != expected:
                raise CheckpointError(
                    f"checkpoint {directory} payload {name!r} is corrupt: "
                    f"sha256 {actual} != manifest {expected}"
                )
    return manifest


def require_fingerprint(
    manifest: Mapping[str, Any], expected: Mapping[str, Any]
) -> None:
    """Refuse to resume a checkpoint written by a different run."""
    actual = manifest.get("fingerprint")
    if not isinstance(actual, dict):
        raise CheckpointError("checkpoint manifest has no run fingerprint")
    mismatched = sorted(
        key
        for key in set(actual) | set(expected)
        if actual.get(key) != expected.get(key)
    )
    if mismatched:
        detail = ", ".join(
            f"{key}: checkpoint={actual.get(key)!r} run={expected.get(key)!r}"
            for key in mismatched
        )
        raise CheckpointError(
            f"checkpoint does not match this run ({detail})"
        )


def list_checkpoints(root: Union[str, Path]) -> List[Path]:
    """Committed checkpoints under ``root``, oldest first."""
    base = Path(root)
    if not base.is_dir():
        return []
    found = [
        (tick, path)
        for path in base.iterdir()
        if path.is_dir()
        for tick in [_tick_of(path)]
        if tick is not None and (path / _MANIFEST_NAME).is_file()
    ]
    return [path for _, path in sorted(found)]


def latest_checkpoint(root: Union[str, Path]) -> Optional[Path]:
    """Most recent committed checkpoint under ``root``, if any."""
    checkpoints = list_checkpoints(root)
    return checkpoints[-1] if checkpoints else None


def resolve_checkpoint(path: Union[str, Path]) -> Path:
    """Accept either a checkpoint directory or a checkpoint root."""
    directory = Path(path)
    if (directory / _MANIFEST_NAME).is_file():
        return directory
    latest = latest_checkpoint(directory)
    if latest is None:
        raise CheckpointError(f"no checkpoint found under {directory}")
    return latest


def prune_checkpoints(root: Union[str, Path], keep: int) -> None:
    """Drop all but the newest ``keep`` checkpoints plus stale staging."""
    base = Path(root)
    if not base.is_dir():
        return
    checkpoints = list_checkpoints(base)
    for stale in checkpoints[: max(0, len(checkpoints) - max(1, int(keep)))]:
        shutil.rmtree(stale, ignore_errors=True)
    newest = checkpoints[-1] if checkpoints else None
    newest_tick = _tick_of(newest) if newest is not None else None
    for path in base.iterdir():
        if not path.is_dir() or not path.name.startswith("tmp-"):
            continue
        try:
            tick = int(path.name[len("tmp-"):])
        except ValueError:
            continue
        if newest_tick is None or tick <= newest_tick:
            shutil.rmtree(path, ignore_errors=True)
