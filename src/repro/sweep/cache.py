"""Content-addressed result cache: scenario hash → metrics row.

Each cached point is one JSON file named by the spec's content hash
(see :meth:`repro.sweep.spec.ScenarioSpec.cache_key`), so a warm
re-run of a sweep reads rows straight off disk with **zero** engine
invocations.  The canonical location is ``benchmarks/results/cache/``
(:data:`DEFAULT_CACHE_DIR`), but any directory works.

Entries carry the schema version; bumping
:data:`repro.sweep.spec.CACHE_SCHEMA_VERSION` (done whenever the row
a runner produces changes, in shape or in value) invalidates every
older entry without touching the files.  Note the hash covers the
scenario *inputs* — a change to the simulation physics itself does
not change keys, so delete the cache directory (or pass
``--no-cache``) after modifying model code.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Any, Dict, Optional

from repro.sweep.spec import CACHE_SCHEMA_VERSION, ScenarioSpec

#: Where sweeps persist their rows unless told otherwise.  Relative to
#: the *current working directory*: invoke the CLI from the repo root
#: (or pass an absolute ``--cache-dir``) to share one warm cache.
DEFAULT_CACHE_DIR = Path("benchmarks") / "results" / "cache"


class ResultCache:
    """Directory of ``<kind>-<hash>.json`` files, one per sweep point."""

    def __init__(self, root) -> None:
        self.root = Path(root)

    def _path(self, spec: ScenarioSpec) -> Path:
        return self.root / f"{spec.kind}-{spec.cache_key()}.json"

    def get(self, spec: ScenarioSpec) -> Optional[Dict[str, Any]]:
        """The cached row for *spec*, or ``None`` on miss / stale schema."""
        if not spec.cacheable:
            return None
        path = self._path(spec)
        try:
            with path.open("r") as handle:
                entry = json.load(handle)
        except (OSError, json.JSONDecodeError):
            return None
        if entry.get("schema") != CACHE_SCHEMA_VERSION:
            return None
        if entry.get("kind") != spec.kind:
            return None
        row = entry.get("row")
        return dict(row) if isinstance(row, dict) else None

    def put(self, spec: ScenarioSpec, row: Dict[str, Any]) -> bool:
        """Persist *row* for *spec*; returns False for uncacheable specs.

        The write is atomic (tmp file + rename) so a parallel sweep
        interrupted mid-write never leaves a torn entry behind.
        """
        if not spec.cacheable:
            return False
        self.root.mkdir(parents=True, exist_ok=True)
        path = self._path(spec)
        entry = {
            "schema": CACHE_SCHEMA_VERSION,
            "kind": spec.kind,
            "label": spec.label,
            "row": row,
        }
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with tmp.open("w") as handle:
            # Keep the runner's row-key order: loading an entry must
            # rebuild the table with bit-identical column ordering.
            json.dump(entry, handle, indent=1)
        os.replace(tmp, path)
        return True

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*.json"))
