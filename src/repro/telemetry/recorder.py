"""Tabular trace capture and CSV export (the DLC-PC's logging role).

The recorder stores every column in a preallocated float64 buffer that
grows by doubling, so recording a multi-hour trace never degenerates
into per-tick Python-object churn.  The execution kernel
(:mod:`repro.engine.kernel`) records whole chunks of ticks in one
:meth:`TraceRecorder.record_chunk` call; the per-row :meth:`record`
surface is kept for incremental writers (the reference engine's
tick-by-tick loop, tests).
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Dict, Mapping, Sequence, Union

import numpy as np

#: Initial per-column buffer capacity, rows.
_INITIAL_CAPACITY = 256


class TraceRecorder:
    """Accumulates fixed-schema rows and exposes them as arrays/CSV."""

    def __init__(self, columns: Sequence[str], capacity: int = _INITIAL_CAPACITY):
        if not columns:
            raise ValueError("recorder needs at least one column")
        if len(set(columns)) != len(columns):
            raise ValueError("duplicate column names")
        self.columns = tuple(columns)
        self._index = {name: k for k, name in enumerate(self.columns)}
        self._buffer = np.empty((len(self.columns), max(1, int(capacity))))
        self._length = 0
        # column() results are materialized once and reused until the
        # next append (the metrics pipeline reads the same column many
        # times; rebuilding it per call was O(rows) each).
        self._cache: Dict[str, np.ndarray] = {}

    # ------------------------------------------------------------------
    # writing
    # ------------------------------------------------------------------
    def _reserve(self, extra_rows: int) -> None:
        needed = self._length + extra_rows
        capacity = self._buffer.shape[1]
        if needed <= capacity:
            return
        while capacity < needed:
            capacity *= 2
        grown = np.empty((len(self.columns), capacity))
        grown[:, : self._length] = self._buffer[:, : self._length]
        self._buffer = grown

    def record(self, row: Mapping[str, float]) -> None:
        """Append one row; every schema column must be present."""
        missing = [c for c in self.columns if c not in row]
        if missing:
            raise ValueError(f"row missing columns: {missing}")
        self._reserve(1)
        buffer = self._buffer
        n = self._length
        for k, name in enumerate(self.columns):
            buffer[k, n] = float(row[name])
        self._length = n + 1
        self._cache.clear()

    def record_chunk(self, chunk: Mapping[str, np.ndarray]) -> None:
        """Append many rows at once from equal-length column arrays.

        *chunk* maps every schema column to a 1-D array-like; scalar
        values broadcast across the chunk only when at least one real
        array fixes the chunk length.
        """
        # chunk-amortized validation: one pass per chunk of hundreds of
        # rows, not per tick, so these allocations are off the hot path
        missing = [c for c in self.columns if c not in chunk]  # reprolint: disable=R003
        if missing:
            raise ValueError(f"chunk missing columns: {missing}")
        arrays = {}
        rows = None
        for name in self.columns:
            values = np.asarray(chunk[name], dtype=float)  # reprolint: disable=R003
            if values.ndim > 1:
                raise ValueError(f"column {name!r} must be 1-D, got {values.shape}")
            if values.ndim == 1:
                if rows is None:
                    rows = values.shape[0]
                elif values.shape[0] != rows:
                    raise ValueError(
                        f"column {name!r} has {values.shape[0]} rows, "
                        f"expected {rows}"
                    )
            arrays[name] = values
        if rows is None:
            raise ValueError("record_chunk needs at least one array column")
        if rows == 0:
            return
        self._reserve(rows)
        n = self._length
        for k, name in enumerate(self.columns):
            self._buffer[k, n : n + rows] = arrays[name]
        self._length = n + rows
        self._cache.clear()

    # ------------------------------------------------------------------
    # reading
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self._length

    def column(self, name: str) -> np.ndarray:
        """One column as a **read-only** numpy array.

        The array is materialized once and shared between callers
        until the next append; copy it (``column(name).copy()``)
        before mutating.
        """
        cached = self._cache.get(name)
        if cached is not None:
            return cached
        if name not in self._index:
            raise KeyError(f"unknown column {name!r}")
        values = self._buffer[self._index[name], : self._length].copy()
        # The cache hands the same array to every caller; freezing it
        # keeps one caller's in-place edit from corrupting the others.
        values.flags.writeable = False
        self._cache[name] = values
        return values

    def as_arrays(self) -> Dict[str, np.ndarray]:
        """All columns as a name → array mapping (read-only arrays,
        see :meth:`column`)."""
        return {name: self.column(name) for name in self.columns}

    # ------------------------------------------------------------------
    # CSV round-trip
    # ------------------------------------------------------------------
    def to_csv(self, path: Union[str, Path]) -> Path:
        """Write the trace to *path* as CSV; returns the path."""
        path = Path(path)
        with path.open("w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(self.columns)
            writer.writerows(self._buffer[:, : self._length].T.tolist())
        return path

    @classmethod
    def from_csv(cls, path: Union[str, Path]) -> "TraceRecorder":
        """Load a trace previously written by :meth:`to_csv`."""
        path = Path(path)
        with path.open("r", newline="") as handle:
            reader = csv.reader(handle)
            header = next(reader)
            recorder = cls(header)
            rows = [[float(v) for v in row] for row in reader]
        if rows:
            table = np.asarray(rows)
            recorder.record_chunk(
                {name: table[:, k] for k, name in enumerate(recorder.columns)}
            )
        return recorder
