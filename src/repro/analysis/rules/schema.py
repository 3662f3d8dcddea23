"""R004 — trace-schema consistency across recorders and consumers.

The repository declares its trace schemas as module-level tuples of
column-name strings whose names end in ``TRACE_COLUMNS``
(``SINGLE_SERVER_TRACE_COLUMNS`` in :mod:`repro.engine.kernel`,
``FLEET_TRACE_COLUMNS`` in :mod:`repro.telemetry.segments`, plus
aliases like ``TRACE_COLUMNS = SINGLE_SERVER_TRACE_COLUMNS``).  Rows flow in via
``TraceRecorder.record({...})`` / ``record_chunk({...})`` and out via
``TraceRecorder.column("name")`` — across the reference engine, the
chunked kernel, and the golden-trace suite.  A typo'd column on either
side silently yields missing-column KeyErrors at best and schema drift
between engines at worst.

This is the engine's one genuinely cross-file rule: the *collect*
phase gathers every declared schema (following one level of
``NAME = OTHER_TRACE_COLUMNS`` aliasing) over the whole file set, and
the *check* phase then verifies

* every string-literal argument to a ``.column("...")`` call, and
* every string key of a dict-literal argument to ``.record({...})``
  or ``.record_chunk({...})``

against the union of declared columns (plus
:data:`repro.analysis.config.EXTRA_TRACE_COLUMNS`).  When no schema
constant is in the linted file set the rule stays silent — there is
nothing to be consistent *with*.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from repro.analysis.config import (
    EXTRA_TRACE_COLUMNS,
    SCHEMA_CONSTANT_SUFFIX,
)
from repro.analysis.engine import Rule, SourceFile

_RECORD_METHODS = frozenset({"record", "record_chunk"})


def _schema_assignments(
    tree: ast.Module,
) -> Iterable[Tuple[str, ast.AST]]:
    """Yield ``(constant_name, value_node)`` for module-level schemas."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target = node.targets[0]
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target = node.target
            value = node.value
        else:
            continue
        if isinstance(target, ast.Name) and target.id.endswith(
            SCHEMA_CONSTANT_SUFFIX
        ):
            yield target.id, value


def _literal_columns(value: ast.AST) -> List[str]:
    """String elements of a tuple/list literal (``[]`` when not one)."""
    if not isinstance(value, (ast.Tuple, ast.List)):
        return []
    columns = []
    for element in value.elts:
        if isinstance(element, ast.Constant) and isinstance(
            element.value, str
        ):
            columns.append(element.value)
    return columns


class TraceSchemaRule(Rule):
    """R004: recorded/consumed trace columns match declared schemas."""

    id = "R004"
    summary = "trace-schema consistency: columns match declared schemas"

    def begin_run(self, files: Sequence[SourceFile]) -> None:
        """Reset the collected schema/alias tables."""
        #: schema constant name -> tuple of columns
        self._schemas: Dict[str, Tuple[str, ...]] = {}
        #: alias constant name -> referenced schema constant name
        self._aliases: Dict[str, str] = {}

    def collect(self, file: SourceFile) -> None:
        """Gather ``*TRACE_COLUMNS`` declarations from *file*."""
        for name, value in _schema_assignments(file.tree):
            columns = _literal_columns(value)
            if columns:
                self._schemas[name] = tuple(columns)
            elif isinstance(value, ast.Name) and value.id.endswith(
                SCHEMA_CONSTANT_SUFFIX
            ):
                self._aliases[name] = value.id

    def _known_columns(self) -> Set[str]:
        known = set(EXTRA_TRACE_COLUMNS)
        for columns in self._schemas.values():
            known.update(columns)
        # aliases add no columns of their own, but a dangling alias
        # (referencing a schema outside the linted set) disables the
        # check rather than producing spurious findings
        for referenced in self._aliases.values():
            if referenced not in self._schemas:
                return set()
        return known

    def check(self, file: SourceFile) -> Iterable[Tuple[int, int, str]]:
        """Check recorded/consumed columns against the collected union."""
        known = self._known_columns()
        if not known:
            return []
        findings: List[Tuple[int, int, str]] = []
        for node in ast.walk(file.tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if not isinstance(func, ast.Attribute):
                continue
            if func.attr == "column" and node.args:
                arg = node.args[0]
                if (
                    isinstance(arg, ast.Constant)
                    and isinstance(arg.value, str)
                    and arg.value not in known
                ):
                    findings.append(
                        (
                            arg.lineno,
                            arg.col_offset,
                            f"column {arg.value!r} is not declared in any "
                            f"*{SCHEMA_CONSTANT_SUFFIX} schema",
                        )
                    )
            elif func.attr in _RECORD_METHODS and node.args:
                arg = node.args[0]
                if not isinstance(arg, ast.Dict):
                    continue
                for key in arg.keys:
                    if (
                        isinstance(key, ast.Constant)
                        and isinstance(key.value, str)
                        and key.value not in known
                    ):
                        findings.append(
                            (
                                key.lineno,
                                key.col_offset,
                                f"recorded column {key.value!r} is not "
                                f"declared in any *{SCHEMA_CONSTANT_SUFFIX} "
                                "schema",
                            )
                        )
        return findings
