"""R002 — RNG discipline: seeded Generators at declared entry points.

Every bit-identity contract in this repository (chunked kernel vs.
reference engine, vector vs. sharded fleet backends, serial vs.
parallel sweeps, golden traces) depends on knowing exactly which
component draws from which RNG stream, in which order.  That is only
auditable when randomness enters through explicit, seeded
``np.random.default_rng(seed)`` constructions in a small set of
declared entry-point modules and flows everywhere else as a passed
``Generator``.  This rule enforces that discipline:

* no ``import random`` / ``from random import ...`` (stdlib module)
  anywhere in ``src/repro``;
* no legacy global-state numpy API (``np.random.seed``,
  ``np.random.rand``, ``np.random.normal``, ...) — only
  ``default_rng`` / ``Generator`` / ``SeedSequence`` attributes of
  ``np.random`` are sanctioned;
* every ``default_rng(...)`` call must pass an explicit seed argument
  (``default_rng()`` reseeds from the OS and is unreproducible);
* ``default_rng`` calls may appear only in the entry-point modules
  listed in :data:`repro.analysis.config.RNG_ENTRY_MODULES`.
"""

from __future__ import annotations

import ast
from typing import Iterable, List, Tuple

from repro.analysis.config import RNG_ENTRY_MODULES
from repro.analysis.engine import Rule, SourceFile

#: ``np.random`` attributes that are part of the sanctioned API.
_SANCTIONED_NP_RANDOM = frozenset(
    {"default_rng", "Generator", "SeedSequence", "BitGenerator", "PCG64"}
)


def _is_entry_module(relpath: str) -> bool:
    return any(relpath.endswith(entry) for entry in RNG_ENTRY_MODULES)


class _RngVisitor(ast.NodeVisitor):
    def __init__(self, relpath: str):
        self.relpath = relpath
        self.findings: List[Tuple[int, int, str]] = []

    def _flag(self, node: ast.AST, message: str) -> None:
        self.findings.append((node.lineno, node.col_offset, message))

    # -- stdlib random ------------------------------------------------
    def visit_Import(self, node: ast.Import) -> None:
        """Ban ``import random``."""
        for alias in node.names:
            if alias.name == "random" or alias.name.startswith("random."):
                self._flag(
                    node,
                    "stdlib 'random' is banned in src/repro; use a seeded "
                    "np.random.Generator passed in explicitly",
                )
        self.generic_visit(node)

    def visit_ImportFrom(self, node: ast.ImportFrom) -> None:
        """Ban ``from random import ...``."""
        if node.module == "random" and node.level == 0:
            self._flag(
                node,
                "stdlib 'random' is banned in src/repro; use a seeded "
                "np.random.Generator passed in explicitly",
            )
        self.generic_visit(node)

    # -- np.random.* --------------------------------------------------
    def visit_Attribute(self, node: ast.Attribute) -> None:
        """Ban non-sanctioned ``np.random.*`` attributes."""
        # match <np|numpy>.random.<attr> with a non-sanctioned attr
        value = node.value
        if (
            isinstance(value, ast.Attribute)
            and value.attr == "random"
            and isinstance(value.value, ast.Name)
            and value.value.id in ("np", "numpy")
            and node.attr not in _SANCTIONED_NP_RANDOM
        ):
            self._flag(
                node,
                f"legacy global-state API np.random.{node.attr} is banned; "
                "only default_rng/Generator/SeedSequence are sanctioned",
            )
        self.generic_visit(node)

    # -- default_rng calls --------------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        """Check ``default_rng`` calls for seed and entry-point module."""
        if _is_default_rng(node.func):
            if not node.args and not node.keywords:
                self._flag(
                    node,
                    "default_rng() without an explicit seed reseeds from "
                    "the OS and breaks reproducibility; pass a seed or "
                    "SeedSequence",
                )
            elif not _is_entry_module(self.relpath):
                self._flag(
                    node,
                    "RNG construction is confined to the declared entry-point "
                    "modules (see repro.analysis.config.RNG_ENTRY_MODULES); "
                    "accept a Generator parameter instead",
                )
        self.generic_visit(node)


def _is_default_rng(func: ast.AST) -> bool:
    if isinstance(func, ast.Name):
        return func.id == "default_rng"
    if isinstance(func, ast.Attribute):
        return func.attr == "default_rng"
    return False


class RngDisciplineRule(Rule):
    """R002: seeded Generators only, constructed at declared entry points."""

    id = "R002"
    summary = "RNG discipline: seeded Generators at declared entry points"

    def check(self, file: SourceFile) -> Iterable[Tuple[int, int, str]]:
        """Run the RNG visitor over *file*."""
        visitor = _RngVisitor(file.relpath)
        visitor.visit(file.tree)
        return visitor.findings
