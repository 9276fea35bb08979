"""Dependency tracking for incremental re-checking.

While a method is being checked, every schema read (table lookups by comp
helpers, SQL fragment checking, ``RDL.db_schema``) and every comp expression
evaluated is attributed to that method.  A later schema change then dirties
exactly the methods whose verdicts could have depended on it.

Scopes nest: the comp engine opens a capture scope around each comp
evaluation so cache entries learn *their own* table footprint, and on exit
the captured reads propagate outward to the enclosing method scope (a cache
hit replays the stored footprint instead).
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

from repro.incremental.versioning import WILDCARD, affects


@dataclass
class _Scope:
    tables: set[str] = field(default_factory=set)
    columns: set[tuple[str, str]] = field(default_factory=set)
    comps: set[str] = field(default_factory=set)


@dataclass
class MethodDeps:
    """What one checked method's verdict depended on."""

    tables: frozenset[str] = frozenset()
    columns: frozenset[tuple[str, str]] = frozenset()
    comps: frozenset[str] = frozenset()

    def depends_on_table(self, table: str) -> bool:
        return table in self.tables or WILDCARD in self.tables

    def summary(self) -> dict:
        """The footprint as sorted, JSON-ready lists — the stable form the
        provenance ledger records and ``explain()`` reports, identical no
        matter which process tracked the dependencies."""
        return {
            "tables": sorted(self.tables),
            "columns": sorted(f"{table}.{column}"
                              for table, column in self.columns),
            "comps": sorted(self.comps),
        }


class DependencyTracker:
    """Records per-method schema/comp dependencies via nested scopes."""

    def __init__(self) -> None:
        self.method_deps: dict[object, MethodDeps] = {}
        self._stack: list[_Scope] = []

    # ------------------------------------------------------------------
    # scopes
    # ------------------------------------------------------------------
    @contextmanager
    def tracking(self, key):
        """Attribute all reads during the body to method ``key``.

        Re-entering for the same key replaces the old dependency set —
        a re-check observes the current schema, not history.
        """
        scope = _Scope()
        self._stack.append(scope)
        try:
            yield scope
        finally:
            self._stack.pop()
            self.method_deps[key] = MethodDeps(
                frozenset(scope.tables),
                frozenset(scope.columns),
                frozenset(scope.comps),
            )

    @contextmanager
    def capture(self):
        """A nested scope whose reads also propagate to the enclosing scope
        on exit (used around one comp evaluation to learn its footprint)."""
        scope = _Scope()
        self._stack.append(scope)
        try:
            yield scope
        finally:
            self._stack.pop()
            if self._stack:
                outer = self._stack[-1]
                outer.tables |= scope.tables
                outer.columns |= scope.columns
                outer.comps |= scope.comps

    # ------------------------------------------------------------------
    # recording (called from Database read listeners / the comp engine)
    # ------------------------------------------------------------------
    def note_table(self, table: str, column: str | None = None) -> None:
        if not self._stack:
            return
        scope = self._stack[-1]
        scope.tables.add(table)
        if column is not None:
            scope.columns.add((table, column))

    def note_tables(self, tables) -> None:
        if self._stack and tables:
            self._stack[-1].tables.update(tables)

    def note_comp(self, code: str) -> None:
        if self._stack:
            self._stack[-1].comps.add(code)

    @property
    def active(self) -> bool:
        return bool(self._stack)

    # ------------------------------------------------------------------
    # queries
    # ------------------------------------------------------------------
    def deps_of(self, key) -> MethodDeps | None:
        return self.method_deps.get(key)

    def adopt(self, key, deps: MethodDeps) -> None:
        """Install a dependency set computed elsewhere — a parallel worker
        tracked it in its own universe and shipped it back with the verdict."""
        self.method_deps[key] = deps

    def dependents_of_table(self, table: str) -> set:
        return {
            key for key, deps in self.method_deps.items()
            if deps.depends_on_table(table)
        }

    def methods_affected_by(self, changed: set[str]) -> set:
        """Method keys whose table footprint intersects ``changed``."""
        return {
            key for key, deps in self.method_deps.items()
            if affects(deps.tables, changed)
        }

    def clear(self) -> None:
        self.method_deps.clear()
