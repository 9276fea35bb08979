"""Seeded schema migrations with bounded schema width.

Every subject app gets its own :class:`MigrationStream`.  A stream walks a
small state machine so the schema never drifts far from the app's own:

* an app with tables either adds one ``bench_c<n>`` column (which later
  steps rename or drop) or renames one of its own columns away (which the
  next step renames back);
* a table-less app (Wikipedia, Twitter) creates one ``bench_t<n>`` scratch
  table, which the next step drops.

So at most one benchmark column or table exists per app at any time, and a
long run keeps op cost stationary instead of widening row types until
verdicts flip.  Benchmark names come from a small pool for the same reason.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: column kinds a migration may add (``repro.db.schema``'s kinds)
KINDS = ("integer", "string", "boolean", "float")

#: benchmark names cycle through this many suffixes, so a long run does
#: not grow the process-wide type intern tables with ever-new column names
NAME_POOL = 8


@dataclass(frozen=True)
class Migration:
    """One schema change: ``Database.<method>(*args, **dict(columns))``
    (``columns`` is only used by ``create_table``)."""

    method: str
    args: tuple
    columns: tuple = ()

    def apply(self, db) -> None:
        getattr(db, self.method)(*self.args, **dict(self.columns))


class MigrationStream:
    """An endless, seed-determined migration sequence for one app.

    ``tables`` maps each of the app's tables to its column names, as the
    app builds them.
    """

    def __init__(self, tables: dict[str, list[str]], seed: int):
        self.rng = random.Random(seed)
        self.columns = {table: list(cols) for table, cols in tables.items()}
        self.counter = 0
        # None, ("column", table, name), ("renamed", table, original, name)
        # or ("table", name): the one benchmark change that is live now
        self.pending: tuple | None = None

    def _fresh(self, prefix: str) -> str:
        """A name unlike the previous one (a rename never keeps its name)."""
        self.counter += 1
        return f"{prefix}{self.counter % NAME_POOL}"

    def next(self) -> Migration:
        if not self.columns:
            return self._next_scratch_table()
        pending = self.pending
        if pending is None:
            table = self.rng.choice(sorted(self.columns))
            own = [c for c in self.columns[table] if c != "id"]
            if own and self.rng.random() < 1 / 3:
                original = self.rng.choice(own)
                name = self._fresh(f"{original}_bench")
                self.pending = ("renamed", table, original, name)
                return Migration("rename_column", (table, original, name))
            name = self._fresh("bench_c")
            self.pending = ("column", table, name)
            return Migration("add_column",
                             (table, name, self.rng.choice(KINDS)))
        if pending[0] == "renamed":
            _, table, original, name = pending
            self.pending = None
            return Migration("rename_column", (table, name, original))
        _, table, name = pending
        if self.rng.random() < 0.5:
            renamed = self._fresh("bench_c")
            self.pending = ("column", table, renamed)
            return Migration("rename_column", (table, name, renamed))
        self.pending = None
        return Migration("drop_column", (table, name))

    def _next_scratch_table(self) -> Migration:
        if self.pending is None:
            name = self._fresh("bench_t")
            columns = tuple((f"c{i}", self.rng.choice(KINDS))
                            for i in range(self.rng.randint(1, 3)))
            self.pending = ("table", name)
            return Migration("create_table", (name,), columns)
        name = self.pending[1]
        self.pending = None
        return Migration("drop_table", (name,))

