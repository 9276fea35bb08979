"""Lazy relations: the runtime value of a query in progress.

``User.joins(:emails).where(...)`` builds a :class:`RelationValue` — the
runtime analogue of the static type ``Table<{...}>``.  It advertises itself
to the dynamic-check machinery via ``comprdl_class_name`` /
``comprdl_check_table`` so that checked calls can verify a returned relation
still matches its computed ``Table`` schema.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass, field, replace

from repro.db.engine import QueryEngine, pluralize, snake_case
from repro.db.schema import Database
from repro.rtypes import FiniteHashType
from repro.rtypes.intern import fingerprint
from repro.rtypes.kinds import Sym
from repro.runtime.objects import RClass, RHash, RObject, RString


@dataclass(frozen=True)
class RelationValue:
    """An immutable, lazily evaluated query over the database."""

    db: Database
    base_table: str
    model_class: RClass | None = None
    joins: tuple[str, ...] = ()
    includes: tuple[str, ...] = ()
    conditions: tuple = ()          # tuple of frozen dicts (as item tuples)
    sql_wheres: tuple = ()          # tuple of (sql_fragment, arg values)
    order_by: str | None = None
    descending: bool = False
    limit_to: int | None = None
    comprdl_class_name: str = field(default="Table", init=False)

    # ------------------------------------------------------------------
    # builders (each query method returns a new relation)
    # ------------------------------------------------------------------
    def with_join(self, table: str) -> "RelationValue":
        return replace(self, joins=self.joins + (table,))

    def with_include(self, table: str) -> "RelationValue":
        return replace(self, joins=self.joins + (table,),
                       includes=self.includes + (table,))

    def with_conditions(self, conditions: dict) -> "RelationValue":
        frozen = tuple(sorted(conditions.items(), key=lambda kv: str(kv[0])))
        return replace(self, conditions=self.conditions + (frozen,))

    def with_sql(self, sql: str, args: tuple) -> "RelationValue":
        return replace(self, sql_wheres=self.sql_wheres + ((sql, args),))

    def with_order(self, column: str, descending: bool = False) -> "RelationValue":
        return replace(self, order_by=column, descending=descending)

    def with_limit(self, n: int) -> "RelationValue":
        return replace(self, limit_to=n)

    # ------------------------------------------------------------------
    # evaluation
    # ------------------------------------------------------------------
    def rows(self) -> list[dict]:
        engine = QueryEngine(self.db)
        rows = engine.rows_for(self.base_table, list(self.joins))
        for frozen in self.conditions:
            rows = engine.filter_rows(rows, dict(frozen))
        for sql, args in self.sql_wheres:
            from repro.sqltc.evaluator import eval_where_fragment

            rows = [r for r in rows
                    if eval_where_fragment(self.db, self.base_table, self.joins,
                                           sql, args, r)]
        if self.order_by is not None:
            rows = engine.order_rows(rows, self.order_by, self.descending)
        if self.limit_to is not None:
            rows = rows[: self.limit_to]
        return rows

    def records(self, interp) -> list:
        """Materialize rows as model instances (base-table columns only)."""
        out = []
        schema = self.db.schema_of(self.base_table)
        for row in self.rows():
            out.append(row_to_record(interp, self.model_class, schema, row))
        return out

    # ------------------------------------------------------------------
    # schema / dynamic-check support
    # ------------------------------------------------------------------
    def joined_schema(self) -> FiniteHashType:
        """The finite hash type of this relation's (possibly joined) rows."""
        base = self.db.schema_of(self.base_table)
        fh = base.finite_hash() if base else FiniteHashType({})
        for join_table in self.joins:
            joined = self.db.schema_of(join_table)
            if joined is not None:
                fh = fh.merged(FiniteHashType({Sym(join_table): joined.finite_hash()}))
        return fh

    def comprdl_check_table(self, interp, schema_type) -> bool:
        """Membership test for ``Table<S>``: our joined schema must match.

        Memoized per (database, relation shape, expected schema's
        *structural* form, db generation) — the same checked call site
        produces the same shapes every iteration, and a hit costs the
        expected type's fingerprint, not a rebuild of the joined schema.
        The fingerprint (:func:`repro.rtypes.intern.fingerprint`) is an
        interned id for the type's *current* structure — never recycled,
        unlike ``id(schema_type)``, so a GC'd-and-reallocated type object
        can never replay a stale verdict for a differently-shaped type.
        The schema type caches its fingerprint until the next weak update,
        so a hit walks no structure, and a widened schema gets a new key.
        Universes in one process share table names and generation
        numbers, so the key also names the database; the entry holds it
        weakly and a hit must find the same database alive behind it.
        """
        if not isinstance(schema_type, FiniteHashType):
            return True
        db = self.db
        key = (id(db), self.base_table, self.joins, fingerprint(schema_type),
               getattr(db, "version", 0))
        cached = _TABLE_CHECK_CACHE.get(key)
        if cached is not None and cached[0]() is db:
            return cached[1]
        from repro.rtypes import subtype

        mine = self.joined_schema()
        result = subtype(mine, schema_type, record=False) or \
            subtype(schema_type, mine, record=False)
        if len(_TABLE_CHECK_CACHE) > 4096:
            _TABLE_CHECK_CACHE.clear()
        _TABLE_CHECK_CACHE[key] = (weakref.ref(db), result)
        return result

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"#<Relation {self.base_table} joins={list(self.joins)}>"


_TABLE_CHECK_CACHE: dict = {}


def table_name_for_class(name: str) -> str:
    """Rails convention: model ``Person`` ↔ table ``people``."""
    return pluralize(snake_case(name.split("::")[-1]))


def row_to_record(interp, model_class: RClass | None, schema, row: dict):
    """Convert a stored row into a model instance (or a hash for datasets)."""
    if model_class is None:
        result = RHash()
        for key, value in row.items():
            if isinstance(value, dict):
                continue
            result.set(Sym(key), _to_runtime(value))
        return result
    record = RObject(model_class)
    if schema is not None:
        for column in schema.columns.values():
            record.ivars["@" + column.name] = _to_runtime(row.get(column.name))
    return record


def record_to_row(record: RObject, schema) -> dict:
    row = {}
    for column in schema.columns.values():
        value = record.ivars.get("@" + column.name)
        row[column.name] = _from_runtime(value)
    if row.get("id") is None:
        row.pop("id", None)
    return row


def _to_runtime(value):
    if isinstance(value, str):
        return RString(value)
    return value


def _from_runtime(value):
    if isinstance(value, RString):
        return value.val
    if isinstance(value, Sym):
        return value.name
    return value
