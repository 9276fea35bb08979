"""Unit tests for static footprint inference."""

import pytest

from repro import CompRDL, Database
from repro.analysis.footprint import (
    FootprintAnalyzer,
    StaticFootprint,
    sql_fragment_tables,
    table_for_class,
    table_for_symbol,
)
from repro.incremental.deps import MethodDeps
from repro.incremental.versioning import WILDCARD
from repro.typecheck.registry import MethodKey


class TestNameMapping:
    def test_class_to_table(self):
        assert table_for_class("User") == "users"
        assert table_for_class("TopicAllowedGroup") == "topic_allowed_groups"
        assert table_for_class("ActiveRecord::Base") == "bases"

    def test_symbol_to_table(self):
        assert table_for_symbol("emails") == "emails"
        assert table_for_symbol("email") == "emails"


class TestSqlFragmentTables:
    def test_qualified_column_refs(self):
        tables = sql_fragment_tables("users.id = emails.user_id")
        assert tables == {"users", "emails"}

    def test_subquery_scope(self):
        tables = sql_fragment_tables(
            "id IN (SELECT user_id FROM emails WHERE emails.spam = ?)")
        assert "emails" in tables

    def test_non_sql_strings_contribute_nothing(self):
        assert sql_fragment_tables("hello world") == set()
        assert sql_fragment_tables("") == set()
        # a truncated fragment fails to parse rather than raising
        assert sql_fragment_tables("a = ") == set()


class TestStaticFootprint:
    def test_covers_subset(self):
        fp = StaticFootprint(tables=frozenset({"users", "emails"}),
                             columns=frozenset({("users", "id")}),
                             comps=frozenset({"c1"}))
        assert fp.covers(MethodDeps(frozenset({"users"}), frozenset(),
                                    frozenset({"c1"})))
        assert not fp.covers(MethodDeps(frozenset({"topics"})))
        assert fp.covers(None)

    def test_wildcard_covers_anything(self):
        fp = StaticFootprint(wildcard=True)
        assert fp.covers(MethodDeps(frozenset({"anything"}),
                                    frozenset({("t", "c")}),
                                    frozenset({"code"})))

    def test_dynamic_wildcard_needs_static_wildcard(self):
        fp = StaticFootprint(tables=frozenset({"users"}))
        assert not fp.covers(MethodDeps(frozenset({WILDCARD})))
        assert StaticFootprint(wildcard=True).covers(
            MethodDeps(frozenset({WILDCARD})))

    def test_affected_by(self):
        fp = StaticFootprint(tables=frozenset({"users"}))
        assert fp.affected_by({"users"})
        assert not fp.affected_by({"topics"})
        assert fp.affected_by({WILDCARD})
        assert StaticFootprint(wildcard=True).affected_by({"whatever"})

    def test_to_method_deps_wildcard(self):
        deps = StaticFootprint(tables=frozenset({"users"}),
                               wildcard=True).to_method_deps()
        assert WILDCARD in deps.tables and "users" in deps.tables


@pytest.fixture
def rdl():
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    db.create_table("emails", email="string", user_id="integer")
    db.declare_association("users", "emails")
    rdl = CompRDL(db=db)
    rdl.load(
        'class User < ActiveRecord::Base\n'
        '  type "() -> String", typecheck: :demo\n'
        '  def best_email\n'
        '    Email.where({ user_id: 1 }).first.email\n'
        '  end\n'
        'end\n'
        'class Email < ActiveRecord::Base\n'
        'end\n')
    return rdl


class TestAnalyzer:
    def test_own_and_const_tables_inferred(self, rdl):
        analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
        fp = analyzer.footprint_of(MethodKey("User", "best_email", False))
        assert "users" in fp.tables
        assert "emails" in fp.tables
        # columns close over existing columns of the static tables
        assert ("emails", "email") in fp.columns

    def test_footprint_covers_dynamic_deps(self, rdl):
        rdl.check_all("demo")
        analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
        key = MethodKey("User", "best_email", False)
        deps = rdl.incremental.tracker.deps_of(key)
        assert deps is not None and deps.tables
        assert analyzer.footprint_of(key).covers(deps)

    def test_cache_invalidated_by_schema_change(self, rdl):
        analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
        key = MethodKey("User", "best_email", False)
        before = analyzer.footprint_of(key)
        assert ("users", "staged") in before.columns
        rdl.db.drop_column("users", "staged")
        after = analyzer.footprint_of(key)
        assert ("users", "staged") not in after.columns

    def test_reach_includes_table_reading_natives(self, rdl):
        analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
        entry = analyzer.comp_entry("where")
        assert entry is not None
        codes, reach, reads = entry
        assert reads
        assert codes

    def test_unparseable_comp_has_empty_reach(self, rdl):
        analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
        assert analyzer.reach_of("def broken") == frozenset()
