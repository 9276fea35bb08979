"""Tests for the benchmark's seeded migration generator.

Run from the repository root: ``python3 -m pytest perfbench/test_migrations.py``
"""

from __future__ import annotations

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import pytest  # noqa: E402

from migrations import MigrationStream  # noqa: E402
from repro.apps import all_apps  # noqa: E402
from repro.db.schema import Database  # noqa: E402


def _schema(app) -> dict[str, list[str]]:
    db = Database()
    app.setup_db(db)
    return {name: list(schema.columns) for name, schema in db.tables.items()}


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.label)
def test_same_seed_same_sequence(app):
    tables = _schema(app)
    first = MigrationStream(tables, seed=7)
    second = MigrationStream(tables, seed=7)
    assert [first.next() for _ in range(300)] \
        == [second.next() for _ in range(300)]


def test_different_seeds_differ():
    tables = _schema(all_apps()[2])
    first = MigrationStream(tables, seed=1)
    second = MigrationStream(tables, seed=2)
    assert [first.next() for _ in range(50)] \
        != [second.next() for _ in range(50)]


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.label)
def test_schema_width_stays_bounded(app):
    db = Database()
    app.setup_db(db)
    base_tables = len(db.tables)
    base_width = {name: len(schema.columns) for name, schema in db.tables.items()}
    start = db.version
    stream = MigrationStream(_schema(app), seed=3)
    for _ in range(2000):
        stream.next().apply(db)
        assert len(db.tables) <= base_tables + 1
        for name, width in base_width.items():
            assert len(db.tables[name].columns) <= width + 1
    # no step was a no-op: each one bumped the schema generation
    assert db.version - start == 2000


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.label)
def test_stream_returns_to_the_original_schema(app):
    """Every benchmark change is undone by a later step, so the schema the
    stream leaves between changes is the app's own."""
    db = Database()
    app.setup_db(db)
    original = _schema(app)
    stream = MigrationStream(original, seed=11)
    returns = 0
    for _ in range(500):
        stream.next().apply(db)
        if stream.pending is None:
            assert {name: list(schema.columns)
                    for name, schema in db.tables.items()} == original
            returns += 1
    assert returns > 50
