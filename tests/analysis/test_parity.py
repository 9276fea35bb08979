"""The static ⊇ dynamic soundness contract, asserted over every paper app.

For every method the checker records dynamic dependencies for, the static
footprint must cover them — on both storage backends.
"""

import pytest

from repro.analysis.footprint import FootprintAnalyzer
from repro.apps import all_apps


@pytest.mark.parametrize("backend", ["memory", "sqlite"])
@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.label)
def test_static_covers_dynamic(app, backend):
    rdl = app.build(backend=backend)
    rdl.check_all(app.label)
    analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
    checked = 0
    for key in rdl.incremental.results:
        deps = rdl.incremental.tracker.deps_of(key)
        if deps is None:
            continue
        checked += 1
        footprint = analyzer.footprint_of(key)
        assert footprint.covers(deps), (
            f"{app.label} {key}: static footprint does not cover dynamic "
            f"deps\n  static tables: {sorted(footprint.tables)} "
            f"(wildcard={footprint.wildcard})\n"
            f"  dynamic tables: {sorted(deps.tables)}\n"
            f"  missing columns: "
            f"{sorted(set(deps.columns) - set(footprint.columns))[:8]}\n"
            f"  missing comps: "
            f"{len(set(deps.comps) - set(footprint.comps))}")
    assert checked > 0, f"{app.label}: no dynamic deps recorded at all"


@pytest.mark.parametrize("app", all_apps(), ids=lambda app: app.label)
def test_parity_survives_migration(app):
    """After a migration, re-inferred footprints still cover re-recorded
    dynamic deps (the analyzer's index invalidates on schema changes)."""
    rdl = app.build()
    rdl.check_all(app.label)
    tables = rdl.incremental.table_fanout()
    target = max(sorted(t for t in tables if t in rdl.db.tables),
                 key=lambda t: tables[t], default=None)
    if target is None:
        pytest.skip(f"{app.label} reads no concrete tables")
    analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
    rdl.db.add_column(target, "parity_probe", "string")
    rdl.recheck_dirty()
    for key in rdl.incremental.results:
        deps = rdl.incremental.tracker.deps_of(key)
        if deps is None:
            continue
        assert analyzer.footprint_of(key).covers(deps), \
            f"{app.label} {key}: coverage lost after migrating {target}"
