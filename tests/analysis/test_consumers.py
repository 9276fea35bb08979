"""Static analysis has no consumers: ``CompRDL.analyze()`` only reports.

Each class pins one former consumer — scheduler re-dirtying, planner
costs, warm delta syncs — to its dynamic inputs, with an analysis report
in place that it must ignore.
"""

import pytest

from repro.apps import app_for_label
from repro.incremental.stats import IncrementalStats
from repro.parallel.planner import (
    BASE_METHOD_COST,
    COMP_SITE_COST,
    comp_site_count,
    method_cost,
)
from repro.typecheck.registry import MethodKey


@pytest.fixture
def rdl():
    app = app_for_label("discourse")
    rdl = app.build()
    rdl.check_all(app.label)
    return rdl


class TestSchedulerStaticDirty:
    def test_verdicts_with_dynamic_deps_unaffected_by_seeding(self, rdl):
        from repro.incremental.versioning import WILDCARD

        scheduler = rdl.incremental
        rdl.analyze()
        rdl.db.create_table("unrelated_things", note="string")
        # an unrelated migration dirties exactly the methods whose
        # *dynamic* footprint is wildcard, analysis or not
        assert scheduler.dirty == {
            key for key in scheduler.results
            if WILDCARD in scheduler.tracker.deps_of(key).tables}
        snapshot = rdl.metrics_snapshot()
        assert not any(key.startswith("analysis.") and key not in
                       ("analysis.diagnostics", "analysis.wildcards")
                       for key in snapshot)


class TestPlannerStaticCost:
    def test_static_cost_used_when_no_observation(self, rdl):
        # the planner's one static cost is the comp-site heuristic; an
        # analysis report does not change it
        key = MethodKey("User", "staff_count", True)
        unobserved = IncrementalStats()
        before = method_cost(key, rdl.registry, unobserved)
        rdl.analyze()
        node = rdl.registry.defined_methods[key]
        assert method_cost(key, rdl.registry, unobserved) == before == \
            BASE_METHOD_COST + COMP_SITE_COST * comp_site_count(node)

    def test_observed_cost_still_wins(self, rdl):
        rdl.analyze()
        key = MethodKey("User", "staff_count", True)
        stats = rdl.incremental_stats
        stats.method_costs[str(key)] = 0.123
        assert method_cost(key, rdl.registry, stats) == pytest.approx(0.123)


class TestWarmDeltaSkip:
    def test_warm_round_syncs_despite_disjoint_delta(self):
        """A warm round ships the journal delta even when it touches no
        table a pending method's static footprint names."""
        app = app_for_label("journey")
        rdl = app.build()
        rdl.check_all(app.label)
        scheduler = rdl.incremental
        try:
            # round 1 needs pending work, or it returns before attaching
            del scheduler.results[MethodKey("Survey", "display_title",
                                            False)]
            rdl.recheck_dirty(workers=2)  # cold attach + sync
            assert rdl.warm_engine.last_warm_run.remote

            key = MethodKey("Question", "label", False)
            footprint = rdl.analyze().footprints[key]
            assert not footprint.wildcard
            assert "warm_unrelated" not in footprint.tables
            del scheduler.results[key]
            rdl.db.create_table("warm_unrelated", note="string")

            report = rdl.recheck_dirty(workers=2)
            assert rdl.warm_engine.last_warm_run.remote
            workers = rdl.warm_engine._attached_workers()
            assert workers
            assert all(handle.synced_generation == rdl.db.version
                       for handle in workers)
            assert len(report.errors) == app.expected_errors
        finally:
            rdl.shutdown_warm()
