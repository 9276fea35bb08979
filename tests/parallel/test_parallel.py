"""Integration tests: ``check_all(workers=N)`` on warm session workers.

Every report is compared against a serial twin; the parallel check must
also leave the incremental engine exactly as a serial check would, so a
later ``recheck_dirty`` (serial or warm) behaves identically.
"""

import pytest

from repro import obs
from repro.apps import all_apps, app_for_label
from repro.parallel import (
    AttachUniverse,
    CheckRequest,
    MethodSpec,
    ParallelCheckEngine,
    feed_incremental,
    worker,
)

APPS = {app.label: app for app in all_apps()}


def _serial_key(report):
    return (list(report.checked_methods), [str(e) for e in report.errors],
            report.casts_used, report.oracle_casts)


@pytest.fixture()
def traced():
    """Tracing on with empty buffers and counters; restored afterwards."""
    was_enabled = obs.enabled()
    obs.reset()
    obs.enable()
    yield
    obs.reset()
    obs.set_enabled(was_enabled)


def test_app_for_label_resolves_and_rejects():
    assert app_for_label("huginn").label == "huginn"
    assert app_for_label(":huginn").label == "huginn"
    with pytest.raises(KeyError):
        app_for_label("nonesuch")


def test_run_shard_matches_serial_verdicts():
    # one shard served by a session worker's dispatch (in-process): its
    # adopted verdicts assemble a report equal to a serial check
    app = APPS["journey"]
    sessions: dict = {}
    worker._serve(sessions, AttachUniverse(session_id="s",
                                           labels=(app.label,)))
    rdl = app.build()
    scheduler = rdl.incremental
    scheduler.labels.append(app.label)
    keys = scheduler.keys_for([app.label])
    specs = tuple(MethodSpec(app.label, key.class_name, key.method_name,
                             key.static) for key in keys)
    result = worker._serve(sessions, CheckRequest(session_id="s",
                                                  shard_id=0, specs=specs))
    assert [v.spec for v in result.verdicts] == list(specs)

    feed_incremental(scheduler, [result], generation=rdl.db.version)
    report = scheduler.resolve(keys)
    serial = app.build().check(app.label)
    assert _serial_key(report) == _serial_key(serial)
    # every verdict was adopted, none rechecked in-process
    assert rdl.incremental_stats.methods_checked == 0
    # dependency footprints travel with the verdicts
    assert any(v.deps is not None and v.deps.tables for v in result.verdicts)


def test_check_all_with_workers_matches_serial_and_feeds_incremental():
    app = APPS["huginn"]
    rdl = app.build()
    try:
        report = rdl.check_all(app.label, workers=2)
        assert rdl.warm_engine.last_warm_run.remote

        serial = app.build().check(app.label)
        assert _serial_key(report) == _serial_key(serial)

        # the parallel check must leave the incremental engine fully
        # populated: every verdict came from a worker, with the dependency
        # footprint the worker's checker recorded
        stats = rdl.incremental_stats
        assert stats.methods_checked_parallel == len(serial.checked_methods)
        assert stats.methods_checked == 0
        assert stats.parallel_shards >= 1
        assert not rdl.incremental.dirty
        tracker = rdl.incremental.tracker
        assert any(tracker.deps_of(key) is not None
                   and tracker.deps_of(key).tables
                   for key in rdl.incremental.results)

        # a migration dirties only dependents, and recheck_dirty stays
        # verdict-for-verdict equal to a fresh full check
        table = next(iter(rdl.db.tables))
        rdl.db.add_column(table, "parallel_migration_col", "string")
        incremental = rdl.recheck_dirty()

        fresh = app.build()
        fresh.db.add_column(table, "parallel_migration_col", "string")
        full = fresh.check(app.label)
        assert sorted(str(e) for e in incremental.errors) == \
            sorted(str(e) for e in full.errors)
        assert sorted(incremental.checked_methods) == \
            sorted(full.checked_methods)
    finally:
        rdl.shutdown_warm()


def test_shared_engine_checks_several_universes_like_serial():
    # one fleet serves one universe after another: each check_all
    # re-attaches, and the engine's cost model learns from every round
    with ParallelCheckEngine(workers=2) as engine:
        for label in ("twitter", "huginn"):
            rdl = APPS[label].build()
            report = engine.check_all(rdl, label)
            serial = APPS[label].build().check(label)
            assert _serial_key(report) == _serial_key(serial)
            assert engine.last_warm_run.remote
            # observed costs flow back into the universe's planner model
            assert rdl.incremental_stats.method_costs


def test_check_all_workers_rejects_unknown_labels(traced):
    # a label without a subject app cannot be replicated on a worker: the
    # fleet rejects it before spawning anything, and the check runs on
    # the serial path — same report, with the reason on record
    from repro import CompRDL

    source = """
class C
  type :m, "() -> nil", typecheck: :unknown_fleet_label
  def m()
    nil
  end
end
"""
    rdl = CompRDL()
    rdl.load(source)
    serial = CompRDL()
    serial.load(source)
    report = rdl.check_all("unknown_fleet_label", workers=2)
    assert _serial_key(report) == \
        _serial_key(serial.check_all("unknown_fleet_label"))
    assert report.ok()
    engine = rdl.warm_engine
    run = engine.last_warm_run
    assert not run.remote
    assert "unknown_fleet_label" in run.fallback_reason
    assert engine._session_pool is None  # no worker was spawned
    # the fallback is observable: a trace event and a metrics counter
    fallbacks = [e for e in obs.events() if e["name"] == "warm.fallback"]
    assert fallbacks and \
        "unknown_fleet_label" in fallbacks[0]["args"]["reason"]
    snap = rdl.metrics_snapshot()
    assert snap["sessions.fallbacks"] == 1
    assert snap["warm.fallbacks"] == 1


def test_methods_loaded_after_build_fall_back_to_serial_verdicts():
    # a worker rebuilds the *pristine* app, which does not contain this
    # class: the session replays the post-build load on every replica, and
    # check_all(workers=N) must produce the same verdicts as the serial
    # path, including the new method
    probe = """
class ParallelProbe
  type :"self.answer", "() -> Integer", typecheck: :huginn
  def self.answer()
    42
  end
end
"""
    app = APPS["huginn"]
    rdl = app.build()
    rdl.load(probe)
    serial = app.build()
    serial.load(probe)
    try:
        serial_report = serial.check(app.label)
        report = rdl.check_all(app.label, workers=2)
        assert _serial_key(report) == _serial_key(serial_report)
        assert "ParallelProbe.answer" in report.checked_methods
        assert rdl.warm_engine.last_warm_run.remote
    finally:
        rdl.shutdown_warm()


def test_duplicate_label_annotations_register_one_method_entry():
    # two annotations under the same label must not double-check the method:
    # serial check_label and the fleet both walk methods_for_label, and
    # verdict parity needs them to agree on the count
    from repro import CompRDL
    from repro.typecheck.registry import MethodKey

    rdl = CompRDL(install_libraries=False)
    rdl.registry.annotate("C", "m", "(Integer) -> Integer", label="dup")
    rdl.registry.annotate("C", "m", "(String) -> String", label="dup")
    assert rdl.registry.methods_for_label("dup") == [MethodKey("C", "m", False)]


def test_post_build_migration_verdicts_match_the_live_universe():
    # workers build the *pristine* app, but the parent mutated its schema
    # after build: the session replays the journal delta before checking,
    # so the report matches the live universe, not the pristine one
    app = APPS["discourse"]
    rdl = app.build()
    rdl.db.drop_column("users", "username")
    try:
        report = rdl.check_all(app.label, workers=2)
        assert rdl.warm_engine.last_warm_run.remote

        serial = app.build()
        serial.db.drop_column("users", "username")
        serial_report = serial.check_all(app.label)
        assert _serial_key(report) == _serial_key(serial_report)
        assert not report.ok()  # the dropped column is a real comp-type error
        assert not rdl.incremental.dirty  # everything was resolved
    finally:
        rdl.shutdown_warm()


def test_check_all_then_recheck_dirty_reuses_the_session(attach_log):
    # check_all(workers=N) leaves the session attached: the migrate →
    # recheck round that follows ships a journal delta, never an attach
    app = APPS["discourse"]
    rdl = app.build()
    serial = app.build()
    try:
        assert _serial_key(rdl.check_all(app.label, workers=2)) == \
            _serial_key(serial.check_all(app.label))
        assert attach_log  # the cold check attached the workers
        attaches = len(attach_log)

        rdl.db.drop_column("users", "username")
        serial.db.drop_column("users", "username")
        report = rdl.recheck_dirty(workers=2)
        assert _serial_key(report) == _serial_key(serial.recheck_dirty())
        assert rdl.warm_engine.last_warm_run.remote
        assert len(attach_log) == attaches  # zero AttachUniverse messages
    finally:
        rdl.shutdown_warm()


def test_check_all_scopes_report_to_requested_labels():
    # a second check_all for a different label must not sweep the first
    # label's cached verdicts into its report
    from repro import CompRDL, Database

    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load("""
class A
  type :"self.one", "() -> Integer", typecheck: :la
  def self.one()
    1
  end
end
class B
  type :"self.two", "() -> Integer", typecheck: :lb
  def self.two()
    2
  end
end
""")
    assert rdl.check_all("la").checked_methods == ["A.one"]
    assert rdl.check_all("lb").checked_methods == ["B.two"]
    # recheck_dirty still covers every label checked so far
    assert sorted(rdl.recheck_dirty().checked_methods) == ["A.one", "B.two"]


def test_check_all_workers_scopes_report_to_requested_labels():
    # after a remote check of the app's label, a second label without a
    # subject app makes the universe unreplicable: that round runs
    # serially, and its report still covers exactly the requested label
    app = APPS["huginn"]
    rdl = app.build()
    try:
        first = rdl.check_all(app.label, workers=2)
        assert rdl.warm_engine.last_warm_run.remote
        rdl.load("""
class ScopeProbe
  type :"self.one", "() -> Integer", typecheck: :scope_probe
  def self.one()
    1
  end
end
""")
        second = rdl.check_all("scope_probe", workers=2)
        assert second.checked_methods == ["ScopeProbe.one"]
        run = rdl.warm_engine.last_warm_run
        assert not run.remote and "scope_probe" in run.fallback_reason
        # recheck_dirty covers every label checked so far
        everything = rdl.recheck_dirty(workers=2)
        assert everything.checked_methods == \
            first.checked_methods + ["ScopeProbe.one"]
    finally:
        rdl.shutdown_warm()
