"""The fault-injection layer, and the failure paths it exists to pin.

Unit tests cover the :mod:`repro.obs.faults` spec/arming machinery
in-process; the spawn tests inject real faults into live session workers
and assert the engine degrades the way the robustness contract promises —
deadline instead of hang, poison instead of divergence, serial fallback
instead of a wrong verdict.
"""

import multiprocessing
import sqlite3
import time

import pytest

from repro.obs import faults

# ---------------------------------------------------------------------------
# spec + arming machinery (in-process)
# ---------------------------------------------------------------------------


@pytest.fixture(autouse=True)
def _clean_faults():
    yield
    faults.clear()


def test_spec_encode_decode_round_trip():
    spec = faults.FaultSpec(site="worker.CheckRequest", action="wedge",
                            arg="2.5", after=1, times=3)
    assert faults.FaultSpec.decode(spec.encode()) == spec
    bare = faults.FaultSpec(site="db.replay.event", action="die")
    assert faults.FaultSpec.decode(bare.encode()) == bare


@pytest.mark.parametrize("token", [
    "", "noequals", "site=", "site=explode:x:0:1", "site=wedge:1:0",
])
def test_decode_rejects_malformed(token):
    with pytest.raises(ValueError):
        faults.FaultSpec.decode(token)


def test_fire_respects_after_and_times():
    faults.inject("unit.site", "error", arg="boom", after=1, times=2)
    faults.fire("unit.site")  # arrival 1: within `after`, must not fire
    for _ in range(2):        # arrivals 2 and 3: fire
        with pytest.raises(faults.InjectedFault):
            faults.fire("unit.site")
    faults.fire("unit.site")  # arrival 4: `times` exhausted, inert again


def test_operational_error_kind():
    faults.inject("unit.storage", "error", arg="operational")
    with pytest.raises(sqlite3.OperationalError):
        faults.fire("unit.storage")


def test_disabled_fire_is_inert():
    assert not faults.enabled()
    faults.fire("anywhere")  # must be a no-op, not a KeyError


def test_clear_disarms_everything():
    faults.inject("unit.a", "error")
    assert faults.enabled() and faults.active()
    faults.clear()
    assert not faults.enabled() and not faults.active()
    faults.fire("unit.a")


def test_env_round_trip():
    environ: dict = {}
    faults.inject("unit.a", "wedge", arg="1.5", after=2, times=0)
    faults.inject("unit.b", "error", arg="operational")
    faults.set_env(environ)
    faults.clear()
    assert faults.load_env(environ)
    armed = faults.active()
    assert armed["unit.a"] == faults.FaultSpec(
        site="unit.a", action="wedge", arg="1.5", after=2, times=0)
    assert armed["unit.b"].arg == "operational"
    # clearing the armed set and publishing removes the variable
    faults.clear()
    faults.set_env(environ)
    assert "REPRO_FAULTS" not in environ


def test_load_env_ignores_malformed_tokens():
    environ = {"REPRO_FAULTS": "garbage;;unit.ok=error::0:1;also=bad"}
    assert faults.load_env(environ)
    assert list(faults.active()) == ["unit.ok"]


# ---------------------------------------------------------------------------
# satellite: a partial delta replay must poison the worker-side session
# ---------------------------------------------------------------------------


def test_partial_delta_poisons_session():
    from repro.apps import app_for_label
    from repro.parallel import worker
    from repro.parallel.protocol import (
        AttachUniverse,
        CheckRequest,
        SessionDelta,
    )

    sessions: dict = {}
    ack = worker._serve(sessions, AttachUniverse(
        session_id="s", label="huginn", backend="memory"))
    src = app_for_label("huginn").build(backend="memory")
    base = ack.generation
    assert src.db.version == base
    src.db.add_column("agents", "fz_poison_a", "integer")
    src.db.add_column("events", "fz_poison_b", "integer")
    events = tuple(e.to_wire() for e in src.db.journal.events_since(base))
    assert len(events) == 2

    # fail on the second event: a genuine half-migrated replica
    faults.inject("db.replay.event", "error", arg="boom", after=1, times=1)
    with pytest.raises(faults.InjectedFault):
        worker._serve(sessions, SessionDelta(session_id="s", events=events))

    # the session must be gone — serving it would check divergent state
    assert "s" not in sessions
    with pytest.raises(KeyError):
        worker._serve(sessions, CheckRequest(session_id="s", shard_id=0))


# ---------------------------------------------------------------------------
# spawn tests: injected faults against live session workers
# ---------------------------------------------------------------------------


@pytest.mark.slow
def test_injected_wedge_hits_recv_deadline(monkeypatch):
    """Satellite regression: a wedged worker reply must raise within the
    recv deadline instead of blocking forever (the pre-deadline behaviour
    was an unbounded ``Connection.recv``)."""
    from repro.parallel.protocol import AttachUniverse
    from repro.parallel.sessions import SessionWorkerHandle, WorkerWedged

    monkeypatch.setenv("REPRO_FAULTS", "worker.AttachUniverse=wedge:30:0:1")
    ctx = multiprocessing.get_context("spawn")
    handle = SessionWorkerHandle(ctx, 0, deadline_s=1.0)
    try:
        handle.send(AttachUniverse(session_id="s", label=""))
        start = time.monotonic()
        with pytest.raises(WorkerWedged):
            handle.recv()
        # the 30s wedge must not be waited out
        assert time.monotonic() - start < 15.0
        assert not handle.alive
    finally:
        handle.close()


@pytest.mark.slow
def test_faults_profile_storm_degrades_gracefully():
    from repro.fuzz import StormConfig, run_storm
    from repro.fuzz.harness import max_wall_bound

    config = StormConfig(seed=0, steps=12, profile="faults", deadline_s=1.5)
    report = run_storm(config)
    assert report.ok, report.summary()
    assert report.wall_s <= max_wall_bound(config), report.summary()
