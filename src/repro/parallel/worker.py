"""The worker side of the warm session protocol.

Runs inside a spawn-mode child process (every function here must be
importable from a fresh interpreter — no closures, no inherited state).

:func:`session_main` is a stateful dispatch loop over a pipe, keyed by
session id.  ``AttachUniverse`` builds the session's replica of its
subject app once; ``SessionDelta`` replays schema-journal events and
post-build load records against it (journal-replay parity: after a delta
the replica's generation and ``schema_hash()`` equal the engine's);
``CheckRequest`` checks a slice of method keys against the warm replica —
no rebuild — and ships back picklable verdicts together with the
dependency footprints the checker recorded, so the engine can back-feed
its incremental dependency graph.
"""

from __future__ import annotations

import os
import time

from repro.incremental.versioning import SchemaEvent
from repro.obs import faults as obs_faults
from repro.obs import provenance as obs_prov
from repro.obs import spans as obs_spans

_FAULTS_ON = obs_faults.ENABLED  # cached cell: zero-cost guard when off
from repro.parallel.protocol import (
    AttachAck,
    AttachUniverse,
    CheckRequest,
    DeltaAck,
    DetachAck,
    DetachSession,
    MethodVerdict,
    SessionDelta,
    SessionError,
    ShardResult,
    Shutdown,
    encode_error,
)


def _trace_begin(message) -> int | None:
    """Set this process's tracing state from the request and return the
    span-buffer mark to drain from, or ``None`` when tracing is off.

    Workers are spawned, so they inherit the *environment* but not the
    parent's flag — each request re-derives the state from its ``trace``
    field (the engine stamps it with its own flag) or ``REPRO_TRACE``.
    The mark confines the reply to this request's spans, even in a
    process whose buffer already holds spans recorded before it.

    The provenance flag is re-derived the same way (``provenance`` field /
    ``REPRO_PROVENANCE``), so per-verdict attribution in
    :func:`check_keys_into` follows each request.
    """
    obs_spans.set_enabled(bool(getattr(message, "trace", False))
                          or obs_spans.env_enabled())
    obs_prov.set_enabled(bool(getattr(message, "provenance", False))
                         or obs_prov.env_enabled())
    return obs_spans.mark() if obs_spans.enabled() else None


def _trace_end(reply, mark: int | None):
    """Move this request's spans onto the reply (which pickles home)."""
    if mark is not None:
        reply.spans = tuple(obs_spans.drain(mark))
    return reply


# ---------------------------------------------------------------------------
# session service: a stateful dispatch loop keyed by session id
# ---------------------------------------------------------------------------

def session_main(conn) -> None:
    """Serve session messages over ``conn`` until shutdown or EOF.

    The spawn entry point for warm workers.  All state — one live replica
    per session id — lives in this loop's locals; a reply
    is sent for every request (``SessionError`` on failure, so one bad
    request never wedges the engine), and the loop only exits on
    :class:`Shutdown`, a closed pipe, or a dead parent.
    """
    sessions: dict[str, dict[str, object]] = {}
    # spawn children inherit env, not the parent's cells: re-arm any
    # injected faults published through REPRO_FAULTS (fuzz harness)
    obs_faults.load_env()
    while True:
        try:
            message = conn.recv()
        except (EOFError, OSError):
            break
        if isinstance(message, Shutdown):
            break
        try:
            if _FAULTS_ON[0]:
                # inside the try: an `error` fault becomes a SessionError
                # reply, a `wedge` delays the reply past the engine's recv
                # deadline, a `die` kills this process mid-conversation
                obs_faults.fire(f"worker.{type(message).__name__}")
            reply = _serve(sessions, message)
        except Exception as exc:  # noqa: BLE001 — ship it, keep serving
            reply = SessionError(
                session_id=getattr(message, "session_id", ""),
                request=type(message).__name__,
                error=f"{type(exc).__name__}: {exc}",
            )
        try:
            conn.send(reply)
        except (BrokenPipeError, OSError):
            break
    conn.close()


def _serve(sessions: dict, message):
    if isinstance(message, AttachUniverse):
        return _attach(sessions, message)
    if isinstance(message, SessionDelta):
        return _apply_delta(sessions, message)
    if isinstance(message, CheckRequest):
        return _check_session(sessions, message)
    if isinstance(message, DetachSession):
        sessions.pop(message.session_id, None)
        return DetachAck(session_id=message.session_id)
    raise TypeError(f"unknown session message {type(message).__name__}")


def _attach(sessions: dict, message: AttachUniverse) -> AttachAck:
    from repro.apps import app_for_label

    trace_mark = _trace_begin(message)
    with obs_spans.span("session.attach", label=message.session_id):
        rdl = app_for_label(message.label).build(backend=message.backend)
    # replace only once built: a re-attach (crash recovery, journal gap)
    # must not leave a half-built replica behind a failed build
    sessions[message.session_id] = rdl
    ack = AttachAck(session_id=message.session_id,
                    generation=rdl.db.version, pid=os.getpid())
    return _trace_end(ack, trace_mark)


def _session_of(sessions: dict, session_id: str):
    rdl = sessions.get(session_id)
    if rdl is None:
        raise KeyError(f"no attached session {session_id!r} "
                       f"(worker pid {os.getpid()} was restarted?)")
    return rdl


def _apply_delta(sessions: dict, message: SessionDelta) -> DeltaAck:
    trace_mark = _trace_begin(message)
    rdl = _session_of(sessions, message.session_id)
    events = [SchemaEvent.from_wire(record) for record in message.events]
    ack = DeltaAck(session_id=message.session_id, pid=os.getpid())
    with obs_spans.span("session.delta", label=message.session_id) as sp:
        sp.set("events", len(events))
        sp.set("loads", len(message.loads))
        try:
            ack.events_applied = rdl.db.replay(events)
            for source in message.loads:
                rdl.load(source)
                ack.loads_applied += 1
        except Exception:
            # a partial replay leaves the replica half-migrated; it must
            # never serve another request, so poison the session — the
            # next round's request errors ("no attached session"), forcing
            # a cold re-attach instead of replaying onto divergent state
            sessions.pop(message.session_id, None)
            raise
    ack.generation = rdl.db.version
    return _trace_end(ack, trace_mark)


def _check_session(sessions: dict, message: CheckRequest) -> ShardResult:
    trace_mark = _trace_begin(message)
    rdl = _session_of(sessions, message.session_id)
    result = ShardResult(shard_id=message.shard_id, pid=os.getpid())
    with obs_spans.span("session.check", label=message.session_id) as sp:
        sp.set("methods", len(message.keys))
        check_keys_into(result, rdl, message.keys)
    return _trace_end(result, trace_mark)


def check_keys_into(result: ShardResult, rdl, keys) -> None:
    """Check ``keys`` in order against ``rdl``, appending verdicts to
    ``result``.  This loop is the single place the verdict wire format is
    produced; a verdict always carries the dependency footprint the
    checker recorded for it, because the engine's scheduler re-dirties
    cached verdicts by nothing else."""
    cpu_start = time.process_time()
    prov_on = obs_prov.enabled()
    checker = rdl.checker
    tracker = checker.engine.deps
    for key in keys:
        # per-verdict comp-cache attribution rides the always-on stats
        # counters; one delta per *method* stays far off the comp microloop
        cap = obs_prov.capture(checker.engine.stats)
        check_start = time.perf_counter()
        with cap:
            desc, errors, casts, oracle = checker.check_one(
                key.class_name, key.method_name, key.static)
        cost = time.perf_counter() - check_start
        deps = tracker.deps_of(key)
        if deps is None:
            raise RuntimeError(f"checking {key} recorded no dependency "
                               f"footprint")
        result.check_s += cost
        result.verdicts.append(MethodVerdict(
            key=key,
            desc=desc,
            deps=deps,
            errors=[encode_error(e) for e in errors],
            casts_used=casts,
            oracle_casts=oracle,
            cost_s=cost,
            prov=((cap.comp_hits, cap.comp_misses) if prov_on else None),
        ))
    result.cpu_s += time.process_time() - cpu_start
