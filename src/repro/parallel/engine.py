"""The parallel checking fleet: warm session workers and their rounds.

:class:`ParallelCheckEngine` is the one parallel path.  Session workers
attach a live universe once — each builds a pristine replica of the
universe's subject app — then receive schema-journal deltas plus
post-build load records, and check only the methods a round needs:

* :meth:`ParallelCheckEngine.check_all` — the ``CompRDL.check_all(labels,
  workers=N)`` backend: the labels join the universe's scheduler, their
  dirty / never-checked methods are sharded across session workers, and
  the verdicts and dependency footprints are adopted back into the
  scheduler, so ``recheck_dirty()`` behaves exactly as after a serial
  check;
* :meth:`ParallelCheckEngine.recheck_dirty` — the same round over every
  label the scheduler tracks (``CompRDL.recheck_dirty(workers=N)``).

Either way the report is verdict-for-verdict identical to the serial
incremental path.  Deltas that cannot be bounded (a post-build method
*re*definition — a redefined type-level helper can change any verdict,
which no dependency footprint bounds — or a journal that has forgotten
the needed events) run the round on that serial path instead.
"""

from __future__ import annotations

import os
import time

from repro.incremental.stats import IncrementalStats
from repro.obs import provenance as obs_prov
from repro.obs import spans as obs_spans
from repro.parallel.merge import feed_incremental
from repro.parallel.planner import Shard, plan_shards
from repro.parallel.protocol import (
    AttachUniverse,
    CheckRequest,
    DetachSession,
    SessionDelta,
    ShardResult,
)
from repro.parallel.sessions import (
    DEADLINE_S,
    SessionPool,
    SessionRequestFailed,
    WarmRun,
    WorkerLost,
    new_session_id,
)
from repro.typecheck.errors import TypeErrorReport

#: session-sync retry budget: a lost/failed sync drops the pool (stale
#: pipes cannot be resynchronized) and cold-reattaches a fresh one after
#: an exponential backoff
SYNC_ATTEMPTS = 3
SYNC_BACKOFF_S = 0.05


class WarmSyncError(RuntimeError):
    """A warm session could not be converged with the live universe."""


def _normalize_labels(labels) -> list[str]:
    if isinstance(labels, str):
        labels = [labels]
    return [label.lstrip(":") for label in labels]


class ParallelCheckEngine:
    """A persistent fleet of warm session workers."""

    def __init__(self, workers: int | None = None,
                 stats: IncrementalStats | None = None,
                 backend: str | None = None,
                 deadline_s: float | None = None):
        self.workers = max(1, workers or os.cpu_count() or 1)
        # per-recv reply deadline for session workers (None → the process
        # default in sessions.DEADLINE_S); a wedged worker is killed and
        # re-planned around instead of blocking the engine forever
        self.deadline_s = deadline_s
        # storage backend name the workers build their replicas against
        # (None → the attached universe's own backend); only the name
        # crosses the process boundary, never a connection
        self.backend = backend
        self.stats = stats or IncrementalStats()
        # a pool of stateful session workers plus the universe (and its
        # one label) currently attached to them
        self._session_pool: SessionPool | None = None
        self._attached_rdl = None
        self._attached_label: str | None = None
        self._session_id: str | None = None
        self.last_warm_run: WarmRun | None = None

    def close(self) -> None:
        if self._session_pool is not None:
            self._session_pool.close()
            self._session_pool = None
        self._attached_rdl = None
        self._attached_label = None
        self._session_id = None

    def __enter__(self) -> "ParallelCheckEngine":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # warm sessions: attach / migrate / check_all / recheck_dirty
    # ------------------------------------------------------------------
    def attach(self, rdl, labels=None) -> str:
        """Attach a live universe to warm session workers.

        Each session worker builds a pristine replica of the label's
        subject app once (the cold step) and keeps it alive; afterwards
        :meth:`migrate` ships journal deltas instead of rebuilds and
        :meth:`check_all` checks only pending methods remotely.  Raises
        ``ValueError`` when the universe cannot be warm-replicated (see
        :meth:`warm_block_reason`); returns the session id.
        """
        labels = (_normalize_labels(labels) if labels is not None
                  else list(rdl.incremental.labels))
        reason = self.warm_block_reason(rdl, labels)
        if reason is not None:
            raise ValueError(f"cannot attach a warm session: {reason}")
        if self._session_id is not None:
            self.detach()  # workers must not serve a stale session's replicas
        self._attached_rdl = rdl
        # warm_block_reason refuses anything but exactly one label
        self._attached_label = labels[0]
        self._session_id = new_session_id()
        self.last_warm_run = None
        try:
            self._sync_session(rdl)
        except (WarmSyncError, WorkerLost, SessionRequestFailed):
            self._abort_session()
            raise
        return self._session_id

    def migrate(self, rdl=None) -> int:
        """Converge every session worker with the live universe now
        (journal events + post-build load records).  Returns the synced
        generation.  Implicitly called by :meth:`check_all`; exposed for
        callers that want to overlap delta replay with other work."""
        rdl = self._require_attached(rdl)
        try:
            self._sync_session(rdl)
        except (WarmSyncError, WorkerLost, SessionRequestFailed):
            self._abort_session()
            raise
        return rdl.db.version

    def check_all(self, rdl, labels) -> TypeErrorReport:
        """Check ``labels`` of a live universe across warm workers.

        The warm counterpart of ``IncrementalScheduler.check_all``: the
        labels join the scheduler's label list, their dirty / never-checked
        methods are sharded across session workers (after an attach or a
        delta sync), the verdicts and dependency footprints are adopted
        back into the scheduler, and the returned report covers exactly
        ``labels`` — verdict-for-verdict identical to the serial path.
        Falls back to that serial path whenever the delta cannot be
        bounded or the session cannot be converged; a worker death
        mid-round re-plans the lost shard onto surviving workers, so the
        round always completes.
        """
        labels = _normalize_labels(labels)
        scheduler = rdl.incremental
        for label in labels:
            if label not in scheduler.labels:
                scheduler.labels.append(label)
        serial_keys = scheduler.keys_for(labels)
        # the session replicates the labels the scheduler tracks, so a
        # later round over them finds it attached
        session_labels = list(scheduler.labels)
        reason = self.warm_block_reason(rdl, session_labels)
        if reason is not None:
            return self._fallback_serial(scheduler, serial_keys, reason)
        [label] = session_labels  # warm_block_reason admits exactly one

        round_start = time.perf_counter()
        pending = scheduler.pending_keys(labels)
        if not pending:
            self.last_warm_run = WarmRun(methods=0, remote=False)
            return scheduler.resolve(serial_keys)
        round_span = obs_spans.span("warm.round", label=label)
        round_span.__enter__()
        round_span.set("dirty", len(pending))

        sync_start = time.perf_counter()
        try:
            if (rdl is not self._attached_rdl
                    or label != self._attached_label):
                self.attach(rdl, [label])
            else:
                self._sync_session(rdl)
        except (WarmSyncError, WorkerLost, SessionRequestFailed) as exc:
            self._abort_session()
            round_span.set("fallback", True)
            round_span.__exit__(None, None, None)
            return self._fallback_serial(scheduler, serial_keys,
                                         f"session sync failed: {exc}")
        sync_s = time.perf_counter() - sync_start

        plan_start = time.perf_counter()
        shards = plan_shards(pending, len(self._attached_workers()),
                             registry=rdl.registry, stats=scheduler.stats)
        plan_s = time.perf_counter() - plan_start

        results, retries = self._run_warm_shards(shards)
        feed_incremental(scheduler, results, generation=rdl.db.version,
                         producer={"kind": "warm",
                                   "session": self._session_id})
        scheduler.stats.parallel_rounds += 1
        # resolve() assembles the report in serial order from the adopted
        # verdicts — and is the completeness backstop: anything a lost
        # worker never returned is checked in-process right here
        report = scheduler.resolve(serial_keys)
        self.last_warm_run = WarmRun(
            methods=len(pending),
            remote=True,
            results=results,
            wall_s=time.perf_counter() - round_start,
            plan_s=plan_s,
            sync_s=sync_s,
            retries=retries,
            session_id=self._session_id,
        )
        round_span.set("shards", len(shards))
        round_span.set("retries", retries)
        round_span.__exit__(None, None, None)
        return report

    def recheck_dirty(self, rdl=None) -> TypeErrorReport:
        """Re-verify the universe's dirty methods across warm workers.

        :meth:`check_all` over every label the scheduler has checked so
        far — the warm counterpart of ``IncrementalScheduler.recheck_dirty``.
        """
        if rdl is None:
            rdl = self._attached_rdl
        if rdl is None:
            raise ValueError("no universe attached: call attach(rdl) first "
                             "or pass rdl=")
        return self.check_all(rdl, rdl.incremental.labels)

    def detach(self) -> None:
        """Drop the attached session (workers stay up for re-attachment)."""
        if self._session_id is not None and self._session_pool is not None:
            for handle in self._session_pool.live():
                if not handle.attached:
                    continue
                try:
                    handle.request(DetachSession(self._session_id))
                except (WorkerLost, SessionRequestFailed):
                    pass
                handle.attached = False
        self._attached_rdl = None
        self._attached_label = None
        self._session_id = None

    def _abort_session(self) -> None:
        """Discard the session AND the worker pool.

        After a failed sync some pipes may hold unread replies, and a
        plain request/reply transport cannot resynchronize them — a stale
        reply would be mistaken for the next request's answer.  Dropping
        the pool is the only safe reset; the next warm round respawns and
        cold-attaches."""
        if self._session_pool is not None:
            self._session_pool.close()
            self._session_pool = None
        self._attached_rdl = None
        self._attached_label = None
        self._session_id = None

    # -- warm internals ----------------------------------------------------
    def warm_block_reason(self, rdl, labels) -> str | None:
        """Why this universe cannot be warm-replicated right now (None when
        it can).  These are exactly the "delta cannot be bounded" cases —
        the callers fall back to the serial incremental path."""
        from repro.apps import app_for_label

        if not labels:
            return "no labels have been checked yet"
        for label in labels:
            try:
                app_for_label(label)
            except KeyError:
                return f"label {label!r} names no subject app"
        if len(labels) > 1:
            # each replica is one label's app, but the universe has ONE
            # journal and one pristine generation spanning all of them —
            # replaying the combined journal into per-app replicas cannot
            # line up (per-label journals are the distributed-fleet item)
            return ("multi-label universes are not warm-replicable: one "
                    "combined journal cannot replay into per-app replicas")
        pristine = getattr(rdl, "pristine_generation", None)
        if pristine is None:
            return "universe was never marked pristine"
        if getattr(rdl, "pristine_epoch", 1) > 1:
            # a re-marked universe absorbed post-build loads into its
            # baseline, but replicas rebuild from the subject-app recipe,
            # which knows nothing about them — no delta can bridge that
            return ("the universe was re-marked pristine after build: "
                    "replicas rebuilt from the app recipe cannot "
                    "reproduce it")
        redefs = getattr(rdl, "post_build_redefinitions", None)
        if redefs:
            names = ", ".join(sorted(str(key) for key in redefs))
            return (f"post-build (re)definition of {names} — a redefined "
                    f"type-level helper can change any verdict")
        unreplayable = getattr(rdl, "post_build_unreplayable", None)
        if unreplayable:
            names = ", ".join(sorted(str(key) for key in unreplayable))
            return f"methods defined outside load(), not replayable: {names}"
        if getattr(rdl, "post_build_migrating_loads", False):
            return ("a post-build load migrated the schema itself: its "
                    "journal events and its source would replay twice")
        if pristine < rdl.db.journal.oldest_retained:
            return ("the schema journal no longer reaches the pristine "
                    "generation (too many migrations)")
        return None

    def _require_attached(self, rdl):
        if rdl is None:
            rdl = self._attached_rdl
        if rdl is None:
            raise ValueError("no universe attached: call attach(rdl) first")
        if rdl is not self._attached_rdl:
            self.attach(rdl)
        return rdl

    def _attached_workers(self):
        return [handle for handle in self._session_pool.live()
                if handle.attached] if self._session_pool else []

    def _fallback_serial(self, scheduler, keys, reason: str) -> TypeErrorReport:
        """Run the round in-process: resolve exactly ``keys``, and say why
        in the stats, the metrics counters and the trace."""
        extra = scheduler.stats.extra
        extra["warm_fallbacks"] = extra.get("warm_fallbacks", 0) + 1
        extra["warm_fallback_reason"] = reason
        obs_spans.bump("sessions.fallbacks")
        obs_spans.event("warm.fallback", args={"reason": reason})
        self.last_warm_run = WarmRun(remote=False, fallback_reason=reason)
        return scheduler.resolve(keys)

    def _attach_deadline(self) -> float:
        """The reply deadline for a cold attach.  Attaches build whole apps
        and legitimately take seconds, so a tight per-engine deadline never
        applies to them: they get the process default, and a disabled
        default (``<= 0``) lets them wait for as long as they take."""
        default = DEADLINE_S[0]
        if default <= 0:
            return default
        return max(default, self.deadline_s or 0.0)

    def _sync_session(self, rdl) -> None:
        """Bring every session worker to the universe's current state.

        Blank or stale workers (freshly spawned, respawned after a crash,
        or synced to a generation the bounded journal has forgotten) get a
        cold attach — pristine rebuild — then everyone receives the journal
        delta and unshipped load records.  Broadcasts overlap: all sends go
        out before any ack is awaited.
        """
        if self._session_id is None:
            raise WarmSyncError("no session attached")
        sync_span = obs_spans.span("session.sync", label=self._session_id)
        with sync_span:
            backoff = SYNC_BACKOFF_S
            for attempt in range(SYNC_ATTEMPTS):
                if self._session_pool is None:
                    self._session_pool = SessionPool(
                        self.workers, deadline_s=self.deadline_s)
                try:
                    self._sync_session_inner(rdl, sync_span)
                    return
                except (WorkerLost, SessionRequestFailed):
                    # a failed sync leaves pipes with unread or missing
                    # replies that a request/reply transport cannot
                    # resynchronize: drop the whole pool and cold-reattach
                    # a fresh one after an exponential backoff.  (A
                    # WarmSyncError divergence is deterministic — retrying
                    # would rebuild the same divergent replica — so it
                    # propagates immediately.)
                    self._session_pool.close()
                    self._session_pool = None
                    if attempt == SYNC_ATTEMPTS - 1:
                        raise
                    obs_spans.bump("sessions.reattach_retries")
                    sync_span.set("reattach_retries", attempt + 1)
                    time.sleep(backoff)
                    backoff *= 2

    def _sync_session_inner(self, rdl, sync_span) -> None:
        handles = self._session_pool.ensure()
        journal = rdl.db.journal
        pristine = rdl.pristine_generation
        loads = list(rdl.post_build_loads)
        backend = self.backend or rdl.db.backend_name

        needs_attach = [
            handle for handle in handles
            if not handle.attached
            or handle.synced_generation < journal.oldest_retained
        ]
        sync_span.set("attaches", len(needs_attach))
        attach = AttachUniverse(
            session_id=self._session_id,
            label=self._attached_label,
            backend=backend,
            trace=obs_spans.enabled(),
        )
        sent = []
        for handle in needs_attach:
            try:
                handle.send(attach)
                sent.append(handle)
            except WorkerLost:
                continue
        for handle in sent:
            try:
                ack = handle.recv(deadline_s=self._attach_deadline())
            except WorkerLost:
                continue
            obs_spans.absorb(getattr(ack, "spans", ()))
            if ack.generation != pristine:
                raise WarmSyncError(
                    f"replica build diverged: worker {handle.index} built "
                    f"generation {ack.generation}, expected {pristine} — "
                    f"the universe is not reproducible from its app")
            handle.attached = True
            handle.synced_generation = pristine
            handle.loads_applied = 0

        sent = []
        for handle in self._attached_workers():
            events = journal.events_since(handle.synced_generation)
            new_loads = loads[handle.loads_applied:]
            if not events and not new_loads:
                continue
            delta = SessionDelta(
                session_id=self._session_id,
                events=tuple(event.to_wire() for event in events),
                loads=tuple(new_loads),
                trace=obs_spans.enabled(),
            )
            try:
                handle.send(delta)
                sent.append(handle)
            except WorkerLost:
                continue
        for handle in sent:
            try:
                ack = handle.recv()
            except WorkerLost:
                continue
            obs_spans.absorb(getattr(ack, "spans", ()))
            if ack.generation != rdl.db.version:
                raise WarmSyncError(
                    f"delta replay diverged on worker {handle.index}: "
                    f"replica at {ack.generation}, universe at "
                    f"{rdl.db.version}")
            handle.synced_generation = rdl.db.version
            handle.loads_applied = len(loads)

        if not self._attached_workers():
            # WorkerLost (not WarmSyncError) so _sync_session's retry loop
            # respawns the pool and tries again before anyone falls back
            raise WorkerLost("no session workers survived the sync")

    def _run_warm_shards(self, shards: list[Shard]) -> tuple[list[ShardResult], int]:
        """Fan shards out to attached workers; re-plan lost shards onto
        survivors.  Missing verdicts (every worker died) are left for the
        caller's in-process resolve backstop."""
        workers = self._attached_workers()
        results: list[ShardResult] = []
        retries = 0

        def dispatch(assignments) -> list[Shard]:
            """Send all, then recv all (overlapped); returns lost shards."""
            lost: list[Shard] = []
            in_flight: list[tuple] = []
            for handle, shard in assignments:
                request = CheckRequest(self._session_id, shard.index,
                                       tuple(shard.keys),
                                       trace=obs_spans.enabled(),
                                       provenance=obs_prov.enabled())
                try:
                    handle.send(request)
                    in_flight.append((handle, shard))
                except WorkerLost:
                    obs_spans.event("warm.worker_lost",
                                    args={"shard": shard.index,
                                          "during": "send"})
                    lost.append(shard)
            for handle, shard in in_flight:
                try:
                    result = handle.recv()
                except WorkerLost:
                    obs_spans.event("warm.worker_lost",
                                    args={"shard": shard.index,
                                          "during": "recv"})
                    lost.append(shard)
                except SessionRequestFailed:
                    handle.attached = False  # stale session: re-attach later
                    obs_spans.event("warm.session_stale",
                                    args={"shard": shard.index})
                    lost.append(shard)
                else:
                    obs_spans.absorb(result.spans)
                    results.append(result)
            return lost

        failed = dispatch(zip(workers, shards))
        # plan_shards caps shards at the worker count, but workers can die
        # between planning and sending — anything unassigned retries below
        failed.extend(shards[len(workers):])
        while failed:
            survivors = self._attached_workers()
            if not survivors:
                break  # the caller's in-process resolve backstop completes
            # round-robin the lost shards across every survivor, overlapped
            obs_spans.event("warm.replan", args={"shards": len(failed)})
            still_failed = dispatch(
                (survivors[i % len(survivors)], shard)
                for i, shard in enumerate(failed)
            )
            retries += len(failed) - len(still_failed)
            if len(still_failed) == len(failed):
                break  # no progress: stop before spinning on a sick fleet
            failed = still_failed
        if retries:
            extra = self.stats.extra
            extra["warm_worker_retries"] = (
                extra.get("warm_worker_retries", 0) + retries)
        return results, retries
