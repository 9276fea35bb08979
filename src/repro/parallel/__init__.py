"""Parallel checking on warm session workers: plan → check → back-feed.

Session workers (:mod:`repro.parallel.sessions`,
:mod:`repro.parallel.worker`) attach a live universe once — each builds
pristine replicas of its subject app — then receive schema-journal deltas
and post-build load records (:class:`SessionDelta`) instead of
rebuilding.  Each round partitions the methods it must check into
cost-balanced shards (:mod:`repro.parallel.planner`), checks them on the
workers, and adopts the picklable verdicts and dependency footprints back
into the universe's incremental engine (:mod:`repro.parallel.merge`), whose
``resolve`` assembles a report verdict-for-verdict identical to a serial
run.

Use ``CompRDL.check_all(labels, workers=N)`` to check a universe on its
own warm fleet, ``CompRDL.recheck_dirty(workers=N)`` for post-migration
rechecks on the same (still attached) session, or a
:class:`ParallelCheckEngine` directly to share one fleet across several
universes.
"""

from repro.parallel.engine import ParallelCheckEngine, WarmSyncError
from repro.parallel.merge import feed_incremental
from repro.parallel.planner import Shard, method_cost, plan_shards
from repro.parallel.protocol import (
    AttachAck,
    AttachUniverse,
    CheckRequest,
    DeltaAck,
    DetachSession,
    MethodSpec,
    MethodVerdict,
    SessionDelta,
    SessionError,
    ShardResult,
    Shutdown,
)
from repro.parallel.sessions import (
    SessionPool,
    SessionRequestFailed,
    WarmRun,
    WorkerLost,
)

__all__ = [
    "AttachAck",
    "AttachUniverse",
    "CheckRequest",
    "DeltaAck",
    "DetachSession",
    "MethodSpec",
    "MethodVerdict",
    "ParallelCheckEngine",
    "SessionDelta",
    "SessionError",
    "SessionPool",
    "SessionRequestFailed",
    "Shard",
    "ShardResult",
    "Shutdown",
    "WarmRun",
    "WarmSyncError",
    "WorkerLost",
    "feed_incremental",
    "method_cost",
    "plan_shards",
]
