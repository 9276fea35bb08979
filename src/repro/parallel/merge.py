"""Incremental back-feed: adopt worker verdicts into a universe.

Workers finish in whatever order the scheduler and the OS allow, so the
engine never assembles a report from arrival order.  ``feed_incremental``
installs each verdict and its recorded dependency footprint into the
universe's scheduler and dependency tracker; the scheduler's ``resolve``
then builds the report in serial order from those adopted verdicts, so
the report — and every later ``recheck_dirty()`` — is verdict-for-verdict
identical to a serially-checked universe's.
"""

from __future__ import annotations

from repro.incremental.scheduler import MethodResult
from repro.obs.state import PROVENANCE as _PROV_ON
from repro.parallel.protocol import ShardResult


def feed_incremental(scheduler, results: list[ShardResult], generation: int,
                     producer: dict | None = None) -> int:
    """Install worker verdicts into a universe's incremental engine.

    Each method gets a cached :class:`MethodResult` checked at
    ``generation`` plus its worker-recorded dependency footprint, its
    dirty flag is cleared, and its observed cost feeds the planner's cost
    model for the next round.  Returns the number of verdicts adopted.

    With provenance enabled, each adoption is also recorded in the
    scheduler's ledger: ``producer`` supplies the production kind (the
    engine passes ``{"kind": "warm", "session": id}``) and the worker's
    pid/shard plus the piggybacked comp-cache deltas are filled in per
    verdict.
    """
    tracker = scheduler.tracker
    stats = scheduler.stats
    prov_on = _PROV_ON[0]
    journal = getattr(scheduler.db, "journal", None)
    adopted = 0
    for result in results:
        for verdict in result.verdicts:
            key = verdict.spec.key()
            errors = verdict.rebuild_errors()
            scheduler.results[key] = MethodResult(
                key=key,
                desc=verdict.desc,
                errors=errors,
                casts_used=verdict.casts_used,
                oracle_casts=verdict.oracle_casts,
                generation=generation,
            )
            if verdict.deps is not None:
                tracker.adopt(key, verdict.deps)
            scheduler.dirty.discard(key)
            if prov_on:
                who = dict(producer) if producer else {"kind": "warm"}
                who.setdefault("kind", "warm")
                who["pid"] = result.pid
                who["shard"] = result.shard_id
                comp_hits, comp_misses = verdict.prov or (0, 0)
                scheduler.provenance.record(
                    key, verdict.desc, errors, generation,
                    deps=verdict.deps,
                    producer=who,
                    comp_hits=comp_hits,
                    comp_misses=comp_misses,
                    wall_s=verdict.cost_s,
                    journal=journal,
                )
            # adopted verdicts count as *parallel* work only: methods_checked
            # tracks in-process checks, and a later resolve() pass over these
            # keys must see genuine reuse, not double-counted checks
            stats.methods_checked_parallel += 1
            stats.observe_cost(verdict.desc, verdict.cost_s)
            adopted += 1
        stats.parallel_shards += 1
    return adopted
