"""The unified metrics registry: one snapshot, stable keys.

Before this module each layer reported numbers its own way —
``IncrementalStats`` attributes, ``WarmRun`` diagnostics, VM counters that
were simply invisible.  :func:`metrics_snapshot` merges them all into one
flat dict with dotted, **stable** key names:

* ``comp_cache.*`` / ``ast_cache.*`` / ``methods.*`` / ``schema.*`` /
  ``fleet.*`` / ``planner.*`` / ``warm.*`` — from the
  :class:`~repro.incremental.stats.IncrementalStats` sources passed in
* ``vm.inline_cache.hits`` / ``.misses`` / ``.hit_rate`` — the compiled
  backend's per-call-site inline caches (process-wide)
* ``membership.*`` — the compiled membership predicates' compile counts,
  predicate-cache shares and nominal inline caches (process-wide)
* ``intern.types`` / ``intern.fingerprints`` / ``intern.envs`` — the
  hash-consing table sizes (process-wide)
* ``counters.<name>`` — every live :func:`repro.obs.spans.bump` counter
  (subtype queries, comp-eval hits, db row ops, …)

Imports of the instrumented layers are lazy (inside the function): this
module is imported by ``repro.obs.__init__``, which hot paths pull in via
``repro.obs.state`` — a top-level import of ``repro.runtime.compile`` here
would complete that cycle.
"""

from __future__ import annotations

from repro.obs import spans


def metrics_snapshot(*sources) -> dict:
    """One flat metrics dict merging every layer's counters.

    ``sources`` are :class:`IncrementalStats` instances (or anything with a
    ``snapshot()`` returning a flat dict).  With several sources, integer
    counters sum, rates/floats are recomputed or last-write-wins per key —
    callers wanting per-universe numbers pass one source at a time.
    """
    snap: dict = {}
    for source in sources:
        if source is None:
            continue
        for key, value in source.snapshot().items():
            if key in snap and isinstance(value, int) \
                    and isinstance(snap[key], int):
                snap[key] += value
            else:
                snap[key] = value

    from repro.runtime.compile import inline_cache_stats
    ic = inline_cache_stats()
    lookups = ic["hits"] + ic["misses"]
    snap["vm.inline_cache.hits"] = ic["hits"]
    snap["vm.inline_cache.misses"] = ic["misses"]
    snap["vm.inline_cache.hit_rate"] = (
        round(ic["hits"] / lookups, 4) if lookups else 0.0)

    from repro.runtime.member_compile import membership_stats
    ms = membership_stats()
    probes = ms["ic_hits"] + ms["ic_misses"]
    snap["membership.compiles"] = ms["compiles"]
    snap["membership.pred_cache_hits"] = ms["pred_cache_hits"]
    snap["membership.ic_hits"] = ms["ic_hits"]
    snap["membership.ic_misses"] = ms["ic_misses"]
    snap["membership.ic_hit_rate"] = (
        round(ms["ic_hits"] / probes, 4) if probes else 0.0)

    # repro.rtypes.__init__ re-exports the intern *function* under the same
    # name as the submodule, so plain ``import repro.rtypes.intern as ...``
    # resolves to the function; go through importlib for the module itself
    import importlib
    intern_tables = importlib.import_module("repro.rtypes.intern")
    snap["intern.types"] = intern_tables.interned_count()
    snap["intern.fingerprints"] = intern_tables.fingerprint_count()
    snap["intern.envs"] = intern_tables.env_count()

    for name, value in spans.counters().items():
        snap[f"counters.{name}"] = value
        # robustness counters get first-class dotted keys alongside the
        # generic counters.* namespace: dashboards watching the fuzzer or
        # fault-injection harness shouldn't depend on the prefix
        if name.split(".", 1)[0] in ("fuzz", "faults", "sessions"):
            snap[name] = value

    snap["obs.enabled"] = spans.enabled()
    snap["obs.buffered_events"] = spans.buffered()

    from repro.obs import faults
    snap["faults.enabled"] = faults.enabled()

    from repro.obs import provenance
    snap["provenance.enabled"] = provenance.enabled()
    snap["provenance.records"] = provenance.recorded()
    return snap


def metrics_diff(before: dict, after: dict) -> dict:
    """Stable-key snapshot subtraction: what changed between two
    :func:`metrics_snapshot` (or ``IncrementalStats.snapshot()``) dicts.

    Numeric values subtract (``after - before``, missing treated as 0);
    bools and strings report the ``after`` value when it changed.  Keys
    whose delta is zero / unchanged are omitted, so asserting "this round
    added no comp-cache misses" is ``diff.get("comp_cache.misses", 0) == 0``
    and a no-op round diffs to ``{}``.
    """
    diff: dict = {}
    for key in before.keys() | after.keys():
        old, new = before.get(key), after.get(key)
        if old == new:
            continue
        numeric_old = isinstance(old, (int, float)) and not isinstance(old, bool)
        numeric_new = isinstance(new, (int, float)) and not isinstance(new, bool)
        if (numeric_old or old is None) and (numeric_new or new is None):
            delta = (new or 0) - (old or 0)
            if delta:
                diff[key] = round(delta, 9) if isinstance(delta, float) else delta
        else:
            diff[key] = new
    return diff
