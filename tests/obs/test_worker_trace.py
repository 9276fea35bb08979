"""Cross-process span propagation and the VM inline-cache counters.

Workers buffer spans locally and piggyback them on their protocol replies;
the engine absorbs them into one timeline.  With tracing off, the protocol
messages carry nothing — the empty defaults, no span attributes.
"""

import os

from repro import obs
from repro.apps import app_for_label
from repro.parallel.protocol import CheckRequest, ShardResult
from repro.parallel.worker import _trace_begin, _trace_end
from repro.runtime.compile import inline_cache_stats
from repro.runtime.interp import Interp

LABEL = "discourse"


# ---------------------------------------------------------------------------
# worker-side windowing helpers (in-process)
# ---------------------------------------------------------------------------

class _Message:
    def __init__(self, trace):
        self.trace = trace


def test_untraced_request_adds_no_attributes_to_reply():
    reply = ShardResult(shard_id=0)
    mark = _trace_begin(_Message(trace=False))
    assert mark is None
    assert not obs.enabled()
    _trace_end(reply, mark)
    assert reply.spans == ()  # the protocol default, untouched


def test_traced_request_ships_only_its_own_window():
    obs.enable()
    with obs.span("pre-existing"):
        pass
    reply = ShardResult(shard_id=0)
    mark = _trace_begin(_Message(trace=True))
    with obs.span("inside"):
        pass
    _trace_end(reply, mark)
    # the reply carries the request's spans; spans recorded before the
    # request stay in the local buffer
    assert [e["name"] for e in reply.spans] == ["inside"]
    assert [e["name"] for e in obs.events()] == ["pre-existing"]


def test_protocol_messages_default_to_untraced():
    request = CheckRequest(session_id="s", shard_id=0)
    assert request.trace is False
    assert ShardResult(shard_id=0).spans == ()


# ---------------------------------------------------------------------------
# real fleet round-trips (spawned worker processes)
# ---------------------------------------------------------------------------

def test_fleet_check_collects_spans_from_distinct_worker_pids():
    obs.enable()
    # the label's methods split into one shard per worker, so the shard
    # checks arrive from two pids
    rdl = app_for_label(LABEL).build()
    try:
        report = rdl.check_all(LABEL, workers=2)
    finally:
        rdl.shutdown_warm()
    assert report.checked_methods
    events = obs.events()
    # the shard checks themselves were recorded worker-side
    check_pids = {e["pid"] for e in events if e["name"] == "session.check"}
    assert len(check_pids) >= 2, (
        f"expected session.check spans from >= 2 workers, got {check_pids}")
    assert os.getpid() not in check_pids
    # engine-side phases frame them on the same timeline
    names = {e["name"] for e in events}
    assert {"warm.round", "session.sync", "fleet.plan_shards"} <= names


def test_fleet_check_disabled_emits_zero_events():
    assert not obs.enabled()
    rdl = app_for_label(LABEL).build()
    try:
        report = rdl.check_all(LABEL, workers=2)
        assert rdl.warm_engine.last_warm_run.remote
    finally:
        rdl.shutdown_warm()
    assert report.checked_methods
    assert obs.events() == []
    assert obs.buffered() == 0
    assert obs.counters() == {}


# ---------------------------------------------------------------------------
# compiled-VM inline caches through the metrics registry
# ---------------------------------------------------------------------------

def test_monomorphic_call_site_reports_hits_after_warmup():
    obs.enable()
    interp = Interp()
    # one monomorphic call site on a cacheable receiver type (RString),
    # executed 30 times: the first fill is a miss, the rest must hit
    interp.run("""
total = 0
i = 0
while i < 30
  total = total + "abc".length()
  i = i + 1
end
total
""")
    stats = inline_cache_stats()
    assert stats["misses"] >= 1
    assert stats["hits"] >= 29
    # and the registry surfaces the same counters under stable keys
    snap = obs.metrics_snapshot()
    assert snap["vm.inline_cache.hits"] == stats["hits"]
    assert snap["vm.inline_cache.misses"] == stats["misses"]
    assert 0.0 < snap["vm.inline_cache.hit_rate"] <= 1.0


def test_inline_cache_counters_stay_zero_while_disabled():
    assert not obs.enabled()
    interp = Interp()
    interp.run('x = 0\nwhile x < 10\n  x = x + "a".length()\nend\nx')
    assert inline_cache_stats() == {"hits": 0, "misses": 0}
