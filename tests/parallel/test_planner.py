"""Unit tests for the shard planner and the wire protocol (no processes)."""

import pytest

from repro.incremental.stats import IncrementalStats
from repro.parallel import method_cost, plan_shards
from repro.parallel.planner import (
    BASE_METHOD_COST,
    COMP_SITE_COST,
    comp_site_count,
)
from repro.parallel.protocol import decode_error, encode_error
from repro.typecheck.errors import StaticTypeError, TerminationError
from repro.typecheck.registry import MethodKey


def _keys(class_name: str, count: int) -> list[MethodKey]:
    return [MethodKey(class_name, f"m{i}", False) for i in range(count)]


# ---------------------------------------------------------------------------
# cost model
# ---------------------------------------------------------------------------

def test_method_cost_prefers_observed_over_heuristic():
    stats = IncrementalStats()
    key = MethodKey("C", "m", False)
    heuristic = method_cost(key, registry=None, stats=stats)
    assert heuristic == BASE_METHOD_COST
    stats.method_costs[str(key)] = 0.25
    assert method_cost(key, registry=None, stats=stats) == 0.25


def test_comp_site_heuristic_reads_the_method_body():
    from repro import CompRDL

    rdl = CompRDL(install_libraries=False)
    rdl.load("""
class C
  def busy(xs)
    xs.map { |x| x + 1 }.select { |x| x > 2 }
  end
  def idle()
    nil
  end
end
""")
    from repro.typecheck.registry import MethodKey

    busy = rdl.registry.defined_methods[MethodKey("C", "busy", False)]
    idle = rdl.registry.defined_methods[MethodKey("C", "idle", False)]
    assert comp_site_count(busy) > comp_site_count(idle)
    cost = method_cost(MethodKey("C", "busy", False), registry=rdl.registry,
                       stats=None)
    assert cost > BASE_METHOD_COST
    assert cost == BASE_METHOD_COST + COMP_SITE_COST * comp_site_count(busy)


# ---------------------------------------------------------------------------
# sharding
# ---------------------------------------------------------------------------

def test_plan_covers_every_spec_exactly_once():
    keys = _keys("A", 5) + _keys("B", 3) + _keys("C", 4)
    shards = plan_shards(keys, workers=3)
    planned = [key for shard in shards for key in shard.keys]
    assert sorted(planned, key=keys.index) == keys
    assert len(planned) == len(set(planned)) == len(keys)
    # each shard keeps the caller's (serial) order
    for shard in shards:
        assert shard.keys == sorted(shard.keys, key=keys.index)


def test_plan_is_deterministic():
    keys = _keys("A", 7) + _keys("B", 7)
    first = plan_shards(keys, workers=4)
    second = plan_shards(keys, workers=4)
    assert [s.keys for s in first] == [s.keys for s in second]


def test_heavy_label_splits_across_spare_workers():
    stats = IncrementalStats()
    keys = _keys("Hot", 8)
    for key in keys:
        stats.method_costs[str(key)] = 1.0
    shards = plan_shards(keys, workers=4, stats=stats)
    assert len(shards) == 4
    sizes = sorted(len(shard.keys) for shard in shards)
    assert sizes == [2, 2, 2, 2]


def test_single_worker_gets_everything_in_serial_order():
    keys = _keys("A", 4) + _keys("B", 2)
    shards = plan_shards(keys, workers=1)
    assert len(shards) == 1
    assert shards[0].keys == keys


def test_lpt_balances_observed_costs():
    # longest first onto the least-loaded shard: 5 | 3+1+1 | 2+2 — the
    # heaviest shard is no heavier than the single costliest method
    stats = IncrementalStats()
    keys = _keys("C", 6)
    for key, cost in zip(keys, (1.0, 5.0, 2.0, 3.0, 1.0, 2.0)):
        stats.method_costs[str(key)] = cost
    shards = plan_shards(keys, workers=3, stats=stats)
    assert [shard.predicted_cost for shard in shards] == [5.0, 5.0, 4.0]
    assert [shard.keys for shard in shards] == [
        [keys[1]], [keys[0], keys[3], keys[4]], [keys[2], keys[5]]]
    # fewer keys than workers: one shard per key, never an empty shard
    assert len(plan_shards(keys[:2], workers=4, stats=stats)) == 2
    assert plan_shards([], workers=4) == []


# ---------------------------------------------------------------------------
# EWMA cost model
# ---------------------------------------------------------------------------

def test_observe_cost_is_an_ewma_not_last_observation():
    from repro.incremental.stats import COST_EWMA_ALPHA

    stats = IncrementalStats()
    assert stats.observe_cost("C#m", 0.10) == pytest.approx(0.10)
    updated = stats.observe_cost("C#m", 0.20)
    # a single outlier moves the estimate toward — not onto — the new value
    expected = COST_EWMA_ALPHA * 0.20 + (1 - COST_EWMA_ALPHA) * 0.10
    assert updated == pytest.approx(expected)
    assert 0.10 < stats.method_costs["C#m"] < 0.20
    # repeated observations converge
    for _ in range(30):
        stats.observe_cost("C#m", 0.20)
    assert stats.method_costs["C#m"] == pytest.approx(0.20, rel=1e-3)


# ---------------------------------------------------------------------------
# wire format
# ---------------------------------------------------------------------------

def test_check_request_carries_method_keys_through_pickle():
    import pickle

    from repro.parallel.protocol import CheckRequest

    keys = (MethodKey("User", "staff_count", True),
            MethodKey("Topic", "hot?", False))
    request = pickle.loads(pickle.dumps(
        CheckRequest(session_id="s", shard_id=3, keys=keys)))
    assert request.keys == keys
    assert [str(key) for key in request.keys] == \
        ["User.staff_count", "Topic#hot?"]


def test_error_roundtrip_preserves_class_message_line_method():
    for error in (StaticTypeError("bad type", 12, "C#m"),
                  TerminationError("loops forever", 3, "C#t")):
        rebuilt = decode_error(encode_error(error))
        assert type(rebuilt) is type(error)
        assert str(rebuilt) == str(error)
        assert rebuilt.message == error.message
        assert rebuilt.line == error.line
        assert rebuilt.method == error.method
