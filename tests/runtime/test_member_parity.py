"""Compiled membership predicates ≡ the structural walker.

``repro.runtime.member_compile`` lowers each RType once into a closure;
this suite is the semantic contract: for every membership constructor,
every probe value, and every subject app, the compiled predicate must
produce the verdict (and, at the check-spec layer, the Blame message)
that the reference ``value_has_type`` produces, while the inline caches
stay invisible across universe lifetimes.  Whole-app runs select the
reference by monkeypatching the name check specs bind their predicates
through (``repro.comp.checks.predicate_for``).
"""

from __future__ import annotations

import gc
import pickle
import weakref

import pytest

from repro import CompRDL, Database
from repro.apps import all_apps
from repro.comp import checks
from repro.comp.checks import CheckSpec
from repro.rtypes import (AnyType, BotType, ConstStringType, FiniteHashType,
                          GenericType, MethodType, NominalType, OptionalArg,
                          SingletonType, TupleType, UnionType, VarType,
                          parse_type, try_intern)
from repro.runtime.errors import Blame
from repro.runtime.member_compile import (membership_stats, predicate_for,
                                          reset_membership_stats)
from repro.runtime.membership import value_has_type
from repro.runtime.objects import RArray, RHash, RString, Sym, ruby_inspect


def _use_structural_walker(monkeypatch) -> list:
    """Route every check spec built from here on through ``value_has_type``;
    returns a one-cell counter of walker calls, so a run can prove the
    reference actually answered its checks."""
    calls = [0]

    def reference_predicate(rtype):
        def walk(interp, value):
            calls[0] += 1
            return value_has_type(interp, value, rtype)
        return walk

    monkeypatch.setattr(checks, "predicate_for", reference_predicate)
    return calls


@pytest.fixture
def universe():
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load("""
class User < ActiveRecord::Base
end
""")
    return rdl


def _probe_values(interp):
    return [
        None, True, False, 0, 3, -1, 2.5,
        RString("hi"), RString("bye"), RString(""), Sym("id"), Sym("other"),
        RArray([]), RArray([1, 2]), RArray([1, RString("x")]),
        RHash.from_pairs([]),
        RHash.from_pairs([(Sym("id"), 1), (Sym("username"), RString("u"))]),
        RHash.from_pairs([(RString("id"), 1)]),
        RHash.from_pairs([(Sym("k"), RString("v"))]),
        interp.classes["Integer"],
        interp.classes["String"],
    ]


#: one entry per membership constructor — raw (never passed through the
#: intern table) so both the canonical-instance and the fallback caching
#: paths of ``predicate_for`` get exercised
CONSTRUCTOR_CORPUS = {
    "any": AnyType(),
    "bot": BotType(),
    "var": VarType("t"),
    "nominal": NominalType("Integer"),
    "nominal_ancestor": NominalType("Numeric"),
    "nominal_object": NominalType("Object"),
    "nominal_bool": NominalType("%bool"),
    "nominal_unknown": NominalType("NoSuchClass"),
    "union_2": UnionType((NominalType("Integer"), NominalType("String"))),
    "union_n": UnionType((NominalType("Integer"), NominalType("String"),
                          NominalType("Symbol"), NominalType("Float"))),
    "optional": OptionalArg(NominalType("Integer")),
    "singleton_int": SingletonType(3),
    "singleton_nil": SingletonType(None),
    "singleton_true": SingletonType(True),
    "singleton_sym": SingletonType(Sym("id")),
    "const_string": ConstStringType("hi"),
    "generic_array": GenericType("Array", (NominalType("Integer"),)),
    "generic_hash": GenericType("Hash", (NominalType("Symbol"),
                                         NominalType("String"))),
    "tuple": TupleType([NominalType("Integer"), NominalType("String")]),
    "finite_hash": FiniteHashType({"id": NominalType("Integer"),
                                   "username": NominalType("String")}),
    "method": MethodType([NominalType("Integer")], None,
                         NominalType("String")),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_CORPUS))
def test_constructor_parity(universe, name):
    rtype = CONSTRUCTOR_CORPUS[name]
    interp = universe.interp
    pred = predicate_for(rtype)
    for value in _probe_values(interp):
        assert pred(interp, value) == value_has_type(interp, value, rtype), (
            f"{rtype.to_s()} vs {value!r}")


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_CORPUS))
def test_interned_variant_shares_verdicts(universe, name):
    rtype = CONSTRUCTOR_CORPUS[name]
    interp = universe.interp
    canon = try_intern(rtype)
    if canon is None:
        pytest.skip("mutable-rooted constructor: never interned")
    pred = predicate_for(canon)
    for value in _probe_values(interp):
        assert pred(interp, value) == value_has_type(interp, value, canon)
    # the canonical instance owns the predicate; a fresh equal type
    # resolves to the same closure instead of recompiling
    assert predicate_for(canon) is pred


def test_comp_types_membership_parity(universe):
    """Types the checker actually computes (schema-derived Table /
    FiniteHash shapes) go through the same differential check."""
    interp = universe.interp
    schema_types = [
        parse_type("Table<{ id: Integer, username: String }, User>"),
        parse_type("{ id: Integer, username: String, staged: %bool }"),
        parse_type("Array<{ id: Integer }>"),
        parse_type("Integer or String or nil"),
    ]
    for rtype in schema_types:
        pred = predicate_for(rtype)
        for value in _probe_values(interp):
            assert pred(interp, value) == \
                value_has_type(interp, value, rtype), rtype.to_s()


# ---------------------------------------------------------------------------
# canonical union arm order (the interning fix this layer depends on)
# ---------------------------------------------------------------------------

def test_interned_union_arm_order_is_arrival_independent(universe):
    a, b, c = NominalType("Integer"), NominalType("String"), SingletonType(3)
    orders = [(a, b, c), (c, b, a), (b, c, a)]
    interned = [try_intern(UnionType(order)) for order in orders]
    assert interned[0] is interned[1] is interned[2]
    rendered = [t.to_s() for t in interned[0].types]
    assert rendered == ["Integer", "String", "3"]
    # arrival order must not leak into verdicts either
    interp = universe.interp
    for order in orders:
        raw = UnionType(order)
        for value in _probe_values(interp):
            assert value_has_type(interp, value, raw) == \
                value_has_type(interp, value, interned[0])
            assert predicate_for(raw)(interp, value) == \
                predicate_for(interned[0])(interp, value)


# ---------------------------------------------------------------------------
# check-spec plans: construction-time binding, pickling, Blame parity
# ---------------------------------------------------------------------------

def _spec(**overrides) -> CheckSpec:
    fields = dict(
        method_desc="Probe#m",
        ret_type=parse_type("Integer"),
        arg_types=[parse_type("String"), parse_type("Integer or nil")],
        comp_results=[],
        engine=None,
        line=1,
        col=0,
    )
    fields.update(overrides)
    return CheckSpec(**fields)


def test_check_spec_binds_predicates_at_construction(monkeypatch):
    spec = _spec()
    assert spec._ret_pred is predicate_for(spec.ret_type)
    assert [expected.to_s() for _pred, expected in spec._arg_plan] == \
        ["String", "Integer or nil"]
    # the plan binds through the module-level name, the seam the oracle
    # (and any instrumentation) rebinds
    calls = _use_structural_walker(monkeypatch)
    walked = _spec()
    universe = CompRDL()
    assert walked._ret_pred(universe.interp, 3) is True
    assert calls[0] == 1


def test_check_spec_plans_survive_pickling():
    spec = _spec()
    clone = pickle.loads(pickle.dumps(spec))
    assert clone._ret_pred is not None
    assert len(clone._arg_plan) == 2
    # the rebound predicates answer exactly like the originals
    interp = CompRDL().interp
    for value in _probe_values(interp):
        assert clone._ret_pred(interp, value) == spec._ret_pred(interp, value)
        for (mine, _), (theirs, _) in zip(clone._arg_plan, spec._arg_plan):
            assert mine(interp, value) == theirs(interp, value)
    # closures themselves must never ride the wire
    state = spec.__getstate__()
    assert state["_arg_plan"] is None
    assert state["_ret_pred"] is None


def _blame_message(monkeypatch, structural: bool) -> str:
    """The §4 staged-column scenario: checked against a schema with the
    column, run after it is dropped — the guard must Blame identically
    with compiled predicates and with the structural walker."""
    with monkeypatch.context() as patch:
        if structural:
            _use_structural_walker(patch)
        db = Database()
        db.create_table("users", username="string", staged="boolean")
        rdl = CompRDL(db=db)
        rdl.load("""
class User < ActiveRecord::Base
end

class Finder
  type "(Symbol) -> Table<{ id: Integer, username: String, staged: %bool }, User>", typecheck: :finder
  def find_staged(flag)
    User.where(staged: true)
  end
end
""")
        report = rdl.check(":finder")
        assert report.ok(), report.summary()
    db.drop_column("users", "staged")
    with pytest.raises(Blame) as blamed:
        rdl.run("Finder.new.find_staged(:staged)", checks=True)
    return str(blamed.value)


def test_blame_messages_identical_across_membership_modes(monkeypatch):
    structural = _blame_message(monkeypatch, structural=True)
    compiled = _blame_message(monkeypatch, structural=False)
    assert compiled == structural
    assert "comp type" in structural


# ---------------------------------------------------------------------------
# whole-system parity: every app, both storage backends, both membership paths
# ---------------------------------------------------------------------------

def _report_key(report):
    return (
        tuple(report.checked_methods),
        tuple(str(e) for e in report.errors),
        report.casts_used,
        report.oracle_casts,
    )


def _check_apps(monkeypatch, structural: bool, backend: str):
    """Per app: the check report, then the test suite's run under the
    inserted dynamic checks (where membership actually answers)."""
    out = {}
    with monkeypatch.context() as patch:
        calls = _use_structural_walker(patch) if structural else None
        for app in all_apps():
            rdl = app.build(backend=backend)
            report = rdl.check_all([app.label])
            result = rdl.run(app.test_suite, checks=True)
            out[app.name] = (_report_key(report), ruby_inspect(result),
                             list(rdl.stdout))
    if structural:
        assert calls[0] > 0, "the structural walker answered no check"
    return out


@pytest.mark.slow
@pytest.mark.parametrize("backend", ["memory", "sqlite"])
def test_combined_apps_verdict_parity_across_membership_modes(
        monkeypatch, backend):
    structural = _check_apps(monkeypatch, True, backend)
    compiled = _check_apps(monkeypatch, False, backend)
    assert set(structural) == set(compiled)
    for name in structural:
        assert compiled[name] == structural[name], (
            f"verdicts diverged on {backend}: {name}")


# ---------------------------------------------------------------------------
# inline-cache lifecycle: universes stay collectable, epochs invalidate
# ---------------------------------------------------------------------------

def test_discarded_universe_not_pinned_by_membership_caches():
    """Nominal predicates cache on process-shared (interned) types; the
    inline cache must hold the interpreter weakly or every discarded
    universe stays pinned through the membership layer."""
    rdl = CompRDL()
    pred = predicate_for(NominalType("Numeric"))
    assert pred(rdl.interp, 3)  # fills the inline cache for this universe
    probe = weakref.ref(rdl.interp)
    del rdl
    gc.collect()
    assert probe() is None, "discarded universe pinned by membership IC"
    # the predicate itself stays usable for the next universe
    fresh = CompRDL()
    assert pred(fresh.interp, 3)


def test_inline_cache_refreshes_across_universes():
    rtype = NominalType("Numeric")
    pred = predicate_for(rtype)
    first = CompRDL()
    second = CompRDL()
    assert pred(first.interp, 3)
    assert pred(second.interp, 3)   # owner guard fails -> recompute
    assert pred(first.interp, 2.5)  # and back again
    assert pred(first.interp, 3) == value_has_type(first.interp, 3, rtype)


def test_inline_cache_invalidated_by_method_table_epoch(universe):
    """Reopening a class bumps the method-table epoch; a cached nominal
    verdict from before the bump must not survive it."""
    rdl = universe
    pred = predicate_for(NominalType("Comparable"))
    assert pred(rdl.interp, 3) == value_has_type(rdl.interp, 3,
                                                 NominalType("Comparable"))
    before = pred(rdl.interp, 3)
    # reopen Integer: the epoch moves, the guard forces a re-walk
    rdl.load("""
class Integer
  def member_parity_probe
    1
  end
end
""")
    assert pred(rdl.interp, 3) == before == \
        value_has_type(rdl.interp, 3, NominalType("Comparable"))


# ---------------------------------------------------------------------------
# counters
# ---------------------------------------------------------------------------

def test_membership_counters_surface_in_metrics_snapshot():
    from repro import obs
    from repro.obs.metrics import metrics_snapshot

    was_enabled = obs.enabled()
    obs.enable()
    reset_membership_stats()
    try:
        rdl = CompRDL()
        # a never-before-interned nominal: compiles must move
        rtype = NominalType("MemberParityCounterProbe")
        pred = predicate_for(rtype)
        pred(rdl.interp, 3)      # miss fills the cache
        pred(rdl.interp, 3)      # hit
        predicate_for(rtype)     # predicate-cache hit
        stats = membership_stats()
        assert stats["compiles"] >= 1
        assert stats["ic_misses"] >= 1
        assert stats["ic_hits"] >= 1
        assert stats["pred_cache_hits"] >= 1
        snap = metrics_snapshot()
        assert "membership.mode" not in snap
        assert "membership.structural_calls" not in snap
        assert snap["membership.compiles"] >= 1
        assert snap["membership.ic_hits"] >= 1
        assert 0.0 <= snap["membership.ic_hit_rate"] <= 1.0
    finally:
        reset_membership_stats()
        obs.reset()
        obs.set_enabled(was_enabled)
