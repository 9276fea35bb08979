"""Caches over mutable types see every weak update.

Tuples, finite hashes and const strings are widened in place (§4 weak
updates).  Two caches hold facts about their structure until the next
weak update: a mutable type's fingerprint, which keys the ``Table<S>``
verdict memo (``RelationValue.comprdl_check_table``), and a finite hash
predicate's normalized-key map.  A cached fact that outlives a widening
would replay a verdict for a type that no longer exists.  Each test warms
a cache, weak-updates the type behind it, and asserts the next answer is
the one an uncached computation gives.  The nominal inline cache, kept per
interpreter, is pinned here too: model instances cache by their class.
"""

from __future__ import annotations

import pytest

from repro import CompRDL, Database
from repro.orm.relation import RelationValue
from repro.rtypes import (ConstStringType, FiniteHashType, GenericType,
                          NominalType, subtype)
from repro.rtypes.intern import fingerprint
from repro.runtime.member_compile import predicate_for
from repro.runtime.membership import value_has_type
from repro.runtime.objects import RArray, RHash, RObject, RString, Sym

INT = NominalType("Integer")
STR = NominalType("String")


@pytest.fixture
def interp():
    return CompRDL().interp


def _uncached_table_verdict(rel: RelationValue, schema) -> bool:
    mine = rel.joined_schema()
    return subtype(mine, schema, record=False) or \
        subtype(schema, mine, record=False)


def test_widened_table_schema_is_never_judged_from_the_stale_verdict():
    db = Database()
    db.create_table("users", username="string")
    rel = RelationValue(db, "users")
    schema = FiniteHashType({Sym("id"): INT})
    before = fingerprint(schema)
    assert rel.comprdl_check_table(None, schema) is False  # now memoized
    assert fingerprint(schema) == before  # cached, same structure
    schema.widen_key(Sym("username"), STR)
    assert fingerprint(schema) != before
    assert rel.comprdl_check_table(None, schema) is True
    assert _uncached_table_verdict(rel, schema) is True


def test_fingerprint_follows_a_nested_weak_update():
    # the inner hash is widened in place; the outer one is not told
    inner = FiniteHashType({Sym("email"): STR})
    outer = FiniteHashType({Sym("id"): INT, Sym("emails"): inner})
    before = fingerprint(outer)
    inner.widen_key(Sym("user_id"), INT)
    after = fingerprint(outer)
    assert after != before
    assert after == fingerprint(FiniteHashType({
        Sym("id"): INT,
        Sym("emails"): FiniteHashType({Sym("email"): STR,
                                       Sym("user_id"): INT},
                                      optional_keys={Sym("user_id")})}))


@pytest.mark.parametrize("body", [
    "pair = [1, \"a\"]\n    pair.push(:sym)\n    pair",
    "pair = [1, \"a\"]\n    pair[3] = :sym\n    pair",
])
def test_checker_growing_a_tuple_is_a_weak_update(body):
    # the checker appends to a tuple type's elements directly, outside
    # the widen_* methods; fingerprints cached before must not survive
    from repro.rtypes.containers import _WEAK_EPOCH

    rdl = CompRDL()
    rdl.load(f"""
class Grower
  type "() -> Object", typecheck: :grow
  def grow
    {body}
  end
end
""")
    epoch = _WEAK_EPOCH[0]
    assert rdl.check(":grow") is not None
    assert _WEAK_EPOCH[0] > epoch


@pytest.mark.parametrize("widen", ["new_key", "existing_key", "promote"])
def test_finite_hash_predicate_follows_weak_updates(interp, widen):
    const = ConstStringType("x")
    fh = FiniteHashType({Sym("a"): INT, Sym("s"): const})
    pred = predicate_for(fh)
    values = [
        RHash.from_pairs([(Sym("a"), 1), (Sym("s"), RString("x"))]),
        RHash.from_pairs([(Sym("a"), RString("one")),
                          (Sym("s"), RString("x"))]),
        RHash.from_pairs([(Sym("a"), 1), (Sym("s"), RString("y"))]),
        RHash.from_pairs([(Sym("a"), 1), (Sym("s"), RString("x")),
                          (Sym("b"), 2)]),
        RHash.from_pairs([(Sym("s"), RString("x"))]),
    ]
    before = [pred(interp, v) for v in values]  # builds the key map
    assert before == [value_has_type(interp, v, fh) for v in values]
    fp = fingerprint(fh)
    if widen == "new_key":
        fh.widen_key(Sym("b"), INT)
    elif widen == "existing_key":
        fh.widen_key(Sym("a"), STR)
    else:
        const.promote()
    after = [pred(interp, v) for v in values]
    assert after == [value_has_type(interp, v, fh) for v in values]
    assert after != before
    assert fingerprint(fh) != fp


@pytest.mark.parametrize("elts, optional", [
    ({Sym("a"): INT, "a": STR}, ()),
    ({"a": STR, Sym("a"): INT}, ()),
    ({Sym("a"): INT, "a": STR}, (Sym("a"),)),
    ({Sym("a"): INT, "a": STR}, ("a",)),
])
def test_duplicate_normalized_keys_keep_first_match_wins(interp, elts,
                                                         optional):
    fh = FiniteHashType(elts, optional_keys=optional)
    pred = predicate_for(fh)
    values = [
        RHash.from_pairs([(Sym("a"), 1)]),
        RHash.from_pairs([(Sym("a"), RString("s"))]),
        RHash.from_pairs([(RString("a"), 1)]),
        RHash.from_pairs([(RString("a"), RString("s"))]),
        RHash.from_pairs([]),
    ]
    verdicts = [pred(interp, v) for v in values]
    assert verdicts == [value_has_type(interp, v, fh) for v in values]
    first = next(iter(elts.values()))
    # whichever spelling comes first types the entry, for both spellings
    assert verdicts[0] == verdicts[2] == (first is INT)
    assert verdicts[1] == verdicts[3] == (first is STR)


def test_model_instances_cache_by_class_per_interpreter():
    """Two universes give one class name different ancestors; a model
    instance of each must get its own verdict, in any order."""
    pred = predicate_for(NominalType("Auditable"))
    left, right = CompRDL(), CompRDL()
    left.load("class Auditable\nend\nclass Probe < Auditable\nend\n"
              "class Other\nend\n")
    right.load("class Auditable\nend\nclass Probe\nend\n")
    a = RObject(left.interp.classes["Probe"])
    b = RObject(right.interp.classes["Probe"])
    other = RObject(left.interp.classes["Other"])
    for _ in range(2):
        assert pred(left.interp, a) is True
        assert pred(left.interp, other) is False
        assert pred(right.interp, b) is False
    for rdl, value in ((left, a), (right, b)):
        assert pred(rdl.interp, value) == value_has_type(
            rdl.interp, value, NominalType("Auditable"))
    # an array of them goes through the same cache
    arr = predicate_for(GenericType("Array", (NominalType("Auditable"),)))
    assert arr(left.interp, RArray([a, a])) is True
    assert arr(right.interp, RArray([b])) is False


def test_model_instance_verdicts_do_not_pin_a_discarded_universe():
    import gc
    import weakref

    class Marker:
        """Weakly referenceable, reachable only through the model class."""

    pred = predicate_for(NominalType("Auditable"))
    rdl = CompRDL()
    rdl.load("class Auditable\nend\nclass Kept < Auditable\nend\n")
    kept = rdl.interp.classes["Kept"]
    kept.cvars["@@marker"] = marker = Marker()
    assert pred(rdl.interp, RObject(kept)) is True
    probe = weakref.ref(marker)
    del rdl, kept, marker
    gc.collect()
    assert probe() is None, "a model class outlived its universe"
