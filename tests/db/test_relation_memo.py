"""``RelationValue.comprdl_check_table`` memoization regression.

The cache used to key on ``id(schema_type)``: after a type object was
garbage-collected, a *different* schema type allocated at the same address
would replay the stale verdict.  The key now carries the expected type's
*structural* form — an interned fingerprint (never-recycled int id issued
per structure, see :func:`repro.rtypes.intern.fingerprint`) — so same-shape
types share an entry and different-shape types can never collide: no raw
object identity in the key at all.
"""

import pytest

from repro import Database
from repro.orm import relation as relation_mod
from repro.orm.relation import RelationValue
from repro.rtypes import FiniteHashType, NominalType
from repro.rtypes.kinds import Sym


@pytest.fixture
def rel():
    db = Database()
    db.create_table("users", username="string")
    relation_mod._TABLE_CHECK_CACHE.clear()
    return RelationValue(db, "users")


def _shape(**cols):
    return FiniteHashType({Sym(k): NominalType(v) for k, v in cols.items()})


def test_same_shape_types_share_one_entry(rel):
    matching = _shape(id="Integer", username="String")
    assert rel.comprdl_check_table(None, matching) is True
    size = len(relation_mod._TABLE_CHECK_CACHE)
    # a *distinct* object with the same structure hits the same entry
    clone = _shape(id="Integer", username="String")
    assert clone is not matching
    assert rel.comprdl_check_table(None, clone) is True
    assert len(relation_mod._TABLE_CHECK_CACHE) == size


def test_distinct_shapes_never_collide(rel):
    matching = _shape(id="Integer", username="String")
    assert rel.comprdl_check_table(None, matching) is True
    # previously this could land on the recycled id() of a collected type
    # and replay its verdict; structurally keyed, it must be judged fresh
    mismatched = _shape(id="Integer", nickname="String")
    assert rel.comprdl_check_table(None, mismatched) is False
    assert rel.comprdl_check_table(None, matching) is True


def test_key_carries_the_type_structurally(rel):
    from repro.rtypes.intern import fingerprint

    shape = _shape(id="Integer", username="String")
    rel.comprdl_check_table(None, shape)
    ((key, _value),) = relation_mod._TABLE_CHECK_CACHE.items()
    # the expected type appears as its structural fingerprint — a clone gets
    # the identical fingerprint, and raw id(shape) never enters the key
    assert fingerprint(shape) in key
    assert fingerprint(_shape(id="Integer", username="String")) in key
    assert id(shape) not in key


def test_schema_change_is_visible_through_the_cache(rel):
    wide = _shape(id="Integer", username="String", age="Integer")
    assert rel.comprdl_check_table(None, wide) is False
    rel.db.add_column("users", "age", "integer")
    assert rel.comprdl_check_table(None, wide) is True


def test_universes_never_share_a_verdict():
    """Two databases at the same generation with a same-named table of
    different shape: one's memoized verdict must not answer for the
    other (the fuzzer's live-relation probes found this collision)."""
    narrow, wide = Database(), Database()
    narrow.create_table("users", username="string")
    wide.create_table("users", username="string", age="integer")
    assert narrow.version == wide.version
    relation_mod._TABLE_CHECK_CACHE.clear()
    shape = _shape(id="Integer", username="String")
    assert RelationValue(narrow, "users").comprdl_check_table(None, shape)
    assert not RelationValue(wide, "users").comprdl_check_table(None, shape)
    assert RelationValue(narrow, "users").comprdl_check_table(None, shape)
