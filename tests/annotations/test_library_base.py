"""The process-wide library base and the universes copied from it.

The oracle is a universe built the old way: the installers run into it
directly (``Interp.installed`` for the core library, ``run_installers``
for the annotation sets), selected by monkeypatching the names
``CompRDL.__init__`` looks up.
"""

import dataclasses
import os
import pickle
import subprocess
import sys
from collections import OrderedDict

import pytest

import repro
import repro.api
from repro import CompRDL
from repro.annotations import run_installers
from repro.annotations.base import library_base
from repro.lang import parser
from repro.runtime.interp import _CORELIB_TEMPLATE, Interp
from repro.runtime.objects import RClass, RMethod
from repro.typecheck.registry import AnnotationRegistry, MethodKey


def scratch_universe(monkeypatch, **kwargs) -> CompRDL:
    """A universe whose core library and annotations come straight from
    the installers, as every universe's did before the base existed."""
    with monkeypatch.context() as patch:
        patch.setattr(repro.api, "Interp", Interp.installed)
        patch.setattr(repro.api, "install_all", run_installers)
        # parse the mini-Ruby helpers afresh, as after a parse-cache eviction
        patch.setattr(parser, "_PROGRAM_CACHE", OrderedDict())
        return CompRDL(**kwargs)


def code_shape(value):
    """A native's code and, recursively, what its closure captured —
    equal for two installs of the same native."""
    if hasattr(value, "__code__"):
        cells = value.__closure__ or ()
        return (value.__code__,
                tuple(code_shape(cell.cell_contents) for cell in cells))
    return value


def ast_shape(value):
    """An AST's structure without the per-parse call-site ids (the oracle
    may have parsed the helpers afresh)."""
    if isinstance(value, (list, tuple)):
        return [ast_shape(v) for v in value]
    if dataclasses.is_dataclass(value):
        return (type(value).__name__,) + tuple(
            ast_shape(getattr(value, f.name))
            for f in dataclasses.fields(value)
            if f.name not in ("node_id", "compiled", "col"))
    return value


def method_shape(method: RMethod, klass: RClass):
    if method.native is not None:
        return ("native", method.name, code_shape(method.native))
    # a user method must run with this universe's class as its owner
    assert method.owner is klass, method
    return ("user", method.name, ast_shape(method.params),
            ast_shape(method.body))


def universe_shape(rdl: CompRDL) -> dict:
    interp, registry = rdl.interp, rdl.registry
    classes = {}
    for name, klass in interp.classes.items():
        classes[name] = (
            klass.superclass.name if klass.superclass else None,
            [method_shape(m, klass) for m in klass.imethods.values()],
            [method_shape(m, klass) for m in klass.smethods.values()],
            dict(klass.consts), dict(klass.cvars), list(klass.generic_params),
        )
    annotations = {
        str(key): [(a.signature.to_s(), a.label, a.terminates, a.pure, a.wrap)
                   for a in records]
        for key, records in registry.method_annotations.items()}
    effects = {str(key): registry.effect_of(key.class_name, key.method_name,
                                            key.static, interp)
               for key in registry.method_annotations}
    return {
        "classes": classes,
        "class_order": list(interp.classes),
        "annotations": annotations,
        "annotation_order": [str(k) for k in registry.method_annotations],
        "effects": effects,
        "defined": {str(k): ast_shape(node)
                    for k, node in registry.defined_methods.items()},
        "helper_methods": set(registry.helper_methods),
        "comp_annotation_count": dict(registry.comp_annotation_count),
        "library_stats": rdl.library_stats,
        "labels": dict(registry.labels),
        "pending": dict(registry.pending),
        "vars": (dict(registry.ivar_types), dict(registry.gvar_types),
                 dict(registry.const_types)),
        "interp": (dict(interp.consts).keys(), dict(interp.globals),
                   list(interp.foreign_handlers),
                   list(interp.class_def_hooks)),
    }


def test_cloned_universe_equals_a_scratch_install(monkeypatch):
    cloned = universe_shape(CompRDL())
    scratch = universe_shape(scratch_universe(monkeypatch))
    assert cloned["class_order"] == scratch["class_order"]
    for name in scratch["class_order"]:
        assert cloned["classes"][name] == scratch["classes"][name], name
    assert cloned["annotation_order"] == scratch["annotation_order"]
    for key, records in scratch["annotations"].items():
        assert cloned["annotations"][key] == records, key
    assert cloned == scratch
    assert cloned["library_stats"]["Array"]["comp_defs"] > 0
    assert len(cloned["helper_methods"]) == cloned["library_stats"][
        "_helpers"]["count"]


def test_shared_natives_capture_nothing_of_a_universe():
    """Native method entries are shared by every universe in the process,
    so none may have captured an interpreter, class, method or registry
    when it was installed."""
    bound = (Interp, RClass, RMethod, AnnotationRegistry)

    def captured(value, seen):
        if id(value) in seen:
            return []
        seen.add(id(value))
        if isinstance(value, bound):
            return [value]
        found = []
        for cell in getattr(value, "__closure__", None) or ():
            found += captured(cell.cell_contents, seen)
        return found

    base = library_base()
    natives = [m for _c, _s, _n, m in base._methods if m.native is not None]
    for klass in _CORELIB_TEMPLATE[0].classes.values():
        natives += [*klass.imethods.values(), *klass.smethods.values()]
    assert len(natives) > 500
    for method in natives:
        assert captured(method.native, set()) == [], method


LEAK = """
class Array
  def shout
    1
  end
end

def schema_type(t)
  t
end

type Array, :first, "() -> Integer"

class Leak
  type :go, "() -> Object", typecheck: :leak
  def go
    pair = [1, 2, 3].partition { |x| x > 1 }
    pair << 5
    q = 7.divmod(2)
    q << "x"
    s = "a-b".partition("-")
    s << 1
    pair
  end
end
"""

PRISTINE_RETURNS = {
    ("Array", "partition"): "[Array<Object>, Array<Object>]",
    ("Integer", "divmod"): "[Numeric, Numeric]",
    ("String", "partition"): "[String, String, String]",
}


def returns_of(rdl: CompRDL) -> dict:
    return {
        key: rdl.registry.method_annotations[MethodKey(*key)][0]
        .signature.ret.to_s()
        for key in PRISTINE_RETURNS}


def test_changes_in_one_universe_reach_no_other():
    before = CompRDL()
    leaky = CompRDL()
    leaky.load(LEAK)
    leaky.check(":leak")
    after = CompRDL()

    first = MethodKey("Array", "first")
    schema_type = MethodKey("Object", "schema_type")
    base_first = len(before.registry.method_annotations[first])

    # every change landed in the universe that made it ...
    assert leaky.interp.classes["Array"].lookup_instance("shout") is not None
    assert len(leaky.registry.method_annotations[first]) == base_first + 1
    assert leaky.registry.defined_methods[schema_type] \
        is not before.registry.defined_methods[schema_type]
    for key, ret in returns_of(leaky).items():
        assert ret != PRISTINE_RETURNS[key], "no weak update happened"

    # ... and in no universe built before or after it
    for other in (before, after):
        assert other.interp.classes["Array"].lookup_instance("shout") is None
        assert MethodKey("Array", "shout") not in other.registry.defined_methods
        assert len(other.registry.method_annotations[first]) == base_first
        helper = other.interp.classes["Object"].imethods["schema_type"]
        assert helper.owner is other.interp.classes["Object"]
        assert helper.body is not \
            leaky.interp.classes["Object"].imethods["schema_type"].body
        assert other.registry.defined_methods[schema_type] \
            is after.registry.defined_methods[schema_type]
        assert returns_of(other) == PRISTINE_RETURNS


def test_without_libraries_a_universe_has_the_corelib_only():
    rdl = CompRDL(install_libraries=False)
    installed = Interp.installed()
    for name, klass in installed.classes.items():
        mine = rdl.interp.classes[name]
        for table, ours in ((klass.imethods, mine.imethods),
                            (klass.smethods, mine.smethods)):
            assert {n: code_shape(m.native) for n, m in table.items()} == \
                {n: code_shape(ours[n].native) for n in table}, name
    assert rdl.registry.method_annotations == {}
    assert rdl.registry.helper_methods == set()
    assert rdl.registry.comp_annotation_count == {}
    assert rdl.registry.defined_methods == {}
    assert rdl.library_stats == {}
    objects = rdl.interp.classes["Object"].imethods
    assert "schema_type" not in objects and "array_elem_type" not in objects


def test_shared_records_are_frozen():
    record = CompRDL().registry.method_annotations[MethodKey("Array", "map")][0]
    with pytest.raises(dataclasses.FrozenInstanceError):
        record.label = "leak"
    key = MethodKey("Array", "map")
    with pytest.raises(dataclasses.FrozenInstanceError):
        key.static = True


def _run(script: str, **env) -> str:
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    env = dict(os.environ, **env, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip()


def test_method_keys_rehash_when_unpickled_in_another_process():
    """MethodKey caches its hash; string hashes differ between processes,
    so an unpickled key must be rehashed to find its dict entry."""
    payload = pickle.dumps([MethodKey("Array", "map"),
                            MethodKey("User", "where", True)]).hex()
    script = f"""
import pickle
from repro.typecheck.registry import MethodKey
keys = pickle.loads(bytes.fromhex({payload!r}))
table = {{MethodKey("Array", "map"): 1, MethodKey("User", "where", True): 2}}
print([table.get(key) for key in keys])
"""
    assert _run(script, PYTHONHASHSEED="12345") == "[1, 2]"


def test_library_base_is_built_once_per_process():
    script = """
from repro.apps import all_apps
for _round in range(2):
    for app in all_apps():
        rdl = app.build()
        rdl.check_all(app.label)
print(rdl.metrics_snapshot()["library.base_builds"])
"""
    assert _run(script) == "1"
