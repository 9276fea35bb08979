"""The process-wide library base: the library installed once, then copied.

The paper's point about library comp types is that "once written, these
comp types can be used to type check as many clients as we would like"
(§5).  Installing them — the type-level helpers (native and mini-Ruby) and
the eight signature tables, about 700 ``annotate`` calls — gives the same
result in every universe, so :func:`library_base` runs the installers once
per process into a template universe and records what they produced.
:meth:`LibraryBase.install` then gives each universe flat copies:

* native helper methods: shared entries in the universe's own class
  tables (a native takes the interpreter as an argument, so nothing in it
  is bound to one universe);
* the mini-Ruby helpers (``schema_type`` …): new user methods owned by the
  universe's classes, sharing the parsed bodies and their compiled code;
* annotations: one new list per method key, holding the shared, frozen
  records — except the few signatures with weak-updatable parts (tuples,
  finite hashes, const strings), whose records get a ``fresh_copy`` per
  universe, as the parse cache hands them out, so a weak update in one
  universe never reaches another;
* ``comp_annotation_count``, ``helper_methods``, the helpers' method
  definitions and the Table 1 stats.

Everything bound to a universe's ``Database`` (the ActiveRecord, Sequel
and JSON layers) is installed per universe by its own installer, as is
everything a universe loads later.
"""

from __future__ import annotations

from dataclasses import replace
from types import SimpleNamespace

from repro.rtypes.intern import fresh_copy
from repro.runtime.interp import Interp
from repro.runtime.objects import _METHOD_EPOCH, RMethod
from repro.typecheck.registry import AnnotationRegistry

# the one base of this process, once built; and how often one was built
# (``library.base_builds`` in the metrics snapshot: 1 after the first
# universe, however many follow)
_BASE: list["LibraryBase"] = []
_BUILDS = [0]


def library_base() -> "LibraryBase":
    """The process's library base, built by the installers on first use."""
    if not _BASE:
        from repro.annotations import run_installers

        _BASE.append(LibraryBase(run_installers))
        _BUILDS[0] += 1
    return _BASE[0]


def base_builds() -> int:
    return _BUILDS[0]


class LibraryBase:
    """What the library installers add to a fresh universe, recorded once."""

    def __init__(self, installers) -> None:
        interp = Interp()
        registry = AnnotationRegistry()
        interp.registry = registry
        before = {name: (klass.imethods.copy(), klass.smethods.copy())
                  for name, klass in interp.classes.items()}
        self.library_stats: dict = installers(
            SimpleNamespace(interp=interp, registry=registry))
        # (class name, static, method name, method) for every method the
        # installers (re)defined, in table order
        self._methods: list[tuple[str, bool, str, RMethod]] = []
        for class_name, klass in interp.classes.items():
            old_imethods, old_smethods = before[class_name]
            for static, table, old in ((False, klass.imethods, old_imethods),
                                       (True, klass.smethods, old_smethods)):
                for name, method in table.items():
                    if old.get(name) is not method:
                        self._methods.append((class_name, static, name, method))
        self._keys = list(registry.method_annotations)
        self._records = [tuple(records)
                         for records in registry.method_annotations.values()]
        # positions of the keys with a weak-updatable (never interned)
        # signature among their records
        self._weak_at = [i for i, records in enumerate(self._records)
                         if any(not a.signature._interned for a in records)]
        self._comp_counts = dict(registry.comp_annotation_count)
        self._helpers = frozenset(registry.helper_methods)
        self._defined = dict(registry.defined_methods)

    def install(self, rdl) -> dict[str, dict[str, int]]:
        """Copy the library into a new universe's interpreter and (still
        empty) registry; returns the Table 1 accounting
        :func:`repro.annotations.run_installers` returned when the base
        was built."""
        interp, registry = rdl.interp, rdl.registry
        classes = interp.classes
        for class_name, static, name, method in self._methods:
            klass = classes[class_name]
            if method.native is None:
                # a user method runs with its owner as the defining class
                copy = RMethod(name, method.params, method.body, owner=klass)
                copy.code = method.code
                method = copy
            if static:
                klass.smethods[name] = method
            else:
                klass.imethods[name] = method
        _METHOD_EPOCH[0] += 1
        lists = list(map(list, self._records))
        for i in self._weak_at:
            lists[i] = [a if a.signature._interned
                        else replace(a, signature=fresh_copy(a.signature))
                        for a in lists[i]]
        registry.method_annotations.update(zip(self._keys, lists))
        registry.comp_annotation_count.update(self._comp_counts)
        registry.helper_methods.update(self._helpers)
        registry.defined_methods.update(self._defined)
        return {library: dict(row)
                for library, row in self.library_stats.items()}
