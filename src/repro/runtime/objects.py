"""The mini-Ruby object model.

Immediates map to Python values (``nil``→``None``, booleans, ``Integer``→
``int``, ``Float``→``float``, ``Symbol``→:class:`repro.rtypes.kinds.Sym`).
Strings get a mutable wrapper (:class:`RString`) because Ruby strings are
mutable — which is exactly why the paper needs *const string* types.
Arrays, hashes, user objects, classes, blocks and exceptions each have a
small wrapper class.
"""

from __future__ import annotations

from typing import Callable, Iterable, Optional

from repro.rtypes.kinds import Sym


class RString:
    """A mutable Ruby string."""

    __slots__ = ("val", "frozen")

    def __init__(self, val: str = "", frozen: bool = False):
        self.val = val
        self.frozen = frozen

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RString({self.val!r})"


class RArray:
    """A Ruby array wrapping a Python list of runtime values."""

    __slots__ = ("items",)

    def __init__(self, items: Optional[Iterable[object]] = None):
        self.items = list(items) if items is not None else []

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RArray({self.items!r})"


def hash_key(value: object) -> object:
    """A hashable, value-equal key for a runtime value used as a hash key."""
    if value is None:
        return ("nil",)
    if value is True or value is False:
        return ("bool", value)
    if isinstance(value, int):
        return ("int", value)
    if isinstance(value, float):
        return ("float", value)
    if isinstance(value, Sym):
        return ("sym", value.name)
    if isinstance(value, RString):
        return ("str", value.val)
    if isinstance(value, RClass):
        return ("class", value.name)
    if isinstance(value, RArray):
        return ("array", tuple(hash_key(v) for v in value.items))
    raise TypeError(f"unhashable hash key: {value!r}")


class RHash:
    """A Ruby hash: insertion-ordered, keyed by value equality."""

    __slots__ = ("entries",)

    def __init__(self) -> None:
        # normalized key -> (original key object, value)
        self.entries: dict[object, tuple[object, object]] = {}

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[object, object]]) -> "RHash":
        h = cls()
        for key, value in pairs:
            h.set(key, value)
        return h

    def get(self, key: object, default: object = None) -> object:
        entry = self.entries.get(hash_key(key))
        return entry[1] if entry is not None else default

    def has_key(self, key: object) -> bool:
        return hash_key(key) in self.entries

    def set(self, key: object, value: object) -> None:
        self.entries[hash_key(key)] = (key, value)

    def delete(self, key: object) -> object:
        entry = self.entries.pop(hash_key(key), None)
        return entry[1] if entry is not None else None

    def keys(self) -> list[object]:
        return [k for k, _ in self.entries.values()]

    def values(self) -> list[object]:
        return [v for _, v in self.entries.values()]

    def pairs(self) -> list[tuple[object, object]]:
        return list(self.entries.values())

    def __len__(self) -> int:
        return len(self.entries)

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RHash({self.pairs()!r})"


class RMethod:
    """A method entry: either user-defined (AST) or native (Python).

    ``code`` caches the closure-compiled form of a user-defined body
    (a :class:`repro.runtime.compile.CompiledMethod`); it is filled lazily
    the first time the compiled backend invokes the method.  ``wref`` is a
    reusable weak reference handed to the compiled backend's call-site
    caches — those live on process-shared AST nodes, and a strong method
    reference there would pin a discarded universe's whole class graph
    through ``owner``.
    """

    __slots__ = ("name", "params", "body", "native", "owner", "code",
                 "wref", "__weakref__")

    def __init__(
        self,
        name: str,
        params: list | None = None,
        body: list | None = None,
        native: Callable | None = None,
        owner: "RClass | None" = None,
    ):
        self.name = name
        self.params = params or []
        self.body = body or []
        self.native = native
        self.owner = owner
        self.code = None
        self.wref = None

    @property
    def is_native(self) -> bool:
        return self.native is not None

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = "native" if self.is_native else "user"
        return f"RMethod({self.name}, {kind})"


# Global method-table epoch: bumped on every (re)definition anywhere, so the
# flattened per-class lookup caches below (and the call-site inline caches in
# the compiled backend) can validate themselves with one integer compare.
# Invalidation is deliberately coarse — definitions happen during program
# load, lookups dominate during checking and running.
_METHOD_EPOCH = [1]


def method_epoch() -> int:
    """The current global method-table generation."""
    return _METHOD_EPOCH[0]


class RClass:
    """A Ruby class: method tables, superclass link, and class-level state.

    Method lookup memoizes the ancestor-chain walk in per-class flattened
    caches (``_icache``/``_scache``), validated against the global method
    epoch — redefining *any* method anywhere drops every cache.
    """

    __slots__ = ("name", "superclass", "imethods", "smethods", "consts",
                 "cvars", "generic_params", "_icache", "_scache", "_epoch")

    def __init__(self, name: str, superclass: "RClass | None" = None):
        self.name = name
        self.superclass = superclass
        self.imethods: dict[str, RMethod] = {}
        self.smethods: dict[str, RMethod] = {}
        self.consts: dict[str, object] = {}
        self.cvars: dict[str, object] = {}
        self.generic_params: list[str] = []
        self._icache: dict[str, RMethod | None] = {}
        self._scache: dict[str, RMethod | None] = {}
        self._epoch = 0

    def ancestors(self) -> list["RClass"]:
        chain: list[RClass] = []
        current: RClass | None = self
        while current is not None:
            chain.append(current)
            current = current.superclass
        return chain

    def _revalidate_caches(self) -> None:
        """Empty both flattened lookup caches if the epoch moved on.

        This is the single definition of the invalidation rule: any method
        (re)definition anywhere bumps the global epoch, and the first lookup
        afterwards drops both caches together.
        """
        if self._epoch != _METHOD_EPOCH[0]:
            self._icache = {}
            self._scache = {}
            self._epoch = _METHOD_EPOCH[0]

    def lookup_instance(self, name: str) -> RMethod | None:
        self._revalidate_caches()
        cache = self._icache
        try:
            return cache[name]
        except KeyError:
            pass
        method: RMethod | None = None
        klass: RClass | None = self
        while klass is not None:
            found = klass.imethods.get(name)
            if found is not None:
                method = found
                break
            klass = klass.superclass
        cache[name] = method
        return method

    def lookup_static(self, name: str) -> RMethod | None:
        self._revalidate_caches()
        cache = self._scache
        try:
            return cache[name]
        except KeyError:
            pass
        method: RMethod | None = None
        klass: RClass | None = self
        while klass is not None:
            found = klass.smethods.get(name)
            if found is not None:
                method = found
                break
            klass = klass.superclass
        cache[name] = method
        return method

    def define(self, name: str, method: RMethod, static: bool = False) -> None:
        method.owner = self
        _METHOD_EPOCH[0] += 1
        if static:
            self.smethods[name] = method
        else:
            self.imethods[name] = method

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"RClass({self.name})"


class RObject:
    """An instance of a user-defined class, with instance variables."""

    __slots__ = ("rclass", "ivars")

    def __init__(self, rclass: RClass):
        self.rclass = rclass
        self.ivars: dict[str, object] = {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"#<{self.rclass.name}>"


class RException(RObject):
    """An exception instance; carries its message in ``@message``."""

    __slots__ = ()

    def __init__(self, rclass: RClass, message: str = ""):
        super().__init__(rclass)
        self.ivars["@message"] = RString(message)

    @property
    def message(self) -> str:
        msg = self.ivars.get("@message")
        return msg.val if isinstance(msg, RString) else str(msg)


class RBlock:
    """A block/lambda: parameters, body, captured environment and self.

    ``compiled`` optionally carries the closure-compiled entry for the body
    (a :class:`repro.runtime.compile.CompiledBlock`, cached on the source
    ``BlockNode`` so every block instance created from one literal shares
    it); ``None`` means ``Interp.call_block`` compiles ``body`` on first
    call (the reference tree walker never looks at it).
    """

    __slots__ = ("params", "body", "env", "self_obj", "is_lambda", "sym_proc",
                 "compiled")

    def __init__(self, params: list, body: list, env: object, self_obj: object,
                 is_lambda: bool = False, sym_proc: Sym | None = None,
                 compiled: object = None):
        self.params = params
        self.body = body
        self.env = env
        self.self_obj = self_obj
        self.is_lambda = is_lambda
        # a Symbol#to_proc block calls the named method on its argument
        self.sym_proc = sym_proc
        self.compiled = compiled

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return "#<Proc>"


# ---------------------------------------------------------------------------
# value helpers shared by the interpreter and native methods
# ---------------------------------------------------------------------------

def ruby_truthy(value: object) -> bool:
    """Ruby truthiness: everything except ``nil`` and ``false``."""
    return value is not None and value is not False


def ruby_eq(a: object, b: object) -> bool:
    """Structural ``==`` over runtime values."""
    if a is b:
        return True
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return a == b
    if isinstance(a, RString) and isinstance(b, RString):
        return a.val == b.val
    if isinstance(a, Sym) and isinstance(b, Sym):
        return a.name == b.name
    if isinstance(a, RArray) and isinstance(b, RArray):
        return len(a.items) == len(b.items) and all(
            ruby_eq(x, y) for x, y in zip(a.items, b.items)
        )
    if isinstance(a, RHash) and isinstance(b, RHash):
        if len(a) != len(b):
            return False
        for key, value in a.pairs():
            if not b.has_key(key) or not ruby_eq(b.get(key), value):
                return False
        return True
    if isinstance(a, RClass) and isinstance(b, RClass):
        return a.name == b.name
    return a is b


def ruby_to_s(value: object) -> str:
    """Ruby ``to_s`` for built-in values."""
    if value is None:
        return ""
    if value is True:
        return "true"
    if value is False:
        return "false"
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, int):
        return str(value)
    if isinstance(value, RString):
        return value.val
    if isinstance(value, Sym):
        return value.name
    if isinstance(value, RArray):
        return ruby_inspect(value)
    if isinstance(value, RHash):
        return ruby_inspect(value)
    if isinstance(value, RClass):
        return value.name
    if isinstance(value, RException):
        return value.message
    if isinstance(value, RObject):
        return f"#<{value.rclass.name}>"
    return str(value)


def ruby_inspect(value: object) -> str:
    """Ruby ``inspect`` for built-in values."""
    if value is None:
        return "nil"
    if isinstance(value, RString):
        return repr(value.val)
    if isinstance(value, Sym):
        return f":{value.name}"
    if isinstance(value, RArray):
        return "[" + ", ".join(ruby_inspect(v) for v in value.items) + "]"
    if isinstance(value, RHash):
        parts = [f"{ruby_inspect(k)}=>{ruby_inspect(v)}" for k, v in value.pairs()]
        return "{" + ", ".join(parts) + "}"
    return ruby_to_s(value)
