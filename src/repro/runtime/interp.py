"""The mini-Ruby virtual machine.

Mirrors RDL's execution model: programs are *run* to define classes,
methods, and type annotations (the ``type ...`` directives are ordinary
method calls, exactly as in RDL §2), after which the static checker can be
invoked over the loaded definitions.  The interpreter also honours the
dynamic checks that CompRDL's rewriting step attaches to call sites: when
``checks_enabled`` is set, a call whose ``node_id`` appears in
``check_table`` re-validates its comp type and checks the returned value,
raising :class:`repro.runtime.errors.Blame` on failure (§3.2's ⌈A⌉e.m(e)).

User code runs through the closure compiler (:mod:`repro.runtime.compile`):
each AST node is lowered once into a Python closure, and evaluation is
direct calls through precompiled closure trees.  This module holds what
the compiled code calls back into — dispatch (``call_method``/
``_dispatch``/``invoke``), block calls, constant lookup, the object model
bootstrap and the dynamic-check table.

The tree-walking reference semantics live in :mod:`repro.runtime.tree`
(``TreeInterp``), a test oracle no production module imports;
``tests/runtime/test_compile_parity.py`` asserts the two agree on results,
Blame messages and dependency footprints.
"""

from __future__ import annotations

import weakref

from repro.lang import ast_nodes as ast
from repro.lang.parser import parse_program
from repro.rtypes.kinds import Sym
from repro.runtime.errors import RubyError
from repro.runtime.objects import (
    RArray,
    RBlock,
    RClass,
    RException,
    RHash,
    RMethod,
    RObject,
    RString,
    ruby_eq,
    ruby_to_s,
)


class Env:
    """A lexical environment; blocks chain to their defining environment."""

    __slots__ = ("vars", "parent")

    def __init__(self, parent: "Env | None" = None):
        self.vars: dict[str, object] = {}
        self.parent = parent

    def lookup(self, name: str) -> object:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                return env.vars[name]
            env = env.parent
        return None

    def knows(self, name: str) -> bool:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                return True
            env = env.parent
        return False

    def assign(self, name: str, value: object) -> None:
        env: Env | None = self
        while env is not None:
            if name in env.vars:
                env.vars[name] = value
                return
            env = env.parent
        self.vars[name] = value


class Frame:
    """An activation record: current self, locals, block, defining class."""

    __slots__ = ("self_obj", "env", "block", "defining_class", "method_name")

    def __init__(
        self,
        self_obj: object,
        env: Env,
        block: RBlock | None = None,
        defining_class: RClass | None = None,
        method_name: str = "",
    ):
        self.self_obj = self_obj
        self.env = env
        self.block = block
        self.defining_class = defining_class
        self.method_name = method_name


class ReturnSignal(Exception):
    def __init__(self, value: object):
        self.value = value


class BreakSignal(Exception):
    def __init__(self, value: object):
        self.value = value


class NextSignal(Exception):
    def __init__(self, value: object):
        self.value = value


class RaiseSignal(Exception):
    """Carries a mini-Ruby exception object through Python frames."""

    def __init__(self, exc: RException):
        super().__init__(exc.message)
        self.exc = exc


def _as_assign_target(target: ast.Node) -> ast.Node:
    """Normalize an ``||=`` target: a bare self-call is really a local."""
    if isinstance(target, ast.MethodCall) and target.receiver is None and not target.args:
        return ast.LocalVar(name=target.name, line=target.line)
    return target


class RRange:
    """A minimal Range object (supports each/to_a/include?/case-===).

    Membership (`includes`) and the bound/size queries are O(1); iteration
    goes through :meth:`span`, a lazy Python ``range`` — nothing ever
    materializes the element list except an explicit ``to_a``.
    """

    __slots__ = ("low", "high", "exclusive")

    def __init__(self, low: int, high: int, exclusive: bool):
        self.low = low
        self.high = high
        self.exclusive = exclusive

    def span(self) -> range:
        """The elements as a lazy ``range`` (O(1) len/bounds/emptiness)."""
        return range(self.low, self.high + (0 if self.exclusive else 1))

    def values(self) -> list[int]:
        return list(self.span())

    def size(self) -> int:
        return len(self.span())

    def sum(self) -> int:
        span = self.span()
        n = len(span)
        return (span.start + span[-1]) * n // 2 if n else 0

    def includes(self, value: object) -> bool:
        if not isinstance(value, (int, float)) or isinstance(value, bool):
            return False
        if self.exclusive:
            return self.low <= value < self.high
        return self.low <= value <= self.high


class Interp:
    """A mini-Ruby virtual machine instance.

    Attributes of note:

    * ``registry`` — annotation registry written by ``type``/``var_type``
      directives during load (plugged in by the CompRDL facade);
    * ``check_table`` / ``checks_enabled`` — dynamic checks inserted by the
      type checker, keyed by call-site ``node_id``;
    * ``db`` — the in-memory database handle used by the ORM substrates;
    * ``foreign_dispatch`` — hook for Python-implemented objects (ORM
      relations) to participate in method dispatch.
    """

    def __init__(self) -> None:
        # one reusable weakref for the compiled code's call-site caches
        # (they must not strongly pin this interpreter; see compile.py)
        self.weak_self = weakref.ref(self)
        self.classes: dict[str, RClass] = {}
        self.consts: dict[str, object] = {}
        self.globals: dict[str, object] = {}
        self.stdout: list[str] = []
        self.registry = None  # set by the CompRDL facade
        self.check_table: dict[int, object] = {}
        self.checks_enabled = False
        self.db = None
        # handlers: fn(interp, recv, name, args, block, line) -> (handled, value)
        # — handlers must claim receivers by (Python) type: the compiled
        # backend's call-site caches bypass the handler loop for builtin
        # value types no handler has ever claimed
        self.foreign_handlers: list = []
        # callbacks invoked after a class body executes: fn(interp, rclass)
        self.class_def_hooks: list = []
        # one Frame per active user-method call; runaway recursion ends at
        # Python's recursion limit, which ``invoke`` turns into Ruby's
        # SystemStackError
        self.frame_stack: list[Frame] = []
        self._bootstrap()
        from repro.runtime.corelib import install_corelib

        install_corelib(self)
        self.main = RObject(self.classes["Object"])
        # exact-pytype -> RClass shortcut for class_of (subclasses and the
        # identity-dispatched immediates fall back to the isinstance ladder)
        self._pytype_classes: dict[type, RClass] = {
            int: self.classes["Integer"],
            float: self.classes["Float"],
            Sym: self.classes["Symbol"],
            RString: self.classes["String"],
            RArray: self.classes["Array"],
            RHash: self.classes["Hash"],
            RRange: self.classes["Range"],
            RBlock: self.classes["Proc"],
            RClass: self.classes["Class"],
        }

    # ------------------------------------------------------------------
    # bootstrap
    # ------------------------------------------------------------------
    _CORE = [
        ("Object", None),
        ("BasicObject", "Object"),
        ("Module", "Object"),
        ("Class", "Module"),
        ("NilClass", "Object"),
        ("Boolean", "Object"),
        ("TrueClass", "Boolean"),
        ("FalseClass", "Boolean"),
        ("Numeric", "Object"),
        ("Integer", "Numeric"),
        ("Float", "Numeric"),
        ("String", "Object"),
        ("Symbol", "Object"),
        ("Array", "Object"),
        ("Hash", "Object"),
        ("Range", "Object"),
        ("Proc", "Object"),
        ("Exception", "Object"),
        ("StandardError", "Exception"),
        ("RuntimeError", "StandardError"),
        ("ArgumentError", "StandardError"),
        ("TypeError", "StandardError"),
        ("NameError", "StandardError"),
        ("NoMethodError", "NameError"),
        ("ZeroDivisionError", "StandardError"),
        ("IndexError", "StandardError"),
        ("KeyError", "IndexError"),
        ("Kernel", "Object"),
        ("Comparable", "Object"),
        ("Enumerable", "Object"),
    ]

    def _bootstrap(self) -> None:
        for name, superclass in self._CORE:
            self.define_class(name, superclass)
        self.classes["Array"].generic_params = ["a"]
        self.classes["Hash"].generic_params = ["k", "v"]

    def define_class(self, name: str, superclass: str | None = "Object") -> RClass:
        """Create (or fetch) a class, linking its superclass."""
        if name in self.classes:
            return self.classes[name]
        parent = None
        if superclass is not None:
            parent = self.classes.get(superclass) or self.define_class(superclass)
        klass = RClass(name, parent)
        self.classes[name] = klass
        return klass

    # ------------------------------------------------------------------
    # entry points
    # ------------------------------------------------------------------
    def run(self, source: str) -> object:
        """Parse and execute a program; returns the last statement's value."""
        program = parse_program(source)
        return self.run_program(program)

    def run_program(self, program: ast.Program) -> object:
        frame = Frame(self.main, Env(), defining_class=self.classes["Object"])
        return self.execute_program(program, frame)

    @property
    def call_depth(self) -> int:
        """How many user-defined methods are active right now."""
        return len(self.frame_stack)

    def execute_program(self, program: ast.Program, frame: Frame) -> object:
        """Run a parsed program in ``frame``.

        The compiled closure is cached on the ``Program`` node itself, so a
        parse-cached program shared by many universes lowers exactly once.
        """
        code = program.compiled
        if code is None:
            from repro.runtime.compile import compile_program

            code = compile_program(program)
            program.compiled = code
        return code(self, frame)

    def resolve_const(self, name: str, frame: Frame | None, line: int) -> object:
        if frame is not None and frame.defining_class is not None:
            for klass in frame.defining_class.ancestors():
                if name in klass.consts:
                    return klass.consts[name]
        if name in self.consts:
            return self.consts[name]
        if name in self.classes:
            return self.classes[name]
        raise RaiseSignal(self.make_exception("NameError", f"uninitialized constant {name}", line))


    def case_eq(self, pattern: object, subject: object) -> bool:
        """Ruby's ``===``: class membership, range inclusion, else ``==``."""
        if isinstance(pattern, RClass):
            return self.is_a(subject, pattern)
        if isinstance(pattern, RRange):
            return pattern.includes(subject)
        return ruby_eq(pattern, subject)

    # -- exceptions ----------------------------------------------------------
    def make_exception(self, class_name: str, message: str, line: int = 0) -> RException:
        klass = self.classes.get(class_name) or self.define_class(class_name, "StandardError")
        return RException(klass, message)

    # core dispatch ------------------------------------------------------------
    def class_of(self, value: object) -> RClass:
        """The runtime class of a value (its dynamic type)."""
        if value is None:
            return self.classes["NilClass"]
        if value is True:
            return self.classes["TrueClass"]
        if value is False:
            return self.classes["FalseClass"]
        klass = self._pytype_classes.get(type(value))
        if klass is not None:
            return klass
        if isinstance(value, int):
            return self.classes["Integer"]
        if isinstance(value, float):
            return self.classes["Float"]
        if isinstance(value, Sym):
            return self.classes["Symbol"]
        if isinstance(value, RString):
            return self.classes["String"]
        if isinstance(value, RArray):
            return self.classes["Array"]
        if isinstance(value, RHash):
            return self.classes["Hash"]
        if isinstance(value, RRange):
            return self.classes["Range"]
        if isinstance(value, RBlock):
            return self.classes["Proc"]
        if isinstance(value, RClass):
            return self.classes["Class"]
        if isinstance(value, RObject):
            return value.rclass
        raise RubyError("InterpError", f"untyped runtime value {value!r}")

    def is_a(self, value: object, klass: RClass) -> bool:
        actual = self.class_of(value)
        if isinstance(value, RClass) and klass.name in ("Class", "Module", "Object"):
            return True
        return klass in actual.ancestors() or klass.name == "Object"

    def call_method(
        self,
        receiver: object,
        name: str,
        args: list,
        block: RBlock | None,
        line: int,
        node_id: int | None = None,
    ) -> object:
        """Dispatch ``receiver.name(args, &block)``, honouring checked calls."""
        spec = self.check_table.get(node_id) if (self.checks_enabled and node_id) else None
        if spec is not None:
            spec.before_call(self, receiver, args, line)
        result = self._dispatch(receiver, name, args, block, line)
        if spec is not None:
            spec.after_call(self, receiver, args, result, line)
        return result

    def _dispatch(self, receiver: object, name: str, args: list,
                  block: RBlock | None, line: int) -> object:
        for handler in self.foreign_handlers:
            handled, value = handler(self, receiver, name, args, block, line)
            if handled:
                return value
        if isinstance(receiver, RClass):
            method = receiver.lookup_static(name)
            if method is None:
                # classes are objects: fall back to Object's instance methods
                method = self.classes["Object"].lookup_instance(name)
            if method is None:
                raise RaiseSignal(self.make_exception(
                    "NoMethodError", f"undefined method '{name}' for {receiver.name}", line))
            return self.invoke(method, receiver, args, block, line)
        rclass = self.class_of(receiver)
        method = rclass.lookup_instance(name)
        if method is None:
            if receiver is None:
                raise RaiseSignal(self.make_exception(
                    "NoMethodError", f"undefined method '{name}' for nil", line))
            raise RaiseSignal(self.make_exception(
                "NoMethodError", f"undefined method '{name}' for {rclass.name}", line))
        return self.invoke(method, receiver, args, block, line)

    def invoke(self, method: RMethod, receiver: object, args: list,
               block: RBlock | None, line: int) -> object:
        if method.native is not None:
            return method.native(self, receiver, args, block)
        code = method.code
        if code is None:
            from repro.runtime.compile import CompiledMethod

            code = CompiledMethod(method.params, method.body)
            method.code = code
        env = Env()
        code.bind(self, receiver, args, block, env)
        frame = Frame(receiver, env, block=block,
                      defining_class=method.owner, method_name=method.name)
        self.frame_stack.append(frame)
        try:
            return code.body_fn()(self, frame)
        except ReturnSignal as ret:
            return ret.value
        except RecursionError:
            # the innermost frames may lack the headroom to build the error;
            # a RecursionError from here just converts one frame further out
            raise RubyError("SystemStackError", "stack level too deep",
                            line) from None
        finally:
            self.frame_stack.pop()

    def call_block(self, block: RBlock, args: list, line: int) -> object:
        """Invoke a block/proc with the given arguments."""
        if block.sym_proc is not None:
            if not args:
                raise RubyError("ArgumentError", "no receiver for Symbol#to_proc", line)
            return self.call_method(args[0], block.sym_proc.name, list(args[1:]), None, line)
        entry = block.compiled
        if entry is None:
            from repro.runtime.compile import CompiledBlock

            entry = CompiledBlock(block.params, block.body)
            block.compiled = entry
        return entry.call(self, block, args)

    # ------------------------------------------------------------------
    # misc helpers used by natives
    # ------------------------------------------------------------------
    def write_stdout(self, text: str) -> None:
        self.stdout.append(text)

    def new_instance(self, klass: RClass, args: list, block: RBlock | None, line: int) -> object:
        if klass.name in ("Exception",) or self._inherits(klass, "Exception"):
            message = ruby_to_s(args[0]) if args else klass.name
            return RException(klass, message)
        obj = RObject(klass)
        init = klass.lookup_instance("initialize")
        if init is not None:
            self.invoke(init, obj, args, block, line)
        return obj

    def _inherits(self, klass: RClass, name: str) -> bool:
        return any(a.name == name for a in klass.ancestors())
