"""Differential suite: the compiled interpreter ≡ the tree-walking oracle.

Every program below runs once on the production :class:`Interp` and once
on the reference :class:`TreeInterp` (sharing the parse-cached AST,
exactly as universes do in one process), and the two runs must agree on
the result value, captured stdout, and any raised error — kind, message
and line.

The app-level tests then assert the strong contract the closure compiler
ships under, with the oracle swapped in for whole universes by
monkeypatching the name the facade constructs (``repro.api.Interp``): on
the combined subject-app cold check the two interpreters produce identical
reports (same method order, same error strings, same cast counters),
identical per-method dependency footprints for the incremental engine,
identical test-suite runs under the inserted dynamic checks, and identical
Blame messages.
"""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.apps import all_apps
from repro.runtime.errors import Blame, RubyError
from repro.runtime.interp import Interp
from repro.runtime.objects import ruby_inspect
from repro.runtime.tree import TreeInterp


# ---------------------------------------------------------------------------
# program corpus — one snippet per language feature family
# ---------------------------------------------------------------------------

CORPUS = {
    "literals": """
[nil, true, false, 42, 3.5, "str", :sym, [1, [2]], {a: 1, "b" => 2}, (1..4).to_a]
""",
    "string_interp": """
name = "world"
n = 3
"hello #{name} #{n + 1}!"
""",
    "arithmetic_loop": """
total = 0
i = 0
while i < 50
  total = total + i * 3 - 1
  i = i + 1
end
total
""",
    "until_loop": """
i = 10
until i == 0
  i = i - 1
end
i
""",
    "conditionals": """
x = 7
a = if x > 5 then "big" else "small" end
b = x > 100 ? nil : :ok
[a, b]
""",
    "case_with_ranges_and_classes": """
def classify(v)
  case v
  when 0..9 then "digit"
  when Integer then "number"
  when String then "string"
  else "other"
  end
end
[classify(5), classify(50), classify("s"), classify(:sym)]
""",
    "case_without_subject": """
x = 3
case
when x < 0 then "neg"
when x == 0 then "zero"
else "pos"
end
""",
    "method_defs_and_calls": """
def add(a, b)
  a + b
end

def defaulted(a, b = a * 2)
  [a, b]
end

def splatted(first, *rest)
  [first, rest]
end

[add(2, 3), defaulted(4), defaulted(4, 9), splatted(1, 2, 3)]
""",
    "blocks_and_yield": """
def twice
  [yield(1), yield(2)]
end

squares = [1, 2, 3].map { |x| x * x }
evens = (1..10).select { |n| n % 2 == 0 }
[twice { |v| v * 10 }, squares, evens]
""",
    "block_break_next": """
found = [5, 6, 7, 8].each do |n|
  next if n < 7
  break n * 100 if n == 7
end
sum = 0
[1, 2, 3, 4].each { |n| next if n == 2; sum = sum + n }
[found, sum]
""",
    "block_autosplat_and_splat_param": """
pairs = [[1, 2], [3, 4]]
summed = pairs.map { |a, b| a + b }
rest = nil
collect = lambda { |first, *more| rest = more; first }
[summed, collect.call(9, 8, 7), rest]
""",
    "symbol_to_proc_and_block_pass": """
words = ["ab", "cde", "f"]
words.map(&:length)
""",
    "classes_and_ivars": """
class Counter
  def initialize(start)
    @count = start
  end

  def bump
    @count = @count + 1
    self
  end

  def count
    @count
  end
end

c = Counter.new(5)
c.bump.bump
c.count
""",
    "inheritance_and_super_lookup": """
class Animal
  def speak
    "..."
  end

  def describe
    "animal says #{speak}"
  end
end

class Dog < Animal
  def speak
    "woof"
  end
end

[Animal.new.describe, Dog.new.describe]
""",
    "class_level_state_and_consts": """
class Registry
  LIMIT = 3

  def self.limit
    LIMIT
  end
end

MAX = 99
[Registry.limit, MAX, defined?(MAX), defined?(missing_thing)]
""",
    "multiassign_opassign": """
a, b = 1, 2
c, d = [10, 20]
e = nil
e ||= "filled"
f = "kept"
f ||= "ignored"
g = true
g &&= "chained"
[a, b, c, d, e, f, g]
""",
    "index_attr_assign": """
h = {}
h[:k] = 5
arr = [1, 2, 3]
arr[1] = 20

class Box
  def value=(v)
    @value = v
  end

  def value
    @value
  end
end

box = Box.new
box.value = 7
[h[:k], arr, box.value]
""",
    "globals": """
$counter = 0
def tick
  $counter = $counter + 1
end
tick
tick
$counter
""",
    "exceptions_rescue_ensure": """
log = []
begin
  log << "try"
  raise ArgumentError, "bad input"
rescue ArgumentError => e
  log << "rescued #{e.message}"
ensure
  log << "ensure"
end
log
""",
    "raise_reraise_and_classes": """
def risky(n)
  raise TypeError, "nope" if n < 0
  n * 2
end

result = begin
  risky(-1)
rescue TypeError => e
  "caught #{e.message}"
end

outer = begin
  begin
    raise "inner"
  rescue RuntimeError => e
    raise
  end
rescue RuntimeError => e
  "outer got #{e.message}"
end

[result, outer, risky(4)]
""",
    "string_and_hash_corelib": """
s = "Hello World"
h = {a: 1, b: 2}
[s.downcase, s.split(" "), s.include?("World"), h.keys, h.values,
 h.key?(:a), h.length, s.length]
""",
    "andor_shortcircuit": """
trace = []
def effect(trace, v)
  trace << v
  v
end
a = effect(trace, nil) || effect(trace, "right")
b = effect(trace, false) && effect(trace, "never")
c = !effect(trace, nil)
[a, b, c, trace]
""",
    "early_return": """
def find_first_even(xs)
  xs.each do |x|
    return x if x % 2 == 0
  end
  nil
end
[find_first_even([1, 3, 6, 7]), find_first_even([1, 3])]
""",
    "stdout": """
puts "line one"
puts 42
print "no newline"
nil
""",
    "recursion_loops_and_blocks": """
def fib(n)
  if n < 2
    n
  else
    fib(n - 1) + fib(n - 2)
  end
end

def work(limit)
  total = 0
  i = 0
  while i < limit
    total = total + i * 2 - 1
    i = i + 1
  end
  xs = [1, 2, 3, 4, 5, 6, 7, 8]
  squares = xs.map { |x| x * x }
  picked = squares.select { |s| s % 2 == 0 }
  label = "sum=#{total}"
  picked.each { |p| total = total + p }
  total + label.length + fib(12)
end
work(250)
""",
    "modules": """
module Helpers
  def self.shout(s)
    s.upcase
  end
end
Helpers.shout("quiet")
""",
}

ERROR_CORPUS = {
    "no_method_error": 'nil.explode',
    "undefined_const": 'MissingConst',
    "uncaught_raise": 'raise ArgumentError, "boom"',
    "bad_range": '("a".."z")',
    "stack_overflow": """
def recurse(n)
  recurse(n + 1)
end
recurse(0)
""",
}


#: the error each ERROR_CORPUS program must end in, on both interpreters:
#: (outcome kind, Ruby error class)
ERROR_EXPECTED = {
    "no_method_error": ("raised", "NoMethodError"),
    "undefined_const": ("raised", "NameError"),
    "uncaught_raise": ("raised", "ArgumentError"),
    "bad_range": ("ruby_error", "TypeError"),
    "stack_overflow": ("ruby_error", "SystemStackError"),
}

INTERPRETERS = {"tree": TreeInterp, "compiled": Interp}


def _run_observed(interp: Interp, source: str):
    try:
        result = interp.run(source)
        outcome = ("ok", ruby_inspect(result))
    except RubyError as exc:
        outcome = ("ruby_error", exc.kind, str(exc), exc.line)
    except Exception as exc:  # RaiseSignal escaping run()
        exc_obj = getattr(exc, "exc", None)
        if exc_obj is not None:
            outcome = ("raised", exc_obj.rclass.name, exc_obj.message)
        else:
            outcome = ("python_error", type(exc).__name__, str(exc))
    return outcome, list(interp.stdout)


def _observe(interp_cls, source: str):
    return _run_observed(interp_cls(), source)


@pytest.mark.parametrize("name", list(CORPUS))
def test_corpus_program_parity(name):
    source = CORPUS[name]
    tree = _observe(TreeInterp, source)
    compiled = _observe(Interp, source)
    assert compiled == tree


@pytest.mark.parametrize("name", list(ERROR_CORPUS))
def test_corpus_error_parity(name):
    source = ERROR_CORPUS[name]
    tree = _observe(TreeInterp, source)
    compiled = _observe(Interp, source)
    assert compiled == tree
    # these programs must fail identically, and with the right error
    assert tree[0][:2] == ERROR_EXPECTED[name]


@pytest.mark.parametrize("backend", list(INTERPRETERS))
def test_runaway_recursion_is_a_system_stack_error(monkeypatch, backend):
    """Recursion past the host stack surfaces as Ruby's SystemStackError,
    leaves no frames behind, and fails the same way on a second run."""
    interp = INTERPRETERS[backend]()
    first = _run_observed(interp, ERROR_CORPUS["stack_overflow"])
    assert first[0][:2] == ("ruby_error", "SystemStackError")
    assert "stack level too deep" in first[0][2]
    assert interp.call_depth == 0
    assert _run_observed(interp, ERROR_CORPUS["stack_overflow"]) == first
    assert interp.call_depth == 0
    # the interpreter stays usable afterwards
    assert _run_observed(interp, "def one\n  1\nend\none")[0] == ("ok", "1")
    # and the facade surfaces the same Ruby error
    from repro import CompRDL

    _select(monkeypatch, backend)
    rdl = CompRDL()
    with pytest.raises(RubyError, match="SystemStackError"):
        rdl.run(ERROR_CORPUS["stack_overflow"], checks=True)
    assert rdl.interp.call_depth == 0


# ---------------------------------------------------------------------------
# whole-system parity: verdicts, dependency footprints, dynamic checks
# ---------------------------------------------------------------------------

def _report_key(report):
    return (
        tuple(report.checked_methods),
        tuple(str(e) for e in report.errors),
        report.casts_used,
        report.oracle_casts,
    )


def _select(monkeypatch, backend: str) -> None:
    """Make every universe built from here on run on ``backend``."""
    monkeypatch.setattr("repro.api.Interp", INTERPRETERS[backend])


def _check_apps(monkeypatch, backend: str):
    out = {}
    with monkeypatch.context() as patch:
        _select(patch, backend)
        for app in all_apps():
            rdl = app.build()
            assert type(rdl.interp) is INTERPRETERS[backend]
            report = rdl.check_all([app.label])
            deps = {
                str(key): (sorted(d.tables), sorted(d.columns), sorted(d.comps))
                for key, d in rdl.checker.engine.deps.method_deps.items()
            }
            out[app.name] = (_report_key(report), deps)
    return out


@pytest.mark.slow
def test_combined_apps_verdict_and_dependency_parity(monkeypatch):
    tree = _check_apps(monkeypatch, "tree")
    compiled = _check_apps(monkeypatch, "compiled")
    assert set(tree) == set(compiled)
    for name in tree:
        assert compiled[name][0] == tree[name][0], f"verdicts diverged: {name}"
        assert compiled[name][1] == tree[name][1], f"deps diverged: {name}"


def _run_suites(monkeypatch, backend: str):
    out = {}
    with monkeypatch.context() as patch:
        _select(patch, backend)
        for app in all_apps():
            rdl = app.build()
            assert type(rdl.interp) is INTERPRETERS[backend]
            rdl.check(app.label)
            result = rdl.run(app.test_suite, checks=True)
            assert result is not None, (
                f"{app.name} dynamic checks failed under {backend}")
            out[app.name] = (ruby_inspect(result), list(rdl.stdout))
    return out


@pytest.mark.slow
def test_app_test_suites_run_identically_with_checks(monkeypatch):
    assert _run_suites(monkeypatch, "compiled") == \
        _run_suites(monkeypatch, "tree")


def test_comp_evaluation_parity(monkeypatch):
    """Type-level code run by the comp engine (§3.2) computes the same
    type on both interpreters, with fresh bindings defeating the memo."""
    from repro import CompRDL, Database
    from repro.rtypes import CompExpr, NominalType, SingletonType
    from repro.rtypes.kinds import Sym

    code = """
base = FiniteHash.new({id: Integer, score: Integer, name: String})
joined = base.merge({owner_id: Integer, body: String})
wide = joined.merge({rank: Integer, label: String, flag: Integer})
if t.is_a?(Singleton)
  Generic.new(Table, wide)
else
  Nominal.new(String)
end
"""
    results = {}
    for backend in INTERPRETERS:
        with monkeypatch.context() as patch:
            _select(patch, backend)
            db = Database()
            db.create_table("users", username="string", score="integer")
            engine = CompRDL(db=db).checker.engine
            comp = CompExpr(code, NominalType("Object"))
            results[backend] = [
                engine.evaluate(comp, {"t": binding}).to_s()
                for binding in (SingletonType(Sym("col0")),
                                SingletonType(Sym("col1")),
                                NominalType("Integer"))]
    assert results["compiled"] == results["tree"]
    assert "Table" in results["tree"][0]


def _blame_message(monkeypatch, backend: str) -> str:
    """Force a §4 consistency Blame and capture its exact message."""
    from repro import CompRDL, Database

    with monkeypatch.context() as patch:
        _select(patch, backend)
        db = Database()
        db.create_table("users", username="string", staged="boolean")
        rdl = CompRDL(db=db)
    assert type(rdl.interp) is INTERPRETERS[backend]
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
    # schema mutation between checking and running: the re-evaluated comp
    # type no longer matches what the checker recorded -> Blame
    db.drop_column("users", "staged")
    with pytest.raises(Blame) as blamed:
        rdl.run("Finder.new.find_staged(:staged)", checks=True)
    return str(blamed.value)


def test_blame_messages_identical_across_modes(monkeypatch):
    tree = _blame_message(monkeypatch, "tree")
    compiled = _blame_message(monkeypatch, "compiled")
    assert compiled == tree
    assert "comp type" in tree


def test_production_never_imports_the_oracle():
    """Building, checking and running every app (dynamic checks on) on the
    production path must not pull the tree walker in."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))
    script = """
import sys
from repro.apps import all_apps
for app in all_apps():
    rdl = app.build()
    assert rdl.check(app.label) is not None
    assert rdl.run(app.test_suite, checks=True) is not None
assert "repro.runtime.tree" not in sys.modules, "oracle imported"
print("ok")
"""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


def test_discarded_universe_is_collectable_despite_inline_caches():
    """Call-site inline caches live on process-shared (parse-cached) AST
    nodes; they must hold the interpreter AND the resolved methods weakly,
    or every discarded universe stays pinned through ``method.owner``."""
    import gc
    import weakref

    from repro import CompRDL, Database

    db = Database()
    db.create_table("users", username="string")
    rdl = CompRDL(db=db)
    rdl.load("""
class Integer
  def twice
    self + self
  end
end
class Greeter
  def hi
    "hi " + 1.twice.to_s
  end
end
""")
    assert rdl.run("Greeter.new.hi").val == "hi 2"
    probes = [weakref.ref(rdl.interp)]
    # Integer#twice lands in an int call-site cache during the run; its
    # owner is this universe's Integer class.  (The native core methods
    # cached beside it are shared by every universe in the process, so
    # they outlive this one by design.)
    probes.append(weakref.ref(rdl.interp.classes["Integer"].imethods["twice"]))
    del rdl, db
    gc.collect()
    for probe in probes:
        assert probe() is None, "discarded universe pinned by inline caches"
