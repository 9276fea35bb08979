"""The traced run's per-layer ledger.

The program already records ``repro.obs`` spans at most layer boundaries
(``universe.build``, ``universe.load``, ``parse.program``, ``check.method``,
``comp.eval``, ``incremental.resolve``, ``warm.round``, ``session.sync``,
``fleet.plan_shards``) and counters (``subtype.queries``,
``comp.eval.hits``, ``membership.*``).  :class:`Boundaries` adds spans only
where a layer has none, by binding a wrapper to the name its callers look
up, and restores every original on :meth:`Boundaries.restore`.

:func:`self_times` turns one op's spans into self times: a span's duration
minus the part its child spans cover.  The benchmark's own ``bench.op``
span is the root of every op, so its self time is the unattributed rest,
and the self times of one op add up to the op's traced wall time.
"""

from __future__ import annotations

import os
import threading
from collections import Counter, defaultdict

from repro import obs

#: span name -> ledger layer.  Spans not named here land in ``other``.
LAYER_OF = {
    "bench.op": "unattributed",
    "parse.program": "lang.parse",
    "annotations.install_all": "annotations.install",
    "universe.build": "runtime.build",
    "universe.load": "runtime.load",
    "db.setup": "db.setup",
    "check.method": "typecheck.method",
    "comp.eval": "comp.eval",
    "rtypes.subtype": "rtypes.subtype",
    "sqltc.fragment": "sqltc.fragment",
    "db.migrate": "db.migrate",
    "incremental.resolve": "incremental.resolve",
    "runtime.run": "runtime.run",
    "comp.checks": "comp.checks",
    "runtime.membership": "runtime.membership",
    "session.sync": "parallel.sync",
    "fleet.plan_shards": "parallel.plan",
    "warm.round": "parallel.round",
}

#: the schema methods a migration calls (``db.migrate`` spans)
MIGRATION_METHODS = ("create_table", "drop_table", "rename_table",
                     "add_column", "drop_column", "rename_column")


def _spanned(name: str, fn):
    def wrapper(*args, **kwargs):
        with obs.span(name):
            return fn(*args, **kwargs)
    wrapper.__wrapped__ = fn
    return wrapper


class Boundaries:
    """Benchmark-side spans at the layer boundaries that have none."""

    def __init__(self):
        self._saved: list[tuple[object, str, object]] = []
        self.annotate_calls = 0

    def _bind(self, owner, attr: str, replacement) -> None:
        self._saved.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _span(self, owner, attr: str, name: str) -> None:
        self._bind(owner, attr, _spanned(name, getattr(owner, attr)))

    def install(self) -> "Boundaries":
        import repro.api as api
        import repro.comp.checks as checks
        import repro.rtypes as rtypes
        import repro.sqltc.checker as sql_checker
        import repro.sqltc.evaluator as sql_evaluator
        import repro.typecheck.checker as checker
        from repro.apps import all_apps
        from repro.db.schema import Database
        from repro.typecheck.registry import AnnotationRegistry

        self._span(api, "install_all", "annotations.install_all")
        self._span(api.CompRDL, "run", "runtime.run")
        # db.setup: the app's tables plus the ORM layers bound to them
        self._span(api, "install_activerecord", "db.setup")
        self._span(api, "install_sequel", "db.setup")
        for app in all_apps():
            self._span(app, "setup_db", "db.setup")
        # subtype: the checker's module-level name, and the package name
        # orm.relation imports lazily (recursion inside rtypes.subtype is
        # part of the same query and stays unwrapped)
        self._span(checker, "subtype", "rtypes.subtype")
        self._span(rtypes, "subtype", "rtypes.subtype")
        # both imported lazily by name from their modules at call time
        self._span(sql_evaluator, "eval_where_fragment", "sqltc.fragment")
        self._span(sql_checker, "check_fragment", "sqltc.fragment")
        for method in MIGRATION_METHODS:
            self._span(Database, method, "db.migrate")
        self._span(checks.CheckSpec, "before_call", "comp.checks")
        self._span(checks.CheckSpec, "after_call", "comp.checks")
        # membership: CheckSpec binds one compiled predicate per argument
        # and return type through this name (runtime.member_compile's
        # check_member has no caller in the check path)
        real_predicate_for = checks.predicate_for
        self._bind(checks, "predicate_for",
                   lambda t: _spanned("runtime.membership",
                                      real_predicate_for(t)))
        real_annotate = AnnotationRegistry.annotate

        def annotate(registry, *args, **kwargs):
            self.annotate_calls += 1
            return real_annotate(registry, *args, **kwargs)
        self._bind(AnnotationRegistry, "annotate", annotate)
        return self

    def restore(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def counters() -> dict:
    """The process-wide counters the ledger reads (obs + membership)."""
    from repro.runtime.member_compile import membership_stats

    snap = {f"counters.{k}": v for k, v in obs.counters().items()}
    for key, value in membership_stats().items():
        snap[f"membership.{key}"] = value
    return snap


def self_times(events) -> tuple[dict, Counter]:
    """Self time (µs) and call count per ledger layer of the ``bench.op``
    spans among ``events``, for this process's main thread.

    Spans outside any ``bench.op`` (oracle checkpoints, untimed
    housekeeping) are dropped with everything nested in them.  A
    ``db.migrate`` nested in ``db.setup`` is the app creating its tables,
    so it counts as ``db.setup``.
    """
    pid = os.getpid()
    tid = threading.main_thread().ident
    spans = sorted(
        (e for e in events
         if e.get("ph") == "X" and e["pid"] == pid and e["tid"] == tid),
        key=lambda e: (e["ts"], -e["dur"]))
    self_us: dict = defaultdict(float)
    calls: Counter = Counter()
    stack: list[list] = []   # [layer, end, self, inside_op]
    for e in spans:
        start = e["ts"]
        while stack and start >= stack[-1][1]:
            _close(stack.pop(), self_us)
        parent = stack[-1] if stack else None
        layer = LAYER_OF.get(e["name"], "other")
        if parent is not None and layer == "db.migrate" \
                and parent[0] == "db.setup":
            layer = "db.setup"
        inside = parent[3] if parent is not None else e["name"] == "bench.op"
        if parent is not None:
            parent[2] -= e["dur"]
        if inside:
            calls[layer] += 1
        stack.append([layer, start + e["dur"], e["dur"], inside])
    while stack:
        _close(stack.pop(), self_us)
    return dict(self_us), calls


def _close(node: list, self_us: dict) -> None:
    layer, _end, own, inside = node
    if inside:
        self_us[layer] += own


def worker_check_us(events) -> float:
    """The slowest worker's ``session.check`` span (µs) among ``events``:
    the shard check a warm round waits for."""
    pid = os.getpid()
    return max((e["dur"] for e in events
                if e.get("ph") == "X" and e["pid"] != pid
                and e["name"] == "session.check"), default=0.0)
