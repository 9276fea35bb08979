"""The public CompRDL facade.

Ties the whole system together, mirroring RDL's workflow (§2):

1. construct a :class:`CompRDL` instance (optionally with a database);
2. :meth:`load` mini-Ruby programs — running them registers classes,
   methods, and ``type`` annotations;
3. :meth:`check` labelled methods — comp types evaluate during checking
   and dynamic checks are attached to comp-typed call sites;
4. :meth:`run` code with ``checks_enabled`` to execute those dynamic
   checks (Blame on violation).

Example::

    from repro import CompRDL, Database

    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load(APP_SOURCE)
    report = rdl.check(":model")
    assert report.ok()
"""

from __future__ import annotations

from repro import obs
from repro.annotations import install_all
from repro.comp.reflect import install_type_reflection
from repro.db.schema import Database
from repro.incremental import IncrementalScheduler, IncrementalStats
from repro.orm.activerecord import install_activerecord
from repro.orm.sequel import install_sequel
from repro.runtime.interp import Interp
from repro.typecheck.checker import CheckerConfig, TypeChecker
from repro.typecheck.errors import TypeErrorReport
from repro.typecheck.registry import AnnotationRegistry


class CompRDL:
    """One CompRDL universe: interpreter + registry + checker + DB."""

    def __init__(
        self,
        db: Database | None = None,
        use_comp_types: bool = True,
        insert_checks: bool = True,
        install_libraries: bool = True,
        repair_with_casts: bool = False,
        backend: str | None = None,
        trace: bool | None = None,
        provenance: bool | None = None,
    ):
        if db is not None and backend is not None:
            raise ValueError(
                "pass either db= (an existing Database) or backend= "
                "(a storage backend name for a fresh one), not both")
        # trace=True/False flips the process-wide repro.obs switch (spans
        # are process-scoped, not per-universe); None leaves it alone, so
        # the REPRO_TRACE default and explicit obs.enable() calls survive
        if trace is not None:
            obs.set_enabled(trace)
        # same contract for the verdict-provenance ledger (REPRO_PROVENANCE
        # is its environment default)
        if provenance is not None:
            obs.provenance.set_enabled(provenance)
        self.interp = Interp()
        self.registry = AnnotationRegistry()
        self.interp.registry = self.registry
        install_type_reflection(self.interp)
        self.db = db if db is not None else Database(backend=backend)
        install_activerecord(self.interp, self.db)
        install_sequel(self.interp, self.db)
        self.library_stats: dict = {}
        if install_libraries:
            self.library_stats = install_all(self)
        self.config = CheckerConfig(
            use_comp_types=use_comp_types,
            insert_checks=insert_checks,
            repair_with_casts=repair_with_casts,
        )
        self.checker = TypeChecker(self.interp, self.registry, self.config)
        self.incremental = IncrementalScheduler(self.checker, self.registry,
                                                self.db)
        # methods (re)defined or annotated after the last `mark_pristine()`:
        # a fresh rebuild of this universe would not see them, so the warm
        # session engine decides from them whether a delta can be
        # bounded.  post_build_loads records the program sources that
        # caused them — the "method definition records" a session delta
        # replays against live worker replicas.
        self.post_build_methods: set = set()
        self.post_build_loads: list[str] = []
        self.post_build_load_keys: set = set()
        self.pristine_generation: int | None = None
        # bumped on every mark_pristine: warm sessions key their per-worker
        # sync state on it, so re-marking mid-session forces cold re-attach
        # instead of replaying deltas against the wrong baseline
        self.pristine_epoch = 0
        self._pristine_keys: frozenset = frozenset()
        self._method_event_log: list = []
        self._migrating_loads = False
        self._warm_engine = None
        # per-recv reply deadline for warm session workers (None → the
        # process default, sessions.DEADLINE_S); set before the first
        # workers=N call — the fuzzer's fault profile uses a tight
        # deadline so a wedged worker is detected within the round
        self.warm_deadline_s: float | None = None
        self.registry.add_method_listener(self._note_method_event)

    # ------------------------------------------------------------------
    def _note_method_event(self, key) -> None:
        self.post_build_methods.add(key)
        self._method_event_log.append(key)

    def load(self, source: str):
        """Execute a mini-Ruby program (defining classes and annotations)."""
        before = len(self._method_event_log)
        version_before = self.db.version if self.db is not None else 0
        with obs.span("universe.load") as sp:
            sp.set("bytes", len(source))
            result = self.interp.run(source)
        # every source is a replayable definition record: a load that only
        # defines a class (no method events) still shapes later verdicts,
        # so warm replicas must replay it too
        self.post_build_loads.append(source)
        self.post_build_load_keys.update(self._method_event_log[before:])
        if self.db is not None and self.db.version != version_before:
            # the source migrated the schema: its events are already in the
            # journal, so replaying the source would apply them twice — an
            # unbounded delta for warm sessions
            self._migrating_loads = True
        return result

    def mark_pristine(self) -> None:
        """Declare the current state reproducible from scratch: everything
        loaded so far is part of this universe's canonical build recipe
        (``SubjectApp.build`` calls this after loading the app source).
        Methods loaded *afterwards* diverge from a fresh rebuild, which the
        warm session engine replays (new definitions) or refuses to bound
        (redefinitions)."""
        self.post_build_methods.clear()
        self.post_build_loads = []
        self.post_build_load_keys = set()
        self._method_event_log = []
        self._migrating_loads = False
        self.pristine_generation = self.db.version if self.db is not None else 0
        self.pristine_epoch += 1
        self._pristine_keys = (frozenset(self.registry.defined_methods)
                               | frozenset(self.registry.method_annotations))

    @property
    def post_build_redefinitions(self) -> set:
        """Post-pristine (re)definitions or re-annotations of methods that
        already existed at ``mark_pristine`` — the unbounded deltas: a
        redefined type-level helper can change *any* verdict, which no
        dependency footprint bounds."""
        return self.post_build_methods & self._pristine_keys

    @property
    def post_build_unreplayable(self) -> set:
        """Post-pristine method events with no recorded ``load`` source
        (defined via :meth:`run` or direct registry calls) — a warm worker
        replica cannot replay them."""
        return self.post_build_methods - self.post_build_load_keys

    @property
    def post_build_migrating_loads(self) -> bool:
        """Whether a post-pristine ``load`` source itself migrated the
        schema.  Those events are already in the journal, so replaying the
        source on a warm replica would apply them twice — unbounded."""
        return self._migrating_loads

    def check(self, label: str) -> TypeErrorReport:
        """Type check every method annotated ``typecheck: :label``."""
        label = label.lstrip(":")
        return self.checker.check_label(label)

    def check_method(self, class_name: str, method_name: str,
                     static: bool = False) -> TypeErrorReport:
        return self.checker.check_method(class_name, method_name, static)

    def check_requests(self) -> TypeErrorReport:
        """Honour every ``RDL.do_typecheck :label`` the program issued."""
        for label in self.registry.typecheck_requests:
            self.checker.check_label(label)
        return self.checker.report

    # ------------------------------------------------------------------
    # incremental checking (schema-versioned memoization + dirty tracking)
    # ------------------------------------------------------------------
    def check_all(self, labels, workers: int = 1) -> TypeErrorReport:
        """Batch-check one or more labels through the incremental engine.

        The first call verifies everything; subsequent calls (including
        after schema migrations) reuse every verdict whose recorded
        dependencies are untouched and re-check only the rest.

        With ``workers > 1`` the methods to check are sharded across this
        universe's *warm session workers* (see :meth:`recheck_dirty`):
        each worker builds a live replica of the label's subject app once,
        and their verdicts and dependency footprints are fed back into the
        incremental engine, so a later ``recheck_dirty(workers=N)`` finds
        the session attached.  A universe that cannot be replicated — a
        label without a subject app, several labels, a post-build method
        *re*definition — is checked serially instead; either way the
        report is verdict-for-verdict identical to a serial run.
        """
        if workers <= 1:
            return self.incremental.check_all(labels)
        return self._engine(workers).check_all(self, labels)

    def recheck_dirty(self, workers: int = 1) -> TypeErrorReport:
        """Re-verify only methods dirtied by schema changes since the last
        ``check_all``; the returned report covers every known method,
        verdict-for-verdict equal to a full re-check.

        With ``workers > 1`` the dirty methods are sharded across *warm
        session workers*: each worker keeps live replicas of this
        universe's subject apps, receives the schema-journal delta (and any
        post-build ``load`` sources) instead of rebuilding, and checks only
        its slice.  The session stays attached between calls, so a
        migrate → recheck loop pays one build ever.  Deltas that cannot be
        bounded — a post-build method *re*definition, a label without a
        subject app, an over-long journal — fall back to the serial path;
        either way the report is verdict-for-verdict identical.
        """
        if workers <= 1:
            return self.incremental.recheck_dirty()
        return self._engine(workers).recheck_dirty(self)

    def _engine(self, workers: int):
        """This universe's warm session engine at ``workers`` (replacing
        one of another size)."""
        from repro.parallel import ParallelCheckEngine

        engine = self._warm_engine
        if engine is None or engine.workers != workers:
            self.shutdown_warm()
            engine = ParallelCheckEngine(
                workers=workers,
                stats=self.incremental_stats,
                backend=self.db.backend_name,
                deadline_s=self.warm_deadline_s,
            )
            self._warm_engine = engine
        return engine

    @property
    def warm_engine(self):
        """The warm session engine behind ``check_all`` /
        ``recheck_dirty(workers=N)`` (None until first used); exposes
        diagnostics like ``last_warm_run``."""
        return self._warm_engine

    def shutdown_warm(self) -> None:
        """Shut down the warm session workers (if any)."""
        if self._warm_engine is not None:
            self._warm_engine.close()
            self._warm_engine = None

    @property
    def incremental_stats(self) -> IncrementalStats:
        """Cache hit/miss and scheduling counters for this universe."""
        return self.checker.engine.stats

    # ------------------------------------------------------------------
    # static analysis (repro.analysis)
    # ------------------------------------------------------------------
    def analyze(self, label: str = ""):
        """Run the static passes (footprint inference + effect lint) over
        every labelled method of this universe, without executing any
        type-level code.

        Returns an :class:`~repro.analysis.report.AnalysisReport` and
        records its diagnostic and wildcard counts as ``analysis.*`` keys
        in :meth:`metrics_snapshot`.  Checking never consults it: every
        cached verdict carries the dynamic footprint its check recorded.
        Re-running after schema or annotation changes recomputes
        automatically.
        """
        from repro.analysis import analyze_universe

        report = analyze_universe(self, label=label)
        extra = self.incremental_stats.extra
        counts = report.counts()
        extra["analysis_diagnostics"] = counts["diagnostics"]
        extra["analysis_wildcards"] = counts["wildcard_footprints"]
        return report

    # ------------------------------------------------------------------
    # observability
    # ------------------------------------------------------------------
    def metrics_snapshot(self) -> dict:
        """One flat dict of every layer's counters with stable keys: this
        universe's :class:`IncrementalStats` plus the process-wide VM
        inline-cache, intern-table and obs counters."""
        return obs.metrics_snapshot(self.incremental_stats)

    def export_trace(self, path: str) -> str:
        """Write the buffered trace (this process + absorbed worker spans)
        as Chrome ``trace_event`` JSON, with this universe's metrics
        snapshot attached; returns ``path``."""
        return obs.export_chrome_trace(path, metrics=self.metrics_snapshot())

    def explain(self, class_name: str, method_name: str,
                static: bool = False, render: bool = False):
        """Why is this method's verdict what it is, and what changed it?

        Answers from the provenance ledger (enable with
        ``CompRDL(provenance=True)``, ``obs.provenance.enable()``, or
        ``REPRO_PROVENANCE=1``): how the verdict was produced (fresh
        in-process check or warm-session worker — with pid / shard /
        session id), the dependency footprint it was recorded
        with, the schema generation it was checked at and whether it has
        gone stale since, the journal events that dirtied it, comp-cache
        hit/miss attribution, timing, and the method's verdict-flip
        history.  Returns a structured dict, or the rendered tree (one
        string) with ``render=True``.
        """
        info = obs.provenance.explain(
            self.incremental, class_name, method_name, static=static)
        return obs.provenance.render_explain(info) if render else info

    def export_provenance(self, path: str) -> str:
        """Write this universe's provenance ledger as JSONL (one verdict
        record per line, ordered by record time — the same µs timeline the
        trace spans use); returns ``path``."""
        return obs.provenance.export_jsonl(
            path, ledgers=[self.incremental.provenance])

    # ------------------------------------------------------------------
    def run(self, source: str, checks: bool | None = None):
        """Run code, optionally toggling the inserted dynamic checks."""
        previous = self.interp.checks_enabled
        if checks is not None:
            self.interp.checks_enabled = checks
        try:
            return self.interp.run(source)
        finally:
            self.interp.checks_enabled = previous

    @property
    def report(self) -> TypeErrorReport:
        return self.checker.report

    @property
    def stdout(self) -> list[str]:
        return self.interp.stdout
