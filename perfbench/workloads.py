"""The four closed-loop workloads: one client, one process, public API only.

Each workload builds its state in :meth:`setup`, then the runner calls
:meth:`op` in a loop (timed), :meth:`after_op` after each op (untimed:
per-op oracle and housekeeping) and :meth:`checkpoint` now and then
(untimed: the oracles too costly for every op).  The oracles never trust
the checker's incremental machinery: ``cold_check`` compares with the
hand-written ``expected_verdicts.json``, ``checked_tests`` with the same
suite run without checks, and the migrating workloads with a fresh
universe that replays the whole migration history and checks everything.
"""

from __future__ import annotations

import json
import os
import random
from pathlib import Path

from repro.apps import DISCOURSE, all_apps

from clock import timed
from migrations import MigrationStream

EXPECTED = json.loads(
    (Path(__file__).with_name("expected_verdicts.json")).read_text())


def verdicts(report) -> tuple:
    """What two reports must agree on: methods in order, and error text."""
    return (tuple(report.checked_methods),
            tuple(str(error) for error in report.errors))


def expected_ok(label: str, report) -> bool:
    want = EXPECTED[label]
    return (len(report.checked_methods) == want["methods"]
            and [str(e) for e in report.errors] == want["errors"])


def tables_of(rdl) -> dict[str, list[str]]:
    return {name: list(schema.columns) for name, schema in rdl.db.tables.items()}


class Workload:
    """Base: seeded app order, no universes, no twin."""

    #: set-ups per run; ``setup_s`` is their median
    setups = 5
    #: the metric :meth:`baseline_op` feeds (None: no comparison path)
    baseline_name: str | None = None

    def __init__(self, seed: int):
        self.rng = random.Random(seed)
        self.apps = all_apps()

    def shuffled_apps(self) -> list:
        apps = list(self.apps)
        self.rng.shuffle(apps)
        return apps

    def setup(self) -> None:
        raise NotImplementedError

    def op(self) -> None:
        raise NotImplementedError

    def after_op(self) -> bool:
        return True

    def checkpoint(self) -> bool:
        return True

    def restart_due(self) -> bool:
        """Whether the state must be rebuilt (after a checkpoint) before
        the next op, to keep op cost stationary."""
        return False

    def restart(self) -> None:
        pass

    def universes(self) -> list:
        """The universes whose incremental counters the ledger reads."""
        return []

    def baseline_op(self) -> float:
        """Seconds (scaled, see ``clock.py``) the plain comparison path
        takes for the op just run, outside the op's timing; only called
        when :attr:`baseline_name` is set."""
        raise NotImplementedError

    def close(self) -> None:
        pass


class ColdCheck(Workload):
    """Build and serially check each of the six apps twice, in a seeded
    order.

    Two rounds, because a full garbage collection lands about every 2.3
    rounds: with one round per op the median op sits on the edge between
    ops with and without one, and moves by 10% from run to run."""

    def setup(self) -> None:
        self.op()
        if not self.after_op():
            raise RuntimeError("set-up verdicts differ from "
                               "expected_verdicts.json")

    def op(self) -> None:
        built = []
        apps = self.apps * 2
        self.rng.shuffle(apps)
        for app in apps:
            rdl = app.build()
            built.append((app.label, rdl, rdl.check_all(app.label)))
        self.built = built

    def after_op(self) -> bool:
        ok = all(expected_ok(label, report)
                 for label, _rdl, report in self.built)
        self.built = []  # a cold check's universes are done with
        return ok

    def universes(self) -> list:
        return [rdl for _label, rdl, _report in self.built]


class _Migrating(Workload):
    """Shared by the migrate → re-check workloads: per-app migration
    streams, their history, and the fresh-universe oracle.

    A universe serves ``session_ops`` ops, then the runner checks it and
    it is rebuilt.  The schema journal, which some lookups scan, grows by
    one event per migration; bounded sessions keep op cost independent of
    how many ops a run manages."""

    session_ops = 100

    def _start(self, apps) -> None:
        self.universe = {}
        self.streams = {}
        self.history = {}
        self.reports = {}
        self.session_done = 0
        for index, app in enumerate(apps):
            rdl = app.build()
            self.reports[app.label] = rdl.check_all(app.label)
            self.universe[app.label] = rdl
            self.streams[app.label] = MigrationStream(
                tables_of(rdl), self.rng.randrange(2**32))
            self.history[app.label] = []

    def after_op(self) -> bool:
        self.session_done += 1
        return True

    def restart_due(self) -> bool:
        return self.session_done >= self.session_ops

    def restart(self) -> None:
        self.close()
        self.setup()

    def migrate(self, label: str) -> None:
        migration = self.streams[label].next()
        migration.apply(self.universe[label].db)
        self.history[label].append(migration)

    def checkpoint(self) -> bool:
        for app in self.apps:
            if app.label not in self.universe:
                continue
            fresh = app.build()
            for migration in self.history[app.label]:
                migration.apply(fresh.db)
            full = fresh.check_all(app.label)
            if verdicts(full) != verdicts(self.reports[app.label]):
                return False
        return True

    def universes(self) -> list:
        return list(self.universe.values())


class MigrateRecheck(_Migrating):
    """Each op: one seeded migration on each of the six apps, each
    followed by a serial ``recheck_dirty()``."""

    def setup(self) -> None:
        self._start(self.apps)

    def op(self) -> None:
        for app in self.shuffled_apps():
            self.migrate(app.label)
            self.reports[app.label] = self.universe[app.label].recheck_dirty()


class FleetRecheck(_Migrating):
    """Each op: one seeded migration on Discourse, then
    ``recheck_dirty(workers=nproc)`` on the warm session fleet attached
    during set-up."""

    session_ops = 400
    baseline_name = "parallel.serial_equiv_ms"

    def __init__(self, seed: int):
        super().__init__(seed)
        self.workers = len(os.sched_getaffinity(0))
        self.universe = {}
        self.twin = None
        self.remote_rounds = 0
        self.attach_s: list[float] = []

    def setup(self) -> None:
        self.twin = None
        self._start([DISCOURSE])
        rdl = self.universe[DISCOURSE.label]
        # nothing is dirty yet, so this only creates the engine; attach
        # builds the workers' replicas
        rdl.recheck_dirty(workers=self.workers)
        self.attach_s.append(timed(lambda: rdl.warm_engine.attach(rdl)))

    def op(self) -> None:
        self.migrate(DISCOURSE.label)
        rdl = self.universe[DISCOURSE.label]
        self.reports[DISCOURSE.label] = rdl.recheck_dirty(workers=self.workers)

    def after_op(self) -> bool:
        if self.universe[DISCOURSE.label].warm_engine.last_warm_run.remote:
            self.remote_rounds += 1
        return super().after_op()

    def baseline_op(self) -> float:
        """The same migration and re-check on a serial twin."""
        if self.twin is None:
            self.twin = DISCOURSE.build()
            self.twin.check_all(DISCOURSE.label)
            for migration in self.history[DISCOURSE.label][:-1]:
                migration.apply(self.twin.db)
            self.twin.recheck_dirty()

        def serial_op():
            self.history[DISCOURSE.label][-1].apply(self.twin.db)
            self.twin_report = self.twin.recheck_dirty()
        elapsed = timed(serial_op)
        if verdicts(self.twin_report) != verdicts(self.reports[DISCOURSE.label]):
            raise RuntimeError("serial twin disagrees with the fleet")
        return elapsed

    def close(self) -> None:
        for rdl in self.universe.values():
            rdl.shutdown_warm()
        self.universe = {}


class CheckedTests(Workload):
    """Each op: the six apps' test suites with the inserted dynamic checks
    on (``checks=True``), in a seeded order.  After each op the same
    suites run with checks off, for ``nochk`` and as the oracle."""

    baseline_name = "nochk_p50_ms"

    def setup(self) -> None:
        self.universe = {}
        self.rows = {}
        for app in self.apps:
            rdl = app.build()
            if not expected_ok(app.label, rdl.check_all(app.label)):
                raise RuntimeError(f"{app.label}: set-up verdicts differ "
                                   f"from expected_verdicts.json")
            self.universe[app.label] = rdl
            self.rows[app.label] = {
                table: {row["id"] for row in rdl.db.all_rows(table)}
                for table in rdl.db.tables}
        self.order = self.apps
        for checks in (True, False):  # warm both paths
            self._run_all(checks)
            self._rollback()
        self.results = {}
        self.nochk_s = 0.0

    def _rollback(self) -> None:
        """Delete the rows the suites inserted, as transactional tests
        would, so every op sees the same data."""
        for label, rows in self.rows.items():
            db = self.universe[label].db
            for table, ids in rows.items():
                db.delete_rows(table, lambda row, ids=ids: row["id"] not in ids)

    def _run_all(self, checks: bool) -> dict:
        return {app.label: self.universe[app.label].run(app.test_suite,
                                                        checks=checks)
                for app in self.order}

    def op(self) -> None:
        self.order = self.shuffled_apps()
        self.results = self._run_all(checks=True)

    def after_op(self) -> bool:
        self._rollback()
        plain = {}
        self.nochk_s = timed(lambda: plain.update(self._run_all(checks=False)))
        self._rollback()
        return all(self.results[label] == plain[label]
                   == EXPECTED[label]["suite_result"] for label in plain)

    def baseline_op(self) -> float:
        return self.nochk_s

    def universes(self) -> list:
        return list(self.universe.values())


WORKLOADS = {
    "cold_check": ColdCheck,
    "migrate_recheck": MigrateRecheck,
    "checked_tests": CheckedTests,
    "fleet_recheck": FleetRecheck,
}
