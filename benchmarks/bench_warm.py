"""Benchmark: warm session rechecks vs the serial twin after migrations.

The workload is the long-running-service loop the warm sessions exist for:
a subject app is checked once, then schema migrations land and the service
re-verifies after each.  Two ways to run that round:

* **serial** — the in-process incremental path on a twin universe that
  receives the same migrations (``recheck_dirty()``): the reference every
  parallel number is compared against;
* **warm recheck** — session workers keep live replicas; each round ships
  only the journal delta and re-checks only the dirty methods
  (``CompRDL.recheck_dirty(workers=N)``).

Measurements, aggregated over the table-backed subject apps:

* **wall per round** — warm and serial, on this machine; plus the warm
  round's per-shard CPU critical path (slowest shard's process CPU time +
  plan + sync), the projected wall on a machine with >= N free cores;
* **first-warm-round setup** — the gated metric: the first warm round
  after a migration, when the universe was cold-checked by
  ``check_all(workers=N)`` (the session is already attached) versus by a
  serial ``check_all`` (the round must spawn the workers and attach
  first).  Cold-checking on the fleet must cut that round by >= 30%;
* **parity** — every warm report is asserted verdict-for-verdict identical
  to its serial twin.

Run: ``PYTHONPATH=src python benchmarks/bench_warm.py
[--rounds N] [--workers N] [--json PATH] [--quick]``
(``BENCH_QUICK=1`` implies ``--quick``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.apps import all_apps

DEFAULT_ROUNDS = 6
QUICK_ROUNDS = 2
DEFAULT_WORKERS = 4
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results",
                            "bench_warm.json")
PROBE_COLUMN = "bench_warm_probe"


def _parity_key(report) -> tuple:
    return (
        tuple(report.checked_methods),
        tuple(str(e) for e in report.errors),
        report.casts_used,
        report.oracle_casts,
    )


def _migration_table(rdl) -> str | None:
    """The checked table with the widest method fanout (the migration that
    dirties the most verdicts — the interesting re-check)."""
    fanout = {table: count
              for table, count in rdl.incremental.table_fanout().items()
              if table in rdl.db.tables}
    if not fanout:
        return next(iter(rdl.db.tables), None)
    return max(sorted(fanout), key=lambda table: fanout[table])


def _toggle_probe(db, table: str, round_no: int) -> None:
    if round_no % 2 == 0:
        db.add_column(table, PROBE_COLUMN, "string")
    else:
        db.drop_column(table, PROBE_COLUMN)


def _measure_setup(rdl, twin, table: str, column: str, workers: int,
                   label: str) -> float:
    """Wall time of the first warm round after a migration — whatever
    session set-up it still has to do, plus the delta and the dirty
    re-check.  Parity against the serial twin is asserted outside the
    measured window."""
    rdl.db.add_column(table, column, "string")
    twin.db.add_column(table, column, "string")
    setup_start = time.perf_counter()
    report = rdl.recheck_dirty(workers=workers)
    setup_s = time.perf_counter() - setup_start
    assert _parity_key(report) == _parity_key(twin.recheck_dirty()), \
        f"warm setup parity ({label})"
    return setup_s


def bench_app(app, rounds: int, workers: int) -> dict | None:
    """Serial-twin vs warm-session rounds for one subject app."""
    twin = app.build()
    twin_report = twin.check_all(app.label)
    table = _migration_table(twin)
    if table is None:
        return None  # nothing to migrate (table-less API-client app)

    # unseeded: a serial cold check, so the first warm round spawns the
    # workers and attaches before it can check anything
    unseeded = app.build()
    unseeded.check_all(app.label)
    unseeded_twin = app.build()
    unseeded_twin.check_all(app.label)
    try:
        setup_unseeded_s = _measure_setup(
            unseeded, unseeded_twin, table, "bench_warm_setup", workers,
            app.label)
    finally:
        unseeded.shutdown_warm()

    # seeded: the cold check itself ran on the fleet, which leaves the
    # session attached for the first warm round
    warm = app.build()
    try:
        assert _parity_key(warm.check_all(app.label, workers=workers)) == \
            _parity_key(twin_report), f"fleet cold check parity ({app.label})"
        setup_s = _measure_setup(
            warm, twin, table, "bench_warm_seeded", workers, app.label)

        warm_wall = 0.0
        warm_cpu_path = 0.0
        warm_cpu_total = 0.0
        serial_wall = 0.0
        methods_rechecked = 0
        remote_rounds = 0
        for round_no in range(rounds):
            _toggle_probe(warm.db, table, round_no)
            _toggle_probe(twin.db, table, round_no)
            wall_start = time.perf_counter()
            report = warm.recheck_dirty(workers=workers)
            warm_wall += time.perf_counter() - wall_start
            wall_start = time.perf_counter()
            serial_report = twin.recheck_dirty()
            serial_wall += time.perf_counter() - wall_start
            assert _parity_key(report) == _parity_key(serial_report), (
                f"warm verdicts diverged from serial incremental for "
                f"{app.label} at round {round_no}")
            run = warm.warm_engine.last_warm_run
            warm_cpu_path += run.critical_path_s + run.plan_s + run.sync_s
            warm_cpu_total += run.worker_cpu_s
            methods_rechecked += run.methods
            remote_rounds += 1 if run.remote else 0
        total_methods = len(warm.incremental.keys_for([app.label]))
        # stable-key counters for the artifact (same keys as
        # metrics_snapshot)
        stats = warm.incremental_stats.snapshot()
    finally:
        warm.shutdown_warm()

    setup_drop = 1.0 - setup_s / setup_unseeded_s if setup_unseeded_s else 0.0
    return {
        "label": app.label,
        "stats": stats,
        "migration_table": table,
        "methods_total": total_methods,
        "methods_rechecked_per_round": methods_rechecked / rounds,
        "remote_rounds": remote_rounds,
        "warm_setup_s": round(setup_s, 4),
        "warm_setup_unseeded_s": round(setup_unseeded_s, 4),
        "warm_setup_drop": round(setup_drop, 4),
        "serial": {
            "wall_per_round_s": round(serial_wall / rounds, 4),
        },
        "warm": {
            "wall_per_round_s": round(warm_wall / rounds, 4),
            "cpu_critical_path_per_round_s": round(warm_cpu_path / rounds, 4),
            "worker_cpu_per_round_s": round(warm_cpu_total / rounds, 4),
        },
        "parity": True,
    }


def run_benchmark(rounds: int, workers: int) -> dict:
    apps = [bench_app(app, rounds, workers) for app in all_apps()]
    apps = [entry for entry in apps if entry is not None]
    serial_wall = sum(a["serial"]["wall_per_round_s"] for a in apps)
    warm_wall = sum(a["warm"]["wall_per_round_s"] for a in apps)
    warm_path = sum(a["warm"]["cpu_critical_path_per_round_s"] for a in apps)
    setup_seeded = sum(a["warm_setup_s"] for a in apps)
    setup_unseeded = sum(a["warm_setup_unseeded_s"] for a in apps)
    setup_drop = (1.0 - setup_seeded / setup_unseeded
                  if setup_unseeded else 0.0)
    cores = os.cpu_count() or 1
    return {
        "benchmark": "warm_universe_sessions",
        "workload": (
            "per-app migrate -> re-verify rounds; the serial twin rechecks "
            "in-process, warm sessions replay the journal delta and "
            "re-check only dirty methods on session workers"
        ),
        "rounds": rounds,
        "workers": workers,
        "cpu_count": cores,
        "apps": apps,
        "serial_wall_per_round_s": round(serial_wall, 4),
        "warm_wall_per_round_s": round(warm_wall, 4),
        "warm_cpu_critical_path_per_round_s": round(warm_path, 4),
        "speedup_wall_vs_serial": round(serial_wall / warm_wall, 2)
        if warm_wall else float("inf"),
        "speedup_projected_vs_serial": round(serial_wall / warm_path, 2)
        if warm_path else float("inf"),
        "remote_rounds": sum(a["remote_rounds"] for a in apps),
        "parity": all(a["parity"] for a in apps),
        "warm_setup_seeded_s": round(setup_seeded, 4),
        "warm_setup_unseeded_s": round(setup_unseeded, 4),
        "warm_setup_drop": round(setup_drop, 4),
        "pass": setup_drop >= 0.30,
        "pass_criterion": (
            "every warm report asserted verdict-for-verdict identical to "
            "its serial incremental twin, and the first warm round after a "
            "migration >= 30% faster in wall time when the cold check ran "
            "on the fleet (check_all(workers=N), session already attached) "
            "than after a serial check_all (the round spawns and attaches) "
            f"(warm_setup_drop >= 0.30); warm-vs-serial round times are "
            f"recorded, not gated (this machine has {cores} core(s))"
        ),
    }


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--rounds", type=int, default=None)
    cli.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    cli.add_argument("--json", type=str, default=RESULTS_PATH,
                     help=f"where to write results (default {RESULTS_PATH})")
    cli.add_argument("--quick", action="store_true",
                     help="small iteration counts (CI smoke mode)")
    options = cli.parse_args()
    quick = options.quick or bool(os.environ.get("BENCH_QUICK"))
    rounds = options.rounds or (QUICK_ROUNDS if quick else DEFAULT_ROUNDS)

    results = run_benchmark(rounds, options.workers)
    results["quick_mode"] = quick

    header = (f"{'app':<12} {'methods':>8} {'dirty/round':>12} "
              f"{'serial (ms)':>12} {'warm wall (ms)':>15} "
              f"{'warm cpu (ms)':>14}")
    print(f"workload: migrate -> re-verify x {rounds} rounds at "
          f"{options.workers} workers (cpu_count={results['cpu_count']})")
    print(header)
    print("-" * len(header))
    for entry in results["apps"]:
        print(f"{entry['label']:<12} {entry['methods_total']:>8} "
              f"{entry['methods_rechecked_per_round']:>12.1f} "
              f"{entry['serial']['wall_per_round_s'] * 1e3:>12.1f} "
              f"{entry['warm']['wall_per_round_s'] * 1e3:>15.1f} "
              f"{entry['warm']['cpu_critical_path_per_round_s'] * 1e3:>14.1f}")
    print("-" * len(header))
    print(f"per-round wall: serial "
          f"{results['serial_wall_per_round_s'] * 1e3:.1f}ms vs warm "
          f"{results['warm_wall_per_round_s'] * 1e3:.1f}ms "
          f"({results['speedup_wall_vs_serial']:.2f}x); warm CPU critical "
          f"path {results['warm_cpu_critical_path_per_round_s'] * 1e3:.1f}ms "
          f"(projection: {results['speedup_projected_vs_serial']:.2f}x) — "
          f"parity held every round")
    print(f"first warm round after a migration: after a serial check_all "
          f"{results['warm_setup_unseeded_s'] * 1e3:.1f}ms vs after "
          f"check_all(workers={options.workers}) "
          f"{results['warm_setup_seeded_s'] * 1e3:.1f}ms "
          f"({results['warm_setup_drop'] * 100:.1f}% drop)")

    os.makedirs(os.path.dirname(os.path.abspath(options.json)), exist_ok=True)
    with open(options.json, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"results written to {options.json}")

    if not results["pass"]:
        if quick:
            # quick mode is the CI smoke step: it records the numbers for
            # the artifact but never gates the build on a perf threshold a
            # noisy 2-round sample could flip (verdict parity, asserted
            # above every round, still gates)
            print("NOTE: the fleet cold check cut the first warm round by "
                  "< 30% this sample — recorded, not gated in quick mode")
            return 0
        print("FAIL: the fleet cold check cut the first warm round by "
              "< 30%")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
