"""Benchmark: serial vs ``check_all(workers=N)`` cold checking of the apps.

The workload is the combined-apps cold check — build every Table 2 subject
app and check all of its labelled methods — repeated ``ROUNDS`` times.
Per worker count, one :class:`ParallelCheckEngine` serves every round:
each app's fresh universe attaches to the same warm session workers (their
replicas are rebuilt from the app recipe; the processes stay up), and its
methods are checked there.  Measurements:

* **check wall** — the ``check_all`` calls only (both sides build the same
  universes in-process, so builds are excluded), serial and per worker
  count, on this machine.  Worker start-up is the first, unmeasured round
  and is reported separately as ``startup_s``.
* **CPU projection** — per round, the sum over apps of the slowest shard's
  process CPU time plus the engine's sync and planning time: the check
  wall on a machine with >= N free cores.  Clearly labelled a projection.
* **parity** — every round's reports are asserted verdict-for-verdict
  identical to the serial run.  A speedup that changes verdicts is a bug,
  not a result.

No speedup is gated: this is the honest serial-vs-fleet record.

Run: ``PYTHONPATH=src python benchmarks/bench_parallel.py
[--rounds N] [--workers 2,4,8] [--json PATH] [--quick]``
(``BENCH_QUICK=1`` implies ``--quick``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.apps import all_apps
from repro.parallel import ParallelCheckEngine

DEFAULT_ROUNDS = 12
QUICK_ROUNDS = 2
DEFAULT_WORKERS = (2, 4, 8)
QUICK_WORKERS = (2, 4)
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results",
                            "bench_parallel.json")


def _parity_key(reports) -> tuple:
    return tuple(
        (tuple(report.checked_methods),
         tuple(str(e) for e in report.errors),
         report.casts_used,
         report.oracle_casts)
        for report in reports
    )


def serial_baseline(rounds: int) -> dict:
    """The one-process reference: build + check every app, ``rounds``
    times, timing the checks."""
    key = None
    check_s = 0.0
    for _ in range(rounds):
        reports = []
        for app in all_apps():
            rdl = app.build()
            start = time.perf_counter()
            reports.append(rdl.check_all(app.label))
            check_s += time.perf_counter() - start
        key = _parity_key(reports)
    assert key is not None
    return {
        "check_s": check_s,
        "methods": sum(len(entry[0]) for entry in key),
        "errors": sum(len(entry[1]) for entry in key),
        "parity_key": key,
    }


def _fleet_round(engine) -> tuple[list, float, float, int]:
    """One round on ``engine``: (reports, check wall, CPU projection,
    apps checked remotely)."""
    reports = []
    check_s = 0.0
    projected = 0.0
    remote = 0
    for app in all_apps():
        rdl = app.build()
        start = time.perf_counter()
        reports.append(engine.check_all(rdl, app.label))
        check_s += time.perf_counter() - start
        run = engine.last_warm_run
        projected += run.critical_path_s + run.sync_s + run.plan_s
        remote += run.remote
    return reports, check_s, projected, remote


def parallel_config(serial: dict, rounds: int, workers: int) -> dict:
    """Measure one worker count over the same workload, asserting parity."""
    with ParallelCheckEngine(workers=workers) as engine:
        start = time.perf_counter()
        reports, _, _, _ = _fleet_round(engine)  # spawns the workers
        startup_s = time.perf_counter() - start
        assert _parity_key(reports) == serial["parity_key"], (
            f"parallel verdicts diverged from serial at workers={workers} "
            f"(start-up round)")
        check_s = 0.0
        projected = 0.0
        remote = 0
        for round_no in range(rounds):
            reports, wall, cpu_path, remote_apps = _fleet_round(engine)
            assert _parity_key(reports) == serial["parity_key"], (
                f"parallel verdicts diverged from serial at "
                f"workers={workers} round={round_no}")
            check_s += wall
            projected += cpu_path
            remote += remote_apps

    return {
        "workers": workers,
        "startup_s": round(startup_s, 4),
        "check_s": round(check_s, 4),
        "check_per_round_s": round(check_s / rounds, 4),
        "projected_per_round_s": round(projected / rounds, 4),
        "remote_apps_per_round": remote / rounds,
        "speedup_wall": round(serial["check_s"] / check_s, 2)
        if check_s else float("inf"),
        "speedup_projected": round(serial["check_s"] / projected, 2)
        if projected else float("inf"),
        "parity": True,
    }


def run_benchmark(rounds: int, worker_counts) -> dict:
    serial = serial_baseline(rounds)
    configs = [parallel_config(serial, rounds, n) for n in worker_counts]
    return {
        "benchmark": "parallel_check_all",
        "workload": "combined subject-app cold check "
                    f"({serial['methods']} methods/round), checks timed",
        "rounds": rounds,
        "cpu_count": os.cpu_count() or 1,
        "serial": {
            "check_s": round(serial["check_s"], 4),
            "check_per_round_s": round(serial["check_s"] / rounds, 4),
            "methods_per_round": serial["methods"],
            "errors_per_round": serial["errors"],
        },
        "configs": configs,
        "parity": all(config["parity"] for config in configs),
        "pass": True,
        "pass_criterion": (
            "every round's check_all(workers=N) reports verdict-for-verdict "
            "identical to serial check_all (asserted); wall and CPU-"
            "projected speedups are recorded, not gated"
        ),
    }


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--rounds", type=int, default=None)
    cli.add_argument("--workers", type=str, default=None,
                     help="comma-separated worker counts (default 2,4,8)")
    cli.add_argument("--json", type=str, default=RESULTS_PATH,
                     help=f"where to write results (default {RESULTS_PATH})")
    cli.add_argument("--quick", action="store_true",
                     help="small iteration counts (CI smoke mode)")
    options = cli.parse_args()
    quick = options.quick or bool(os.environ.get("BENCH_QUICK"))
    rounds = options.rounds or (QUICK_ROUNDS if quick else DEFAULT_ROUNDS)
    worker_counts = (
        tuple(int(n) for n in options.workers.split(","))
        if options.workers else (QUICK_WORKERS if quick else DEFAULT_WORKERS)
    )

    results = run_benchmark(rounds, worker_counts)
    results["quick_mode"] = quick

    header = (f"{'config':<12} {'check/round (ms)':>17} "
              f"{'projected/round (ms)':>21} {'speedup':>8} {'proj.':>7} "
              f"{'start-up (s)':>13}")
    print(f"workload: {results['workload']} x {rounds} rounds "
          f"(cpu_count={results['cpu_count']})")
    print(header)
    print("-" * len(header))
    serial = results["serial"]
    print(f"{'serial':<12} {serial['check_per_round_s'] * 1e3:>17.1f} "
          f"{'—':>21} {'1.00x':>8} {'—':>7} {'—':>13}")
    for config in results["configs"]:
        print(f"{config['workers']:>2d} workers   "
              f"{config['check_per_round_s'] * 1e3:>17.1f} "
              f"{config['projected_per_round_s'] * 1e3:>21.1f} "
              f"{config['speedup_wall']:>7.2f}x "
              f"{config['speedup_projected']:>6.2f}x "
              f"{config['startup_s']:>13.3f}")
    print("-" * len(header))
    print("verdict parity held every round (projected = per-app slowest "
          "shard CPU + sync + plan, summed: a projection, not a measurement)")

    os.makedirs(os.path.dirname(os.path.abspath(options.json)), exist_ok=True)
    with open(options.json, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"results written to {options.json}")
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
