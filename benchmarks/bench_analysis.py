"""Benchmark: static analysis cost against checking.

The cold pass (fresh analyzer: index build, footprint inference, effect
lint) is what ``CompRDL.analyze()`` and ``python -m repro.analysis`` run
once per universe, and is recorded.  The *warm* pass (re-querying one
analyzer whose index and footprints are cached) is gated: it must cost at
least 10x less than checking the app.  Nothing in checking consults
either pass; the gate keeps a long-lived analyzer cheap to re-query.

The soundness contract (static ⊇ dynamic for every method with recorded
deps) is asserted every round — that part gates like the parity checks in
the other benchmarks.

Run: ``PYTHONPATH=src python benchmarks/bench_analysis.py
[--rounds N] [--json PATH] [--quick]`` (``BENCH_QUICK=1`` implies
``--quick``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro.analysis.footprint import FootprintAnalyzer
from repro.analysis.report import analyze_universe
from repro.apps import all_apps

DEFAULT_ROUNDS = 5
QUICK_ROUNDS = 2
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results",
                            "bench_analysis.json")


def bench_app(app, rounds: int) -> dict:
    rdl = app.build()

    check_start = time.perf_counter()
    rdl.check_all(app.label)
    check_s = time.perf_counter() - check_start

    # cold analysis: fresh analyzer each round (index rebuilt every time)
    cold_s = 0.0
    report = None
    for _ in range(rounds):
        start = time.perf_counter()
        report = analyze_universe(rdl, label=app.label)
        cold_s += time.perf_counter() - start
    cold_s /= rounds

    # warm analysis: one analyzer, cached index and footprints
    analyzer = FootprintAnalyzer(rdl.registry, rdl.db, rdl.interp)
    keys = list(report.footprints)
    analyzer.footprints_for(keys)  # prime
    warm_s = 0.0
    for _ in range(rounds):
        start = time.perf_counter()
        analyzer.footprints_for(keys)
        warm_s += time.perf_counter() - start
    warm_s /= rounds

    # the soundness contract, asserted like the other benches' parity
    covered = violations = 0
    for key, footprint in report.footprints.items():
        deps = rdl.incremental.tracker.deps_of(key)
        if deps is None:
            continue
        covered += 1
        if not footprint.covers(deps):
            violations += 1
    assert violations == 0, (
        f"{app.label}: {violations}/{covered} static footprints fail to "
        f"cover their dynamic deps")

    counts = report.counts()
    return {
        "label": app.label,
        "methods": counts["methods"],
        "wildcard_footprints": counts["wildcard_footprints"],
        "diagnostics": counts["diagnostics"],
        "check_wall_s": round(check_s, 4),
        "analysis_cold_wall_s": round(cold_s, 4),
        "analysis_warm_wall_s": round(warm_s, 6),
        "analysis_vs_check_ratio": round(cold_s / check_s, 4) if check_s
        else None,
        "deps_covered": covered,
        "pass": warm_s * 10 < check_s,
    }


def run_benchmark(rounds: int) -> dict:
    apps = [bench_app(app, rounds) for app in all_apps()]
    return {
        "benchmark": "static_analysis",
        "workload": (
            "per app: full check, then repeated cold (fresh analyzer) and "
            "warm (cached index) analysis passes; static ⊇ dynamic "
            "asserted for every deps-recorded method"
        ),
        "rounds": rounds,
        "apps": apps,
        "analysis_cold_wall_s": round(
            sum(a["analysis_cold_wall_s"] for a in apps), 4),
        "check_wall_s": round(sum(a["check_wall_s"] for a in apps), 4),
        "pass": all(a["pass"] for a in apps),
        "pass_criterion": (
            "warm (cached-footprint) analysis must cost at least 10x "
            "less wall time than type checking the app, per app, with "
            "zero soundness violations; cold analysis time is recorded "
            "for trajectory tracking, not gated"
        ),
    }


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--rounds", type=int, default=None)
    cli.add_argument("--json", type=str, default=RESULTS_PATH,
                     help=f"where to write results (default {RESULTS_PATH})")
    cli.add_argument("--quick", action="store_true",
                     help="small iteration counts (CI smoke mode)")
    options = cli.parse_args()
    quick = options.quick or bool(os.environ.get("BENCH_QUICK"))
    rounds = options.rounds or (QUICK_ROUNDS if quick else DEFAULT_ROUNDS)

    results = run_benchmark(rounds)
    results["quick_mode"] = quick

    header = (f"{'app':<12} {'methods':>8} {'check (ms)':>11} "
              f"{'analyze (ms)':>13} {'warm (µs)':>10}")
    print(f"workload: analyze vs check x {rounds} rounds")
    print(header)
    print("-" * len(header))
    for entry in results["apps"]:
        print(f"{entry['label']:<12} {entry['methods']:>8} "
              f"{entry['check_wall_s'] * 1e3:>11.1f} "
              f"{entry['analysis_cold_wall_s'] * 1e3:>13.1f} "
              f"{entry['analysis_warm_wall_s'] * 1e6:>10.1f}")
    print("-" * len(header))
    print(f"total: check {results['check_wall_s'] * 1e3:.1f}ms, analysis "
          f"{results['analysis_cold_wall_s'] * 1e3:.1f}ms")

    os.makedirs(os.path.dirname(os.path.abspath(options.json)), exist_ok=True)
    with open(options.json, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"results written to {options.json}")

    if not results["pass"]:
        print("FAIL: warm analysis not 10x cheaper than checking")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
