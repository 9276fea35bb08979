"""Benchmark: compiled membership predicates vs the structural walker.

Every dynamic check the paper's §4 contract inserts — argument guards,
return guards, cast oracles — bottoms out in a value-membership test
against an RType.  Two ways to answer it:

* **structural** — ``value_has_type`` re-walks the type tree on every
  call: an isinstance ladder re-dispatched per node, unions re-scanned,
  ancestor chains re-walked (``REPRO_MEMBERSHIP=structural``);
* **compiled** — ``predicate_for`` lowers the type once into a closure
  tree; the isinstance ladder is resolved at compile time and nominal
  members carry an epoch-guarded inline cache keyed on the receiver's
  pytype (the default).

Measurements:

* **microloop** — per-eval cost of each backend over a corpus that
  covers every membership constructor; the gated metric: the compiled
  predicates must be >= 2x faster per eval.
* **verdict parity** — every subject app checked serially *and* with
  ``check_all(workers=4)`` (one session fleet per membership backend)
  under both backends; all four report keys must agree.
* **Blame parity** — the §4 staged-column Blame scenario must render a
  byte-identical message under both backends.

Run: ``PYTHONPATH=src python benchmarks/bench_membership.py
[--iters N] [--workers N] [--json PATH] [--quick]``
(``BENCH_QUICK=1`` implies ``--quick``).
"""

from __future__ import annotations

import argparse
import json
import os
import time

from repro import CompRDL, Database
from repro.apps import all_apps
from repro.parallel import ParallelCheckEngine
from repro.rtypes import (ConstStringType, NominalType, OptionalArg,
                          SingletonType, parse_type)
from repro.runtime.errors import Blame
from repro.runtime.member_compile import predicate_for
from repro.runtime.membership import value_has_type
from repro.runtime.objects import RArray, RHash, RString, Sym

DEFAULT_ITERS = 300
QUICK_ITERS = 25
DEFAULT_WORKERS = 4
RESULTS_PATH = os.path.join(os.path.dirname(__file__), "results",
                            "bench_membership.json")

#: the §4 consistency scenario: checked against a schema with ``staged``,
#: run after the column is dropped -> the re-evaluated comp type no longer
#: matches and the guard must Blame (identically under both backends)
FINDER_SOURCE = """
class User < ActiveRecord::Base
end

class Finder
  type "(Symbol) -> Table<{ id: Integer, username: String, staged: %bool }, User>", typecheck: :finder
  def find_staged(flag)
    User.where(staged: true)
  end
end
"""


def _parity_key(report) -> tuple:
    return (
        tuple(report.checked_methods),
        tuple(str(e) for e in report.errors),
        report.casts_used,
        report.oracle_casts,
    )


def _corpus(interp):
    """(types, values): one type per membership constructor, probed against
    values that hit both the accept and reject paths of each."""
    types = [
        parse_type("Integer"),
        parse_type("String"),
        parse_type("Numeric"),
        parse_type("Object"),
        parse_type("%any"),
        parse_type("%bool"),
        parse_type("Integer or String"),
        parse_type("Integer or String or Symbol or Float"),
        parse_type("Array<Integer>"),
        parse_type("Hash<Symbol, String>"),
        parse_type("{ id: Integer, username: String }"),
        parse_type("[Integer, String]"),
        OptionalArg(NominalType("Integer")),
        SingletonType(3),
        ConstStringType("hi"),
    ]
    values = [
        None, True, False, 0, 3, 2.5,
        RString("hi"), RString("bye"), Sym("id"),
        RArray([1, 2]), RArray([1, RString("x")]),
        RHash.from_pairs([(Sym("id"), 1), (Sym("username"), RString("u"))]),
        RHash.from_pairs([(Sym("k"), RString("v"))]),
        interp.classes["Integer"],
    ]
    return types, values


def bench_microloop(iters: int) -> dict:
    """Per-eval wall time of each backend over the constructor corpus."""
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    interp = rdl.interp
    types, values = _corpus(interp)

    # parity over the exact pairs the timing loops will run
    preds = [predicate_for(t) for t in types]
    mismatches = 0
    for t, pred in zip(types, preds):
        for value in values:
            if pred(interp, value) != value_has_type(interp, value, t):
                mismatches += 1
                print(f"MISMATCH: {t.to_s()} vs {value!r}")
    assert mismatches == 0, f"{mismatches} verdict mismatches in microloop"

    evals = iters * len(types) * len(values)

    start = time.perf_counter()
    for _ in range(iters):
        for t in types:
            for value in values:
                value_has_type(interp, value, t)
    structural_s = time.perf_counter() - start

    # the check-spec plan binds each predicate once at construction; the
    # timed loop mirrors that steady state (closures prebound, no lookup)
    start = time.perf_counter()
    for _ in range(iters):
        for pred in preds:
            for value in values:
                pred(interp, value)
    compiled_s = time.perf_counter() - start

    return {
        "corpus_types": len(types),
        "corpus_values": len(values),
        "evals_per_backend": evals,
        "structural_wall_s": round(structural_s, 4),
        "compiled_wall_s": round(compiled_s, 4),
        "per_eval_structural_us": round(structural_s / evals * 1e6, 4),
        "per_eval_compiled_us": round(compiled_s / evals * 1e6, 4),
        "speedup": round(structural_s / compiled_s, 2)
        if compiled_s else float("inf"),
    }


def _mode_reports(mode: str, apps, workers: int) -> dict:
    """Serial and fleet parity keys for every app under one backend."""
    os.environ["REPRO_MEMBERSHIP"] = mode
    serial = {}
    for app in apps:
        rdl = app.build()
        serial[app.label] = _parity_key(rdl.check_all([app.label]))
    fleet = {}
    # spawned after the env flip, so the workers check under ``mode`` too
    with ParallelCheckEngine(workers=workers) as engine:
        for app in apps:
            fleet[app.label] = _parity_key(
                engine.check_all(app.build(), app.label))
    return {"serial": serial, "fleet": fleet}


def bench_mode_parity(quick: bool, workers: int) -> dict:
    """Verdict parity across backends, serially and at ``workers`` — the
    semantic gate: a faster membership test that changes any verdict is a
    bug, not a result."""
    apps = list(all_apps())
    if quick:
        apps = [min(apps, key=lambda a: a.source_loc())]
    saved = os.environ.get("REPRO_MEMBERSHIP")
    try:
        by_mode = {mode: _mode_reports(mode, apps, workers)
                   for mode in ("structural", "compiled")}
    finally:
        if saved is None:
            os.environ.pop("REPRO_MEMBERSHIP", None)
        else:
            os.environ["REPRO_MEMBERSHIP"] = saved
    reference = by_mode["structural"]["serial"]
    for mode, reports in by_mode.items():
        for flavor in ("serial", "fleet"):
            assert reports[flavor] == reference, (
                f"verdicts diverged: {mode}/{flavor}")
    return {
        "apps": [app.label for app in apps],
        "workers": workers,
        "configurations": 4,  # {structural, compiled} x {serial, fleet}
        "parity": True,
    }


def _blame_message(mode: str) -> str:
    os.environ["REPRO_MEMBERSHIP"] = mode
    db = Database()
    db.create_table("users", username="string", staged="boolean")
    rdl = CompRDL(db=db)
    rdl.load(FINDER_SOURCE)
    report = rdl.check(":finder")
    assert report.ok(), report.summary()
    db.drop_column("users", "staged")
    try:
        rdl.run("Finder.new.find_staged(:staged)", checks=True)
    except Blame as blame:
        return str(blame)
    raise AssertionError(f"expected a Blame under {mode}")


def bench_blame_parity() -> dict:
    saved = os.environ.get("REPRO_MEMBERSHIP")
    try:
        structural = _blame_message("structural")
        compiled = _blame_message("compiled")
    finally:
        if saved is None:
            os.environ.pop("REPRO_MEMBERSHIP", None)
        else:
            os.environ["REPRO_MEMBERSHIP"] = saved
    assert compiled == structural, (
        f"Blame text diverged:\n  structural: {structural}\n"
        f"  compiled:   {compiled}")
    return {"parity": True, "message": structural}


def run_benchmark(iters: int, workers: int, quick: bool) -> dict:
    micro = bench_microloop(iters)
    modes = bench_mode_parity(quick, workers)
    blame = bench_blame_parity()
    parity = modes["parity"] and blame["parity"]
    return {
        "benchmark": "membership_predicates",
        "workload": (
            "per-eval membership cost over a full constructor corpus, "
            "verdict + Blame parity across REPRO_MEMBERSHIP backends "
            "(serial and check_all(workers=N))"
        ),
        "iters": iters,
        "microloop": micro,
        "mode_parity": modes,
        "blame_parity": {"parity": blame["parity"]},
        "speedup": micro["speedup"],
        "parity": parity,
        "pass": micro["speedup"] >= 2.0 and parity,
        "pass_criterion": (
            "compiled predicates >= 2x faster per eval than the structural "
            "walker over the constructor corpus (machine-independent: both "
            "loops run in the same process on the same pairs), every app "
            "verdict-identical under both backends serially and at "
            f"workers={workers}, and the staged-column Blame message "
            "byte-identical across backends"
        ),
    }


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--iters", type=int, default=None)
    cli.add_argument("--workers", type=int, default=DEFAULT_WORKERS)
    cli.add_argument("--json", type=str, default=RESULTS_PATH,
                     help=f"where to write results (default {RESULTS_PATH})")
    cli.add_argument("--quick", action="store_true",
                     help="small iteration counts (CI smoke mode)")
    options = cli.parse_args()
    quick = options.quick or bool(os.environ.get("BENCH_QUICK"))
    iters = options.iters or (QUICK_ITERS if quick else DEFAULT_ITERS)

    results = run_benchmark(iters, options.workers, quick)
    results["quick_mode"] = quick

    micro = results["microloop"]
    print(f"membership microloop: {micro['evals_per_backend']} evals/backend "
          f"over {micro['corpus_types']} types x {micro['corpus_values']} "
          f"values")
    print(f"  structural: {micro['per_eval_structural_us']:.3f}us/eval   "
          f"compiled: {micro['per_eval_compiled_us']:.3f}us/eval   "
          f"speedup {micro['speedup']:.2f}x (>= 2x required)")
    print(f"verdict parity: {len(results['mode_parity']['apps'])} app(s) x "
          f"{{structural, compiled}} x {{serial, fleet@"
          f"{results['mode_parity']['workers']}}} — all identical")
    print("Blame parity: staged-column message byte-identical across "
          "backends")

    os.makedirs(os.path.dirname(os.path.abspath(options.json)), exist_ok=True)
    with open(options.json, "w") as handle:
        json.dump(results, handle, indent=2)
        handle.write("\n")
    print(f"results written to {options.json}")

    if not results["pass"]:
        if quick:
            # quick mode is the CI smoke step: it records the numbers but
            # never gates on a perf threshold a 25-iteration sample could
            # flip (verdict + Blame parity, asserted above, still gate)
            print(f"NOTE: {results['speedup']:.2f}x (< 2x) — recorded, "
                  f"not gated in quick mode")
            return 0
        print(f"FAIL: expected >= 2x per-eval speedup, got "
              f"{results['speedup']:.2f}x")
        return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
