"""The repository benchmark: one seeded, closed-loop workload per run.

Usage, from the repository root::

    python3 perfbench/run.py --workload cold_check --seed 1 --seconds 20 --trace 0

``--trace 0`` sets up the workload several times (``setup_s`` is the
median), then runs ops for ``--seconds`` with tracing off and reports the
end-to-end metrics.  ``--trace 1`` spends half the time on the same
untraced loop (the baseline for ``trace.overhead_pct``, ``nochk_p50_ms``
and ``parallel.serial_equiv_ms``) and half on a traced loop that yields
the per-layer ledger (see ``tracing.py``).  Either way the last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  See ``README.md`` for what each number means.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from collections import Counter, defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: program switches the benchmark leaves at their defaults
PROGRAM_ENV = ("REPRO_DB_BACKEND", "REPRO_FAULTS", "REPRO_INTERP",
               "REPRO_MEMBERSHIP", "REPRO_PROVENANCE",
               "REPRO_SESSION_DEADLINE_S", "REPRO_TRACE")

#: seconds of ops between two oracle checkpoints
CHECKPOINT_EVERY_S = 5.0

#: ledger layers with a self time (``<layer>.self_ms``)
SELF_LAYERS = (
    "lang.parse", "annotations.install", "runtime.build", "runtime.load",
    "db.setup", "typecheck.method", "comp.eval", "rtypes.subtype",
    "sqltc.fragment", "db.migrate", "incremental.resolve", "runtime.run",
    "comp.checks", "runtime.membership", "parallel.sync", "parallel.plan",
    "parallel.round", "unattributed", "other",
)

#: ledger layers with a call count (``<layer>.calls``)
CALL_LAYERS = ("lang.parse", "typecheck.method", "rtypes.subtype",
               "sqltc.fragment", "db.migrate", "comp.checks",
               "runtime.membership")


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, as ``statistics.quantiles`` cuts 100 ways."""
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=100)[q - 1]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


class Run:
    """One measured loop: op times (scaled to the nominal machine, and
    raw), failures, and (traced) the ledger."""

    def __init__(self, workload, ledger: "Ledger | None" = None):
        self.workload = workload
        self.ledger = ledger
        self.op_s: list[float] = []
        self.raw_s: list[float] = []
        self.baseline_s: list[float] = []
        self.failed = 0

    def loop(self, seconds: float) -> "Run":
        from clock import machine_scale
        from repro import obs

        workload = self.workload
        deadline = time.perf_counter() + seconds
        next_checkpoint = time.perf_counter() + CHECKPOINT_EVERY_S
        unverified = 0
        while True:
            if self.ledger is not None:
                self.ledger.before(workload)
            before = machine_scale()
            ok = True
            start = time.perf_counter()
            try:
                with obs.span("bench.op"):
                    workload.op()
            except Exception:
                ok = False
                traceback.print_exc(file=sys.stderr)
            elapsed = time.perf_counter() - start
            # the machine's speed over the op: between the two readings
            scale = math.sqrt(before * machine_scale())
            self.op_s.append(elapsed * scale)
            self.raw_s.append(elapsed)
            if self.ledger is not None:
                self.ledger.after(workload, scale)
            if ok:
                try:
                    ok = workload.after_op()
                    if ok and workload.baseline_name:
                        self.baseline_s.append(workload.baseline_op())
                except Exception:
                    ok = False
                    traceback.print_exc(file=sys.stderr)
            if ok:
                unverified += 1
            else:
                self.failed += 1
            now = time.perf_counter()
            restart = workload.restart_due()
            if restart or now >= next_checkpoint or now >= deadline:
                if not workload.checkpoint():
                    print("checkpoint: verdicts differ from the fresh "
                          "full re-check", file=sys.stderr)
                    self.failed += unverified
                unverified = 0
                if restart and now < deadline:
                    workload.restart()
                next_checkpoint = time.perf_counter() + CHECKPOINT_EVERY_S
            if now >= deadline:
                return self

    def p50_ms(self) -> float:
        return statistics.median(self.op_s) * 1e3

    def baseline_p50_ms(self) -> float:
        return statistics.median(self.baseline_s) * 1e3 if self.baseline_s \
            else 0.0


class Ledger:
    """Per-op self times and counters for the traced loop."""

    def __init__(self, boundaries):
        self.boundaries = boundaries
        self.ops = 0
        self.self_us: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.span_us: dict = defaultdict(float)
        self.counts: Counter = Counter()
        self.rechecked = 0
        self.flipped = 0

    def before(self, workload) -> None:
        from repro import obs
        from tracing import counters

        obs.drain()
        self._counters = counters()
        self._annotate = self.boundaries.annotate_calls
        self._stats = {id(rdl): (rdl, rdl.incremental_stats.snapshot(),
                                 dict(rdl.incremental.results))
                       for rdl in workload.universes()}

    def after(self, workload, scale: float) -> None:
        """Account one op; ``scale`` converts its wall times to the
        nominal machine (see ``clock.py``)."""
        from repro import obs
        from tracing import counters, self_times, worker_check_us

        events = obs.drain()
        self.ops += 1
        self_us, calls = self_times(events)
        for layer, us in self_us.items():
            self.self_us[layer] += us * scale
        self.calls.update(calls)
        pid = os.getpid()
        for e in events:
            if e.get("ph") == "X" and e["pid"] == pid:
                self.span_us[e["name"]] += e["dur"] * scale
        self.span_us["worker_check"] += worker_check_us(events) * scale
        now = counters()
        for key, value in now.items():
            self.counts[key] += value - self._counters.get(key, 0)
        self.counts["annotate"] += (self.boundaries.annotate_calls
                                    - self._annotate)
        for rdl in workload.universes():
            seen = self._stats.get(id(rdl))
            if seen is not None and seen[0] is not rdl:
                seen = None
            before = seen[1] if seen else {}
            snap = rdl.incremental_stats.snapshot()
            for key in ("ast_cache.hits", "ast_cache.misses",
                        "methods.dirtied"):
                self.counts[key] += snap[key] - before.get(key, 0)
            if seen is None:
                continue  # a fresh universe: every verdict is new, not changed
            old = seen[2]
            for key, result in rdl.incremental.results.items():
                previous = old.get(key)
                if previous is result:
                    continue
                self.rechecked += 1
                if previous is None or [str(e) for e in previous.errors] \
                        != [str(e) for e in result.errors]:
                    self.flipped += 1

    def metrics(self) -> dict:
        ops = max(1, self.ops)
        per_op_ms = {layer: us / 1e3 / ops for layer, us in self.self_us.items()}
        out = {f"{layer}.self_ms": (per_op_ms.get(layer, 0.0), "ms")
               for layer in SELF_LAYERS}
        for layer in CALL_LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer] / ops, "count")
        counts = self.counts
        hits = counts["counters.comp.eval.hits"]
        out["comp.eval.calls"] = ((hits + self.calls["comp.eval"]) / ops,
                                  "count")
        out["comp.cache.hit_rate"] = (
            ratio(hits, hits + self.calls["comp.eval"]), "ratio")
        out["lang.parse.cache_hit_rate"] = (ratio(
            counts["ast_cache.hits"],
            counts["ast_cache.hits"] + counts["ast_cache.misses"]), "ratio")
        out["annotations.annotate.calls"] = (counts["annotate"] / ops, "count")
        out["rtypes.subtype.memo_hit_rate"] = (ratio(
            counts["counters.subtype.memo_hits"],
            counts["counters.subtype.queries"]), "ratio")
        out["runtime.membership.ic_hit_rate"] = (ratio(
            counts["membership.ic_hits"],
            counts["membership.ic_hits"] + counts["membership.ic_misses"]),
            "ratio")
        out["incremental.dirty_per_op"] = (counts["methods.dirtied"] / ops,
                                           "count")
        out["incremental.useful_ratio"] = (ratio(self.flipped, self.rechecked),
                                           "ratio")
        span_ms = {name: us / 1e3 / ops for name, us in self.span_us.items()}
        out["parallel.worker_check_ms"] = (span_ms.get("worker_check", 0.0),
                                           "ms")
        round_ms = span_ms.get("warm.round", 0.0)
        ipc = (round_ms - span_ms.get("fleet.plan_shards", 0.0)
               - span_ms.get("session.sync", 0.0)
               - span_ms.get("incremental.resolve", 0.0)
               - span_ms.get("worker_check", 0.0)) if round_ms else 0.0
        out["parallel.ipc_ms"] = (ipc, "ms")
        out["trace.op_ms"] = (span_ms.get("bench.op", 0.0), "ms")
        return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(workload_cls, seed: int, seconds: float) -> tuple[dict, Run]:
    from clock import timed

    workload = workload_cls(seed)
    setup_s = []
    try:
        for i in range(workload.setups):
            if i:
                workload.close()
            setup_s.append(timed(workload.setup))
        run = Run(workload).loop(seconds)
    finally:
        workload.close()
    print(f"raw wall clock: op p50 "
          f"{statistics.median(run.raw_s) * 1e3:.6g} ms, "
          f"op p90 {percentile(run.raw_s, 90) * 1e3:.6g} ms")
    metrics = {
        "setup_s": (statistics.median(setup_s), "s"),
        "op_p50_ms": (run.p50_ms(), "ms"),
        "op_p90_ms": (percentile(run.op_s, 90) * 1e3, "ms"),
        "ops_per_s": (len(run.op_s) / sum(run.op_s), "1/s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    return metrics, run


def per_layer(workload_cls, seed: int,
              seconds: float) -> tuple[dict, list, bool]:
    from repro import obs
    from tracing import Boundaries

    workload = workload_cls(seed)
    try:
        workload.setup()
        plain = Run(workload).loop(seconds / 2)
    finally:
        workload.close()
    attach_s = statistics.median(getattr(workload, "attach_s", [0.0]))
    remote = getattr(workload, "remote_rounds", 0)

    boundaries = Boundaries().install()
    obs.reset()
    obs.enable()
    try:
        traced_workload = workload_cls(seed)
        traced = Run(traced_workload, Ledger(boundaries))
        try:
            traced_workload.setup()
            traced.loop(seconds / 2)
        finally:
            traced_workload.close()
    finally:
        obs.disable()
        obs.reset()
        boundaries.restore()

    metrics = traced.ledger.metrics()
    plain_p50 = plain.p50_ms()
    base_p50 = plain.baseline_p50_ms()
    checked = workload.baseline_name == "nochk_p50_ms"
    fleet = workload.baseline_name == "parallel.serial_equiv_ms"
    metrics["nochk_p50_ms"] = (base_p50 if checked else 0.0, "ms")
    metrics["comp.checks.overhead_pct"] = (
        (plain_p50 / base_p50 - 1) * 100 if checked and base_p50 else 0.0, "%")
    metrics["parallel.attach_s"] = (attach_s, "s")
    metrics["parallel.remote_ratio"] = (ratio(remote, len(plain.op_s)),
                                        "ratio")
    metrics["parallel.serial_equiv_ms"] = (base_p50 if fleet else 0.0, "ms")
    metrics["parallel.speedup_vs_serial"] = (
        ratio(base_p50, plain_p50) if fleet else 0.0, "ratio")
    metrics["trace.overhead_pct"] = ((traced.p50_ms() / plain_p50 - 1) * 100,
                                     "%")
    accounted = sum(value for name, (value, _unit) in metrics.items()
                    if name.endswith(".self_ms"))
    op_ms = metrics["trace.op_ms"][0]
    consistent = abs(accounted - op_ms) <= 1e-6 * max(1.0, op_ms)
    if not consistent:
        print(f"ledger self times sum to {accounted} ms, the traced op "
              f"to {op_ms} ms", file=sys.stderr)
    return metrics, [plain, traced], consistent


def stop_children() -> None:
    """End every process the run started and wait for each: worker
    processes a workload failed to close, then the resource tracker that
    spawn-mode multiprocessing starts beside the first worker (left alone,
    it outlives this process by a moment)."""
    import multiprocessing
    from multiprocessing import resource_tracker

    for child in multiprocessing.active_children():
        child.terminate()
        child.join(timeout=5)
        if child.is_alive():
            child.kill()
            child.join()
    stop = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop is not None:
        stop()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    for name in PROGRAM_ENV:
        os.environ.pop(name, None)
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from workloads import WORKLOADS

    workload_cls = WORKLOADS.get(args.workload)
    if workload_cls is None:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    try:
        if args.trace:
            metrics, runs, consistent = per_layer(workload_cls, args.seed,
                                                  args.seconds)
        else:
            metrics, run = end_to_end(workload_cls, args.seed, args.seconds)
            runs = [run]
            consistent = True
    finally:
        stop_children()
    attempted = sum(len(run.op_s) for run in runs)
    failed = sum(run.failed for run in runs)
    for name, (value, unit) in sorted(metrics.items()):
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    if not args.trace and workload_cls.baseline_name:
        base = runs[0].baseline_p50_ms()
        print(f"{args.workload} {workload_cls.baseline_name} = {base:.6g} ms "
              f"(op p50 is {ratio(runs[0].p50_ms(), base):.4g}x this)")
    print(f"{args.workload} error_rate = {failed / attempted:.6g} "
          f"({failed} of {attempted} ops)")
    result = {
        "correct": failed == 0 and consistent,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
