"""Run every ``benchmarks/bench_*.py`` in quick mode, collecting JSON.

The CI smoke step: each benchmark runs with small iteration counts so a PR
sees *that* the benchmarks still run and roughly *what* they measure, and
the per-benchmark JSON lands in an artifact directory for regression
tracking.  Two benchmark styles are dispatched automatically:

* **script benchmarks** (``bench_incremental``, ``bench_parallel``,
  ``bench_backends``, ``bench_warm``, ``bench_analysis``, ``bench_fuzz``)
  have a ``main()`` and quick/JSON switches of their own;
* **pytest benchmarks** (everything else) run under pytest with
  pytest-benchmark forced to one warm-up-free round, writing its own
  ``--benchmark-json``.

Besides the per-bench files, one merged ``summary.json`` — per-bench status,
wall/CPU time, and every pass-criterion each benchmark reported — is written
to the artifact directory *and* to ``benchmarks/results/summary.json``, so
the perf trajectory across PRs can be charted from one committed file
instead of scraping N artifacts.

Usage: ``PYTHONPATH=src python benchmarks/run_all.py [--out DIR]``
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import subprocess
import sys
import time

try:
    import resource
except ImportError:  # non-POSIX: CPU times degrade to null
    resource = None

HERE = os.path.dirname(os.path.abspath(__file__))
RESULTS_DIR = os.path.join(HERE, "results")
HISTORY_DIR = os.path.join(HERE, "history")

#: substrings that mark a benchmark-reported number as trajectory-worthy
_METRIC_HINTS = ("pass", "criter", "wall", "cpu", "speedup", "hit_rate",
                 "ratio", "overhead", "per_eval", "_s", "_ms", "_us")


def _run(cmd: list[str], env: dict) -> tuple[int, str, float, float]:
    """Run one benchmark; returns (exit, output, wall seconds, CPU seconds).

    CPU is the child's user+system time via ``RUSAGE_CHILDREN`` deltas —
    the whole benchmark process tree, including its own worker processes.
    """
    cpu_before = _children_cpu()
    wall_start = time.perf_counter()
    proc = subprocess.run(
        cmd, env=env, cwd=os.path.dirname(HERE),
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    wall = time.perf_counter() - wall_start
    cpu = _children_cpu() - cpu_before
    return proc.returncode, proc.stdout, wall, cpu


def _children_cpu() -> float:
    if resource is None:
        return 0.0
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def _harvest(json_path: str) -> dict:
    """Pull the trajectory-worthy scalars out of one bench's JSON: any
    numeric/bool leaf (two levels deep) whose dotted key mentions a pass
    criterion or a timing, plus ``<test name>.median_s`` for every entry
    of pytest-benchmark's ``"benchmarks"`` list.  Benchmarks keep their
    own schemas; the summary only skims them."""
    try:
        with open(json_path) as handle:
            data = json.load(handle)
    except (OSError, ValueError):
        return {}
    metrics: dict = {}
    entries = data.get("benchmarks") if isinstance(data, dict) else None
    if isinstance(entries, list):
        for entry in entries:
            median = (entry.get("stats") or {}).get("median")
            if isinstance(median, (int, float)):
                metrics[f"{entry['name']}.median_s"] = median

    def walk(prefix: str, obj, depth: int) -> None:
        if isinstance(obj, dict) and depth < 2:
            for key, value in obj.items():
                walk(f"{prefix}.{key}" if prefix else str(key),
                     value, depth + 1)
        elif isinstance(obj, (int, float, bool)) and not isinstance(obj, bool) \
                or isinstance(obj, bool):
            lowered = prefix.lower()
            if any(hint in lowered for hint in _METRIC_HINTS):
                metrics[prefix] = obj

    walk("", data, 0)
    return metrics


def _git_sha() -> str | None:
    """The checked-out commit, or None outside a git checkout."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=os.path.dirname(HERE),
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    except OSError:
        return None
    sha = proc.stdout.strip()
    return sha if proc.returncode == 0 and sha else None


def append_history(summary: dict) -> str:
    """File one stamped summary copy under ``benchmarks/history/``.

    The filename sorts chronologically (UTC timestamp first, short SHA
    second), which is the contract ``compare_runs.py`` relies on to find
    the two most recent runs.
    """
    os.makedirs(HISTORY_DIR, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%SZ", time.gmtime())
    sha = summary.get("git_sha") or "nogit"
    path = os.path.join(HISTORY_DIR, f"{stamp}-{sha[:12]}.json")
    with open(path, "w") as handle:
        json.dump(summary, handle, indent=2, sort_keys=True)
        handle.write("\n")
    return path


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--out", default=os.path.join(HERE, "..", "bench-artifacts"),
                     help="artifact directory for JSON results and logs")
    options = cli.parse_args()
    out = os.path.abspath(options.out)
    os.makedirs(out, exist_ok=True)

    env = dict(os.environ)
    env["BENCH_QUICK"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in [os.path.join(os.path.dirname(HERE), "src"),
                    env.get("PYTHONPATH")] if p)

    benches: dict[str, dict] = {}
    failed = False
    for path in sorted(glob.glob(os.path.join(HERE, "bench_*.py"))):
        name = os.path.splitext(os.path.basename(path))[0]
        json_path = os.path.join(out, f"{name}.json")
        env_one = env
        if name in ("bench_parallel", "bench_warm", "bench_analysis",
                    "bench_fuzz"):
            cmd = [sys.executable, path, "--quick", "--json", json_path]
        elif name in ("bench_incremental", "bench_backends"):
            cmd = [sys.executable, path]
            env_one = dict(env, BENCH_JSON=json_path)
        else:
            cmd = [
                sys.executable, "-m", "pytest", path, "-q", "-p", "no:cacheprovider",
                "--benchmark-min-rounds=1", "--benchmark-warmup=off",
                "--benchmark-max-time=0.05", f"--benchmark-json={json_path}",
            ]
        code, output, wall, cpu = _run(cmd, env_one)
        benches[name] = {
            "status": "ok" if code == 0 else f"FAILED (exit {code})",
            "pass": code == 0,
            "wall_s": round(wall, 3),
            "cpu_s": round(cpu, 3) if resource is not None else None,
            "metrics": _harvest(json_path),
        }
        log_path = os.path.join(out, f"{name}.log")
        with open(log_path, "w") as handle:
            handle.write(output)
        print(f"=== {name}: {benches[name]['status']} "
              f"({wall:.1f}s wall)")
        failed |= code != 0

    summary = {
        "quick_mode": True,
        "git_sha": _git_sha(),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "benchmarks": benches,
    }
    summary_path = os.path.join(out, "summary.json")
    os.makedirs(RESULTS_DIR, exist_ok=True)
    committed_path = os.path.join(RESULTS_DIR, "summary.json")
    for target in (summary_path, committed_path):
        with open(target, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    history_path = append_history(summary)
    print(f"\nsummary written to {summary_path}")
    print(f"           and to {committed_path}")
    print(f"  history entry: {history_path}")
    for name, row in benches.items():
        print(f"  {name}: {row['status']}")
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
