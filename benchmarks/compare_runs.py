"""Diff the two most recent benchmark runs and flag regressions.

``run_all.py`` files every summary under ``benchmarks/history/`` with a
chronologically-sorting name (UTC timestamp + short git SHA).  This tool
loads the latest two entries, diffs per-benchmark wall and CPU time plus
every harvested pass-criterion scalar, and flags anything that moved more
than 15% in its bad direction — slower for costs, smaller for speedups /
hit rates / setup-cost drops, true->false for pass and parity bits — the
smoke-level regression signal CI records on every PR.

Timing noise in quick mode is real (CI machines, one-round benchmarks), so
regressions below an absolute floor are ignored: a bench that went from
40 ms to 60 ms is jitter, not a finding.

Exit code: 0 when clean, or when ``--record-only`` (the BENCH_QUICK / CI
default) regardless of findings; 1 when a regression is flagged without
``--record-only``; 0 with a notice when there are fewer than two runs to
compare.

Usage: ``python benchmarks/compare_runs.py [--history DIR] [--record-only]
[--threshold PCT]``
"""

from __future__ import annotations

import argparse
import glob
import json
import os

HERE = os.path.dirname(os.path.abspath(__file__))
HISTORY_DIR = os.path.join(HERE, "history")

#: regressions smaller than this many seconds are quick-mode jitter
ABS_FLOOR_S = 0.25
#: the floor for ``*.median_s`` keys: pytest-benchmark medians (harvested
#: by run_all.py) sit around a millisecond, so the seconds-scale floor
#: would let them grow without bound and never flag
MEDIAN_FLOOR_S = 0.001

#: metric-name substrings where HIGHER is better — for these a *drop*
#: past the threshold is the regression (a speedup shrinking, a hit rate
#: or a setup-cost drop eroding), not growth
_HIGHER_BETTER = ("speedup", "hit_rate", "ratio", "drop")


def _direction(key: str) -> str:
    """``"higher"`` when a larger value is better, else ``"lower"``."""
    lowered = key.lower()
    return "higher" if any(h in lowered for h in _HIGHER_BETTER) else "lower"


def _abs_floor(key: str) -> float:
    """How far (in seconds) a seconds-valued cost must grow to flag."""
    if key.endswith(".median_s"):
        return MEDIAN_FLOOR_S
    return ABS_FLOOR_S if key.endswith("_s") else 0.0


def latest_runs(history_dir: str, count: int = 2) -> list[tuple[str, dict]]:
    """The newest ``count`` history entries, oldest first.

    Filename order is chronological by construction (run_all stamps
    ``YYYYmmddTHHMMSSZ-<sha>.json``), so a plain sort suffices.
    """
    paths = sorted(glob.glob(os.path.join(history_dir, "*.json")))[-count:]
    runs = []
    for path in paths:
        try:
            with open(path) as handle:
                runs.append((os.path.basename(path), json.load(handle)))
        except (OSError, ValueError) as exc:
            print(f"  (skipping unreadable history entry {path}: {exc})")
    return runs


def compare(before: dict, after: dict,
            threshold_pct: float = 15.0) -> list[dict]:
    """Per-bench wall/CPU deltas between two summaries; a row per change.

    A row is a regression when the metric grew by more than
    ``threshold_pct`` percent AND by more than :data:`ABS_FLOOR_S` seconds.
    Benches present in only one run are reported (added/removed) but never
    flagged — there is nothing to compare.
    """
    rows: list[dict] = []
    old_benches = before.get("benchmarks", {})
    new_benches = after.get("benchmarks", {})
    for name in sorted(set(old_benches) | set(new_benches)):
        if name not in old_benches:
            rows.append({"bench": name, "note": "added", "regressed": False})
            continue
        if name not in new_benches:
            rows.append({"bench": name, "note": "removed", "regressed": False})
            continue
        row = {"bench": name, "regressed": False, "deltas": {}}
        for metric in ("wall_s", "cpu_s"):
            old = old_benches[name].get(metric)
            new = new_benches[name].get(metric)
            if not isinstance(old, (int, float)) or \
                    not isinstance(new, (int, float)):
                continue
            delta = new - old
            pct = (delta / old * 100.0) if old else 0.0
            regressed = (pct > threshold_pct and delta > ABS_FLOOR_S)
            row["deltas"][metric] = {
                "before": old, "after": new,
                "pct": round(pct, 1), "regressed": regressed,
            }
            row["regressed"] |= regressed
        _compare_metrics(row, old_benches[name].get("metrics") or {},
                         new_benches[name].get("metrics") or {},
                         threshold_pct)
        rows.append(row)
    return rows


def _compare_metrics(row: dict, old_metrics: dict, new_metrics: dict,
                     threshold_pct: float) -> None:
    """Direction-aware diff of the harvested pass-criterion scalars.

    Booleans (``pass`` flags, parity bits) regress when they flip from
    true to false.  Numerics regress when they move more than
    ``threshold_pct`` percent in the *bad* direction for their name:
    growth for costs (``wall``, ``per_eval``, ``warm_setup``), shrinkage
    for ``speedup`` / ``hit_rate`` / ``ratio`` / ``drop``.  Seconds-valued
    keys additionally need to move by an absolute floor —
    :data:`MEDIAN_FLOOR_S` for pytest-benchmark medians, else
    :data:`ABS_FLOOR_S` — quick-mode jitter is not a finding.  Only moved metrics land in the row.
    """
    for key in sorted(set(old_metrics) & set(new_metrics)):
        old, new = old_metrics[key], new_metrics[key]
        if isinstance(old, bool) or isinstance(new, bool):
            if bool(old) == bool(new):
                continue
            regressed = bool(old) and not bool(new)
            row["deltas"][key] = {"before": old, "after": new,
                                  "pct": None, "regressed": regressed}
            row["regressed"] |= regressed
            continue
        if not isinstance(old, (int, float)) or \
                not isinstance(new, (int, float)) or not old:
            continue
        delta = new - old
        pct = delta / old * 100.0
        if _direction(key) == "higher":
            regressed = -pct > threshold_pct
        else:
            floor = _abs_floor(key)
            regressed = pct > threshold_pct and abs(delta) > floor
        if not regressed and abs(pct) <= threshold_pct:
            continue  # unmoved pass-criteria stay out of the report
        row["deltas"][key] = {"before": old, "after": new,
                              "pct": round(pct, 1), "regressed": regressed}
        row["regressed"] |= regressed


def render(rows: list[dict], before_name: str, after_name: str) -> str:
    lines = [f"benchmark diff: {before_name} -> {after_name}"]
    for row in rows:
        if "note" in row:
            lines.append(f"  {row['bench']}: {row['note']}")
            continue
        parts = []
        for metric, d in row["deltas"].items():
            flag = "  ** REGRESSION **" if d["regressed"] else ""
            if d["pct"] is None:  # boolean pass/parity flip
                parts.append(f"{metric} {d['before']} -> {d['after']}{flag}")
                continue
            unit = "s" if metric in ("wall_s", "cpu_s") else ""
            parts.append(
                f"{metric} {d['before']:.4g}{unit} -> {d['after']:.4g}{unit} "
                f"({d['pct']:+.1f}%){flag}")
        lines.append(f"  {row['bench']}: " + "; ".join(parts))
    flagged = [r["bench"] for r in rows if r.get("regressed")]
    lines.append(f"regressions flagged: {len(flagged)}"
                 + (f" ({', '.join(flagged)})" if flagged else ""))
    return "\n".join(lines)


def main() -> int:
    cli = argparse.ArgumentParser(description=__doc__)
    cli.add_argument("--history", default=HISTORY_DIR,
                     help="history directory written by run_all.py")
    cli.add_argument("--threshold", type=float, default=15.0,
                     help="percent slowdown that counts as a regression")
    cli.add_argument("--record-only", action="store_true",
                     help="report but never fail (the CI smoke default: "
                          "quick-mode timings are too noisy to gate on)")
    options = cli.parse_args()

    runs = latest_runs(options.history)
    if len(runs) < 2:
        print(f"compare_runs: {len(runs)} run(s) in {options.history} — "
              f"need two to diff; nothing to compare yet")
        return 0
    (before_name, before), (after_name, after) = runs
    rows = compare(before, after, threshold_pct=options.threshold)
    print(render(rows, before_name, after_name))
    regressed = any(r.get("regressed") for r in rows)
    if regressed and not options.record_only:
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
