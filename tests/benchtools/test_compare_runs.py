"""``benchmarks/compare_runs.py``: which moved metrics count as regressions."""

import importlib.util
import os

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))


def _compare_runs():
    spec = importlib.util.spec_from_file_location(
        "compare_runs", os.path.join(ROOT, "benchmarks", "compare_runs.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _summary(metrics: dict) -> dict:
    return {"benchmarks": {"bench": {"metrics": metrics}}}


def _flags(before: dict, after: dict) -> dict:
    [row] = _compare_runs().compare(_summary(before), _summary(after))
    return {key: delta["regressed"] for key, delta in row["deltas"].items()}


def test_millisecond_medians_flag_past_a_millisecond_floor():
    # 1.0 ms -> 2.5 ms: +150% and +1.5 ms, flagged although far below the
    # 0.25 s floor the other seconds-valued keys keep
    assert _flags({"test_bench_install.median_s": 0.0010},
                  {"test_bench_install.median_s": 0.0025}) == \
        {"test_bench_install.median_s": True}


def test_median_growth_under_a_millisecond_is_jitter():
    # +50% but only +0.4 ms: reported, not flagged
    assert _flags({"test_bench_install.median_s": 0.0008},
                  {"test_bench_install.median_s": 0.0012}) == \
        {"test_bench_install.median_s": False}


def test_other_seconds_keys_keep_the_quarter_second_floor():
    # +100% but only +0.1 s
    assert _flags({"warm_setup_s": 0.1}, {"warm_setup_s": 0.2}) == \
        {"warm_setup_s": False}
    assert _flags({"warm_setup_s": 0.3}, {"warm_setup_s": 0.6}) == \
        {"warm_setup_s": True}
