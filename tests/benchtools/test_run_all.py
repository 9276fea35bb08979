"""``benchmarks/run_all.py``: what lands in ``summary.json``."""

import importlib.util
import json
import os

import repro

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(repro.__file__))))


def _run_all():
    spec = importlib.util.spec_from_file_location(
        "run_all", os.path.join(ROOT, "benchmarks", "run_all.py"))
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_harvest_reads_pytest_benchmark_medians(tmp_path):
    """pytest-benchmark keeps its results in a ``"benchmarks"`` list; each
    entry's median becomes ``<test name>.median_s``."""
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({
        "machine_info": {"node": "host"},
        "benchmarks": [
            {"name": "test_bench_install", "stats": {"median": 0.0012,
                                                     "mean": 0.0013}},
            {"name": "test_overhead[discourse]", "stats": {"median": 0.25}},
        ],
        "version": "5.2.3",
    }))
    assert _run_all()._harvest(str(path)) == {
        "test_bench_install.median_s": 0.0012,
        "test_overhead[discourse].median_s": 0.25,
    }


def test_harvest_still_skims_script_benchmarks(tmp_path):
    path = tmp_path / "bench.json"
    path.write_text(json.dumps({"speedup": 1.5, "detail": {"wall_s": 2.0},
                                "name": "x"}))
    assert _run_all()._harvest(str(path)) == {"speedup": 1.5,
                                              "detail.wall_s": 2.0}
