"""Steadiness self-test of the benchmark (not part of the package's suite).

    python3 -m pytest bench -q

Tiny pools of every workload must run without a failed operation on several
seeds, the deterministic counters must repeat exactly between two runs, and
the benchmark must refuse to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import layers  # noqa: E402
import run  # noqa: E402
from spans import Tracer  # noqa: E402
from workloads import WORKLOADS, recorded_warnings  # noqa: E402

TINY_POOL = {"campaign": 3, "compare": 6, "forecast": 60, "cli": 5}
SEEDS = (1, 2, 3)
COUNTERS = ("evals_p50", "evals_max", "iterations_total", "maxfev_share", "outside_hull", "bytes_written",
            ".calls")


@pytest.fixture
def workdir():
    path = ROOT / ".bench_work" / "selftest"
    yield path
    shutil.rmtree(path, ignore_errors=True)


def tiny_run(name: str, seed: int, workdir: Path, tracer=None):
    wl = WORKLOADS[name](workdir / f"{name}-{seed}-{tracer is not None}", seed, TINY_POOL[name])
    with recorded_warnings() as caught:
        wl.caught = caught
        wl.setup()
        if tracer is not None:
            tracer.first_pass = len(wl.items)
            tracer.install()
        try:
            phase = run.Phase(wl, 1, tracer)
        finally:
            if tracer is not None:
                tracer.uninstall()
    rsse, failures = run.verify(wl, [phase])
    return phase, rsse, failures


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_tiny_runs_have_no_failed_operation(name, workdir):
    for seed in SEEDS:
        phase, rsse, failures = tiny_run(name, seed, workdir)
        assert phase.attempted == TINY_POOL[name]
        assert failures == {}, f"seed {seed}: {failures}"
        assert all(v >= 0.0 for v in rsse)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_counters_repeat_exactly(name, workdir):
    results = []
    for _ in range(2):
        tracer = Tracer()
        _, rsse, failures = tiny_run(name, 7, workdir, tracer)
        assert failures == {}
        stats = layers.span_stats(tracer)
        counters = {k: v for k, v in stats.items() if any(k.endswith(c) for c in COUNTERS)}
        results.append((counters, sum(rsse) / len(rsse) if rsse else 0.0))
    assert results[0] == results[1]
    assert any(results[0][0].values()), "no counter was recorded"


def test_refuses_to_run_without_the_package_source(workdir):
    bare = workdir / "bare"
    shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "forecast", "--seed", "1", "--seconds", "1",
                           "--trace", "0"], cwd=bare, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_benchmark_json_matches_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == layers.metric_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {k: layers.unit_of(k) for k in layers.metric_names()}
    # compare stays runnable by hand but is not a gated workload (see README.md)
    assert [w["name"] for w in spec["workloads"]] == [w for w in WORKLOADS if w != "compare"]
