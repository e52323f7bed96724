#!/usr/bin/env python3
"""breakcurve benchmark: one command that runs a workload, checks every
output against property oracles and prints every metric with its unit.

    python3 bench/run.py --workload campaign --seed 1 --seconds 30 --trace 0

Run from a checkout; the package is imported from ``src/`` beside this
directory.  With ``--trace 0`` the last line of standard output is a JSON
object with the end-to-end metrics; with ``--trace 1`` a separate traced
phase gives the per-layer metrics, and the spans are written to
``.bench_out/``.  Workloads, metrics and the layers each workload is
predicted to move are described in ``bench/README.md``.
"""

from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 5
UNITS = {"throughput_ops_s": "1/s", "latency_p50_ms": "ms", "latency_tail_ms": "ms",
         "peak_rss_mb": "MB", "fit_rsse_mean": "rsse", "setup_s": "s"}


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=("campaign", "compare", "forecast", "cli"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", metavar="DIR", help=argparse.SUPPRESS)  # one timed set-up in a fresh process
    return p.parse_args(argv)


def prepare_process() -> None:
    """One thread for numeric libraries; the package from this checkout's src/."""
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.environ["PYTHONPATH"] = str(SRC) + (os.pathsep + os.environ["PYTHONPATH"] if os.environ.get("PYTHONPATH") else "")
    sys.path[:0] = [str(SRC), str(BENCH)]


def make_workload(args, workdir: Path):
    from workloads import WORKLOADS

    import breakcurve

    if Path(breakcurve.__file__).resolve().parent != SRC / "breakcurve":
        raise RuntimeError(f"imported breakcurve from {breakcurve.__file__}, not from {SRC}")
    pool, _ = plan(args.workload, args.seconds, args.trace)
    return WORKLOADS[args.workload](workdir, args.seed, pool)


def setup_probe(args) -> int:
    """Import, generate the inputs and run one warm-up operation; print the time taken."""
    from workloads import recorded_warnings

    wl = make_workload(args, Path(args.setup_probe))
    with recorded_warnings() as caught:
        wl.caught = caught
        wl.setup()
        wl.run(wl.warmup_item)
    print(json.dumps({"setup_s": time.perf_counter() - T_START}))
    return 0


def timed_setups(args, workdir: Path) -> list[float]:
    times = []
    for i in range(SETUP_REPEATS):
        probe_dir = workdir / f"setup{i}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace), "--setup-probe", str(probe_dir)]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=170)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-2000:]}")
        times.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
        shutil.rmtree(probe_dir, ignore_errors=True)
    return times


def plan(name: str, seconds: float, trace: int) -> tuple[int, int]:
    """(pool size, passes) for a phase: ``seconds / op_seconds`` operations in all.

    The count depends only on ``--seconds``, so every run executes the same
    number of operations and the tail percentile is the same in every run.
    The pool is rounded to whole strata (``pool_step`` inputs), so its mix
    of input kinds is the same for every seed.
    A traced run splits them between its untraced and traced phases.
    """
    from workloads import WORKLOADS

    cls = WORKLOADS[name]
    ops = max(1, round(seconds / cls.op_seconds) // (2 if trace else 1))
    pool = min(cls.max_pool, max(cls.pool_step, cls.pool_step * round(ops / cls.pool_step)))
    return pool, max(1, ops // pool)


class Phase:
    """Closed loop with one caller: ``passes`` passes over the input pool, in pool order.

    Every operation's fingerprint is compared with that of the same input in
    ``base`` (by default this phase's own first pass): reruns must be
    bit-identical.
    """

    def __init__(self, wl, passes: int, tracer=None, base: "Phase | None" = None) -> None:
        self.latencies: list[float] = []
        self.first: list = []  # outputs (or exceptions) of the first pass, checked afterwards
        self.first_prints: list = []
        self.errors: dict[int, str] = {}
        self.pass_throughput: list[float] = []
        self.child_rss_mb = 0.0
        items, n = wl.items, len(wl.items)
        own_root = tracer is not None and wl.name != "cli"  # a traced CLI child opens its own root span
        clock = time.perf_counter
        i = 0
        for _ in range(passes):
            pass_start, failed_before = clock(), len(self.errors)
            for j, item in enumerate(items):
                root = tracer.begin_op(i, f"op.{wl.name}") if own_root else None
                t0 = clock()
                try:
                    out = wl.run(item, tracer, i)
                except Exception as exc:  # counted as a failed operation and reported
                    out = exc
                self.latencies.append(clock() - t0)
                if root is not None:
                    tracer.close(root)
                if isinstance(out, Exception):
                    self.errors[i] = f"raised {type(out).__name__}: {out}"
                else:
                    fp = wl.fingerprint(out)
                    if i < n:
                        self.first_prints.append(fp)
                    if fp != (base or self).first_prints[j]:
                        self.errors[i] = f"output of input {j} differs from its first run"
                    if isinstance(out, dict):
                        self.child_rss_mb = max(self.child_rss_mb, out.get("rss_mb", 0.0))
                if i < n:
                    self.first.append(out)
                    if isinstance(out, Exception):
                        self.first_prints.append(None)
                i += 1
            completed = n - (len(self.errors) - failed_before)
            self.pass_throughput.append(completed / (clock() - pass_start))
        self.attempted = i
        self.throughput = statistics.median(self.pass_throughput)


def verify(wl, phases: list[Phase]) -> tuple[list[float], dict[int, str]]:
    """Oracle checks on the first pass of the first phase.

    Returns the rsse values of that pass and, per failed operation index
    (across phases, in order), the reason.  An input whose output fails an
    oracle fails every time it runs.
    """
    import oracles

    rsse, bad_inputs = [], {}
    for j, (item, out) in enumerate(zip(wl.items, phases[0].first)):
        if isinstance(out, Exception):
            continue
        try:
            rsse += wl.check(item, out)
        except oracles.OracleMismatch as exc:
            bad_inputs[j] = f"oracle mismatch: {exc}"
    n = len(wl.items)
    failures, offset = {}, 0
    for phase in phases:
        for i in range(phase.attempted):
            reason = phase.errors.get(i) or bad_inputs.get(i % n)
            if reason:
                failures[offset + i] = reason
        offset += phase.attempted
    return rsse, failures


def environment(args, wl, attempted: int) -> dict:
    import numpy
    import scipy

    return {"python": platform.python_version(), "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine(), "workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "ops_per_pass": len(wl.items), "attempted": attempted}


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of every order statistic.

    Campaign and compare latencies are multimodal (a refit that burns its
    evaluation budget adds a fixed step), and a sample quantile near the
    edge between two modes jumps from one to the other between seeds; this
    estimate moves smoothly with the share of each mode.
    """
    import numpy as np
    from scipy.special import betainc  # the Beta CDF; scipy.special is loaded by the package already

    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    weights = np.diff(betainc(p * (n + 1), (1.0 - p) * (n + 1), np.arange(n + 1) / n))
    return float(weights @ x)


def tail_fraction(n: int) -> float:
    """The highest percentile (as a fraction) with at least 10 of n samples beyond it."""
    return max(n - 11, 0) / max(n - 1, 1)


def end_to_end(args, wl, phase: Phase, rsse: list[float], setups: list[float]) -> tuple[dict, list[str]]:
    import resource

    n = len(wl.items)
    passes = [phase.latencies[k:k + n] for k in range(0, phase.attempted, n)]
    # per pass, then the median over passes: a burst of load on the machine moves one pass, not the result
    frac = tail_fraction(n)
    p50 = statistics.median(quantile(p, 0.5) for p in passes)
    tail_s = statistics.median(quantile(p, frac) for p in passes)
    pct = 100.0 * frac
    if wl.name == "cli":
        rss = phase.child_rss_mb
    else:
        rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {
        "throughput_ops_s": phase.throughput,
        "latency_p50_ms": p50 * 1e3,
        "latency_tail_ms": tail_s * 1e3,
        "peak_rss_mb": rss,
        "fit_rsse_mean": statistics.fmean(rsse) if rsse else 0.0,
        "setup_s": statistics.median(setups),
    }
    notes = [
        f"latency_tail_ms is p{pct:.3f} of the {n} samples of a pass (10 beyond it), median over {len(passes)} passes",
        f"throughput_ops_s is the median over {len(phase.pass_throughput)} passes of {len(wl.items)} operations",
        f"setup_s is the median of {len(setups)} fresh-process set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        f"fit_rsse_mean over {len(rsse)} rsse values of the first pass",
    ]
    return {k: {"value": v, "unit": UNITS[k]} for k, v in values.items()}, notes


def per_layer(wl, plain: Phase, traced: Phase, tracer, env: dict) -> dict:
    import layers
    from spans import Tracer

    import breakcurve.cli

    values = layers.span_stats(tracer)
    values.update(layers.import_costs(env))
    values["cli.process_start_ms"] = layers.process_start_ms(env)
    n = len(wl.items)
    for cmd in layers.COMMANDS:
        wall = inproc = 0.0
        if wl.name == "cli":
            wall = statistics.median(t for i, t in enumerate(plain.latencies) if wl.items[i % n].command == cmd) * 1e3
            argv = next(op.argv for op in wl.items if op.command == cmd)
            times = []
            inproc_tracer = Tracer()
            inproc_tracer.install()
            try:
                for _ in range(layers.INPROC_REPEATS):
                    with warnings.catch_warnings(record=True):
                        t0 = time.perf_counter()
                        code = breakcurve.cli.main(list(argv))
                        times.append((time.perf_counter() - t0) * 1e3)
                    if code != 0:
                        raise RuntimeError(f"in-process {cmd} exited {code}")
            finally:
                inproc_tracer.uninstall()
            inproc = statistics.median(times)
        values[f"cli.{cmd}.wall_p50_ms"] = wall
        values[f"cli.{cmd}.inproc_ms"] = inproc
        values[f"cli.{cmd}.import_share"] = values["import.total_ms"] / wall if wall else 0.0
    values["trace.overhead_pct"] = 100.0 * (plain.throughput - traced.throughput) / plain.throughput
    return {k: {"value": float(values[k]), "unit": layers.unit_of(k)} for k in layers.metric_names()}


def write_trace(args, tracer, env: dict) -> Path:
    """Spans of the first pass with self time, written once the run is over."""
    import layers

    cols = layers.span_columns(tracer)
    keep = [i for i in range(len(tracer.start)) if tracer.op[i] < tracer.first_pass]
    doc = {
        "environment": env,
        "columns": ["name", "start_ns", "end_ns", "parent", "op", "self_ns", "forward_calls", "forward_ns", "value"],
        "spans": [[str(cols["name"][i]), tracer.start[i], tracer.end[i], tracer.parent[i], tracer.op[i],
                   int(cols["self_ns"][i]), tracer.leaf_calls[i], tracer.leaf_ns[i], tracer.value[i]] for i in keep],
        "forward_totals": {k: {"calls": v[0], "ns": v[1], "first_pass_calls": v[2]} for k, v in tracer.leaf_totals.items()},
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"trace-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(doc))
    return path


def run(args, workdir: Path) -> dict:
    from spans import Tracer
    from workloads import recorded_warnings

    setups = timed_setups(args, workdir)
    wl = make_workload(args, workdir / "main")
    with recorded_warnings() as caught:
        wl.caught = caught
        wl.setup()
        wl.run(wl.warmup_item)
        del caught[:]
        _, passes = plan(args.workload, args.seconds, args.trace)
        if args.trace:
            plain = Phase(wl, passes)
            tracer = Tracer()
            tracer.first_pass = len(wl.items)
            tracer.install()
            try:
                traced = Phase(wl, passes, tracer, base=plain)
            finally:
                tracer.uninstall()
            phases = [plain, traced]
        else:
            phases = [Phase(wl, passes)]
    rsse, failures = verify(wl, phases)
    attempted = sum(p.attempted for p in phases)
    env = environment(args, wl, attempted)
    print("# environment " + json.dumps(env))
    if args.trace:
        metrics = per_layer(wl, plain, traced, tracer, dict(os.environ))
        print(f"# spans written to {write_trace(args, tracer, env).relative_to(ROOT)}")
        notes = []
    else:
        metrics, notes = end_to_end(args, wl, phases[0], rsse, setups)
    for note in notes:
        print("# " + note)
    for name, m in metrics.items():
        print(f"{name} = {m['value']:.6g} {m['unit']}")
    print(f"error_rate = {len(failures) / attempted:.6g} ratio ({len(failures)} failed of {attempted} attempted)")
    for i, reason in sorted(failures.items())[:20]:
        print(f"bench: FAILED operation {i}: {reason}", file=sys.stderr)
    return {"correct": not failures, "attempted": attempted, "failed": len(failures), "metrics": metrics}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "breakcurve" / "__init__.py").is_file():
        print(f"bench: package source {SRC / 'breakcurve'} not found; run from a full checkout", file=sys.stderr)
        return 2
    prepare_process()
    if args.setup_probe:
        return setup_probe(args)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        result = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))  # a failed oracle shows as "correct": false, with each failure on stderr
    return 0


if __name__ == "__main__":
    sys.exit(main())
