"""Per-layer metrics: span statistics from a traced phase, import costs from
``python -X importtime`` children, and CLI start-up and in-process times.

Counters (calls, evaluations, iterations, hull warnings, bytes written) are
taken over the first pass through the distinct inputs only, so they repeat
exactly from run to run; times use every traced operation.
"""

from __future__ import annotations

import statistics
import subprocess
import sys
import time

import numpy as np

from oracles import MAXFEV_EVALS

MODELS = ("thomas", "yoon-nelson", "clark", "wolborska")
LAYERS = ("import", "cli", "files", "units", "models", "estimation", "correlation")
COMMANDS = ("fit", "compare", "correlate", "predict", "sensitivity")
IMPORT_REPEATS = 3
START_REPEATS = 5
INPROC_REPEATS = 3

# one forecast so the lazily imported hull code is loaded too
IMPORT_PROBE = (
    "import sys; sys.stderr.write('bench-import-start\\n'); import breakcurve.cli; "
    "from breakcurve import correlation as c; "
    "c.predict_kt(c.CorrelationModel(0.25, -264.0, 10.45, 1247.0, '', "
    "((0.75, 14.73, 769.0), (0.5, 14.73, 1269.0), (0.75, 44.47, 1080.0))), 0.6, 20.0)"
)


def metric_names() -> list[str]:
    """Every per-layer metric, in report order."""
    names = ["import.total_ms", "import.scipy_special_ms", "import.scipy_optimize_ms", "import.scipy_spatial_ms",
             "cli.process_start_ms"]
    for cmd in COMMANDS:
        names += [f"cli.{cmd}.wall_p50_ms", f"cli.{cmd}.inproc_ms", f"cli.{cmd}.import_share"]
    names += ["files.load_conditions_us", "files.dump_json_us", "files.write_csv_us", "files.bytes_written",
              "units.ingest_curve_us", "units.ingest_curve.calls"]
    names += [f"models.{m}_forward.calls" for m in MODELS] + [f"models.{m}_forward_us" for m in MODELS]
    names += ["models.breakthrough_time_us"]
    for m in MODELS:
        names += [f"estimation.fit.{m}.ms_p50", f"estimation.fit.{m}.evals_p50", f"estimation.fit.{m}.iterations_total"]
    names += ["estimation.fit_fixed_qm.ms_p50", "estimation.fit_fixed_qm.evals_p50", "estimation.fit_fixed_qm.evals_max",
              "estimation.fit_fixed_qm.maxfev_share", "estimation.sensitivity_profile_us"]
    names += ["correlation.predict_kt_us", "correlation.predict_kt.outside_hull", "correlation.predict_curve_us",
              "correlation.fit_plane_us", "correlation.average_qm_us"]
    names += [f"{layer}.self_share" for layer in LAYERS] + ["trace.overhead_pct"]
    return names


def unit_of(name: str) -> str:
    last = name.rsplit(".", 1)[-1]
    for marker, unit in (("ms", "ms"), ("us", "us"), ("pct", "%"), ("share", "ratio"), ("bytes", "bytes")):
        if marker in last.split("_"):
            return unit
    return "count"


def span_columns(tr) -> dict[str, np.ndarray]:
    """The tracer's spans as numpy columns, with duration and self time.

    Self time is the duration minus the child spans and the forward-model
    calls counted into the span.
    """
    n = len(tr.start)
    col = {k: np.frombuffer(getattr(tr, k), dtype=np.int64)[:n]
           for k in ("start", "end", "parent", "op", "leaf_calls", "leaf_ns", "value", "name_id")}
    col["dur"] = col["end"] - col["start"]
    col["name"] = np.array(tr.names, dtype=object)[col["name_id"]] if n else np.array([], dtype=object)
    parent = col["parent"]
    child_ns = np.zeros(n, dtype=np.int64)
    np.add.at(child_ns, parent[parent >= 0], col["dur"][parent >= 0])
    col["self_ns"] = col["dur"] - child_ns - col["leaf_ns"]
    return col


def span_stats(tr) -> dict[str, float]:
    """Metrics computed from one tracer's spans."""
    col = span_columns(tr)
    n, dur, parent, name = len(col["dur"]), col["dur"], col["parent"], col["name"]
    leaf_calls, leaf_ns, value, self_ns = col["leaf_calls"], col["leaf_ns"], col["value"], col["self_ns"]
    parent_name = np.where(parent >= 0, name[np.maximum(parent, 0)] if n else name, "<root>")
    first = col["op"] < tr.first_pass
    out: dict[str, float] = {}

    def p50(mask, values=dur, scale=1e3) -> float:
        return float(np.median(values[mask]) / scale) if mask.any() else 0.0

    evals = leaf_calls.copy()  # forward evaluations made inside each span, children included
    for i in range(n - 1, -1, -1):  # children open after their parent
        if parent[i] >= 0:
            evals[parent[i]] += evals[i]

    is_ = lambda label: name == label  # noqa: E731
    outermost = lambda label: is_(label) & (parent_name != label)  # noqa: E731

    for label in ("files.load_conditions", "files.dump_json", "files.write_csv"):
        out[f"{label}_us"] = p50(is_(label))
    written = (is_("files.dump_json") | is_("files.write_csv")) & first
    out["files.bytes_written"] = float(value[written].sum())
    out["units.ingest_curve_us"] = p50(outermost("units.ingest_curve"))
    out["units.ingest_curve.calls"] = float((outermost("units.ingest_curve") & first).sum())
    for m in MODELS:
        calls, ns, first_calls = tr.leaf_totals.get(f"models.{m.replace('-', '_')}_forward", (0, 0, 0))
        out[f"models.{m}_forward.calls"] = float(first_calls)
        out[f"models.{m}_forward_us"] = ns / calls / 1e3 if calls else 0.0
    out["models.breakthrough_time_us"] = p50(is_("models.breakthrough_time"))
    for m in MODELS:
        free = is_(f"estimation.fit.{m}") & (parent_name != "estimation.fit_fixed_qm")
        out[f"estimation.fit.{m}.ms_p50"] = p50(free, scale=1e6)
        out[f"estimation.fit.{m}.evals_p50"] = p50(free & first, evals, 1.0)
        out[f"estimation.fit.{m}.iterations_total"] = float(value[free & first].sum())
    refit = is_("estimation.fit_fixed_qm")
    out["estimation.fit_fixed_qm.ms_p50"] = p50(refit, scale=1e6)
    out["estimation.fit_fixed_qm.evals_p50"] = p50(refit & first, evals, 1.0)
    refit_evals = evals[refit & first]
    out["estimation.fit_fixed_qm.evals_max"] = float(refit_evals.max()) if refit_evals.size else 0.0
    out["estimation.fit_fixed_qm.maxfev_share"] = float((refit_evals >= MAXFEV_EVALS).mean()) if refit_evals.size else 0.0
    out["estimation.sensitivity_profile_us"] = p50(is_("estimation.sensitivity_profile"))
    out["correlation.predict_kt_us"] = p50(is_("correlation.predict_kt"))
    direct = is_("correlation.predict_kt") & (parent_name != "correlation.predict_curve") & first
    out["correlation.predict_kt.outside_hull"] = float(value[direct].sum())
    for label in ("correlation.predict_curve", "correlation.fit_plane", "correlation.average_qm"):
        out[f"{label}_us"] = p50(is_(label))

    total = float(dur[parent < 0].sum())
    layer = np.array([s.split(".")[0] for s in name], dtype=object)
    for lay in LAYERS:
        own = float(self_ns[layer == lay].sum())
        if lay == "models":
            own += float(leaf_ns.sum())
        out[f"{lay}.self_share"] = own / total if total else 0.0
    return out


def parse_importtime(stderr: str) -> dict[str, float]:
    """Import costs in ms from ``-X importtime`` output after the start marker.

    ``total`` sums the top-level imports.  A scipy subpackage's cost sums
    every import of it or its submodules not nested in another such import:
    scipy.optimize pulls parts of scipy.spatial in before the package itself.
    """
    lines = stderr.split("bench-import-start\n", 1)[1].splitlines()
    entries = []  # (depth, module, cumulative us), in reverse order: parents first
    for line in reversed(lines):
        if line.startswith("import time:") and "imported package" not in line:
            _, cum, module = line.split("|")
            entries.append(((len(module) - len(module.lstrip()) - 1) // 2, module.strip(), float(cum)))
    out = {"total": sum(us for depth, _, us in entries if depth == 0) / 1e3}
    for pkg in ("scipy.special", "scipy.optimize", "scipy.spatial"):
        inside = lambda m: m == pkg or m.startswith(pkg + ".")  # noqa: E731
        stack: list[tuple[int, bool]] = []  # (depth, under pkg) of the open ancestors
        cost = 0.0
        for depth, module, us in entries:
            while stack and stack[-1][0] >= depth:
                stack.pop()
            covered = bool(stack) and stack[-1][1]
            if inside(module) and not covered:
                cost += us
            stack.append((depth, covered or inside(module)))
        out[pkg] = cost / 1e3
    return out


def import_costs(env: dict) -> dict[str, float]:
    """Median over fresh interpreters of the import cost of the package and of
    the scipy subpackages it pulls in, including the lazy hull import."""
    samples: dict[str, list[float]] = {}
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", IMPORT_PROBE], env=env,
                              capture_output=True, text=True, timeout=120, check=True)
        for key, ms in parse_importtime(proc.stderr).items():
            name = "import.total_ms" if key == "total" else f"import.{key.replace('.', '_')}_ms"
            samples.setdefault(name, []).append(ms)
    return {k: statistics.median(v) for k, v in samples.items()}


def process_start_ms(env: dict) -> float:
    """Bare interpreter start-up, the floor under every CLI command."""
    times = []
    for _ in range(START_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, check=True, timeout=60)
        times.append((time.perf_counter() - t0) * 1e3)
    return statistics.median(times)
