"""The four benchmark workloads: input generation, one operation, and the
property checks applied to its outputs.

Every workload is a closed loop with one caller.  Inputs come only from the
seed; properties that drive cost (curve length, noise level, parameter
position in its range) are stratified across the pool, so the mean cost of a
pool varies little from seed to seed.  The package is driven only through the
public functions of ``units``, ``files``, ``models``, ``estimation``,
``correlation`` and the ``breakcurve`` console entry point.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import subprocess
import sys
import threading
import warnings
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from scipy.special import ndtri

from breakcurve import correlation, estimation, files, models, units

import oracles
from oracles import close, require

# the four (CT min, C0 ppb) corners of the A600E design (experiments 1, 3, 4, 5)
CORNERS = ((0.75, 14.73), (0.5, 14.73), (0.75, 44.47), (0.5, 44.47))
CT_RANGE = (0.5, 0.75)
C0_RANGE = (14.73, 44.47)
Q_L_PER_HR = 0.85
COLUMN_DIAMETER_CM = 1.5
LIMIT_PPB = 10.0
WARMUP_SEED = 20210221  # the warm-up input does not depend on --seed, so set-up cost does not either
CLI_ENTRY = "import sys; from breakcurve.cli import main; sys.exit(main())"
CHILD_TIMEOUT_S = 120.0
MIN_SOURCE_SPREAD = 0.05  # source mean to hull edge, in the unit square of the (CT, C0) ranges


@contextlib.contextmanager
def recorded_warnings():
    """Record warnings instead of printing them, under the default filters.

    A RuntimeWarning is then recorded once per place in the code, as an
    interactive run would print it once; the hull warning is recorded every
    time, because every prediction is checked against it.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.filterwarnings("always", message=".*outside the source-experiment hull")
        yield caught


def stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n draws in [0, 1), one in each of n equal bins, in random order."""
    return (rng.permutation(n) + rng.random(n)) / n


def lab_conditions(ct_min: float, c0_ppb: float, resin_id: str = "A600E") -> dict:
    """Conditions JSON for the 1.5 cm lab column: z_cm = V/(pi d^2/4), u0 = z/CT.

    For experiment 1 (CT 0.75 min, V 10.6 mL) this gives z = 6.0 cm and u0 =
    8 cm/min, the reported values, so Z/U0 equals the contact time.
    """
    v_ml = Q_L_PER_HR * ct_min / 60.0 * 1000.0
    z_cm = v_ml / (math.pi * COLUMN_DIAMETER_CM**2 / 4.0)
    return {
        "resin_id": resin_id,
        "c0_ppb": c0_ppb,
        "q_l_per_hr": Q_L_PER_HR,
        "v_ml": v_ml,
        "ct_min": ct_min,
        "u0_cm_per_min": z_cm / ct_min,
        "z_cm": z_cm,
    }


def canonical(doc: dict) -> tuple[float, float]:
    """(CT hr, C0 g/L) by the documented conversions (min/60, ppb*1e-6)."""
    return doc["ct_min"] / 60.0, doc["c0_ppb"] * 1e-6


def write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=1) + "\n")


def write_curve(path: Path, t: np.ndarray, y: np.ndarray) -> None:
    path.write_text("t_hr,ratio\n" + "".join(f"{a!r},{b!r}\n" for a, b in zip(t.tolist(), y.tolist())))


def noisy(rng: np.random.Generator, clean: np.ndarray, sigma: float) -> np.ndarray:
    """Multiplicative Gaussian noise, one draw from each of len(clean) equal-probability bins.

    The stratified draws keep the sum of squared errors, and with it the
    rsse of a good fit, close to its expectation on every curve.
    """
    z = ndtri(stratified(rng, len(clean)))
    return np.clip(clean * (1.0 + sigma * z), 0.0, 1.0)


@dataclass
class Experiment:
    """One generated column experiment and the curve written for it."""

    cond: dict
    model: str
    params: dict
    t: np.ndarray
    y: np.ndarray
    csv: Path
    json: Path

    def forward(self, t=None) -> np.ndarray:
        t = self.t if t is None else t
        ct_hr, c0 = canonical(self.cond)
        p = self.params
        if self.model == "thomas":
            return oracles.thomas(p["kt"], p["qm"], ct_hr, c0, t)
        if self.model == "clark":
            return oracles.clark(p["a"], p["r"], p["n"], t)
        return oracles.wolborska(p["beta_a"], p["n0"], c0, self.cond["z_cm"], self.cond["u0_cm_per_min"], t)

    def fit_bound(self) -> float:
        """The rsse a free fit of the generating model must reach.

        That of the generating parameters when they are admissible; otherwise,
        for Thomas, the best admissible rate constant at the generating
        capacity, and no bound for the other models.
        """
        calc = self.forward()
        if oracles.admissible(calc, self.y):
            return oracles.free_fit_bound(oracles.rsse(calc, self.y))
        if self.model == "thomas":
            ct_hr, c0 = canonical(self.cond)
            return oracles.free_fit_bound(oracles.fixed_qm_oracle(self.params["qm"], ct_hr, c0, self.t, self.y))
        return math.inf


def thomas_experiment(rng, directory: Path, stem: str, ct_min, c0_ppb, u_kt, u_qm, n_points, sigma) -> Experiment:
    """Thomas curve, kt log-uniform in 300-3000, qm uniform in 0.15-0.45, over [0, 2*t50]."""
    cond = lab_conditions(ct_min, c0_ppb)
    ct_hr, c0 = canonical(cond)
    kt = 300.0 * 10.0**u_kt
    qm = 0.15 + 0.30 * u_qm
    t = np.linspace(0.0, 2.0 * qm * ct_hr / c0, n_points)
    y = noisy(rng, oracles.thomas(kt, qm, ct_hr, c0, t), sigma)
    exp = Experiment(cond, "thomas", {"kt": kt, "qm": qm}, t, y, directory / f"{stem}.csv", directory / f"{stem}.conditions.json")
    write_curve(exp.csv, t, y)
    write_json(exp.json, cond)
    return exp


def check_ingested(curve, exp: Experiment) -> None:
    require(np.array_equal(np.asarray(curve.times), exp.t), f"{exp.csv.name}: ingested times differ from the file")
    require(np.array_equal(np.asarray(curve.ratios), exp.y), f"{exp.csv.name}: ingested ratios differ from the file")


def check_free_fit(res, exp: Experiment, what: str) -> None:
    bound = exp.fit_bound()
    require(math.isfinite(res.rsse) and 0.0 <= res.rsse <= bound, f"{what}: rsse {res.rsse!r} above the generating parameters' {bound!r}")


def check_fit_sane(res, what: str) -> None:
    values = list(res.params.values())
    require(all(math.isfinite(v) and v > 0 for v in values), f"{what}: non-positive or non-finite parameters {res.params}")
    require(math.isfinite(res.rsse) and res.rsse >= 0.0, f"{what}: rsse {res.rsse!r}")


class Workload:
    """Base: a pool of distinct inputs and the operation run on each.

    A run executes ``seconds / op_seconds`` operations (the nominal cost of
    one operation at this package version, AMD EPYC, Python 3.11, one
    thread), so the operation count depends only on ``--seconds``.  The pool
    holds that many distinct inputs, up to ``max_pool``; beyond it the run
    makes repeated passes.  Campaign and compare operations vary in cost by
    a factor of five from input to input, so steadiness between seeds comes
    from many distinct inputs, not from repeats.
    """

    name = ""
    op_seconds = 1.0
    max_pool = 10**9
    pool_step = 1  # inputs in one stratum of the pool

    def __init__(self, workdir: Path, seed: int, pool_size: int) -> None:
        self.workdir = workdir
        self.seed = seed
        self.pool_size = pool_size
        self.caught: list = []  # warnings recorded during the timed phase
        self.items: list = []
        self.warmup_item = None

    def setup(self) -> None:
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.items = self.generate(np.random.default_rng(self.seed % 2**64), self.pool_size, "p")
        self.warmup_item = self.generate(np.random.default_rng(WARMUP_SEED), 1, "w")[0]

    def generate(self, rng, n: int, tag: str) -> list:
        raise NotImplementedError

    def run(self, item, tracer=None, op_id: int = 0):
        raise NotImplementedError

    def check(self, item, out) -> list[float]:
        """Raise OracleMismatch on a violated property; return the rsse values of the operation's fits."""
        raise NotImplementedError

    def fingerprint(self, out):
        """Cheap summary compared across passes: reruns must be bit-identical."""
        raise NotImplementedError


# ---------------------------------------------------------------------------
# campaign
# ---------------------------------------------------------------------------


@dataclass
class Campaign:
    experiments: list[Experiment]
    centroid: tuple[float, float]


class CampaignWorkload(Workload):
    """One A600E-style design campaign per operation: fit, average the
    capacity, refit with it fixed, regress kt on (CT, C0), forecast at the
    design centroid."""

    name = "campaign"
    op_seconds = 0.3
    pool_step = 3  # campaigns of 4, 5 and 6 experiments

    def generate(self, rng, n, tag):
        offset = int(rng.integers(3))
        sizes = [4 + (i + offset) % 3 for i in range(n)] if n > 1 else [4]
        total = sum(sizes)
        u_kt, u_qm, u_pts, u_sig = (stratified(rng, total) for _ in range(4))
        campaigns, k = [], 0
        for i, size in enumerate(sizes):
            points = list(CORNERS) + [
                (float(rng.uniform(*CT_RANGE)), float(rng.uniform(*C0_RANGE))) for _ in range(size - 4)
            ]
            exps = []
            for j, (ct, c0) in enumerate(points):
                n_points = 20 + int(u_pts[k] * 41)
                exps.append(
                    thomas_experiment(rng, self.workdir, f"{tag}{i}e{j}", ct, c0, u_kt[k], u_qm[k], n_points, 0.03 * u_sig[k])
                )
                k += 1
            centroid = (float(np.mean([p[0] for p in points])), float(np.mean([p[1] for p in points])))
            campaigns.append(Campaign(exps, centroid))
        return campaigns

    def run(self, item, tracer=None, op_id=0):
        curves = [units.ingest_curve(str(e.csv), files.load_conditions(e.json)) for e in item.experiments]
        fits = [estimation.fit(c, "thomas") for c in curves]
        qm = correlation.average_qm(fits)
        refits = [estimation.fit_fixed_qm(c, qm) for c in curves]
        triples = tuple((c.conditions.ct_min, c.conditions.c0_ppb, r.params["kt"]) for c, r in zip(curves, refits))
        a, b, c = correlation.fit_plane(triples)
        model = correlation.CorrelationModel(qm, a, b, c, "A600E", triples)
        ct, c0 = item.centroid
        n_warn = len(self.caught)
        kt = correlation.predict_kt(model, ct, c0)
        warned = len(self.caught) > n_warn
        cond = units.to_canonical(lab_conditions(ct, c0))
        params = models.ThomasParams(kt, qm)
        times = [models.breakthrough_time(params, cond, r) for r in (0.5, 0.1)]
        del self.caught[n_warn:]
        return {"curves": curves, "fits": fits, "qm": qm, "refits": refits, "triples": triples,
                "coef": (a, b, c), "kt": kt, "warned": warned, "cond": cond, "times": times}

    def check(self, item, out):
        exps = item.experiments
        for curve, e in zip(out["curves"], exps):
            check_ingested(curve, e)
        for fit, e in zip(out["fits"], exps):
            check_fit_sane(fit, f"{e.csv.name} fit")
            check_free_fit(fit, e, f"{e.csv.name} fit")
        close(out["qm"], float(np.mean([f.params["qm"] for f in out["fits"]])), 1e-12, "average_qm")
        for refit, e in zip(out["refits"], exps):
            ct_hr, c0 = canonical(e.cond)
            best = oracles.fixed_qm_oracle(out["qm"], ct_hr, c0, e.t, e.y)
            require(refit.rsse <= best * (1.0 + 1e-6) + 1e-12,
                    f"{e.csv.name} fit_fixed_qm: rsse {refit.rsse!r} above the grid oracle's {best!r}")
        a, b, c = out["coef"]
        oracles.check_plane(out["triples"], out["coef"], 1e-9)
        ct, c0 = item.centroid
        close(out["kt"], a * ct + b * c0 + c, 1e-12, "predict_kt vs a*CT + b*C0 + c")
        close(out["kt"], float(np.mean([t[2] for t in out["triples"]])), 1e-9, "centroid prediction vs mean source kt")
        outside = oracles.hull_margin([t[:2] for t in out["triples"]], (ct, c0)) < 0
        require(out["warned"] == outside, f"hull warning {out['warned']} but half-plane test says outside={outside}")
        cond = out["cond"]
        for target, bt in zip((0.5, 0.1), out["times"]):
            oracles.check_breakthrough(bt.time_hr, target, out["kt"], out["qm"], cond.ct, cond.c0, 1e-9)
        return [f.rsse for f in out["fits"]]

    def fingerprint(self, out):
        return (tuple(f.rsse for f in out["fits"]), tuple(r.params["kt"] for r in out["refits"]), out["kt"])


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

GENERATING_MODELS = ("thomas", "clark", "wolborska")
LENGTHS = (15, 30, 60, 120, 240)


class CompareWorkload(Workload):
    """All four models fitted to one curve per operation."""

    name = "compare"
    op_seconds = 0.27
    pool_step = len(GENERATING_MODELS) * len(LENGTHS)

    def generate(self, rng, n, tag):
        combos = [(m, L) for m in GENERATING_MODELS for L in LENGTHS]
        order = np.concatenate([rng.permutation(len(combos)) for _ in range(-(-n // len(combos)))])[:n]
        # parameters and noise stratified within each (model, length) pair: cost and rsse depend
        # mostly on the pair, so each pair's inputs cover the same ranges for every seed
        u1, u2, u3, u_sig = (np.empty(n) for _ in range(4))
        for k in range(len(combos)):
            same = np.flatnonzero(order == k)
            for u in (u1, u2, u3, u_sig):
                u[same] = stratified(rng, len(same))
        items = []
        for i in range(n):
            model, length = combos[order[i]]
            ct, c0 = float(rng.uniform(*CT_RANGE)), float(rng.uniform(*C0_RANGE))
            sigma = 0.02 * u_sig[i]
            stem = f"{tag}{i}"
            if model == "thomas":
                exp = thomas_experiment(rng, self.workdir, stem, ct, c0, u1[i], u2[i], length, sigma)
            else:
                cond = lab_conditions(ct, c0)
                ct_hr, c0_gl = canonical(cond)
                t_half = (0.15 + 0.30 * u3[i]) * ct_hr / c0_gl
                t = np.linspace(0.0, 2.0 * t_half, length)
                if model == "clark":
                    n_exp = 1.5 + 1.5 * u1[i]
                    r = (3.0 + 7.0 * u2[i]) / t_half
                    params = {"a": (2.0 ** (n_exp - 1.0) - 1.0) * math.exp(r * t_half), "r": r, "n": n_exp}
                else:
                    # low-ratio regime: from e^-(4..7) at t = 0 up to 0.05-0.2 at the end
                    lag0 = 4.0 + 3.0 * u1[i]
                    end_ratio = 0.05 + 0.15 * u2[i]
                    slope = (lag0 + math.log(end_ratio)) / t[-1]
                    beta_a = lag0 / ((cond["z_cm"] / cond["u0_cm_per_min"]) / 60.0)
                    params = {"beta_a": beta_a, "n0": beta_a * c0_gl / slope}
                exp = Experiment(cond, model, params, t, np.empty(0), self.workdir / f"{stem}.csv",
                                 self.workdir / f"{stem}.conditions.json")
                exp.y = noisy(rng, exp.forward(), sigma)
                write_curve(exp.csv, exp.t, exp.y)
                write_json(exp.json, cond)
            curve = units.ingest_curve(str(exp.csv), files.load_conditions(exp.json))
            items.append((exp, curve))
        return items

    def run(self, item, tracer=None, op_id=0):
        _, curve = item
        return [estimation.fit(curve, model) for model in estimation.MODEL_ORDER]

    def check(self, item, out):
        exp, curve = item
        check_ingested(curve, exp)
        require([f.model for f in out] == list(estimation.MODEL_ORDER), "compare: a model is missing")
        for fit in out:
            check_fit_sane(fit, f"{exp.csv.name} {fit.model}")
        generating = out[estimation.MODEL_ORDER.index(exp.model)]
        check_free_fit(generating, exp, f"{exp.csv.name} {exp.model} (generating model)")
        return [generating.rsse]

    def fingerprint(self, out):
        return tuple((f.rsse, tuple(f.params.values())) for f in out)


# ---------------------------------------------------------------------------
# forecast
# ---------------------------------------------------------------------------


@dataclass
class Query:
    model: object  # correlation.CorrelationModel
    cond: object  # units.ExperimentConditions
    outside: bool
    grid: np.ndarray
    measured: np.ndarray


def plane_model(rng, n_sources: int):
    """A correlation over 3-8 generated sources; coefficients by numpy least squares.

    Near-collinear sources are drawn again: their plane is ill-conditioned
    (rate constants far outside the paper's range) and their hull has no
    interior to draw inside queries from.
    """
    while True:
        u = rng.random((n_sources, 2))
        ct, c0 = 0.4 + 0.8 * u[:, 0], 12.0 + 48.0 * u[:, 1]
        if len(oracles.convex_hull(u)) >= 3 and oracles.hull_margin(u, u.mean(axis=0)) >= MIN_SOURCE_SPREAD:
            break
    kt = 300.0 * 10.0 ** rng.random(n_sources)
    design = np.column_stack([ct, c0, np.ones(n_sources)])
    (a, b, c), *_ = np.linalg.lstsq(design, kt, rcond=None)
    sources = tuple((float(x), float(y), float(k)) for x, y, k in zip(ct, c0, kt))
    return correlation.CorrelationModel(float(0.15 + 0.3 * rng.random()), float(a), float(b), float(c), "GEN", sources)


def bundled_models(root: Path) -> list:
    data = root / "src" / "breakcurve" / "data"
    return [correlation.model_from_dict(files.load_json(data / f"{r}.correlation.json")) for r in ("a600e", "a520e")]


def draw_query(rng, m, outside: bool) -> tuple[float, float]:
    """Rejection-sample (CT min, C0 ppb) on the requested side of the source hull.

    Queries keep kt above 50 and C0 above the 10 ppb limit, and stay clear of
    the hull boundary, where inside/outside is a matter of rounding.
    """
    pts = np.array([s[:2] for s in m.sources])
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    pad = np.maximum(0.25 * (hi - lo), (0.1, 5.0))
    degenerate = len(oracles.convex_hull(pts)) < 3
    while True:
        ct, c0 = rng.uniform(lo - pad, hi + pad) if outside else rng.uniform(lo, hi)
        if degenerate and not outside:
            c0 = rng.choice(pts[:, 1])  # a flat hull is a segment: inside means on it
        ct, c0 = float(ct), float(c0)
        if ct <= 0.1 or c0 <= 12.0 or m.a * ct + m.b * c0 + m.c < 50.0:
            continue
        margin = oracles.hull_margin(pts, (ct, c0))
        if outside and margin < -1e-3:
            return ct, c0
        if not outside and (margin > 1e-3 or (degenerate and margin >= 0.0 and min(ct - lo[0], hi[0] - ct) > 1e-3)):
            return ct, c0


class ForecastWorkload(Workload):
    """Correlation forecast at one query per operation: no optimizer involved."""

    name = "forecast"
    op_seconds = 110e-6
    max_pool = 2401
    grid_points = 200

    def generate(self, rng, n, tag):
        root = Path(__file__).resolve().parent.parent
        pool_models = bundled_models(root) + [plane_model(rng, 3 + k % 6) for k in range(6)]
        u_out, u_sig = (stratified(rng, n) for _ in range(2))
        items = []
        for i in range(n):
            m = pool_models[i % len(pool_models)]
            outside = bool(u_out[i] < 0.3)
            ct, c0 = draw_query(rng, m, outside)
            cond = units.to_canonical(lab_conditions(ct, c0, m.resin_id))
            outside = oracles.hull_margin([s[:2] for s in m.sources], (cond.ct_min, cond.c0_ppb)) < 0
            grid = np.linspace(0.0, 2.0 * m.qm_fixed * cond.ct / cond.c0, self.grid_points)
            kt = m.a * cond.ct_min + m.b * cond.c0_ppb + m.c
            measured = noisy(rng, oracles.thomas(kt, m.qm_fixed, cond.ct, cond.c0, grid), 0.02 * u_sig[i])
            items.append(Query(m, cond, outside, grid, measured))
        return items

    def run(self, q, tracer=None, op_id=0):
        cond = q.cond
        n_warn = len(self.caught)
        kt = correlation.predict_kt(q.model, cond.ct_min, cond.c0_ppb)
        warned = len(self.caught) > n_warn
        p = models.ThomasParams(kt, q.model.qm_fixed)
        limit = units.breakthrough_ratio(LIMIT_PPB, cond.c0_ppb)
        times = [models.breakthrough_time(p, cond, r) for r in (0.5, 0.1, limit)]
        curve = correlation.predict_curve(q.model, cond, q.grid)
        profile = estimation.sensitivity_profile(p, cond, q.grid)
        score = estimation.rsse(curve, q.measured)
        del self.caught[n_warn:]
        return kt, warned, limit, times, curve, profile, score

    def check(self, q, out):
        kt, warned, limit, times, curve, profile, score = out
        m, cond = q.model, q.cond
        close(kt, m.a * cond.ct_min + m.b * cond.c0_ppb + m.c, 1e-12, "predict_kt vs a*CT + b*C0 + c")
        require(warned == q.outside, f"hull warning {warned} but half-plane test says outside={q.outside}")
        close(limit, LIMIT_PPB / cond.c0_ppb, 1e-15, "limit ratio")
        close(times[0].time_hr, m.qm_fixed * cond.ct / cond.c0, 1e-12, "t50 vs qm*CT/C0")
        for target, bt in zip((0.5, 0.1, limit), times):
            oracles.check_breakthrough(bt.time_hr, target, kt, m.qm_fixed, cond.ct, cond.c0, 1e-9)
        own = oracles.thomas(kt, m.qm_fixed, cond.ct, cond.c0, q.grid)
        require(np.allclose(curve, own, rtol=0.0, atol=1e-12), "predict_curve differs from the Thomas forward")
        require(profile.fd_check < 1e-5, f"sensitivity fd_check {profile.fd_check!r}")
        weight = own * (1.0 - own)
        dkt = (cond.c0 * q.grid - m.qm_fixed * cond.ct) * weight
        require(np.allclose(profile.dy_dkt, dkt, rtol=1e-9, atol=1e-12 * np.abs(dkt).max()), "dy/dkt differs from the analytic form")
        close(score, oracles.rsse(curve, q.measured), 1e-12, "rsse of the forecast against measured")
        return [score]

    def fingerprint(self, out):
        kt, warned, _, times, curve, profile, score = out
        return kt, warned, times[2].time_hr, float(curve[100]), float(profile.dy_dqm[100]), score


# ---------------------------------------------------------------------------
# cli
# ---------------------------------------------------------------------------

COMMANDS = ("fit", "compare", "correlate", "predict", "sensitivity")


@dataclass
class CliOp:
    command: str
    argv: list[str]
    out: Path = Path()
    exp: Experiment | None = None
    group: list[Experiment] = field(default_factory=list)
    model: object = None
    query: dict | None = None
    outside: bool = False


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_child(cmd: list[str], env: dict, stderr_path: Path) -> tuple[int, float]:
    """Run one child to completion; return its exit code and peak RSS in MB."""
    with open(stderr_path, "wb") as err:
        proc = subprocess.Popen(cmd, stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL, stderr=err, env=env)
        watchdog = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


class CliWorkload(Workload):
    """One ``breakcurve`` subprocess per operation, cycling fit, compare,
    correlate, predict, sensitivity on generated files."""

    name = "cli"
    op_seconds = 0.43
    pool_step = len(COMMANDS)

    def __init__(self, workdir, seed, pool_size):
        super().__init__(workdir, seed, pool_size)
        self.root = Path(__file__).resolve().parent.parent
        self.env = child_env(self.root)
        self.bench_dir = str(Path(__file__).resolve().parent)

    def generate(self, rng, n, tag):
        """Cycles of the five commands.  Curves have 40 points and 2% noise, so
        the rsse the fit and compare commands write varies little between seeds."""
        cycles = -(-n // len(COMMANDS))
        models_ = bundled_models(self.root)[:1] + [plane_model(rng, 3 + k % 6) for k in range(3)]
        u_kt, u_qm = stratified(rng, 6 * cycles), stratified(rng, 6 * cycles)
        ops, k = [], 0
        for i in range(cycles):
            points = list(CORNERS) + [
                (float(rng.uniform(*CT_RANGE)), float(rng.uniform(*C0_RANGE))) for _ in range(i % 3)
            ]
            group = []
            for j, (ct, c0) in enumerate(points):
                group.append(thomas_experiment(rng, self.workdir, f"{tag}{i}e{j}", ct, c0, u_kt[k], u_qm[k], 40, 0.02))
                k += 1
            fit_paths = []
            for exp in group:
                cond = files.load_conditions(exp.json)
                res = estimation.fit(units.ingest_curve(str(exp.csv), cond), "thomas")
                path = exp.csv.with_suffix(".fit.json")
                files.dump_json(path, files.fit_result_to_dict(res, cond, curve_file=str(exp.csv)))
                fit_paths.append(str(path))
            m = models_[i % len(models_)]
            model_path = self.workdir / f"{tag}{i}.correlation.json"
            write_json(model_path, correlation.model_to_dict(m))
            outside = i % 3 == 2  # a third of the predictions extrapolate past the hull
            query = lab_conditions(*draw_query(rng, m, outside), m.resin_id)
            query_path = self.workdir / f"{tag}{i}q.conditions.json"
            write_json(query_path, query)
            outside = oracles.hull_margin([s[:2] for s in m.sources], (query["ct_min"], query["c0_ppb"])) < 0
            fit_exp, compare_exp = group[0], group[1]
            ops += [
                CliOp("fit", ["fit", "--curve", str(fit_exp.csv), "--conditions", str(fit_exp.json)], exp=fit_exp),
                CliOp("compare", ["compare", "--curve", str(compare_exp.csv), "--conditions", str(compare_exp.json)],
                      exp=compare_exp),
                CliOp("correlate", ["correlate", *fit_paths], group=group),
                CliOp("predict", ["predict", "--correlation", str(model_path), "--conditions", str(query_path)],
                      model=m, query=query, outside=outside),
                CliOp("sensitivity", ["sensitivity", "--fit", fit_paths[2]], exp=group[2]),
            ]
        for j, op in enumerate(ops):
            op.out = self.workdir / f"{tag}out{j}-{op.command}"
            op.argv += ["--out", str(op.out)]
        return ops[:n]

    def run(self, op, tracer=None, op_id=0):
        err = op.out.with_suffix(".stderr")
        if tracer is None:
            code, rss = run_child([sys.executable, "-c", CLI_ENTRY, *op.argv], self.env, err)
        else:
            spans_path = op.out.with_suffix(".spans.json")
            entry = f"import sys; sys.path.insert(0, {self.bench_dir!r}); import spans; sys.exit(spans.cli_child({str(spans_path)!r}))"
            code, rss = run_child([sys.executable, "-c", entry, *op.argv], self.env, err)
            if spans_path.exists():
                tracer.merge(json.loads(spans_path.read_text()), op_id)
        if code != 0:
            raise RuntimeError(f"breakcurve {op.command} exited {code}: {err.read_text().strip()[-500:]}")
        return {"code": code, "rss_mb": rss, "stderr": err.read_text()}

    def check(self, op, out):
        stem = {
            "fit": lambda: op.exp.csv.stem,
            "compare": lambda: op.exp.csv.stem,
            "correlate": lambda: "a600e.correlation" if op.group else "",
            "predict": lambda: Path(op.argv[4]).stem,
            "sensitivity": lambda: op.exp.csv.stem,
        }[op.command]()
        manifest = json.loads((op.out / f"{stem}.manifest.json").read_text())
        require(manifest["command"] == op.command, f"{op.command}: manifest names {manifest['command']!r}")
        for path in manifest["outputs"]:
            require(Path(path).is_file() and Path(path).stat().st_size > 0, f"{op.command}: listed output {path} missing")
        return getattr(self, f"_check_{op.command}")(op, out, stem)

    def _check_fit(self, op, res, stem):
        doc = json.loads((op.out / f"{stem}.fit.json").read_text())
        bound = op.exp.fit_bound()
        rsse = doc["stats"]["rsse"]
        require(rsse <= bound * (1 + 1e-9) + 1e-15, f"cli fit {stem}: rsse {rsse!r} above the generating parameters' {bound!r}")
        return [rsse]

    def _check_compare(self, op, res, stem):
        doc = json.loads((op.out / f"{stem}.compare.json").read_text())
        entries = {e["model"]: e for e in doc["models"]}
        require(set(entries) == set(estimation.MODEL_ORDER) and not any(e.get("failed") for e in entries.values()),
                f"cli compare {stem}: a model failed or is missing")
        rsse = entries["thomas"]["stats"]["rsse"]
        bound = op.exp.fit_bound()
        require(rsse <= bound * (1 + 1e-9) + 1e-15, f"cli compare {stem}: thomas rsse {rsse!r} above {bound!r}")
        best = entries[doc["best_model"]]["stats"]["rsse"]
        require(all(best <= entries[m]["stats"]["rsse"] * (1 + 1e-7) + 1e-10 for m in doc["ranking"]),
                f"cli compare {stem}: best model {doc['best_model']} does not have the lowest rsse")
        return [rsse]

    def _check_correlate(self, op, res, stem):
        doc = json.loads((op.out / f"{stem}.json").read_text())
        qms = [json.loads(Path(p).read_text())["params"]["qm_g_per_l"] for p in op.argv[1:] if p.endswith(".fit.json")]
        qm = doc["qm_fixed_g_per_l"]
        close(qm, float(np.mean(qms)), 1e-9, "cli correlate qm_fixed vs mean fitted qm")
        triples = [(s["ct_min"], s["c0_ppb"], s["kt_l_per_g_hr"]) for s in doc["sources"]]
        oracles.check_plane(triples, (doc["a_per_min"], doc["b_per_ppb"], doc["c"]), 1e-8)
        for (_, _, kt), exp in zip(triples, op.group):
            ct_hr, c0 = canonical(exp.cond)
            got = oracles.rsse(oracles.thomas(kt, qm, ct_hr, c0, exp.t), exp.y)
            best = oracles.fixed_qm_oracle(qm, ct_hr, c0, exp.t, exp.y)
            require(got <= best * (1 + 1e-6) + 1e-12, f"cli correlate {exp.csv.name}: refit rsse {got!r} above the oracle's {best!r}")
        return []

    def _check_predict(self, op, res, stem):
        doc = json.loads((op.out / f"{stem}.predict.json").read_text())
        m = op.model
        ct_min, c0_ppb = op.query["ct_min"], op.query["c0_ppb"]
        kt = doc["kt_l_per_g_hr"]
        close(kt, m.a * ct_min + m.b * c0_ppb + m.c, 1e-9, "cli predict kt vs a*CT + b*C0 + c")
        ct_hr, c0 = canonical(op.query)
        close(doc["t50_hr"], m.qm_fixed * ct_hr / c0, 1e-9, "cli predict t50 vs qm*CT/C0")
        oracles.check_breakthrough(doc["t10_hr"], 0.1, kt, m.qm_fixed, ct_hr, c0, 1e-8)
        oracles.check_breakthrough(doc["time_to_limit_hr"], doc["limit_ratio"], kt, m.qm_fixed, ct_hr, c0, 1e-8)
        warned = "outside the source-experiment hull" in res["stderr"]
        require(warned == op.outside, f"cli predict: hull warning {warned} but half-plane test says outside={op.outside}")
        return []

    def _check_sensitivity(self, op, res, stem):
        fit = json.loads(Path(op.argv[2]).read_text())
        kt, qm = fit["params"]["kt_l_per_g_hr"], fit["params"]["qm_g_per_l"]
        ct_hr, c0 = canonical(fit["conditions"])  # the embedded, 10-digit conditions the command used
        rows = np.loadtxt(op.out / f"{stem}.sensitivity.csv", delimiter=",", skiprows=1)
        t, dy_dkt, ratio = rows[:, 0], rows[:, 1], rows[:, 3]
        own = oracles.thomas(kt, qm, ct_hr, c0, t)
        # t is written to 10 significant digits, so a steep curve moves by slope * t * 5e-11
        slope = kt * c0 * own * (1.0 - own)
        require(np.all(np.abs(ratio - own) <= 1e-9 + 1e-9 * slope * t),
                "cli sensitivity: ratio column differs from the Thomas forward")
        analytic = (c0 * t - qm * ct_hr) * own * (1.0 - own)
        require(np.allclose(dy_dkt, analytic, rtol=1e-6, atol=1e-9 * np.abs(analytic).max()),
                "cli sensitivity: dy/dkt differs from the analytic form")
        return []

    def fingerprint(self, out):
        return out["code"]


WORKLOADS = {w.name: w for w in (CampaignWorkload, CompareWorkload, ForecastWorkload, CliWorkload)}
