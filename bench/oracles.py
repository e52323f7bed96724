"""Property oracles: checks that hold for any correct program on generated
inputs, written independently of the package (numpy only, scipy for one
bounded scalar search).

Reference tables bundled with the package (tabulated fixed-capacity rate
constants, the published plane constants) are deliberately not used: the
generated curves do not reproduce them, so they cannot judge the outputs.
"""

from __future__ import annotations

import math

import numpy as np

EPSILON_CALC = 1e-6  # the documented exclusion threshold for calculated ratios
MAXFEV_EVALS = 8000


class OracleMismatch(AssertionError):
    """An output violated a property a correct program must satisfy."""


def require(ok: bool, what: str) -> None:
    if not ok:
        raise OracleMismatch(what)


def close(x: float, y: float, rel: float, what: str) -> None:
    require(abs(x - y) <= rel * max(abs(x), abs(y), 1e-300), f"{what}: {x!r} vs {y!r} (rel tol {rel:g})")


# --- forward models, canonical units (t hr, c0 g/L, ct hr) ------------------


def thomas(kt: float, qm: float, ct_hr: float, c0: float, t) -> np.ndarray:
    z = kt * qm * ct_hr - kt * c0 * np.asarray(t, dtype=float)
    with np.errstate(over="ignore"):
        return 1.0 / (1.0 + np.exp(z))


def clark(a: float, r: float, n: float, t) -> np.ndarray:
    return (1.0 + a * np.exp(-r * np.asarray(t, dtype=float))) ** (-1.0 / (n - 1.0))


def wolborska(beta_a: float, n0: float, c0: float, z_cm: float, u0: float, t) -> np.ndarray:
    lag_hr = (z_cm / u0) / 60.0
    return np.exp(np.minimum(beta_a * c0 / n0 * np.asarray(t, dtype=float) - beta_a * lag_hr, 0.0))


def rsse(calc, exp) -> float:
    c = np.asarray(calc, dtype=float)
    e = np.asarray(exp, dtype=float)
    m = c >= EPSILON_CALC
    return float((((c[m] - e[m]) / c[m]) ** 2).sum())


def admissible(calc, y) -> bool:
    """No point the data calls significant is excluded by its calculated ratio.

    The package's objective refuses such parameters (it penalises them), so
    only admissible parameters bound what a fit must reach.
    """
    return not np.any((np.asarray(calc) < EPSILON_CALC) & (np.asarray(y) > EPSILON_CALC))


def free_fit_bound(rsse_at_generating: float) -> float:
    """A free fit must do at least as well as the parameters that generated the data."""
    return max(rsse_at_generating * (1.0 + 1e-6), 1e-12)


def fixed_qm_oracle(qm: float, ct_hr: float, c0: float, t, y) -> float:
    """Best admissible rsse over kt in [10, 1e4] with the capacity fixed.

    A log grid locates the basin and a bounded scalar search polishes it.
    kt is admissible only when no point with measured ratio above the
    exclusion threshold is excluded by its calculated ratio.
    """
    from scipy.optimize import minimize_scalar

    t = np.asarray(t, dtype=float)
    y = np.asarray(y, dtype=float)

    def objective(log_kt: float) -> float:
        calc = thomas(math.exp(log_kt), qm, ct_hr, c0, t)
        if not admissible(calc, y) or not np.any(calc >= EPSILON_CALC):
            return 1e300  # finite, so the bounded search's parabolic steps stay defined
        return rsse(calc, y)

    grid = np.linspace(math.log(10.0), math.log(1e4), 241)
    values = np.array([objective(g) for g in grid])
    k = int(np.argmin(values))
    require(values[k] < 1e300, "fixed-capacity oracle: no admissible kt in [10, 1e4]")
    lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, len(grid) - 1)]
    polished = minimize_scalar(objective, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
    return float(min(values[k], polished.fun))


def check_breakthrough(time_hr: float, target: float, kt: float, qm: float, ct_hr: float, c0: float, tol: float) -> None:
    back = float(thomas(kt, qm, ct_hr, c0, time_hr))
    require(abs(back - target) <= tol, f"forward(breakthrough_time({target!r})) = {back!r}")


def check_plane(triples, coef, rel: float) -> None:
    """(a, b, c) matches numpy least squares and passes through the centroid."""
    arr = np.asarray(triples, dtype=float)
    design = np.column_stack([arr[:, 0], arr[:, 1], np.ones(len(arr))])
    ref, *_ = np.linalg.lstsq(design, arr[:, 2], rcond=None)
    scale = np.abs(design).max(axis=0)  # compare coefficient contributions, not raw values
    kt_scale = float(np.abs(arr[:, 2]).max())
    for name, got, want, s in zip("abc", coef, ref, scale):
        require(abs(got - want) * s <= rel * kt_scale, f"fit_plane {name}: {got!r} vs lstsq {want!r}")
    centroid = coef[0] * arr[:, 0].mean() + coef[1] * arr[:, 1].mean() + coef[2]
    close(centroid, float(arr[:, 2].mean()), rel, "plane at the source centroid vs mean source kt")


# --- hull test --------------------------------------------------------------


def _cross(o, a, b) -> float:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def convex_hull(points) -> list[tuple[float, float]]:
    """Counter-clockwise hull (monotone chain); collinear points dropped."""
    pts = sorted(set(map(tuple, points)))
    if len(pts) < 3:
        return pts
    lower: list = []
    upper: list = []
    for p in pts:
        while len(lower) >= 2 and _cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    for p in reversed(pts):
        while len(upper) >= 2 and _cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def hull_margin(points, q) -> float:
    """Signed distance from q to the region the package treats as inside.

    Positive inside, negative outside.  Fewer than three sources, or
    collinear ones, fall back to the bounding box, as the package does.
    """
    pts = np.asarray(points, dtype=float)
    hull = convex_hull(pts) if len(pts) >= 3 else []
    if len(hull) >= 3:
        margins = []
        for i in range(len(hull)):
            a, b = hull[i], hull[(i + 1) % len(hull)]
            length = math.hypot(b[0] - a[0], b[1] - a[1])
            margins.append(_cross(a, b, q) / length)
        return min(margins)
    lo, hi = pts.min(axis=0), pts.max(axis=0)
    return float(min(q[0] - lo[0], hi[0] - q[0], q[1] - lo[1], hi[1] - q[1]))
