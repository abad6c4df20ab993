"""Waist sweeps and the three-stage waist optimization.

The optimization mirrors the design procedure the package exists to study:
first maximize the pair rate over the pump waist (with the collection waist
tied to the separability condition so the purity stays near its ceiling),
then evaluate the closed-form collection waist, then refine it by scanning
the purity and locating the efficiency/purity crossing.
"""

import csv
import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Numerics
from .errors import UnsatisfiableConditionError
from .jsa import purity_waist
from .metrics import compute_metrics, heralding_rates, jsa_purity, pair_rate

# the Gaussian-model convention that ties the collection waist to the pump
# waist while the pair rate is maximized, and the pump-waist search interval
_TIE_ALPHA = "consistent"
_WAIST_BOUNDS = (50e-6, 800e-6)


@dataclass(frozen=True)
class SweepRow:
    """One sampled point; eta and purity may be None when not evaluated."""

    swept_value: float
    R: float
    eta: float
    purity: float

    def __post_init__(self):
        for name, val in (("R", self.R), ("eta", self.eta), ("purity", self.purity)):
            if val is not None and not math.isfinite(val):
                raise ValueError("%s must be finite" % name)
        for name, val in (("eta", self.eta), ("purity", self.purity)):
            if val is not None and not 0.0 < val <= 1.0 + 1e-9:
                raise ValueError("%s must lie in (0, 1]" % name)


@dataclass(frozen=True)
class SweepResult:
    rows: tuple
    argmax_value: float
    argmax_index: int


@dataclass(frozen=True)
class OptimizationResult:
    """Waists from the three optimization stages with metrics at each.

    ``W0s_intersection`` is None when no efficiency/purity crossing exists in
    the scan window (``intersection_found`` False).
    """

    W0p_star: float
    W0s_closed_form: float
    W0s_purity_star: float
    W0s_intersection: float
    intersection_found: bool
    metrics: dict


def _tied(W0p, geom, crystal):
    """``geom`` at pump waist W0p with both collection waists tied to it by
    the separability condition under _TIE_ALPHA; None where that condition
    is unsatisfiable."""
    try:
        W0s = purity_waist(W0p, geom, crystal, _TIE_ALPHA)
    except UnsatisfiableConditionError:
        return None
    return replace(geom, W0p=W0p, W0s=W0s, W0i=W0s)


def golden_section_maximize(f, lo, hi, tol=1e-7, max_iter=200):
    """1-D golden-section maximization on [lo, hi]; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c_pt = b - invphi * (b - a)
    d_pt = a + invphi * (b - a)
    fc, fd = f(c_pt), f(d_pt)
    for _ in range(max_iter):
        if b - a < tol:
            break
        if fc > fd:
            b, d_pt, fd = d_pt, c_pt, fc
            c_pt = b - invphi * (b - a)
            fc = f(c_pt)
        else:
            a, c_pt, fc = c_pt, d_pt, fd
            d_pt = a + invphi * (b - a)
            fd = f(d_pt)
    x = (a + b) / 2.0
    return x, f(x)


def rate_vs_pump_waist(
    waist_range,
    steps,
    geom_base,
    crystal,
    filters,
    include_purity=True,
    numerics=Numerics(),
):
    """Pair rate versus pump waist.

    The collection waists follow each sample through ``_tied``; waists where
    the separability condition is unsatisfiable are skipped. The argmax is
    reported with ties broken toward the smallest swept value. All samples
    share the ``spectral_grid`` of each resolution, so the phase mismatch is
    evaluated once per grid resolution, not per sample.
    """
    lo, hi = waist_range
    if not 0 < lo < hi:
        raise ValueError("waist_range must satisfy 0 < lo < hi")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rows = []
    for W0p in np.linspace(lo, hi, steps):
        geom = _tied(W0p, geom_base, crystal)
        if geom is None:
            continue
        R = pair_rate(geom, crystal, filters, numerics)
        row_purity = None
        if include_purity:
            row_purity = jsa_purity(geom, crystal, filters, numerics)
        rows.append(SweepRow(swept_value=float(W0p), R=R, eta=None, purity=row_purity))
    if not rows:
        raise UnsatisfiableConditionError(
            "separability condition unsatisfiable over the whole waist range"
        )
    rates = np.array([row.R for row in rows])
    idx = int(np.argmax(rates))  # first maximum: smallest-waist tie-break
    return SweepResult(rows=tuple(rows), argmax_value=rows[idx].swept_value, argmax_index=idx)


def metrics_vs_waist_ratio(
    ratio_range,
    steps,
    W0p_fixed,
    geom_base,
    crystal,
    filters,
    numerics=Numerics(),
):
    """Full metrics versus the collection-to-pump waist ratio."""
    lo, hi = ratio_range
    if not 0 < lo < hi:
        raise ValueError("ratio_range must satisfy 0 < lo < hi")
    if steps < 1:
        raise ValueError("steps must be at least 1")
    rows = []
    for ratio in np.linspace(lo, hi, steps):
        W0s = ratio * W0p_fixed
        geom = replace(geom_base, W0p=W0p_fixed, W0s=W0s, W0i=W0s)
        report = compute_metrics(geom, crystal, filters, numerics)
        rows.append(
            SweepRow(
                swept_value=float(ratio),
                R=report.pair_rate_R,
                eta=report.heralding_eta,
                purity=report.purity_P,
            )
        )
    rates = np.array([row.R for row in rows])
    idx = int(np.argmax(rates))
    return SweepResult(rows=tuple(rows), argmax_value=rows[idx].swept_value, argmax_index=idx)


def optimize(
    geom_template,
    crystal,
    filters,
    scan_points=121,
    eta_coarse_points=11,
    numerics=Numerics(),
):
    """Three-stage waist optimization.

    Stage 1 maximizes the pair rate over the pump waist by golden-section
    search over _WAIST_BOUNDS, tying the collection waist to the
    separability condition under _TIE_ALPHA. Stage 2 evaluates the
    closed-form collection waist at the optimum under
    ``numerics.alpha_convention``. Stage 3 scans the collection waist over
    [0.5, 1.2] times the closed-form value, maximizing the purity (with local
    quadratic refinement) and locating the efficiency/purity crossing by
    bisection.
    """

    def tied_rate(W0p):
        geom = _tied(W0p, geom_template, crystal)
        return -math.inf if geom is None else pair_rate(geom, crystal, filters, numerics)

    W0p_star, _ = golden_section_maximize(tied_rate, *_WAIST_BOUNDS, tol=0.25e-6)
    W0s_closed_form = purity_waist(W0p_star, geom_template, crystal, numerics.alpha_convention)

    scan = np.linspace(0.5 * W0s_closed_form, 1.2 * W0s_closed_form, scan_points)

    def at_waist(W0s):
        return replace(geom_template, W0p=W0p_star, W0s=W0s, W0i=W0s)

    def purity_at(W0s):
        return jsa_purity(at_waist(W0s), crystal, filters, numerics)

    purities = np.array([purity_at(w) for w in scan])
    k = int(np.argmax(purities))
    if 0 < k < scan_points - 1:
        # quadratic refinement through the three points around the maximum
        y0, y1, y2 = purities[k - 1], purities[k], purities[k + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom < 0 else 0.0
        shift = min(max(shift, -1.0), 1.0)
        W0s_purity_star = scan[k] + shift * (scan[1] - scan[0])
    else:
        W0s_purity_star = scan[k]

    def eta_minus_purity(W0s):
        _, _, _, eta = heralding_rates(at_waist(W0s), crystal, filters, numerics)
        return eta - purity_at(W0s)

    coarse = np.linspace(scan[0], scan[-1], eta_coarse_points)
    diffs = [eta_minus_purity(w) for w in coarse]
    W0s_intersection = None
    for j in range(len(coarse) - 1):
        if diffs[j] == 0.0:
            W0s_intersection = float(coarse[j])
            break
        if diffs[j] * diffs[j + 1] < 0:
            a, b = coarse[j], coarse[j + 1]
            fa = diffs[j]
            for _ in range(40):
                mid = 0.5 * (a + b)
                fm = eta_minus_purity(mid)
                if abs(fm) < 1e-3 or (b - a) < 1e-8:
                    break
                if fa * fm < 0:
                    b = mid
                else:
                    a, fa = mid, fm
            W0s_intersection = float(mid)
            break

    def report_at(W0s):
        return compute_metrics(at_waist(W0s), crystal, filters, numerics)

    metrics = {
        "at_W0s_closed_form": report_at(W0s_closed_form),
        "at_W0s_purity_star": report_at(W0s_purity_star),
    }
    if W0s_intersection is not None:
        metrics["at_W0s_intersection"] = report_at(W0s_intersection)
    return OptimizationResult(
        W0p_star=float(W0p_star),
        W0s_closed_form=float(W0s_closed_form),
        W0s_purity_star=float(W0s_purity_star),
        W0s_intersection=W0s_intersection,
        intersection_found=W0s_intersection is not None,
        metrics=metrics,
    )


def write_sweep_csv(rows, path):
    """CSV with header (swept_value, R, eta, purity); blanks when absent."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["swept_value", "R", "eta", "purity"])
        for row in rows:
            writer.writerow(
                [
                    "%.9e" % row.swept_value,
                    "%.9e" % row.R,
                    "" if row.eta is None else "%.9e" % row.eta,
                    "" if row.purity is None else "%.9e" % row.purity,
                ]
            )
