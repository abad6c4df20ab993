"""Waist sweeps and the three-stage waist optimization.

The optimization mirrors the design procedure the package exists to study:
first maximize the pair rate over the pump waist (with the collection waist
tied to the separability condition so the purity stays near its ceiling),
then evaluate the closed-form collection waist, then refine it by scanning
the purity and locating the efficiency/purity crossing.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import Numerics
from .errors import UnsatisfiableConditionError
from .jsa import _tie_curvature, purity_waist, spectral_grid
from .metrics import (compute_metrics, heralding_margin, heralding_rates, jsa_purity,
                      pair_rates_by_key)

# the Gaussian-model convention that ties the collection waist to the pump
# waist while the pair rate is maximized, and the pump-waist search interval
_TIE_ALPHA = "consistent"
_WAIST_BOUNDS = (50e-6, 800e-6)
# samples of optimize's stage-3 purity scan and of its coarse eta - P scan,
# which takes every ((_SCAN_POINTS - 1) / (_ETA_COARSE_POINTS - 1))th scan point
_SCAN_POINTS = 121
_ETA_COARSE_POINTS = 11


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
    argmax_index: int


@dataclass(frozen=True)
class OptimizationResult:
    """Waists from the three optimization stages with metrics at each.

    ``W0s_intersection`` is None when no efficiency/purity crossing exists in
    the scan window.
    """

    W0p_star: float
    W0s_closed_form: float
    W0s_purity_star: float
    W0s_intersection: float
    metrics: dict


def _tied(W0p, geom, crystal):
    """``geom`` at pump waist W0p (a float or an array) with the collection
    waist tied to it by the separability condition under _TIE_ALPHA, without
    the waists where it is unsatisfiable; None if it is at every waist."""
    try:
        W0s = purity_waist(W0p, geom, crystal, _TIE_ALPHA)
    except UnsatisfiableConditionError:
        return None
    keep = W0s > 0  # NaN where unsatisfiable; one waist stays a Python float
    W0p, W0s = (W0p[keep], W0s[keep]) if np.ndim(W0s) else (W0p, float(W0s))
    return replace(geom, W0p=W0p, W0s=W0s)


def _samples(value_range, name, steps):
    """``steps`` values spanning ``value_range`` (argument ``name``)."""
    lo, hi = value_range
    if not 0 < lo < hi:
        raise ValueError("%s must satisfy 0 < lo < hi" % name)
    if steps < 1:
        raise ValueError("steps must be at least 1")
    return np.linspace(lo, hi, steps)


def _sweep(values, R, eta, purity):
    """Rows of the sampled ``values`` and their figure columns (``eta`` may be
    None); the argmax is the first maximum of R, so ties go to the smallest value."""
    rows = zip(values, R, eta or [None] * len(R), purity)
    return SweepResult(rows=tuple(SweepRow(*row) for row in rows), argmax_index=int(np.argmax(R)))


def golden_section_maximize(f, lo, hi, tol):
    """1-D golden-section maximization on [lo, hi], stopping once the bracket
    is narrower than ``tol`` or after 200 iterations; returns (x, f(x))."""
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c_pt = b - invphi * (b - a)
    d_pt = a + invphi * (b - a)
    fc, fd = f(c_pt), f(d_pt)
    for _ in range(200):
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


def rate_vs_pump_waist(waist_range, steps, geom_base, crystal, filters, numerics=Numerics()):
    """Pair rate and purity versus pump waist.

    The collection waist follows each sample through ``_tied``; waists where
    the separability condition is unsatisfiable are skipped. All samples
    share the ``spectral_grid`` of each resolution, so the phase mismatch is
    evaluated once per grid resolution, not per sample. The tied waists are one
    batch keyed on the C the tie fixes (``_tie_curvature``), which their own C
    rounds to a few bit patterns of, so the shape, the rate doubling and the
    purity are taken once (once per H with walk-off).
    """
    geom = _tied(_samples(waist_range, "waist_range", steps), geom_base, crystal)
    if geom is None:
        raise UnsatisfiableConditionError(
            "separability condition unsatisfiable over the whole waist range"
        )
    grid = spectral_grid(numerics.grid_resolution, geom, crystal, filters)
    R, P = np.empty(geom.W0p.size), np.empty(geom.W0p.size)
    C = _tie_curvature(geom, crystal, _TIE_ALPHA)
    for key, idx, rates in pair_rates_by_key(geom, crystal, filters, numerics, C):
        R[idx], P[idx] = rates, grid.figure(key, numerics.decompose)
    return _sweep(geom.W0p.tolist(), R.tolist(), None, P.tolist())


def metrics_vs_waist_ratio(ratio_range, steps, geom_base, crystal, filters, numerics=Numerics()):
    """Full metrics versus the collection-to-pump waist ratio at the pump waist of geom_base."""
    ratios = _samples(ratio_range, "ratio_range", steps).tolist()
    geoms = (replace(geom_base, W0s=r * geom_base.W0p) for r in ratios)
    reports = [compute_metrics(g, crystal, filters, numerics) for g in geoms]
    return _sweep(ratios, *zip(*((m.pair_rate_R, m.heralding_eta, m.purity_P) for m in reports)))


def optimize(geom_template, crystal, filters, numerics=Numerics()):
    """Three-stage waist optimization.

    Stage 1 maximizes the pair rate over the pump waist by golden-section
    search over _WAIST_BOUNDS, tying the collection waist to the
    separability condition under _TIE_ALPHA and keying every waist on the
    tie's C, as ``rate_vs_pump_waist`` does. Stage 2 evaluates the
    closed-form collection waist at the optimum under
    ``numerics.alpha_convention``. Stage 3 scans the collection waist over
    [0.5, 1.2] times the closed-form value on a grid of _SCAN_POINTS points,
    maximizing the purity (with local quadratic refinement), and locates the
    efficiency/purity crossing by bisection from _ETA_COARSE_POINTS evenly
    spaced points of that grid. It takes the purity at each coarse point and
    then its sign of eta - P, and climbs from the first coarse maximum one
    grid point at a time while the purity rises strictly. That ends at the
    maximum of all _SCAN_POINTS purities whenever the sampled purity has one
    peak over the scan, as stage 1 assumes of the pair rate.

    The coarse points read the sign of eta - P from ``heralding_margin``, which
    stops summing singles shells once the partial sums prove eta < P; the
    bisection takes the exact eta of ``heralding_rates``.
    """

    C = _tie_curvature(geom_template, crystal, _TIE_ALPHA)

    def tied_rate(W0p):
        geom = _tied(W0p, geom_template, crystal)
        if geom is None:
            return -math.inf
        [(_, _, [rate])] = pair_rates_by_key(geom, crystal, filters, numerics, C)
        return rate

    W0p_star, _ = golden_section_maximize(tied_rate, *_WAIST_BOUNDS, tol=0.25e-6)
    W0s_closed_form = purity_waist(W0p_star, geom_template, crystal, numerics.alpha_convention)

    scan = np.linspace(0.5 * W0s_closed_form, 1.2 * W0s_closed_form, _SCAN_POINTS)

    def at_waist(W0s):
        return replace(geom_template, W0p=W0p_star, W0s=W0s)

    def purity_at(W0s):
        return jsa_purity(at_waist(W0s), crystal, filters, numerics)

    # each coarse purity, then its eta - P, whose pair rate reads the shape that
    # purity left in the grid's figure slot; then a climb from the first coarse
    # maximum while the purity rises strictly, to the peak and both its neighbours
    stride = (_SCAN_POINTS - 1) // (_ETA_COARSE_POINTS - 1)
    purities = np.full(_SCAN_POINTS, -math.inf)
    diffs = []
    for j in range(0, _SCAN_POINTS, stride):
        geom = at_waist(scan[j])
        purities[j] = jsa_purity(geom, crystal, filters, numerics)
        diffs.append(heralding_margin(geom, crystal, filters, numerics, purities[j]))
    k = stride * int(np.argmax(purities[::stride]))
    for step in (-1, 1):
        while 0 <= k + step < _SCAN_POINTS:
            if purities[k + step] == -math.inf:
                purities[k + step] = purity_at(scan[k + step])
            if purities[k + step] <= purities[k]:
                break
            k += step
    if 0 < k < _SCAN_POINTS - 1:
        # quadratic refinement through the three points around the maximum
        y0, y1, y2 = purities[k - 1], purities[k], purities[k + 1]
        denom = y0 - 2 * y1 + y2
        shift = 0.5 * (y0 - y2) / denom if denom < 0 else 0.0
        shift = min(max(shift, -1.0), 1.0)
        W0s_purity_star = scan[k] + shift * (scan[1] - scan[0])
    else:
        W0s_purity_star = scan[k]

    coarse = scan[::stride]
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
                fm = heralding_rates(at_waist(mid), crystal, filters, numerics)[3] - purity_at(mid)
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
        metrics=metrics,
    )


def write_sweep_csv(rows, path):
    """CSV with header (swept_value, R, eta, purity); blanks when absent. The
    bytes ``csv.writer`` writes: no cell needs quoting, and lines end in \\r\\n."""
    with open(path, "w", newline="") as fh:
        fh.write("swept_value,R,eta,purity\r\n")
        for row in rows:
            values = (row.swept_value, row.R, row.eta, row.purity)
            fh.write(",".join("" if v is None else "%.9e" % v for v in values) + "\r\n")
