"""Output checks: invariants on every task, reference figures on the default seed.

``check_task`` reads the files one CLI command wrote and returns the
figures of merit it found and the list of invariants they break:

- exit code 0 and every expected output file present;
- R > 0, 0 < eta <= 1, 0 < P <= 1 and R <= sqrt(Rs Ri), with eta equal to
  R / sqrt(Rs Ri);
- a sweep's argmax lies inside the scanned range and is the row of
  largest R; the optimizer's pump waist lies inside its bounds and its
  purity waist inside its scan window of [0.5, 1.2] x the closed form;
- the JSA grid has the configured shape and its normalization integrates
  |Phi|^2 to one; the dispersion report has positive wave numbers, group
  delays and d_eff.

``compare`` checks the figures against the ones recorded at the commit that
defined the benchmark, with the relative tolerance in ``reference.json``.
"""

import csv
import json
import math
import os

import numpy as np

# relative slack of the program's own invariant checks
SLACK = 1e-9


def _fom(errors, where, R, Rs, Ri, eta, P):
    if not (R > 0 and Rs > 0 and Ri > 0):
        errors.append("%s: rates must be positive" % where)
        return
    if not 0.0 < eta <= 1.0 + SLACK:
        errors.append("%s: eta=%r outside (0, 1]" % (where, eta))
    if not 0.0 < P <= 1.0 + SLACK:
        errors.append("%s: purity=%r outside (0, 1]" % (where, P))
    bound = math.sqrt(Rs * Ri)
    if R > bound * (1.0 + SLACK):
        errors.append("%s: R exceeds sqrt(Rs Ri)" % where)
    if abs(eta - R / bound) > SLACK * max(eta, 1.0):
        errors.append("%s: eta is not R / sqrt(Rs Ri)" % where)


def _report_fom(errors, where, doc):
    _fom(
        errors,
        where,
        doc["pair_rate_R_per_s_mW"],
        doc["singles_rate_s_per_s_mW"],
        doc["singles_rate_i_per_s_mW"],
        doc["heralding_eta"],
        doc["purity_P"],
    )
    return {
        "R": doc["pair_rate_R_per_s_mW"],
        "Rs": doc["singles_rate_s_per_s_mW"],
        "Ri": doc["singles_rate_i_per_s_mW"],
        "eta": doc["heralding_eta"],
        "P": doc["purity_P"],
        "max_shell": doc["mode_sum_truncation"]["max_shell"],
    }


def _load(out, name):
    with open(os.path.join(out, name)) as fh:
        return json.load(fh)


def _rows(out, name):
    with open(os.path.join(out, name), newline="") as fh:
        return list(csv.DictReader(fh))


def _option(argv, flag, default):
    return float(argv[argv.index(flag) + 1]) if flag in argv else default


def _metrics(argv, out, errors):
    return _report_fom(errors, "metrics", _load(out, "metrics_report.json"))


def _sweep_rate(argv, out, errors):
    doc = _load(out, "sweep_rate.json")
    rows = _rows(out, "sweep_rate.csv")
    lo, hi = _option(argv, "--sweep-min", 50.0), _option(argv, "--sweep-max", 800.0)
    R = np.array([float(r["R"]) for r in rows])
    purity = np.array([float(r["purity"]) for r in rows])
    if not (len(rows) and np.all(R > 0)):
        errors.append("sweep-rate: empty sweep or non-positive R")
        return {}
    if not np.all((purity > 0) & (purity <= 1.0 + SLACK)):
        errors.append("sweep-rate: purity outside (0, 1]")
    k = doc["argmax_index"]
    argmax = doc["argmax_W0p_um"]
    if not lo * (1 - SLACK) <= argmax <= hi * (1 + SLACK):
        errors.append("sweep-rate: argmax %r outside [%r, %r]" % (argmax, lo, hi))
    if k != int(np.argmax(R)) or abs(float(rows[k]["swept_value"]) * 1e6 - argmax) > 1e-6 * argmax:
        errors.append("sweep-rate: argmax is not the row of largest R")
    return {
        "argmax_W0p_um": argmax,
        "argmax_index": k,
        "rows": len(rows),
        "R_max": float(R[k]),
        "P_at_argmax": float(purity[k]),
    }


def _optimize(argv, out, errors):
    doc = _load(out, "optimization.json")
    figures = {
        "W0p_star_um": doc["W0p_star_um"],
        "W0s_closed_form_um": doc["W0s_closed_form_um"],
        "W0s_purity_star_um": doc["W0s_purity_star_um"],
        "intersection_found": doc["intersection_found"],
    }
    if not 50.0 <= doc["W0p_star_um"] <= 800.0:
        errors.append("optimize: W0p_star outside [50, 800] um")
    cf = doc["W0s_closed_form_um"]
    if not 0.5 * cf * (1 - SLACK) <= doc["W0s_purity_star_um"] <= 1.2 * cf * (1 + SLACK):
        errors.append("optimize: purity waist outside its scan window")
    if doc["intersection_found"] != (doc["W0s_intersection_um"] is not None):
        errors.append("optimize: intersection flag disagrees with its waist")
    for stage, report in sorted(doc["metrics"].items()):
        for key, val in _report_fom(errors, "optimize " + stage, report).items():
            figures["%s.%s" % (stage, key)] = val
    return figures


def _jsa(argv, out, errors):
    doc = _load(out, "jsa_grid.json")
    n = _load(out, "resolved_config.json")["config"]["numerics"]["grid_resolution"]
    w_s = np.array(doc["omega_s_samples"])
    w_i = np.array(doc["omega_i_samples"])
    amp = np.array(doc["amplitude_re"]) + 1j * np.array(doc["amplitude_im"])
    if amp.shape != (n, n) or w_s.shape != (n,) or w_i.shape != (n,):
        errors.append("jsa: grid shape %r, expected %d x %d" % (amp.shape, n, n))
        return {}
    with open(os.path.join(out, "jsa_grid.csv")) as fh:
        lines = sum(1 for _ in fh)
    if lines != n * n + 1:
        errors.append("jsa: CSV has %d lines, expected %d" % (lines, n * n + 1))
    N = doc["normalization_N"]
    total = N * np.trapezoid(np.trapezoid(np.abs(amp) ** 2, w_i, axis=1), w_s)
    if not (N > 0 and abs(total - 1.0) < 1e-9):
        errors.append("jsa: normalization integrates to %r, not 1" % total)
    return {"normalization_N": N, "max_abs_phi": float(np.max(np.abs(amp)))}


def _dispersion_report(argv, out, errors):
    doc = _load(out, "dispersion_report.json")
    rows = _rows(out, "dispersion_report.csv")
    if [r["role"] for r in rows] != ["pump", "signal", "idler"]:
        errors.append("dispersion-report: expected pump, signal, idler rows")
        return {}
    figures = {}
    for r in rows:
        k, N = float(r["k_rad_per_m"]), float(r["inverse_group_velocity_s_per_m"])
        if not (k > 0 and N > 0):
            errors.append("dispersion-report: non-positive k or group delay")
        figures["k_" + r["role"]] = k
        figures["N_" + r["role"]] = N
    if not doc["cut_angle_deg"] > doc["collinear_cut_angle_deg"] > 0:
        errors.append("dispersion-report: cut angle not past the collinear one")
    if not (doc["d_eff_pm_per_V"] > 0 and doc["external_full_angle_deg"] > 0):
        errors.append("dispersion-report: non-positive d_eff or emission angle")
    for key in ("cut_angle_deg", "external_full_angle_deg", "pump_walk_off_deg", "d_eff_pm_per_V"):
        figures[key] = doc[key]
    return figures


CHECKS = {
    "metrics": _metrics,
    "sweep-rate": _sweep_rate,
    "optimize": _optimize,
    "jsa": _jsa,
    "dispersion-report": _dispersion_report,
}


def check_task(argv, rc, error):
    """(figures, errors) for one finished task."""
    if error is not None:
        return {}, [error.strip().splitlines()[-1]]
    if rc != 0:
        return {}, ["exit code %r" % (rc,)]
    errors = []
    out = argv[argv.index("--out") + 1]
    try:
        figures = CHECKS[argv[0]](argv, out, errors)
    except (OSError, ValueError, KeyError, IndexError) as exc:
        return {}, ["unreadable output: %r" % (exc,)]
    return figures, errors


def compare(figures, expected, rel_tol):
    """Fields of ``figures`` that differ from ``expected``: floats beyond
    ``rel_tol`` relative, integers and flags at all."""
    bad = []
    for key, want in expected.items():
        got = figures.get(key)
        if isinstance(want, (bool, int)):
            ok = got == want
        else:
            ok = got is not None and abs(got - want) <= rel_tol * abs(want)
        if not ok:
            bad.append("%s: %r, reference %r" % (key, got, want))
    return bad
