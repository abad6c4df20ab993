"""Command-line interface.

    spdc-lab <command> --config <path> --out <dir>
             [--grid-resolution N] [--walk-off]
             [--alpha-convention paper|consistent]

Commands: metrics, jsa, sweep-rate, sweep-ratio, optimize,
dispersion-report. All outputs are CSV/JSON; every report embeds the fully
resolved configuration. Exit codes: 0 success, 2 computation/validation
error, 3 I/O error.
"""

import argparse
import ctypes
import functools
import gc
import importlib
import json
import math
import numbers
import os
import sys
from dataclasses import asdict, replace

from .config import WAIST_RANGE_UM, load_config
from .dispersion import (
    effective_nonlinearity,
    external_angle,
    inverse_group_velocity,
    walk_off_angle,
    wave_number,
)
from .errors import ConfigError, ConvergenceError, SpdcLabError
from .jsa import jsa_grid, write_jsa_csv, write_jsa_json

COMMANDS = (
    "metrics",
    "jsa",
    "sweep-rate",
    "sweep-ratio",
    "optimize",
    "dispersion-report",
)

# the layer a command needs beyond those imported above
_LAYERS = {"metrics": "metrics", "sweep-rate": "sweep", "sweep-ratio": "sweep", "optimize": "sweep"}

if __name__ != "__main__":
    # An importer loads every layer here. All-lazy imports were measured to
    # fail: perfbench's tracer reads sys.modules right after this import, and
    # an in-process caller paid the import in its first timed task. A
    # ``python -m spdc_lab.cli`` process imports its command's layer in main().
    from . import metrics, sweep  # noqa: F401

_ALPHA_MAP = {"paper": "paper_literal", "consistent": "consistent"}

# (floor, ceiling) of --steps: each sample is a full figures-of-merit run, and
# a count np.linspace cannot allocate must fail here, as a ConfigError
_STEPS_RANGE = (1, 1001)


def _write_json(doc, path):
    # strict JSON: a non-finite number raises here, before the file opens
    text = json.dumps(doc, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w") as fh:
        fh.write(text + "\n")


def build_parser():
    parser = argparse.ArgumentParser(
        prog="spdc-lab",
        description="Pair-source figures of merit for bulk-crystal SPDC",
    )
    parser.add_argument("command", choices=COMMANDS)
    parser.add_argument("--config", required=True, help="JSON configuration file")
    parser.add_argument("--out", required=True, help="output directory")
    parser.add_argument(
        "--grid-resolution", type=int, default=None, help="override numerics.grid_resolution"
    )
    parser.add_argument(
        "--walk-off", action="store_true", help="enable the collection-tilt envelope exp(-H z^2)"
    )
    parser.add_argument(
        "--alpha-convention",
        choices=sorted(_ALPHA_MAP),
        default=None,
        help="convention for the Gaussian-model coefficients",
    )
    parser.add_argument("--sweep-min", type=float, default=None, help="sweep lower bound (um or ratio)")
    parser.add_argument("--sweep-max", type=float, default=None, help="sweep upper bound (um or ratio)")
    parser.add_argument("--steps", type=int, default=None, help="number of sweep samples")
    return parser


def _sweep_range(args, lo, hi, steps, waist_um):
    """Sweep bounds and sample count from the flags or the command's defaults;
    a bound times ``waist_um`` is the waist it sets, in um."""
    lo = lo if args.sweep_min is None else args.sweep_min
    hi = hi if args.sweep_max is None else args.sweep_max
    steps = steps if args.steps is None else args.steps
    for flag, bound in (("--sweep-min", lo), ("--sweep-max", hi)):
        if not WAIST_RANGE_UM[0] <= bound * waist_um <= WAIST_RANGE_UM[1]:
            raise ConfigError(
                "%s: sets a %g um waist; waists must lie in [%g, %g] um"
                % ((flag, bound * waist_um) + WAIST_RANGE_UM)
            )
    if not lo < hi:
        raise ConfigError("--sweep-min/--sweep-max: need min < max")
    if not _STEPS_RANGE[0] <= steps <= _STEPS_RANGE[1]:
        raise ConfigError("--steps: integer in [%d, %d] required" % _STEPS_RANGE)
    return lo, hi, steps


def _run(args):
    cfg = load_config(args.config)
    overrides = {}
    if args.grid_resolution is not None:
        overrides["grid_resolution"] = args.grid_resolution
    if args.walk_off:
        overrides["walk_off_enabled"] = True
    if args.alpha_convention is not None:
        overrides["alpha_convention"] = _ALPHA_MAP[args.alpha_convention]
    numerics = replace(cfg.numerics, **overrides)
    resolved = dict(cfg.resolved, numerics=asdict(numerics))
    out = args.out
    os.makedirs(out, exist_ok=True)

    if args.command == "metrics":
        from .metrics import compute_metrics
        report = compute_metrics(cfg.geom, cfg.crystal, cfg.filters, numerics)
        _write_json(dict(report.to_dict(), config=resolved), os.path.join(out, "metrics_report.json"))
        with open(os.path.join(out, "metrics_summary.csv"), "w") as fh:
            fh.write("R,Rs,Ri,eta,purity\n")
            fh.write(
                "%.9e,%.9e,%.9e,%.9e,%.9e\n"
                % (
                    report.pair_rate_R,
                    report.singles_rate_s,
                    report.singles_rate_i,
                    report.heralding_eta,
                    report.purity_P,
                )
            )

    elif args.command == "jsa":
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, numerics)
        write_jsa_csv(grid, os.path.join(out, "jsa_grid.csv"))
        write_jsa_json(grid, os.path.join(out, "jsa_grid.json"))
        _write_json({"config": resolved}, os.path.join(out, "resolved_config.json"))

    elif args.command == "sweep-rate":
        from .sweep import rate_vs_pump_waist, write_sweep_csv
        lo, hi, steps = _sweep_range(args, 50.0, 800.0, 76, 1.0)
        result = rate_vs_pump_waist(
            (lo * 1e-6, hi * 1e-6),
            steps,
            cfg.geom,
            cfg.crystal,
            cfg.filters,
            numerics=numerics,
        )
        write_sweep_csv(result.rows, os.path.join(out, "sweep_rate.csv"))
        _write_json(
            {
                "argmax_W0p_um": result.rows[result.argmax_index].swept_value * 1e6,
                "argmax_index": result.argmax_index,
                "config": resolved,
            },
            os.path.join(out, "sweep_rate.json"),
        )

    elif args.command == "sweep-ratio":
        from .sweep import metrics_vs_waist_ratio, write_sweep_csv
        lo, hi, steps = _sweep_range(args, 0.3, 1.1, 17, cfg.geom.W0p * 1e6)
        result = metrics_vs_waist_ratio(
            (lo, hi), steps, cfg.geom, cfg.crystal, cfg.filters, numerics
        )
        write_sweep_csv(result.rows, os.path.join(out, "sweep_ratio.csv"))
        _write_json({"config": resolved}, os.path.join(out, "sweep_ratio.json"))

    elif args.command == "optimize":
        from .sweep import optimize
        result = optimize(cfg.geom, cfg.crystal, cfg.filters, numerics=numerics)
        doc = {
            "W0p_star_um": result.W0p_star * 1e6,
            "W0s_closed_form_um": result.W0s_closed_form * 1e6,
            "W0s_purity_star_um": result.W0s_purity_star * 1e6,
            "W0s_intersection_um": (
                None
                if result.W0s_intersection is None
                else result.W0s_intersection * 1e6
            ),
            "intersection_found": result.W0s_intersection is not None,
            "metrics": {k: v.to_dict() for k, v in result.metrics.items()},
            "config": resolved,
        }
        _write_json(doc, os.path.join(out, "optimization.json"))

    elif args.command == "dispersion-report":
        crystal, geom = cfg.crystal, cfg.geom
        rows = []
        for mode in geom.modes:
            theta = crystal.cut_angle_theta if mode.polarization == "extraordinary" else 0.0
            k0 = float(
                wave_number(mode.central_angular_frequency, mode, theta, crystal)
            )
            N = inverse_group_velocity(mode, theta, crystal)
            rows.append((mode.role, mode.central_wavelength * 1e9, k0, N))
        with open(os.path.join(out, "dispersion_report.csv"), "w") as fh:
            fh.write("role,wavelength_nm,k_rad_per_m,inverse_group_velocity_s_per_m\n")
            for role, lam_nm, k0, N in rows:
                fh.write("%s,%.6f,%.9e,%.9e\n" % (role, lam_nm, k0, N))
        doc = {
            "collinear_cut_angle_deg": resolved["crystal"]["collinear_cut_angle_deg"],
            "cut_angle_deg": resolved["crystal"]["cut_angle_deg"],
            "theta_s_deg": resolved["collection"]["theta_s_deg"],
            "theta_i_deg": resolved["collection"]["theta_i_deg"],
            "external_full_angle_deg": math.degrees(
                external_angle(geom.theta_s, geom.signal.central_wavelength, crystal)
                + external_angle(geom.theta_i, geom.idler.central_wavelength, crystal)
            ),
            "pump_walk_off_deg": math.degrees(
                walk_off_angle(
                    crystal.cut_angle_theta, geom.pump.central_wavelength, crystal
                )
            ),
            "d_eff_pm_per_V": effective_nonlinearity(
                crystal.cut_angle_theta, crystal.azimuth_phi, crystal
            ),
            "config": resolved,
        }
        _write_json(doc, os.path.join(out, "dispersion_report.json"))
    return 0


@functools.cache
def _keep_freed_heap():
    """On glibc, keep freed heap for reuse, so that each new spectral grid does
    not fault in again the pages its predecessor handed back. Arrays up to
    32 MiB, glibc's ceiling for its dynamic mmap threshold, stay on the heap,
    and up to 64 MiB of free heap top is kept. Alone, the trim threshold would
    freeze the mmap threshold where it stands, so it follows that one."""
    try:
        if os.confstr("CS_GNU_LIBC_VERSION"):
            mallopt = ctypes.CDLL(None).mallopt
            mallopt.argtypes, mallopt.restype = (ctypes.c_int, ctypes.c_int), ctypes.c_int
            if mallopt(-3, 32 << 20):  # M_MMAP_THRESHOLD
                mallopt(-1, 64 << 20)  # M_TRIM_THRESHOLD
    except (AttributeError, OSError, ValueError):  # not glibc, or no mallopt
        pass


@functools.cache
def _parser():  # once per process: building a parser costs ten parses
    return build_parser()


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.command in _LAYERS:  # before the heap pin, as the imports above
        importlib.import_module("." + _LAYERS[args.command], __package__)
    _keep_freed_heap()
    try:
        return _run(args)
    except (SpdcLabError, ValueError, ArithmeticError) as exc:
        _emit_error(args, exc)
        return 2
    except OSError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}), file=sys.stderr)
        return 3


def _emit_error(args, exc):
    doc = {"error": str(exc), "type": type(exc).__name__}
    if isinstance(exc, ConvergenceError):  # its scalar estimates, null where not finite
        scalars = (float(e) for e in exc.estimates or () if isinstance(e, numbers.Real))
        doc["estimates"] = [e if math.isfinite(e) else None for e in scalars]
    print(json.dumps(doc, allow_nan=False), file=sys.stderr)
    try:
        os.makedirs(args.out, exist_ok=True)
        _write_json(doc, os.path.join(args.out, "error.json"))
    except OSError:
        pass


def _one_blas_thread():
    """Run numpy's bundled OpenBLAS on one thread: how a threaded BLAS splits
    its sums moves the last digits of purity_P and W0s_purity_star_um. A numpy
    without that library or its symbol is left as it is."""
    import numpy
    libs = os.path.join(os.path.dirname(os.path.dirname(numpy.__file__)), "numpy.libs")
    try:
        for name in os.listdir(libs):
            if name.startswith("libscipy_openblas64_"):
                set_threads = ctypes.CDLL(os.path.join(libs, name)).scipy_openblas_set_num_threads64_
                set_threads.argtypes, set_threads.restype = (ctypes.c_int,), None
                set_threads(1)
    except (AttributeError, OSError):  # no numpy.libs, library or symbol
        pass


def run(argv=None):
    """Entry of ``python -m spdc_lab.cli`` and the ``spdc-lab`` script: one
    BLAS thread, main(), then a frozen heap, which the final collections at
    exit skip. Atexit handlers and the stdio flush still run; finalizers of
    frozen cyclic garbage do not. A process that goes on working calls
    ``main``."""
    _one_blas_thread()
    code = main(argv)
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
