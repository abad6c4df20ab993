"""Configuration ingestion: JSON in, validated physics objects out.

Interface units follow the conventions of the problem domain (nm, um,
degrees, THz, mW); everything is converted to SI here, once. The resolved
configuration (defaults applied, derived quantities included) is echoed into
every output for auditability.
"""

import json
import math
import os
from dataclasses import asdict, dataclass, fields, replace

from .dispersion import (
    DATA_DIR,
    OpticalMode,
    collinear_cut_angle,
    emission_angles,
    load_crystal,
)
from .errors import ConfigError
from .filters import FilterBank, FilterSpec
from .jsa import ALPHA_CONVENTIONS, BeamGeometry, MAX_EMISSION_ANGLE
from .units import (
    FREQUENCY_CONVENTIONS,
    thz_to_rad_per_s,
    wavelength_to_angular_frequency,
)

_ENUMS = {
    "dispersion_mode": ("exact",),  # kept so that configs that list it load
    "alpha_convention": ALPHA_CONVENTIONS,
    "decompose": ("amplitude", "intensity"),
    "frequency_convention": FREQUENCY_CONVENTIONS,
}

MAX_RATE_RESOLUTION = 801  # finest level of the pair-rate doubling N -> 2N - 1

# (floor, ceiling) of a beam waist in um: a waist near the wavelength breaks
# the paraxial Gaussian-beam model; both ends keep W^2 and 1/W^2 finite
WAIST_RANGE_UM = (1.0, 1e6)
# (floor, ceiling) of the pump bandwidth in THz: under either frequency
# convention both ends keep B_p, B_p^2 and 1/B_p^2 finite and nonzero
BANDWIDTH_RANGE_THZ = (1e-6, 1e6)

# (floor, ceiling) of the integer fields: the rate resolution leaves room for
# one doubling within MAX_RATE_RESOLUTION, the singles grid is no finer than
# that, the JSA grid has 64 to 4001 points a side (4001^2 float64 is 128 MB)
# and 2^m m! is a finite float up to m = 150
_INT_RANGES = {
    "grid_resolution": (64, 4001),
    "truncation_max_order": (4, 150),
    "rate_resolution": (2, (MAX_RATE_RESOLUTION + 1) // 2),
    "singles_resolution": (2, MAX_RATE_RESOLUTION),
}


@dataclass(frozen=True)
class Numerics:
    """Numerical settings of a run. The field names are the keys of the
    configuration's ``numerics`` section; every field is checked here."""

    grid_resolution: int = 201
    dispersion_mode: str = "exact"
    alpha_convention: str = "paper_literal"
    decompose: str = "amplitude"
    walk_off_enabled: bool = False
    frequency_convention: str = "angular"
    truncation_max_order: int = 20
    rate_resolution: int = 101
    singles_resolution: int = 101

    def __post_init__(self):
        for key, allowed in _ENUMS.items():
            if getattr(self, key) not in allowed:
                raise ConfigError(
                    "numerics.%s: must be one of %s" % (key, ", ".join(allowed))
                )
        if not isinstance(self.walk_off_enabled, bool):
            raise ConfigError("numerics.walk_off_enabled: must be true or false")
        for key, (floor, ceiling) in _INT_RANGES.items():
            value = getattr(self, key)
            if type(value) is not int or not floor <= value <= ceiling:
                raise ConfigError(
                    "numerics.%s: integer in [%d, %d] required" % (key, floor, ceiling)
                )


_SECTION_KEYS = {
    "crystal": ("name", "length_um", "azimuth_phi_deg"),
    "pump": (
        "wavelength_nm",
        "bandwidth_thz",
        "power_mW",
        "waist_um",
        "filter_halfwidth_thz",
    ),
    "collection": (
        "signal_wavelength_nm",
        "idler_wavelength_nm",
        "degenerate",
        "waist_um",
        "cut_detuning_deg",
    ),
    "filters": ("signal_halfwidth_thz", "idler_halfwidth_thz", "transmission"),
    "numerics": tuple(field.name for field in fields(Numerics)),
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs plus the resolved-dictionary echo."""

    crystal: object
    geom: BeamGeometry
    filters: FilterBank
    numerics: Numerics
    resolved: dict


def shipped_config_path(name):
    """Absolute path of a packaged example configuration."""
    fname = name if name.endswith(".json") else name + ".json"
    return os.path.join(DATA_DIR, "configs", fname)


def _finite(value):
    """True for a finite JSON number; a bool is not a number here, nor is an
    integer beyond the float range."""
    if type(value) not in (int, float):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def _positive(section, name, key, default=None):
    """``section[key]`` as a positive float; ``default`` when the key is
    absent, which is an error when there is no default."""
    path = "%s.%s" % (name, key)
    if key not in section and default is None:
        raise ConfigError("%s: missing required field" % path)
    value = section.get(key, default)
    if not _finite(value) or value <= 0:
        raise ConfigError("%s: must be a positive number" % path)
    return float(value)


def _bounded(section, name, key, bounds, unit):
    """``section[key]``, a required positive float, checked against ``bounds``."""
    value = _positive(section, name, key)
    if not bounds[0] <= value <= bounds[1]:
        raise ConfigError("%s.%s: must lie in [%g, %g] %s" % ((name, key) + bounds + (unit,)))
    return value


def _section(raw, key, required=True):
    """``raw[key]`` as a JSON object holding only known fields."""
    if key not in raw:
        if required:
            raise ConfigError("%s: missing required section" % key)
        return {}
    section = raw[key]
    if not isinstance(section, dict):
        raise ConfigError("%s: must be a JSON object" % key)
    for field in section:
        if field not in _SECTION_KEYS[key]:
            raise ConfigError("%s.%s: unknown field" % (key, field))
    return section


def load_config(path):
    """Parse, default-fill, and validate a JSON run configuration."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("not valid JSON: %s" % exc) from exc
    if not isinstance(raw, dict):
        raise ConfigError("configuration: must be a JSON object")
    for key in raw:
        if key not in _SECTION_KEYS:
            raise ConfigError("%s: unknown field" % key)
    cry, pump, coll = (_section(raw, key) for key in ("crystal", "pump", "collection"))
    filt = _section(raw, "filters", required=False)
    numerics = Numerics(**_section(raw, "numerics", required=False))
    convention = numerics.frequency_convention

    lam_p = _positive(pump, "pump", "wavelength_nm") * 1e-9
    B_p = thz_to_rad_per_s(
        _bounded(pump, "pump", "bandwidth_thz", BANDWIDTH_RANGE_THZ, "THz"), convention
    )
    power_mW = _positive(pump, "pump", "power_mW", 1.0)
    W0p = _bounded(pump, "pump", "waist_um", WAIST_RANGE_UM, "um") * 1e-6

    lam_s = _positive(coll, "collection", "signal_wavelength_nm") * 1e-9
    degenerate = coll.get("degenerate", False)
    if not isinstance(degenerate, bool):
        raise ConfigError("collection.degenerate: must be true or false")
    inv = 1.0 / lam_p - 1.0 / lam_s  # 1 / the energy-conserving idler wavelength
    if inv <= 0:
        raise ConfigError(
            "collection.signal_wavelength_nm: no energy-conserving idler exists "
            "for this pump (the signal must be longer than the pump wavelength)"
        )
    if "idler_wavelength_nm" in coll:
        lam_i = _positive(coll, "collection", "idler_wavelength_nm") * 1e-9
        if degenerate and abs(lam_s / lam_i - 1.0) > 1e-6:
            raise ConfigError("collection.degenerate: true, but the idler differs from the signal")
    else:
        lam_i = lam_s if degenerate else 1.0 / inv
    if abs(inv - 1.0 / lam_i) * lam_p > 1e-6:
        if "idler_wavelength_nm" not in coll:  # degenerate: the idler is the signal
            raise ConfigError(
                "collection.signal_wavelength_nm: energy conservation violated for a degenerate "
                "pair; the degenerate value is twice the pump wavelength, %.4f nm" % (2e9 * lam_p)
            )
        raise ConfigError(
            "collection.idler_wavelength_nm: energy conservation violated; "
            "the energy-conserving value is %.4f nm" % (1e9 / inv)
        )
    hw_s_thz = _positive(filt, "filters", "signal_halfwidth_thz", 5.0)
    hw_s = thz_to_rad_per_s(hw_s_thz, convention)
    hw_i = thz_to_rad_per_s(
        _positive(filt, "filters", "idler_halfwidth_thz", 5.0), convention
    )
    W0s = _bounded(coll, "collection", "waist_um", WAIST_RANGE_UM, "um") * 1e-6
    cut_detuning = math.radians(_positive(coll, "collection", "cut_detuning_deg"))

    if "name" not in cry:
        raise ConfigError("crystal.name: missing required field")
    name = cry["name"]
    if not isinstance(name, str):
        raise ConfigError("crystal.name: must be a string")
    length_L = _positive(cry, "crystal", "length_um") * 1e-6
    azimuth_deg = cry.get("azimuth_phi_deg", 0.0)
    if not _finite(azimuth_deg):
        raise ConfigError("crystal.azimuth_phi_deg: must be a finite number")
    azimuth = math.radians(float(azimuth_deg))
    # provisional cut angle; replaced once the collinear angle is known
    try:
        crystal = load_crystal(name, length_L, math.pi / 6.0, azimuth)
    except OSError as exc:
        raise ConfigError("crystal.name: no crystal dataset named %r" % name) from exc
    except ValueError as exc:
        raise ConfigError("crystal.name: %s" % exc) from exc
    lo, hi = crystal.validity_window
    # the central wavelengths, then the filter windows the spectral grids span
    # and the sum band on which they evaluate the pump; 2 pi c / x maps a
    # frequency to its wavelength as well
    w_s, w_i = wavelength_to_angular_frequency(lam_s), wavelength_to_angular_frequency(lam_i)
    for key, w, half in (
        ("pump.wavelength_nm", wavelength_to_angular_frequency(lam_p), 0.0),
        ("collection.signal_wavelength_nm", w_s, 0.0),
        ("collection.idler_wavelength_nm", w_i, 0.0),
        ("filters.signal_halfwidth_thz", w_s, hw_s),
        ("filters.idler_halfwidth_thz", w_i, hw_i),
        ("pump.wavelength_nm", w_s + w_i, hw_s + hw_i),
    ):
        longest = wavelength_to_angular_frequency(w - half) if w > half else math.inf
        for lam in (wavelength_to_angular_frequency(w + half), longest):
            if not lo <= lam <= hi:
                raise ConfigError(
                    "%s: the spectral grid reaches %.1f nm, outside the %s dispersion-data "
                    "window [%.1f, %.1f] nm" % (key, lam * 1e9, crystal.name, lo * 1e9, hi * 1e9)
                )
    theta_c = collinear_cut_angle(lam_p, lam_s, lam_i, crystal)
    theta_s, theta_i = emission_angles(cut_detuning, lam_s, lam_i, crystal)
    if theta_c + cut_detuning >= math.pi / 2 or max(theta_s, theta_i) >= MAX_EMISSION_ANGLE:
        raise ConfigError(
            "collection.cut_detuning_deg: gives a %.2f deg cut and emission angles %.4f, %.4f "
            "rad; the cut must stay below 90 deg and the angles below %g rad (small-angle "
            "regime)" % (math.degrees(theta_c + cut_detuning), theta_s, theta_i, MAX_EMISSION_ANGLE)
        )
    crystal = replace(crystal, cut_angle_theta=theta_c + cut_detuning)

    modes = (
        OpticalMode("pump", "extraordinary", lam_p),
        OpticalMode("signal", "ordinary", lam_s),
        OpticalMode("idler", "ordinary", lam_i),
    )
    geom = BeamGeometry(
        W0p=W0p,
        W0s=W0s,
        theta_s=theta_s,
        theta_i=theta_i,
        pump_bandwidth_Bp=B_p,
        modes=modes,
    )

    transmission = filt.get("transmission", 1.0)
    if not _finite(transmission) or not 0.0 < transmission <= 1.0:
        raise ConfigError("filters.transmission: must be a number in (0, 1]")
    transmission = float(transmission)
    hw_p = thz_to_rad_per_s(
        _positive(pump, "pump", "filter_halfwidth_thz", 2.0 * hw_s_thz), convention
    )
    filters = FilterBank(
        signal=FilterSpec(
            center=modes[1].central_angular_frequency,
            half_width=hw_s,
            transmission=transmission,
        ),
        idler=FilterSpec(
            center=modes[2].central_angular_frequency,
            half_width=hw_i,
            transmission=transmission,
        ),
        pump=FilterSpec(
            center=wavelength_to_angular_frequency(lam_p),
            half_width=hw_p,
            transmission=1.0,
        ),
    )

    resolved = {
        "crystal": {
            "name": crystal.name,
            "length_um": length_L * 1e6,
            "azimuth_phi_deg": math.degrees(azimuth),
            "collinear_cut_angle_deg": math.degrees(theta_c),
            "cut_angle_deg": math.degrees(crystal.cut_angle_theta),
            "d11_pm_per_V": crystal.d11,
            "d31_pm_per_V": crystal.d31,
        },
        "pump": {
            "wavelength_nm": lam_p * 1e9,
            "bandwidth_rad_per_s": B_p,
            "power_mW": power_mW,
            "waist_um": W0p * 1e6,
            "filter_halfwidth_rad_per_s": hw_p,
        },
        "collection": {
            "signal_wavelength_nm": lam_s * 1e9,
            "idler_wavelength_nm": lam_i * 1e9,
            "waist_um": W0s * 1e6,
            "cut_detuning_deg": math.degrees(cut_detuning),
            "theta_s_deg": math.degrees(theta_s),
            "theta_i_deg": math.degrees(theta_i),
        },
        "filters": {
            "signal_halfwidth_rad_per_s": hw_s,
            "idler_halfwidth_rad_per_s": hw_i,
            "transmission": transmission,
        },
        "numerics": asdict(numerics),
    }
    return RunConfig(
        crystal=crystal, geom=geom, filters=filters, numerics=numerics, resolved=resolved
    )
