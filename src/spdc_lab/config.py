"""Configuration ingestion: JSON in, validated physics objects out.

Interface units follow the conventions of the problem domain (nm, um,
degrees, THz, mW); everything is converted to SI here, once. The resolved
configuration (defaults applied, derived quantities included) is echoed into
every output for auditability.
"""

import json
import math
from dataclasses import dataclass, replace
from importlib import resources

from .dispersion import (
    OpticalMode,
    collinear_cut_angle,
    emission_angles,
    load_crystal,
)
from .errors import ConfigError
from .filters import FilterBank, FilterSpec
from .jsa import ALPHA_CONVENTIONS, BeamGeometry, MIN_GRID_RESOLUTION
from .units import (
    FREQUENCY_CONVENTIONS,
    deg_to_rad,
    nm_to_m,
    rad_to_deg,
    thz_to_rad_per_s,
    um_to_m,
    wavelength_to_angular_frequency,
)

NUMERICS_DEFAULTS = {
    "grid_resolution": 201,
    "dispersion_mode": "exact",
    "alpha_convention": "paper_literal",
    "decompose": "amplitude",
    "walk_off_enabled": False,
    "frequency_convention": "angular",
    "truncation_max_order": 20,
    "rate_resolution": 101,
    "singles_resolution": 101,
}

_ENUMS = {
    "dispersion_mode": ("exact", "linear"),
    "alpha_convention": ALPHA_CONVENTIONS,
    "decompose": ("amplitude", "intensity"),
    "frequency_convention": FREQUENCY_CONVENTIONS,
}


@dataclass(frozen=True)
class RunConfig:
    """Validated run inputs plus the resolved-dictionary echo."""

    crystal: object
    geom: BeamGeometry
    filters: FilterBank
    numerics: dict
    resolved: dict


def shipped_config_path(name):
    """Absolute path of a packaged example configuration."""
    fname = name if name.endswith(".json") else name + ".json"
    return str(resources.files("spdc_lab").joinpath("data", "configs", fname))


def _require(section, key, path):
    if key not in section:
        raise ConfigError("%s.%s: missing required field" % (path, key))
    return section[key]


def _positive(value, path):
    if not isinstance(value, (int, float)) or not math.isfinite(value) or value <= 0:
        raise ConfigError("%s: must be a positive number" % path)
    return float(value)


def load_config(path):
    """Parse, default-fill, and validate a JSON run configuration."""
    with open(path) as fh:
        try:
            raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError("not valid JSON: %s" % exc) from exc

    for section in ("crystal", "pump", "collection"):
        if section not in raw:
            raise ConfigError("%s: missing required section" % section)

    numerics = dict(NUMERICS_DEFAULTS)
    numerics.update(raw.get("numerics", {}))
    for key in numerics:
        if key not in NUMERICS_DEFAULTS:
            raise ConfigError("numerics.%s: unknown field" % key)
    for key, allowed in _ENUMS.items():
        if numerics[key] not in allowed:
            raise ConfigError(
                "numerics.%s: must be one of %s" % (key, ", ".join(allowed))
            )
    if not isinstance(numerics["grid_resolution"], int) or numerics[
        "grid_resolution"
    ] < MIN_GRID_RESOLUTION:
        raise ConfigError(
            "numerics.grid_resolution: integer >= %d required" % MIN_GRID_RESOLUTION
        )
    if not isinstance(numerics["truncation_max_order"], int) or numerics[
        "truncation_max_order"
    ] < 4:
        raise ConfigError("numerics.truncation_max_order: integer >= 4 required")
    convention = numerics["frequency_convention"]

    pump = raw["pump"]
    lam_p = nm_to_m(_positive(_require(pump, "wavelength_nm", "pump"), "pump.wavelength_nm"))
    B_p = thz_to_rad_per_s(
        _positive(_require(pump, "bandwidth_thz", "pump"), "pump.bandwidth_thz"),
        convention,
    )
    power_mW = _positive(pump.get("power_mW", 1.0), "pump.power_mW")
    W0p = um_to_m(_positive(_require(pump, "waist_um", "pump"), "pump.waist_um"))

    coll = raw["collection"]
    lam_s = nm_to_m(
        _positive(
            _require(coll, "signal_wavelength_nm", "collection"),
            "collection.signal_wavelength_nm",
        )
    )
    degenerate = bool(coll.get("degenerate", False))
    if "idler_wavelength_nm" in coll:
        lam_i = nm_to_m(
            _positive(coll["idler_wavelength_nm"], "collection.idler_wavelength_nm")
        )
    elif degenerate:
        lam_i = lam_s
    else:
        inv = 1.0 / lam_p - 1.0 / lam_s
        if inv <= 0:
            raise ConfigError(
                "collection.signal_wavelength_nm: no energy-conserving idler exists "
                "for this pump"
            )
        lam_i = 1.0 / inv
    mismatch = abs(1.0 / lam_p - 1.0 / lam_s - 1.0 / lam_i) * lam_p
    if mismatch > 1e-6:
        suggestion = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
        raise ConfigError(
            "collection.idler_wavelength_nm: energy conservation violated; "
            "the energy-conserving value is %.4f nm" % (suggestion * 1e9)
        )
    W0s = um_to_m(_positive(_require(coll, "waist_um", "collection"), "collection.waist_um"))
    cut_detuning = deg_to_rad(
        _positive(_require(coll, "cut_detuning_deg", "collection"), "collection.cut_detuning_deg")
    )

    cry = raw["crystal"]
    name = _require(cry, "name", "crystal")
    length_L = um_to_m(_positive(_require(cry, "length_um", "crystal"), "crystal.length_um"))
    azimuth = deg_to_rad(float(cry.get("azimuth_phi_deg", 0.0)))
    # provisional cut angle; replaced once the collinear angle is known
    crystal = load_crystal(name, length_L, math.pi / 6.0, azimuth)
    theta_c = collinear_cut_angle(lam_p, lam_s, lam_i, crystal)
    crystal = replace(crystal, cut_angle_theta=theta_c + cut_detuning)
    theta_s, theta_i = emission_angles(cut_detuning, lam_s, lam_i, crystal)

    modes = (
        OpticalMode("pump", "extraordinary", lam_p),
        OpticalMode("signal", "ordinary", lam_s),
        OpticalMode("idler", "ordinary", lam_i),
    )
    geom = BeamGeometry(
        W0p=W0p,
        W0s=W0s,
        W0i=W0s,
        theta_s=theta_s,
        theta_i=theta_i,
        pump_bandwidth_Bp=B_p,
        pump_power_P=power_mW,
        modes=modes,
    )

    filt = raw.get("filters", {})
    transmission = float(filt.get("transmission", 1.0))
    hw_s = thz_to_rad_per_s(
        _positive(filt.get("signal_halfwidth_thz", 5.0), "filters.signal_halfwidth_thz"),
        convention,
    )
    hw_i = thz_to_rad_per_s(
        _positive(filt.get("idler_halfwidth_thz", 5.0), "filters.idler_halfwidth_thz"),
        convention,
    )
    hw_p_thz = pump.get(
        "filter_halfwidth_thz",
        2.0 * float(filt.get("signal_halfwidth_thz", 5.0)),
    )
    hw_p = thz_to_rad_per_s(_positive(hw_p_thz, "pump.filter_halfwidth_thz"), convention)
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
            "azimuth_phi_deg": rad_to_deg(azimuth),
            "collinear_cut_angle_deg": rad_to_deg(theta_c),
            "cut_angle_deg": rad_to_deg(crystal.cut_angle_theta),
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
            "cut_detuning_deg": rad_to_deg(cut_detuning),
            "theta_s_deg": rad_to_deg(theta_s),
            "theta_i_deg": rad_to_deg(theta_i),
        },
        "filters": {
            "signal_halfwidth_rad_per_s": hw_s,
            "idler_halfwidth_rad_per_s": hw_i,
            "transmission": transmission,
        },
        "numerics": dict(numerics),
    }
    return RunConfig(
        crystal=crystal, geom=geom, filters=filters, numerics=numerics, resolved=resolved
    )
