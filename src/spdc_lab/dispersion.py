"""Dispersion and phase-matching for a negative uniaxial crystal.

Refractive indices come from a Sellmeier fit of the form

    n^2 = a + b / (lambda_um^2 - c) - d * lambda_um^2

with coefficients shipped in a versioned JSON data file (BBO by default).
Wavelengths at every public interface are meters; the micrometer conversion
happens only inside the Sellmeier evaluation.
"""

import json
import math
import os
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import (
    PhaseMatchingError,
    TotalInternalReflectionError,
    WavelengthWindowError,
)
from .units import TWO_PI, c, wavelength_to_angular_frequency

CRYSTAL_DIR_ENV = "SPDC_LAB_CRYSTAL_DIR"
# the packaged datasets and example configurations
DATA_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

ROLES = ("pump", "signal", "idler")
POLARIZATIONS = ("ordinary", "extraordinary")


@dataclass(frozen=True)
class CrystalSpec:
    """Dispersion data plus the geometric parameters of one crystal sample.

    Sellmeier coefficient tuples are (a, b, c, d) for the formula above;
    d11 and d31 are nonlinear tensor elements in pm/V; length_L in meters;
    cut_angle_theta and azimuth_phi in radians. cut_angle_theta is the angle
    between the optic axis and the pump propagation direction.
    """

    name: str
    sellmeier_o: tuple
    sellmeier_e: tuple
    validity_window: tuple  # (lambda_min, lambda_max) in meters
    d11: float
    d31: float
    length_L: float
    cut_angle_theta: float
    azimuth_phi: float = 0.0
    source_citations: tuple = field(default=(), compare=False)

    def __post_init__(self):
        if self.length_L <= 0:
            raise ValueError("length_L must be positive")
        if not 0.0 < self.cut_angle_theta < math.pi / 2:
            raise ValueError("cut_angle_theta must lie in (0, pi/2)")
        _check_dataset(*map(tuple, (self.sellmeier_o, self.sellmeier_e, self.validity_window)))


@lru_cache(maxsize=8)
def _check_dataset(sellmeier_o, sellmeier_e, validity_window):
    """Spot-check a dataset over its window: n > 1, and n_e < n_o (negative
    uniaxial). Held once passed, so ``replace`` of a crystal skips it."""
    lo, hi = validity_window
    if not 0 < lo < hi:
        raise ValueError("validity window must satisfy 0 < lo < hi")
    lam = np.linspace(lo * (1 + 1e-9), hi * (1 - 1e-9), 64)
    n_o = _sellmeier_index(sellmeier_o, lam)
    n_e = _sellmeier_index(sellmeier_e, lam)
    if not (np.all(n_o > 1.0) and np.all(n_e > 1.0)):
        raise ValueError("Sellmeier data yields n <= 1 inside the window")
    if not np.all(n_e < n_o):
        raise ValueError("dataset is not negative uniaxial (n_e >= n_o)")


@dataclass(frozen=True)
class OpticalMode:
    """One interacting field: role, polarization, and center wavelength."""

    role: str
    polarization: str
    central_wavelength: float  # meters

    def __post_init__(self):
        if self.role not in ROLES:
            raise ValueError("role must be one of %s" % (ROLES,))
        if self.polarization not in POLARIZATIONS:
            raise ValueError("polarization must be one of %s" % (POLARIZATIONS,))
        if self.central_wavelength <= 0:
            raise ValueError("central_wavelength must be positive")

    @property
    def central_angular_frequency(self):
        """Center frequency in rad/s."""
        return wavelength_to_angular_frequency(self.central_wavelength)


def _sellmeier_index(coeffs, lam_m):
    a, b, cc, d = coeffs
    l2 = (np.asarray(lam_m) * 1e6) ** 2  # um^2
    n2 = a + b / (l2 - cc) - d * l2
    return np.sqrt(n2)


def _check_window(lam_m, crystal):
    lo, hi = crystal.validity_window
    if isinstance(lam_m, float):  # a float skips numpy's array calls; NaN passes
        outside = lam_m < lo or lam_m > hi
    else:
        lam = np.asarray(lam_m)
        outside = np.any(lam < lo) or np.any(lam > hi)
    if outside:
        raise WavelengthWindowError(
            "wavelength outside the %s dispersion-data window [%.1f, %.1f] nm"
            % (crystal.name, lo * 1e9, hi * 1e9)
        )


def load_crystal(name, length_L, cut_angle_theta, azimuth_phi=0.0):
    """Build a CrystalSpec from the JSON dataset ``<name>.json``.

    ``name`` is a dataset name, not a path. The dataset is looked up in the
    directory named by the SPDC_LAB_CRYSTAL_DIR environment variable, then in
    the packaged data directory, and nowhere else. A missing dataset raises
    OSError; a path for ``name`` or a malformed dataset, ValueError.
    """
    if os.path.basename(name) != name:
        raise ValueError("%r is a path, not a crystal dataset name" % name)
    fname = name + ".json"
    override = os.environ.get(CRYSTAL_DIR_ENV)
    path = os.path.join(override, fname) if override else ""
    if not os.path.isfile(path):
        path = os.path.join(DATA_DIR, fname)
    with open(path) as fh:
        try:
            raw = json.load(fh)
            lo_nm, hi_nm = raw["validity_window_nm"]
            return CrystalSpec(
                name=raw["name"],
                sellmeier_o=tuple(raw["sellmeier_o"]),
                sellmeier_e=tuple(raw["sellmeier_e"]),
                validity_window=(lo_nm * 1e-9, hi_nm * 1e-9),
                d11=raw["d11_pm_per_V"],
                d31=raw["d31_pm_per_V"],
                length_L=length_L,
                cut_angle_theta=cut_angle_theta,
                azimuth_phi=azimuth_phi,
                source_citations=tuple(raw.get("source_citations", ())),
            )
        except KeyError as exc:
            raise ValueError("crystal dataset %s: missing field %s" % (path, exc)) from exc
        except (TypeError, ValueError) as exc:
            raise ValueError("crystal dataset %s: %s" % (path, exc)) from exc


def index_ordinary(lam_m, crystal):
    """Ordinary refractive index n_o(lambda)."""
    _check_window(lam_m, crystal)
    return _sellmeier_index(crystal.sellmeier_o, lam_m)


def index_extraordinary_principal(lam_m, crystal):
    """Principal extraordinary index n_e(lambda) (optic axis at 90 deg)."""
    _check_window(lam_m, crystal)
    return _sellmeier_index(crystal.sellmeier_e, lam_m)


def index_extraordinary(lam_m, theta, crystal):
    """Angle-tuned extraordinary index n_e(theta, lambda).

    Satisfies 1/n^2 = cos^2(theta)/n_o^2 + sin^2(theta)/n_e_principal^2,
    so it runs monotonically from n_o at theta=0 to the principal value at
    theta=pi/2.
    """
    n_o = index_ordinary(lam_m, crystal)
    n_ep = index_extraordinary_principal(lam_m, crystal)
    return 1.0 / np.sqrt(
        np.cos(theta) ** 2 / n_o**2 + np.sin(theta) ** 2 / n_ep**2
    )


def wave_number(omega, mode, theta, crystal):
    """k = n(omega, theta) * omega / c with n selected by polarization."""
    omega = np.asarray(omega, dtype=float)
    lam = TWO_PI * c / omega
    if mode.polarization == "ordinary":
        n = index_ordinary(lam, crystal)
    else:
        n = index_extraordinary(lam, theta, crystal)
    return n * omega / c


def _sellmeier_dn_dlam_um(coeffs, lam_um):
    # derivative of n wrt lambda (per um): dn/dl = (1/2n) d(n^2)/dl
    a, b, cc, d = coeffs
    l2 = lam_um**2
    n = np.sqrt(a + b / (l2 - cc) - d * l2)
    dn2 = (-b / (l2 - cc) ** 2 - d) * 2.0 * lam_um
    return dn2 / (2.0 * n)


def inverse_group_velocity(mode, theta, crystal):
    """N = dk/domega at the mode's center frequency, in s/m.

    Computed analytically from the index formula: N = (n - lambda dn/dlambda)/c.
    """
    lam = mode.central_wavelength
    _check_window(lam, crystal)
    lam_um = lam * 1e6
    if mode.polarization == "ordinary":
        n = _sellmeier_index(crystal.sellmeier_o, lam)
        dn = _sellmeier_dn_dlam_um(crystal.sellmeier_o, lam_um)
    else:
        n_o = _sellmeier_index(crystal.sellmeier_o, lam)
        n_ep = _sellmeier_index(crystal.sellmeier_e, lam)
        dn_o = _sellmeier_dn_dlam_um(crystal.sellmeier_o, lam_um)
        dn_ep = _sellmeier_dn_dlam_um(crystal.sellmeier_e, lam_um)
        cos2, sin2 = math.cos(theta) ** 2, math.sin(theta) ** 2
        n = 1.0 / math.sqrt(cos2 / n_o**2 + sin2 / n_ep**2)
        dn = n**3 * (cos2 * dn_o / n_o**3 + sin2 * dn_ep / n_ep**3)
    return (n - lam_um * dn) / c


def effective_nonlinearity(theta, phi, crystal):
    """d_eff = d11 cos(3 phi) cos(theta) - d31 sin(theta), in pm/V."""
    return crystal.d11 * math.cos(3 * phi) * math.cos(theta) - crystal.d31 * math.sin(theta)


def _central_k(lam, crystal, theta=None):
    """Wave number at a central wavelength, in rad/m: ordinary, or
    extraordinary at ``theta``."""
    n = index_ordinary(lam, crystal) if theta is None else index_extraordinary(lam, theta, crystal)
    return float(n) * wavelength_to_angular_frequency(lam) / c


def collinear_cut_angle(lam_p, lam_s, lam_i, crystal):
    """Cut angle theta_c that closes the collinear momentum mismatch.

    k_p(theta_c) = k_s + k_i when the pump sees the index n_t = c (k_s + k_i)
    / omega_p, and the index ellipse gives sin^2(theta_c) = (1/n_t^2 -
    1/n_o^2) / (1/n_e^2 - 1/n_o^2). The root must lie in [1e-6, pi/2 - 1e-6];
    k_p(theta) is monotonic, so the two ends bound the mismatch in between.
    """
    if abs(1 / lam_p - 1 / lam_s - 1 / lam_i) > 1e-6 * (1 / lam_p):
        raise ValueError(
            "central wavelengths violate energy conservation: 1/lam_p != 1/lam_s + 1/lam_i"
        )
    k_0 = wavelength_to_angular_frequency(lam_p) / c
    n_t = (_central_k(lam_s, crystal) + _central_k(lam_i, crystal)) / k_0
    n_o = float(index_ordinary(lam_p, crystal))
    n_e = float(index_extraordinary_principal(lam_p, crystal))
    sin2 = (1 / n_t**2 - 1 / n_o**2) / (1 / n_e**2 - 1 / n_o**2)
    if not math.sin(1e-6) ** 2 <= sin2 <= math.cos(1e-6) ** 2:
        if max(abs(n_o - n_t), abs(n_e - n_t)) * k_0 < 1.0:
            raise PhaseMatchingError(
                "no unique solution: mismatch vanishes at every angle"
            )
        raise PhaseMatchingError("no phase-matching solution in (0, pi/2)")
    return math.asin(math.sqrt(sin2))


def emission_angles(cut_detuning, lam_s, lam_i, crystal):
    """Internal emission angles (theta_s, theta_i) at a detuned cut angle.

    With the crystal axis ``cut_detuning`` past the collinear cut angle, k_p,
    k_s and k_i close a triangle: 1 - cos(theta_s) = (k_s + k_i - k_p)
    (k_p + k_i - k_s) / (2 k_p k_s), free of cancellation, and k_s
    sin(theta_s) = k_i sin(theta_i). Both angles are zero at or below the
    noncollinear threshold, k_s + k_i - k_p <= 1e-3 rad/m.
    """
    if cut_detuning < 0:
        raise ValueError("cut_detuning must be nonnegative")
    lam_p = 1.0 / (1.0 / lam_s + 1.0 / lam_i)
    theta_cut = collinear_cut_angle(lam_p, lam_s, lam_i, crystal) + cut_detuning
    k_p = _central_k(lam_p, crystal, theta_cut)
    k_s, k_i = _central_k(lam_s, crystal), _central_k(lam_i, crystal)
    excess = k_s + k_i - k_p
    if excess <= 1e-3:
        # at (or numerically below) the noncollinear threshold
        if cut_detuning > 1e-9:
            warnings.warn(
                "cut detuning below the noncollinear threshold; returning zero angles"
            )
        return 0.0, 0.0
    theta_s = 2.0 * math.asin(math.sqrt(excess * (k_p + k_i - k_s) / (4.0 * k_p * k_s)))
    if lam_s == lam_i:  # k_s == k_i: theta_i is theta_s, not an asin a bit off it
        return theta_s, theta_s
    return theta_s, math.asin(k_s * math.sin(theta_s) / k_i)


def external_angle(theta_internal, lam_m, crystal):
    """Refraction of an ordinary ray at the exit face: sin out = n sin in."""
    n = float(index_ordinary(lam_m, crystal))
    s = n * math.sin(theta_internal)
    if s >= 1.0:
        raise TotalInternalReflectionError(
            "internal angle exceeds the critical angle (n sin theta = %.3f)" % s
        )
    return math.asin(s)


def walk_off_angle(theta, lam_m, crystal):
    """Poynting walk-off of the extraordinary wave, rho(theta), in radians."""
    n_o = float(index_ordinary(lam_m, crystal))
    n_ep = float(index_extraordinary_principal(lam_m, crystal))
    return math.atan((n_o / n_ep) ** 2 * math.tan(theta)) - theta
