"""Unit conversions at the interface boundary.

All internal math uses SI: meters, rad/s, rad/m, seconds, watts. Interfaces
accept nm, um, degrees, THz, mW, and ``config`` converts them. "THz" inputs are
ambiguous between angular (1e12 rad/s) and ordinary (2*pi*1e12 rad/s)
frequency; the ``frequency_convention`` switch makes the choice explicit.
"""

import math

# CODATA 2022 values, written out so the package needs numpy only
c = 299792458.0
epsilon_0 = 8.8541878188e-12

TWO_PI = 2.0 * math.pi

FREQUENCY_CONVENTIONS = ("angular", "ordinary")


def thz_to_rad_per_s(x, convention):
    """Convert a value quoted in THz to rad/s under the chosen convention."""
    if convention not in FREQUENCY_CONVENTIONS:
        raise ValueError("unknown frequency convention: %r" % (convention,))
    scale = 1e12 if convention == "angular" else TWO_PI * 1e12
    return x * scale


def wavelength_to_angular_frequency(lam_m):
    return TWO_PI * c / lam_m
