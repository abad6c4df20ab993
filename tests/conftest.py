import importlib.util
import json
import math
import sys
from pathlib import Path
from typing import NamedTuple

import pytest

from spdc_lab.config import load_config, shipped_config_path
from spdc_lab.dispersion import inverse_group_velocity
from spdc_lab.jsa import SINC_GAUSS_ALPHA, geometry_factors


@pytest.fixture(scope="session")
def degenerate():
    return load_config(shipped_config_path("degenerate_810"))


@pytest.fixture(scope="session")
def nondegenerate():
    return load_config(shipped_config_path("nondegenerate_850_609"))


@pytest.fixture
def degenerate_with(tmp_path):
    """``degenerate_with(section, key, value)``: the shipped degenerate_810
    configuration with ``section.key`` set to ``value``, loaded from a copy."""

    def load(section, key, value):
        with open(shipped_config_path("degenerate_810")) as fh:
            raw = json.load(fh)
        raw[section][key] = value
        path = tmp_path / "degenerate_with.json"
        path.write_text(json.dumps(raw))
        return load_config(path)

    return load


def load_perfbench_designs():
    """perfbench's own ``designs`` module, read from ``perfbench/designs.py``
    without putting that directory on the import path or writing its
    bytecode there."""
    spec = importlib.util.spec_from_file_location(
        "designs", Path(__file__).parents[1] / "perfbench" / "designs.py")
    designs = importlib.util.module_from_spec(spec)
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True
    try:
        spec.loader.exec_module(designs)
    finally:
        sys.dont_write_bytecode = dont_write
    return designs


@pytest.fixture(scope="session")
def perfbench_designs():
    """``load_perfbench_designs()``, once per session."""
    return load_perfbench_designs()


@pytest.fixture
def perfbench_config(perfbench_designs, tmp_path):
    """``perfbench_config(seed, n, j)``: the config of design ``j`` of the
    benchmark's ``designs.draw(seed, n)``, written by ``designs.to_config``."""

    def load(seed, n, j):
        path = tmp_path / "design.json"
        path.write_text(json.dumps(perfbench_designs.to_config(perfbench_designs.draw(seed, n)[j])))
        return load_config(path)

    return load


class GaussianModel(NamedTuple):
    """The Gaussian model of the joint intensity, exp(-delta_s Omega_s^2 -
    delta_i Omega_i^2 - 2 delta_si Omega_s Omega_i): its coefficients (s^2),
    its analytic purity and the purity waist at the geometry's W0p (nan where
    the condition delta_si = 0 has no real solution)."""

    delta_s: float
    delta_i: float
    delta_si: float
    purity: float
    waist: float


def _written_out_delta_terms(geom, crystal, conv):
    # the sinc -> exp(-alpha x^2) replacement with the mismatches linearized in
    # the detunings, multiplied out from the group velocities with nothing held
    # between calls
    N_s = inverse_group_velocity(geom.signal, 0.0, crystal)
    N_i = inverse_group_velocity(geom.idler, 0.0, crystal)
    N_p = inverse_group_velocity(geom.pump, crystal.cut_angle_theta, crystal)
    ts, ti = geom.theta_s, geom.theta_i
    u, v = N_s * math.sin(ts), N_i * math.sin(ti)
    a, b = N_p - N_s * math.cos(ts), N_p - N_i * math.cos(ti)
    alpha_eff = SINC_GAUSS_ALPHA ** (1 if conv == "consistent" else 2)
    C, L2, bp2 = geometry_factors(geom).C, crystal.length_L**2, geom.pump_bandwidth_Bp**2
    d_s = alpha_eff * a * a * L2 / 2.0 + u * u / (2.0 * C) + 1.0 / (2.0 * bp2)
    d_i = alpha_eff * b * b * L2 / 2.0 + v * v / (2.0 * C) + 1.0 / (2.0 * bp2)
    d_si = alpha_eff * a * b * L2 / 2.0 - u * v / (2.0 * C) + 1.0 / (2.0 * bp2)
    # Phi = exp(-(d_s x^2 + d_i y^2 + 2 d_si x y) / 2) has geometric Schmidt
    # weights of ratio mu, from the Mehler kernel of the one-photon state
    A, B = d_s / 2.0 - d_si * d_si / (4.0 * d_i), d_si * d_si / (4.0 * d_i)
    mu = B / (A + math.sqrt(A * A - B * B))
    radicand = (u * v) / (1.0 / bp2 + alpha_eff * a * b * L2) - 1.0 / geom.W0p**2
    waist = math.sqrt((math.cos(ts) ** 2 + math.cos(ti) ** 2) / radicand) if radicand > 0 else math.nan
    return GaussianModel(d_s, d_i, d_si, (1.0 - mu) / (1.0 + mu), waist)


@pytest.fixture(scope="session")
def written_out_delta_terms():
    """``written_out_delta_terms(geom, crystal, conv)``: the GaussianModel of
    ``geom`` under the alpha convention ``conv``, the Gaussian-model oracle
    the library keeps only the purity waist of."""
    return _written_out_delta_terms
