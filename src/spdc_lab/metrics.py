"""Absolute rates and heralding efficiency.

The pair rate integrates the closed-form joint intensity against the signal
and idler filters; the singles rates project the two-photon amplitude onto a
Hermite-Gauss mode ladder of the heralded arm (partner fixed in its
fundamental) and sum the per-mode rates. Both use the same spectral domain,
the rectangle spanned by the signal and idler filter windows, so that the
heralding efficiency measures the fundamental-mode fraction of the collected
light and reaches 1 exactly in the symmetric fundamental-only limit.

All rates are reported per milliwatt of pump power.
"""

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial.hermite import hermval
from numpy.polynomial.legendre import leggauss
from numpy.polynomial.hermite import hermgauss
from scipy.constants import c, epsilon_0

from .config import Numerics
from .dispersion import (
    effective_nonlinearity,
    index_extraordinary,
    index_ordinary,
)
from .errors import ConsistencyError, ConvergenceError
from .filters import filter_transmission
from .jsa import (
    check_rayleigh,
    geometry_factors,
    jsa_grid,
    mode_function,
    phase_mismatch_exact,
)
from .schmidt import purity


@dataclass(frozen=True)
class RatePrefactor:
    """Dimensional prefactor of the rate integrals (pairs/s per (rad/s)^2 of
    integrated joint density times m^-6 amplitude normalization)."""

    value: float
    components: dict

    def __post_init__(self):
        if self.value <= 0:
            raise ValueError("prefactor must be positive")


@dataclass(frozen=True)
class SinglesResult:
    """Mode-summed singles rate with the truncation bookkeeping."""

    rate: float
    max_shell: int
    tail_estimate: float


@dataclass(frozen=True)
class MetricsReport:
    """The three figures of merit plus everything needed to reproduce them."""

    pair_rate_R: float
    singles_rate_s: float
    singles_rate_i: float
    heralding_eta: float
    purity_P: float
    mode_sum_truncation: tuple
    settings_snapshot: dict

    def __post_init__(self):
        if not 0.0 < self.heralding_eta <= 1.0 + 1e-9:
            raise ValueError("heralding efficiency must lie in (0, 1]")
        if self.pair_rate_R > math.sqrt(
            self.singles_rate_s * self.singles_rate_i
        ) * (1 + 1e-9):
            raise ValueError("pair rate exceeds sqrt(Rs * Ri)")
        if not 0.0 < self.purity_P <= 1.0 + 1e-12:
            raise ValueError("purity must lie in (0, 1]")

    def to_dict(self):
        return {
            "pair_rate_R_per_s_mW": self.pair_rate_R,
            "singles_rate_s_per_s_mW": self.singles_rate_s,
            "singles_rate_i_per_s_mW": self.singles_rate_i,
            "heralding_eta": self.heralding_eta,
            "purity_P": self.purity_P,
            "mode_sum_truncation": {
                "max_shell": self.mode_sum_truncation[0],
                "tail_estimate": self.mode_sum_truncation[1],
            },
            "settings": self.settings_snapshot,
        }


def rate_prefactor(geom, crystal, path_efficiency_s=1.0, path_efficiency_i=1.0):
    """Dimensional prefactor shared by the pair and singles integrals.

    value = eta_s eta_i P d_eff^2 a_s^2 a_i^2 a_p^2 w_s0 w_i0
            / (sqrt(2) pi^(3/2) eps0 c^3 n_s n_i n_p B_p)

    with a_j^2 = 2/(pi W0j^2) the squared fundamental-mode normalizations and
    P the pump power in watts. Multiplying by the joint-density integral
    (units m^6 (rad/s)^2) yields pairs per second.
    """
    d_eff = (
        effective_nonlinearity(crystal.cut_angle_theta, crystal.azimuth_phi, crystal)
        * 1e-12
    )  # pm/V -> m/V
    alpha2 = {
        "s": 2.0 / (math.pi * geom.W0s**2),
        "i": 2.0 / (math.pi * geom.W0i**2),
        "p": 2.0 / (math.pi * geom.W0p**2),
    }
    n_s = float(index_ordinary(geom.signal.central_wavelength, crystal))
    n_i = float(index_ordinary(geom.idler.central_wavelength, crystal))
    n_p = float(
        index_extraordinary(
            geom.pump.central_wavelength, crystal.cut_angle_theta, crystal
        )
    )
    P_watt = geom.pump_power_P * 1e-3
    value = (
        path_efficiency_s
        * path_efficiency_i
        * P_watt
        * d_eff**2
        * alpha2["s"]
        * alpha2["i"]
        * alpha2["p"]
        * geom.signal.central_angular_frequency
        * geom.idler.central_angular_frequency
        / (
            math.sqrt(2.0)
            * math.pi**1.5
            * epsilon_0
            * c**3
            * n_s
            * n_i
            * n_p
            * geom.pump_bandwidth_Bp
        )
    )
    components = {
        "path_efficiency_s": path_efficiency_s,
        "path_efficiency_i": path_efficiency_i,
        "pump_power_W": P_watt,
        "d_eff_m_per_V": d_eff,
        "alpha_s_sq": alpha2["s"],
        "alpha_i_sq": alpha2["i"],
        "alpha_p_sq": alpha2["p"],
        "omega_s0": geom.signal.central_angular_frequency,
        "omega_i0": geom.idler.central_angular_frequency,
        "n_s": n_s,
        "n_i": n_i,
        "n_p": n_p,
        "B_p": geom.pump_bandwidth_Bp,
        "epsilon_0": epsilon_0,
        "c": c,
    }
    return RatePrefactor(value=value, components=components)


def _filter_axes(geom, filters, resolution):
    w_s = np.linspace(*filters.signal.support, resolution)
    w_i = np.linspace(*filters.idler.support, resolution)
    Om_s = w_s - geom.signal.central_angular_frequency
    Om_i = w_i - geom.idler.central_angular_frequency
    return w_s, w_i, Om_s, Om_i


def _transmission_weight(w_s, w_i, filters):
    T_s = filter_transmission(w_s, filters.signal)
    T_i = filter_transmission(w_i, filters.idler)
    T_p = filter_transmission(np.add.outer(w_s, w_i), filters.pump)
    return T_s[:, None] * T_i[None, :] * T_p


def _pair_integral(geom, crystal, filters, resolution, dispersion_mode, walk_off):
    w_s, w_i, Om_s, Om_i = _filter_axes(geom, filters, resolution)
    OS, OI = np.meshgrid(Om_s, Om_i, indexing="ij")
    amp = mode_function(
        OS, OI, geom, crystal, dispersion_mode=dispersion_mode, walk_off=walk_off
    )
    weight = _transmission_weight(w_s, w_i, filters)
    density = weight * np.abs(amp) ** 2
    return float(np.trapezoid(np.trapezoid(density, Om_i, axis=1), Om_s))


def pair_rate(
    geom,
    crystal,
    filters,
    base_resolution=101,
    rel_tol=5e-3,
    max_resolution=801,
    dispersion_mode="exact",
    walk_off=False,
    path_efficiency_s=1.0,
    path_efficiency_i=1.0,
):
    """Pair rate in pairs/(s mW), converged by grid doubling.

    The joint density is integrated over the rectangle of the signal and
    idler filter windows (the sum-frequency variable is bounded by the pump
    filter inside the integrand), with the grid refined as N -> 2N - 1 until
    successive estimates agree to ``rel_tol``.
    """
    check_rayleigh(geom, crystal.length_L)
    pref = rate_prefactor(geom, crystal, path_efficiency_s, path_efficiency_i)
    prev = None
    n = base_resolution
    while n <= max_resolution:
        cur = _pair_integral(geom, crystal, filters, n, dispersion_mode, walk_off)
        if prev is not None:
            scale = max(abs(cur), abs(prev))
            if scale == 0.0 or abs(cur - prev) <= rel_tol * scale:
                return pref.value * cur / geom.pump_power_P
        prev = cur
        n = 2 * n - 1
    raise ConvergenceError(
        "pair-rate integral did not converge under grid doubling",
        estimates=(pref.value * prev / geom.pump_power_P,),
    )


def _hermite_phys(order, u):
    coeff = np.zeros(order + 1)
    coeff[order] = 1.0
    return hermval(u, coeff)


def _arm(geom, which):
    """(theta, sign, collection waist) of the arm carrying the mode ladder."""
    if which == "signal":
        return geom.theta_s, +1.0, geom.W0s
    if which == "idler":
        return geom.theta_i, -1.0, geom.W0i
    raise ValueError("which must be 'signal' or 'idler'")


class _ModeSumKernel:
    """Shared quadrature state for the Hermite-Gauss projections.

    The overlap of the three beams with one collection mode (n, m) factorizes
    into an x integral (Gauss-Hermite against exp(-A x^2)), a y integral
    (Gauss-Hermite against the completed square exp(-C (y - y0(z))^2)), and a
    z integral (Gauss-Legendre over the crystal length). The pump spectral
    envelope multiplies the result. With walk-off disabled the residual
    exp(-H z^2) envelope is omitted, matching the closed-form amplitude.
    A, C, D and H combine both collection waists, so one kernel serves both
    arms; the arm (see ``_arm``) enters only through the mode arguments.
    """

    def __init__(
        self,
        geom,
        crystal,
        Om_s,
        Om_i,
        walk_off,
        n_x=64,
        n_y=40,
        n_z=48,
    ):
        self.geom = geom
        g = geometry_factors(geom)
        OS, OI = np.meshgrid(Om_s, Om_i, indexing="ij")
        dky, dkz = phase_mismatch_exact(OS, OI, geom, crystal)
        self.shape = OS.shape
        dky = np.asarray(dky, dtype=float).ravel()
        dkz = np.asarray(dkz, dtype=float).ravel()
        self.gp = np.exp(
            -((OS + OI).ravel()) ** 2 / (4.0 * geom.pump_bandwidth_Bp**2)
        )
        tx, wx = hermgauss(n_x)
        self.x_nodes = tx / math.sqrt(g.A)
        self.x_weights = wx / math.sqrt(g.A)
        tz, wz = leggauss(n_z)
        L = crystal.length_L
        self.z_nodes = tz * L / 2.0
        z_weights = wz * L / 2.0
        ty, wy = hermgauss(n_y)
        # completed-square y nodes depend on z through the D coupling
        self.y_nodes = ty[None, :] / math.sqrt(g.C) - g.D * self.z_nodes[:, None] / (
            2.0 * g.C
        )
        self.y_weights = wy / math.sqrt(g.C)
        # phase over the grid: dky y + dkz z with y at the shifted nodes
        self.Y = np.exp(1j * np.outer(dky, ty / math.sqrt(g.C)))
        zshift = dkz[:, None] - dky[:, None] * g.D / (2.0 * g.C)
        self.z_phase = np.exp(1j * zshift * self.z_nodes[None, :])
        self.z_env = z_weights * (np.exp(-g.H * self.z_nodes**2) if walk_off else 1.0)

    def x_integral(self, n, arm):
        return float(
            self.x_weights @ _hermite_phys(n, math.sqrt(2.0) * self.x_nodes / arm[2])
        )

    def yz_integral(self, m, arm):
        theta, sign, Wc = arm
        y_rot = self.y_nodes * math.cos(theta) + sign * self.z_nodes[
            :, None
        ] * math.sin(theta)
        mvec = _hermite_phys(m, math.sqrt(2.0) * y_rot / Wc) * self.y_weights[None, :]
        t = self.Y @ mvec.T
        t *= self.z_phase
        return t @ self.z_env

    def amplitude(self, n, m, arm):
        return (
            self.gp * self.x_integral(n, arm) * self.yz_integral(m, arm)
        ).reshape(self.shape)


def mode_function_nm(
    n,
    m,
    Omega_s,
    Omega_i,
    geom,
    crystal,
    which="signal",
    walk_off=False,
    quad_orders=(64, 40, 48),
    check_convergence=True,
):
    """Overlap amplitude with the (n, m) Hermite-Gauss collection mode.

    ``which`` selects the arm carrying the mode ladder; the partner stays in
    its fundamental. Returns the complex amplitude on the broadcast grid of
    the detuning arrays. When ``check_convergence`` is set the quadrature is
    repeated at higher orders and required to agree to relative 1e-6.
    """
    Om_s = np.atleast_1d(np.asarray(Omega_s, dtype=float))
    Om_i = np.atleast_1d(np.asarray(Omega_i, dtype=float))
    n_x, n_y, n_z = quad_orders
    arm = _arm(geom, which)
    kern = _ModeSumKernel(geom, crystal, Om_s, Om_i, walk_off, n_x, n_y, n_z)
    val = kern.amplitude(n, m, arm)
    if check_convergence:
        kern2 = _ModeSumKernel(
            geom, crystal, Om_s, Om_i, walk_off, n_x + 16, n_y + 12, n_z + 16
        )
        val2 = kern2.amplitude(n, m, arm)
        scale = np.max(np.abs(val2))
        if scale > 0 and np.max(np.abs(val - val2)) > 1e-6 * scale:
            raise ConvergenceError(
                "mode-overlap quadrature did not converge to 1e-6",
                estimates=(val, val2),
            )
        val = val2
    if np.isscalar(Omega_s) and np.isscalar(Omega_i):
        return complex(val.reshape(-1)[0])
    return val


def singles_rate(
    which,
    geom,
    crystal,
    filters,
    truncation=20,
    shell_tol=1e-4,
    resolution=101,
    walk_off=False,
    quad_orders=(64, 40, 48),
    path_efficiency_s=1.0,
    path_efficiency_i=1.0,
    kernel=None,
):
    """Mode-summed singles rate for one arm, in counts/(s mW).

    Sums per-mode rates over constant-(n + m) shells until the newest shell
    contributes less than ``shell_tol`` of the running sum; ``truncation``
    caps the per-axis order. The per-mode normalization divides the squared
    fundamental normalization by 2^(n+m) n! m!.

    ``kernel`` is this geometry's mode-sum kernel on the same grid and
    settings, shared by both arms (see ``heralding_rates``).
    """
    if truncation < 4:
        raise ValueError("truncation ceiling must be at least 4")
    arm = _arm(geom, which)
    check_rayleigh(geom, crystal.length_L)
    pref = rate_prefactor(geom, crystal, path_efficiency_s, path_efficiency_i)
    w_s, w_i, Om_s, Om_i = _filter_axes(geom, filters, resolution)
    weight = _transmission_weight(w_s, w_i, filters)
    if kernel is None:
        kernel = _ModeSumKernel(geom, crystal, Om_s, Om_i, walk_off, *quad_orders)
    elif kernel.geom != geom or kernel.shape != weight.shape:
        raise ValueError("mode-sum kernel was built for another geometry or grid")

    c_n, d_m = [], []

    def get_cn(n):
        while len(c_n) <= n:
            k = len(c_n)
            c_n.append(kernel.x_integral(k, arm) ** 2 / (2**k * math.factorial(k)))
        return c_n[n]

    def get_dm(m):
        while len(d_m) <= m:
            k = len(d_m)
            density = weight * (
                np.abs(kernel.gp * kernel.yz_integral(k, arm)) ** 2
            ).reshape(kernel.shape)
            val = float(np.trapezoid(np.trapezoid(density, Om_i, axis=1), Om_s))
            d_m.append(val / (2**k * math.factorial(k)))
        return d_m[m]

    total = 0.0
    shell = 0
    while True:
        contrib = sum(get_cn(n) * get_dm(shell - n) for n in range(shell + 1))
        total += contrib
        if shell > 0 and contrib < shell_tol * total:
            break
        shell += 1
        if shell > truncation:
            raise ConvergenceError(
                "mode-sum shell ceiling reached before the tail criterion",
                estimates=(pref.value * total / geom.pump_power_P,),
            )
    tail = contrib / total if total > 0 else 0.0
    return SinglesResult(
        rate=pref.value * total / geom.pump_power_P,
        max_shell=shell,
        tail_estimate=tail,
    )


def heralding_efficiency(R, Rs, Ri):
    """eta = R / sqrt(Rs * Ri)."""
    if Rs <= 0 or Ri <= 0:
        raise ValueError("singles rates must be positive")
    eta = R / math.sqrt(Rs * Ri)
    if eta > 1.0 + 1e-9:
        raise ConsistencyError(
            "mode-sum truncation inconsistency: eta = %.6f > 1" % eta
        )
    return eta


def heralding_rates(geom, crystal, filters, numerics):
    """(R, signal and idler SinglesResult, eta) of one geometry. The two
    singles arms share one mode-sum kernel, which is dropped on return."""
    walk_off = numerics.walk_off_enabled
    R = pair_rate(
        geom, crystal, filters, base_resolution=numerics.rate_resolution,
        dispersion_mode=numerics.dispersion_mode, walk_off=walk_off,
    )
    _, _, Om_s, Om_i = _filter_axes(geom, filters, numerics.singles_resolution)
    arm_settings = dict(
        truncation=numerics.truncation_max_order,
        resolution=numerics.singles_resolution,
        walk_off=walk_off,
        kernel=_ModeSumKernel(geom, crystal, Om_s, Om_i, walk_off),
    )
    res_s = singles_rate("signal", geom, crystal, filters, **arm_settings)
    res_i = singles_rate("idler", geom, crystal, filters, **arm_settings)
    return R, res_s, res_i, heralding_efficiency(R, res_s.rate, res_i.rate)


def filter_jsa(geom, crystal, filters, numerics):
    """The JSA sampled over the signal and idler filter windows."""
    return jsa_grid(
        numerics.grid_resolution,
        geom,
        crystal,
        filters.signal,
        filters.idler,
        dispersion_mode=numerics.dispersion_mode,
        walk_off=numerics.walk_off_enabled,
    )


def jsa_purity(geom, crystal, filters, numerics):
    """Purity of ``filter_jsa`` in the ``numerics.decompose`` mode."""
    grid = filter_jsa(geom, crystal, filters, numerics)
    return purity(grid, decompose=numerics.decompose)


def compute_metrics(geom, crystal, filters, numerics=Numerics(), settings_snapshot=None):
    """Assemble the full report: R, Rs, Ri, eta, purity."""
    R, res_s, res_i, eta = heralding_rates(geom, crystal, filters, numerics)
    return MetricsReport(
        pair_rate_R=R,
        singles_rate_s=res_s.rate,
        singles_rate_i=res_i.rate,
        heralding_eta=eta,
        purity_P=jsa_purity(geom, crystal, filters, numerics),
        mode_sum_truncation=(
            max(res_s.max_shell, res_i.max_shell),
            max(res_s.tail_estimate, res_i.tail_estimate),
        ),
        settings_snapshot=settings_snapshot or {},
    )
