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
from .jsa import SpectralGrids, SpectralTerms, check_rayleigh, geometry_factors, jsa_grid
from .schmidt import purity

# rows of the mode-sum grid contracted at a time in _ModeSumKernel.yz_integral
_ROW_BLOCK = 2048


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
    grids=None,
):
    """Pair rate in pairs/(s mW), converged by grid doubling.

    The joint density is integrated over the rectangle of the signal and
    idler filter windows (the sum-frequency variable is bounded by the pump
    filter inside the integrand), with the grid refined as N -> 2N - 1 until
    successive estimates agree to ``rel_tol``.

    ``grids`` is the run's SpectralGrids holder, from which every doubling
    level takes its grid; without one the grids are built for this call only.
    """
    check_rayleigh(geom, crystal.length_L)
    pref = rate_prefactor(geom, crystal, path_efficiency_s, path_efficiency_i)
    grids = SpectralGrids() if grids is None else grids
    prev = None
    n = base_resolution
    while n <= max_resolution:
        grid = grids.get(n, geom, crystal, filters, dispersion_mode)
        cur = grid.integrate(grid.weight * np.abs(grid.amplitude(geom, walk_off)) ** 2)
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
    ``terms`` (SpectralTerms on a 2-D detuning grid) supplies the phase
    mismatch and the pump exponent.
    """

    def __init__(self, geom, terms, walk_off, n_x=64, n_y=40, n_z=48):
        self.geom = geom
        self.terms = terms
        g = geometry_factors(geom)
        self.shape = terms.dky.shape
        dky, dkz = terms.dky.ravel(), terms.dkz.ravel()
        self.gp = np.exp(-terms.pump_term.ravel())
        tx, wx = hermgauss(n_x)
        self.x_nodes = tx / math.sqrt(g.A)
        self.x_weights = wx / math.sqrt(g.A)
        tz, wz = leggauss(n_z)
        L = terms.length_L
        self.z_nodes = tz * L / 2.0
        z_weights = wz * L / 2.0
        ty, wy = hermgauss(n_y)
        # completed-square y nodes depend on z through the D coupling
        self.y_nodes = ty[None, :] / math.sqrt(g.C) - g.D * self.z_nodes[:, None] / (
            2.0 * g.C
        )
        self.y_weights = wy / math.sqrt(g.C)
        # phase over the grid: dky y + dkz z with y at the shifted nodes
        # (exponentials in place, so no second (N, n_y) or (N, n_z) array)
        self.Y = 1j * np.outer(dky, ty / math.sqrt(g.C))
        np.exp(self.Y, out=self.Y)
        zshift = dkz[:, None] - dky[:, None] * g.D / (2.0 * g.C)
        self.z_phase = 1j * zshift * self.z_nodes[None, :]
        np.exp(self.z_phase, out=self.z_phase)
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
        out = np.empty(len(self.Y), dtype=complex)
        # row blocks keep the (rows, n_z) temporary small
        for start in range(0, len(out), _ROW_BLOCK):
            rows = slice(start, start + _ROW_BLOCK)
            t = self.Y[rows] @ mvec.T
            t *= self.z_phase[rows]
            out[rows] = t @ self.z_env
        return out

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
    terms = SpectralTerms(*np.meshgrid(Om_s, Om_i, indexing="ij"), geom, crystal)
    kern = _ModeSumKernel(geom, terms, walk_off, n_x, n_y, n_z)
    val = kern.amplitude(n, m, arm)
    if check_convergence:
        kern2 = _ModeSumKernel(geom, terms, walk_off, n_x + 16, n_y + 12, n_z + 16)
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
    dispersion_mode="exact",
):
    """Mode-summed singles rate for one arm, in counts/(s mW).

    Sums per-mode rates over constant-(n + m) shells until the newest shell
    contributes less than ``shell_tol`` of the running sum; ``truncation``
    caps the per-axis order. The per-mode normalization divides the squared
    fundamental normalization by 2^(n+m) n! m!.

    ``kernel`` is this geometry's mode-sum kernel on the same grid and
    settings, shared by both arms (see ``heralding_rates``). Without one the
    kernel is built on a ``resolution`` grid made for this call.
    """
    if truncation < 4:
        raise ValueError("truncation ceiling must be at least 4")
    arm = _arm(geom, which)
    check_rayleigh(geom, crystal.length_L)
    pref = rate_prefactor(geom, crystal, path_efficiency_s, path_efficiency_i)
    if kernel is None:
        grid = SpectralGrids().get(resolution, geom, crystal, filters, dispersion_mode)
        kernel = _ModeSumKernel(geom, grid, walk_off, *quad_orders)
    elif (
        kernel.geom != geom
        or kernel.terms.resolution != resolution
        or not kernel.terms.fits(geom, crystal, filters, dispersion_mode)
    ):
        raise ValueError("mode-sum kernel was built for another geometry or grid")
    grid = kernel.terms

    c_n, d_m = [], []

    def get_cn(n):
        while len(c_n) <= n:
            k = len(c_n)
            c_n.append(kernel.x_integral(k, arm) ** 2 / (2**k * math.factorial(k)))
        return c_n[n]

    def get_dm(m):
        while len(d_m) <= m:
            k = len(d_m)
            density = grid.weight * (
                np.abs(kernel.gp * kernel.yz_integral(k, arm)) ** 2
            ).reshape(kernel.shape)
            val = grid.integrate(density)
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


def heralding_rates(geom, crystal, filters, numerics, grids=None):
    """(R, signal and idler SinglesResult, eta) of one geometry. The two
    singles arms share one mode-sum kernel, which is dropped on return;
    ``grids`` is the run's SpectralGrids holder (one for this call if None)."""
    grids = SpectralGrids() if grids is None else grids
    walk_off, dispersion_mode = numerics.walk_off_enabled, numerics.dispersion_mode
    R = pair_rate(
        geom, crystal, filters, base_resolution=numerics.rate_resolution,
        dispersion_mode=dispersion_mode, walk_off=walk_off, grids=grids,
    )
    grid = grids.get(numerics.singles_resolution, geom, crystal, filters, dispersion_mode)
    arm_settings = dict(
        truncation=numerics.truncation_max_order,
        resolution=numerics.singles_resolution,
        walk_off=walk_off,
        kernel=_ModeSumKernel(geom, grid, walk_off),
        dispersion_mode=dispersion_mode,
    )
    res_s = singles_rate("signal", geom, crystal, filters, **arm_settings)
    res_i = singles_rate("idler", geom, crystal, filters, **arm_settings)
    return R, res_s, res_i, heralding_efficiency(R, res_s.rate, res_i.rate)


def filter_jsa(geom, crystal, filters, numerics, grids=None):
    """The JSA sampled over the signal and idler filter windows."""
    return jsa_grid(
        numerics.grid_resolution,
        geom,
        crystal,
        filters,
        dispersion_mode=numerics.dispersion_mode,
        walk_off=numerics.walk_off_enabled,
        grids=grids,
    )


def jsa_purity(geom, crystal, filters, numerics, grids=None):
    """Purity of ``filter_jsa`` in the ``numerics.decompose`` mode."""
    grid = filter_jsa(geom, crystal, filters, numerics, grids)
    return purity(grid, decompose=numerics.decompose)


def compute_metrics(
    geom, crystal, filters, numerics=Numerics(), settings_snapshot=None, grids=None
):
    """Assemble the full report: R, Rs, Ri, eta, purity. ``grids`` is the
    run's SpectralGrids holder; without one the call makes its own."""
    grids = SpectralGrids() if grids is None else grids
    R, res_s, res_i, eta = heralding_rates(geom, crystal, filters, numerics, grids)
    return MetricsReport(
        pair_rate_R=R,
        singles_rate_s=res_s.rate,
        singles_rate_i=res_i.rate,
        heralding_eta=eta,
        purity_P=jsa_purity(geom, crystal, filters, numerics, grids),
        mode_sum_truncation=(
            max(res_s.max_shell, res_i.max_shell),
            max(res_s.tail_estimate, res_i.tail_estimate),
        ),
        settings_snapshot=settings_snapshot or {},
    )
