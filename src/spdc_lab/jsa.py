"""Joint spectral amplitude of a noncollinear bulk-crystal pair source.

The two-photon amplitude over frequency detunings (Omega_s, Omega_i) is, up
to the rate prefactor handled in :mod:`spdc_lab.metrics`,

    Phi = pi / sqrt(A C) * Phi_z(dk_z) * exp(-dk_y^2 / (4 C)
          - (Omega_s + Omega_i)^2 / (4 B_p^2)),

where A, C (and D, F, H) collect the transverse Gaussian-beam overlap of the
three modes, dk_y and dk_z are the transverse/longitudinal phase mismatches,
and Phi_z is L sinc(dk_z L / 2) or, with the pump walk-off envelope exp(-H z^2),
``walk_off_integral`` on the z rule the mode sum of :mod:`spdc_lab.metrics` shares.

``purity_waist`` solves in closed form for the collection waist that makes
the amplitude separable in the Gaussian model of the joint intensity: with the
sinc replaced by a Gaussian of matched curvature and the mismatches linearized
in the detunings, the log-intensity is the quadratic form
-(delta_s Omega_s^2 + delta_i Omega_i^2 + 2 delta_si Omega_s Omega_i), and
that waist drives the cross coefficient delta_si to zero.
"""

import json
import math
import warnings
from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .dispersion import inverse_group_velocity, wave_number
from .errors import ConvergenceError, UnsatisfiableConditionError
from .filters import filter_transmission

# curvature-matching constant for the sinc -> Gaussian replacement
# sinc(x) ~= exp(-SINC_GAUSS_ALPHA * x^2)
SINC_GAUSS_ALPHA = 0.455

ALPHA_CONVENTIONS = ("paper_literal", "consistent")

MAX_EMISSION_ANGLE = 0.1  # rad; the small-angle regime of the closed forms

# the z order check redoes a quadrature at _Z_RAISE more nodes, to _Z_TOL
_Z_RAISE, _Z_TOL = 8, 1e-6


@dataclass(frozen=True)
class BeamGeometry:
    """Waists, emission angles, and pump bandwidth of one configuration.

    Waists are 1/e field radii in meters; W0s is the collection waist of
    both arms. Angles are internal emission angles in radians;
    pump_bandwidth_Bp in rad/s. ``modes`` is the (pump, signal, idler) triple
    of OpticalMode records.
    """

    W0p: float
    W0s: float
    theta_s: float
    theta_i: float
    pump_bandwidth_Bp: float
    modes: tuple

    def __post_init__(self):
        for w in (self.W0p, self.W0s):
            if w <= 0:
                raise ValueError("waists must be positive")
        for th in (self.theta_s, self.theta_i):
            if not 0.0 <= th < MAX_EMISSION_ANGLE:
                raise ValueError("emission angles must lie in [0, %g) rad" % MAX_EMISSION_ANGLE)
        if self.pump_bandwidth_Bp <= 0:
            raise ValueError("pump_bandwidth_Bp must be positive")
        roles = tuple(m.role for m in self.modes)
        if roles != ("pump", "signal", "idler"):
            raise ValueError("modes must be the (pump, signal, idler) triple")

    @property
    def pump(self):
        return self.modes[0]

    @property
    def signal(self):
        return self.modes[1]

    @property
    def idler(self):
        return self.modes[2]


def check_rayleigh(geom, length_L):
    """Warn when any Rayleigh range is not large against the crystal length.

    The thin-beam factorization used throughout assumes z_r = pi W0^2 /
    lambda >> L; enforce z_r > 10 L with a warning.
    """
    for w0, mode in zip((geom.W0p, geom.W0s, geom.W0s), geom.modes):
        z_r = math.pi * w0**2 / mode.central_wavelength
        if z_r <= 10.0 * length_L:
            warnings.warn(
                "%s Rayleigh range %.2e m is not >> crystal length %.2e m"
                % (mode.role, z_r, length_L)
            )


@dataclass(frozen=True)
class GeometryFactors:
    """Transverse-overlap curvatures, all in 1/m^2."""

    A: float
    C: float
    D: float
    F: float
    H: float

    def __post_init__(self):
        if not self.A >= self.C > 0:
            raise ValueError("require A >= C > 0")
        if self.F < -1e-30 or self.H < -1e-12 * max(self.F, self.C):
            raise ValueError("require F >= 0 and H >= 0")


@dataclass(frozen=True)
class JsaGrid:
    """Sampled real amplitude on a uniform detuning grid.

    ``omega_s_samples`` and ``omega_i_samples`` are absolute frequencies in
    rad/s spanning the filter windows; ``amplitude[j, k]`` is Phi at
    (omega_s_samples[j], omega_i_samples[k]), read-only when it comes from a
    SpectralGrid. ``normalization_N`` scales
    |amplitude|^2 to a unit-probability joint spectral density:
    normalization_N * sum |Phi|^2 dOmega_s dOmega_i = 1 (trapezoid rule).
    """

    omega_s_samples: np.ndarray
    omega_i_samples: np.ndarray
    amplitude: np.ndarray
    normalization_N: float

    def __post_init__(self):
        if self.amplitude.shape != (
            self.omega_s_samples.size,
            self.omega_i_samples.size,
        ):
            raise ValueError("amplitude shape does not match sample arrays")
        if not np.all(np.isfinite(self.amplitude)):
            raise ValueError("amplitude contains non-finite entries")
        if np.iscomplexobj(self.amplitude):
            raise ValueError("amplitude must be real")
        if np.max(np.abs(self.amplitude)) <= 0:
            raise ValueError("vanishing joint amplitude")


def geometry_factors(geom):
    """Transverse-overlap curvatures A, C, D, F and the walk-off factor H."""
    wp2, ws2 = geom.W0p**2, geom.W0s**2
    ts, ti = geom.theta_s, geom.theta_i
    A = 1.0 / wp2 + 1.0 / ws2 + 1.0 / ws2
    C = 1.0 / wp2 + math.cos(ts) ** 2 / ws2 + math.cos(ti) ** 2 / ws2
    D = math.sin(2 * ts) / ws2 - math.sin(2 * ti) / ws2
    F = math.sin(ts) ** 2 / ws2 + math.sin(ti) ** 2 / ws2
    H = F - D**2 / (4.0 * C)
    return GeometryFactors(A=A, C=C, D=D, F=F, H=max(H, 0.0))


def phase_mismatch_exact(Omega_s, Omega_i, geom, crystal):
    """(dk_y, dk_z) with full dispersion at the detuned frequencies.

    dk_y = k_s sin(theta_s) - k_i sin(theta_i);
    dk_z = k_p - k_s cos(theta_s) - k_i cos(theta_i);
    the pump is extraordinary at the crystal cut angle and carries the sum
    frequency.
    """
    Omega_s = np.asarray(Omega_s, dtype=float)
    Omega_i = np.asarray(Omega_i, dtype=float)
    w_s = geom.signal.central_angular_frequency + Omega_s
    w_i = geom.idler.central_angular_frequency + Omega_i
    k_s = wave_number(w_s, geom.signal, 0.0, crystal)
    k_i = wave_number(w_i, geom.idler, 0.0, crystal)
    k_p = wave_number(w_s + w_i, geom.pump, crystal.cut_angle_theta, crystal)
    dky = k_s * np.sin(geom.theta_s) - k_i * np.sin(geom.theta_i)
    dkz = k_p - k_s * np.cos(geom.theta_s) - k_i * np.cos(geom.theta_i)
    return dky, dkz


def phase_mismatch_linear(Omega_s, Omega_i, inverse_group_velocities, angles):
    """(dk_y, dk_z) linearized in the detunings.

    ``inverse_group_velocities`` is (N_s, N_i, N_p) in s/m at the central
    frequencies; ``angles`` is (theta_s, theta_i). The zero-order terms
    cancel by construction of the central phase matching.
    """
    N_s, N_i, N_p = inverse_group_velocities
    theta_s, theta_i = angles
    Omega_s = np.asarray(Omega_s, dtype=float)
    Omega_i = np.asarray(Omega_i, dtype=float)
    dky = N_s * Omega_s * np.sin(theta_s) - N_i * Omega_i * np.sin(theta_i)
    dkz = (
        N_p * (Omega_s + Omega_i)
        - N_s * Omega_s * np.cos(theta_s)
        - N_i * Omega_i * np.cos(theta_i)
    )
    return dky, dkz


def central_inverse_group_velocities(geom, crystal):
    """(N_s, N_i, N_p) at the central frequencies; pump at the cut angle."""
    return _inverse_group_velocities(*geom.modes, crystal)


@lru_cache(maxsize=8)
def _inverse_group_velocities(pump, signal, idler, crystal):
    # waist-free: held per mode set and crystal
    N_s = inverse_group_velocity(signal, 0.0, crystal)
    N_i = inverse_group_velocity(idler, 0.0, crystal)
    N_p = inverse_group_velocity(pump, crystal.cut_angle_theta, crystal)
    return N_s, N_i, N_p


def z_order(degree, phase, spread):
    """Gauss-Legendre order n (exact to degree 2 n - 1) for a degree-``degree``
    polynomial in z times exp(i q z), |q z| <= phase, and exp(-H z^2),
    H z^2 <= spread, over the crystal."""
    return (degree + 12 + math.ceil(2.0 * phase + 4.0 * spread)) // 2 + 1


def _read_only(a):
    a = np.asarray(a)
    a.flags.writeable = False
    return a


@lru_cache(maxsize=32)
def _legendre(n):
    # leggauss is an O(n^3) eigensolve, and a run asks for a few orders often
    return tuple(map(_read_only, leggauss(n)))


def z_nodes(n, L, H):
    """n Gauss-Legendre nodes on [-L/2, L/2], weights times exp(-H z^2)."""
    t, w = _legendre(n)
    z = t * (L / 2.0)
    return z, w * (L / 2.0) * np.exp(-H * z**2)


def _check_z_order(base, raised, what):
    """max|raised - base| / max|raised|; ConvergenceError beyond _Z_TOL."""
    scale = np.max(np.abs(raised))
    change = float(np.max(np.abs(raised - base)) / scale) if scale > 0 else 0.0
    if change > _Z_TOL:
        msg = "%s: z quadrature changed by %.2e (tolerance %.0e) at %d more nodes"
        raise ConvergenceError(msg % (what, change, _Z_TOL, _Z_RAISE), estimates=(base, raised))
    return change


def walk_off_integral(dk_z, H, L):
    """Longitudinal overlap integral of exp(-H z^2 - i dk_z z) over [-L/2, L/2].

    Real (the imaginary part vanishes by parity) and vectorized over dk_z:
    the ``z_nodes`` rule at ``z_order(0, max|dk_z| L / 2, H L^2 / 4)``,
    checked at _Z_RAISE more nodes.
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    dk_z = np.asarray(dk_z, dtype=float)
    n = z_order(0, float(np.max(np.abs(dk_z), initial=0.0)) * L / 2.0, H * L**2 / 4.0)
    sums = []
    for z, w in (z_nodes(k, L, H) for k in (n, n + _Z_RAISE)):
        # symmetric nodes, even integrand: sum over z >= 0 one node at a
        # time, so the peak stays a few dk_z-sized arrays
        w = np.where(z > 0, 2.0 * w, w)
        sums.append(sum(w[k] * np.cos(dk_z * z[k]) for k in range(z.size // 2, z.size)))
    _check_z_order(*sums, "walk-off integral")
    return sums[0]


class SpectralTerms:
    """The waist-independent factors of Phi at the detunings (Omega_s,
    Omega_i), any two arrays that broadcast.

    The phase mismatch dk_y, dk_z (in ``dispersion_mode``), the pump envelope
    exp(-(Omega_s + Omega_i)^2 / (4 B_p^2)) and L sinc(dk_z L / 2) depend on
    the crystal, the modes, the emission angles and B_p but not on the
    waists. ``amplitude`` applies one geometry's curvatures to them. Held
    read-only: dk_y, dk_z, -dk_y^2 and, from its first use, each of
    ``pump_envelope`` and ``sinc_envelope``, L sinc(dk_z L / 2) times the pump
    envelope. ``z_moments`` holds the mode-sum kernel's (key, {n_z: R}) pair.
    """

    def __init__(self, Omega_s, Omega_i, geom, crystal, dispersion_mode):
        if dispersion_mode == "exact":
            dky, dkz = phase_mismatch_exact(Omega_s, Omega_i, geom, crystal)
        elif dispersion_mode == "linear":
            ngv = central_inverse_group_velocities(geom, crystal)
            dky, dkz = phase_mismatch_linear(Omega_s, Omega_i, ngv, (geom.theta_s, geom.theta_i))
        else:
            raise ValueError("dispersion_mode must be 'exact' or 'linear'")
        self.dky, self.dkz = _read_only(dky), _read_only(dkz)
        self.length_L = crystal.length_L
        self._pump = (Omega_s, Omega_i, geom.pump_bandwidth_Bp)
        self.negdky2 = _read_only(-self.dky**2)
        self.z_moments = (None, None)

    def _pump_envelope(self):
        Omega_s, Omega_i, Bp = self._pump
        return np.exp(-(np.add(Omega_s, Omega_i, dtype=float) ** 2 / (4.0 * Bp**2)))

    @cached_property
    def pump_envelope(self):
        return _read_only(self._pump_envelope())

    @cached_property
    def sinc_envelope(self):
        # the exact H = 0 longitudinal factor times a pump envelope not held for it
        L = self.length_L
        return _read_only(L * np.sinc(self.dkz * L / 2.0 / math.pi) * self._pump_envelope())

    def amplitude(self, geom, walk_off, factors=None):
        """Phi for the waists of ``geom``, whose geometry_factors a caller may
        pass as ``factors``; with ``walk_off``, ``walk_off_integral`` (the
        exp(-H z^2) envelope) times the pump envelope replaces ``sinc_envelope``."""
        g = geometry_factors(geom) if factors is None else factors
        amp = np.exp(self.negdky2 / (4.0 * g.C))
        if walk_off:
            amp *= walk_off_integral(self.dkz, g.H, self.length_L) * self.pump_envelope
        else:
            amp *= self.sinc_envelope
        amp *= math.pi / math.sqrt(g.A * g.C)
        return amp


def _spectral_key(geom, crystal, filters, dispersion_mode):
    # everything a SpectralGrid depends on besides its resolution
    beams = (geom.modes, geom.theta_s, geom.theta_i, geom.pump_bandwidth_Bp)
    return beams + (crystal, filters, dispersion_mode)


class SpectralGrid(SpectralTerms):
    """SpectralTerms on ``resolution`` x ``resolution`` points spanning the
    signal and idler windows of the FilterBank ``filters``.

    Holds, read-only, the absolute axes ``w_s``, ``w_i``, the detuning axes
    ``Om_s``, ``Om_i`` and, from its first use by a rate, the filter weight
    T_s T_i T_p; ``integrate`` is the trapezoid rule on the grid.
    ``amplitude`` keeps the last geometry's amplitude, so the pair rate and
    the purity at one waist evaluate it once.
    """

    def __init__(self, resolution, geom, crystal, filters, dispersion_mode):
        self.w_s = _read_only(np.linspace(*filters.signal.support, resolution))
        self.w_i = _read_only(np.linspace(*filters.idler.support, resolution))
        self.Om_s = _read_only(self.w_s - geom.signal.central_angular_frequency)
        self.Om_i = _read_only(self.w_i - geom.idler.central_angular_frequency)
        # sparse axes: the signal and idler wave numbers are evaluated once
        # per axis point, and only the sums fill the grid
        OS, OI = np.meshgrid(self.Om_s, self.Om_i, indexing="ij", sparse=True)
        super().__init__(OS, OI, geom, crystal, dispersion_mode)
        self._filters = filters
        # trapezoid weights of each axis: w_s @ f == np.trapezoid(f, Om_s)
        halves = (np.diff(self.Om_s) / 2.0, np.diff(self.Om_i) / 2.0)
        self._w_s, self._w_i = (np.pad(h, (0, 1)) + np.pad(h, (1, 0)) for h in halves)
        self._amplitude_slot = (None, None)

    @cached_property
    def weight(self):
        f = self._filters
        T_s = filter_transmission(self.w_s, f.signal)
        T_i = filter_transmission(self.w_i, f.idler)
        T_p = filter_transmission(np.add.outer(self.w_s, self.w_i), f.pump)
        return _read_only(T_s[:, None] * T_i[None, :] * T_p)

    def amplitude(self, geom, walk_off):
        """SpectralTerms.amplitude, read-only, held as one pair with its key:
        ``walk_off`` and ``geometry_factors``, the only way it sees ``geom``."""
        key = (geometry_factors(geom), walk_off)
        held, amp = self._amplitude_slot
        if held != key:
            amp = _read_only(super().amplitude(geom, walk_off, key[0]))
            self._amplitude_slot = (key, amp)
        return amp

    def integrate(self, density):
        return float(self._w_s @ density @ self._w_i)


# (key, {resolution: SpectralGrid}) of the last spectral setting requested
_slot = (None, {})


def spectral_grid(resolution, geom, crystal, filters, dispersion_mode):
    """The SpectralGrid at ``resolution`` for this setting (``_spectral_key``:
    everything but the waists), held in one module slot with the setting's
    other resolutions. Another setting replaces the slot before its grid is
    built. The key and its dict are read and replaced together, so a caller
    on another thread may rebuild a grid but never gets another setting's.
    """
    global _slot
    key = _spectral_key(geom, crystal, filters, dispersion_mode)
    held, grids = _slot
    if held != key:
        grids = {}
        _slot = (key, grids)
    if resolution not in grids:
        grids[resolution] = SpectralGrid(resolution, geom, crystal, filters, dispersion_mode)
    return grids[resolution]


def mode_function(Omega_s, Omega_i, geom, crystal, dispersion_mode="exact", walk_off=False):
    """Closed-form joint spectral amplitude Phi(Omega_s, Omega_i).

    With ``walk_off`` False the longitudinal factor is L sinc(dk_z L / 2);
    enabling it adds the exp(-H z^2) envelope (``walk_off_integral``).
    """
    terms = SpectralTerms(Omega_s, Omega_i, geom, crystal, dispersion_mode)
    return terms.amplitude(geom, walk_off)


def jsa_grid(geom, crystal, filters, numerics):
    """Sample the amplitude on a uniform grid spanning the signal and idler
    windows of the FilterBank ``filters`` (no transmission applied), at the
    ``grid_resolution``, ``dispersion_mode`` and ``walk_off_enabled`` of
    the Numerics ``numerics``. The grid is built for this call and not
    held in the ``spectral_grid`` slot.
    """
    check_rayleigh(geom, crystal.length_L)
    grid = SpectralGrid(
        numerics.grid_resolution, geom, crystal, filters, numerics.dispersion_mode
    )
    amp = grid.amplitude(geom, numerics.walk_off_enabled)
    return JsaGrid(
        omega_s_samples=grid.w_s,
        omega_i_samples=grid.w_i,
        amplitude=amp,
        normalization_N=1.0 / grid.integrate(amp**2),
    )


def purity_waist(W0p, geom, crystal, alpha_convention):
    """Collection waist W0s that zeroes the cross coefficient delta_si.

    Closed form: with equal collection waists the condition delta_si = 0
    fixes the transverse curvature C, giving

        W0s = sqrt((cos^2 theta_s + cos^2 theta_i) / (C* - 1/W0p^2)),
        C*  = u v / (1/B_p^2 + alpha_eff a b L^2),

    with u = N_s sin theta_s, v = N_i sin theta_i, a = N_p - N_s cos theta_s
    and b = N_p - N_i cos theta_i from the inverse group velocities. It only
    has a real solution when C* exceeds 1/W0p^2. ``consistent`` takes
    alpha_eff = SINC_GAUSS_ALPHA, the single power that follows from squaring
    the Gaussian-replaced amplitude; ``paper_literal`` keeps the squared
    constant of the printed closed-form waist relation.
    """
    if alpha_convention not in ALPHA_CONVENTIONS:
        raise ValueError("alpha_convention must be one of %s" % (ALPHA_CONVENTIONS,))
    N_s, N_i, N_p = central_inverse_group_velocities(geom, crystal)
    ts, ti = geom.theta_s, geom.theta_i
    u, v = N_s * math.sin(ts), N_i * math.sin(ti)
    a, b = N_p - N_s * math.cos(ts), N_p - N_i * math.cos(ti)
    alpha_eff = SINC_GAUSS_ALPHA ** (1 if alpha_convention == "consistent" else 2)
    if u * v <= 0:
        raise UnsatisfiableConditionError(
            "purity condition unsatisfiable at zero emission angle; "
            "increase the cut detuning"
        )
    c_star = (u * v) / (1.0 / geom.pump_bandwidth_Bp**2 + alpha_eff * a * b * crystal.length_L**2)
    radicand = c_star - 1.0 / W0p**2
    if radicand <= 0:
        raise UnsatisfiableConditionError(
            "purity condition unsatisfiable; increase B_p, cut detuning, or W0p"
        )
    return math.sqrt((math.cos(ts) ** 2 + math.cos(ti) ** 2) / radicand)


def write_jsa_csv(grid, path):
    """Dump the grid as rows (omega_s, omega_i, Re Phi, Im Phi, |Phi|^2), one
    omega_s row at a time. The omega_i cells are formatted once into a row
    template, and Im Phi of the real amplitude is one constant cell."""
    tail = ",%.9e," + "%.9e" % 0.0 + ",%.9e\r\n"
    row = "".join("\0,%.9e" % wi + tail for wi in grid.omega_i_samples.tolist())
    with open(path, "w", newline="") as fh:
        fh.write("omega_s_rad_per_s,omega_i_rad_per_s,re_phi,im_phi,jsi\r\n")
        for ws, a in zip(grid.omega_s_samples.tolist(), grid.amplitude):
            # for real floats a * a is bitwise abs(a) ** 2
            cells = np.column_stack((a, a * a)).ravel().tolist()
            fh.write(row.replace("\0", "%.9e" % ws) % tuple(cells))


def write_jsa_json(grid, path):
    """Dump the grid as a plain-JSON document (no binary blobs): the bytes of
    ``json.dumps`` of the whole document with sorted keys, written one
    amplitude row at a time. The imaginary rows of the real amplitude are one
    text of zeros."""
    A = grid.amplitude
    # json.dumps runs the C encoder: the same float repr and ", " separators
    # as one dumps of the whole document
    im_rows = (json.dumps([0.0] * A.shape[1]),) * A.shape[0]
    re_rows = (json.dumps(a.tolist()) for a in A)
    tail = (grid.normalization_N, grid.omega_i_samples.tolist(), grid.omega_s_samples.tolist())
    with open(path, "w") as fh:
        for head, rows in (('{"amplitude_im": [', im_rows), ('], "amplitude_re": [', re_rows)):
            fh.write(head)
            for j, text in enumerate(rows):
                fh.write(", " + text if j else text)
        fh.write('], "normalization_N": %s, "omega_i_samples": %s, "omega_s_samples": %s}'
                 % tuple(json.dumps(v) for v in tail))
