"""Joint spectral amplitude of a noncollinear bulk-crystal pair source.

The two-photon amplitude over frequency detunings (Omega_s, Omega_i) is, up
to the rate prefactor handled in :mod:`spdc_lab.metrics`,

    Phi = pi / sqrt(A C) * Phi_z(dk_z) * exp(-dk_y^2 / (4 C)
          - (Omega_s + Omega_i)^2 / (4 B_p^2)),

where A, C (and D, F, H) collect the transverse Gaussian-beam overlap of the
three modes, dk_y and dk_z are the transverse/longitudinal phase mismatches,
and Phi_z is L sinc(dk_z L / 2) or, with the envelope exp(-H z^2) of ``--walk-off``,
``walk_off_integral``, row 0 of the mode sum's ``z_moments`` (:mod:`spdc_lab.metrics`).
H = F - D^2 / (4 C) comes from the tilt of the collection modes at the emission
angles: the pump's Poynting walk-off does not enter the overlap.

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

from .dispersion import inverse_group_velocity, wave_number
from .errors import ConvergenceError, UnsatisfiableConditionError
from .filters import filter_transmission
from .schmidt import purity

# curvature-matching constant for the sinc -> Gaussian replacement
# sinc(x) ~= exp(-SINC_GAUSS_ALPHA * x^2)
SINC_GAUSS_ALPHA = 0.455

ALPHA_CONVENTIONS = ("paper_literal", "consistent")

MAX_EMISSION_ANGLE = 0.1  # rad; the small-angle regime of the closed forms

# the z order check redoes a quadrature at _Z_RAISE more nodes, to _Z_TOL
_Z_RAISE, _Z_TOL = 8, 1e-6
_SERIES_PHASE = 3.0  # max|q| L/2 up to which z moments are a series (few-ulp cancellation)


@dataclass(frozen=True)
class BeamGeometry:
    """Waists, emission angles, and pump bandwidth of one configuration.

    Waists are 1/e field radii in meters, floats or arrays broadcasting to
    one 1-D batch; W0s is the collection waist of both arms. Angles are
    internal emission angles in radians; pump_bandwidth_Bp in rad/s.
    ``modes`` is the (pump, signal, idler) triple of OpticalMode records.
    """

    W0p: float
    W0s: float
    theta_s: float
    theta_i: float
    pump_bandwidth_Bp: float
    modes: tuple

    def __post_init__(self):
        for w in (self.W0p, self.W0s):
            if np.count_nonzero(w <= 0):
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


def _one_waist(geom):
    for name in ("W0p", "W0s"):
        if np.ndim(getattr(geom, name)):
            raise ValueError("%s: one waist here, not an array" % name)


def check_rayleigh(geom, length_L):
    """Warn when any Rayleigh range is not large against the crystal length.

    The thin-beam factorization used throughout assumes z_r = pi W0^2 /
    lambda >> L; enforce z_r > 10 L with a warning per waist and mode. The
    per-waist loop runs only when some waist's z_r is at or below 10 L: z_r
    grows with the squared waist, so the smallest square of each mode's
    waists decides. Both square a waist as w * w, and so agree bit for bit.
    """
    squares = (
        (w * w).min(initial=math.inf) if isinstance(w, np.ndarray) else w * w
        for w in (geom.W0p, geom.W0s, geom.W0s)
    )
    if all(math.pi * w2 / mode.central_wavelength > 10.0 * length_L
           for w2, mode in zip(squares, geom.modes)):
        return
    for waists in np.broadcast(geom.W0p, geom.W0s, geom.W0s):  # waist by waist
        for w0, mode in zip(waists, geom.modes):
            z_r = math.pi * float(w0 * w0) / mode.central_wavelength
            if z_r <= 10.0 * length_L:
                warnings.warn(
                    "%s Rayleigh range %.2e m is not >> crystal length %.2e m"
                    % (mode.role, z_r, length_L)
                )


@dataclass(frozen=True)
class GeometryFactors:
    """Transverse-overlap curvatures, all in 1/m^2, per waist of a batch."""

    A: float
    C: float
    D: float
    F: float
    H: float

    def __post_init__(self):
        batch = isinstance(self.C, np.ndarray)  # one waist's factors compare as floats
        every, some, top = (np.all, np.any, np.maximum) if batch else (bool, bool, max)
        if not every((self.A >= self.C) & (self.C > 0)):
            raise ValueError("require A >= C > 0")
        if some((self.F < -1e-30) | (self.H < -1e-12 * top(self.F, self.C))):
            raise ValueError("require F >= 0 and H >= 0")


@dataclass(frozen=True)
class JsaGrid:
    """Sampled real amplitude on a uniform detuning grid.

    ``omega_s_samples`` and ``omega_i_samples`` are absolute frequencies in
    rad/s spanning the filter windows; ``amplitude[j, k]`` is Phi at
    (omega_s_samples[j], omega_i_samples[k]). ``normalization_N`` scales
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
    """Transverse-overlap curvatures A, C, D, F and the collection-tilt factor H."""
    wp2, ws2 = geom.W0p * geom.W0p, geom.W0s * geom.W0s
    ts, ti = geom.theta_s, geom.theta_i
    A = 1.0 / wp2 + 1.0 / ws2 + 1.0 / ws2
    C = 1.0 / wp2 + math.cos(ts) ** 2 / ws2 + math.cos(ti) ** 2 / ws2
    D = math.sin(2 * ts) / ws2 - math.sin(2 * ti) / ws2
    F = math.sin(ts) ** 2 / ws2 + math.sin(ti) ** 2 / ws2
    H = F - D * D / (4.0 * C)
    return GeometryFactors(A, C, D, F, (np.maximum if isinstance(H, np.ndarray) else max)(H, 0.0))


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
    from numpy.polynomial.legendre import leggauss  # imported by z integrals alone
    return tuple(map(_read_only, leggauss(n)))


def _trapezoid(x):
    # weights w of the trapezoid rule on the axis x: w @ f == np.trapezoid(f, x)
    h, w = np.diff(x) / 2.0, np.zeros(len(x))
    w[:-1] += h
    w[1:] += h
    return w


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


def z_moments(q, n_z, L, H, J):
    """R[j], j <= J, of the z moments M[j] = sum_z w_z exp(-H z^2) exp(i q z) t^j
    of t = 2z/L on the ``z_nodes`` rule of n_z nodes, one column per entry of
    the 1-D ``q``: the nodes are symmetric and the envelope even, so
    M[j] = i^(j mod 2) R[j] with R real. Up to a phase max|q| L/2 of
    _SERIES_PHASE, R is a power series in q L/2 over the q-free node moments;
    above it, cos and sin of q z over the nodes z > 0."""
    z, env = z_nodes(n_z, L, H)
    phase = float(np.max(np.abs(q), initial=0.0)) * L / 2.0
    R = np.empty((J + 1, q.size))
    if phase <= _SERIES_PHASE:
        # M[j] = sum_p (i Q)^p / p! mu[j + p] of mu[k] = sum_z w_z env t^k, 0 for odd k
        P, omitted = 0, phase  # through the first omitted term <= 1e-17
        while omitted > 1e-17:
            P, omitted = P + 1, omitted * phase / (P + 2)
        mu = env @ (2.0 * z[:, None] / L) ** np.arange(0, J + P + 1, 2)  # of t^(2k)
        sign = [(-1) ** (p // 2) / math.factorial(p) for p in range(P + 1)]
        A = mu[np.add.outer(np.arange(J + 1), np.arange(P + 1)) // 2] * sign
        V, Q = np.empty((P + 1, q.size)), q * (L / 2.0)
        V[0] = 1.0
        for p in range(1, P + 1):  # V[p] = Q^p
            np.multiply(V[p - 1], Q, out=V[p])
        np.matmul(A[0::2, 0::2], V[0::2], out=R[0::2])  # the terms of p = j (mod 2),
        np.matmul(A[1::2, 1::2], V[1::2], out=R[1::2])  # signed (-1)^floor(p/2)
        return R
    P = env[:, None] * (2.0 * z[:, None] / L) ** np.arange(J + 1)
    # the nodes are antisymmetric (z[-1 - k] = -z[k], an odd-n middle node
    # of 0.0) and t^j has parity (-1)^j, so the nodes pair up:
    # even j take 2 cos(q z), odd j 2 sin(q z), over z > 0 only
    half = n_z // 2
    zq = np.outer(z[n_z - half:], q)
    P2 = 2.0 * P[n_z - half:].T
    np.matmul(P2[0::2], np.cos(zq), out=R[0::2])
    R[0::2] += P[half:n_z - half, 0::2].sum(axis=0)[:, None]
    np.matmul(P2[1::2], np.sin(zq), out=R[1::2])
    return R


def walk_off_integral(dk_z, H, L):
    """Longitudinal overlap integral of exp(-H z^2 - i dk_z z) over [-L/2, L/2].

    Real (the imaginary part vanishes by parity) and vectorized over dk_z:
    row 0 of ``z_moments`` of q = dk_z at ``z_order(0, max|dk_z| L / 2,
    H L^2 / 4)`` nodes, checked at _Z_RAISE more nodes.
    """
    if H < 0:
        raise ValueError("H must be nonnegative")
    dk_z = np.asarray(dk_z, dtype=float)
    q = dk_z.ravel()
    n = z_order(0, float(np.max(np.abs(q), initial=0.0)) * L / 2.0, H * L**2 / 4.0)
    base, raised = (z_moments(q, k, L, H, 0)[0] for k in (n, n + _Z_RAISE))
    _check_z_order(base, raised, "walk-off integral")
    return base.reshape(dk_z.shape)[()]


class SpectralTerms:
    """The waist-independent factors of Phi at the detunings (Omega_s,
    Omega_i), any two arrays that broadcast.

    The phase mismatch dk_y, dk_z (in ``dispersion_mode``), the pump envelope
    exp(-(Omega_s + Omega_i)^2 / (4 B_p^2)) and L sinc(dk_z L / 2) depend on
    the crystal, the modes, the emission angles and B_p but not on the
    waists. ``shape`` applies a geometry's C (and H) to them, and
    ``amplitude`` scales it by the waists' pi / sqrt(A C). Held
    read-only: dk_y, dk_z, -dk_y^2 and, from its first use, each of
    ``pump_envelope`` and ``sinc_envelope``, L sinc(dk_z L / 2) times the pump
    envelope. ``z_moments`` holds the (key, {n_z: R}) pair the mode-sum kernels
    share; no kernel is held, so no reference cycle keeps the terms alive.
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

    def shape(self, C, H):
        """Phi over its scalar pi / sqrt(A C): exp(-dk_y^2 / (4 C)) times
        ``sinc_envelope`` (H None: no walk-off) or ``walk_off_integral`` (the
        exp(-H z^2) envelope) times the pump envelope."""
        psi = np.exp(self.negdky2 / (4.0 * C))
        if H is None:
            psi *= self.sinc_envelope
        else:
            psi *= walk_off_integral(self.dkz, H, self.length_L) * self.pump_envelope
        return psi

    def amplitude(self, geom, walk_off):
        """Phi for the waists of ``geom``: ``shape`` times pi / sqrt(A C)."""
        g = geometry_factors(geom)
        return self.shape(g.C, g.H if walk_off else None) * (math.pi / math.sqrt(g.A * g.C))


def _spectral_key(geom, crystal, filters, dispersion_mode):
    # everything a SpectralGrid depends on besides its resolution
    beams = (geom.modes, geom.theta_s, geom.theta_i, geom.pump_bandwidth_Bp)
    return beams + (crystal, filters, dispersion_mode)


class SpectralGrid(SpectralTerms):
    """SpectralTerms on ``resolution`` x ``resolution`` points spanning the
    signal and idler windows of the FilterBank ``filters``.

    Holds, read-only, the absolute axes ``w_s``, ``w_i``, the detuning axes
    ``Om_s``, ``Om_i`` and, from its first use by a rate, the filter weight
    T_s T_i T_p; ``integrate`` is the trapezoid rule on the grid, or on its
    even rows and columns at ``stride`` 2, with both strides' axis weights
    built with the grid. ``figure`` holds the shape and its scalars for the
    last C (and H), so a waist sweep along the separability tie, keyed on the
    C that the tie fixes, builds Psi and its purity once (once per H with
    walk-off), not at every waist.
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
        self._weights = {  # {stride: (signal, idler) axis weights}
            k: (_trapezoid(self.Om_s[::k]), _trapezoid(self.Om_i[::k])) for k in (1, 2)}
        self._figure_slot = (None, None, {})

    @cached_property
    def weight(self):
        f = self._filters
        T_s = filter_transmission(self.w_s, f.signal)
        T_i = filter_transmission(self.w_i, f.idler)
        T_p = filter_transmission(np.add.outer(self.w_s, self.w_i), f.pump)
        return _read_only(T_s[:, None] * T_i[None, :] * T_p)

    def figure(self, key, decompose=None, stride=1):
        """The trapezoid sum of weight Psi^2 (``decompose`` None) or
        ``purity(Psi, decompose)`` of Psi = ``shape(*key)``, for a
        ``figure_keys`` key (C, H). One slot holds the (key, Psi, figures) of
        the last key, read and replaced as one, with Psi read-only: the rate
        and the purity at one key build Psi once, and another key replaces the slot.

        ``stride`` 2 takes the sum on the even rows and columns alone. Since
        linspace(lo, hi, 2 m - 1)[::2] is linspace(lo, hi, m), that is the sum
        of the grid at (n + 1) / 2 points bit for bit; with walk-off, only when
        max|dk_z| on the even points gives ``walk_off_integral`` the z order and
        series it gives on all points (it does on the shipped configs)."""
        if stride not in (1, 2) or (stride == 2 and decompose is not None):
            raise ValueError("stride is 1, or 2 for the trapezoid sum alone")
        held, psi, figures = self._figure_slot
        if held != key:
            psi, figures = _read_only(self.shape(*key)), {}
            self._figure_slot = (key, psi, figures)
        if (decompose, stride) not in figures:
            if decompose is not None:
                figures[decompose, stride] = purity(psi, decompose)
            else:
                s = slice(None, None, stride)
                figures[None, stride] = self.integrate(self.weight[s, s] * psi[s, s] ** 2, stride)
        return figures[decompose, stride]

    def integrate(self, density, stride=1):
        """The trapezoid sum of ``density`` on the grid's points at ``stride`` 1 or 2."""
        w_s, w_i = self._weights[stride]
        return float(w_s @ density @ w_i)


def figure_keys(factors, walk_off, C=None):
    """{``figure`` key (C, H; H None without ``walk_off``): indices} of the
    waists of ``factors``; a float ``C`` (``_tie_curvature``) replaces their own."""
    C = np.ravel(factors.C).tolist() if C is None else [C] * np.size(factors.C)
    H = np.ravel(factors.H).tolist() if walk_off else [None] * len(C)
    keys = {}
    for j, key in enumerate(zip(C, H)):
        keys.setdefault(key, []).append(j)
    return keys


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
    held in the ``spectral_grid`` slot. Array waists raise ValueError.
    """
    _one_waist(geom)
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


def _tie_curvature(geom, crystal, alpha_convention):
    """``purity_waist``'s C*, the curvature C of every waist the tie sets."""
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
    return (u * v) / (1.0 / geom.pump_bandwidth_Bp**2 + alpha_eff * a * b * crystal.length_L**2)


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
    constant of the printed closed-form waist relation. An array W0p gets NaN
    where a waist has no solution; it raises only if none has one.
    """
    radicand = _tie_curvature(geom, crystal, alpha_convention) - 1.0 / (W0p * W0p)
    solvable = radicand > 0
    if not np.count_nonzero(solvable):
        raise UnsatisfiableConditionError(
            "purity condition unsatisfiable; increase B_p, cut detuning, or W0p"
        )
    ts, ti = geom.theta_s, geom.theta_i
    return np.sqrt((math.cos(ts) ** 2 + math.cos(ti) ** 2) / np.where(solvable, radicand, np.nan))


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
    # a list's repr has the float repr and ", " separators of json.dumps, and
    # the same text for the finite floats JsaGrid holds
    im_rows = (repr([0.0] * A.shape[1]),) * A.shape[0]
    re_rows = (repr(a.tolist()) for a in A)
    tail = (grid.normalization_N, grid.omega_i_samples.tolist(), grid.omega_s_samples.tolist())
    with open(path, "w") as fh:
        for head, rows in (('{"amplitude_im": [', im_rows), ('], "amplitude_re": [', re_rows)):
            fh.write(head)
            for j, text in enumerate(rows):
                fh.write(", " + text if j else text)
        fh.write('], "normalization_N": %s, "omega_i_samples": %s, "omega_s_samples": %s}'
                 % tuple(json.dumps(v) for v in tail))
