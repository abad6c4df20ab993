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
from functools import lru_cache, partial
from itertools import zip_longest

import numpy as np

from .config import MAX_RATE_RESOLUTION, Numerics
from .dispersion import (
    effective_nonlinearity,
    index_extraordinary,
    index_ordinary,
)
from .errors import ConsistencyError, ConvergenceError
from .jsa import (
    _Z_RAISE, _Z_TOL, _check_z_order, _one_waist, check_rayleigh,
    figure_keys, geometry_factors, spectral_grid, z_moments, z_order,
)
from .units import c, epsilon_0

# relative change between pair-rate doubling levels, and of the newest
# mode-sum shell against the running sum, at which each sum stops
_RATE_TOL, _SHELL_TOL = 5e-3, 1e-4


@dataclass(frozen=True)
class SinglesResult:
    """Mode-summed singles rate with the truncation bookkeeping: the
    Gauss-Legendre z order of the last shell and the relative change of its
    term at _Z_RAISE more nodes."""

    rate: float
    max_shell: int
    tail_estimate: float
    z_order: int
    z_change: float


@dataclass(frozen=True)
class MetricsReport:
    """The three figures of merit, the singles rates and the mode-sum truncation."""

    pair_rate_R: float
    singles_rate_s: float
    singles_rate_i: float
    heralding_eta: float
    purity_P: float
    mode_sum_truncation: tuple

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
        }


def rate_prefactor(geom, crystal):
    """Per-milliwatt prefactor shared by the pair and singles integrals.

    pref = P d_eff^2 a_s^2 a_i^2 a_p^2 w_s0 w_i0
           / (sqrt(2) pi^(3/2) eps0 c^3 n_s n_i n_p B_p)

    with a_j^2 = 2/(pi W0j^2) the squared fundamental-mode normalizations and
    P = 1e-3 W. Times the joint-density integral (units m^6 (rad/s)^2) it
    yields pairs per second per milliwatt, whatever the pump power.
    """
    a_s, a_p = (2.0 / (math.pi * (w * w)) for w in (geom.W0s, geom.W0p))
    return _waist_free_prefactor(*geom.modes, crystal, geom.pump_bandwidth_Bp) * (a_s * a_s * a_p)


@lru_cache(maxsize=8)
def _waist_free_prefactor(pump, signal, idler, crystal, pump_bandwidth_Bp):
    # rate_prefactor without the a_j^2, computed once per modes, crystal and B_p
    theta = crystal.cut_angle_theta
    d_eff = effective_nonlinearity(theta, crystal.azimuth_phi, crystal) * 1e-12  # pm/V -> m/V
    n_s = float(index_ordinary(signal.central_wavelength, crystal))
    n_i = float(index_ordinary(idler.central_wavelength, crystal))
    n_p = float(index_extraordinary(pump.central_wavelength, theta, crystal))
    return (
        1e-3 * d_eff**2 * signal.central_angular_frequency * idler.central_angular_frequency
        / (math.sqrt(2.0) * math.pi**1.5 * epsilon_0 * c**3 * n_s * n_i * n_p
           * pump_bandwidth_Bp)
    )


def pair_rates_by_key(geom, crystal, filters, numerics, C=None):
    """Pair rates in pairs/(s mW), converged by grid doubling, key by key:
    yields (key, waist indices, rates) for each key of ``figure_keys``.

    The joint density is integrated over the rectangle of the signal and
    idler filter windows (the sum-frequency variable is bounded by the pump
    filter inside the integrand), with the grid refined from
    ``numerics.rate_resolution`` points as N -> 2N - 1, up to
    MAX_RATE_RESOLUTION, until successive estimates agree to _RATE_TOL. Every
    doubling level is pi^2 / (A C) times the ``figure`` of its ``spectral_grid``,
    the first at stride 2 on the second's grid. A key's waists share its
    figure, which converges once; a waist's rate is pref (pi^2 / (A C) figure).
    An unconverged key raises ConvergenceError at its first waist.
    """
    check_rayleigh(geom, crystal.length_L)
    g = geometry_factors(geom)
    pref, level = (x.ravel().tolist() if isinstance(x, np.ndarray) else [x]  # one waist: no numpy
                   for x in (rate_prefactor(geom, crystal), math.pi**2 / (g.A * g.C)))
    setting = (geom, crystal, filters, numerics.dispersion_mode)
    for key, idx in figure_keys(g, numerics.walk_off_enabled, C).items():
        n, j = 2 * numerics.rate_resolution - 1, idx[0]
        prev = spectral_grid(n, *setting).figure(key, stride=2)
        while True:
            if n > MAX_RATE_RESOLUTION:
                raise ConvergenceError(
                    "pair-rate integral did not converge under grid doubling at waist %d" % j,
                    estimates=(pref[j] * (level[j] * prev),),
                )
            fig = spectral_grid(n, *setting).figure(key)
            if abs(fig - prev) <= _RATE_TOL * max(abs(fig), abs(prev)):
                break
            prev, n = fig, 2 * n - 1
        yield key, idx, [pref[k] * (level[k] * fig) for k in idx]


def pair_rate(geom, crystal, filters, numerics=Numerics()):
    """Pair rate in pairs/(s mW) of each waist (``pair_rates_by_key``)."""
    waists = np.broadcast(geom.W0p, geom.W0s)
    rate = np.empty(waists.size)
    for _, idx, rates in pair_rates_by_key(geom, crystal, filters, numerics):
        rate[idx] = rates
    return rate if waists.ndim else float(rate[0])


def _scaled_hermite(m, u, c, G=(1.0,)):
    """[G_0, ..., G_m] at ``u``, continuing the first orders ``G``, where
    G_k(u; c) = c^(k/2) H_k(u / sqrt(c)) is a polynomial in c (no branch cut
    for c < 0) obeying G_(k+1) = 2 u G_k - 2 k c G_(k-1)."""
    G = [1.0, 2.0 * u] if len(G) == 1 else list(G)
    for k in range(len(G) - 1, m):
        G.append(2.0 * u * G[k] - 2.0 * k * c * G[k - 1])
    return G[: m + 1]


# z orders cover Hermite orders up to _FIRST_MAX_M, then 2 _FIRST_MAX_M, ...
_FIRST_MAX_M = 6


class _ModeSumKernel:
    """Hermite-Gauss projections of one arm (``which``) of one geometry.

    The overlap with collection mode (n, m) factorizes into x, y and z
    integrals times the pump spectral envelope. The x and y integrals are
    closed forms in the scaled Hermite polynomials G_k of ``_scaled_hermite``:
    x gives sqrt(pi/A) G_n(0; 1 - 2/(A W^2)), and completing the square in
    exp(-C y^2 - D y z + i dk_y y) leaves, at each z,
    sqrt(pi/C) exp(-dk_y^2/(4C) + i q z) G_m(u + beta z; c) with
    q = dk_z - dk_y D/(2C), u = i s, s = sqrt2 cos(theta) dk_y/(2 C W),
    beta = sqrt2 (sign sin(theta) - cos(theta) D/(2C))/W and
    c = 1 - 2 cos^2(theta)/(C W^2). The addition formula
    G_m(u + v) = sum_k binom(m, k) G_k(u) (2v)^(m-k) leaves z, the one
    quadrature (the ``z_nodes`` rule at ``z_order``), in the moments
    M[j] = sum_z w_z env(z) exp(i q z) t^j of t = 2z/L (z^j would underflow
    at high j). (beta L)^j goes into the coefficients, so order m is one
    product of G_0..G_m with M[m..0]. env is exp(-H z^2) with walk-off and 1
    without, as in ``walk_off_integral``. All of it is real arithmetic: the
    nodes are symmetric and env even, so M[j] = i^(j mod 2) R[j] with R real
    (``jsa.z_moments``), and G_k(i s; c) = i^k G_k(s; -c) leaves the y-z overlap
    of order m as i^(m mod 2) r_m with r_m real (``yz_integral``). The arm sets
    theta and sign: (theta_s, +1) for the signal, (theta_i, -1) for the idler;
    both arms have W = W0s and A, C, D and H. ``terms`` (SpectralTerms on a 2-D
    detuning grid) supplies the phase mismatch and the pump factors, and holds
    R in ``z_moments`` for the last key (D/(2C), H), all of the geometry R
    depends on: every waist of a degenerate pair without walk-off has the key
    (0.0, 0.0), and the two arms of a waist share it. ``jsa.z_moments``, whose
    row 0 at q = dk_z is ``walk_off_integral``, takes R as a series or from
    cos and sin of q z by the phase. The kernel holds its arm's rows G; the
    terms hold no kernel, so a kernel lives as long as its caller keeps it.
    """

    def __init__(self, geom, terms, walk_off, which):
        if which == "signal":
            theta, sign = geom.theta_s, +1.0
        elif which == "idler":
            theta, sign = geom.theta_i, -1.0
        else:
            raise ValueError("which must be 'signal' or 'idler'")
        self.geom, self.terms = geom, terms
        self.g = g = geometry_factors(geom)
        self.shape = terms.dky.shape
        self.dky = terms.dky.ravel()
        self.q = terms.dkz.ravel() - self.dky * (g.D / (2.0 * g.C))
        self.gp = terms.pump_envelope.ravel()
        self.yz_pref = math.sqrt(math.pi / g.C) * np.exp(terms.negdky2.ravel() / (4.0 * g.C))
        self.H = g.H if walk_off else 0.0  # collection-tilt envelope exp(-H z^2)
        self.phase = float(np.max(np.abs(self.q), initial=0.0)) * terms.length_L / 2.0
        self.spread = self.H * terms.length_L**2 / 4.0
        W = geom.W0s
        self.a2 = 2.0 * math.cos(theta) ** 2 / W**2  # y curvature of the arm's mode
        beta = math.sqrt(2.0) * (sign * math.sin(theta) - math.cos(theta) * g.D / (2.0 * g.C)) / W
        self.bL = beta * terms.length_L  # (2 beta z)^j = bL^j t^j
        key = (g.D / (2.0 * g.C), self.H)  # all of the geometry R depends on
        pair = terms.z_moments
        if pair[0] != key:  # (key, {n_z: R}) is read and replaced as one pair
            pair = terms.z_moments = (key, {})
        self.moments, self.G = pair[1], (1.0,)

    @staticmethod
    def _tier(m):
        top = _FIRST_MAX_M
        while top < m:
            top *= 2
        return top

    def z_order(self, m):
        """Gauss-Legendre order used for Hermite order m: the one covering the
        first of _FIRST_MAX_M, 2 _FIRST_MAX_M, ... at or above m, so that a
        term does not depend on the orders requested before it."""
        return z_order(self._tier(m), self.phase, self.spread)

    def x_integral(self, n):
        c = 1.0 - 2.0 / (self.g.A * self.geom.W0s**2)
        return math.sqrt(math.pi / self.g.A) * _scaled_hermite(n, 0.0, c)[n]

    def yz_integral(self, m, n_z=None):
        """r_m of the y-z overlap i^(m mod 2) r_m of Hermite order m on the
        grid, at ``z_order(m)`` nodes or, for an order check, at ``n_z`` nodes."""
        n_z = self.z_order(m) if n_z is None else n_z
        R = self.moments.get(n_z)
        if R is None or R.shape[0] <= m:
            R = self.moments[n_z] = z_moments(self.q, n_z, self.terms.length_L, self.H,
                                              self._tier(m))
        g, a2, G = self.g, self.a2, self.G
        if len(G) <= m:
            s = (math.sqrt(a2) / (2.0 * g.C)) * self.dky
            G = self.G = _scaled_hermite(m, s, a2 / g.C - 1.0, G)
        # i^k from G_k times i^((m-k) mod 2) from R[m-k] is i^(m mod 2) sign[k]
        coef = [(-1) ** ((k + 1 - m % 2) // 2) * math.comb(m, k) * self.bL ** (m - k)
                for k in range(m + 1)]
        GR = np.empty((m + 1, self.q.size))
        for k in range(m + 1):
            np.multiply(G[k], R[m - k], out=GR[k])
        return self.yz_pref * (np.array(coef) @ GR)

    def term(self, m, n_z=None):
        """Singles term d_m of order m, at ``z_order(m)`` nodes or ``n_z``."""
        yz = self.gp * self.yz_integral(m, n_z)
        density = self.terms.weight * (yz**2).reshape(self.shape)
        return self.terms.integrate(density) / (2**m * math.factorial(m))


def _singles_shells(which, geom, crystal, filters, numerics):
    """The mode sum of ``singles_rate``: yields (running rate, finish) after
    each shell, through the one meeting the tail criterion, where finish() runs
    the z-order check on that shell and returns its SinglesResult. The ladder
    builds its own kernel on the slot's singles grid and drops it when it ends."""
    _one_waist(geom)
    check_rayleigh(geom, crystal.length_L)
    pref = rate_prefactor(geom, crystal)
    grid = spectral_grid(
        numerics.singles_resolution, geom, crystal, filters, numerics.dispersion_mode
    )
    kernel = _ModeSumKernel(geom, grid, numerics.walk_off_enabled, which)

    def finish(shell, contrib, total):
        n_z = kernel.z_order(shell)
        raised = kernel.term(shell, n_z + _Z_RAISE)
        z_change = _check_z_order(d_m[shell], raised, "mode-sum shell %d" % shell)
        tail = contrib / total if total > 0 else 0.0
        return SinglesResult(pref * total, shell, tail, n_z, z_change)

    # shell s adds c_s and d_s; its terms are c_n d_(s-n)
    c_n, d_m, total, shell = [], [], 0.0, 0
    while True:
        c_n.append(kernel.x_integral(shell) ** 2 / (2**shell * math.factorial(shell)))
        d_m.append(kernel.term(shell))
        contrib = sum(c * d for c, d in zip(c_n, reversed(d_m)))
        total += contrib
        yield pref * total, partial(finish, shell, contrib, total)
        if shell > 0 and contrib < _SHELL_TOL * total:
            return
        shell += 1
        if shell > numerics.truncation_max_order:
            raise ConvergenceError(
                "mode-sum shell ceiling reached before the tail criterion",
                estimates=(pref * total,),
            )


def singles_rate(which, geom, crystal, filters, numerics=Numerics()):
    """Mode-summed singles rate for one arm, in counts/(s mW).

    Sums per-mode rates over constant-(n + m) shells until the newest shell
    contributes less than _SHELL_TOL of the running sum;
    ``numerics.truncation_max_order`` caps the per-axis order. The per-mode
    normalization divides the squared fundamental normalization by
    2^(n+m) n! m!. The last shell's y-z term is evaluated again at _Z_RAISE
    more z nodes, and a relative change beyond _Z_TOL raises
    ConvergenceError. Each call builds its own kernel on the ``spectral_grid``
    slot's singles grid. Array waists raise ValueError.
    """
    *_, (_, finish) = _singles_shells(which, geom, crystal, filters, numerics)
    return finish()


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
    """(R, signal and idler SinglesResult, eta) of one geometry."""
    R = pair_rate(geom, crystal, filters, numerics)
    res_s, res_i = (
        singles_rate(which, geom, crystal, filters, numerics) for which in ("signal", "idler")
    )
    return R, res_s, res_i, heralding_efficiency(R, res_s.rate, res_i.rate)


def heralding_margin(geom, crystal, filters, numerics, P):
    """heralding_rates' eta - P, or R / sqrt(rs ri) - P once that is negative
    for the singles rs, ri summed so far, one shell per arm at a time: the
    terms are nonnegative, so it bounds eta from above, in floating point too.
    It then runs the z-order check on each arm's newest shell and stops."""
    R = pair_rate(geom, crystal, filters, numerics)
    arms = [_singles_shells(w, geom, crystal, filters, numerics) for w in ("signal", "idler")]
    shells = (None, None)
    for newer in zip_longest(*arms):  # an arm whose ladder has ended keeps its last shell
        shells = [new or old for new, old in zip(newer, shells)]
        if (bound := R / math.sqrt(shells[0][0] * shells[1][0]) - P) < 0:
            for _, finish in shells:
                finish()
            return bound
    return heralding_efficiency(R, *(finish().rate for _, finish in shells)) - P


def jsa_purity(geom, crystal, filters, numerics):
    """Purity, in the ``numerics.decompose`` mode, of the amplitude that
    ``jsa_grid`` samples: the ``figure`` of its shape on the slot grid, once
    per key of ``figure_keys``."""
    check_rayleigh(geom, crystal.length_L)
    grid = spectral_grid(
        numerics.grid_resolution, geom, crystal, filters, numerics.dispersion_mode
    )
    waists, g = np.broadcast(geom.W0p, geom.W0s), geometry_factors(geom)
    purity = np.empty(waists.size)
    for key, idx in figure_keys(g, numerics.walk_off_enabled).items():
        purity[idx] = grid.figure(key, numerics.decompose)
    return purity if waists.ndim else float(purity[0])


def compute_metrics(geom, crystal, filters, numerics=Numerics()):
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
    )
