import json
import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.constants import c, epsilon_0
from scipy.special import eval_hermite

from spdc_lab import jsa, metrics, sweep
from spdc_lab.config import _INT_RANGES, Numerics, load_config, shipped_config_path
from spdc_lab.dispersion import effective_nonlinearity, index_extraordinary, index_ordinary
from spdc_lab.errors import ConsistencyError, ConvergenceError
from spdc_lab.filters import FilterBank, FilterSpec, filter_transmission
from spdc_lab.jsa import (
    SpectralGrid,
    SpectralTerms,
    central_inverse_group_velocities,
    geometry_factors,
    mode_function,
    phase_mismatch_exact,
    phase_mismatch_linear,
    spectral_grid,
    z_nodes,
)
from spdc_lab.metrics import (
    _arm,
    _ModeSumKernel,
    compute_metrics,
    heralding_efficiency,
    heralding_rates,
    jsa_purity,
    pair_rate,
    rate_prefactor,
    singles_rate,
)

COLLINEAR_CUT = 0.502931589050  # rad, degenerate collinear angle of the shipped data


def fundamental_limit_case(cfg):
    """Collinear cut, near-plane-wave pump: only the (0, 0) mode couples."""
    crystal = replace(cfg.crystal, cut_angle_theta=COLLINEAR_CUT)
    geom = replace(cfg.geom, theta_s=0.0, theta_i=0.0, W0p=5.0, W0s=1e-4)
    return geom, crystal


class TestFilters:
    def test_closed_edges(self):
        f = FilterSpec(center=10.0, half_width=2.0, transmission=0.7)
        vals = filter_transmission(np.array([7.9, 8.0, 10.0, 12.0, 12.1]), f)
        assert list(vals) == [0.0, 0.7, 0.7, 0.7, 0.0]
        assert f.support == (8.0, 12.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            FilterSpec(center=1.0, half_width=0.0)
        with pytest.raises(ValueError):
            FilterSpec(center=1.0, half_width=1.0, transmission=1.5)


def written_out_prefactor(geom, crystal):
    """rate_prefactor multiplied out in one expression, nothing held."""
    d_eff = 1e-12 * effective_nonlinearity(crystal.cut_angle_theta, crystal.azimuth_phi, crystal)
    n_s = float(index_ordinary(geom.signal.central_wavelength, crystal))
    n_i = float(index_ordinary(geom.idler.central_wavelength, crystal))
    n_p = float(index_extraordinary(geom.pump.central_wavelength, crystal.cut_angle_theta, crystal))
    a2_s, a2_i, a2_p = (2.0 / (math.pi * w**2) for w in (geom.W0s, geom.W0s, geom.W0p))
    return (
        1e-3 * d_eff**2 * a2_s * a2_i * a2_p
        * geom.signal.central_angular_frequency * geom.idler.central_angular_frequency
        / (math.sqrt(2.0) * math.pi**1.5 * epsilon_0 * c**3 * n_s * n_i * n_p
           * geom.pump_bandwidth_Bp)
    )


class TestRatePrefactor:
    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_written_out_across_waists(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        for scale in np.geomspace(0.3, 3.0, 9):
            for geom in (
                replace(cfg.geom, W0s=scale * cfg.geom.W0s),
                replace(cfg.geom, W0p=scale * cfg.geom.W0p),
            ):
                want = written_out_prefactor(geom, cfg.crystal)
                assert abs(rate_prefactor(geom, cfg.crystal) - want) <= 1e-15 * want

    def test_memo_follows_crystal_and_modes(self, degenerate, nondegenerate):
        # the waist-free part is held per modes, crystal and B_p; each
        # variant is asked for after the base, so a stale entry would show
        geom, crystal = degenerate.geom, degenerate.crystal
        variants = [
            (geom, replace(crystal, length_L=2 * crystal.length_L)),
            (geom, replace(crystal, cut_angle_theta=1.01 * crystal.cut_angle_theta)),
            (geom, replace(crystal, d31=2 * crystal.d31)),
            (replace(geom, modes=nondegenerate.geom.modes), crystal),
            (replace(geom, pump_bandwidth_Bp=2 * geom.pump_bandwidth_Bp), crystal),
        ]
        base = rate_prefactor(geom, crystal)
        for other_geom, other_crystal in variants:
            got = rate_prefactor(other_geom, other_crystal)
            want = written_out_prefactor(other_geom, other_crystal)
            assert abs(got - want) <= 1e-15 * want
            assert rate_prefactor(geom, crystal) == base

    def test_components_multiply_out(self, degenerate):
        geom, crystal = degenerate.geom, degenerate.crystal
        d_eff = 1e-12 * effective_nonlinearity(
            crystal.cut_angle_theta, crystal.azimuth_phi, crystal
        )
        n_s = float(index_ordinary(geom.signal.central_wavelength, crystal))
        n_i = float(index_ordinary(geom.idler.central_wavelength, crystal))
        n_p = float(
            index_extraordinary(geom.pump.central_wavelength, crystal.cut_angle_theta, crystal)
        )
        alpha_sq = [2.0 / (math.pi * w**2) for w in (geom.W0s, geom.W0s, geom.W0p)]
        # 1 mW of pump, in watts
        want = (
            1e-3
            * d_eff**2
            * math.prod(alpha_sq)
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
        got = rate_prefactor(geom, crystal)
        assert isinstance(got, float)
        assert got == pytest.approx(want, rel=1e-12)
        assert got > 0


class TestPairRate:
    def test_frozen_degenerate(self, degenerate):
        R = pair_rate(degenerate.geom, degenerate.crystal, degenerate.filters)
        assert R == pytest.approx(11.0404, rel=1e-4)

    def test_frozen_nondegenerate(self, nondegenerate):
        R = pair_rate(nondegenerate.geom, nondegenerate.crystal, nondegenerate.filters)
        assert R == pytest.approx(7.6940, rel=1e-4)

    def test_per_milliwatt_power_invariance(self, degenerate, degenerate_with):
        cfg = degenerate
        base = pair_rate(cfg.geom, cfg.crystal, cfg.filters)
        cfg2 = degenerate_with("pump", "power_mW", 2.0)
        doubled = pair_rate(cfg2.geom, cfg2.crystal, cfg2.filters)
        assert doubled == pytest.approx(base, rel=1e-12)

    def test_zero_transmission(self, degenerate):
        cfg = degenerate
        dark = FilterBank(
            signal=replace(cfg.filters.signal, transmission=0.0),
            idler=replace(cfg.filters.idler, transmission=0.0),
            pump=cfg.filters.pump,
        )
        assert pair_rate(cfg.geom, cfg.crystal, dark) == 0.0

    def test_narrower_filters_reduce_rate(self, degenerate):
        cfg = degenerate
        narrow = FilterBank(
            signal=replace(cfg.filters.signal, half_width=cfg.filters.signal.half_width / 2),
            idler=replace(cfg.filters.idler, half_width=cfg.filters.idler.half_width / 2),
            pump=cfg.filters.pump,
        )
        assert pair_rate(cfg.geom, cfg.crystal, narrow) < pair_rate(
            cfg.geom, cfg.crystal, cfg.filters
        )

    def test_shares_the_jsa_amplitude(self, degenerate, monkeypatch):
        # the 201-point doubling level and the 201-point JSA at one waist
        # evaluate the amplitude once, on the factors the grid keyed it on
        cfg = degenerate
        shapes = []
        amplitude = SpectralTerms.amplitude

        def counted(self, geom, walk_off, factors=None):
            assert factors == geometry_factors(geom)
            shapes.append(self.dky.shape)
            return amplitude(self, geom, walk_off, factors)

        monkeypatch.setattr(SpectralTerms, "amplitude", counted)
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        for W0s in (cfg.geom.W0s, 0.9 * cfg.geom.W0s):
            geom = replace(cfg.geom, W0s=W0s)
            pair_rate(geom, cfg.crystal, cfg.filters, cfg.numerics)
            jsa_purity(geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert shapes == [(101, 101), (201, 201)] * 2

    def test_threads_at_two_waists_match_serial_runs(self, degenerate):
        # four threads read one setting's slot grids at two waists, with and
        # without walk-off: the kernels of the two waists without walk-off
        # share the z moments held on the singles grid, and the walk-off ones
        # replace them with their own key's
        cfg = degenerate
        narrow = replace(cfg.geom, W0s=0.8 * cfg.geom.W0s)
        walk_off = replace(cfg.numerics, walk_off_enabled=True)
        cases = [(geom, n) for n in (cfg.numerics, walk_off) for geom in (cfg.geom, narrow)]

        def figures(geom, numerics):
            R, res_s, res_i, eta = heralding_rates(geom, cfg.crystal, cfg.filters, numerics)
            return (
                pair_rate(geom, cfg.crystal, cfg.filters, numerics),
                jsa_purity(geom, cfg.crystal, cfg.filters, numerics),
                R, res_s.rate, res_i.rate, eta,
            )

        serial = [figures(*case) for case in cases]
        wrong = []

        def worker(k):
            for _ in range(15):
                if figures(*cases[k]) != serial[k]:
                    wrong.append(k)

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(len(cases))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and wrong == []

    def test_nonconvergence_raises(self, degenerate, monkeypatch):
        cfg = degenerate
        monkeypatch.setattr(metrics, "_RATE_TOL", 1e-12)
        monkeypatch.setattr(metrics, "MAX_RATE_RESOLUTION", 21)
        with pytest.raises(ConvergenceError):
            pair_rate(cfg.geom, cfg.crystal, cfg.filters, Numerics(rate_resolution=11))


def one_point_overlap(n, m, Om_s, Om_i, geom, crystal, which="signal", walk_off=False):
    """Overlap with the (n, m) Hermite-Gauss mode of one arm at one detuning
    pair, on a one-point mode-sum kernel: i^(m mod 2) times the real product
    of the pump envelope and the x and y-z integrals."""
    terms = SpectralTerms(np.array([[Om_s]]), np.array([[Om_i]]), geom, crystal, "exact")
    kern = _ModeSumKernel(geom, terms, walk_off)
    arm = _arm(geom, which)
    real = kern.gp[0] * kern.x_integral(n) * kern.yz_integral(m, arm)[0]
    return complex(real * 1j ** (m % 2))


class TestModeOverlap:
    def test_fundamental_matches_closed_form(self, degenerate):
        cfg = degenerate
        got = one_point_overlap(0, 0, 0.0, 0.0, cfg.geom, cfg.crystal)
        want = complex(mode_function(0.0, 0.0, cfg.geom, cfg.crystal))
        assert abs(got - want) <= 1e-6 * abs(want)

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_first_excited_against_dense_quadrature(self, which_cfg, request):
        # independent oracle: brute-force trapezoid evaluation of the
        # transverse-longitudinal overlap with the m = 1 collection mode
        cfg = request.getfixturevalue(which_cfg)
        geom, cr = cfg.geom, cfg.crystal
        g = geometry_factors(geom)
        Om_s, Om_i = 1e12, -0.5e12
        dky, dkz = phase_mismatch_exact(Om_s, Om_i, geom, cr)
        dky, dkz = float(dky), float(dkz)
        L = cr.length_L
        y = np.linspace(-6 / math.sqrt(g.C), 6 / math.sqrt(g.C), 1201)
        z = np.linspace(-L / 2, L / 2, 1201)
        Yg, Zg = np.meshgrid(y, z, indexing="ij")
        arg = (Yg * math.cos(geom.theta_s) + Zg * math.sin(geom.theta_s))
        herm1 = 2.0 * math.sqrt(2.0) * arg / geom.W0s
        integrand = herm1 * np.exp(
            -g.C * Yg**2
            - g.D * Yg * Zg
            - g.F * Zg**2
            + 1j * (dky * Yg + dkz * Zg)
        )
        I_yz = np.trapezoid(np.trapezoid(integrand, z, axis=1), y)
        g_p = math.exp(-(Om_s + Om_i) ** 2 / (4 * geom.pump_bandwidth_Bp**2))
        brute = g_p * math.sqrt(math.pi / g.A) * I_yz
        got = one_point_overlap(0, 1, Om_s, Om_i, geom, cr, walk_off=True)
        assert abs(got - brute) <= 1e-4 * abs(brute)

    def test_bad_arm(self, degenerate):
        with pytest.raises(ValueError, match="which"):
            singles_rate("pump", degenerate.geom, degenerate.crystal, degenerate.filters)


def yz_loop_oracle(geom, crystal, dk, which, walk_off, m, n_y=80, n_z=64):
    """y-z overlap of one arm for the phase mismatch ``dk`` = (dky, dkz) by
    Gauss-Hermite quadrature in y, one Gauss-Legendre z node at a time, with
    the phase dky y + dkz z evaluated directly at the shifted y nodes."""
    g = geometry_factors(geom)
    dky, dkz = (np.ravel(d) for d in dk)
    if which == "signal":
        theta, sign = geom.theta_s, 1.0
    else:
        theta, sign = geom.theta_i, -1.0
    Wc = geom.W0s
    half = crystal.length_L / 2.0
    tz, wz = leggauss(n_z)
    ty, wy = hermgauss(n_y)
    out = np.zeros(dky.size, dtype=complex)
    for z, w in zip(tz * half, wz * half):
        y = ty / math.sqrt(g.C) - g.D * z / (2.0 * g.C)
        y_rot = y * math.cos(theta) + sign * z * math.sin(theta)
        h = eval_hermite(m, math.sqrt(2.0) * y_rot / Wc) * wy / math.sqrt(g.C)
        phase = np.exp(1j * (np.outer(dky, y) + dkz[:, None] * z))
        env = w * (math.exp(-g.H * z**2) if walk_off else 1.0)
        out += env * (phase @ h)
    return out


def assert_kernel_matches_oracle(kern, geom, crystal, dk, walk_off):
    # the kernel returns the real r_m of the overlap i^(m mod 2) r_m
    for which in ("signal", "idler"):
        arm = _arm(geom, which)
        for m in range(9):
            got = 1j ** (m % 2) * kern.yz_integral(m, arm)
            want = yz_loop_oracle(geom, crystal, dk, which, walk_off, m)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (which, m)


def detuning_mesh(geom, filters, n_s, n_i):
    Om_s = np.linspace(*filters.signal.support, n_s)
    Om_i = np.linspace(*filters.idler.support, n_i)
    return np.meshgrid(
        Om_s - geom.signal.central_angular_frequency,
        Om_i - geom.idler.central_angular_frequency,
        indexing="ij",
    )


class TestModeSumKernel:
    """The closed-form x and y overlaps of one kernel per geometry against
    Gauss-Hermite quadrature, and the order of its z quadrature."""

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_shared_kernel_matches_loop_oracle(self, which_cfg, walk_off, request):
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        OS, OI = detuning_mesh(geom, filters, 15, 13)
        kern = _ModeSumKernel(geom, SpectralTerms(OS, OI, geom, crystal, "exact"), walk_off)
        dk = phase_mismatch_exact(OS, OI, geom, crystal)
        assert_kernel_matches_oracle(kern, geom, crystal, dk, walk_off)

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_kernel_follows_linear_dispersion(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        grid = SpectralGrid(15, geom, crystal, filters, "linear")
        kern = _ModeSumKernel(geom, grid, False)
        OS, OI = np.meshgrid(grid.Om_s, grid.Om_i, indexing="ij")
        ngv = central_inverse_group_velocities(geom, crystal)
        dk = phase_mismatch_linear(OS, OI, ngv, (geom.theta_s, geom.theta_i))
        assert_kernel_matches_oracle(kern, geom, crystal, dk, False)

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_x_integral_against_gauss_hermite(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        geom = cfg.geom
        g = geometry_factors(geom)
        grid = SpectralGrid(15, geom, cfg.crystal, cfg.filters, "exact")
        kern = _ModeSumKernel(geom, grid, False)
        t, w = hermgauss(40)
        for n in range(9):
            got = kern.x_integral(n)
            if n % 2:
                assert got == 0.0
                continue
            u = math.sqrt(2.0) * t / (math.sqrt(g.A) * geom.W0s)
            want = float(w @ eval_hermite(n, u)) / math.sqrt(g.A)
            assert got == pytest.approx(want, rel=1e-10, abs=0.0), n

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_z_moments_match_full_exponential(self, which_cfg, walk_off, request):
        # the kernel pairs z with -z and evaluates cos and sin on z > 0; the
        # reference evaluates exp(i q z) on every node. Row j of the moments
        # both arms share is Re M[j] for even j and Im M[j] for odd j, with
        # t = 2z/L the scaled node
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal = cfg.geom, cfg.crystal
        grid = SpectralGrid(101, geom, crystal, cfg.filters, "exact")
        kern = _ModeSumKernel(geom, grid, walk_off)
        L, J = crystal.length_L, 6
        for n_z in (7, 8, 21, 22):
            z, env = z_nodes(n_z, L, kern.H)
            E = np.exp(1j * np.outer(kern.q, z))
            got = kern._z_moments(n_z, J)
            want = E @ (env[:, None] * (2.0 * z[:, None] / L) ** np.arange(J + 1))
            want = np.where(np.arange(J + 1) % 2, want.imag, want.real).T
            diff = np.max(np.abs(got - want))
            assert diff <= 1e-15 * np.max(np.abs(want)), n_z

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_moments_and_overlaps_are_real(self, nondegenerate, walk_off):
        cfg = nondegenerate
        geom, crystal = cfg.geom, cfg.crystal
        kern = _ModeSumKernel(geom, SpectralGrid(31, geom, crystal, cfg.filters, "exact"), walk_off)
        R = kern._z_moments(kern.z_order(6), 6)
        assert R.dtype == np.float64 and R.shape == (7, 31 * 31) and R.flags.c_contiguous
        for which in ("signal", "idler"):
            for m in range(8):
                assert kern.yz_integral(m, _arm(geom, which)).dtype == np.float64

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_mode_function_parity_and_oracle(self, which_cfg, walk_off, request):
        # the overlap i^(m mod 2) gp x r_m is real for even m and imaginary
        # for odd m: the kernel's pump envelope, x and y-z factors are real
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal = cfg.geom, cfg.crystal
        OS, OI = detuning_mesh(geom, cfg.filters, 9, 7)
        kern = _ModeSumKernel(geom, SpectralTerms(OS, OI, geom, crystal, "exact"), walk_off)
        g_p = np.exp(-((OS + OI) ** 2) / (4.0 * geom.pump_bandwidth_Bp**2))
        x = math.sqrt(math.pi / geometry_factors(geom).A)
        dk = phase_mismatch_exact(OS, OI, geom, crystal)
        for which in ("signal", "idler"):
            arm = _arm(geom, which)
            for m in range(6):
                real = kern.gp * kern.x_integral(0) * kern.yz_integral(m, arm)
                assert real.dtype == np.float64, (which, m)
                got = 1j ** (m % 2) * real.reshape(OS.shape)
                want = g_p * x * yz_loop_oracle(geom, crystal, dk, which, walk_off, m).reshape(OS.shape)
                assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (which, m)

    @pytest.mark.parametrize(
        "which_cfg, walk_off, shared",
        [("degenerate", False, True), ("degenerate", True, False),
         ("nondegenerate", False, False), ("nondegenerate", True, False)],
    )
    def test_z_moments_reused_across_waists(self, which_cfg, walk_off, shared, request):
        # the moments depend on the geometry through D/(2C) and H alone: a
        # degenerate pair (D = 0) without walk-off (H = 0) keeps them across
        # waists, and any other design changes the key with the waist
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        narrow = replace(geom, W0s=0.8 * geom.W0s)
        grid = SpectralGrid(31, geom, crystal, filters, "exact")
        first = _ModeSumKernel(geom, grid, walk_off)
        for m in range(9):
            first.yz_integral(m, _arm(geom, "signal"))
        second = _ModeSumKernel(narrow, grid, walk_off)
        assert (second.moments is first.moments) == shared
        assert grid.z_moments[1] is second.moments
        fresh = _ModeSumKernel(narrow, SpectralGrid(31, geom, crystal, filters, "exact"), walk_off)
        for which in ("signal", "idler"):
            arm = _arm(narrow, which)
            for m in range(9):
                assert np.array_equal(second.yz_integral(m, arm), fresh.yz_integral(m, arm)), m

    def test_interleaved_kernel_keeps_its_own_moments(self, degenerate, monkeypatch):
        # while one kernel stores its key's moments on the grid, a kernel with
        # another key is built on the same grid, as another thread could; each
        # must hold and use its own key's moments
        cfg = degenerate
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        grid = SpectralGrid(31, geom, crystal, filters, "exact")
        nested = []

        def interleaved(self, name, value):
            object.__setattr__(self, name, value)
            if name == "z_moments" and not nested:
                nested.append(_ModeSumKernel(geom, self, True))

        monkeypatch.setattr(SpectralGrid, "__setattr__", interleaved)
        kern = _ModeSumKernel(geom, grid, False)
        assert kern.moments is not nested[0].moments
        for got, walk_off in ((kern, False), (nested[0], True)):
            fresh = _ModeSumKernel(geom, SpectralGrid(31, geom, crystal, filters, "exact"), walk_off)
            for which in ("signal", "idler"):
                arm = _arm(geom, which)
                for m in range(9):
                    assert np.array_equal(got.yz_integral(m, arm), fresh.yz_integral(m, arm)), m

    def test_optimize_computes_few_z_moments(self, degenerate, monkeypatch):
        # every geometry of a degenerate optimize without walk-off has the
        # key (0.0, 0.0), so the moments are computed once per z order
        cfg = degenerate
        calls = []
        nodes = metrics.z_nodes

        def counted(n, L, H):
            calls.append(n)
            return nodes(n, L, H)

        monkeypatch.setattr(metrics, "z_nodes", counted)
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        sweep.optimize(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert 0 < len(calls) <= 8

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_overlap_finite_at_the_order_ceiling(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        geom = cfg.geom
        kern = _ModeSumKernel(geom, SpectralGrid(31, geom, cfg.crystal, cfg.filters, "exact"), True)
        m = _INT_RANGES["truncation_max_order"][1]
        for which in ("signal", "idler"):
            assert np.all(np.isfinite(kern.yz_integral(m, _arm(geom, which)))), which

    def test_too_low_z_order_raises(self, nondegenerate, monkeypatch):
        cfg = nondegenerate
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        # one Gauss-Legendre node (the crystal centre) for every Hermite order
        monkeypatch.setattr(_ModeSumKernel, "z_order", lambda self, m: 1)
        with pytest.raises(ConvergenceError, match="z quadrature") as info:
            singles_rate("signal", geom, crystal, filters, Numerics(singles_resolution=31))
        base, raised = info.value.estimates
        assert abs(base - raised) > metrics._Z_TOL * abs(raised)

    def test_z_order_grows_with_the_ladder(self, degenerate, monkeypatch):
        cfg = degenerate
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        # the kernel singles_rate builds on the slot grid at resolution 31
        kern = _ModeSumKernel(geom, spectral_grid(31, geom, crystal, filters, "exact"), False)
        first = kern.z_order(0)
        assert kern.z_order(metrics._FIRST_MAX_M) == first
        assert kern.z_order(metrics._FIRST_MAX_M + 1) > first
        monkeypatch.setattr(metrics, "_SHELL_TOL", 1e-9)
        deep = singles_rate("signal", geom, crystal, filters, Numerics(singles_resolution=31))
        assert deep.max_shell > metrics._FIRST_MAX_M
        assert deep.z_order == kern.z_order(deep.max_shell) > first
        assert 0.0 <= deep.z_change <= metrics._Z_TOL
        # a term does not depend on the orders requested before it
        arm = _arm(geom, "signal")
        kern.yz_integral(deep.max_shell, arm)
        fresh = _ModeSumKernel(geom, kern.terms, False)
        assert np.array_equal(fresh.yz_integral(3, arm), kern.yz_integral(3, arm))

    def test_singles_rate_after_the_slot_moves(self, degenerate, nondegenerate):
        cfg = nondegenerate
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        numerics = Numerics(singles_resolution=31)
        own = [singles_rate(which, geom, crystal, filters, numerics) for which in ("signal", "idler")]
        # the slot moves to another setting and back: the kernels rebuilt on
        # the new grid give the same rates
        d = degenerate
        spectral_grid(31, d.geom, d.crystal, d.filters, "exact")
        for which, want in zip(("signal", "idler"), own):
            assert singles_rate(which, geom, crystal, filters, numerics) == want


class TestSinglesRate:
    def test_frozen_and_symmetric(self, degenerate):
        cfg = degenerate
        rs = singles_rate("signal", cfg.geom, cfg.crystal, cfg.filters)
        ri = singles_rate("idler", cfg.geom, cfg.crystal, cfg.filters)
        assert rs.rate == pytest.approx(11.2390, rel=1e-4)
        assert ri.rate == pytest.approx(rs.rate, rel=1e-6)
        assert rs.tail_estimate < 1e-4
        assert rs.max_shell <= 8
        assert ri.z_order == rs.z_order and 0.0 <= rs.z_change <= metrics._Z_TOL

    def test_singles_exceed_pairs(self, degenerate):
        cfg = degenerate
        R = pair_rate(cfg.geom, cfg.crystal, cfg.filters)
        rs = singles_rate("signal", cfg.geom, cfg.crystal, cfg.filters)
        assert rs.rate >= R

    def test_ceiling_raises(self, degenerate, monkeypatch):
        cfg = degenerate
        monkeypatch.setattr(metrics, "_SHELL_TOL", 1e-30)
        with pytest.raises(ConvergenceError):
            singles_rate(
                "signal", cfg.geom, cfg.crystal, cfg.filters, Numerics(truncation_max_order=4)
            )


class TestHeralding:
    def test_arithmetic(self):
        assert heralding_efficiency(2.0, 2.0, 2.0) == pytest.approx(1.0)
        assert heralding_efficiency(1.0, 4.0, 1.0) == pytest.approx(0.5)

    def test_inconsistency_raises(self):
        with pytest.raises(ConsistencyError):
            heralding_efficiency(2.0, 1.0, 1.0)

    def test_invalid_singles(self):
        with pytest.raises(ValueError):
            heralding_efficiency(1.0, 0.0, 1.0)

    def test_fundamental_mode_limit(self, degenerate):
        # with a collinear cut and a near-plane-wave pump every pair lands in
        # the fundamental collection mode, so the heralding ratio reaches 1
        geom, crystal = fundamental_limit_case(degenerate)
        R = pair_rate(geom, crystal, degenerate.filters)
        numerics = Numerics(singles_resolution=201)
        rs = singles_rate("signal", geom, crystal, degenerate.filters, numerics)
        ri = singles_rate("idler", geom, crystal, degenerate.filters, numerics)
        eta = R / math.sqrt(rs.rate * ri.rate)
        assert eta == pytest.approx(1.0, abs=1e-9)
        assert rs.max_shell == 1


# perfbench/baseline/eta_above_1.json with W0s = 120 um, where the shell
# criterion leaves eta = 1.00241 > 1
ETA_ABOVE_1_AT_120_UM = {
    "crystal": {"name": "bbo", "length_um": 575.625365},
    "pump": {
        "wavelength_nm": 405.0,
        "bandwidth_thz": 30.0,
        "power_mW": 1.0,
        "waist_um": 254.044803,
        "filter_halfwidth_thz": 7.133697,
    },
    "collection": {
        "signal_wavelength_nm": 810.0,
        "degenerate": True,
        "waist_um": 120.0,
        "cut_detuning_deg": 1.40613,
    },
    "filters": {
        "signal_halfwidth_thz": 4.060947,
        "idler_halfwidth_thz": 4.060947,
        "transmission": 1.0,
    },
}


def design_eta(tmp_path, raw):
    """R / sqrt(Rs Ri) of the configuration ``raw``, without the eta <= 1
    check of ``heralding_efficiency``."""
    path = tmp_path / "design.json"
    path.write_text(json.dumps(raw))
    cfg = load_config(path)
    R = pair_rate(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
    rs, ri = (
        singles_rate(which, cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        for which in ("signal", "idler")
    )
    return R / math.sqrt(rs.rate * ri.rate)


class TestShellCriterionNearCollinear:
    """Near zero emission angle the odd shells vanish by parity, and the
    mode sum stops on shell 1 (degenerate_810 at 0.01 deg: eta 0.999948,
    against 0.99013 with the shells summed to 1e-9). A closed-form singles
    sum must turn these into passes."""

    @pytest.mark.xfail(
        reason="the shell criterion stops on a parity-suppressed shell",
        raises=AssertionError,
        strict=True,
    )
    @pytest.mark.parametrize("detuning_deg", [0.01, 1e-12])
    def test_degenerate_eta(self, tmp_path, detuning_deg):
        with open(shipped_config_path("degenerate_810")) as fh:
            raw = json.load(fh)
        raw["collection"]["cut_detuning_deg"] = detuning_deg
        assert design_eta(tmp_path, raw) == pytest.approx(0.9901, abs=1e-3)

    @pytest.mark.xfail(
        reason="the truncated singles sums leave eta = 1.00241",
        raises=AssertionError,
        strict=True,
    )
    def test_eta_above_1_design(self, tmp_path):
        assert design_eta(tmp_path, ETA_ABOVE_1_AT_120_UM) <= 1.0 + 1e-12


@pytest.fixture(scope="module")
def report(degenerate):
    return compute_metrics(
        degenerate.geom,
        degenerate.crystal,
        degenerate.filters,
        settings_snapshot={"source": "reference degenerate layout"},
    )


class TestComputeMetrics:
    def test_frozen_values(self, report):
        assert report.pair_rate_R == pytest.approx(11.0404, rel=1e-4)
        assert report.heralding_eta == pytest.approx(0.98233, abs=1e-4)
        assert report.purity_P == pytest.approx(0.999950, abs=1e-5)

    def test_internal_consistency(self, report):
        assert report.heralding_eta == pytest.approx(
            report.pair_rate_R
            / math.sqrt(report.singles_rate_s * report.singles_rate_i),
            rel=1e-12,
        )
        assert 0 < report.heralding_eta <= 1
        assert 0 < report.purity_P <= 1

    @pytest.mark.parametrize("power_mW", [1e-300, 1e300])
    def test_extreme_pump_power(self, degenerate_with, report, power_mW):
        # rates are per milliwatt, so the pump power never enters the numbers
        cfg = degenerate_with("pump", "power_mW", power_mW)
        assert cfg.resolved["pump"]["power_mW"] == power_mW
        far = compute_metrics(
            cfg.geom,
            cfg.crystal,
            cfg.filters,
            settings_snapshot={"source": "reference degenerate layout"},
        )
        assert far.to_dict() == report.to_dict()

    def test_to_dict(self, report):
        doc = report.to_dict()
        assert doc["pair_rate_R_per_s_mW"] == report.pair_rate_R
        assert doc["mode_sum_truncation"]["max_shell"] == report.mode_sum_truncation[0]
        assert doc["settings"] == {"source": "reference degenerate layout"}
