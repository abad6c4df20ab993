import gc
import json
import math
import sys
import threading
import warnings
import weakref
from dataclasses import replace

import numpy as np
import pytest
from numpy.polynomial.hermite import hermgauss
from numpy.polynomial.legendre import leggauss
from scipy.constants import c, epsilon_0
from scipy.special import eval_hermite

from spdc_lab import jsa, metrics, sweep
from spdc_lab.config import (
    _INT_RANGES, MAX_RATE_RESOLUTION, WAIST_RANGE_UM, Numerics, load_config, shipped_config_path,
)
from spdc_lab.dispersion import effective_nonlinearity, index_extraordinary, index_ordinary
from spdc_lab.errors import ConsistencyError, ConvergenceError, UnsatisfiableConditionError
from spdc_lab.filters import FilterBank, FilterSpec, filter_transmission
from spdc_lab.jsa import (
    SpectralGrid,
    SpectralTerms,
    geometry_factors,
    mode_function,
    phase_mismatch_exact,
    purity_waist,
    spectral_grid,
    walk_off_integral,
    z_nodes,
)
from spdc_lab.metrics import (
    _ModeSumKernel,
    compute_metrics,
    heralding_efficiency,
    heralding_margin,
    heralding_rates,
    jsa_purity,
    pair_rate,
    rate_prefactor,
    singles_rate,
)
from spdc_lab.schmidt import purity

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
        # both doubling levels (the 101-point one is the 201-point grid's
        # every other point) and the 201-point JSA at one waist evaluate the
        # shape once, on the waist's own C (all it reads without walk-off)
        cfg = degenerate
        shapes = []
        shape = SpectralTerms.shape

        def counted(self, C, H):
            shapes.append((self.dky.shape, C))
            return shape(self, C, H)

        monkeypatch.setattr(SpectralTerms, "shape", counted)
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        want = []
        for W0s in (cfg.geom.W0s, 0.9 * cfg.geom.W0s):
            geom = replace(cfg.geom, W0s=W0s)
            pair_rate(geom, cfg.crystal, cfg.filters, cfg.numerics)
            jsa_purity(geom, cfg.crystal, cfg.filters, cfg.numerics)
            want.append(((201, 201), geometry_factors(geom).C))
        assert shapes == want

    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_threads_at_two_waists_match_serial_runs(self, name, request, monkeypatch):
        # six threads read one setting's slot grids at two waists, with and
        # without walk-off, and at two tied waists of one C: on degenerate
        # the kernels of the waists without walk-off share the z moments
        # held on the singles grid, and the walk-off ones replace them with
        # their own key's; on nondegenerate every waist has its own moments
        # and two arm angles. Each arm builds its own kernel on the singles
        # grid while another thread replaces the grid's moments.
        # The threads start with only a fresh 201-point grid held, so they
        # take the first rate level from its even points concurrently
        cfg = request.getfixturevalue(name)
        narrow = replace(cfg.geom, W0s=0.8 * cfg.geom.W0s)
        walk_off = replace(cfg.numerics, walk_off_enabled=True)
        cases = [(geom, n) for n in (cfg.numerics, walk_off) for geom in (cfg.geom, narrow)]
        cases += [(geom, cfg.numerics) for geom in tied_pair_sharing_c(cfg)]

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
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        fine = spectral_grid(201, cfg.geom, cfg.crystal, cfg.filters)
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
        assert spectral_grid(201, cfg.geom, cfg.crystal, cfg.filters) is fine

    def test_nonconvergence_raises(self, degenerate, monkeypatch):
        cfg = degenerate
        monkeypatch.setattr(metrics, "_RATE_TOL", 1e-12)
        monkeypatch.setattr(metrics, "MAX_RATE_RESOLUTION", 21)
        with pytest.raises(ConvergenceError):
            pair_rate(cfg.geom, cfg.crystal, cfg.filters, Numerics(rate_resolution=11))


def tied_pair_sharing_c(cfg):
    """The two tied geometries furthest apart in W0p among the sweep-rate
    waists from 300 um (where the mode sum converges on both shipped
    configs) whose curvature C has the commonest bit pattern: one C, but
    another W0s, A and walk-off factor H."""
    groups = {}
    for W0p in np.linspace(300e-6, 800e-6, 51):
        geom = sweep._tied(W0p, cfg.geom, cfg.crystal)
        if geom is not None:
            groups.setdefault(geometry_factors(geom).C, []).append(geom)
    tied = max(groups.values(), key=len)
    return tied[0], tied[-1]


def written_out_amplitude(grid, geom, crystal, walk_off):
    """Phi on the grid's axes as the closed form writes it, without the
    shape/scalar split: pi / sqrt(A C) exp(-dk_y^2 / (4 C)) Phi_z(dk_z) times
    the pump envelope, Phi_z = L sinc(dk_z L / 2) or the walk-off integral."""
    g, L = geometry_factors(geom), crystal.length_L
    OS, OI = np.meshgrid(grid.Om_s, grid.Om_i, indexing="ij")
    dky, dkz = phase_mismatch_exact(OS, OI, geom, crystal)
    phi_z = walk_off_integral(dkz, g.H, L) if walk_off else L * np.sinc(dkz * L / (2 * math.pi))
    pump = np.exp(-((OS + OI) ** 2) / (4 * geom.pump_bandwidth_Bp**2))
    return math.pi / math.sqrt(g.A * g.C) * np.exp(-(dky**2) / (4 * g.C)) * phi_z * pump


def written_out_figures(geom, cfg, numerics):
    """(pair rate, purity) by the formulas before the figure memo: each
    doubling level is the nested trapezoid of T_s T_i T_p Phi^2 on a fresh
    grid, and the purity is schmidt.purity of Phi itself."""
    f, prev, n = cfg.filters, None, numerics.rate_resolution
    while n <= MAX_RATE_RESOLUTION:
        grid = SpectralGrid(n, geom, cfg.crystal, f)
        T = (filter_transmission(grid.w_s, f.signal)[:, None]
             * filter_transmission(grid.w_i, f.idler)[None, :]
             * filter_transmission(np.add.outer(grid.w_s, grid.w_i), f.pump))
        density = T * written_out_amplitude(grid, geom, cfg.crystal, numerics.walk_off_enabled) ** 2
        cur = np.trapezoid(np.trapezoid(density, grid.Om_i, axis=1), grid.Om_s)
        if prev is not None and abs(cur - prev) <= metrics._RATE_TOL * max(cur, prev):
            break
        prev, n = cur, 2 * n - 1
    grid = SpectralGrid(numerics.grid_resolution, geom, cfg.crystal, f)
    amp = written_out_amplitude(grid, geom, cfg.crystal, numerics.walk_off_enabled)
    return rate_prefactor(geom, cfg.crystal) * cur, purity(amp, numerics.decompose)


class TestFigureMemo:
    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_figures_match_the_written_out_formulas(self, name, walk_off, request, monkeypatch):
        # at two untied waists and at two tied waists of one C (and, with
        # walk-off, two H), evaluated in turn on one slot so that the second
        # tied waist meets the first one's slot: every figure matches the
        # written-out formulas, and equals the figure of a cold slot bitwise
        cfg = request.getfixturevalue(name)
        numerics = replace(cfg.numerics, walk_off_enabled=walk_off)
        geoms = (cfg.geom, replace(cfg.geom, W0s=0.9 * cfg.geom.W0s), *tied_pair_sharing_c(cfg))

        def figures(geom):
            return (pair_rate(geom, cfg.crystal, cfg.filters, numerics),
                    jsa_purity(geom, cfg.crystal, cfg.filters, numerics))

        cold = []
        for geom in geoms:
            monkeypatch.setattr(jsa, "_slot", (None, {}))
            cold.append(figures(geom))
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        warm = [figures(geom) for geom in geoms]
        assert warm == cold
        for geom, got in zip(geoms, warm):
            want = written_out_figures(geom, cfg, numerics)
            assert got == pytest.approx(want, rel=1e-13, abs=0)

    @pytest.mark.parametrize("design", ["degenerate", "nondegenerate", *range(8)],
                             ids=lambda d: d if isinstance(d, str) else "seed0-%d" % d)
    def test_tied_pair_of_one_c_has_one_purity_and_rate_shape(self, design, request, monkeypatch,
                                                              perfbench_config):
        # without walk-off the shape reads C alone, so two waist pairs of one
        # C have one purity, and R = K u v^2 / (A C) S(C) with u = 1 / W0p^2,
        # v = 1 / W0s^2 and K waist-free: C alone is a sufficient figure key.
        # Each waist starts from a cold slot, so neither reads the other's
        # figures. Designs 0-7 are those of the benchmark's designs.draw(0, 8).
        if isinstance(design, str):
            cfg = request.getfixturevalue(design)
        else:
            cfg = perfbench_config(0, 8, design)
        numerics = replace(cfg.numerics, walk_off_enabled=False)
        pair = tied_pair_sharing_c(cfg)
        assert len({geometry_factors(geom).C for geom in pair}) == 1
        assert len({geometry_factors(geom).A for geom in pair}) == 2
        purities, scaled = [], []
        for geom in pair:
            g, u, v = geometry_factors(geom), 1.0 / geom.W0p**2, 1.0 / geom.W0s**2
            monkeypatch.setattr(jsa, "_slot", (None, {}))
            scaled.append(pair_rate(geom, cfg.crystal, cfg.filters, numerics)
                          / (u * v * v / (g.A * g.C)))
            monkeypatch.setattr(jsa, "_slot", (None, {}))
            purities.append(jsa_purity(geom, cfg.crystal, cfg.filters, numerics))
        assert purities[0] == purities[1]
        assert scaled[0] == pytest.approx(scaled[1], rel=1e-14, abs=0)


def waist_batches(cfg):
    """(name, batch geometry, numerics) of three kinds of waist batch: tied
    waists of which some share the figure key C; free (W0p, W0s) pairs; and
    one pump waist with collection waists whose pair rates stop at different
    doubling levels under rate_resolution 5."""
    tied = sweep._tied(np.linspace(300e-6, 800e-6, 12), cfg.geom, cfg.crystal)
    free = replace(cfg.geom, W0p=np.array([250e-6, 310e-6, 400e-6]),
                   W0s=np.array([120e-6, 145.4e-6, 200e-6]))
    levels = replace(cfg.geom, W0p=500e-6, W0s=np.array([145e-6, 500e-6, 250e-6]))
    return [("tied", tied, cfg.numerics), ("free", free, cfg.numerics),
            ("levels", levels, Numerics(rate_resolution=5))]


def one_at_a_time(geom):
    """The waists of a batch geometry as one-waist geometries (floats)."""
    pairs = zip(*(np.broadcast_to(w, np.broadcast(geom.W0p, geom.W0s).shape).tolist()
                  for w in (geom.W0p, geom.W0s)))
    return [replace(geom, W0p=W0p, W0s=W0s) for W0p, W0s in pairs]


class TestWaistBatch:
    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_batch_equals_its_waists_one_at_a_time(self, name, walk_off, request, monkeypatch):
        # pair_rate and jsa_purity (both decompose modes) of K waists equal
        # K one-waist calls bit for bit, each from a cold spectral-grid slot
        cfg = request.getfixturevalue(name)
        batches = waist_batches(cfg)
        tied = batches[0][1]
        assert len(jsa.figure_keys(geometry_factors(tied), False)) < tied.W0p.size
        assert [sweep._tied(w, cfg.geom, cfg.crystal).W0s for w in tied.W0p.tolist()] == \
            tied.W0s.tolist()
        levels = set()
        for kind, geom, numerics in batches:
            numerics = replace(numerics, walk_off_enabled=walk_off)
            for f, decompose in ((pair_rate, None), (jsa_purity, "amplitude"),
                                 (jsa_purity, "intensity")):
                n = replace(numerics, decompose=decompose or numerics.decompose)
                monkeypatch.setattr(jsa, "_slot", (None, {}))
                batch = f(geom, cfg.crystal, cfg.filters, n)
                singles = []
                for one in one_at_a_time(geom):
                    monkeypatch.setattr(jsa, "_slot", (None, {}))
                    singles.append(f(one, cfg.crystal, cfg.filters, n))
                    if kind == "levels" and f is pair_rate:
                        levels.add(max(jsa._slot[1]))
                assert all(isinstance(v, float) for v in singles)
                assert isinstance(batch, np.ndarray) and batch.tolist() == singles, (kind, f)
        assert len(levels) == 2  # the "levels" waists stop at different levels

    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_waist_layers_square_as_their_one_waist_calls(self, name, request):
        # geometry_factors, rate_prefactor and purity_waist of K waists drawn
        # log-uniform over the config's whole waist range equal K one-waist
        # calls bit for bit; purity_waist's NaN entries are the waists whose
        # one-waist call raises
        cfg = request.getfixturevalue(name)
        rng = np.random.default_rng(36)
        W0p, W0s = 1e-6 * 10.0 ** rng.uniform(*np.log10(WAIST_RANGE_UM), size=(2, 2000))
        geom = replace(cfg.geom, W0p=W0p, W0s=W0s)
        ones = one_at_a_time(geom)
        batch = geometry_factors(geom)
        for k in "ACDFH":
            assert getattr(batch, k).tolist() == [getattr(geometry_factors(g), k) for g in ones], k
        assert rate_prefactor(geom, cfg.crystal).tolist() == \
            [rate_prefactor(g, cfg.crystal) for g in ones]
        waists = purity_waist(W0p, cfg.geom, cfg.crystal, "consistent").tolist()
        assert 0 < np.isnan(waists).sum() < W0p.size
        for w0p, want in zip(W0p.tolist(), waists):
            if math.isnan(want):
                with pytest.raises(UnsatisfiableConditionError):
                    purity_waist(w0p, cfg.geom, cfg.crystal, "consistent")
            else:
                assert purity_waist(w0p, cfg.geom, cfg.crystal, "consistent") == want

    def test_batch_raises_at_its_first_unconverged_waist(self, degenerate, monkeypatch):
        # at rate_resolution 5 the waist W0s = 145 um converges on the 9-point
        # grid and W0s = 500 um needs the 17-point one, which is cut off here
        cfg = degenerate
        monkeypatch.setattr(metrics, "MAX_RATE_RESOLUTION", 9)
        numerics = Numerics(rate_resolution=5)
        geom = replace(cfg.geom, W0p=500e-6, W0s=np.array([145e-6, 500e-6, 550e-6]))
        first, second, _ = one_at_a_time(geom)
        assert isinstance(pair_rate(first, cfg.crystal, cfg.filters, numerics), float)
        with pytest.raises(ConvergenceError, match="at waist 0$") as one:
            pair_rate(second, cfg.crystal, cfg.filters, numerics)
        with pytest.raises(ConvergenceError, match="at waist 1$") as batch:
            pair_rate(geom, cfg.crystal, cfg.filters, numerics)
        assert batch.value.estimates == one.value.estimates

    @pytest.mark.parametrize("f", [pair_rate, jsa_purity])
    def test_batch_warns_as_its_waists_do(self, degenerate, f):
        # Rayleigh ranges under 10 L: the pump at the first and last waists,
        # the signal and idler modes at the last two: six warnings in order
        cfg = degenerate
        geom = replace(cfg.geom, W0p=np.array([20e-6, 300e-6, 15e-6]),
                       W0s=np.array([300e-6, 30e-6, 25e-6]))
        caught = []
        for calls in ([geom], one_at_a_time(geom)):
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                for g in calls:
                    f(g, cfg.crystal, cfg.filters, cfg.numerics)
            caught.append([str(w.message) for w in got])
        assert len(caught[0]) == 6 and caught[0] == caught[1]

    @pytest.mark.parametrize("field", ["W0p", "W0s"])
    def test_per_waist_layers_refuse_arrays(self, degenerate, field):
        cfg = degenerate
        geom = replace(cfg.geom, **{field: np.array([1.0, 1.1]) * getattr(cfg.geom, field)})
        calls = [
            lambda: singles_rate("signal", geom, cfg.crystal, cfg.filters, cfg.numerics),
            lambda: jsa.jsa_grid(geom, cfg.crystal, cfg.filters, cfg.numerics),
            lambda: compute_metrics(geom, cfg.crystal, cfg.filters, cfg.numerics),
        ]
        for call in calls:
            with pytest.raises(ValueError, match=field):
                call()


def one_point_overlap(n, m, Om_s, Om_i, geom, crystal, which="signal", walk_off=False):
    """Overlap with the (n, m) Hermite-Gauss mode of one arm at one detuning
    pair, on a one-point mode-sum kernel: i^(m mod 2) times the real product
    of the pump envelope and the x and y-z integrals."""
    terms = SpectralTerms(np.array([[Om_s]]), np.array([[Om_i]]), geom, crystal)
    kern = _ModeSumKernel(geom, terms, walk_off, which)
    real = kern.gp[0] * kern.x_integral(n) * kern.yz_integral(m)[0]
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


def assert_kernel_matches_oracle(terms, geom, crystal, dk, walk_off):
    # each arm's kernel on ``terms`` returns the real r_m of the overlap i^(m mod 2) r_m
    for which in ("signal", "idler"):
        kern = _ModeSumKernel(geom, terms, walk_off, which)
        for m in range(9):
            got = 1j ** (m % 2) * kern.yz_integral(m)
            want = yz_loop_oracle(geom, crystal, dk, which, walk_off, m)
            assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want)), (which, m)


def full_exponential_moments(kern, n_z, J):
    """The moments R of ``kern`` with exp(i q z) evaluated on every z node."""
    L = kern.terms.length_L
    z, env = z_nodes(n_z, L, kern.H)
    M = np.exp(1j * np.outer(kern.q, z)) @ (env[:, None] * (2.0 * z[:, None] / L) ** np.arange(J + 1))
    return np.where(np.arange(J + 1) % 2, M.imag, M.real).T


def long_crystal_design(cfg, length_L):
    """(geom, crystal, filters) of ``cfg`` with a ``length_L`` crystal and
    twice its signal and idler windows."""
    f = cfg.filters
    filters = replace(f, signal=replace(f.signal, half_width=2.0 * f.signal.half_width),
                      idler=replace(f.idler, half_width=2.0 * f.idler.half_width))
    return cfg.geom, replace(cfg.crystal, length_L=length_L), filters


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
        terms = SpectralTerms(OS, OI, geom, crystal)
        dk = phase_mismatch_exact(OS, OI, geom, crystal)
        assert_kernel_matches_oracle(terms, geom, crystal, dk, walk_off)

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_x_integral_against_gauss_hermite(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        geom = cfg.geom
        g = geometry_factors(geom)
        grid = SpectralGrid(15, geom, cfg.crystal, cfg.filters)
        kern = _ModeSumKernel(geom, grid, False, "signal")
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
        # both arms' kernels share is Re M[j] for even j and Im M[j] for odd j, with
        # t = 2z/L the scaled node
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal = cfg.geom, cfg.crystal
        grid = SpectralGrid(101, geom, crystal, cfg.filters)
        kern = _ModeSumKernel(geom, grid, walk_off, "signal")
        L, J = crystal.length_L, 6
        for n_z in (7, 8, 21, 22):
            z, env = z_nodes(n_z, L, kern.H)
            E = np.exp(1j * np.outer(kern.q, z))
            got = jsa.z_moments(kern.q, n_z, L, kern.H, J)
            want = E @ (env[:, None] * (2.0 * z[:, None] / L) ** np.arange(J + 1))
            want = np.where(np.arange(J + 1) % 2, want.imag, want.real).T
            diff = np.max(np.abs(got - want))
            assert diff <= 1e-15 * np.max(np.abs(want)), n_z

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_long_crystal_takes_cos_sin_and_matches_full_exponential(self, degenerate, walk_off):
        # a 5 mm crystal with twice the filter windows puts max|q| L/2 above
        # the series cap, so the moments take cos and sin of q z
        geom, crystal, filters = long_crystal_design(degenerate, 5e-3)
        kern = _ModeSumKernel(geom, SpectralGrid(101, geom, crystal, filters), walk_off,
                              "signal")
        assert kern.phase > jsa._SERIES_PHASE
        for n_z in (kern.z_order(6), kern.z_order(6) + 1, 30):
            got = jsa.z_moments(kern.q, n_z, crystal.length_L, kern.H, 6)
            want = full_exponential_moments(kern, n_z, 6)
            assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(want)), n_z

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_series_and_cos_sin_agree_near_the_cap(self, degenerate, walk_off, monkeypatch):
        # a 1.5 mm crystal: max|q| L/2 of about 2.8, just under the cap,
        # where the series cancels most; both paths agree on every row to 1e-14
        geom, crystal, filters = long_crystal_design(degenerate, 1.5e-3)
        kern = _ModeSumKernel(geom, SpectralGrid(101, geom, crystal, filters), walk_off,
                              "signal")
        assert 2.5 < kern.phase <= jsa._SERIES_PHASE
        L = crystal.length_L
        for J in (6, 12, 24):
            n_z = kern.z_order(J)
            series = jsa.z_moments(kern.q, n_z, L, kern.H, J)
            monkeypatch.setattr(jsa, "_SERIES_PHASE", -1.0)
            cos_sin = jsa.z_moments(kern.q, n_z, L, kern.H, J)
            monkeypatch.undo()
            rows = np.max(np.abs(series - cos_sin), axis=1) / np.max(np.abs(cos_sin), axis=1)
            assert np.all(rows <= 1e-14), (J, rows.max())

    def test_shipped_and_benchmark_designs_take_the_series(self, tmp_path, perfbench_designs):
        # max|q| L/2 of every shipped and perfbench seed-0 design on its
        # singles grid, at its own waists and at half and twice its W0s
        designs = perfbench_designs
        paths = [shipped_config_path(name) for name in ("degenerate_810", "nondegenerate_850_609")]
        paths += designs.write_configs(designs.draw(0, 16), str(tmp_path))
        for path in paths:
            cfg = load_config(path)
            grid = SpectralGrid(cfg.numerics.singles_resolution, cfg.geom, cfg.crystal,
                                cfg.filters)
            for scale in (0.5, 1.0, 2.0):
                geom = replace(cfg.geom, W0s=scale * cfg.geom.W0s)
                assert _ModeSumKernel(geom, grid, False, "signal").phase <= jsa._SERIES_PHASE, path

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_moments_and_overlaps_are_real(self, nondegenerate, walk_off):
        cfg = nondegenerate
        geom, crystal = cfg.geom, cfg.crystal
        grid = SpectralGrid(31, geom, crystal, cfg.filters)
        for which in ("signal", "idler"):
            kern = _ModeSumKernel(geom, grid, walk_off, which)
            R = jsa.z_moments(kern.q, kern.z_order(6), crystal.length_L, kern.H, 6)
            assert R.dtype == np.float64 and R.shape == (7, 31 * 31) and R.flags.c_contiguous
            for m in range(8):
                assert kern.yz_integral(m).dtype == np.float64

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_mode_function_parity_and_oracle(self, which_cfg, walk_off, request):
        # the overlap i^(m mod 2) gp x r_m is real for even m and imaginary
        # for odd m: the kernel's pump envelope, x and y-z factors are real
        cfg = request.getfixturevalue(which_cfg)
        geom, crystal = cfg.geom, cfg.crystal
        OS, OI = detuning_mesh(geom, cfg.filters, 9, 7)
        terms = SpectralTerms(OS, OI, geom, crystal)
        g_p = np.exp(-((OS + OI) ** 2) / (4.0 * geom.pump_bandwidth_Bp**2))
        x = math.sqrt(math.pi / geometry_factors(geom).A)
        dk = phase_mismatch_exact(OS, OI, geom, crystal)
        for which in ("signal", "idler"):
            kern = _ModeSumKernel(geom, terms, walk_off, which)
            for m in range(6):
                real = kern.gp * kern.x_integral(0) * kern.yz_integral(m)
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
        grid = SpectralGrid(31, geom, crystal, filters)
        first = _ModeSumKernel(geom, grid, walk_off, "signal")
        for m in range(9):
            first.yz_integral(m)
        fresh_grid = SpectralGrid(31, geom, crystal, filters)
        for which in ("signal", "idler"):
            second = _ModeSumKernel(narrow, grid, walk_off, which)
            assert (second.moments is first.moments) == shared
            assert grid.z_moments[1] is second.moments
            fresh = _ModeSumKernel(narrow, fresh_grid, walk_off, which)
            for m in range(9):
                assert np.array_equal(second.yz_integral(m), fresh.yz_integral(m)), m

    def test_interleaved_kernel_keeps_its_own_moments(self, degenerate, monkeypatch):
        # while one kernel stores its key's moments on the grid, a kernel with
        # another key is built on the same grid, as another thread could; each
        # must hold and use its own key's moments
        cfg = degenerate
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        for which in ("signal", "idler"):
            grid = SpectralGrid(31, geom, crystal, filters)
            nested = []

            def interleaved(self, name, value):
                object.__setattr__(self, name, value)
                if name == "z_moments" and not nested:
                    nested.append(_ModeSumKernel(geom, self, True, which))

            monkeypatch.setattr(SpectralGrid, "__setattr__", interleaved)
            kern = _ModeSumKernel(geom, grid, False, which)
            monkeypatch.undo()
            assert kern.moments is not nested[0].moments
            for got, walk_off in ((kern, False), (nested[0], True)):
                fresh = _ModeSumKernel(geom, SpectralGrid(31, geom, crystal, filters),
                                       walk_off, which)
                for m in range(9):
                    assert np.array_equal(got.yz_integral(m), fresh.yz_integral(m)), (which, m)

    def test_optimize_computes_few_z_moments(self, degenerate, monkeypatch):
        # every geometry of a degenerate optimize without walk-off has the
        # key (0.0, 0.0), so the moments are computed once per z order
        cfg = degenerate
        calls = []
        nodes = jsa.z_nodes

        def counted(n, L, H):
            calls.append(n)
            return nodes(n, L, H)

        monkeypatch.setattr(jsa, "z_nodes", counted)
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        sweep.optimize(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert 0 < len(calls) <= 8

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_overlap_finite_at_the_order_ceiling(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        geom = cfg.geom
        grid = SpectralGrid(31, geom, cfg.crystal, cfg.filters)
        m = _INT_RANGES["truncation_max_order"][1]
        for which in ("signal", "idler"):
            kern = _ModeSumKernel(geom, grid, True, which)
            assert np.all(np.isfinite(kern.yz_integral(m))), which

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
        kern = _ModeSumKernel(geom, spectral_grid(31, geom, crystal, filters), False,
                              "signal")
        first = kern.z_order(0)
        assert kern.z_order(metrics._FIRST_MAX_M) == first
        assert kern.z_order(metrics._FIRST_MAX_M + 1) > first
        monkeypatch.setattr(metrics, "_SHELL_TOL", 1e-9)
        deep = singles_rate("signal", geom, crystal, filters, Numerics(singles_resolution=31))
        assert deep.max_shell > metrics._FIRST_MAX_M
        assert deep.z_order == kern.z_order(deep.max_shell) > first
        assert 0.0 <= deep.z_change <= metrics._Z_TOL
        # a term does not depend on the orders requested before it
        kern.yz_integral(deep.max_shell)
        fresh = _ModeSumKernel(geom, kern.terms, False, "signal")
        assert np.array_equal(fresh.yz_integral(3), kern.yz_integral(3))

    def test_singles_rate_after_the_slot_moves(self, degenerate, nondegenerate):
        cfg = nondegenerate
        geom, crystal, filters = cfg.geom, cfg.crystal, cfg.filters
        numerics = Numerics(singles_resolution=31)
        own = [singles_rate(which, geom, crystal, filters, numerics) for which in ("signal", "idler")]
        # the slot moves to another setting and back: the kernels rebuilt on
        # the new grid give the same rates
        d = degenerate
        spectral_grid(31, d.geom, d.crystal, d.filters)
        for which, want in zip(("signal", "idler"), own):
            assert singles_rate(which, geom, crystal, filters, numerics) == want

    def test_a_new_setting_frees_the_old_grids_without_the_collector(self, degenerate,
                                                                       monkeypatch):
        # no kernel sits in a reference cycle with its grid, so a new spectral
        # setting frees the last one's grids as soon as it replaces the slot,
        # with the cyclic collector off
        cfg = degenerate
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        earlier = []
        gc.disable()
        try:
            for scale in (1.0, 0.8, 1.25):
                geom = replace(cfg.geom, pump_bandwidth_Bp=scale * cfg.geom.pump_bandwidth_Bp)
                compute_metrics(geom, cfg.crystal, cfg.filters, cfg.numerics)
                alive = [ref() for ref in earlier if ref() is not None]
                assert not alive, [grid.w_s.size for grid in alive]
                earlier += [weakref.ref(grid) for grid in jsa._slot[1].values()]
        finally:
            gc.enable()


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

    @pytest.mark.parametrize("scale", [0.5, 0.8, 1.2])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_partial_sum_bound_is_at_least_eta(self, name, scale, request):
        # heralding_margin's certificate: R / sqrt(rs ri) over the singles
        # summed to any shell is at least the eta of the full sums, in
        # floating point; the last partial sums and their finish() are
        # singles_rate's, bit for bit
        cfg = request.getfixturevalue(name)
        geom = replace(cfg.geom, W0s=scale * cfg.geom.W0s)
        args = (geom, cfg.crystal, cfg.filters, cfg.numerics)
        R, full = pair_rate(*args), [singles_rate(w, *args) for w in ("signal", "idler")]
        eta = heralding_efficiency(R, full[0].rate, full[1].rate)
        ladders = [list(metrics._singles_shells(w, *args)) for w in ("signal", "idler")]
        for ladder, result in zip(ladders, full):
            rates = [rate for rate, _ in ladder]
            assert rates == sorted(rates) and rates[-1] == result.rate
            assert ladder[-1][1]() == result and len(ladder) == result.max_shell + 1
        for k in range(max(map(len, ladders))):
            rs, ri = (ladder[min(k, len(ladder) - 1)][0] for ladder in ladders)
            assert R / math.sqrt(rs * ri) >= eta

    @pytest.mark.parametrize(
        "name, scale", [("degenerate", 0.8), ("nondegenerate", 0.8), ("nondegenerate", 1.0)]
    )
    def test_certified_margin_is_the_first_negative_partial_bound(
        self, name, scale, request, monkeypatch
    ):
        # P just above eta: the margin is R / sqrt(rs ri) - P at the first
        # shell k where that is negative, an arm whose ladder has ended keeping
        # its last rate (at 0.8 W0s on nondegenerate one ladder is a shell
        # shorter); P below eta: heralding_rates' eta - P. Either way each
        # arm's newest finish() runs once, and no other
        cfg = request.getfixturevalue(name)
        geom = replace(cfg.geom, W0s=scale * cfg.geom.W0s)
        args = (geom, cfg.crystal, cfg.filters, cfg.numerics)
        R, *_, eta = heralding_rates(*args)
        ladders = [list(metrics._singles_shells(w, *args)) for w in ("signal", "idler")]
        P = eta + 1e-6
        for k in range(max(map(len, ladders))):
            newest = [min(k, len(ladder) - 1) for ladder in ladders]
            rs, ri = (ladder[j][0] for ladder, j in zip(ladders, newest))
            if (bound := R / math.sqrt(rs * ri) - P) < 0:
                break
        assert bound < 0
        last = [len(ladder) - 1 for ladder in ladders]

        shells, finished = metrics._singles_shells, []

        def counted(which, *rest):
            for j, (rate, finish) in enumerate(shells(which, *rest)):
                def counted_finish(j=j, finish=finish):
                    finished.append((which, j))
                    return finish()
                yield rate, counted_finish

        monkeypatch.setattr(metrics, "_singles_shells", counted)
        assert heralding_margin(*args, P) == bound
        assert finished == [("signal", newest[0]), ("idler", newest[1])]
        finished.clear()
        P = eta - 0.01
        assert heralding_margin(*args, P) == eta - P
        assert finished == [("signal", last[0]), ("idler", last[1])]

    @pytest.mark.parametrize("P", [0.0, 0.5, 0.97])
    def test_uncertified_margin_is_exact(self, degenerate, P):
        # eta = 0.98233 is above each P, so no partial bound drops below P
        # and the margin is heralding_rates' eta - P bit for bit
        args = (degenerate.geom, degenerate.crystal, degenerate.filters, degenerate.numerics)
        assert heralding_margin(*args, P) == heralding_rates(*args)[3] - P

    def test_margin_never_certifies_eta_above_1(self, tmp_path):
        # the bound is at least eta = 1.00241 > 1 >= P: the ConsistencyError
        # of the full sums is raised, not skipped
        path = tmp_path / "design.json"
        path.write_text(json.dumps(ETA_ABOVE_1_AT_120_UM))
        cfg = load_config(path)
        with pytest.raises(ConsistencyError, match="eta = 1.002"):
            heralding_margin(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics, 1.0)

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
    return compute_metrics(degenerate.geom, degenerate.crystal, degenerate.filters)


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

    @pytest.mark.parametrize("field, value, match", [
        ("heralding_eta", 1.01, "heralding efficiency must lie in"),
        ("pair_rate_R", 20.0, "pair rate exceeds"),
        ("purity_P", 1.01, "purity must lie in"),
    ])
    def test_rejected_report_names_its_check(self, report, field, value, match):
        with pytest.raises(ValueError, match=match):
            replace(report, **{field: value})

    @pytest.mark.parametrize("power_mW", [1e-300, 7, 1e300])
    def test_extreme_pump_power(self, degenerate_with, report, power_mW):
        # rates are per milliwatt, so the pump power never enters the numbers
        cfg = degenerate_with("pump", "power_mW", power_mW)
        assert cfg.resolved["pump"]["power_mW"] == power_mW
        far = compute_metrics(cfg.geom, cfg.crystal, cfg.filters)
        assert far.to_dict() == report.to_dict()

    def test_to_dict(self, report):
        doc = report.to_dict()
        assert doc["pair_rate_R_per_s_mW"] == report.pair_rate_R
        assert doc["mode_sum_truncation"]["max_shell"] == report.mode_sum_truncation[0]
        assert set(doc) == {
            "pair_rate_R_per_s_mW",
            "singles_rate_s_per_s_mW",
            "singles_rate_i_per_s_mW",
            "heralding_eta",
            "purity_P",
            "mode_sum_truncation",
        }


def figures(report):
    return (report.pair_rate_R, report.singles_rate_s, report.singles_rate_i,
            report.heralding_eta, report.purity_P)


# both shipped configs with and without walk-off, and the benchmark's seed-0
# designs (odd ones nondegenerate) without it
INVARIANT_DESIGNS = [
    pytest.param(name, walk_off, id=name + ("-walk-off" if walk_off else ""))
    for name in ("degenerate_810", "nondegenerate_850_609") for walk_off in (False, True)
] + [pytest.param("seed0-%d" % j, False, id="seed0-%d" % j) for j in range(8)]
NONDEGENERATE_DESIGNS = INVARIANT_DESIGNS[2:4] + INVARIANT_DESIGNS[5::2]  # odd j: designs.FAMILIES
# On these designs a THz value divided by 2 pi comes back one ulp off its
# angular rad/s, and a filter window one ulp narrower or wider gains or loses
# its edge samples: |w - center| <= half_width is decided by rounding on an
# axis that spans center -/+ half_width. R moves by about 0.5%.
EDGE_ROUNDING = pytest.mark.xfail(
    reason="a one-ulp filter half-width adds or drops the window's edge samples",
    raises=AssertionError, strict=True)
ORDINARY_DESIGNS = [
    pytest.param(*p.values, id=p.id, marks=EDGE_ROUNDING) if p.id in ("seed0-0", "seed0-1", "seed0-2")
    else p for p in INVARIANT_DESIGNS]


@pytest.fixture(scope="module")
def design_run(perfbench_designs, tmp_path_factory):
    """``design_run(name, walk_off, edit=None)``: (config, MetricsReport) of a
    shipped config or of ``seed0-j``, design j of the benchmark's
    ``designs.draw(0, 8)``, after ``edit(raw, resolved)`` changed its JSON
    document ``raw`` in place; ``resolved`` is the unedited config's."""
    path = tmp_path_factory.mktemp("invariants") / "design.json"
    draw = perfbench_designs.draw(0, 8)

    def load(raw):
        path.write_text(json.dumps(raw))
        return load_config(path)

    def run(name, walk_off, edit=None):
        if name.startswith("seed0-"):
            raw = perfbench_designs.to_config(draw[int(name[len("seed0-"):])])
        else:
            with open(shipped_config_path(name)) as fh:
                raw = json.load(fh)
        if edit is not None:
            edit(raw, load(raw).resolved)
        cfg = load(raw)
        numerics = replace(cfg.numerics, walk_off_enabled=walk_off)
        return cfg, compute_metrics(cfg.geom, cfg.crystal, cfg.filters, numerics)

    return run


def relabel(raw, resolved):
    """Swap signal and idler: the signal at the old idler wavelength, the
    idler at the old signal's and the two filter half-widths exchanged, the
    pump filter kept."""
    coll, filt = raw["collection"], raw["filters"]
    raw["pump"].setdefault("filter_halfwidth_thz", 2.0 * filt["signal_halfwidth_thz"])
    coll["signal_wavelength_nm"] = resolved["collection"]["idler_wavelength_nm"]
    coll["idler_wavelength_nm"] = resolved["collection"]["signal_wavelength_nm"]
    filt["signal_halfwidth_thz"], filt["idler_halfwidth_thz"] = (
        filt["idler_halfwidth_thz"], filt["signal_halfwidth_thz"])


def ordinary_frequencies(raw, resolved):
    """The same rad/s under ``frequency_convention: ordinary``: every THz
    value divided by 2 pi."""
    raw.setdefault("numerics", {})["frequency_convention"] = "ordinary"
    for section in (raw["pump"], raw["filters"]):
        for key in section:
            if key.endswith("_thz"):
                section[key] /= 2.0 * math.pi


def set_field(section, key, value):
    def edit(raw, resolved):
        raw[section][key] = value
    return edit


class TestMetamorphicInvariants:
    """Exact symmetries of the physics. Each holds whatever quadrature
    computes the figures, so none reads a golden value."""

    @pytest.mark.parametrize("name, walk_off", NONDEGENERATE_DESIGNS)
    def test_signal_idler_relabeling(self, design_run, name, walk_off):
        cfg, base = design_run(name, walk_off)
        swapped_cfg, swapped = design_run(name, walk_off, relabel)
        assert swapped_cfg.geom.signal.central_wavelength == pytest.approx(
            cfg.geom.idler.central_wavelength, rel=1e-13)
        assert abs(cfg.geom.signal.central_wavelength / cfg.geom.idler.central_wavelength - 1) > 0.1
        assert swapped_cfg.geom.theta_s == pytest.approx(cfg.geom.theta_i, rel=1e-13)
        R, Rs, Ri, eta, P = figures(base)
        assert figures(swapped) == pytest.approx((R, Ri, Rs, eta, P), rel=1e-13, abs=0)

    def test_relabeled_optimize(self, design_run):
        # stage 3 amplifies a purity change of 1e-16 about 1e5 times
        cfgs = [design_run("nondegenerate_850_609", False, edit)[0] for edit in (None, relabel)]
        base, swapped = (sweep.optimize(c.geom, c.crystal, c.filters, c.numerics) for c in cfgs)
        assert swapped.W0p_star == pytest.approx(base.W0p_star, rel=1e-9, abs=0)
        assert swapped.W0s_purity_star == pytest.approx(base.W0s_purity_star, rel=1e-9, abs=0)
        assert (swapped.W0s_intersection is None) == (base.W0s_intersection is None)

    @pytest.mark.parametrize("name, walk_off", ORDINARY_DESIGNS)
    def test_ordinary_frequency_convention(self, design_run, name, walk_off):
        _, base = design_run(name, walk_off)
        _, ordinary = design_run(name, walk_off, ordinary_frequencies)
        assert figures(ordinary) == figures(base)

    @pytest.mark.parametrize("name, walk_off", INVARIANT_DESIGNS)
    def test_filter_transmission_scales_rates_by_its_square(self, design_run, name, walk_off):
        _, base = design_run(name, walk_off)
        _, lossy = design_run(name, walk_off, set_field("filters", "transmission", 0.5))
        R, Rs, Ri, eta, P = figures(base)
        assert figures(lossy) == (0.25 * R, 0.25 * Rs, 0.25 * Ri, eta, P)

    @pytest.mark.parametrize("name, walk_off", INVARIANT_DESIGNS)
    def test_crystal_azimuth_scales_rates_by_one_factor(self, design_run, name, walk_off):
        _, base = design_run(name, walk_off)
        _, turned = design_run(name, walk_off, set_field("crystal", "azimuth_phi_deg", 30.0))
        R, Rs, Ri, eta, P = figures(base)
        factor = turned.pair_rate_R / R
        assert factor != pytest.approx(1.0)
        assert (turned.singles_rate_s / Rs, turned.singles_rate_i / Ri) == pytest.approx(
            (factor, factor), rel=1e-13, abs=0)
        assert (turned.heralding_eta, turned.purity_P) == pytest.approx((eta, P), rel=1e-13, abs=0)
