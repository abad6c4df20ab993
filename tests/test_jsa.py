import csv
import json
import math
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import IntegrationWarning, quad
from scipy.special import wofz

from spdc_lab import jsa, schmidt
from spdc_lab.cli import main
from spdc_lab.config import Numerics, load_config, shipped_config_path
from spdc_lab.errors import ConvergenceError, UnsatisfiableConditionError
from spdc_lab.jsa import (
    BeamGeometry,
    JsaGrid,
    SpectralGrid,
    geometry_factors,
    jsa_grid,
    mode_function,
    phase_mismatch_exact,
    purity_waist,
    spectral_grid,
    walk_off_integral,
    write_jsa_csv,
    write_jsa_json,
)
from spdc_lab.schmidt import schmidt_purity


def built_for(grid, cfg):
    """Whether ``grid`` spans the signal window of ``cfg``'s filters."""
    return np.array_equal(grid.w_s, np.linspace(*cfg.filters.signal.support, grid.w_s.size))


def key_of(geom, walk_off):
    """The ``figure`` key of a one-waist geometry, as ``figure_keys`` gives it."""
    (key,) = jsa.figure_keys(geometry_factors(geom), walk_off)
    return key


def collinear(geom):
    return replace(geom, theta_s=0.0, theta_i=0.0)


# below this a^2 = H L^2 / 4 the walk-off envelope moves the longitudinal
# integral by less than a^2 L / 3, and L sinc(dk_z L / 2) stands in for the
# Faddeeva form, whose sqrt(pi / H) prefactor would cancel digits there
_FADDEEVA_SINC_A2 = 1e-10


def _faddeeva_walk_off(dk_z, H, L):
    """Closed form of walk_off_integral, vectorized over dk_z: with
    a = sqrt(H) L / 2, b = dk_z / (2 sqrt(H)) and w the Faddeeva function it
    is sqrt(pi / H) Re[exp(-b^2) - exp(-a^2 - 2iab) w(-b + ia)]; below
    a^2 = _FADDEEVA_SINC_A2 it is L sinc(dk_z L / 2)."""
    dk_z = np.asarray(dk_z, dtype=float)
    a = math.sqrt(H) * L / 2.0
    if a * a < _FADDEEVA_SINC_A2:
        return L * np.sinc(dk_z * L / 2.0 / math.pi)
    b = dk_z / (2.0 * math.sqrt(H))
    tail = np.exp(-a * a - 2j * a * b) * wofz(-b + 1j * a)
    return math.sqrt(math.pi / H) * (np.exp(-b * b) - tail.real)


def _quad_walk_off(dk_z, H, L):
    """Reference value of walk_off_integral: adaptive cosine-weighted
    quadrature of the even integrand to relative 1e-10."""
    with warnings.catch_warnings():
        # far out on the sinc tail (dk_z L >~ 5e3) the relative target is
        # below what the cosine-weighted rule can certify, and it says so
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(
            lambda z: math.exp(-H * z * z),
            0.0,
            L / 2.0,
            weight="cos",
            wvar=float(dk_z),
            epsabs=0.0,
            epsrel=1e-10,
            limit=400,
        )
    return 2.0 * val


class TestGeometryFactors:
    def test_frozen_degenerate(self, degenerate):
        g = geometry_factors(degenerate.geom)
        assert g.A == pytest.approx(1.05008016e8, rel=1e-8)
        assert g.C == pytest.approx(1.04670337e8, rel=1e-8)
        assert g.D == 0.0
        assert g.F == pytest.approx(3.37678798e5, rel=1e-8)
        assert g.H == pytest.approx(g.F, rel=1e-12)

    def test_frozen_nondegenerate(self, nondegenerate):
        g = geometry_factors(nondegenerate.geom)
        assert g.A == pytest.approx(3.60992279e7, rel=1e-8)
        assert g.C == pytest.approx(3.59935738e7, rel=1e-8)
        assert g.D == pytest.approx(5.40899976e5, rel=1e-8)
        assert g.F == pytest.approx(1.05654094e5, rel=1e-8)
        assert g.H == pytest.approx(1.03621975e5, rel=1e-8)

    def test_collinear_limits(self, degenerate):
        geom = collinear(degenerate.geom)
        g = geometry_factors(geom)
        assert g.A == pytest.approx(g.C, rel=1e-12)
        assert g.D == 0.0 and g.F == 0.0 and g.H == 0.0

    @given(
        wp=st.floats(20e-6, 2e-3),
        ws=st.floats(20e-6, 2e-3),
        ts=st.floats(0.0, 0.099),
        ti=st.floats(0.0, 0.099),
    )
    @settings(max_examples=80, deadline=None)
    def test_invariants(self, degenerate, wp, ws, ts, ti):
        geom = replace(degenerate.geom, W0p=wp, W0s=ws, theta_s=ts, theta_i=ti)
        g = geometry_factors(geom)
        assert g.A >= g.C > 0
        assert g.F >= 0.0
        assert g.H >= 0.0
        # the walk-off factor never exceeds the bare transverse spread
        assert g.H <= g.F * (1 + 1e-12)

    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_float_waist_equals_its_batch_entry(self, name, request):
        # a float waist's factors are computed and checked without numpy, as
        # floats equal bit for bit to its entry in a batch
        cfg = request.getfixturevalue(name)
        W0s = np.array([0.5, 1.0, 2.0]) * cfg.geom.W0s
        batch = geometry_factors(replace(cfg.geom, W0s=W0s))
        for k, w in enumerate(W0s.tolist()):
            one = geometry_factors(replace(cfg.geom, W0s=w))
            for field in "ACDFH":
                value = getattr(one, field)
                assert type(value) is float and value == np.broadcast_to(getattr(batch, field), 3)[k]

    @pytest.mark.parametrize("batch", [False, True])
    def test_invalid_factors_raise(self, batch):
        # each check holds for a float and for a batch where one entry fails;
        # a NaN curvature fails the first
        def factors(**fields):
            values = {**dict(A=2.0, C=1.0, D=0.0, F=1.0, H=1.0), **fields}
            if batch:
                values = {k: np.array([v, 1.0 if k in "CFH" else 2.0]) for k, v in values.items()}
            return jsa.GeometryFactors(**values)

        factors()
        for fields, message in (({"A": 0.5}, "A >= C"), ({"C": 0.0}, "A >= C"),
                                ({"C": math.nan}, "A >= C"), ({"F": -1.0}, "F >= 0"),
                                ({"H": -1e-6}, "H >= 0")):
            with pytest.raises(ValueError, match=message):
                factors(**fields)


class TestPhaseMismatch:
    def test_centrally_matched(self, degenerate, nondegenerate):
        for cfg in (degenerate, nondegenerate):
            dky, dkz = phase_mismatch_exact(0.0, 0.0, cfg.geom, cfg.crystal)
            assert abs(float(dky)) < 1.0
            assert abs(float(dkz)) < 1.0


# a^2 = H L^2 / 4 on both sides of the oracle's sinc threshold
_A2 = [0.0, 1e-14, _FADDEEVA_SINC_A2 * (1 - 1e-6), _FADDEEVA_SINC_A2 * (1 + 1e-6)] + [
    1e-9, 1e-6, 1e-3, 0.1, 1.0, 10.0, 100.0
]


class TestWalkOffIntegral:
    def test_at_origin(self, degenerate):
        L = degenerate.crystal.length_L
        assert walk_off_integral(0.0, 0.0, L) == pytest.approx(L, rel=1e-12)

    def test_sinc_identity(self, degenerate):
        # with the Gaussian envelope off the integral is the sinc transform
        L = degenerate.crystal.length_L
        for dkz in np.logspace(1, 6, 11):
            got = walk_off_integral(dkz, 0.0, L)
            want = L * np.sinc(dkz * L / 2.0 / math.pi)
            assert got.imag == 0.0
            assert got.real == pytest.approx(want, rel=1e-8, abs=1e-20 * L)

    def test_envelope_shrinks_overlap(self, degenerate):
        L = degenerate.crystal.length_L
        a = walk_off_integral(0.0, 3.4e5, L).real
        assert 0 < a < L

    def test_negative_H_rejected(self):
        with pytest.raises(ValueError):
            walk_off_integral(0.0, -1.0, 1e-4)

    @pytest.mark.parametrize("a2", _A2)
    @pytest.mark.parametrize("L", [100e-6, 450e-6, 5e-3])
    def test_closed_form_matches_quadrature(self, L, a2):
        # the Faddeeva oracle against quad; a^2 = H L^2 / 4 spans both sides
        # of the oracle's sinc threshold
        H = 4.0 * a2 / L**2
        dk_z = np.concatenate(([0.0], np.logspace(0, 6)))
        got = _faddeeva_walk_off(dk_z, H, L)
        want = np.array([_quad_walk_off(k, H, L) for k in dk_z])
        assert got.dtype == float and got.shape == dk_z.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * L

    @pytest.mark.parametrize("a2", _A2)
    @pytest.mark.parametrize("L", [100e-6, 450e-6])
    def test_rule_matches_quadrature(self, L, a2):
        # the library rule needs about max|dk_z| L / 2 + 7 nodes, so the
        # 5 mm crystal (2,500 nodes at dk_z = 1e6) stays on the oracle above;
        # the phase is above the series cap, so the z sum takes cos and sin
        H = 4.0 * a2 / L**2
        dk_z = np.concatenate(([0.0], np.logspace(0, 6)))
        assert np.max(dk_z) * L / 2.0 > jsa._SERIES_PHASE
        got = walk_off_integral(dk_z, H, L)
        want = np.array([_quad_walk_off(k, H, L) for k in dk_z])
        assert got.dtype == float and got.shape == dk_z.shape
        assert np.max(np.abs(got - want)) <= 1e-10 * L

    @pytest.mark.parametrize("n", [101, 201])
    def test_rule_matches_faddeeva_on_grids(self, degenerate, nondegenerate, n):
        # the shipped grids' phase is under the series cap: the z sum is the series
        for cfg in (degenerate, nondegenerate):
            grid = SpectralGrid(n, cfg.geom, cfg.crystal, cfg.filters)
            H, L = geometry_factors(cfg.geom).H, cfg.crystal.length_L
            assert np.max(np.abs(grid.dkz)) * L / 2.0 <= jsa._SERIES_PHASE
            got = walk_off_integral(grid.dkz, H, L)
            want = _faddeeva_walk_off(grid.dkz, H, L)
            assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))

    def test_too_few_nodes_raise(self, degenerate, monkeypatch):
        # one node cannot resolve the envelope: the raised-order check fails
        monkeypatch.setattr(jsa, "z_order", lambda degree, phase, spread: 1)
        L = degenerate.crystal.length_L
        with pytest.raises(ConvergenceError):
            walk_off_integral(np.linspace(0.0, 1e4, 5), 3.4e5, L)

    def test_walk_off_amplitude_memory(self, degenerate):
        # the longitudinal factor is elementwise on the grid, so its peak is
        # a few N^2 temporaries, whatever the envelope
        cfg, n = degenerate, 201
        tracemalloc.start()
        try:
            SpectralGrid(n, cfg.geom, cfg.crystal, cfg.filters).amplitude(
                cfg.geom, walk_off=True
            )
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 16 * n * n * np.dtype(complex).itemsize


class TestModeFunction:
    def test_center_value(self, degenerate, nondegenerate):
        for cfg in (degenerate, nondegenerate):
            g = geometry_factors(cfg.geom)
            want = math.pi * cfg.crystal.length_L / math.sqrt(g.A * g.C)
            got = float(mode_function(0.0, 0.0, cfg.geom, cfg.crystal))
            assert got == pytest.approx(want, rel=1e-6)

    def test_degenerate_exchange_symmetry(self, degenerate):
        cfg = degenerate
        Om = np.linspace(-4e12, 4e12, 33)
        OS, OI = np.meshgrid(Om, Om, indexing="ij")
        amp = np.asarray(
            mode_function(OS, OI, cfg.geom, cfg.crystal), dtype=complex
        )
        assert np.allclose(amp, amp.T, rtol=1e-10, atol=0)

    def test_argmax_near_center(self, degenerate):
        cfg = degenerate
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, Numerics(grid_resolution=101))
        j, k = np.unravel_index(np.argmax(np.abs(grid.amplitude)), grid.amplitude.shape)
        assert abs(j - 50) <= 1 and abs(k - 50) <= 1

    def test_walk_off_is_keyword_only(self, degenerate):
        # a positional fifth argument, the dispersion model it used to be,
        # must not turn walk-off on
        cfg = degenerate
        with pytest.raises(TypeError):
            mode_function(0.0, 0.0, cfg.geom, cfg.crystal, "exact")


class TestSpectralGrids:
    def test_one_grid_per_resolution_across_waists(self, degenerate):
        cfg = degenerate
        grid = spectral_grid(101, cfg.geom, cfg.crystal, cfg.filters)
        wider = replace(cfg.geom, W0p=2 * cfg.geom.W0p, W0s=1e-4)
        assert spectral_grid(101, wider, cfg.crystal, cfg.filters) is grid
        fine = spectral_grid(201, wider, cfg.crystal, cfg.filters)
        assert fine.dky.shape == (201, 201)
        assert spectral_grid(201, cfg.geom, cfg.crystal, cfg.filters) is fine
        assert spectral_grid(101, cfg.geom, cfg.crystal, cfg.filters) is grid

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_stride_two_sum_is_the_fresh_grid_sum(self, name, walk_off, request, monkeypatch):
        # the 201-point grid's even rows and columns are the grid built at 101
        # points, so its trapezoid sum at stride 2 must be the 101-point rate
        # sum bit for bit at two waists, and at either stride the sum is integrate's;
        # with walk-off, both grids' max|dk_z| give walk_off_integral one z order
        cfg = request.getfixturevalue(name)
        setting = (cfg.geom, cfg.crystal, cfg.filters)
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        fine, fresh = spectral_grid(201, *setting), spectral_grid(101, *setting)
        for k in ("dky", "dkz", "weight", "sinc_envelope", "pump_envelope"):
            assert getattr(fine, k)[::2, ::2].tobytes() == getattr(fresh, k).tobytes(), k
        L = cfg.crystal.length_L
        for geom in (cfg.geom, replace(cfg.geom, W0s=0.8 * cfg.geom.W0s)):
            f = geometry_factors(geom)
            phases = [float(np.max(np.abs(g.dkz))) * L / 2.0 for g in (fine, fresh)]
            assert len({jsa.z_order(0, q, f.H * L**2 / 4.0) for q in phases}) == 1
            key = key_of(geom, walk_off)
            full = fine.figure(key)
            assert full == fine.integrate(fine.weight * fine.shape(*key) ** 2)
            even = fine.weight[::2, ::2] * fine.shape(*key)[::2, ::2] ** 2
            assert fine.figure(key, stride=2) == fine.integrate(even, 2)
            assert fine.figure(key, stride=2) == fresh.figure(key) != full
            assert fine.figure(key) == full

    def test_stride_is_the_rate_sum_alone(self, degenerate):
        cfg = degenerate
        grid = spectral_grid(201, cfg.geom, cfg.crystal, cfg.filters)
        key = key_of(cfg.geom, False)
        for stride, decompose in ((2, "amplitude"), (3, None), (0, None)):
            with pytest.raises(ValueError):
                grid.figure(key, decompose, stride)

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_amplitude_is_mode_function(self, nondegenerate, walk_off):
        cfg = nondegenerate
        grid = SpectralGrid(101, cfg.geom, cfg.crystal, cfg.filters)
        geom = replace(cfg.geom, W0s=0.8 * cfg.geom.W0s)
        OS, OI = np.meshgrid(grid.Om_s, grid.Om_i, indexing="ij")
        want = mode_function(OS, OI, geom, cfg.crystal, walk_off=walk_off)
        assert np.array_equal(grid.amplitude(geom, walk_off), want)

    def test_shape_slot_holds_the_last_key(self, nondegenerate):
        # the figures of one key build one read-only shape, which the next
        # key replaces with its figures; the slot is keyed on C, and on H
        # with walk-off
        cfg = nondegenerate
        grid = SpectralGrid(101, cfg.geom, cfg.crystal, cfg.filters)
        OS, OI = np.meshgrid(grid.Om_s, grid.Om_i, indexing="ij")
        g = geometry_factors(cfg.geom)
        rate = grid.figure((g.C, None))
        key, first, figures = grid._figure_slot
        assert key == (g.C, None) and figures == {(None, 1): rate}
        grid.figure(key_of(replace(cfg.geom), False), "amplitude")
        assert grid._figure_slot[1] is first and grid._figure_slot[2] is figures
        assert len(figures) == 2
        assert not first.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            first[0, 0] = 0.0
        narrow = replace(cfg.geom, W0s=0.8 * cfg.geom.W0s)
        for geom, walk_off in ((narrow, False), (narrow, True), (cfg.geom, True)):
            f = geometry_factors(geom)
            grid.figure(key_of(geom, walk_off))
            key, psi, figures = grid._figure_slot
            assert key == (f.C, f.H if walk_off else None) and len(figures) == 1
            assert psi is not first and not psi.flags.writeable
            scale = math.pi / math.sqrt(f.A * f.C)
            want = mode_function(OS, OI, geom, cfg.crystal, walk_off=walk_off)
            assert np.array_equal(psi * scale, want)
            first = psi
        # the figures never change over keys and rounds
        keys = [
            key_of(replace(cfg.geom, W0s=(1.0 + 0.01 * k) * cfg.geom.W0s), False)
            for k in range(19)
        ]
        seen = {}
        for _ in range(2):
            for k, key in enumerate(keys):
                figures = (grid.figure(key), grid.figure(key, "amplitude"))
                assert seen.setdefault(k, figures) == figures
                assert grid._figure_slot[0] == key

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_amplitude_runs_geometry_factors_once(self, degenerate, walk_off, monkeypatch):
        # one call per request: a miss evaluates on the factors of its key
        cfg = degenerate
        grid = SpectralGrid(101, cfg.geom, cfg.crystal, cfg.filters)
        calls = []

        def counted(geom):
            calls.append(geom)
            return geometry_factors(geom)

        monkeypatch.setattr(jsa, "geometry_factors", counted)
        narrow = replace(cfg.geom, W0s=0.8 * cfg.geom.W0s)
        for geom in (cfg.geom, cfg.geom, narrow):
            grid.amplitude(geom, walk_off)
        assert calls == [cfg.geom, cfg.geom, narrow]

    @pytest.mark.parametrize("n", [101, 201])
    def test_integrate_is_nested_trapezoid(self, degenerate, nondegenerate, n):
        for cfg in (degenerate, nondegenerate):
            grid = SpectralGrid(n, cfg.geom, cfg.crystal, cfg.filters)
            density = grid.weight * grid.amplitude(cfg.geom, False) ** 2
            want = np.trapezoid(np.trapezoid(density, grid.Om_i, axis=1), grid.Om_s)
            assert grid.integrate(density) == pytest.approx(want, rel=1e-13)

    def test_held_arrays_are_read_only(self, degenerate):
        cfg = degenerate
        grid = SpectralGrid(31, cfg.geom, cfg.crystal, cfg.filters)
        assert grid.pump_envelope is grid.pump_envelope
        assert grid.sinc_envelope is grid.sinc_envelope
        assert jsa._legendre(9) is jsa._legendre(9)
        assert schmidt._probes(31, 6) is schmidt._probes(31, 6)
        # the waist-free product replaces the held sinc and pump exponent
        assert not hasattr(grid, "sinc") and not hasattr(grid, "pump_term")
        held_arrays = (grid.negdky2, grid.pump_envelope, grid.sinc_envelope, grid.weight)
        axes = (grid.dky, grid.dkz, grid.w_s, grid.w_i, grid.Om_s, grid.Om_i)
        for held in (*held_arrays, *axes, *jsa._legendre(9), schmidt._probes(31, 6)):
            with pytest.raises(ValueError, match="read-only"):
                held[0] = 0.0

    def test_pump_envelope_held_only_where_read(self, degenerate):
        # an amplitude without walk-off reads the product alone; walk-off
        # (and the mode sum) read the envelope, which is then held
        cfg = degenerate
        grid = SpectralGrid(31, cfg.geom, cfg.crystal, cfg.filters)
        grid.amplitude(cfg.geom, False)
        assert "sinc_envelope" in vars(grid) and "pump_envelope" not in vars(grid)
        grid.amplitude(cfg.geom, True)
        assert "pump_envelope" in vars(grid)

    def test_another_spectral_setting_gets_a_fresh_grid(self, degenerate):
        # only the waists may differ between requests that share a grid
        cfg = degenerate
        grid = spectral_grid(101, cfg.geom, cfg.crystal, cfg.filters)
        tilted = replace(cfg.geom, theta_s=1.01 * cfg.geom.theta_s)
        narrow = replace(
            cfg.filters, pump=replace(cfg.filters.pump, half_width=cfg.filters.pump.half_width / 2)
        )
        for geom, filters in ((tilted, cfg.filters), (cfg.geom, narrow)):
            other = spectral_grid(101, geom, cfg.crystal, filters)
            want = SpectralGrid(101, geom, cfg.crystal, filters)
            assert other is not grid
            for name in ("dky", "dkz", "weight"):
                assert np.array_equal(getattr(other, name), getattr(want, name)), name
        assert spectral_grid(101, cfg.geom, cfg.crystal, cfg.filters) is not grid

    @pytest.mark.parametrize("asks_next", ["degenerate", "nondegenerate"])
    def test_interleaved_request_never_crosses_settings(
        self, degenerate, nondegenerate, monkeypatch, asks_next, request
    ):
        # while a degenerate grid is being built, a nondegenerate one is
        # requested, as another thread could; every call must still get a
        # grid of its own setting, also the requests after it
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        init, nested = SpectralGrid.__init__, []

        def interleaved(self, resolution, geom, crystal, filters):
            if filters is degenerate.filters and not nested:
                b = nondegenerate
                nested.append(spectral_grid(15, b.geom, b.crystal, b.filters))
            init(self, resolution, geom, crystal, filters)

        monkeypatch.setattr(SpectralGrid, "__init__", interleaved)
        a = degenerate
        assert built_for(spectral_grid(31, a.geom, a.crystal, a.filters), a)
        assert built_for(nested[0], nondegenerate)
        cfg = request.getfixturevalue(asks_next)
        for n in (15, 31):
            grid = spectral_grid(n, cfg.geom, cfg.crystal, cfg.filters)
            assert grid.w_s.size == n and built_for(grid, cfg), n

    def test_interleaved_figure_is_its_own_key(self, nondegenerate, monkeypatch):
        # while one key's figure slot is being stored, another key's
        # figures are asked for on the same grid, as another thread could;
        # each call must return its own key's figure, and so must the next ones
        cfg = nondegenerate
        grid = SpectralGrid(31, cfg.geom, cfg.crystal, cfg.filters)
        wide, narrow = (
            key_of(g, False) for g in (cfg.geom, replace(cfg.geom, W0s=0.8 * cfg.geom.W0s))
        )
        fresh = SpectralGrid(31, cfg.geom, cfg.crystal, cfg.filters)
        want = {
            (k, d): fresh.figure(k, d) for k in (wide, narrow) for d in (None, "amplitude")
        }
        assert want[wide, None] != want[narrow, None]
        nested = []

        def interleaved(self, name, value):
            object.__setattr__(self, name, value)
            if len(nested) < 2:
                k = len(nested)
                nested.append(None)
                nested[k] = self.figure(narrow), self.figure(narrow, "amplitude")

        monkeypatch.setattr(SpectralGrid, "__setattr__", interleaved)
        assert grid.figure(wide) == want[wide, None]
        assert grid.figure(wide, "amplitude") == want[wide, "amplitude"]
        assert nested == [(want[narrow, None], want[narrow, "amplitude"])] * 2
        for k in (wide, narrow, narrow, wide):
            for d in (None, "amplitude"):
                assert grid.figure(k, d) == want[k, d]


class TestJsaGrid:
    def test_normalization(self, degenerate):
        cfg = degenerate
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, Numerics(grid_resolution=101))
        dens = np.abs(grid.amplitude) ** 2
        total = np.trapezoid(
            np.trapezoid(dens, grid.omega_i_samples, axis=1), grid.omega_s_samples
        )
        assert grid.normalization_N * total == pytest.approx(1.0, rel=1e-12)

    def test_builds_no_filter_weight(self, degenerate, monkeypatch):
        # the dump applies no transmission, so it never builds T_s T_i T_p;
        # a rate's first read of the weight builds it once
        cfg = degenerate
        calls = []
        original = jsa.filter_transmission

        def counting(omega, spec):
            calls.append(spec)
            return original(omega, spec)

        monkeypatch.setattr(jsa, "filter_transmission", counting)
        jsa_grid(cfg.geom, cfg.crystal, cfg.filters, Numerics(grid_resolution=101))
        assert calls == []
        grid = SpectralGrid(31, cfg.geom, cfg.crystal, cfg.filters)
        assert calls == []
        assert grid.weight is grid.weight
        assert calls == [cfg.filters.signal, cfg.filters.idler, cfg.filters.pump]
        T_s, T_i = original(grid.w_s, cfg.filters.signal), original(grid.w_i, cfg.filters.idler)
        T_p = original(np.add.outer(grid.w_s, grid.w_i), cfg.filters.pump)
        assert np.array_equal(grid.weight, T_s[:, None] * T_i[None, :] * T_p)

    def test_complex_amplitude_rejected(self):
        # the writers dump Im Phi as zeros, so a complex amplitude must not
        # reach them
        ws, wi = np.linspace(2.30e15, 2.34e15, 3), np.linspace(2.31e15, 2.37e15, 2)
        amp = np.ones((3, 2)) + 0.5j
        with pytest.raises(ValueError, match="amplitude must be real"):
            JsaGrid(ws, wi, amp, 1.0)
        JsaGrid(ws, wi, amp.real, 1.0)

    @pytest.mark.parametrize("walk_off", [False, True])
    def test_amplitude_is_real(self, degenerate, walk_off):
        cfg = degenerate
        numerics = Numerics(grid_resolution=101, walk_off_enabled=walk_off)
        assert jsa_grid(cfg.geom, cfg.crystal, cfg.filters, numerics).amplitude.dtype == np.float64

    def test_purity_grid_refinement(self, degenerate):
        cfg = degenerate
        vals = []
        for res in (201, 401):
            grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, Numerics(grid_resolution=res))
            vals.append(schmidt_purity(grid, "amplitude").purity)
        assert abs(vals[1] - vals[0]) < 1e-3

    def test_narrow_pump_band_concentrates_sum_frequency(self, degenerate):
        # as the pump bandwidth shrinks the joint density collapses onto the
        # anti-diagonal Omega_s + Omega_i = 0
        cfg = degenerate
        geom = replace(cfg.geom, pump_bandwidth_Bp=1e10)
        grid = jsa_grid(geom, cfg.crystal, cfg.filters, Numerics())
        OS = grid.omega_s_samples[:, None] - geom.signal.central_angular_frequency
        OI = grid.omega_i_samples[None, :] - geom.idler.central_angular_frequency
        dens = np.abs(grid.amplitude) ** 2
        band = np.abs(OS + OI) < 5e10
        assert dens[band].sum() > 0.999 * dens.sum()


def _reference_write_jsa_csv(grid, path):
    """The row-by-row csv.writer form of write_jsa_csv."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["omega_s_rad_per_s", "omega_i_rad_per_s", "re_phi", "im_phi", "jsi"])
        for j, ws in enumerate(grid.omega_s_samples):
            for k, wi in enumerate(grid.omega_i_samples):
                amp = grid.amplitude[j, k]
                writer.writerow(
                    [
                        "%.9e" % ws,
                        "%.9e" % wi,
                        "%.9e" % amp.real,
                        "%.9e" % amp.imag,
                        "%.9e" % abs(amp) ** 2,
                    ]
                )


def _reference_write_jsa_json(grid, path):
    """The json.dump form of write_jsa_json."""
    doc = {
        "omega_s_samples": grid.omega_s_samples.tolist(),
        "omega_i_samples": grid.omega_i_samples.tolist(),
        "amplitude_re": grid.amplitude.real.tolist(),
        "amplitude_im": grid.amplitude.imag.tolist(),
        "normalization_N": grid.normalization_N,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)


class TestJsaWriters:
    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("config", ["degenerate", "nondegenerate"])
    def test_match_reference_writers(self, request, tmp_path, config, walk_off):
        # the nondegenerate grid has distinct signal and idler axes, so a
        # transposed or misaligned column shows
        cfg = request.getfixturevalue(config)
        numerics = replace(cfg.numerics, walk_off_enabled=walk_off)
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, numerics)
        for write, reference, name in (
            (write_jsa_csv, _reference_write_jsa_csv, "jsa_grid.csv"),
            (write_jsa_json, _reference_write_jsa_json, "jsa_grid.json"),
        ):
            write(grid, tmp_path / name)
            reference(grid, tmp_path / ("reference_" + name))
            assert (tmp_path / name).read_bytes() == (tmp_path / ("reference_" + name)).read_bytes()

    @pytest.mark.parametrize("kind", ["signed_zero_and_subnormal"])
    def test_hand_built_grids_match_reference(self, tmp_path, kind):
        # axes that differ in length and values show a transposed or
        # misaligned cell
        amp = np.array(
            [
                [-0.0, 5e-324, 1e-300, -2.5, 0.0],
                [0.0, -5e-324, -1e-300, 3.0e-5, -7.0],
                [1.0, -1.0, 7.25e12, -0.0, 2.0],
            ]
        )
        ws = np.linspace(2.30e15, 2.34e15, amp.shape[0])
        wi = np.linspace(2.31e15, 2.37e15, amp.shape[1])
        grid = JsaGrid(ws, wi, amp, 1.234e-29)
        for write, reference, name in (
            (write_jsa_csv, _reference_write_jsa_csv, "jsa_grid.csv"),
            (write_jsa_json, _reference_write_jsa_json, "jsa_grid.json"),
        ):
            write(grid, tmp_path / name)
            reference(grid, tmp_path / ("reference_" + name))
            assert (tmp_path / name).read_bytes() == (tmp_path / ("reference_" + name)).read_bytes()

    @pytest.mark.parametrize("config", ["degenerate_810", "nondegenerate_850_609"])
    def test_cli_files_match_reference(self, tmp_path, config):
        path = shipped_config_path(config)
        assert main(["jsa", "--config", str(path), "--out", str(tmp_path / "cli"), "--grid-resolution", "64"]) == 0
        cfg = load_config(path)
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, replace(cfg.numerics, grid_resolution=64))
        for reference, name in (
            (_reference_write_jsa_csv, "jsa_grid.csv"),
            (_reference_write_jsa_json, "jsa_grid.json"),
        ):
            reference(grid, tmp_path / name)
            assert (tmp_path / "cli" / name).read_bytes() == (tmp_path / name).read_bytes()

    @pytest.mark.parametrize("n", [201, 401])
    @pytest.mark.parametrize("config", ["degenerate", "nondegenerate"])
    @pytest.mark.parametrize("write", [write_jsa_csv, write_jsa_json])
    def test_writer_memory(self, request, tmp_path, config, n, write):
        # each writer streams one omega_s row at a time, so its peak grows
        # with the grid side, not with the grid's area
        cfg = request.getfixturevalue(config)
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, replace(cfg.numerics, grid_resolution=n))
        tracemalloc.start()
        try:
            write(grid, tmp_path / "jsa_grid")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 64 * n * np.dtype(float).itemsize


@pytest.mark.parametrize("conv", ["paper_literal", "consistent"])
@pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
def test_delta_terms_match_written_out(which_cfg, conv, request, written_out_delta_terms):
    # the group velocities are held per modes and crystal; crystal variants
    # asked for between calls on the base show a stale entry
    cfg = request.getfixturevalue(which_cfg)
    crystal = cfg.crystal
    crystals = (
        crystal,
        replace(crystal, length_L=crystal.length_L / 2),
        replace(crystal, cut_angle_theta=1.001 * crystal.cut_angle_theta),
        crystal,
    )
    for cr in crystals:
        for scale in np.geomspace(1.0, 3.0, 5):
            geom = replace(cfg.geom, W0p=scale * cfg.geom.W0p, W0s=cfg.geom.W0s / scale)
            waist = written_out_delta_terms(geom, cr, conv).waist
            assert abs(purity_waist(geom.W0p, geom, cr, conv) - waist) <= 1e-15 * waist


class TestDeltaCoefficients:
    """The oracle's Gaussian-model coefficients at ``purity_waist``."""

    def test_unknown_convention(self, degenerate):
        with pytest.raises(ValueError):
            purity_waist(degenerate.geom.W0p, degenerate.geom, degenerate.crystal, "other")

    def test_collinear_cross_term_positive(self, degenerate, written_out_delta_terms):
        # with zero emission angles the angular terms vanish and the cross
        # coefficient is strictly positive, so no separable point exists
        geom = collinear(degenerate.geom)
        model = written_out_delta_terms(geom, degenerate.crystal, "paper_literal")
        assert model.delta_si > 0 and math.isnan(model.waist)
        with pytest.raises(UnsatisfiableConditionError):
            purity_waist(geom.W0p, geom, degenerate.crystal, "paper_literal")

    @pytest.mark.parametrize("conv", ["paper_literal", "consistent"])
    def test_cross_term_vanishes_at_closed_form_waist(self, degenerate, conv, written_out_delta_terms):
        cfg = degenerate
        w = purity_waist(cfg.geom.W0p, cfg.geom, cfg.crystal, alpha_convention=conv)
        d = written_out_delta_terms(replace(cfg.geom, W0s=w), cfg.crystal, conv)
        assert abs(d.delta_si) <= 1e-10 * max(d.delta_s, d.delta_i)


class TestPurityWaist:
    def test_frozen_values(self, degenerate, nondegenerate):
        assert purity_waist(
            degenerate.geom.W0p, degenerate.geom, degenerate.crystal, "paper_literal"
        ) == pytest.approx(243.2257e-6, rel=1e-6)
        assert purity_waist(
            degenerate.geom.W0p,
            degenerate.geom,
            degenerate.crystal,
            alpha_convention="consistent",
        ) == pytest.approx(354.1225e-6, rel=1e-6)
        assert purity_waist(
            nondegenerate.geom.W0p, nondegenerate.geom, nondegenerate.crystal, "paper_literal"
        ) == pytest.approx(305.2957e-6, rel=1e-6)

    @pytest.mark.xfail(
        reason="published closed-form collection waist of about 309 um for the "
        "degenerate layout is not reproduced; this implementation yields "
        "243.2 um (see README, Tests)",
        strict=True,
    )
    def test_published_degenerate_value(self, degenerate):
        w = purity_waist(degenerate.geom.W0p, degenerate.geom, degenerate.crystal, "paper_literal")
        assert w == pytest.approx(309e-6, rel=0.02)

    def test_unsatisfiable_at_zero_angle(self, degenerate):
        geom = collinear(degenerate.geom)
        with pytest.raises(UnsatisfiableConditionError):
            purity_waist(geom.W0p, geom, degenerate.crystal, "paper_literal")

    def test_unsatisfiable_for_tiny_pump_waist(self, degenerate):
        with pytest.raises(UnsatisfiableConditionError):
            purity_waist(5e-6, degenerate.geom, degenerate.crystal, "paper_literal")


class TestGaussianModel:
    def test_separable_form_is_pure(self, degenerate, written_out_delta_terms):
        cfg = degenerate
        w = purity_waist(cfg.geom.W0p, cfg.geom, cfg.crystal, "paper_literal")
        geom = replace(cfg.geom, W0s=w)
        assert written_out_delta_terms(geom, cfg.crystal, "paper_literal").purity == pytest.approx(
            1.0, abs=1e-12
        )

    def test_analytic_vs_svd(self, degenerate, written_out_delta_terms):
        # the closed-form Mehler-kernel purity must agree with a dense SVD of
        # the same Gaussian amplitude
        d = written_out_delta_terms(degenerate.geom, degenerate.crystal, "consistent")
        s = math.sqrt(max(d.delta_s, d.delta_i))
        x = np.linspace(-6, 6, 801) / s
        X, Y = np.meshgrid(x, x, indexing="ij")
        amp = np.exp(
            -(d.delta_s * X**2 + d.delta_i * Y**2 + 2 * d.delta_si * X * Y) / 2.0
        )
        svd_p = schmidt_purity(amp, "amplitude").purity
        assert d.purity == pytest.approx(svd_p, abs=1e-3)


class TestBeamGeometry:
    def test_validation(self, degenerate):
        geom = degenerate.geom
        with pytest.raises(ValueError):
            replace(geom, W0p=0.0)
        with pytest.raises(ValueError):
            replace(geom, theta_s=0.2)
        with pytest.raises(ValueError):
            replace(geom, pump_bandwidth_Bp=-1.0)

    @pytest.mark.parametrize("build, match", [
        (lambda g: replace(g, modes=g.modes[::-1]), "modes must be the"),
        (lambda g: JsaGrid(np.arange(3.0), np.arange(2.0), np.ones((2, 3)), 1.0),
         "amplitude shape does not match"),
        (lambda g: JsaGrid(np.arange(3.0), np.arange(2.0), np.zeros((3, 2)), 1.0),
         "vanishing joint amplitude"),
    ], ids=["modes-out-of-order", "mismatched-axes", "zero-amplitude"])
    def test_rejected_input_names_its_check(self, degenerate, build, match):
        with pytest.raises(ValueError, match=match):
            build(degenerate.geom)

    def test_role_accessors(self, degenerate):
        geom = degenerate.geom
        assert geom.pump.role == "pump"
        assert geom.signal.role == "signal"
        assert geom.idler.role == "idler"


def _reference_rayleigh_warnings(geom, length_L):
    """The per-waist, per-mode warnings of check_rayleigh, from its loop alone."""
    got = []
    for waists in np.broadcast(geom.W0p, geom.W0s, geom.W0s):
        for w0, mode in zip(waists, geom.modes):
            z_r = math.pi * float(w0 * w0) / mode.central_wavelength
            if z_r <= 10.0 * length_L:
                got.append(
                    "%s Rayleigh range %.2e m is not >> crystal length %.2e m"
                    % (mode.role, z_r, length_L)
                )
    return got


class TestRayleighCheck:
    @staticmethod
    def at_bound(mode, length_L, rel):
        """The waist whose Rayleigh range is (1 + rel) * 10 L in ``mode``."""
        return math.sqrt(10.0 * length_L * (1.0 + rel) * mode.central_wavelength / math.pi)

    @pytest.mark.parametrize("config", ["degenerate", "nondegenerate"])
    def test_batches_warn_as_the_per_waist_loop(self, request, config):
        # pump and collection waists below, at, within 1e-9 of and above the
        # z_r > 10 L bound, in batches that straddle it and batches clear of it
        cfg = request.getfixturevalue(config)
        geom, L = cfg.geom, cfg.crystal.length_L
        p = [self.at_bound(geom.pump, L, rel) for rel in (-0.5, -1e-12, 0.0, 1e-12, 5e-10, 0.5)]
        s = [self.at_bound(geom.signal, L, rel) for rel in (-0.5, -1e-12, 0.0, 1e-12, 5e-10, 0.5)]
        far = 10.0 * max(p + s)
        batches = [
            (np.array(p), far),
            (far, np.array(s)),
            (np.array(p), np.array(s)),
            (np.array(p[::-1]), np.array(s)),
            (np.array([far, 2 * far]), np.array([far, s[1]])),
            (np.array([far, 2 * far]), np.array([far, 3 * far])),
            (p[1], s[3]),
            (far, far),
        ]
        lists = []
        for W0p, W0s in batches:
            g = replace(geom, W0p=W0p, W0s=W0s)
            with warnings.catch_warnings(record=True) as got:
                warnings.simplefilter("always")
                jsa.check_rayleigh(g, L)
            lists.append([str(w.message) for w in got])
            assert lists[-1] == _reference_rayleigh_warnings(g, L)
        assert [len(x) > 0 for x in lists] == [True] * 5 + [False, True, False]
        assert len(lists[2]) > len(lists[0])
