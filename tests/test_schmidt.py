import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spdc_lab.config import Numerics
from spdc_lab.errors import SpdcLabError
from spdc_lab.jsa import JsaGrid, jsa_grid
from spdc_lab import schmidt
from spdc_lab.schmidt import purity, schmidt_purity


def gaussian_grid(ds, di, dsi, n=201, span=6.0):
    s = math.sqrt(max(ds, di))
    x = np.linspace(-span, span, n) / s
    X, Y = np.meshgrid(x, x, indexing="ij")
    return np.exp(-(ds * X**2 + di * Y**2 + 2 * dsi * X * Y) / 2.0)


class TestAmplitudeDecomposition:
    def test_rank_one_is_pure(self):
        x = np.linspace(-3, 3, 64)
        f = np.exp(-(x**2))
        g = np.exp(-2 * x**2) * (1 + 0.3 * x)
        spec = schmidt_purity(np.outer(f, g), "amplitude")
        assert spec.purity == pytest.approx(1.0, abs=1e-10)
        assert spec.schmidt_number == pytest.approx(1.0, abs=1e-10)
        assert spec.lambdas[0] == pytest.approx(1.0, abs=1e-10)

    @given(p=st.floats(0.05, 0.95))
    @settings(max_examples=40, deadline=None)
    def test_two_level_spectrum(self, p):
        # diagonal matrix with singular values (sqrt(p), sqrt(1-p)) padded to
        # 4x4: purity must equal p^2 + (1-p)^2 exactly
        m = np.zeros((4, 4))
        m[0, 0] = math.sqrt(p)
        m[1, 1] = math.sqrt(1 - p)
        spec = schmidt_purity(m, "amplitude")
        assert spec.purity == pytest.approx(p**2 + (1 - p) ** 2, rel=1e-12)

    @given(
        scale=st.floats(1e-3, 1e3),
        phase=st.floats(0.0, 2 * math.pi),
    )
    @settings(max_examples=40, deadline=None)
    def test_scale_and_phase_invariance(self, scale, phase):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
        base = schmidt_purity(m, "amplitude").purity
        scaled = scale * np.exp(1j * phase) * m
        assert schmidt_purity(scaled, "amplitude").purity == pytest.approx(
            base, rel=1e-10
        )

    def test_transpose_invariance(self):
        rng = np.random.default_rng(3)
        m = rng.normal(size=(20, 11))
        assert schmidt_purity(m, "amplitude").purity == pytest.approx(
            schmidt_purity(m.T, "amplitude").purity, rel=1e-12
        )

    def test_gaussian_oracle(self):
        # amplitude exp(-(2x^2 + 2y^2 + 2xy)/2): the geometric Schmidt ladder
        # gives purity sqrt(3)/2
        want = math.sqrt(3.0) / 2.0
        p_201 = schmidt_purity(gaussian_grid(2.0, 2.0, 1.0, n=201), "amplitude").purity
        p_1001 = schmidt_purity(gaussian_grid(2.0, 2.0, 1.0, n=1001), "amplitude").purity
        assert p_1001 == pytest.approx(want, abs=1e-6)
        assert abs(p_201 - p_1001) < 1e-4


class TestIntensityDecomposition:
    def test_rank_one_intensity(self):
        x = np.linspace(-3, 3, 64)
        m = np.outer(np.exp(-(x**2)), np.exp(-2 * x**2))
        spec = schmidt_purity(m, decompose="intensity")
        assert spec.purity == pytest.approx(1.0, abs=1e-10)

    def test_intensity_leq_amplitude_on_gaussian(self):
        m = gaussian_grid(2.0, 2.0, 1.0)
        amp = schmidt_purity(m, decompose="amplitude").purity
        inten = schmidt_purity(m, decompose="intensity").purity
        assert 0 < inten <= amp + 1e-12

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            schmidt_purity(np.eye(4), decompose="other")


class TestValidation:
    def test_zero_matrix(self):
        with pytest.raises(SpdcLabError, match="vanishing"):
            schmidt_purity(np.zeros((8, 8)), "amplitude")

    def test_non_finite(self):
        m = np.ones((4, 4))
        m[2, 2] = np.nan
        with pytest.raises(ValueError):
            schmidt_purity(m, "amplitude")

    def test_wrong_shape(self):
        with pytest.raises(ValueError):
            schmidt_purity(np.ones(16), "amplitude")
        with pytest.raises(ValueError):
            schmidt_purity(np.ones((1, 16)), "amplitude")
        with pytest.raises(ValueError):
            purity(np.ones((1, 16)), "amplitude")

    def test_purity_zero_matrix_and_unknown_mode(self):
        with pytest.raises(SpdcLabError, match="vanishing"):
            purity(np.zeros((8, 8)), "amplitude")
        with pytest.raises(ValueError):
            purity(np.eye(4), decompose="other")

    @pytest.mark.parametrize("dtype", [np.float32, np.int64])
    def test_narrow_and_integer_dtypes(self, dtype):
        # the values of the matrix count, not the bits of its storage
        m = np.eye(3, dtype=dtype)
        assert schmidt_purity(m, "amplitude").purity == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert purity(m, "amplitude") == pytest.approx(1.0 / 3.0, rel=1e-12)
        rank_one = np.outer(np.arange(1, 5), np.arange(1, 4)).astype(dtype)
        assert schmidt_purity(rank_one, "amplitude").purity == pytest.approx(1.0, rel=1e-12)
        assert purity(rank_one, "amplitude") == pytest.approx(1.0, rel=1e-12)

    @pytest.mark.parametrize("dtype", [np.float32, np.complex64])
    def test_non_finite_narrow_dtypes(self, dtype):
        m = np.ones((2, 2), dtype=dtype)
        m[0, 1] = np.nan
        for decompose in ("amplitude", "intensity"):
            with pytest.raises(ValueError, match="non-finite"):
                schmidt_purity(m, decompose=decompose)
            with pytest.raises(ValueError, match="non-finite"):
                purity(m, decompose=decompose)
        axis = np.arange(2.0)
        with pytest.raises(ValueError, match="non-finite"):
            JsaGrid(axis, axis, m, 1.0)


class TestTraceRhoSquared:
    """``purity`` against the purity of the SVD Schmidt spectrum."""

    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_shipped_configs(self, which_cfg, request):
        cfg = request.getfixturevalue(which_cfg)
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert purity(grid, "amplitude") == pytest.approx(
            schmidt_purity(grid, "amplitude").purity, rel=1e-12
        )
        assert purity(grid, decompose="intensity") == (
            schmidt_purity(grid, decompose="intensity").purity
        )

    @pytest.mark.parametrize("dtype", [np.float64, np.float32, np.int64])
    def test_real_gram_matches_complex_gram(self, dtype):
        rng = np.random.default_rng(20001)
        for shape in ((50, 50), (60, 40), (40, 60)):
            m = (100 * rng.normal(size=shape)).astype(dtype)
            assert purity(m, "amplitude") == pytest.approx(
                purity(m.astype(complex), "amplitude"), rel=1e-13
            )

    def test_random_complex_rectangle(self):
        rng = np.random.default_rng(20000)
        m = rng.normal(size=(60, 40)) + 1j * rng.normal(size=(60, 40))
        for a in (m, m.T):
            assert purity(a, "amplitude") == pytest.approx(
                schmidt_purity(a, "amplitude").purity, rel=1e-12
            )
            assert purity(a, decompose="intensity") == (
                schmidt_purity(a, decompose="intensity").purity
            )


class TestOnSampledAmplitude:
    def test_refinement_monotone_convergence(self, degenerate):
        cfg = degenerate
        vals = []
        for res in (101, 201, 401):
            grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, Numerics(grid_resolution=res))
            vals.append(schmidt_purity(grid, "amplitude").purity)
        assert abs(vals[2] - vals[1]) <= abs(vals[1] - vals[0]) + 1e-12
        assert abs(vals[2] - vals[1]) < 1e-4

    def test_high_purity_at_reference_geometry(self, degenerate):
        cfg = degenerate
        grid = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, Numerics(grid_resolution=201))
        spec = schmidt_purity(grid, "amplitude")
        assert spec.purity == pytest.approx(0.999950, abs=1e-4)


class TestSketch:
    """The range-finder sketch of ``purity`` against exact values."""

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("n", [201, 801])
    @pytest.mark.parametrize("which_cfg", ["degenerate", "nondegenerate"])
    def test_matches_svd_on_shipped_amplitudes(self, which_cfg, n, walk_off, request):
        cfg = request.getfixturevalue(which_cfg)
        numerics = replace(cfg.numerics, grid_resolution=n, walk_off_enabled=walk_off)
        amp = jsa_grid(cfg.geom, cfg.crystal, cfg.filters, numerics).amplitude
        assert abs(purity(amp, "amplitude") - schmidt_purity(amp, "amplitude").purity) <= 1e-12

    def test_rank_one_orthogonal_to_the_starting_probes(self):
        # v has no component along the first _SKETCH_RANK probes, so A Omega
        # is rounding noise and the sketch on those probes alone misses a
        # share of A; only the certificate sends it on to more probes
        n = 64
        rng = np.random.default_rng(0)
        probes = schmidt._probes(n, schmidt._SKETCH_RANK)
        v = rng.normal(size=n)
        for _ in range(2):
            v = v - probes @ np.linalg.lstsq(probes, v, rcond=None)[0]
        a = np.outer(rng.normal(size=n), v)
        sketch = np.linalg.qr(a @ probes)[0].T @ a
        gram = sketch @ sketch.T
        assert 1.0 - np.vdot(gram, gram) / np.vdot(a, a) ** 2 > 1e-4
        assert purity(a, "amplitude") == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_full_rank_matches_gram(self, seed, dtype):
        rng = np.random.default_rng(seed)
        a = rng.normal(size=(64, 64))
        if dtype is complex:
            a = a + 1j * rng.normal(size=(64, 64))
        gram = a.conj().T @ a
        want = np.vdot(gram, gram).real / np.vdot(a, a).real ** 2
        got = purity(a, "amplitude")
        assert abs(got - want) <= 1e-12
        assert got - want <= 1e-15

    @pytest.mark.parametrize("rank", [3, 9, 20])
    def test_certificate_bounds_an_early_stop(self, rank, monkeypatch):
        # with the tolerance loosened the sketch stops at the starting probes;
        # its estimate stays below the full value by at most 2 lost / ||A||^2
        n, k = 48, schmidt._SKETCH_RANK
        rng = np.random.default_rng(rank)
        left, right = (np.linalg.qr(rng.normal(size=(n, rank)))[0] for _ in range(2))
        a = (left * 0.5 ** np.arange(rank)) @ right.T
        total = np.vdot(a, a)
        q = np.linalg.qr(a @ schmidt._probes(n, k))[0]
        lost = total - np.linalg.norm(q.T @ a) ** 2
        gram = a.T @ a
        full = np.vdot(gram, gram) / total**2
        monkeypatch.setattr(schmidt, "_SKETCH_TOL", 1.0)
        early = purity(a, "amplitude")
        assert -1e-15 <= full - early <= 2.0 * lost / total + 1e-15
        if rank > k:
            assert lost > 1e-6 * total and full - early > 0
        monkeypatch.undo()
        assert purity(a, "amplitude") == pytest.approx(full, abs=1e-12)
