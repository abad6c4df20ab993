import math
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from spdc_lab import jsa, metrics, sweep
from spdc_lab.config import Numerics
from spdc_lab.errors import UnsatisfiableConditionError
from spdc_lab.jsa import purity_waist
from spdc_lab.sweep import (
    SweepRow,
    golden_section_maximize,
    metrics_vs_waist_ratio,
    optimize,
    rate_vs_pump_waist,
    write_sweep_csv,
)


STUB_PURITY = 0.5


def stub_rate(monkeypatch, rate_fn):
    """Replace the sweeps' pair-rate integral by ``rate_fn(geom)`` and their
    purity by STUB_PURITY."""
    monkeypatch.setattr(sweep, "pair_rate", lambda geom, *args, **kwargs: rate_fn(geom))
    monkeypatch.setattr(sweep, "jsa_purity", lambda *args, **kwargs: STUB_PURITY)


class TestGoldenSection:
    def test_parabola(self):
        x, fx = golden_section_maximize(lambda x: -(x - 0.3) ** 2, 0.0, 1.0, tol=1e-9)
        assert x == pytest.approx(0.3, abs=1e-7)
        assert fx == pytest.approx(0.0, abs=1e-12)

    def test_monotone_hits_boundary(self):
        x, _ = golden_section_maximize(lambda x: x, 0.0, 1.0, tol=1e-9)
        assert x == pytest.approx(1.0, abs=1e-6)


class TestRateVsPumpWaist:
    def test_validation(self, degenerate):
        cfg = degenerate
        with pytest.raises(ValueError, match="waist_range"):
            rate_vs_pump_waist((2e-4, 1e-4), 5, cfg.geom, cfg.crystal, cfg.filters)
        with pytest.raises(ValueError, match="steps"):
            rate_vs_pump_waist((1e-4, 2e-4), 0, cfg.geom, cfg.crystal, cfg.filters)

    def test_tie_break_toward_smallest(self, degenerate, monkeypatch):
        cfg = degenerate
        stub_rate(monkeypatch, lambda geom: 1.0)
        res = rate_vs_pump_waist((3e-4, 4e-4), 5, cfg.geom, cfg.crystal, cfg.filters)
        assert res.argmax_index == 0
        assert res.rows[res.argmax_index].swept_value == pytest.approx(3e-4)
        assert len(res.rows) == 5
        assert all(row.eta is None and row.purity == STUB_PURITY for row in res.rows)

    def test_single_step(self, degenerate, monkeypatch):
        cfg = degenerate
        stub_rate(monkeypatch, lambda geom: 2.0)
        res = rate_vs_pump_waist((3e-4, 4e-4), 1, cfg.geom, cfg.crystal, cfg.filters)
        assert len(res.rows) == 1
        assert res.rows[0].swept_value == pytest.approx(3e-4)

    def test_tie_sets_collection_waist(self, degenerate, monkeypatch):
        # the collection waist follows each pump waist by the separability
        # condition under the consistent convention
        cfg = degenerate
        seen = []

        def rate_fn(geom):
            seen.append((geom.W0p, geom.W0s))
            return 1.0

        stub_rate(monkeypatch, rate_fn)
        rate_vs_pump_waist((4e-4, 5e-4), 3, cfg.geom, cfg.crystal, cfg.filters)
        assert [W0p for W0p, _ in seen] == pytest.approx([4e-4, 4.5e-4, 5e-4])
        for W0p, W0s in seen:
            assert W0s == pytest.approx(
                purity_waist(W0p, cfg.geom, cfg.crystal, alpha_convention="consistent")
            )

    def test_unsatisfiable_rows_skipped(self, degenerate, monkeypatch):
        cfg = degenerate
        stub_rate(monkeypatch, lambda geom: 1.0 / geom.W0p)
        # the separability condition has no solution below a threshold pump
        # waist; a range straddling it keeps only the feasible samples
        res = rate_vs_pump_waist((2e-6, 4e-4), 5, cfg.geom, cfg.crystal, cfg.filters)
        assert 0 < len(res.rows) < 5

    def test_all_unsatisfiable_raises(self, degenerate, monkeypatch):
        cfg = degenerate
        stub_rate(monkeypatch, lambda geom: 1.0)
        with pytest.raises(UnsatisfiableConditionError):
            rate_vs_pump_waist((1e-6, 3e-6), 3, cfg.geom, cfg.crystal, cfg.filters)


    @pytest.mark.parametrize("steps", [5, 40])
    def test_phase_mismatch_once_per_resolution(self, degenerate, monkeypatch, steps):
        # pair-rate levels 101 and 201, the purity grid is the 201 level again
        cfg = degenerate
        sizes = []
        original = jsa.phase_mismatch_exact

        def counting(Omega_s, Omega_i, geom, crystal):
            sizes.append(np.broadcast(Omega_s, Omega_i).size)
            return original(Omega_s, Omega_i, geom, crystal)

        monkeypatch.setattr(jsa, "phase_mismatch_exact", counting)
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        result = rate_vs_pump_waist((50e-6, 800e-6), steps, cfg.geom, cfg.crystal, cfg.filters)
        assert len(result.rows) > 1
        assert sorted(sizes) == [101**2, 201**2]


class TestMetricsVsWaistRatio:
    def test_rate_decreases_with_ratio(self, degenerate):
        cfg = degenerate
        res = metrics_vs_waist_ratio(
            (0.8, 1.0),
            3,
            cfg.geom,
            cfg.crystal,
            cfg.filters,
            numerics=Numerics(grid_resolution=101),
        )
        rates = [row.R for row in res.rows]
        assert rates[0] > rates[1] > rates[2]
        for row in res.rows:
            assert row.eta is not None and row.purity is not None
            assert 0.85 <= row.eta <= 1.0
            assert row.purity >= 0.995

    def test_validation(self, degenerate):
        cfg = degenerate
        with pytest.raises(ValueError, match="ratio_range"):
            metrics_vs_waist_ratio((1.0, 0.5), 3, cfg.geom, cfg.crystal, cfg.filters)
        with pytest.raises(ValueError, match="steps"):
            metrics_vs_waist_ratio((0.5, 1.0), 0, cfg.geom, cfg.crystal, cfg.filters)

    def test_pump_waist_from_geometry(self, degenerate, monkeypatch):
        # the pump waist stays at the configured one and the collection
        # waist is the ratio times it
        cfg = degenerate
        seen = []

        def fake_metrics(geom, *args, **kwargs):
            seen.append((geom.W0p, geom.W0s))
            return SimpleNamespace(pair_rate_R=1.0, heralding_eta=0.9, purity_P=0.9)

        monkeypatch.setattr(sweep, "compute_metrics", fake_metrics)
        res = metrics_vs_waist_ratio((0.5, 1.0), 2, cfg.geom, cfg.crystal, cfg.filters)
        assert [row.swept_value for row in res.rows] == [0.5, 1.0]
        assert seen == [(cfg.geom.W0p, 0.5 * cfg.geom.W0p), (cfg.geom.W0p, cfg.geom.W0p)]


class TestGaussianModelSelfConsistency:
    @pytest.mark.parametrize("conv", ["paper_literal", "consistent"])
    def test_closed_form_waist_maximizes_model_purity(self, degenerate, conv, written_out_delta_terms):
        # the model purity is (1 - mu)/(1 + mu) of the oracle's coefficients
        cfg = degenerate
        w_star = purity_waist(cfg.geom.W0p, cfg.geom, cfg.crystal, alpha_convention=conv)
        scan = np.linspace(0.7 * w_star, 1.3 * w_star, 241)
        purities = [
            written_out_delta_terms(replace(cfg.geom, W0s=w), cfg.crystal, conv).purity for w in scan
        ]
        best = scan[int(np.argmax(purities))]
        assert abs(best - w_star) <= scan[1] - scan[0]
        assert max(purities) == pytest.approx(1.0, abs=1e-10)


@pytest.fixture(scope="module")
def result(degenerate):
    cfg = degenerate
    return optimize(cfg.geom, cfg.crystal, cfg.filters)


class TestOptimize:
    def test_pump_waist_stage(self, result, degenerate):
        assert 310e-6 * 0.9 <= result.W0p_star <= 310e-6 * 1.1

    def test_closed_form_stage(self, result, degenerate):
        cfg = degenerate
        want = purity_waist(result.W0p_star, cfg.geom, cfg.crystal, "paper_literal")
        assert result.W0s_closed_form == pytest.approx(want, rel=1e-12)

    def test_refined_stage_improves_purity(self, result):
        p_closed = result.metrics["at_W0s_closed_form"].purity_P
        p_star = result.metrics["at_W0s_purity_star"].purity_P
        assert p_star >= p_closed - 1e-9
        assert result.W0s_purity_star < result.W0s_closed_form

    def test_no_crossing_in_window(self, result):
        # the heralding ratio stays below the SVD purity across the scan
        # window for this geometry, so no crossing is reported
        assert result.W0s_intersection is None
        assert "at_W0s_intersection" not in result.metrics

    def test_coarse_scan_reads_the_scan_purities(self, degenerate, monkeypatch):
        # the 11 coarse eta - P points are every 12th of the 121 scan points,
        # whose purities the scan already has: 121 scan and 2 report purities
        cfg = degenerate
        calls = []
        purity = metrics.jsa_purity

        def counted(geom, *args):
            calls.append(geom.W0s)
            return purity(geom, *args)

        monkeypatch.setattr(sweep, "jsa_purity", counted)
        monkeypatch.setattr(metrics, "jsa_purity", counted)
        optimize(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert len(calls) == 123

    def test_crossing_search_bisects_between_coarse_points(self, result, degenerate, monkeypatch):
        # eta is stubbed as the SVD purity plus a line through W_x, so eta - P
        # changes sign once in the scan window, between two coarse points
        cfg = degenerate
        cf = result.W0s_closed_form
        W_x = 0.83 * cf

        def stub(geom, crystal, filters, numerics):
            P = metrics.jsa_purity(geom, crystal, filters, numerics)
            return None, None, None, P + (geom.W0s - W_x) / cf

        monkeypatch.setattr(sweep, "heralding_rates", stub)
        got = optimize(cfg.geom, cfg.crystal, cfg.filters)
        assert got.W0s_closed_form == cf
        coarse = np.linspace(0.5 * cf, 1.2 * cf, sweep._SCAN_POINTS)[
            :: (sweep._SCAN_POINTS - 1) // (sweep._ETA_COARSE_POINTS - 1)
        ]
        j = int(np.searchsorted(coarse, W_x)) - 1
        assert coarse[j] < got.W0s_intersection < coarse[j + 1]
        at = replace(cfg.geom, W0p=got.W0p_star, W0s=got.W0s_intersection)
        eta = stub(at, cfg.crystal, cfg.filters, Numerics())[3]
        assert abs(eta - metrics.jsa_purity(at, cfg.crystal, cfg.filters, Numerics())) < 1e-3
        assert "at_W0s_intersection" in got.metrics

    @pytest.mark.xfail(
        reason="published refined collection waist of about 280 um and an "
        "efficiency/purity crossing near 145 um are not reproduced; this "
        "implementation refines to about 221 um with no crossing in the "
        "window (see decisions ledger)",
        strict=True,
    )
    def test_published_refined_waist(self, result):
        assert result.W0s_purity_star == pytest.approx(280e-6, rel=0.05)
        assert result.W0s_intersection is not None


class TestCsv:
    def test_blank_columns(self, tmp_path):
        rows = [
            SweepRow(swept_value=3e-4, R=1.0, eta=None, purity=None),
            SweepRow(swept_value=3.5e-4, R=1.0, eta=None, purity=0.5),
            SweepRow(swept_value=4e-4, R=1.0, eta=0.9, purity=0.5),
        ]
        out = tmp_path / "sweep.csv"
        write_sweep_csv(rows, out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "swept_value,R,eta,purity"
        assert len(lines) == 4
        assert lines[1].endswith(",,")
        assert lines[2].endswith(",,5.000000000e-01")
        assert lines[3].endswith(",9.000000000e-01,5.000000000e-01")
