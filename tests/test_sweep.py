import csv
import json
import math
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from spdc_lab import cli, jsa, metrics, sweep
from spdc_lab.config import Numerics, load_config, shipped_config_path
from spdc_lab.errors import UnsatisfiableConditionError
from spdc_lab.jsa import purity_waist
from spdc_lab.metrics import heralding_rates
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
    """Replace the rate scan's pair rates by ``rate_fn(geom)`` at each waist of
    the batch geometry ``geom``, all under one key, and its purity by
    STUB_PURITY."""

    def rates_by_key(geom, *args, **kwargs):
        yield None, list(range(geom.W0p.size)), np.broadcast_to(rate_fn(geom), geom.W0p.shape)

    grid = SimpleNamespace(figure=lambda *args, **kwargs: STUB_PURITY)
    monkeypatch.setattr(sweep, "pair_rates_by_key", rates_by_key)
    monkeypatch.setattr(sweep, "spectral_grid", lambda *args, **kwargs: grid)


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
            seen.extend(zip(geom.W0p, geom.W0s))
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
        # pair-rate levels 101 and 201, the purity grid is the 201 level again;
        # the 201 level is built first and the 101 level is every other point of it
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
        assert sizes == [201**2]


    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_tied_sweep_builds_each_c_once(self, name, request, monkeypatch):
        # the tie fixes C; its waists round C to a few bit patterns, but the
        # sweep keys them all on the tie's own C: one 201-point shape and one
        # purity, or one per distinct H with walk-off
        cfg = request.getfixturevalue(name)
        shapes, purities = [], []
        shape, purity = jsa.SpectralTerms.shape, jsa.purity

        def counted_shape(self, C, H):
            shapes.append(self.dky.shape[0])
            return shape(self, C, H)

        def counted_purity(matrix, decompose):
            purities.append(matrix.shape)
            return purity(matrix, decompose)

        monkeypatch.setattr(jsa.SpectralTerms, "shape", counted_shape)
        monkeypatch.setattr(jsa, "purity", counted_purity)
        for walk_off, steps in ((False, 76), (True, 12)):
            tied = sweep._tied(np.linspace(50e-6, 800e-6, steps), cfg.geom, cfg.crystal)
            g = jsa.geometry_factors(tied)
            keys = len(set(g.H.tolist())) if walk_off else 1
            assert walk_off or len(set(g.C.tolist())) > 1  # the bit patterns the key replaces
            shapes.clear()
            purities.clear()
            monkeypatch.setattr(jsa, "_slot", (None, {}))
            result = rate_vs_pump_waist(
                (50e-6, 800e-6), steps, cfg.geom, cfg.crystal, cfg.filters,
                Numerics(walk_off_enabled=walk_off),
            )
            assert len(result.rows) == tied.W0p.size
            assert shapes.count(201) == len(purities) == keys
            assert purities == [(201, 201)] * keys
        # optimize's stage 1 keys its golden-section waists on the tie's C too
        stage1 = []
        golden = sweep.golden_section_maximize

        def counted_golden(*args, **kwargs):
            found = golden(*args, **kwargs)
            stage1.append(shapes.count(201))
            return found

        monkeypatch.setattr(sweep, "golden_section_maximize", counted_golden)
        shapes.clear()
        monkeypatch.setattr(jsa, "_slot", (None, {}))
        sweep.optimize(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert stage1 == [1]

    @pytest.mark.parametrize("walk_off, steps", [(False, 40), (True, 8)])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_rows_match_one_waist_calls(self, name, walk_off, steps, request):
        # keyed on the tie's C, each row still gives the pair rate and purity
        # of its own tied geometry
        cfg = request.getfixturevalue(name)
        numerics = Numerics(walk_off_enabled=walk_off)
        result = rate_vs_pump_waist(
            (50e-6, 800e-6), steps, cfg.geom, cfg.crystal, cfg.filters, numerics
        )
        assert len(result.rows) > steps // 2
        for row in result.rows:
            geom = sweep._tied(row.swept_value, cfg.geom, cfg.crystal)
            R = metrics.pair_rate(geom, cfg.crystal, cfg.filters, numerics)
            P = metrics.jsa_purity(geom, cfg.crystal, cfg.filters, numerics)
            assert abs(row.R / R - 1) <= 1e-14 and abs(row.purity / P - 1) <= 1e-14


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


def _refined_purity_star(scan, purities):
    """The waist of the first maximum of ``purities`` over ``scan``, with
    optimize's quadratic refinement through it and its two neighbours."""
    k = int(np.argmax(purities))
    if not 0 < k < scan.size - 1:
        return scan[k]
    y0, y1, y2 = purities[k - 1], purities[k], purities[k + 1]
    denom = y0 - 2 * y1 + y2
    shift = 0.5 * (y0 - y2) / denom if denom < 0 else 0.0
    return scan[k] + min(max(shift, -1.0), 1.0) * (scan[1] - scan[0])


def _exhaustive_purity_star(got, cfg, numerics):
    """The refined purity waist from the purity at every one of the 121 scan
    waists around ``got``'s closed-form waist, at its pump waist."""
    cf = got.W0s_closed_form
    scan = np.linspace(0.5 * cf, 1.2 * cf, 121)
    at = replace(cfg.geom, W0p=got.W0p_star, W0s=scan)
    return _refined_purity_star(scan, metrics.jsa_purity(at, cfg.crystal, cfg.filters, numerics))


# (shipped config, {section: {key: value}}) inside the benchmark's design box
BOX_DESIGNS = [
    ("degenerate_810", {"crystal": {"length_um": 600.0}, "collection": {"cut_detuning_deg": 1.2},
                        "filters": {"signal_halfwidth_thz": 4.0, "idler_halfwidth_thz": 6.5},
                        "pump": {"filter_halfwidth_thz": 8.0}}),
    ("degenerate_810", {"crystal": {"length_um": 350.0}, "collection": {"cut_detuning_deg": 2.0},
                        "filters": {"signal_halfwidth_thz": 6.0, "idler_halfwidth_thz": 4.5},
                        "pump": {"filter_halfwidth_thz": 12.0}}),
    ("nondegenerate_850_609", {"crystal": {"length_um": 520.0},
                               "collection": {"cut_detuning_deg": 1.8, "signal_wavelength_nm": 870.0},
                               "filters": {"signal_halfwidth_thz": 6.5, "idler_halfwidth_thz": 4.0},
                               "pump": {"filter_halfwidth_thz": 13.0}}),
    ("nondegenerate_850_609", {"crystal": {"length_um": 380.0},
                               "collection": {"cut_detuning_deg": 1.3, "signal_wavelength_nm": 832.0},
                               "filters": {"signal_halfwidth_thz": 4.2, "idler_halfwidth_thz": 5.8},
                               "pump": {"filter_halfwidth_thz": 8.4}}),
]


def _design_config(design, tmp_path):
    name, fields = design
    with open(shipped_config_path(name)) as fh:
        raw = json.load(fh)
    for section, values in fields.items():
        raw[section].update(values)
    path = tmp_path / "design.json"
    path.write_text(json.dumps(raw))
    return load_config(path)


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
        # the 11 coarse eta - P points are every 12th of the 121 scan points:
        # each takes one purity and then its margin at that purity; the climb
        # from the first coarse maximum takes at most |k - top| + 2 other scan
        # purities, k the maximum's index, and each of the 2 reports one
        cfg = degenerate
        calls = []
        purity, margin = metrics.jsa_purity, sweep.heralding_margin

        def counted(geom, *args):
            P = purity(geom, *args)
            calls.append(("P", geom.W0s, P))
            return P

        def counted_margin(geom, crystal, filters, numerics, P):
            calls.append(("margin", geom.W0s, P))
            return margin(geom, crystal, filters, numerics, P)

        monkeypatch.setattr(sweep, "jsa_purity", counted)
        monkeypatch.setattr(metrics, "jsa_purity", counted)
        monkeypatch.setattr(sweep, "heralding_margin", counted_margin)
        got = optimize(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        cf = got.W0s_closed_form
        scan = np.linspace(0.5 * cf, 1.2 * cf, sweep._SCAN_POINTS)
        stride = (sweep._SCAN_POINTS - 1) // (sweep._ETA_COARSE_POINTS - 1)
        assert all(np.ndim(w) == 0 for _, w, _ in calls)
        coarse, climb, reports = calls[:22], calls[22:-2], calls[-2:]
        assert [kind for kind, _, _ in coarse] == ["P", "margin"] * 11
        assert [w for _, w, _ in coarse] == np.repeat(scan[::stride], 2).tolist()
        assert all(coarse[j][2] == coarse[j + 1][2] for j in range(0, 22, 2))
        purities = np.full(sweep._SCAN_POINTS, -math.inf)
        purities[::stride] = [p for _, _, p in coarse[::2]]
        top = stride * int(np.argmax(purities[::stride]))
        index = [int(np.flatnonzero(scan == w)[0]) for _, w, _ in climb]
        # the climb takes each of its waists once, and none of the coarse ones
        assert all(kind == "P" for kind, _, _ in climb) and len(set(index)) == len(index)
        assert all(j % stride for j in index)
        purities[index] = [p for _, _, p in climb]
        k = int(np.argmax(purities))
        assert 0 < len(climb) <= abs(k - top) + 2
        assert [(kind, w) for kind, w, _ in reports] == [("P", cf), ("P", got.W0s_purity_star)]

    def test_crossing_search_bisects_between_coarse_points(self, result, degenerate, monkeypatch):
        # eta is stubbed as the SVD purity plus a line through W_x, so eta - P
        # changes sign once in the scan window, between two coarse points
        cfg = degenerate
        cf = result.W0s_closed_form
        W_x = 0.83 * cf

        def stub(geom, crystal, filters, numerics):
            P = metrics.jsa_purity(geom, crystal, filters, numerics)
            return None, None, None, P + (geom.W0s - W_x) / cf

        def margin_stub(geom, crystal, filters, numerics, P):
            return stub(geom, crystal, filters, numerics)[3] - P

        # the coarse points read heralding_margin, the bisection heralding_rates
        monkeypatch.setattr(sweep, "heralding_margin", margin_stub)
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

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_purity_star_matches_exhaustive_scan_on_shipped_configs(self, name, walk_off, request):
        cfg = request.getfixturevalue(name)
        numerics = replace(cfg.numerics, walk_off_enabled=walk_off)
        got = optimize(cfg.geom, cfg.crystal, cfg.filters, numerics)
        assert got.W0s_purity_star == _exhaustive_purity_star(got, cfg, numerics)

    @pytest.mark.parametrize(
        "design",
        [pytest.param(d, id=str(j)) for j, d in enumerate(BOX_DESIGNS)]
        + [pytest.param((seed, j), id="seed%d-%d" % (seed, j)) for seed in (0, 1) for j in range(3)],
    )
    def test_purity_star_matches_exhaustive_scan_in_design_box(self, design, tmp_path, perfbench_config):
        # designs inside the box the benchmark draws from, away from the
        # shipped ones: crystal length, cut detuning, filters and signal; and
        # the designs of the benchmark's optimize batches on seeds 0 and 1
        if isinstance(design[0], str):
            cfg = _design_config(design, tmp_path)
        else:
            cfg = perfbench_config(design[0], 3, design[1])
        got = optimize(cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        assert got.W0s_purity_star == _exhaustive_purity_star(got, cfg, cfg.numerics)

    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_stage3_builds_one_shape_per_figure_key(self, name, walk_off, request, monkeypatch):
        # from stage 3's first purity to its first report, each (grid, figure
        # key) shape is built once: a coarse margin's pair rate reads the shape
        # its purity has just left in the purity grid's figure slot, so the
        # purity grid builds one shape per stage-3 purity
        cfg = request.getfixturevalue(name)
        numerics = replace(cfg.numerics, walk_off_enabled=walk_off)
        shape, purity, report = jsa.SpectralTerms.shape, sweep.jsa_purity, sweep.compute_metrics
        stage3, built, purities = [False], [], []

        def counted_shape(self, C, H):
            if stage3[0]:
                built.append((self.dky.shape[0], C, H))
            return shape(self, C, H)

        def counted_purity(geom, *args):
            stage3[0] = True
            purities.append(geom.W0s)
            return purity(geom, *args)

        def first_report(*args):
            stage3[0] = False
            return report(*args)

        monkeypatch.setattr(jsa.SpectralTerms, "shape", counted_shape)
        monkeypatch.setattr(sweep, "jsa_purity", counted_purity)
        monkeypatch.setattr(sweep, "compute_metrics", first_report)
        got = optimize(cfg.geom, cfg.crystal, cfg.filters, numerics)
        assert got.W0s_intersection is None
        assert len(built) == len(set(built))
        assert [n for n, _, _ in built].count(numerics.grid_resolution) == len(purities)
        assert 13 <= len(purities) <= 17

    @pytest.mark.parametrize(
        "peak, climb",
        [(-5.0, [1]), (0.4, [1]), (17.9, [11, *range(13, 20)]), (30.37, [*range(35, 28, -1)]),
         (60.0, [59, 61]), (119.6, [119]), (125.0, [119])],
        ids=["beyond_low_edge", "at_low_edge", "near_coarse_midpoint", "between_coarse_points",
             "on_coarse_point", "at_high_edge", "beyond_high_edge"],
    )
    def test_stubbed_purity_maximum_anywhere_in_scan(self, result, degenerate, monkeypatch, peak, climb):
        # a parabola in W0s peaking at scan index ``peak``, flat enough that
        # eta stays below it, so no crossing search runs; stages 1 and 2 do
        # not read the purity, so the scan is the one of ``result``. Each
        # coarse waist takes its purity, then its margin; the climb from the
        # first coarse maximum top then takes the scan indices ``climb``, at
        # most |k - top| + 2 of them for the maximum's index k (fewer at an edge)
        cfg = degenerate
        cf = result.W0s_closed_form
        scan = np.linspace(0.5 * cf, 1.2 * cf, sweep._SCAN_POINTS)
        stride = (sweep._SCAN_POINTS - 1) // (sweep._ETA_COARSE_POINTS - 1)
        at = scan[0] + peak * (scan[1] - scan[0])
        calls, margin = [], sweep.heralding_margin

        def parabola(W0s):
            return 1.0 - 1e-4 * ((W0s - at) / cf) ** 2

        def stub(geom, *args):
            calls.append(("P", int(np.flatnonzero(scan == geom.W0s)[0])))
            return parabola(geom.W0s)

        def counted_margin(geom, *args):
            calls.append(("margin", int(np.flatnonzero(scan == geom.W0s)[0])))
            return margin(geom, *args)

        monkeypatch.setattr(sweep, "jsa_purity", stub)
        monkeypatch.setattr(sweep, "heralding_margin", counted_margin)
        got = optimize(cfg.geom, cfg.crystal, cfg.filters)
        assert got.W0s_closed_form == cf
        coarse = [(kind, j) for j in range(0, sweep._SCAN_POINTS, stride) for kind in ("P", "margin")]
        assert calls == coarse + [("P", j) for j in climb]
        purities = parabola(scan)
        top, k = stride * int(np.argmax(purities[::stride])), int(np.argmax(purities))
        assert len(climb) <= abs(k - top) + 2
        assert got.W0s_purity_star == _refined_purity_star(scan, purities)
        assert got.W0s_intersection is None

    @pytest.mark.xfail(
        reason="published refined collection waist of about 280 um and an "
        "efficiency/purity crossing near 145 um are not reproduced; this "
        "implementation refines to about 221 um with no crossing in the "
        "window (see README, Tests)",
        strict=True,
    )
    def test_published_refined_waist(self, result):
        assert result.W0s_purity_star == pytest.approx(280e-6, rel=0.05)
        assert result.W0s_intersection is not None


def _coarse_margins(cfg, numerics, monkeypatch):
    """(geometry, P, margin, last shell) at each coarse eta - P point of
    ``optimize`` on ``cfg``: what heralding_margin returned there and the
    highest shell either of its singles ladders summed."""
    points, margin, shells = [], metrics.heralding_margin, metrics._singles_shells

    def recorded(geom, crystal, filters, numerics, P):
        last = []

        def counted(*args):
            for k, step in enumerate(shells(*args)):
                last.append(k)
                yield step

        with monkeypatch.context() as m:
            m.setattr(metrics, "_singles_shells", counted)
            points.append((geom, P, margin(geom, crystal, filters, numerics, P), max(last)))
        return points[-1][2]

    monkeypatch.setattr(sweep, "heralding_margin", recorded)
    optimize(cfg.geom, cfg.crystal, cfg.filters, numerics)
    assert len(points) == sweep._ETA_COARSE_POINTS
    return points


def _assert_margin_signs(cfg, numerics, points):
    # the sign optimize reads equals that of eta - P from the full ladders;
    # a certified margin is the bound minus P, at least eta - P, and an
    # uncertified one is eta - P itself
    for geom, P, margin, _ in points:
        eta = heralding_rates(geom, cfg.crystal, cfg.filters, numerics)[3]
        assert np.sign(margin) == np.sign(eta - P) != 0
        assert margin >= eta - P and (margin < 0 or margin == eta - P)


class TestCoarseMargin:
    @pytest.mark.parametrize("walk_off", [False, True])
    @pytest.mark.parametrize("name", ["degenerate", "nondegenerate"])
    def test_signs_and_shells_on_shipped_configs(self, name, walk_off, request, monkeypatch):
        cfg = request.getfixturevalue(name)
        numerics = replace(cfg.numerics, walk_off_enabled=walk_off)
        points = _coarse_margins(cfg, numerics, monkeypatch)
        _assert_margin_signs(cfg, numerics, points)
        # eta < P at every coarse point, proven by shell 1 of both ladders,
        # where the full ladders run to shells 3-7
        assert all(margin < 0 and last <= 1 for _, _, margin, last in points)

    @pytest.mark.parametrize("design", BOX_DESIGNS, ids=range(len(BOX_DESIGNS)))
    def test_signs_in_design_box(self, design, tmp_path, monkeypatch):
        cfg = _design_config(design, tmp_path)
        _assert_margin_signs(cfg, cfg.numerics, _coarse_margins(cfg, cfg.numerics, monkeypatch))

    def test_eta_above_1_still_fails(self, tmp_path, capsys):
        # the bound is at least eta > 1 >= P, so the point where eta > 1 is
        # never certified and its ConsistencyError is raised
        root = Path(cli.__file__).parents[2]
        config = root / "perfbench" / "baseline" / "eta_above_1.json"
        code = cli.main(["optimize", "--config", str(config), "--out", str(tmp_path)])
        assert code == 2
        assert json.loads(capsys.readouterr().err) == {
            "error": "mode-sum truncation inconsistency: eta = 1.006505 > 1",
            "type": "ConsistencyError",
        }


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

    def test_bytes_match_csv_writer(self, tmp_path):
        # every pattern of blank columns, signs and three-digit exponents
        values = [3e-4, -1.5e-300, 12.25, 7.5e250]
        rows = [
            SweepRow(values[j % 4], -values[j % 3], *(0.5 ** j if (j >> b) & 1 else None for b in (0, 1)))
            for j in range(8)
        ]
        out, ref = tmp_path / "sweep.csv", tmp_path / "reference.csv"
        write_sweep_csv(rows, out)
        with open(ref, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["swept_value", "R", "eta", "purity"])
            for row in rows:
                cells = (row.swept_value, row.R, row.eta, row.purity)
                writer.writerow(["" if v is None else "%.9e" % v for v in cells])
        assert out.read_bytes() == ref.read_bytes()
        assert out.read_bytes().count(b"\r\n") == 9
