import csv
import gc
import json
import math
import os
import platform
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import spdc_lab.metrics
from spdc_lab import cli
from spdc_lab.cli import build_parser, main
from spdc_lab.config import Numerics, load_config, shipped_config_path
from spdc_lab.errors import ConfigError, ConvergenceError
from spdc_lab.metrics import compute_metrics, pair_rate
from spdc_lab.sweep import optimize

# JSON values of every type but number
JSON_JUNK = st.one_of(
    st.booleans(),
    st.text(max_size=8),
    st.none(),
    st.lists(st.integers(), max_size=3),
    st.dictionaries(st.text(max_size=4), st.integers(), max_size=2),
)


def read_shipped(name):
    with open(shipped_config_path(name)) as fh:
        return json.load(fh)


def dump(doc, tmp_path, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestLoadConfig:
    def test_degenerate_shipped(self, degenerate):
        cfg = degenerate
        res = cfg.resolved
        assert res["pump"]["wavelength_nm"] == pytest.approx(405.0)
        assert res["collection"]["idler_wavelength_nm"] == pytest.approx(810.0)
        assert cfg.geom.theta_s == pytest.approx(cfg.geom.theta_i, rel=1e-12)
        assert res["crystal"]["cut_angle_deg"] == pytest.approx(
            res["crystal"]["collinear_cut_angle_deg"] + 1.5, abs=1e-9
        )
        assert cfg.numerics.grid_resolution == 201

    def test_nondegenerate_idler_derived(self, nondegenerate):
        res = nondegenerate.resolved
        # energy conservation fixes the idler from the 355 nm pump and the
        # 850 nm signal
        assert res["collection"]["idler_wavelength_nm"] == pytest.approx(
            609.596, abs=0.1
        )
        lam_p = res["pump"]["wavelength_nm"]
        lam_s = res["collection"]["signal_wavelength_nm"]
        lam_i = res["collection"]["idler_wavelength_nm"]
        assert 1.0 / lam_p == pytest.approx(1.0 / lam_s + 1.0 / lam_i, rel=1e-9)

    def test_degenerate_flag_defaults_idler(self, tmp_path):
        doc = read_shipped("degenerate_810")
        assert doc["collection"].get("degenerate") is True
        doc["collection"].pop("idler_wavelength_nm", None)
        cfg = load_config(dump(doc, tmp_path))
        assert cfg.geom.idler.central_wavelength == pytest.approx(810e-9)

    @pytest.mark.parametrize("section", ["pump", "collection"])
    @pytest.mark.parametrize("waist_um", [1.0, 1e6])
    def test_waist_range_ends_accepted(self, tmp_path, section, waist_um):
        doc = read_shipped("degenerate_810")
        doc[section]["waist_um"] = waist_um
        cfg = load_config(dump(doc, tmp_path))
        assert cfg.resolved[section]["waist_um"] == pytest.approx(waist_um, rel=1e-12)

    @pytest.mark.parametrize("convention", ["angular", "ordinary"])
    @pytest.mark.parametrize("bandwidth_thz", [1e-6, 1e6])
    def test_bandwidth_range_ends_accepted(self, tmp_path, convention, bandwidth_thz):
        doc = read_shipped("degenerate_810")
        doc["pump"]["bandwidth_thz"] = bandwidth_thz
        doc["numerics"]["frequency_convention"] = convention
        B_p = load_config(dump(doc, tmp_path)).geom.pump_bandwidth_Bp
        assert all(0.0 < x < math.inf for x in (B_p, B_p**2, 1.0 / B_p**2))

    def test_cut_beyond_quadrant_is_config_error(self, tmp_path):
        # 130 deg past the collinear angle the index ellipse folds back below
        # the noncollinear threshold, so the angles are zero but the cut is not
        # in (0, 90) deg
        doc = read_shipped("degenerate_810")
        doc["collection"]["cut_detuning_deg"] = 130.0
        with pytest.warns(UserWarning, match="noncollinear threshold"):
            with pytest.raises(ConfigError, match="^collection.cut_detuning_deg: "):
                load_config(dump(doc, tmp_path))

    def test_energy_violation_suggests_value(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["collection"]["degenerate"] = False
        doc["collection"]["signal_wavelength_nm"] = 850.0
        doc["collection"]["idler_wavelength_nm"] = 700.0
        with pytest.raises(ConfigError, match="energy-conserving value is 773.59"):
            load_config(dump(doc, tmp_path))

    def test_degenerate_flag_contradicts_another_idler(self, tmp_path):
        # the idler conserves energy but is not the signal, so the flag cannot hold
        doc = read_shipped("degenerate_810")
        assert doc["collection"]["degenerate"] is True and doc["pump"]["wavelength_nm"] == 405.0
        doc["collection"]["signal_wavelength_nm"] = 800.0
        doc["collection"]["idler_wavelength_nm"] = 820.253
        with pytest.raises(ConfigError, match="^collection.degenerate: "):
            load_config(dump(doc, tmp_path))
        doc["collection"]["degenerate"] = False
        idler = load_config(dump(doc, tmp_path)).geom.idler
        assert idler.central_wavelength == pytest.approx(820.253e-9, rel=1e-12)

    @pytest.mark.parametrize("idler_nm", [None, 700.0])
    def test_signal_shorter_than_pump_has_no_idler(self, tmp_path, idler_nm):
        # 1/lambda_p - 1/lambda_s <= 0: no positive idler wavelength conserves
        # energy, so the error offers none
        doc = read_shipped("nondegenerate_850_609")
        doc["collection"]["signal_wavelength_nm"] = 300.0
        if idler_nm is not None:
            doc["collection"]["idler_wavelength_nm"] = idler_nm
        with pytest.raises(ConfigError) as info:
            load_config(dump(doc, tmp_path))
        msg = str(info.value)
        assert msg.startswith("collection.signal_wavelength_nm: no energy-conserving idler")
        assert "energy-conserving value" not in msg

    def test_missing_section(self, tmp_path):
        doc = read_shipped("degenerate_810")
        del doc["pump"]
        with pytest.raises(ConfigError, match="pump: missing required section"):
            load_config(dump(doc, tmp_path))

    def test_missing_field_path(self, tmp_path):
        doc = read_shipped("degenerate_810")
        del doc["pump"]["waist_um"]
        with pytest.raises(ConfigError, match="pump.waist_um"):
            load_config(dump(doc, tmp_path))

    def test_missing_crystal_name(self, tmp_path):
        doc = read_shipped("degenerate_810")
        del doc["crystal"]["name"]
        with pytest.raises(ConfigError, match="^crystal.name: missing required field$"):
            load_config(dump(doc, tmp_path))

    def test_negative_value(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["pump"]["waist_um"] = -5.0
        with pytest.raises(ConfigError, match="pump.waist_um: must be a positive"):
            load_config(dump(doc, tmp_path))

    def test_unknown_numerics_field(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["numerics"]["grid_res"] = 100
        with pytest.raises(ConfigError, match="numerics.grid_res: unknown field"):
            load_config(dump(doc, tmp_path))

    def test_bad_enum(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["numerics"]["dispersion_mode"] = "quadratic"
        with pytest.raises(ConfigError, match="numerics.dispersion_mode"):
            load_config(dump(doc, tmp_path))

    def test_exact_is_the_only_dispersion_mode(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["numerics"]["dispersion_mode"] = "linear"
        with pytest.raises(ConfigError, match="^numerics.dispersion_mode: must be one of exact$"):
            load_config(dump(doc, tmp_path))

    def test_grid_resolution_floor(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["numerics"]["grid_resolution"] = 32
        with pytest.raises(ConfigError, match="numerics.grid_resolution"):
            load_config(dump(doc, tmp_path))

    def test_document_must_be_an_object(self, tmp_path):
        with pytest.raises(ConfigError, match="^configuration: must be a JSON object"):
            load_config(dump([read_shipped("degenerate_810")], tmp_path))

    def test_numerics_is_checked_on_construction(self):
        assert Numerics() == load_config(shipped_config_path("degenerate_810")).numerics
        with pytest.raises(ConfigError, match="^numerics.truncation_max_order:"):
            Numerics(truncation_max_order=3)
        with pytest.raises(ConfigError, match="^numerics.decompose:"):
            Numerics(decompose="svd")

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_fuzzed_field_loads_or_names_it(self, tmp_path_factory, data):
        doc = read_shipped("degenerate_810")
        section = data.draw(st.sampled_from([None, *doc]), label="section")
        parent = doc if section is None else doc[section]
        if section is not None and data.draw(st.booleans(), label="replace leaf"):
            key = data.draw(st.sampled_from(sorted(parent)), label="leaf")
        else:
            # the prefix keeps the added sibling clear of every known key
            key = "x-" + data.draw(st.text(max_size=6), label="sibling")
        parent[key] = data.draw(JSON_JUNK, label="value")
        field = key if section is None else "%s.%s" % (section, key)
        path = tmp_path_factory.getbasetemp() / "fuzzed_config.json"
        path.write_text(json.dumps(doc))
        try:
            load_config(str(path))
        except ConfigError as exc:
            assert str(exc).startswith(field + ":"), str(exc)
        else:
            assert not key.startswith("x-"), "unknown field %s loaded" % field

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError, match="not valid JSON"):
            load_config(str(path))

    def test_pump_filter_default(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["pump"].pop("filter_halfwidth_thz", None)
        cfg = load_config(dump(doc, tmp_path))
        assert cfg.filters.pump.half_width == pytest.approx(
            2.0 * cfg.filters.signal.half_width, rel=1e-12
        )

    def test_frequency_conventions(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["numerics"]["frequency_convention"] = "ordinary"
        cfg_ord = load_config(dump(doc, tmp_path, "ord.json"))
        doc["numerics"]["frequency_convention"] = "angular"
        cfg_ang = load_config(dump(doc, tmp_path, "ang.json"))
        assert cfg_ord.geom.pump_bandwidth_Bp == pytest.approx(
            2 * math.pi * cfg_ang.geom.pump_bandwidth_Bp, rel=1e-12
        )


def cheap_config(tmp_path):
    doc = read_shipped("degenerate_810")
    doc["numerics"]["grid_resolution"] = 64
    return dump(doc, tmp_path, "cheap.json")


def run_cli(command, config, out, *extra):
    return main([command, "--config", config, "--out", str(out), *extra])


class TestCliCommands:
    def test_metrics(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "m"
        assert run_cli("metrics", config, out) == 0
        doc = json.loads((out / "metrics_report.json").read_text())
        assert doc["pair_rate_R_per_s_mW"] == pytest.approx(11.0404, rel=1e-3)
        assert doc["heralding_eta"] == pytest.approx(0.9823, abs=1e-3)
        assert doc["config"]["pump"]["wavelength_nm"] == pytest.approx(405.0)
        with open(out / "metrics_summary.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["eta"]) == pytest.approx(doc["heralding_eta"], rel=1e-8)

    def test_jsa(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "j"
        assert run_cli("jsa", config, out) == 0
        doc = json.loads((out / "jsa_grid.json").read_text())
        assert len(doc["omega_s_samples"]) == 64
        assert len(doc["amplitude_re"]) == 64
        with open(out / "jsa_grid.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 64 * 64
        resolved = json.loads((out / "resolved_config.json").read_text())
        assert resolved["config"]["numerics"]["grid_resolution"] == 64

    def test_grid_resolution_override(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "j2"
        assert run_cli("jsa", config, out, "--grid-resolution", "65") == 0
        doc = json.loads((out / "jsa_grid.json").read_text())
        assert len(doc["omega_s_samples"]) == 65

    def test_sweep_rate_single_row(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "sr"
        code = run_cli(
            "sweep-rate", config, out,
            "--sweep-min", "300", "--sweep-max", "320", "--steps", "1",
        )
        assert code == 0
        with open(out / "sweep_rate.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1
        assert float(rows[0]["swept_value"]) == pytest.approx(300e-6)
        assert float(rows[0]["purity"]) > 0.99
        doc = json.loads((out / "sweep_rate.json").read_text())
        assert doc["argmax_W0p_um"] == pytest.approx(300.0)
        assert doc["argmax_index"] == 0

    def test_sweep_ratio(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "sq"
        code = run_cli(
            "sweep-ratio", config, out,
            "--sweep-min", "0.8", "--sweep-max", "1.0", "--steps", "2",
        )
        assert code == 0
        with open(out / "sweep_ratio.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        for row in rows:
            assert 0.8 <= float(row["eta"]) <= 1.0
            assert float(row["purity"]) > 0.99

    def test_dispersion_report(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "d"
        assert run_cli("dispersion-report", config, out) == 0
        doc = json.loads((out / "dispersion_report.json").read_text())
        assert doc["collinear_cut_angle_deg"] == pytest.approx(28.8159, abs=1e-3)
        assert doc["external_full_angle_deg"] == pytest.approx(11.385, abs=1e-2)
        assert doc["pump_walk_off_deg"] == pytest.approx(3.9599, abs=2e-3)
        assert doc["d_eff_pm_per_V"] == pytest.approx(
            2.6 * math.cos(math.radians(doc["cut_angle_deg"]))
            - 0.04 * math.sin(math.radians(doc["cut_angle_deg"])),
            rel=1e-6,
        )
        with open(out / "dispersion_report.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["role"] for r in rows] == ["pump", "signal", "idler"]

    def test_optimize(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "o"
        assert run_cli("optimize", config, out) == 0
        doc = json.loads((out / "optimization.json").read_text())
        assert 279.0 <= doc["W0p_star_um"] <= 341.0
        assert doc["W0s_closed_form_um"] == pytest.approx(237.5, abs=2.0)
        assert doc["intersection_found"] is False
        assert doc["metrics"]["at_W0s_purity_star"]["purity_P"] > 0.999

    def test_determinism(self, tmp_path):
        config = cheap_config(tmp_path)
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        assert run_cli("metrics", config, out1) == 0
        assert run_cli("metrics", config, out2) == 0
        for name in ("metrics_report.json", "metrics_summary.csv"):
            assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


class TestCliErrors:
    def test_bad_config_exit_2_and_error_json(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        out = tmp_path / "err"
        assert main(["metrics", "--config", str(bad), "--out", str(out)]) == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["type"] == "ConfigError"
        stderr = capsys.readouterr().err
        assert json.loads(stderr.strip())["type"] == "ConfigError"

    def test_unsatisfiable_sweep_exit_2(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "err2"
        code = run_cli(
            "sweep-rate", config, out,
            "--sweep-min", "1", "--sweep-max", "3", "--steps", "3",
        )
        assert code == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["type"] == "UnsatisfiableConditionError"

    @pytest.mark.parametrize(
        "command, extra, library_arg",
        [
            ("sweep-rate", ("--sweep-min", "0"), "waist_range"),
            ("sweep-rate", ("--steps", "0"), "steps"),
            ("sweep-ratio", ("--steps", "0"), "steps"),
            ("sweep-rate", ("--sweep-min", "900"), "waist_range"),
            # one above the ceiling, so a missing check runs a finite sweep
            ("sweep-ratio", ("--steps", str(cli._STEPS_RANGE[1] + 1)), "steps"),
        ],
    )
    def test_explicit_zero_is_not_a_default(self, tmp_path, command, extra, library_arg):
        config = cheap_config(tmp_path)
        out = tmp_path / "zero"
        assert run_cli(command, config, out, *extra) == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["type"] == "ConfigError"
        # the error names the flag, not the library argument it feeds
        assert doc["error"].startswith(extra[0])
        assert "%s must" % library_arg not in doc["error"]

    @pytest.mark.parametrize(
        "command, extra, flag",
        [
            # a ceiling of 1e300 um passed the bounds check and wrote R = 0
            ("sweep-rate", ("--sweep-min", "100", "--sweep-max", "1e300"), "--sweep-max"),
            ("sweep-rate", ("--sweep-min", "0.5", "--sweep-max", "3"), "--sweep-min"),
            # the ratio bounds times the 310 um pump waist: 0.31 um and 3.1e6 um
            ("sweep-ratio", ("--sweep-min", "1e-3", "--sweep-max", "1"), "--sweep-min"),
            ("sweep-ratio", ("--sweep-min", "0.5", "--sweep-max", "1e4"), "--sweep-max"),
        ],
    )
    def test_sweep_waist_outside_range_exit_2(self, tmp_path, command, extra, flag):
        config = cheap_config(tmp_path)
        out = tmp_path / "range"
        assert run_cli(command, config, out, *extra, "--steps", "3") == 2
        doc = json.loads((out / "error.json").read_text())
        assert doc["type"] == "ConfigError"
        assert doc["error"].startswith(flag + ":")
        assert not (out / command.replace("-", "_")).with_suffix(".csv").exists()

    @pytest.mark.parametrize(
        "keys, value, field",
        [
            (("numerics", "rate_resolution"), 1.5, "numerics.rate_resolution"),
            (("numerics", "rate_resolution"), True, "numerics.rate_resolution"),
            (("numerics", "singles_resolution"), 0, "numerics.singles_resolution"),
            (("numerics", "walk_off_enabled"), "no", "numerics.walk_off_enabled"),
            (("pump",), 5, "pump"),
            (("filters",), [1], "filters"),
            (("pump", "filter_halfwith_thz"), 10.0, "pump.filter_halfwith_thz"),
            (("numeric",), {"grid_resolution": 101}, "numeric"),
            (("pump", "waist_um"), True, "pump.waist_um"),
            (("crystal", "name"), ["bbo"], "crystal.name"),
            (("crystal", "name"), "xyz", "crystal.name"),
            (("collection", "degenerate"), "no", "collection.degenerate"),
            (("crystal", "azimuth_phi_deg"), "5", "crystal.azimuth_phi_deg"),
            (("filters", "transmission"), 1.5, "filters.transmission"),
            (("filters", "transmission"), "full", "filters.transmission"),
            pytest.param(
                ("pump", "waist_um"), 10**400, "pump.waist_um", id="int-beyond-float-range"
            ),
            pytest.param(
                ("numerics", "rate_resolution"), 900, "numerics.rate_resolution",
                id="rate-resolution-above-ceiling",
            ),
            pytest.param(
                ("numerics", "rate_resolution"), 402, "numerics.rate_resolution",
                id="rate-resolution-without-doubling-level",
            ),
            pytest.param(
                ("numerics", "grid_resolution"), 10**400, "numerics.grid_resolution",
                id="grid-resolution-beyond-float-range",
            ),
            pytest.param(
                ("numerics", "grid_resolution"), 4002, "numerics.grid_resolution",
                id="grid-resolution-above-ceiling",
            ),
            pytest.param(
                ("numerics", "singles_resolution"), 802, "numerics.singles_resolution",
                id="singles-resolution-above-ceiling",
            ),
            pytest.param(
                ("numerics", "truncation_max_order"), 151, "numerics.truncation_max_order",
                id="truncation-above-ceiling",
            ),
            pytest.param(
                ("collection", "cut_detuning_deg"), 5, "collection.cut_detuning_deg",
                id="cut-detuning-beyond-small-angle",
            ),
            # the spectral grids span the filter windows, which here reach
            # about 1092 nm, past the 1060 nm end of the dispersion data
            pytest.param(
                ("filters", "signal_halfwidth_thz"), 600.0, "filters.signal_halfwidth_thz",
                id="signal-window-beyond-dispersion-data",
            ),
            pytest.param(
                ("filters", "idler_halfwidth_thz"), 600.0, "filters.idler_halfwidth_thz",
                id="idler-window-beyond-dispersion-data",
            ),
            # a degenerate config has no idler field: the idler is the signal,
            # so the signal is what breaks energy conservation
            pytest.param(
                ("collection", "signal_wavelength_nm"), 800.0,
                "collection.signal_wavelength_nm", id="degenerate-signal-not-twice-pump",
            ),
            # waists outside [1, 1e6] um: the extremes overflow or divide by
            # zero in the beam factors, the near ends give meaningless figures
            pytest.param(("pump", "waist_um"), 1e300, "pump.waist_um", id="pump-waist-huge"),
            pytest.param(("pump", "waist_um"), 2e6, "pump.waist_um", id="pump-waist-above-range"),
            pytest.param(("pump", "waist_um"), 1e-300, "pump.waist_um", id="pump-waist-tiny"),
            pytest.param(("pump", "waist_um"), 0.5, "pump.waist_um", id="pump-waist-below-range"),
            pytest.param(
                ("collection", "waist_um"), 1e300, "collection.waist_um", id="collection-waist-huge"
            ),
            pytest.param(
                ("collection", "waist_um"), 1e-300, "collection.waist_um",
                id="collection-waist-tiny",
            ),
            pytest.param(
                ("collection", "waist_um"), 0.5, "collection.waist_um",
                id="collection-waist-below-range",
            ),
            # bandwidths outside [1e-6, 1e6] THz: at 1e300 THz the singles
            # rates underflow to zero, at 1e-300 THz the estimates are NaN
            pytest.param(
                ("pump", "bandwidth_thz"), 1e300, "pump.bandwidth_thz", id="bandwidth-huge"
            ),
            pytest.param(
                ("pump", "bandwidth_thz"), 2e6, "pump.bandwidth_thz", id="bandwidth-above-range"
            ),
            pytest.param(
                ("pump", "bandwidth_thz"), 1e-300, "pump.bandwidth_thz", id="bandwidth-tiny"
            ),
            pytest.param(
                ("pump", "bandwidth_thz"), 5e-7, "pump.bandwidth_thz", id="bandwidth-below-range"
            ),
            # dark filters leave no pairs and no singles to rate
            pytest.param(
                ("filters", "transmission"), 0.0, "filters.transmission",
                id="zero-transmission",
            ),
        ],
    )
    def test_bad_config_field_exit_2(self, tmp_path, keys, value, field):
        doc = read_shipped("degenerate_810")
        parent = doc
        for key in keys[:-1]:
            parent = parent[key]
        parent[keys[-1]] = value
        out = tmp_path / "bad"
        assert run_cli("metrics", dump(doc, tmp_path), out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert err["error"].startswith(field + ":")

    @pytest.mark.parametrize(
        "key, value_nm, field",
        [
            ("pump", 200.0, "pump.wavelength_nm"),
            ("signal", 2000.0, "collection.signal_wavelength_nm"),
            # the derived idler, about 5.4 um, is the one outside the window
            ("signal", 380.0, "collection.idler_wavelength_nm"),
            # the +/-5 THz signal filter window reaches about 1062 nm
            ("signal", 1059.0, "filters.signal_halfwidth_thz"),
            # the pump is evaluated on the signal + idler sum band, which
            # reaches about 219.8 nm
            ("pump", 220.1, "pump.wavelength_nm"),
        ],
    )
    def test_wavelength_outside_window_exit_2(self, tmp_path, key, value_nm, field):
        doc = read_shipped("nondegenerate_850_609")
        if key == "pump":
            doc["pump"]["wavelength_nm"] = value_nm
        else:
            doc["collection"]["signal_wavelength_nm"] = value_nm
        out = tmp_path / "window"
        assert run_cli("metrics", dump(doc, tmp_path), out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert err["error"].startswith(field + ":")
        assert "dispersion-data window" in err["error"]

    def test_error_json_carries_scalar_estimates(self, tmp_path, monkeypatch):
        # arrays are left out and non-finite scalars written as null, so the
        # file is strict JSON
        def fail(*args, **kwargs):
            estimates = (1.5, np.float64(2.0), np.ones(3), 1j, math.nan, np.float64(-math.inf))
            raise ConvergenceError("did not converge", estimates=estimates)

        def reject(name):
            raise ValueError("non-standard JSON constant %s" % name)

        monkeypatch.setattr(spdc_lab.metrics, "compute_metrics", fail)  # read by `metrics` at call time
        out = tmp_path / "err"
        assert run_cli("metrics", cheap_config(tmp_path), out) == 2
        err = json.loads((out / "error.json").read_text(), parse_constant=reject)
        assert err["type"] == "ConvergenceError"
        assert err["estimates"] == [1.5, 2.0, None, None]

    def test_bad_grid_resolution_flag_exit_2(self, tmp_path):
        out = tmp_path / "bad"
        assert run_cli("jsa", cheap_config(tmp_path), out, "--grid-resolution", "10") == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert err["error"].startswith("numerics.grid_resolution:")

    def test_unwritable_out_exit_3(self, tmp_path, capsys):
        config = cheap_config(tmp_path)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        code = run_cli("metrics", config, blocker / "sub")
        assert code == 3
        capsys.readouterr()

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fourier", "--config", "x", "--out", "y"])

    def test_unknown_command_exits_2_on_each_call(self, capsys):
        # main parses with one parser per process, which a rejected command
        # leaves as it was
        for _ in range(2):
            with pytest.raises(SystemExit) as exc:
                main(["fourier", "--config", "x", "--out", "y"])
            assert exc.value.code == 2
        assert "invalid choice: 'fourier'" in capsys.readouterr().err


def write_dataset(directory, name, drop=None, **fields):
    """A copy of the packaged bbo.json as ``directory/<name>.json``, without
    the field ``drop`` and with ``fields`` set."""
    raw = json.loads((Path(cli.__file__).parent / "data" / "bbo.json").read_text())
    raw.pop(drop, None)
    raw.update(fields)
    directory.mkdir(exist_ok=True)
    path = directory / (name + ".json")
    path.write_text(json.dumps(raw))
    return str(path)


class TestCrystalLookup:
    """A dataset is named, not given by path: ``<name>.json`` in
    SPDC_LAB_CRYSTAL_DIR, then in the packaged data."""

    def test_out_directory_does_not_hide_dataset(self, tmp_path, monkeypatch):
        # a "bbo" output directory in the working directory once shadowed the
        # packaged dataset, so the same command failed on its second run
        monkeypatch.chdir(tmp_path)
        config = shipped_config_path("degenerate_810")
        assert run_cli("dispersion-report", config, "bbo") == 0
        assert run_cli("dispersion-report", config, "bbo") == 0

    def test_missing_field_names_it(self, tmp_path, monkeypatch):
        monkeypatch.setenv("SPDC_LAB_CRYSTAL_DIR", str(tmp_path / "data"))
        write_dataset(tmp_path / "data", "broken", drop="validity_window_nm")
        doc = read_shipped("degenerate_810")
        doc["crystal"]["name"] = "broken"
        out = tmp_path / "out"
        assert run_cli("metrics", dump(doc, tmp_path), out) == 2
        err = json.loads((out / "error.json").read_text())
        assert err["type"] == "ConfigError"
        assert err["error"].startswith("crystal.name:")
        assert "validity_window_nm" in err["error"]

    def test_malformed_dataset_fails_every_load(self, tmp_path, monkeypatch):
        # a dataset is checked once per process only when it passes: swapped
        # ordinary and extraordinary indices fail their spot check each time
        monkeypatch.setenv("SPDC_LAB_CRYSTAL_DIR", str(tmp_path / "data"))
        bbo = load_config(shipped_config_path("degenerate_810")).crystal
        write_dataset(
            tmp_path / "data", "swapped", sellmeier_o=bbo.sellmeier_e, sellmeier_e=bbo.sellmeier_o
        )
        doc = read_shipped("degenerate_810")
        doc["crystal"]["name"] = "swapped"
        config = dump(doc, tmp_path)
        for _ in range(2):
            with pytest.raises(ConfigError, match="^crystal.name: .*not negative uniaxial"):
                load_config(config)

    def test_path_is_not_a_name(self, tmp_path):
        doc = read_shipped("degenerate_810")
        doc["crystal"]["name"] = write_dataset(tmp_path / "data", "bbo")
        with pytest.raises(ConfigError, match="^crystal.name: .* is a path"):
            load_config(dump(doc, tmp_path))

    def test_crystal_dir_dataset(self, tmp_path, monkeypatch):
        # a renamed copy of bbo.json found through SPDC_LAB_CRYSTAL_DIR gives
        # the figures of the packaged bbo
        monkeypatch.setenv("SPDC_LAB_CRYSTAL_DIR", str(tmp_path / "data"))
        write_dataset(tmp_path / "data", "my_bbo")
        doc = read_shipped("degenerate_810")
        summaries = []
        for name in ("bbo", "my_bbo"):
            doc["crystal"]["name"] = name
            out = tmp_path / name
            assert run_cli("metrics", dump(doc, tmp_path, name + ".json"), out) == 0
            summaries.append((out / "metrics_summary.csv").read_text())
        assert summaries[0] == summaries[1]


ENTRY_ENV = dict(
    os.environ,
    PYTHONPATH=os.pathsep.join([str(Path(cli.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]),
    **{k: "1" for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
)


def written(out):
    """{file name: bytes} of every file in the directory ``out``."""
    if not os.path.isdir(out):
        return {}
    return {name: (Path(out) / name).read_bytes() for name in sorted(os.listdir(out))}


def with_out(argv, out):
    return [out if a == "OUT" else a for a in argv]


# the entry-route runs on the shipped configs, "OUT" standing for each run's
# own output directory (always the last argument)
SHIPPED_CASES = {
    "%s-%s" % (cfg, argv[0]): argv + ["--config", shipped_config_path(cfg), "--out", "OUT"]
    for cfg in ("degenerate_810", "nondegenerate_850_609")
    for argv in (["metrics"], ["jsa", "--grid-resolution", "64"], ["dispersion-report"])
}


@pytest.fixture(scope="module")
def entry_reference(tmp_path_factory):
    """{name: argv} of the entry-route runs, SHIPPED_CASES and two failing
    ones, and {name: (exit code, files written)} of ``main()`` called on
    each in one process, at one BLAS thread."""
    base = tmp_path_factory.mktemp("entry")
    config = shipped_config_path("degenerate_810")
    bad = base / "bad.json"
    bad.write_text("{not json")
    (base / "blocker").write_text("")
    cases = {
        **SHIPPED_CASES,
        "bad-config": ["metrics", "--config", str(bad), "--out", "OUT"],
        "unwritable-out": ["metrics", "--config", config, "--out", str(base / "blocker" / "sub")],
    }
    argvs = [with_out(argv, str(base / name)) for name, argv in cases.items()]
    script = (
        "import json, sys\n"
        "from spdc_lab.cli import main\n"
        "print(json.dumps([main(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script, json.dumps(argvs)], env=ENTRY_ENV, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    codes = json.loads(proc.stdout.splitlines()[-1])
    reference = {name: (code, written(argv[-1])) for name, code, argv in zip(cases, codes, argvs)}
    assert codes == [0] * len(SHIPPED_CASES) + [2, 3]
    assert "error.json" in reference["bad-config"][1]
    return cases, reference


class TestConsoleScript:
    def test_entry_point_runs(self, tmp_path):
        config = cheap_config(tmp_path)
        out = tmp_path / "script"
        proc = subprocess.run(
            [
                sys.executable,
                "-W",
                "error::RuntimeWarning",
                "-m",
                "spdc_lab.cli",
                "dispersion-report",
                "--config",
                config,
                "--out",
                str(out),
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == ""
        assert (out / "dispersion_report.json").exists()

    def test_run_freezes_after_main(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda argv: calls.append(argv) or 3)
        monkeypatch.setattr(cli, "gc", SimpleNamespace(freeze=lambda: calls.append("freeze")))
        monkeypatch.setattr(cli, "_one_blas_thread", lambda: calls.append("one BLAS thread"))
        assert cli.run(["metrics"]) == 3
        assert calls == ["one BLAS thread", ["metrics"], "freeze"]

    @pytest.mark.parametrize("route", ["-m", "console script"])
    def test_entry_route_writes_what_main_writes(self, entry_reference, tmp_path, route):
        # each run is a fresh process that exits through run(), which freezes
        # the heap first: its files, error.json and exit codes must be those
        # of main() called in process
        cases, reference = entry_reference
        if route == "-m":
            head = [sys.executable, "-m", "spdc_lab.cli"]
        else:  # the wrapper an installer writes for [project.scripts]
            pyproject = (Path(cli.__file__).parents[2] / "pyproject.toml").read_text()
            module, func = re.search(r'^spdc-lab = "([\w.]+):(\w+)"$', pyproject, re.M).groups()
            head = [sys.executable, "-c", "import sys; from %s import %s; sys.exit(%s())" % (
                module, func, func)]
        got = {}
        for name, argv in cases.items():
            argv = with_out(argv, str(tmp_path / name))
            proc = subprocess.run(head + argv, env=ENTRY_ENV, capture_output=True, text=True)
            got[name] = (proc.returncode, written(argv[-1]))
        assert got == reference

    def test_perfbench_tracer_counts_metrics_layers(self, tmp_path):
        # perfbench/tracer.py wraps package functions by name and binds their
        # arguments by name, so a rename here must fail in the test suite,
        # not only in the benchmark. `sweep-rate` and `optimize` cover the
        # sweep layer, `metrics` the rate layers and `jsa` covers jsa_grid,
        # all in one process. `sweep-rate` runs first, so it evaluates the
        # phase mismatch on an empty spectral-grid slot: once, on the 201-point
        # grid, whose every other point is the 101-point grid. It takes its
        # rates key by key from pair_rates_by_key, which the tracer does not
        # wrap, so it makes no pair_rate call
        root = Path(cli.__file__).parents[2]
        script = (
            "import json, sys\n"
            "sys.path[:0] = [%r, %r]\n"
            "import spdc_lab.cli as cli\n"
            "from tracer import Tracer, summarize\n"
            "tracer = Tracer()\n"
            "tracer.install()\n"
            "runs = []\n"
            "for command in ('sweep-rate', 'optimize', 'metrics', 'jsa'):\n"
            "    del tracer.spans[:]\n"
            "    code = cli.main([command, '--config', %r, '--out', %r + command])\n"
            "    runs.append([code, summarize(tracer.spans)])\n"
            "print(json.dumps(runs))\n"
        ) % (
            str(root / "src"),
            str(root / "perfbench"),
            shipped_config_path("degenerate_810"),
            str(tmp_path / "out_"),
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        runs = json.loads(proc.stdout.splitlines()[-1])
        assert [code for code, _ in runs] == [0, 0, 0, 0]
        (_, rate_summary), (_, optimize_summary), (_, metrics_summary), (_, jsa_summary) = runs
        counts = {"metrics.pair_rate.calls": 0, "jsa.phase_mismatch_exact.calls": 1}
        assert {key: rate_summary[key] for key in counts} == counts
        counts = {
            "sweep.golden_section_maximize.evals": 20,
            "metrics.pair_rate.calls": 13,
            # the 2 reports' ladders; heralding_margin drives the 11 coarse
            # points' ladders without singles_rate
            "metrics.singles_rate.calls": 4,
            "metrics.compute_metrics.calls": 2,
            "sweep.optimize.eta_evals": 11,
        }
        assert {key: optimize_summary[key] for key in counts} == counts
        counts = {
            "metrics.pair_rate.calls": 1,
            "metrics.singles_rate.calls": 2,
            "metrics.compute_metrics.calls": 1,
        }
        assert {key: metrics_summary[key] for key in counts} == counts
        assert jsa_summary["jsa.jsa_grid.calls"] == 1

    def test_import_loads_no_scipy(self):
        # the constants are literals, so importing the package loads no
        # scipy module; nor numpy.polynomial, which the z rule imports for
        # its first Gauss-Legendre order
        src = str(Path(cli.__file__).parents[1])
        proc = subprocess.run(
            [
                sys.executable,
                "-c",
                "import sys; sys.path.insert(0, %r); import spdc_lab.cli; "
                "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy' "
                "or m.startswith('numpy.polynomial')))"
                % src,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "[]"

    def test_import_loads_no_importlib_resources(self):
        # the packaged data are found next to the modules: without a site
        # hook that imports it anyway, importlib.resources pulls in pathlib,
        # zipfile, tempfile, shutil and urllib.parse at every start
        path = [str(Path(cli.__file__).parents[1])] + sys.path
        proc = subprocess.run(
            [
                sys.executable,
                "-S",
                "-c",
                "import sys; sys.path[:] = %r; import spdc_lab.cli; "
                "print('importlib.resources' in sys.modules)" % path,
            ],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "False"

    def test_walk_off_run_loads_no_scipy(self, tmp_path):
        # the walk-off envelope is integrated by the package's own z rule
        src = str(Path(cli.__file__).parents[1])
        script = (
            "import sys; sys.path.insert(0, %r); from spdc_lab import cli; "
            "code = cli.main(['metrics', '--walk-off', '--config', %r, '--out', %r]); "
            "print(code, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
            % (src, shipped_config_path("degenerate_810"), str(tmp_path / "out"))
        )
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == "0 []"


SUBMODULES = ["cli", "config", "dispersion", "errors", "filters", "jsa", "metrics", "schmidt", "sweep", "units"]

# a ``python -m spdc_lab.cli`` child that reports, after the command, its exit
# code and the package modules it imported; runpy warns if spdc_lab.cli had
# been imported already, and that warning is an error here
RUN_AS_MAIN = (
    "import json, runpy, sys\n"
    "try:\n"
    "    runpy.run_module('spdc_lab.cli', run_name='__main__')\n"
    "except SystemExit as exc:\n"
    "    code = exc.code\n"
    "print(json.dumps([code, sorted(m for m in sys.modules if m.split('.')[0] == 'spdc_lab')]))\n"
)


def package_modules(statement):
    """The spdc_lab submodules, and whether numpy, are loaded by a fresh
    process after ``statement``."""
    script = (
        "%s\nimport json, sys\n"
        "print(json.dumps([sorted(m.partition('.')[2] for m in sys.modules if m.startswith('spdc_lab.')), "
        "'numpy' in sys.modules]))" % statement
    )
    proc = subprocess.run([sys.executable, "-c", script], env=ENTRY_ENV, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class TestCommandImports:
    """A ``python -m spdc_lab.cli`` process imports the layers its command
    runs; an importer of spdc_lab.cli gets all of them."""

    # every command imports these; metrics and sweep come with the commands that call them
    BASE = ["config", "dispersion", "errors", "filters", "jsa", "schmidt", "units"]
    LAYERS = {"metrics": ["metrics"], "jsa": [], "dispersion-report": []}

    @pytest.mark.parametrize("name", SHIPPED_CASES)
    def test_main_child_imports_its_layers_and_writes_what_main_writes(self, entry_reference, tmp_path, name):
        argv = with_out(SHIPPED_CASES[name], str(tmp_path / "out"))
        child = [sys.executable, "-W", "error::RuntimeWarning", "-c", RUN_AS_MAIN]
        proc = subprocess.run(child + argv, env=ENTRY_ENV, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        assert modules == ["spdc_lab"] + ["spdc_lab." + m for m in sorted(self.BASE + self.LAYERS[argv[0]])]
        assert (code, written(argv[-1])) == entry_reference[1][name]

    def test_importing_cli_loads_every_layer(self):
        # perfbench's tracer wraps functions it finds in sys.modules right
        # after this import, and in-process callers time their first task
        assert package_modules("import spdc_lab.cli") == [SUBMODULES, True]

    def test_importing_the_package_loads_no_submodule_and_no_numpy(self):
        assert package_modules("import spdc_lab") == [[], False]

    def test_package_names_load_their_submodule(self):
        assert package_modules("from spdc_lab import SpdcLabError") == [["errors"], False]
        assert package_modules("import spdc_lab; spdc_lab.units") == [["units"], False]


NUMPY_LIBS = Path(np.__file__).parents[1] / "numpy.libs"


@pytest.mark.skipif(not list(NUMPY_LIBS.glob("libscipy_openblas64_*")), reason="numpy without scipy-openblas")
@pytest.mark.parametrize("command", ["metrics", "optimize"])
def test_reports_do_not_depend_on_blas_threads(tmp_path, command):
    # run() puts numpy's OpenBLAS on one thread, whatever the environment
    # asks: at two threads the last digits of purity_P and
    # W0s_purity_star_um moved on nondegenerate_850_609
    config = shipped_config_path("nondegenerate_850_609")
    script = (
        "import json, sys\n"
        "from spdc_lab.cli import run\n"
        "print(json.dumps([run(argv) for argv in json.loads(sys.argv[1])]))\n"
    )
    reports = []
    for threads in ("1", "2"):
        argvs = [[command, "--config", config, "--out", str(tmp_path / threads / flag)] + flags
                 for flag, flags in (("plain", []), ("walk-off", ["--walk-off"]))]
        env = dict(ENTRY_ENV, **{k: threads for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")})
        proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [0, 0]
        reports.append([written(argv[4]) for argv in argvs])
    assert reports[0] == reports[1]


def test_one_blas_thread_where_the_library_has_the_symbol(monkeypatch):
    # a library without the symbol, or no numpy.libs directory, is left alone
    calls = []

    def set_threads(n):
        calls.append(n)

    def no_directory(path):
        raise FileNotFoundError(path)

    monkeypatch.setattr(cli.os, "listdir", lambda path: ["libgfortran.so", "libscipy_openblas64_-0.so"])
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: SimpleNamespace(scipy_openblas_set_num_threads64_=set_threads))
    cli._one_blas_thread()
    assert calls == [1] and set_threads.argtypes == (cli.ctypes.c_int,)
    monkeypatch.setattr(cli.ctypes, "CDLL", lambda path: SimpleNamespace())
    cli._one_blas_thread()
    monkeypatch.setattr(cli.os, "listdir", no_directory)
    cli._one_blas_thread()
    assert calls == [1]


MIB = 1 << 20


class Calls(list):
    result = 1


class TestHeapPolicy:
    @pytest.fixture
    def mallopt(self, monkeypatch):
        """The (param, value) pairs the CLI hands to a fake libc's mallopt,
        on glibc's confstr, with the once-per-process guard reset around the
        test. ``calls.result`` is what the fake returns."""
        calls = Calls()

        def fake_mallopt(param, value):
            calls.append((param, value))
            return calls.result

        monkeypatch.setattr(cli.ctypes, "CDLL", lambda name: SimpleNamespace(mallopt=fake_mallopt))
        monkeypatch.setattr(cli.os, "confstr", {"CS_GNU_LIBC_VERSION": "glibc 2.36"}.get)
        cli._keep_freed_heap.cache_clear()
        yield calls
        cli._keep_freed_heap.cache_clear()

    def test_main_sets_both_thresholds_once(self, tmp_path, mallopt):
        config = cheap_config(tmp_path)
        assert run_cli("dispersion-report", config, tmp_path / "a") == 0
        assert run_cli("dispersion-report", config, tmp_path / "b") == 0
        assert mallopt == [(-3, 32 * MIB), (-1, 64 * MIB)]

    @pytest.mark.parametrize("error", [None, ValueError, OSError, AttributeError])
    def test_no_call_off_glibc(self, tmp_path, monkeypatch, mallopt, error):
        # confstr gives None off glibc, and raises where the name is unknown;
        # it is missing where the platform has no confstr at all
        def confstr(name):
            if error is not None:
                raise error(name)

        if error is AttributeError:
            monkeypatch.delattr(cli.os, "confstr")
        else:
            monkeypatch.setattr(cli.os, "confstr", confstr)
        assert run_cli("dispersion-report", cheap_config(tmp_path), tmp_path / "d") == 0
        assert mallopt == []

    def test_refused_threshold_is_not_followed(self, tmp_path, mallopt):
        # the trim threshold alone would freeze the mmap threshold where it
        # stands, so a refused mmap threshold sets nothing more
        mallopt.result = 0
        assert run_cli("dispersion-report", cheap_config(tmp_path), tmp_path / "d") == 0
        assert mallopt == [(-3, 32 * MIB)]

    @pytest.mark.parametrize("libc", [SimpleNamespace(), OSError])
    def test_missing_mallopt_is_ignored(self, tmp_path, monkeypatch, mallopt, libc):
        def cdll(name):
            if libc is OSError:
                raise OSError(name)
            return libc

        monkeypatch.setattr(cli.ctypes, "CDLL", cdll)
        assert run_cli("dispersion-report", cheap_config(tmp_path), tmp_path / "d") == 0

    def test_library_calls_leave_the_allocator_alone(self, tmp_path, mallopt):
        cfg = load_config(cheap_config(tmp_path))
        args = (cfg.geom, cfg.crystal, cfg.filters, cfg.numerics)
        compute_metrics(*args)
        pair_rate(*args)
        optimize(*args)
        assert mallopt == []
        assert run_cli("dispersion-report", cheap_config(tmp_path), tmp_path / "d") == 0
        assert len(mallopt) == 2

    def test_main_leaves_the_collector_alone(self, tmp_path):
        # only run(), the process entry, freezes the heap: main() is called
        # many times in one process, and frozen objects are never collected
        config = cheap_config(tmp_path)
        before = gc.get_freeze_count(), gc.isenabled()
        for command in ("metrics", "jsa", "dispersion-report"):
            assert run_cli(command, config, tmp_path / command) == 0
            assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="glibc's allocator only")
    def test_new_spectral_setting_reuses_freed_heap(self, tmp_path):
        # each run replaces the spectral-grid slot; with glibc's default
        # thresholds the replaced grids go back to the kernel, and the third
        # run faulted about 930 pages in again
        import resource

        faults = []
        for i, name in enumerate(("degenerate_810", "nondegenerate_850_609", "degenerate_810")):
            before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
            assert run_cli("sweep-rate", shipped_config_path(name), tmp_path / str(i)) == 0
            faults.append(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
        assert faults[2] < 100, faults
