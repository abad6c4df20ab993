import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
import scipy.constants
from scipy.constants import c
from scipy.optimize import brentq

from spdc_lab.dispersion import (
    CrystalSpec,
    OpticalMode,
    collinear_cut_angle,
    effective_nonlinearity,
    emission_angles,
    external_angle,
    index_extraordinary,
    index_extraordinary_principal,
    index_ordinary,
    inverse_group_velocity,
    walk_off_angle,
    wave_number,
)
from spdc_lab.errors import (
    PhaseMatchingError,
    TotalInternalReflectionError,
    WavelengthWindowError,
)
from spdc_lab import units
from spdc_lab.jsa import geometry_factors
from spdc_lab.units import wavelength_to_angular_frequency

# bracketed root solves to the last bit (brentq's smallest rtol is 4 eps)
ORACLE_TOL = {"xtol": 1e-300, "rtol": 8.9e-16}


def oracle_angles(cut_detuning, lam_s, lam_i, crystal):
    """(theta_c, theta_s, theta_i) as roots of the momentum mismatch: the
    collinear k_p(theta) - k_s - k_i over the quadrant, then the longitudinal
    mismatch with k_s sin(theta_s) = k_i sin(theta_i) over [0, 0.15] rad."""
    lam_p = 1.0 / (1.0 / lam_s + 1.0 / lam_i)
    pump = OpticalMode("pump", "extraordinary", lam_p)
    k_s, k_i = (
        float(index_ordinary(lam, crystal)) * wavelength_to_angular_frequency(lam) / c
        for lam in (lam_s, lam_i)
    )

    def k_p(theta):
        return float(wave_number(pump.central_angular_frequency, pump, theta, crystal))

    theta_c = brentq(lambda t: k_p(t) - k_s - k_i, 1e-6, math.pi / 2 - 1e-6, **ORACLE_TOL)
    k_cut = k_p(theta_c + cut_detuning)

    def theta_i(theta_s):
        return math.asin(k_s * math.sin(theta_s) / k_i)

    def longitudinal(theta_s):
        return k_cut - k_s * math.cos(theta_s) - k_i * math.cos(theta_i(theta_s))

    theta_s = brentq(longitudinal, 0.0, 0.15, **ORACLE_TOL)
    return theta_c, theta_s, theta_i(theta_s)


def seeded_designs(count=12, seed=20):
    """(cut detuning, lam_s, lam_i) draws with every wavelength inside the
    BBO window: pumps 300-500 nm, signals within 20% of degeneracy."""
    rng = np.random.default_rng(seed)
    designs = []
    while len(designs) < count:
        lam_p = rng.uniform(300e-9, 500e-9)
        lam_s = 2.0 * lam_p * rng.uniform(0.8, 1.2)
        lam_i = 1.0 / (1.0 / lam_p - 1.0 / lam_s)
        if max(lam_s, lam_i) < 1060e-9:
            designs.append((math.radians(rng.uniform(0.5, 2.0)), lam_s, lam_i))
    return designs


def constant_crystal(n_o=1.5, n_e=1.4, cut=0.5):
    """Dispersionless dataset: b = 0 makes n independent of wavelength."""
    return CrystalSpec(
        name="const",
        sellmeier_o=(n_o**2, 0.0, 0.01, 0.0),
        sellmeier_e=(n_e**2, 0.0, 0.01, 0.0),
        validity_window=(200e-9, 2000e-9),
        d11=2.0,
        d31=0.1,
        length_L=450e-6,
        cut_angle_theta=cut,
    )


class TestIndices:
    def test_ordinary_oracle_810(self, degenerate):
        # hand evaluation of the shipped Sellmeier data at 810 nm
        assert index_ordinary(810e-9, degenerate.crystal) == pytest.approx(
            1.660258317317, abs=1e-9
        )

    def test_ordinary_oracle_405(self, degenerate):
        assert index_ordinary(405e-9, degenerate.crystal) == pytest.approx(
            1.691886895977, abs=1e-9
        )

    def test_dispersionless_constant(self):
        cr = constant_crystal()
        for lam in (300e-9, 800e-9, 1500e-9):
            assert index_ordinary(lam, cr) == pytest.approx(1.5, rel=1e-12)

    def test_window_error(self, degenerate):
        with pytest.raises(WavelengthWindowError):
            index_ordinary(2000e-9, degenerate.crystal)
        with pytest.raises(WavelengthWindowError):
            index_extraordinary_principal(100e-9, degenerate.crystal)

    def test_extraordinary_limits(self, degenerate):
        cr = degenerate.crystal
        lam = 405e-9
        assert index_extraordinary(lam, 0.0, cr) == pytest.approx(
            index_ordinary(lam, cr), rel=1e-12
        )
        assert index_extraordinary(lam, math.pi / 2, cr) == pytest.approx(
            index_extraordinary_principal(lam, cr), rel=1e-12
        )
        assert index_extraordinary_principal(lam, cr) == pytest.approx(
            1.567124145905, abs=1e-9
        )

    def test_extraordinary_oracle_at_cut(self, degenerate):
        # hand evaluation of the angle-tuned index at the collinear cut angle
        theta_c = 0.502931589050
        assert index_extraordinary(405e-9, theta_c, degenerate.crystal) == pytest.approx(
            1.660258317318, abs=1e-9
        )

    def test_extraordinary_monotone(self, degenerate):
        cr = degenerate.crystal
        thetas = np.linspace(0, math.pi / 2, 31)
        vals = [float(index_extraordinary(405e-9, t, cr)) for t in thetas]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert all(v > 1 for v in vals)


class TestWaveNumber:
    def test_constant_index(self):
        cr = constant_crystal()
        mode = OpticalMode("signal", "ordinary", 810e-9)
        w = mode.central_angular_frequency
        from scipy.constants import c

        assert float(wave_number(w, mode, 0.0, cr)) == pytest.approx(
            1.5 * w / c, rel=1e-12
        )
        assert float(wave_number(2 * w, mode, 0.0, cr)) == pytest.approx(
            2 * float(wave_number(w, mode, 0.0, cr)), rel=1e-12
        )

    def test_ordinary_from_index(self, degenerate):
        cr = degenerate.crystal
        mode = OpticalMode("signal", "ordinary", 810e-9)
        w = mode.central_angular_frequency
        from scipy.constants import c

        expected = index_ordinary(810e-9, cr) * w / c
        assert float(wave_number(w, mode, 0.0, cr)) == pytest.approx(
            float(expected), rel=1e-12
        )


class TestInverseGroupVelocity:
    def _fd(self, mode, theta, cr, rel_step):
        w0 = mode.central_angular_frequency
        h = w0 * rel_step
        k_hi = float(wave_number(w0 + h, mode, theta, cr))
        k_lo = float(wave_number(w0 - h, mode, theta, cr))
        return (k_hi - k_lo) / (2 * h)

    def test_against_finite_difference(self, degenerate):
        cr = degenerate.crystal
        cases = [
            (OpticalMode("signal", "ordinary", 810e-9), 0.0),
            (OpticalMode("pump", "extraordinary", 405e-9), cr.cut_angle_theta),
        ]
        for mode, theta in cases:
            analytic = inverse_group_velocity(mode, theta, cr)
            for step in (1e-5, 1e-6, 1e-7):
                fd = self._fd(mode, theta, cr, step)
                assert analytic == pytest.approx(fd, rel=1e-6)

    def test_dispersionless_limit(self):
        cr = constant_crystal()
        mode = OpticalMode("signal", "ordinary", 810e-9)
        from scipy.constants import c

        assert inverse_group_velocity(mode, 0.0, cr) == pytest.approx(
            1.5 / c, rel=1e-12
        )

    def test_frozen_values(self, degenerate):
        cr = degenerate.crystal
        sig = OpticalMode("signal", "ordinary", 810e-9)
        pump = OpticalMode("pump", "extraordinary", 405e-9)
        assert inverse_group_velocity(sig, 0.0, cr) == pytest.approx(
            5.6167140399e-09, rel=1e-9
        )
        assert inverse_group_velocity(pump, cr.cut_angle_theta, cr) == pytest.approx(
            5.7921945876e-09, rel=1e-9
        )


class TestEffectiveNonlinearity:
    def test_trivials(self):
        cr = constant_crystal()
        assert effective_nonlinearity(0.0, 0.0, cr) == pytest.approx(cr.d11)
        assert effective_nonlinearity(math.pi / 2, 0.0, cr) == pytest.approx(-cr.d31)
        assert effective_nonlinearity(0.0, math.pi / 6, cr) == pytest.approx(
            0.0, abs=1e-15
        )

    @given(
        theta=st.floats(0.0, math.pi / 2),
        phi=st.floats(-math.pi, math.pi),
    )
    @settings(max_examples=50, deadline=None)
    def test_azimuth_periodicity(self, theta, phi):
        cr = constant_crystal()
        a = effective_nonlinearity(theta, phi, cr)
        b = effective_nonlinearity(theta, phi + 2 * math.pi / 3, cr)
        assert a == pytest.approx(b, abs=1e-12)

    @given(theta=st.floats(-1.0, 1.0), phi=st.floats(-math.pi, math.pi))
    @settings(max_examples=50, deadline=None)
    def test_second_term_odd(self, theta, phi):
        cr = constant_crystal()
        s = effective_nonlinearity(theta, phi, cr) + effective_nonlinearity(
            -theta, phi, cr
        )
        assert s == pytest.approx(
            2 * cr.d11 * math.cos(3 * phi) * math.cos(theta), abs=1e-12
        )


class TestPhaseMatching:
    def test_collinear_residual(self, degenerate):
        cr = degenerate.crystal
        theta_c = collinear_cut_angle(405e-9, 810e-9, 810e-9, cr)
        pump = OpticalMode("pump", "extraordinary", 405e-9)
        w_p = wavelength_to_angular_frequency(405e-9)
        k_p = float(wave_number(w_p, pump, theta_c, cr))
        k_s = float(
            index_ordinary(810e-9, cr) * wavelength_to_angular_frequency(810e-9)
        ) / 299792458.0
        assert abs(k_p - 2 * k_s) < 1.0

    def test_energy_violation(self, degenerate):
        with pytest.raises(ValueError, match="energy conservation"):
            collinear_cut_angle(405e-9, 820e-9, 810e-9, degenerate.crystal)

    def test_no_unique_solution(self):
        # nearly index-matched dataset with vanishingly small dispersion: the
        # momentum mismatch is below 1 rad/m at every angle, so no unique root
        cr = CrystalSpec(
            name="flat",
            sellmeier_o=(2.25, 6e-9, 0.01, 0.0),
            sellmeier_e=(2.25 * (1 - 1e-12), 6e-9, 0.01, 0.0),
            validity_window=(200e-9, 2000e-9),
            d11=2.0,
            d31=0.1,
            length_L=450e-6,
            cut_angle_theta=0.5,
        )
        with pytest.raises(PhaseMatchingError, match="no unique solution"):
            collinear_cut_angle(405e-9, 810e-9, 810e-9, cr)

    def test_no_solution(self):
        # mismatch keeps one sign and stays large over the whole quadrant
        cr = constant_crystal(n_o=1.5, n_e=1.45)
        with pytest.raises(PhaseMatchingError, match="no phase-matching"):
            collinear_cut_angle(405e-9, 810e-9, 810e-9, cr)

    @pytest.mark.parametrize("which", ["degenerate", "nondegenerate", "seeded"])
    def test_closed_forms_match_root_oracle(self, which, request):
        if which == "seeded":
            crystal = request.getfixturevalue("degenerate").crystal
            designs = seeded_designs()
        else:
            cfg = request.getfixturevalue(which)
            crystal = cfg.crystal
            designs = [(
                math.radians(cfg.resolved["collection"]["cut_detuning_deg"]),
                cfg.geom.signal.central_wavelength,
                cfg.geom.idler.central_wavelength,
            )]
        for cut_detuning, lam_s, lam_i in designs:
            want_c, want_s, want_i = oracle_angles(cut_detuning, lam_s, lam_i, crystal)
            lam_p = 1.0 / (1.0 / lam_s + 1.0 / lam_i)
            theta_c = collinear_cut_angle(lam_p, lam_s, lam_i, crystal)
            theta_s, theta_i = emission_angles(cut_detuning, lam_s, lam_i, crystal)
            assert abs(theta_c / want_c - 1) <= 1e-13, (lam_s, lam_i)
            assert abs(theta_s / want_s - 1) <= 1e-11, (cut_detuning, lam_s, lam_i)
            assert abs(theta_i / want_i - 1) <= 1e-11, (cut_detuning, lam_s, lam_i)

    def test_emission_angles_zero_detuning(self, degenerate):
        ts, ti = emission_angles(0.0, 810e-9, 810e-9, degenerate.crystal)
        assert ts == 0.0 and ti == 0.0

    def test_emission_angles_degenerate_symmetry(self, degenerate):
        ts, ti = emission_angles(math.radians(1.5), 810e-9, 810e-9, degenerate.crystal)
        assert ts == pytest.approx(ti, rel=1e-12)
        assert ts == pytest.approx(5.978056426519e-2, rel=1e-8)

    def test_degenerate_angles_exactly_equal(self, degenerate_with):
        # k_s sin(theta_s) = k_i sin(theta_i) with k_s = k_i: theta_i is
        # theta_s itself, not an asin one ulp off it, so D = 0 exactly over
        # the cut detunings of the perfbench design box
        for cut_deg in np.linspace(1.2, 2.0, 81).tolist():
            geom = degenerate_with("collection", "cut_detuning_deg", cut_deg).geom
            assert geom.theta_s == geom.theta_i, cut_deg
            assert geometry_factors(geom).D == 0.0, cut_deg

    def test_emission_angles_residuals(self, nondegenerate):
        cr = nondegenerate.crystal
        lam_s, lam_i = 850e-9, 609.5959595959597e-9
        ts, ti = emission_angles(math.radians(1.5), lam_s, lam_i, cr)
        k_s = float(index_ordinary(lam_s, cr)) * wavelength_to_angular_frequency(
            lam_s
        ) / 299792458.0
        k_i = float(index_ordinary(lam_i, cr)) * wavelength_to_angular_frequency(
            lam_i
        ) / 299792458.0
        pump = OpticalMode("pump", "extraordinary", 355.0000000000001e-9)
        k_p = float(
            wave_number(
                wavelength_to_angular_frequency(lam_s)
                + wavelength_to_angular_frequency(lam_i),
                pump,
                cr.cut_angle_theta,
                cr,
            )
        )
        dky = k_s * math.sin(ts) - k_i * math.sin(ti)
        dkz = k_p - k_s * math.cos(ts) - k_i * math.cos(ti)
        assert abs(dky) < 1.0 and abs(dkz) < 1.0

    def test_external_full_angle(self, degenerate):
        # measured full opening angle outside the crystal, about 12 degrees
        cr = degenerate.crystal
        ts, ti = emission_angles(math.radians(1.5), 810e-9, 810e-9, cr)
        full = math.degrees(
            external_angle(ts, 810e-9, cr) + external_angle(ti, 810e-9, cr)
        )
        assert 12.0 * 0.85 <= full <= 12.0 * 1.15
        assert full == pytest.approx(11.3853, abs=1e-3)


class TestExternalAngle:
    def test_trivials(self, degenerate):
        assert external_angle(0.0, 810e-9, degenerate.crystal) == 0.0
        cr = constant_crystal(n_o=1.0 + 1e-6, n_e=1.0 + 5e-7)
        assert external_angle(0.3, 810e-9, cr) == pytest.approx(0.3, rel=1e-5)

    def test_hand_value(self):
        cr = constant_crystal(n_o=1.66, n_e=1.5)
        out = external_angle(math.radians(3.6), 810e-9, cr)
        assert math.degrees(out) == pytest.approx(5.9846, abs=2e-3)

    def test_total_internal_reflection(self):
        cr = constant_crystal(n_o=1.66, n_e=1.5)
        with pytest.raises(TotalInternalReflectionError):
            external_angle(math.radians(40.0), 810e-9, cr)


class TestWalkOff:
    def test_trivials(self, degenerate):
        cr = degenerate.crystal
        assert walk_off_angle(0.0, 405e-9, cr) == pytest.approx(0.0, abs=1e-15)
        assert walk_off_angle(math.pi / 2, 405e-9, cr) == pytest.approx(0.0, abs=1e-12)

    def test_magnitude_at_cut(self, degenerate):
        cr = degenerate.crystal
        rho = math.degrees(walk_off_angle(cr.cut_angle_theta, 405e-9, cr))
        assert rho == pytest.approx(3.959863, abs=1e-4)

    @pytest.mark.xfail(
        reason="walk-off growth over the 1.5 deg detuning evaluates to 0.108 deg "
        "with the shipped dispersion data, outside 0.078 deg +/- 20%; "
        "dispersion-data dependent (see README, Tests)",
        strict=True,
    )
    def test_detuning_growth(self, degenerate):
        cr = degenerate.crystal
        theta_c = 0.502931589050
        growth = math.degrees(
            walk_off_angle(theta_c + math.radians(1.5), 405e-9, cr)
            - walk_off_angle(theta_c, 405e-9, cr)
        )
        assert 0.078 * 0.8 <= growth <= 0.078 * 1.2


class TestDataclasses:
    def test_crystal_invariants(self):
        with pytest.raises(ValueError):
            constant_crystal(n_o=1.4, n_e=1.5)  # not negative uniaxial
        with pytest.raises(ValueError):
            CrystalSpec(
                name="bad",
                sellmeier_o=(2.25, 0.0, 0.01, 0.0),
                sellmeier_e=(2.0, 0.0, 0.01, 0.0),
                validity_window=(200e-9, 2000e-9),
                d11=2.0,
                d31=0.1,
                length_L=-1.0,
                cut_angle_theta=0.5,
            )

    def test_mode_invariants(self):
        mode = OpticalMode("signal", "ordinary", 810e-9)
        assert mode.central_angular_frequency == pytest.approx(
            wavelength_to_angular_frequency(810e-9)
        )
        with pytest.raises(ValueError):
            OpticalMode("probe", "ordinary", 810e-9)


class TestUnits:
    def test_constants_match_scipy(self):
        # units writes the constants out so the package imports no scipy; a
        # scipy release with a new CODATA set must fail here, not drift the
        # golden files
        assert units.c == scipy.constants.c
        assert units.epsilon_0 == scipy.constants.epsilon_0
