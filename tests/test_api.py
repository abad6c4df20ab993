"""The package's public surface, pinned so that each removal is deliberate."""

import sys
from types import ModuleType

import spdc_lab

SUBMODULES = [
    "config", "dispersion", "errors", "filters", "jsa", "metrics", "schmidt", "sweep", "units",
]

PUBLIC_NAMES = [
    "BeamGeometry",
    "ConfigError",
    "ConsistencyError",
    "ConvergenceError",
    "CrystalSpec",
    "FilterBank",
    "FilterSpec",
    "GeometryFactors",
    "JsaGrid",
    "MetricsReport",
    "Numerics",
    "OpticalMode",
    "OptimizationResult",
    "PhaseMatchingError",
    "RunConfig",
    "SINC_GAUSS_ALPHA",
    "SchmidtSpectrum",
    "SinglesResult",
    "SpdcLabError",
    "SpectralGrid",
    "SweepResult",
    "SweepRow",
    "TotalInternalReflectionError",
    "UnsatisfiableConditionError",
    "WavelengthWindowError",
    "collinear_cut_angle",
    "compute_metrics",
    "effective_nonlinearity",
    "emission_angles",
    "external_angle",
    "filter_transmission",
    "geometry_factors",
    "golden_section_maximize",
    "heralding_efficiency",
    "heralding_rates",
    "index_extraordinary",
    "index_extraordinary_principal",
    "index_ordinary",
    "inverse_group_velocity",
    "jsa_grid",
    "load_config",
    "load_crystal",
    "metrics_vs_waist_ratio",
    "mode_function",
    "optimize",
    "pair_rate",
    "phase_mismatch_exact",
    "purity",
    "purity_waist",
    "rate_prefactor",
    "rate_vs_pump_waist",
    "schmidt_purity",
    "shipped_config_path",
    "singles_rate",
    "spectral_grid",
    "walk_off_angle",
    "walk_off_integral",
    "wave_number",
]


def test_public_surface():
    # a name added or removed here is an API change: record it in the
    # changelog and the README's library quickstart
    assert sorted(spdc_lab.__all__) == PUBLIC_NAMES


def test_dir_lists_every_public_name_and_submodule():
    listed = dir(spdc_lab)
    assert listed == sorted(listed)
    assert set(PUBLIC_NAMES + SUBMODULES + ["__version__"]) <= set(listed)


def test_star_import_binds_no_module():
    namespace = {}
    exec("from spdc_lab import *", namespace)
    assert not [name for name, value in namespace.items() if isinstance(value, ModuleType)]
    # the submodules stay reachable as attributes of the package
    for name in SUBMODULES:
        assert getattr(spdc_lab, name) is sys.modules["spdc_lab." + name]
