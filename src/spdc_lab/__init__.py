"""spdc_lab: pair rate, heralding efficiency, and spectral purity of
bulk-crystal SPDC sources as functions of beam focal parameters.

Each public name, and each submodule, loads on first access (PEP 562), so
``import spdc_lab`` alone loads no submodule and no numpy."""

from importlib import import_module as _import_module

# submodule -> the public names it exports
_EXPORTS = {
    "config": "Numerics RunConfig load_config shipped_config_path",
    "dispersion": "CrystalSpec OpticalMode collinear_cut_angle effective_nonlinearity emission_angles"
    " external_angle index_extraordinary index_extraordinary_principal index_ordinary"
    " inverse_group_velocity load_crystal walk_off_angle wave_number",
    "errors": "ConfigError ConsistencyError ConvergenceError PhaseMatchingError SpdcLabError"
    " TotalInternalReflectionError UnsatisfiableConditionError WavelengthWindowError",
    "filters": "FilterBank FilterSpec filter_transmission",
    "jsa": "BeamGeometry GeometryFactors JsaGrid SINC_GAUSS_ALPHA SpectralGrid geometry_factors"
    " jsa_grid mode_function phase_mismatch_exact purity_waist spectral_grid walk_off_integral",
    "metrics": "MetricsReport SinglesResult compute_metrics heralding_efficiency heralding_rates"
    " pair_rate rate_prefactor singles_rate",
    "schmidt": "SchmidtSpectrum purity schmidt_purity",
    "sweep": "OptimizationResult SweepResult SweepRow golden_section_maximize"
    " metrics_vs_waist_ratio optimize rate_vs_pump_waist",
    "units": "",
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names.split()}

__version__ = "0.1.0"
__all__ = sorted(_HOME)


def __getattr__(name):
    if name in _EXPORTS:  # a submodule, spdc_lab.jsa
        return _import_module("." + name, __name__)
    if name in _HOME:
        return getattr(_import_module("." + _HOME[name], __name__), name)
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


def __dir__():
    return sorted(globals().keys() | _HOME.keys() | _EXPORTS.keys())
