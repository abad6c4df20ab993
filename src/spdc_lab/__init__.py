"""spdc_lab: pair rate, heralding efficiency, and spectral purity of
bulk-crystal SPDC sources as functions of beam focal parameters."""

from types import ModuleType as _ModuleType

from .dispersion import (
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
    load_crystal,
    walk_off_angle,
    wave_number,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    ConvergenceError,
    PhaseMatchingError,
    SpdcLabError,
    TotalInternalReflectionError,
    UnsatisfiableConditionError,
    WavelengthWindowError,
)
from .filters import FilterBank, FilterSpec, filter_transmission
from .jsa import (
    BeamGeometry,
    GeometryFactors,
    JsaGrid,
    SINC_GAUSS_ALPHA,
    SpectralGrid,
    geometry_factors,
    jsa_grid,
    mode_function,
    phase_mismatch_exact,
    phase_mismatch_linear,
    purity_waist,
    spectral_grid,
    walk_off_integral,
)
from .metrics import (
    MetricsReport,
    SinglesResult,
    compute_metrics,
    heralding_efficiency,
    heralding_rates,
    pair_rate,
    rate_prefactor,
    singles_rate,
)
from .schmidt import SchmidtSpectrum, purity, schmidt_purity
from .sweep import (
    OptimizationResult,
    SweepResult,
    SweepRow,
    golden_section_maximize,
    metrics_vs_waist_ratio,
    optimize,
    rate_vs_pump_waist,
)
from .config import Numerics, RunConfig, load_config, shipped_config_path

__version__ = "0.1.0"

# the submodules stay attributes (spdc_lab.jsa) but are not exported names
__all__ = [n for n in dir() if not (n.startswith("_") or isinstance(globals()[n], _ModuleType))]
