"""Simulator for delay-scanned upconversion of photon pairs.

Builds the spectral amplitude of pairs that downconvert in one poled
crystal and upconvert in a second, propagates them through a configurable
dispersive system, and turns the result into a delay trace with metrics,
an energy check and a dispersion optimizer.
"""

__version__ = "0.1.0"

from .delayscan import (
    KERNEL_SIGNAL_DELAY,
    KERNEL_V_MASK,
    TraceMetrics,
    UpconversionTrace,
    metrics,
    parseval_check,
    peak_to_mean_ratio,
    rate_at_zero_delay,
    trace,
    write_trace_csv,
)
from .dispersionopt import (
    ElementChain,
    OptimizationResult,
    PhaseCorrection,
    PrismCompressor,
    Slab,
    certify_local_maximum,
    chain_gdd_fs2,
    chain_phase,
    optimize_dispersion,
    solve_compensating_insertion,
    with_knob,
)
from .errors import (
    ConvergenceError,
    PairtraceError,
    SamplingError,
    SolverError,
    ValidationError,
    WavelengthRangeError,
)
from .materials import (
    MaterialModel,
    get_material,
    group_delay_dispersion,
    load_materials,
    refractive_index,
    spectral_phase_of_slab,
    taylor_dispersion,
)
from .phasematch import (
    CrystalSpec,
    delta_kz,
    solve_phasematch_temperature,
    solve_poling_period,
)
from .scenario import (
    Scenario,
    build_system,
    load_scenario,
    reproduce_fig3,
    run_scenario,
)
from .spdc import (
    GridSpec,
    PupilSpec,
    SpdcConfig,
    SpectralAmplitude,
    apply_spectral_phase,
    bandwidth_fwhm_nm,
    kernel_amplitude,
    quadrature_refine,
    write_spectrum_csv,
)
from .units import omega_from_wavelength_nm, wavelength_nm_from_omega
