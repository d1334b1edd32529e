"""Complex-permittivity estimation from stepped-distance radar sweeps.

The package covers the full chain: slab electromagnetics, synthetic
FMCW intermediate-frequency traces, calibrated reflection extraction,
the closed-form fit of the sweep model, the bounded least-squares fit of
the known-geometry model (``fit_ideal``), Monte-Carlo benchmarking, and
file I/O with a CLI front end.

The public surface is what this module imports: ``__all__`` holds every
name bound here that neither starts with an underscore nor is a module,
so ``from permslab import *`` binds no submodule (no ``io`` shadows the
standard library's).
"""

__version__ = "0.1.0"

from types import ModuleType as _ModuleType

from .em import (
    AIR,
    METAL,
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    MetalBacking,
    SlabGeometry,
    complex_sqrt_lossy,
    effective_reflection,
    fraunhofer_distance,
    fresnel_normal,
)
from .errors import (
    AliasingError,
    AllZeroSpectrumError,
    CalibrationError,
    DatasetFormatError,
    DegenerateDataError,
    DegenerateGeometryError,
    DegenerateRegressionError,
    InfeasibleFitError,
    NoConvergenceError,
    PermslabError,
)
from .estimator import (
    FitBounds,
    FitResult,
    SdiDataset,
    fit_ideal,
    fit_permittivity,
    front_face_reflection,
    jacobian,
    model_gamma,
    phase_slope_diagnostic,
    residuals,
    step_phase_advance,
    wrap_phase,
)
from .fmcw import (
    ChirpConfig,
    EchoComponent,
    IfTrace,
    calibrate_ratio,
    dft,
    peak_bin,
    synth_if_trace,
    synth_slab_echoes,
)
from .bench import BenchReport, TrialRecord, TruthSummary, run_sweep
from .io import DatasetFile, ReportFile
from .synth import (
    NoiseModel,
    benchmark_chirp,
    extract_sweep,
    generate_dataset,
    generate_if_datasets,
)

__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
