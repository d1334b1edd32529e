"""Complex-permittivity estimation from stepped-distance radar sweeps.

The package covers the full chain: slab electromagnetics, synthetic
FMCW intermediate-frequency traces, calibrated reflection extraction,
bounded least-squares fitting of the sweep model, Monte-Carlo
benchmarking, and file I/O with a CLI front end.
"""

__version__ = "0.1.0"

from .em import (
    AIR,
    METAL,
    SPEED_OF_LIGHT,
    ComplexPermittivity,
    MetalBacking,
    SlabGeometry,
    complex_sqrt_lossy,
    effective_reflection,
    effective_reflection_truncated,
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

__all__ = [
    "AIR",
    "METAL",
    "SPEED_OF_LIGHT",
    "AliasingError",
    "AllZeroSpectrumError",
    "BenchReport",
    "CalibrationError",
    "ChirpConfig",
    "ComplexPermittivity",
    "DatasetFile",
    "DatasetFormatError",
    "DegenerateDataError",
    "DegenerateGeometryError",
    "DegenerateRegressionError",
    "EchoComponent",
    "FitBounds",
    "FitResult",
    "IfTrace",
    "InfeasibleFitError",
    "MetalBacking",
    "NoConvergenceError",
    "NoiseModel",
    "PermslabError",
    "ReportFile",
    "SdiDataset",
    "SlabGeometry",
    "TrialRecord",
    "TruthSummary",
    "benchmark_chirp",
    "calibrate_ratio",
    "complex_sqrt_lossy",
    "dft",
    "effective_reflection",
    "effective_reflection_truncated",
    "extract_sweep",
    "fit_ideal",
    "fit_permittivity",
    "fraunhofer_distance",
    "fresnel_normal",
    "front_face_reflection",
    "generate_dataset",
    "generate_if_datasets",
    "jacobian",
    "model_gamma",
    "peak_bin",
    "phase_slope_diagnostic",
    "residuals",
    "run_sweep",
    "step_phase_advance",
    "synth_if_trace",
    "synth_slab_echoes",
    "wrap_phase",
]
