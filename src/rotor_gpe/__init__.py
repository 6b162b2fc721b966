"""rotor-gpe: simulation and verification lab for the critically rotating Gross-Pitaevskii equation.

The model is the 3D cubic Gross-Pitaevskii equation in an isotropic
harmonic trap that rotates about the x3 axis at exactly the trap
frequency.  The package provides two independent linear propagator
backends (a dense closed-form kernel quadrature and a fast split-step
spectral method), Galilean-type dressed operators with their chirp
factorizations, conservation-law diagnostics, a windowed nonlinear
solver, and a Duhamel fixed-point solver, plus a CLI that drives
verification batteries against closed-form references.
"""

from .config import RunConfig, build_initial_field, load_config, parse_config
from .diagnostics import (
    CSV_HEADER,
    DiagnosticsRecord,
    drift_report,
    energy_e0,
    energy_terms,
    lz_expectation,
    mass,
    pseudo_conformal,
    record,
    write_csv,
)
from .errors import (
    AliasRisk,
    BlowupDetected,
    BoundaryTruncation,
    ConfigInvalid,
    GridTooLarge,
    InvalidExponent,
    NoContraction,
    QFactorizationSingular,
    ResolutionTooLow,
    RotorGpeError,
    SnapshotFormatError,
    WindowViolation,
)
from .galilean import (
    angular_momentum,
    chirp_pair,
    galilean_momentum,
    galilean_momentum_chirped,
    galilean_position,
    galilean_position_chirped,
    momentum_defect,
    position_defect,
)
from .grid import (
    Field,
    GridSpec,
    PhysicsParams,
    boundary_mass_fraction,
    fft_forward,
    fft_inverse,
    gradient_arrays,
    inner,
    laplacian_array,
    lp_norm,
    norms,
    pairing,
    spectral_gradient,
)
from .propagator import (
    DEFAULT_OVERSAMPLE,
    ORACLE_SIZE_CAP,
    DispersiveScan,
    KernelMatrices,
    compose_propagators,
    default_scan_pairs,
    dispersive_scan,
    kernel_matrices,
    propagate,
    propagate_dual,
    propagate_fast,
    propagate_inverse,
    propagate_oracle,
    strichartz_exponent,
    strichartz_ratio,
)
from .snapshots import read_snapshot, write_snapshot
from .solver import (
    EvolveResult,
    PicardConfig,
    PicardResult,
    SolverConfig,
    TrajectoryState,
    evolve,
    initial_state,
    nonlinear_phase,
    picard_solve,
    strang_step,
    workspace_distance,
)
from .states import (
    STATE_KINDS,
    classical_orbit,
    coherent_state,
    exact_linear_evolution,
    generator_apply,
    generator_expectation,
    ground_state,
    make_state,
    random_smooth_field,
    vortex_state,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    # grid-field
    "Field",
    "GridSpec",
    "PhysicsParams",
    "inner",
    "pairing",
    "lp_norm",
    "norms",
    "fft_forward",
    "fft_inverse",
    "gradient_arrays",
    "laplacian_array",
    "spectral_gradient",
    "boundary_mass_fraction",
    # errors
    "RotorGpeError",
    "ConfigInvalid",
    "WindowViolation",
    "GridTooLarge",
    "InvalidExponent",
    "QFactorizationSingular",
    "ResolutionTooLow",
    "BlowupDetected",
    "NoContraction",
    "SnapshotFormatError",
    "AliasRisk",
    "BoundaryTruncation",
    # states
    "STATE_KINDS",
    "ground_state",
    "vortex_state",
    "coherent_state",
    "make_state",
    "random_smooth_field",
    "classical_orbit",
    "exact_linear_evolution",
    "generator_apply",
    "generator_expectation",
    # propagator
    "ORACLE_SIZE_CAP",
    "DEFAULT_OVERSAMPLE",
    "KernelMatrices",
    "DispersiveScan",
    "kernel_matrices",
    "propagate",
    "propagate_fast",
    "propagate_oracle",
    "propagate_dual",
    "propagate_inverse",
    "compose_propagators",
    "dispersive_scan",
    "default_scan_pairs",
    "strichartz_exponent",
    "strichartz_ratio",
    # galilean
    "angular_momentum",
    "galilean_momentum",
    "galilean_position",
    "galilean_momentum_chirped",
    "galilean_position_chirped",
    "chirp_pair",
    "momentum_defect",
    "position_defect",
    # diagnostics
    "CSV_HEADER",
    "DiagnosticsRecord",
    "mass",
    "energy_terms",
    "energy_e0",
    "lz_expectation",
    "pseudo_conformal",
    "record",
    "drift_report",
    "write_csv",
    # solver
    "PicardConfig",
    "SolverConfig",
    "TrajectoryState",
    "EvolveResult",
    "PicardResult",
    "initial_state",
    "nonlinear_phase",
    "strang_step",
    "evolve",
    "picard_solve",
    "workspace_distance",
    # snapshots / config
    "read_snapshot",
    "write_snapshot",
    "RunConfig",
    "load_config",
    "parse_config",
    "build_initial_field",
]
