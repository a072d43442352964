"""Numerical laboratory for the killed nonlocal heat equation with negative
singular potentials: discretize the form, evolve the truncated problems,
certify the discrete inequalities, classify existence versus blow-up."""

from .assembly import (
    OperatorMatrix,
    assemble_operator,
    killing_density,
    normalization_constant,
)
from .config import ExperimentConfig, load_config, validate_config
from .diagnostics import (
    BLOW_UP,
    EXISTS,
    INCONCLUSIVE,
    Certificate,
    ClassifierThresholds,
    Verdict,
    classify,
    energy_inequality_all_pairs,
    energy_inequality_certificate,
    exponential_bound_certificate,
    ground_state_comparability,
    log_estimate_certificate,
    shrinking_ball_certificate,
)
from .errors import (
    AllocationError,
    BallTooSmall,
    ConfigError,
    ConvergenceFailure,
    DimensionMismatch,
    DomainError,
    EmptyGrid,
    FracheatError,
    InsufficientEvidence,
    MissingLibrary,
    NonpositiveState,
    SingularNode,
    SolveFailure,
    StepTooLarge,
)
from .evolution import (
    ImplicitStepper,
    Trajectory,
    duhamel_residual,
    evolve,
    initial_state,
    monotone_family,
)
from .geometry import DomainSpec, Grid, boundary_distance, build_grid, orbit_table
from .potentials import (
    PotentialSpec,
    hardy_sharp_constant,
    sample_potential,
    truncate,
)
from .runner import run_experiment
from .spectral import (
    MeshLevel,
    SpectralEntry,
    SpectralResult,
    SpectralSeries,
    estimate_boundary_hardy_constant,
    refinement_series,
    spectral_bottom,
)

__version__ = "0.1.0"
