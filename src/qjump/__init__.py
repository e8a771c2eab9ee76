"""Stochastic pure-state simulation of Markovian open quantum systems.

The density-operator master equation is unraveled into an ensemble of
pure-state trajectories: a deterministic nonlinear flow interrupted by
random jumps into the eigenvectors of a transition rate operator.
Averaging the trajectory projectors recovers the master equation
solution; the ensemble module quantifies how fast.
"""

from .config import RunConfig, parse_config
from .ensemble import (
    ConvergenceReport,
    EnsembleConfig,
    ensemble_density,
    master_evolve,
    master_step,
    run_ensemble,
    single_step_equivalence_test,
    write_convergence_csv,
)
from .errors import (
    ConfigError,
    DimensionMismatch,
    EmptyChannels,
    EmptyEnsemble,
    InvalidGenerator,
    NegativeRate,
    NonHermitianInput,
    ParseError,
    PositivityLost,
    QJumpError,
    StepTooLarge,
    ValidationError,
)
from .generator import (
    GeneratorReport,
    GeneratorSpec,
    apply_generator,
    density_defects,
    validate_generator,
)
from .linalg import (
    expectation,
    fix_phase,
    hermiticity_defect,
    normalize,
    outer,
    trace_distance,
)
from .oscillator import (
    OscillatorParams,
    build_operators,
    closed_form_channels,
    coherent_state,
    fock_state,
    hasse_defect,
    minimize_hasse_defect,
    oscillator_generator,
    sigma,
    squeezed_vacuum,
)
from .trajectory import (
    JumpEvent,
    TrajectoryConfig,
    TrajectoryRecord,
    run_trajectory,
    trajectory_rng,
    write_event_log,
)
from .unraveling import (
    JumpChannel,
    RateReport,
    frictional_rhs,
    jump_channels,
    modified_rate_operator,
    total_decay_rate,
    transition_rate_operator,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "ConvergenceReport",
    "DimensionMismatch",
    "EmptyChannels",
    "EmptyEnsemble",
    "EnsembleConfig",
    "GeneratorReport",
    "GeneratorSpec",
    "InvalidGenerator",
    "JumpChannel",
    "JumpEvent",
    "NegativeRate",
    "NonHermitianInput",
    "OscillatorParams",
    "ParseError",
    "PositivityLost",
    "QJumpError",
    "RateReport",
    "RunConfig",
    "StepTooLarge",
    "TrajectoryConfig",
    "TrajectoryRecord",
    "ValidationError",
    "apply_generator",
    "build_operators",
    "closed_form_channels",
    "coherent_state",
    "density_defects",
    "ensemble_density",
    "expectation",
    "fix_phase",
    "fock_state",
    "frictional_rhs",
    "hasse_defect",
    "hermiticity_defect",
    "jump_channels",
    "master_evolve",
    "master_step",
    "minimize_hasse_defect",
    "modified_rate_operator",
    "normalize",
    "oscillator_generator",
    "outer",
    "parse_config",
    "run_ensemble",
    "run_trajectory",
    "sigma",
    "single_step_equivalence_test",
    "squeezed_vacuum",
    "total_decay_rate",
    "trace_distance",
    "trajectory_rng",
    "transition_rate_operator",
    "validate_generator",
    "write_convergence_csv",
    "write_event_log",
]
