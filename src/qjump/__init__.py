"""Stochastic pure-state simulation of Markovian open quantum systems.

The density-operator master equation is unraveled into an ensemble of
pure-state trajectories: a deterministic nonlinear flow interrupted by
random jumps into the eigenvectors of a transition rate operator.
Averaging the trajectory projectors recovers the master equation
solution; the ensemble module quantifies how fast.

The top level carries the names of the README's library example plus
GeneratorSpec and QJumpError; everything else is imported from its
submodule (qjump.ensemble, qjump.unraveling, qjump.oscillator, ...).
"""

from .errors import QJumpError
from .generator import GeneratorSpec
from .oscillator import OscillatorParams, fock_state, oscillator_generator
from .trajectory import TrajectoryConfig, run_trajectory
from .unraveling import jump_channels

__version__ = "0.1.0"

__all__ = [
    "GeneratorSpec",
    "OscillatorParams",
    "QJumpError",
    "TrajectoryConfig",
    "fock_state",
    "jump_channels",
    "oscillator_generator",
    "run_trajectory",
]
