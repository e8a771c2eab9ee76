"""The package's top-level names."""

import qjump

PUBLIC = [
    "GeneratorSpec",
    "OscillatorParams",
    "QJumpError",
    "TrajectoryConfig",
    "fock_state",
    "jump_channels",
    "oscillator_generator",
    "run_trajectory",
]


def test_public_surface_is_pinned():
    assert sorted(qjump.__all__) == PUBLIC
    namespace = {}
    exec("from qjump import *", namespace)
    for name in PUBLIC:
        assert namespace[name] is getattr(qjump, name)
