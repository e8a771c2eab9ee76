"""Configuration parsing and validation, including line-numbered errors."""

import pathlib
import re
import textwrap

import numpy as np
import pytest

from qjump.config import _complex, parse_config
from qjump.errors import ParseError, ValidationError
from qjump.oscillator import coherent_state, occupancy_tail

MINIMAL = textwrap.dedent(
    """
    [model]
    type = damped_oscillator
    N = 20
    D22 = 0.5

    [initial]
    state = fock(0)

    [run]
    dt = 1e-3
    t_final = 1.0
    n_trajectories = 1000
    seed = 42
    """
)


def errors_of(text):
    with pytest.raises(ValidationError) as info:
        parse_config(text)
    return info.value.errors


def test_minimal_config():
    cfg = parse_config(MINIMAL)
    assert cfg.model_type == "damped_oscillator"
    assert cfg.generator.dim == 20
    assert cfg.oscillator.d22 == 0.5
    assert cfg.oscillator.d11 == 0.0
    assert np.array_equal(cfg.initial_state, np.eye(20)[0].astype(np.complex128))
    assert cfg.initial_tail == 0.0
    assert cfg.dt == 1e-3
    assert cfg.t_final == 1.0
    assert cfg.snapshot_times == (1.0,)  # defaults to the final time
    assert cfg.n_trajectories == 1000
    assert cfg.seed == 42
    assert cfg.trajectory_indices == (0,)
    assert cfg.observables == {}
    assert cfg.out_dir == "out"
    assert cfg.dump_density is False


def test_full_oscillator_config():
    text = textwrap.dedent(
        """
        # example with everything spelled out
        [model]
        type = damped_oscillator
        N = 16
        m = 2.0
        omega = 0.5
        hbar = 1.0
        D11 = 0.05
        D22 = 0.2
        ReD12 = 0.0
        ImD12 = 0.1

        [initial]
        state = coherent(0.8-0.3i)

        [run]
        dt = 2e-3
        t_final = 0.5
        snapshot_times = 0.25 0.5
        n_trajectories = 64
        seed = 9
        trajectory_indices = 0 3 5

        [observables]
        names = x p number H0

        [output]
        directory = results
        dump_density = true
        """
    )
    cfg = parse_config(text)
    assert cfg.oscillator.mass == 2.0
    assert cfg.oscillator.friction == pytest.approx(0.2)
    expected = coherent_state(16, 0.8 - 0.3j)
    assert np.max(np.abs(cfg.initial_state - expected)) < 1e-14
    assert cfg.initial_tail == pytest.approx(occupancy_tail(expected))
    assert cfg.snapshot_times == (0.25, 0.5)
    assert cfg.trajectory_indices == (0, 3, 5)
    assert list(cfg.observables) == ["x", "p", "number", "H0"]
    assert cfg.observables["number"][3, 3] == 3.0
    assert cfg.out_dir == "results"
    assert cfg.dump_density is True


def test_explicit_model_config():
    text = textwrap.dedent(
        """
        [model]
        type = explicit
        dim = 2
        hbar = 1.0
        hamiltonian = 0,0 0,0
                      0,0 0,0
        couplings = 1
        coupling_1 = 0,0 1,0 1,0 0,0
        coeff = 0.5,0

        [initial]
        state = explicit
        amplitudes = 2,0 0,0

        [run]
        dt = 1e-2
        t_final = 0.1
        n_trajectories = 10
        seed = 1

        [observables]
        matrix_pop0 = 1,0 0,0 0,0 0,0
        """
    )
    cfg = parse_config(text)
    assert cfg.model_type == "explicit"
    assert cfg.oscillator is None
    assert cfg.generator.n_couplings == 1
    assert np.array_equal(cfg.generator.couplings[0], np.array([[0, 1], [1, 0]], dtype=complex))
    # amplitudes are normalized on the way in
    assert np.array_equal(cfg.initial_state, np.array([1.0, 0.0], dtype=complex))
    assert list(cfg.observables) == ["pop0"]


def test_comments_and_continuations():
    text = MINIMAL.replace("D22 = 0.5", "D22 = 0.5   # position diffusion")
    assert parse_config(text).oscillator.d22 == 0.5


def test_syntax_errors_are_parse_errors():
    bad = "no_section_key = 1\n[model\nwhat\n"
    with pytest.raises(ParseError) as info:
        parse_config(bad)
    lines = [ln for ln, _ in info.value.errors]
    assert lines == [1, 2, 3]


def test_duplicate_key_rejected():
    text = MINIMAL + "\n[run]\nseed = 43\n"
    with pytest.raises(ParseError) as info:
        parse_config(text)
    assert any("duplicate" in msg for _, msg in info.value.errors)


def test_all_validation_errors_collected_with_lines():
    text = textwrap.dedent(
        """\
        [model]
        type = damped_oscillator
        N = 20
        D11 = 0.01
        D22 = 0.01
        ImD12 = 0.5

        [run]
        dt = 1e-3
        t_final = 0.0995
        n_trajectories = 0
        seed = 42
        surprise = 1
        """
    )
    errors = errors_of(text)
    by_line = {ln: msg for ln, msg in errors}
    assert "positive semidefinite" in by_line[1]  # reported at the [model] header
    assert "t_final" in by_line[10]
    assert "n_trajectories" in by_line[11]
    assert "unknown key" in by_line[13]
    # [initial] missing entirely is an error too
    assert any("[initial]" in msg for _, msg in errors)


@pytest.mark.parametrize("index", ["-1", "18446744073709551616"])
def test_trajectory_index_outside_uint64_rejected(index):
    text = MINIMAL.replace("seed = 42", f"seed = 42\ntrajectory_indices = 0 {index}")
    assert errors_of(text) == [(15, f"trajectory index must be in [0, 2^64), got {index}")]


def test_integers_parse_exactly():
    # above 2^53 a float would round: 2^64 - 1 to 2^64, 2^53 + 1 to 2^53
    text = MINIMAL.replace("seed = 42", "seed = 18446744073709551615\ntrajectory_indices = 9007199254740993 1e3 5.0")
    cfg = parse_config(text)
    assert cfg.seed == 2**64 - 1
    assert cfg.trajectory_indices == (2**53 + 1, 1000, 5)
    assert parse_config(MINIMAL.replace("seed = 42", "seed = 9007199254740993")).seed == 2**53 + 1


def test_seed_beyond_uint64_rejected_at_its_line():
    text = MINIMAL.replace("seed = 42", "seed = 18446744073709551616")
    assert errors_of(text) == [(14, "seed must be in [0, 2^64), got 18446744073709551616")]


@pytest.mark.parametrize("value", ["2.5", "inf", "nan"])
def test_non_integral_seed_rejected_at_its_line(value):
    text = MINIMAL.replace("seed = 42", f"seed = {value}")
    assert errors_of(text) == [(14, f"'seed': expected an integer: {value!r} is not an integer")]


def test_repeated_trajectory_index_rejected():
    text = MINIMAL.replace("seed = 42", "seed = 42\ntrajectory_indices = 0 3 0")
    assert errors_of(text) == [(15, "trajectory index 0 is listed twice")]


def test_empty_trajectory_indices_rejected():
    text = MINIMAL.replace("seed = 42", "seed = 42\ntrajectory_indices =")
    assert errors_of(text) == [(15, "'trajectory_indices': expected a list of integers: empty value")]


def test_fock_out_of_range():
    text = MINIMAL.replace("fock(0)", "fock(20)")
    assert any("fock(20)" in msg for _, msg in errors_of(text))


def test_snapshot_off_grid():
    text = MINIMAL.replace("t_final = 1.0", "t_final = 1.0\nsnapshot_times = 0.0005")
    assert any("snapshot" in msg for _, msg in errors_of(text))


def test_unknown_section_and_model_type():
    text = MINIMAL.replace("[run]", "[mystery]\nx = 1\n\n[run]")
    assert any("unknown section" in msg for _, msg in errors_of(text))
    text = MINIMAL.replace("damped_oscillator", "pendulum")
    assert any("pendulum" in msg for _, msg in errors_of(text))


def test_coherent_requires_oscillator_model():
    text = textwrap.dedent(
        """
        [model]
        type = explicit
        dim = 2
        hamiltonian = 0,0 0,0 0,0 0,0
        couplings = 0

        [initial]
        state = coherent(1.0)

        [run]
        dt = 1e-2
        t_final = 0.1
        n_trajectories = 1
        seed = 0
        """
    )
    assert any("damped_oscillator" in msg for _, msg in errors_of(text))


def test_explicit_model_invariants_checked_at_their_lines():
    text = textwrap.dedent(
        """\
        [model]
        type = explicit
        dim = 2
        hamiltonian = 0,0 1,0 0,0 0,0
        couplings = 1
        coupling_1 = 0,0 1,0 1,0 0,0
        coeff = -1,0

        [initial]
        state = fock(0)

        [run]
        dt = 1e-2
        t_final = 0.1
        n_trajectories = 1
        seed = 0
        """
    )
    errors = errors_of(text)
    by_line = {ln: msg for ln, msg in errors}
    assert "hamiltonian_hermitian" in by_line[4]
    assert "coeff_positive_semidefinite" in by_line[7]


def test_non_hermitian_observable_rejected():
    text = MINIMAL + "\n[observables]\nmatrix_bad = " + " ".join(["0,1"] * 400) + "\n"
    assert any("not Hermitian" in msg for _, msg in errors_of(text))


def test_non_finite_diffusion_reported_at_model_header():
    errors = errors_of(MINIMAL.replace("D22 = 0.5", "D22 = nan"))
    assert errors == [
        (2, "invalid damped_oscillator model: diffusion matrix is not positive semidefinite (min eigenvalue nan)")
    ]


def test_non_finite_oscillator_constant_reported_at_model_header():
    # infinite mass makes p infinite; the strict generator check rejects it
    errors = errors_of(MINIMAL.replace("N = 20", "N = 20\nm = inf"))
    assert errors == [(2, "invalid damped_oscillator model: [FAIL] coupling_1_hermitian: value nan (threshold 1.0e-10)")]


def test_nan_observable_rejected():
    text = MINIMAL + "\n[observables]\nmatrix_bad = nan,0 " + " ".join(["0,0"] * 399) + "\n"
    assert errors_of(text) == [(17, "observable 'bad' is not Hermitian (defect nan)")]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_dt_rejected_on_its_line(value):
    text = MINIMAL.replace("dt = 1e-3", f"dt = {value}")
    assert errors_of(text) == [(11, f"dt must be positive and finite, got {value}")]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_t_final_rejected(value):
    text = MINIMAL.replace("t_final = 1.0", f"t_final = {value}")
    assert errors_of(text) == [(12, f"t_final {value} is not a positive integer multiple of dt 0.001")]


@pytest.mark.parametrize(
    "state, message",
    [
        ("coherent(nan)", "coherent amplitude (nan+0j) is not finite"),
        ("coherent(1+nani)", "coherent amplitude (1+nanj) is not finite"),
        ("coherent(inf)", "coherent amplitude (inf+0j) is not finite"),
        ("coherent(1+infi)", "coherent amplitude (1+infj) is not finite"),
        ("coherent(1e200)", "coherent amplitude (1e+200+0j) is too large for dimension 20"),
        ("coherent(1e5)", "coherent amplitude (100000+0j) is too large for dimension 20"),
    ],
)
def test_unrepresentable_coherent_state_rejected(state, message):
    assert errors_of(MINIMAL.replace("fock(0)", state)) == [(8, message)]


@pytest.mark.parametrize(
    "text, value",
    [("1+2i", 1 + 2j), ("2.5i", 2.5j), ("1+infi", complex(1.0, np.inf)), ("inf", complex(np.inf, 0.0))],
)
def test_complex_values_parse(text, value):
    # i is the imaginary unit only at the end, so inf stays readable
    assert _complex(text) == value


EXPLICIT_STATE = textwrap.dedent(
    """\
    [model]
    type = explicit
    dim = 3
    hamiltonian = 0,0 1,0 0,0 1,0 0,0 1,0 0,0 1,0 0,0
    couplings = 1
    coupling_1 = 1,0 0,0 0,0 0,0 0,0 0,0 0,0 0,0 -1,0
    coeff = 1,0

    [initial]
    state = explicit
    amplitudes = {amplitudes}

    [run]
    dt = 1e-3
    t_final = 0.01
    n_trajectories = 10
    seed = 42
    """
)


@pytest.mark.parametrize(
    "amplitudes, message",
    [
        ("nan,0 0.5,0.5 0,1", "'amplitudes': every amplitude must be finite"),
        ("0,0 0,inf 0,1", "'amplitudes': every amplitude must be finite"),
        ("1e300,0 1e300,0 0,0", "initial state norm overflows; scale the amplitudes down"),
        ("1e-200,0 0,0 0,0", "initial state norm 0.000e+00 is too small to normalize"),
    ],
)
def test_unnormalizable_explicit_amplitudes_rejected(amplitudes, message):
    assert errors_of(EXPLICIT_STATE.format(amplitudes=amplitudes)) == [(11, message)]


def test_overrides():
    cfg = parse_config(MINIMAL)
    changed = cfg.with_overrides(out_dir="elsewhere", seed=7)
    assert changed.out_dir == "elsewhere"
    assert changed.seed == 7
    assert cfg.seed == 42  # original untouched
    with pytest.raises(ValidationError):
        cfg.with_overrides(seed=-1)


def test_readme_config_example_parses():
    readme = (pathlib.Path(__file__).resolve().parents[1] / "README.md").read_text()
    (text,) = re.findall(r"^```ini\n(.*?)^```", readme, flags=re.DOTALL | re.MULTILINE)
    cfg = parse_config(text)
    assert cfg.generator.dim == 20
    assert list(cfg.observables) == ["x", "p", "number", "H0"]
    assert cfg.snapshot_times == (0.25, 0.5, 1.0)
    assert cfg.trajectory_indices == (0, 1, 2)
