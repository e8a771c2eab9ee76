"""Generator contraction checks against hand oracles and an independent form.

The reference form used in test_matches_standard_dissipator_form is the
standard dissipator sum gamma_ab (A_a rho A_b - {A_b A_a, rho}/2) with
gamma = (2/hbar^2) D plus the Hamiltonian shift sum_{a<b} (Im D_ab/hbar)
{A_a, A_b}; equality of the two expansions is an algebraic identity, so
any coding slip on either side shows up as disagreement here.
"""

import numpy as np
import pytest

from qjump.errors import DimensionMismatch, InvalidGenerator
from qjump.generator import (
    CheckItem,
    GeneratorSpec,
    apply_generator,
    random_hermitian,
    validate_generator,
)
from qjump.linalg import outer

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)
NO_COUPLINGS = ((), np.zeros((0, 0)))


def spec_2level(d11=0.5):
    return GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[d11]])


def random_spec(dim, n_couplings, rng, hbar=1.0):
    ham = random_hermitian(dim, rng)
    coups = tuple(random_hermitian(dim, rng) for _ in range(n_couplings))
    raw = rng.standard_normal((n_couplings, n_couplings)) + 1j * rng.standard_normal((n_couplings, n_couplings))
    coeff = raw @ raw.conj().T  # positive semidefinite by construction
    return GeneratorSpec(hamiltonian=ham, couplings=coups, coeff=coeff, hbar=hbar)


def test_pure_hamiltonian_commutator():
    # L[rho] = -i [sz, rho]; for rho = |+><+| this is [[0, -i], [i, 0]]
    spec = GeneratorSpec(hamiltonian=SZ, couplings=(), coeff=np.zeros((0, 0)))
    rho = 0.5 * np.ones((2, 2), dtype=np.complex128)
    expected = np.array([[0.0, -1.0j], [1.0j, 0.0]])
    assert np.max(np.abs(apply_generator(spec, rho) - expected)) < 1e-14


def test_pure_diffusion_double_commutator():
    # L[rho] = -D11 [sx, [sx, rho]]; for rho = |0><0| this is D11 diag(-2, 2)
    spec = spec_2level(d11=0.5)
    rho = outer(np.array([1.0, 0.0]))
    expected = np.diag([-1.0, 1.0]).astype(np.complex128)
    assert np.max(np.abs(apply_generator(spec, rho) - expected)) < 1e-14


def test_hbar_scaling():
    # doubling hbar quarters the diffusion term when H = 0
    rho = outer(np.array([1.0, 0.0]))
    ref = apply_generator(spec_2level(), rho)
    scaled = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[0.5]], hbar=2.0)
    assert np.max(np.abs(apply_generator(scaled, rho) - 0.25 * ref)) < 1e-14


def test_linearity():
    rng = np.random.default_rng(0)
    spec = random_spec(5, 2, rng)
    a = random_hermitian(5, rng)
    b = random_hermitian(5, rng)
    lhs = apply_generator(spec, 0.3 * a + 1.7 * b)
    rhs = 0.3 * apply_generator(spec, a) + 1.7 * apply_generator(spec, b)
    assert np.max(np.abs(lhs - rhs)) < 1e-12


def test_trace_free_and_hermiticity_preserving():
    rng = np.random.default_rng(1)
    for dim, k in [(2, 1), (4, 2), (6, 3)]:
        spec = random_spec(dim, k, rng)
        for _ in range(5):
            image = apply_generator(spec, random_hermitian(dim, rng))
            assert abs(np.trace(image)) < 1e-12
            assert np.max(np.abs(image - image.conj().T)) < 1e-12


def test_matches_standard_dissipator_form():
    rng = np.random.default_rng(7)
    for dim, k in [(3, 2), (6, 3)]:
        spec = random_spec(dim, k, rng, hbar=0.7)
        hbar = spec.hbar
        gamma = 2.0 / hbar**2 * spec.coeff
        for _ in range(5):
            rho = random_hermitian(dim, rng)
            ham = np.array(spec.hamiltonian)
            for a in range(k):
                for b in range(a + 1, k):
                    aa, ab = spec.couplings[a], spec.couplings[b]
                    ham = ham + spec.coeff[a, b].imag / hbar * (aa @ ab + ab @ aa)
            ref = -1j / hbar * (ham @ rho - rho @ ham)
            for a in range(k):
                for b in range(k):
                    aa, ab = spec.couplings[a], spec.couplings[b]
                    ref = ref + gamma[a, b] * (aa @ rho @ ab - 0.5 * (ab @ aa @ rho + rho @ ab @ aa))
            assert np.max(np.abs(apply_generator(spec, rho) - ref)) < 1e-12


def test_validate_generator_passes_on_valid_spec():
    rng = np.random.default_rng(2)
    report = validate_generator(random_spec(4, 2, rng))
    assert report.passed
    names = [c.name for c in report.checks]
    assert "probe_trace_free" in names
    assert "coeff_positive_semidefinite" in names


def test_validate_generator_flags_non_hermitian_hamiltonian():
    spec = GeneratorSpec(
        hamiltonian=np.array([[0.0, 1.0], [0.0, 0.0]]),
        couplings=(),
        coeff=np.zeros((0, 0)),
        strict=False,
    )
    report = validate_generator(spec)
    failed = {c.name for c in report.checks if not c.passed}
    assert "hamiltonian_hermitian" in failed


def test_validate_generator_flags_indefinite_coeff():
    spec = GeneratorSpec(
        hamiltonian=np.zeros((2, 2)),
        couplings=(SX, SZ),
        coeff=np.array([[0.0, 0.5j], [-0.5j, 0.0]]),
        strict=False,
    )
    report = validate_generator(spec)
    failed = {c.name for c in report.checks if not c.passed}
    assert "coeff_positive_semidefinite" in failed
    assert "[FAIL]" in report.summary()


def test_strict_construction_rejects_indefinite_coeff():
    with pytest.raises(InvalidGenerator):
        GeneratorSpec(
            hamiltonian=np.zeros((2, 2)),
            couplings=(SX, SZ),
            coeff=np.array([[0.0, 0.5j], [-0.5j, 0.0]]),
        )


def test_invariant_violation_is_the_first_failing_check_line():
    spec = GeneratorSpec(
        hamiltonian=np.zeros((2, 2)),
        couplings=(SX, SZ),
        coeff=np.array([[0.0, 0.5j], [-0.5j, 0.0]]),
        strict=False,
    )
    first = next(c for c in validate_generator(spec).checks if not c.passed)
    assert spec.invariant_violation() == first.line()
    assert first.line().startswith("[FAIL] coeff_positive_semidefinite: value -5.000e-01")


def test_strict_construction_rejects_nan_hamiltonian():
    with pytest.raises(InvalidGenerator) as info:
        GeneratorSpec(hamiltonian=[[np.nan, 0.0], [0.0, 1.0]], couplings=(), coeff=np.zeros((0, 0)))
    assert str(info.value) == "[FAIL] hamiltonian_hermitian: value nan (threshold 1.0e-10)"


def test_strict_construction_rejects_nan_coeff():
    with pytest.raises(InvalidGenerator) as info:
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[np.nan]])
    assert str(info.value) == "[FAIL] coeff_hermitian: value nan (threshold 1.0e-10)"


def test_validate_generator_reports_nan_coeff_without_raising():
    spec = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[np.nan]], strict=False)
    report = validate_generator(spec)
    assert not report.passed
    assert "[FAIL] coeff_positive_semidefinite: value nan (threshold -1.0e-10)" in report.summary().splitlines()


def test_check_item_fails_on_nan():
    assert CheckItem.at_most("x", 1e-10, 1e-10).passed
    assert not CheckItem.at_most("x", float("nan"), 1e-10).passed
    assert not CheckItem.worst_of("x", [0.0, float("nan"), 1e-12], 1e-10).passed
    assert CheckItem.worst_of("x", [3e-11, 1e-11], 1e-10).value == 3e-11
    assert CheckItem.worst_of("x", [], 1e-10).value == 0.0


def test_shape_mismatches_rejected():
    with pytest.raises(DimensionMismatch):
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(np.zeros((3, 3)),), coeff=[[1.0]])
    with pytest.raises(DimensionMismatch):
        GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=np.zeros((2, 2)))
    spec = spec_2level()
    with pytest.raises(DimensionMismatch):
        apply_generator(spec, np.zeros((3, 3)))


def test_spec_arrays_are_read_only():
    spec = spec_2level()
    with pytest.raises(ValueError):
        spec.hamiltonian[0, 0] = 1.0
