"""Oscillator model checks: operator construction, moments, closed forms.

Natural units (hbar = m = omega = 1) throughout, so sigma_xx = sigma_pp
= 1/2 in the ground state and (2n+1)/2 in fock(n), and a squeeze by r
maps them to e^{-2r}/2 and e^{+2r}/2.
"""

import numpy as np
import pytest

from qjump.errors import DimensionMismatch, InvalidGenerator
from qjump.generator import apply_generator
from qjump.linalg import expectation, normalize, outer
from qjump.oscillator import (
    OscillatorParams,
    build_operators,
    closed_form_channels,
    closed_form_rate_operator,
    coherent_state,
    fock_state,
    frictional_hamiltonian,
    frictional_rhs_closed_form,
    generator_reference,
    hasse_defect,
    is_truncation_safe,
    ladder,
    minimize_hasse_defect,
    occupancy_tail,
    oscillator_generator,
    random_truncation_safe_state,
    sigma,
    squeezed_vacuum,
)
from qjump.unraveling import (
    frictional_rhs,
    jump_channels,
    modified_rate_operator,
    total_decay_rate,
)

DIFFUSION = OscillatorParams(levels=20, d22=0.5)
# rank-1 diffusion matrix with friction lambda = 0.2; its Hasse defect
# 0.025 e^{2r} + 0.1 e^{-2r} - 0.1 vanishes at the squeeze r = ln(2)/2
TUNED = OscillatorParams(levels=20, d11=0.05, d22=0.2, im_d12=0.1)
FULL = OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)


def test_ladder_matrix():
    a = ladder(3)
    expected = np.array([[0, 1, 0], [0, 0, np.sqrt(2)], [0, 0, 0]], dtype=np.complex128)
    assert np.array_equal(a, expected)


def test_operators_small_matrix():
    h0, x, p = build_operators(OscillatorParams(levels=2))
    r = 1.0 / np.sqrt(2.0)
    assert np.allclose(x, [[0, r], [r, 0]], atol=1e-15)
    assert np.allclose(p, [[0, -1j * r], [1j * r, 0]], atol=1e-15)
    assert np.array_equal(h0, np.diag([0.5, 1.5]).astype(np.complex128))


def test_h0_spectrum_exact():
    h0, _, _ = build_operators(OscillatorParams(levels=30, omega=2.0, hbar=0.5))
    expected = 0.5 * 2.0 * (np.arange(30) + 0.5)
    assert np.array_equal(np.diag(h0).real, expected)


def test_canonical_commutator_below_truncation_edge():
    params = OscillatorParams(levels=10, hbar=0.7)
    _, x, p = build_operators(params)
    comm = x @ p - p @ x
    expected = 1j * 0.7 * np.eye(10, dtype=np.complex128)
    # the truncated ladder breaks the commutator only in the top corner
    expected[-1, -1] = 1j * 0.7 * (1.0 - 10)
    assert np.max(np.abs(comm - expected)) < 1e-13


def test_ground_state_moments():
    psi = fock_state(20, 0)
    _, x, p = build_operators(DIFFUSION)
    assert expectation(x @ x, psi).real == pytest.approx(0.5, abs=1e-14)
    sig = sigma(psi, x, p)
    expected = np.array([[0.5, -0.5j], [0.5j, 0.5]])
    assert np.max(np.abs(sig - expected)) < 1e-14


@pytest.mark.parametrize("n", [0, 1, 4, 9])
def test_fock_state_variances(n):
    psi = fock_state(20, n)
    _, x, p = build_operators(DIFFUSION)
    sig = sigma(psi, x, p)
    assert sig[0, 0].real == pytest.approx((2 * n + 1) / 2.0, abs=1e-13)
    assert sig[1, 1].real == pytest.approx((2 * n + 1) / 2.0, abs=1e-13)
    assert sig[0, 1].imag == pytest.approx(-0.5, abs=1e-13)


def test_coherent_state_displacement():
    alpha = 0.9 - 0.4j
    psi = coherent_state(30, alpha)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    _, x, p = build_operators(OscillatorParams(levels=30))
    assert expectation(x, psi).real == pytest.approx(np.sqrt(2.0) * alpha.real, abs=1e-10)
    assert expectation(p, psi).real == pytest.approx(np.sqrt(2.0) * alpha.imag, abs=1e-10)
    number = np.diag(np.arange(30)).astype(np.complex128)
    assert expectation(number, psi).real == pytest.approx(abs(alpha) ** 2, abs=1e-10)
    # displacement leaves the second moments at their vacuum values
    sig = sigma(psi, x, p)
    assert np.max(np.abs(sig - np.array([[0.5, -0.5j], [0.5j, 0.5]]))) < 1e-8


def test_coherent_state_zero_is_ground():
    assert np.array_equal(coherent_state(12, 0.0), fock_state(12, 0))


@pytest.mark.parametrize("r", [-0.3, 0.0, 0.2, 0.4])
def test_squeezed_vacuum_variances(r):
    psi = squeezed_vacuum(20, r)
    assert np.linalg.norm(psi) == pytest.approx(1.0, abs=1e-14)
    _, x, p = build_operators(DIFFUSION)
    sig = sigma(psi, x, p)
    assert sig[1, 1].real == pytest.approx(0.5 * np.exp(-2.0 * r), abs=1e-7)
    assert sig[0, 0].real == pytest.approx(0.5 * np.exp(2.0 * r), abs=1e-7)


def test_squeezed_vacuum_zero_is_ground():
    assert np.max(np.abs(squeezed_vacuum(20, 0.0) - fock_state(20, 0))) < 1e-15


def test_squeezed_vacuum_is_the_scipy_exponential():
    # squeezed_vacuum imports scipy on first use; the state is unchanged by that
    from scipy.linalg import expm

    a = ladder(20)
    gen = 0.5 * 0.3 * (a @ a - a.conj().T @ a.conj().T)
    expected = normalize(expm(gen) @ fock_state(20, 0))
    assert squeezed_vacuum(20, 0.3).tobytes() == expected.tobytes()


def test_fock_state_bounds():
    with pytest.raises(DimensionMismatch):
        fock_state(5, 5)
    with pytest.raises(DimensionMismatch):
        fock_state(5, -1)


def test_params_validation():
    with pytest.raises(InvalidGenerator):
        OscillatorParams(levels=1)
    with pytest.raises(InvalidGenerator):
        OscillatorParams(mass=0.0)
    with pytest.raises(InvalidGenerator):
        OscillatorParams(d11=0.01, d22=0.01, im_d12=0.5)  # |D12|^2 > D11 D22
    with pytest.warns(UserWarning):
        OscillatorParams(d11=0.5, d22=0.5, im_d12=-0.2)
    assert TUNED.friction == pytest.approx(0.2)


@pytest.mark.parametrize("field,bad", [("d22", np.nan), ("re_d12", np.nan), ("im_d12", np.inf)])
def test_params_reject_non_finite_diffusion(field, bad):
    with pytest.raises(InvalidGenerator, match="positive semidefinite"):
        OscillatorParams(**{field: bad})


def test_generator_dual_route():
    # generic contraction vs literal friction + diffusion commutators
    rng = np.random.default_rng(0)
    for params in (DIFFUSION, TUNED, FULL):
        spec = oscillator_generator(params)
        for _ in range(5):
            mat = rng.standard_normal((20, 20)) + 1j * rng.standard_normal((20, 20))
            rho = mat + mat.conj().T
            diff = apply_generator(spec, rho) - generator_reference(params, rho)
            assert np.max(np.abs(diff)) < 1e-12


def test_closed_form_rate_operator_matches_generic():
    rng = np.random.default_rng(5)
    for params in (DIFFUSION, TUNED, FULL):
        spec = oscillator_generator(params)
        for _ in range(5):
            psi = random_truncation_safe_state(20, rng)
            generic = modified_rate_operator(spec, psi)
            closed = closed_form_rate_operator(psi, params)
            assert np.max(np.abs(generic - closed)) < 1e-10


def test_closed_form_channels_match_generic():
    rng = np.random.default_rng(6)
    for params, expected_count in ((DIFFUSION, 1), (FULL, 2)):
        spec = oscillator_generator(params)
        for _ in range(5):
            psi = random_truncation_safe_state(20, rng)
            generic = jump_channels(spec, psi)
            closed = closed_form_channels(psi, params)
            assert len(generic.channels) == expected_count
            assert len(closed.channels) == expected_count
            assert closed.total == pytest.approx(generic.total, abs=1e-10)
            for g, c in zip(generic.channels, closed.channels):
                assert c.rate == pytest.approx(g.rate, abs=1e-10)
                assert abs(np.vdot(c.target, g.target)) >= 1.0 - 1e-8


def test_closed_form_flow_matches_generic():
    rng = np.random.default_rng(7)
    for params in (DIFFUSION, TUNED, FULL):
        spec = oscillator_generator(params)
        for _ in range(5):
            psi = random_truncation_safe_state(20, rng)
            diff = frictional_rhs(spec, psi) - frictional_rhs_closed_form(params, psi)
            assert np.max(np.abs(diff)) < 1e-12


def test_frictional_hamiltonian_generates_flow():
    rng = np.random.default_rng(8)
    for params in (TUNED, FULL):
        h0, _, _ = build_operators(params)
        for _ in range(5):
            psi = random_truncation_safe_state(20, rng)
            h_fr = frictional_hamiltonian(params, psi)
            mean_h = expectation(h0, psi).real
            rhs = (-1j / params.hbar) * (h_fr @ psi - mean_h * psi)
            assert np.max(np.abs(rhs - frictional_rhs_closed_form(params, psi))) < 1e-12


def test_hasse_defect_sets_decay_rate():
    rng = np.random.default_rng(9)
    for params in (DIFFUSION, TUNED, FULL):
        spec = oscillator_generator(params)
        for _ in range(5):
            psi = random_truncation_safe_state(20, rng)
            w = total_decay_rate(spec, psi)
            defect = hasse_defect(psi, params)
            assert 2.0 / params.hbar**2 * defect == pytest.approx(w, abs=1e-10)


def test_hasse_defect_ground_state_oracle():
    # D22-only model: defect = D22 sigma_xx = 0.5 * 0.5
    assert hasse_defect(fock_state(20, 0), DIFFUSION) == pytest.approx(0.25, abs=1e-12)


def test_tuned_model_defect_vanishes_at_known_squeeze():
    r_star = 0.5 * np.log(2.0)
    psi = squeezed_vacuum(20, r_star)
    assert abs(hasse_defect(psi, TUNED)) < 1e-7


def test_minimize_hasse_defect_finds_tuned_squeeze():
    psi, r, defect = minimize_hasse_defect(TUNED)
    assert r == pytest.approx(0.5 * np.log(2.0), abs=1e-4)
    assert abs(defect) <= 1e-6
    assert is_truncation_safe(psi)
    # jump-free state: the decay rate closes down with the defect
    assert total_decay_rate(oscillator_generator(TUNED), psi) <= 2.0 * 1e-6 * 2.0


def test_pure_diffusion_defect_stays_positive():
    # without friction there is nothing to cancel the diffusion contraction
    _, r, defect = minimize_hasse_defect(DIFFUSION)
    assert defect > 0.1
    for r_probe in np.linspace(-0.45, 0.45, 19):
        assert hasse_defect(squeezed_vacuum(20, r_probe), DIFFUSION) > 0.1


def test_truncation_helpers():
    rng = np.random.default_rng(10)
    psi = random_truncation_safe_state(20, rng)
    assert occupancy_tail(psi) == 0.0
    assert is_truncation_safe(psi)
    top = fock_state(20, 19)
    assert occupancy_tail(top) == 1.0
    assert not is_truncation_safe(top)
    with pytest.raises(DimensionMismatch):
        random_truncation_safe_state(20, rng, support=19)
