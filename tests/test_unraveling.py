"""Rate operator and jump channel checks.

Frozen oracles: the two-level flip model (H = 0, A = sx, D = [[1/2]]) has
w = 1 - <sx>^2, and the x-diffusion oscillator (D22 only) decays out of
fock(n) at rate 2 D22 sigma_xx with sigma_xx = (2n+1)/2 in natural units.
"""

import numpy as np
import pytest

from qjump._flow import compile_flow, rhs_block
from qjump.generator import GeneratorSpec, apply_generator, random_hermitian
from qjump.linalg import expectation, normalize, orthonormal_completion, outer
from qjump.oscillator import OscillatorParams, fock_state, oscillator_generator
from qjump.unraveling import (
    RateReport,
    frictional_rhs,
    jump_channels,
    modified_rate_operator,
    total_decay_rate,
    transition_rate_operator,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)

FLIP = GeneratorSpec(hamiltonian=np.zeros((2, 2)), couplings=(SX,), coeff=[[0.5]])
OSC = OscillatorParams(levels=20, d22=0.5)
OSC_SPEC = oscillator_generator(OSC)


def random_state(dim, rng):
    return normalize(rng.standard_normal(dim) + 1j * rng.standard_normal(dim))


def random_spec(dim, n_couplings, rng):
    coups = tuple(random_hermitian(dim, rng) for _ in range(n_couplings))
    raw = rng.standard_normal((n_couplings, n_couplings)) + 1j * rng.standard_normal((n_couplings, n_couplings))
    return GeneratorSpec(
        hamiltonian=random_hermitian(dim, rng),
        couplings=coups,
        coeff=raw @ raw.conj().T,
    )


# explicit 3-level model with two couplings and a complex off-diagonal D
THREE_LEVEL = GeneratorSpec(
    hamiltonian=[[1.0, 0.5 - 0.2j, 0.0], [0.5 + 0.2j, -0.3, 0.7j], [0.0, -0.7j, 0.4]],
    couplings=(
        np.array([[0.0, 1.0, 0.0], [1.0, 0.0, 1.0], [0.0, 1.0, 0.0]]),
        np.array([[1.0, 0.0, -0.5j], [0.0, 0.0, 0.0], [0.5j, 0.0, -1.0]]),
    ),
    coeff=[[0.4, 0.1 + 0.2j], [0.1 - 0.2j, 0.3]],
)


@pytest.mark.parametrize(
    "spec",
    [
        FLIP,
        OSC_SPEC,
        oscillator_generator(OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)),
        GeneratorSpec(hamiltonian=random_hermitian(5, np.random.default_rng(4)), couplings=(), coeff=np.zeros((0, 0))),
        THREE_LEVEL,
    ],
    ids=["flip", "diffusion-only", "full-rank", "hamiltonian-only", "three-level"],
)
def test_flow_rate_matches_reference_route(spec):
    # both engines take w from the compiled flow; total_decay_rate is the
    # reference route.  Im D12 != 0 in the full-rank model exercises the
    # E_ab cross terms of the flow rate.  The rhs, at M = 20 and at M = 1,
    # is checked against the projector route frictional_rhs.
    rng = np.random.default_rng(11)
    flow = compile_flow(spec)
    states = np.stack([random_state(spec.dim, rng) for _ in range(20)], axis=1)
    rhs, rates = rhs_block(flow, states, want_rate=True)
    for j in range(states.shape[1]):
        w = total_decay_rate(spec, states[:, j])
        assert abs(rates[j] - w) <= 1e-12 * max(1.0, w)
        single_rhs, single = rhs_block(flow, states[:, j : j + 1], want_rate=True)
        assert abs(single[0] - w) <= 1e-12 * max(1.0, w)
        reference = frictional_rhs(spec, states[:, j])
        assert np.max(np.abs(rhs[:, j] - reference)) <= 1e-13
        assert np.max(np.abs(single_rhs[:, 0] - reference)) <= 1e-13


def test_flip_model_rate():
    rng = np.random.default_rng(0)
    assert total_decay_rate(FLIP, np.array([1.0, 0.0])) == pytest.approx(1.0, abs=1e-14)
    # sx eigenstate is stationary
    plus = normalize(np.array([1.0, 1.0]))
    assert total_decay_rate(FLIP, plus) == pytest.approx(0.0, abs=1e-14)
    for _ in range(10):
        psi = random_state(2, rng)
        sx = expectation(SX, psi).real
        assert total_decay_rate(FLIP, psi) == pytest.approx(1.0 - sx**2, abs=1e-12)


def test_ground_state_rate_and_channel():
    psi = fock_state(20, 0)
    assert total_decay_rate(OSC_SPEC, psi) == pytest.approx(0.5, abs=1e-10)
    report = jump_channels(OSC_SPEC, psi)
    assert len(report.channels) == 1
    channel = report.channels[0]
    assert channel.rate == pytest.approx(0.5, abs=1e-10)
    assert abs(np.vdot(fock_state(20, 1), channel.target)) >= 1.0 - 1e-10


def test_excited_state_rate_and_channel():
    # fock(1): sigma_xx = 3/2, target proportional to x|1> = (|0> + sqrt(2)|2>)/sqrt(2)
    psi = fock_state(20, 1)
    assert total_decay_rate(OSC_SPEC, psi) == pytest.approx(1.5, abs=1e-10)
    report = jump_channels(OSC_SPEC, psi)
    assert len(report.channels) == 1
    expected = np.zeros(20)
    expected[0] = 1.0
    expected[2] = np.sqrt(2.0)
    expected /= np.sqrt(3.0)
    assert np.max(np.abs(report.channels[0].target - expected)) < 1e-10


def test_rate_operator_spectrum_at_ground_state():
    # nonzero part of the spectrum is the pair {-w, +w}
    w_op = transition_rate_operator(OSC_SPEC, fock_state(20, 0))
    evals = np.sort(np.linalg.eigvalsh(w_op))
    assert evals[0] == pytest.approx(-0.5, abs=1e-10)
    assert evals[-1] == pytest.approx(0.5, abs=1e-10)
    assert np.max(np.abs(evals[1:-1])) < 1e-10


@pytest.mark.parametrize("case", ["flip", "osc", "random"])
def test_rate_operator_identities(case):
    rng = np.random.default_rng(17)
    if case == "flip":
        spec, dim = FLIP, 2
    elif case == "osc":
        spec, dim = OSC_SPEC, 20
    else:
        spec, dim = random_spec(6, 3, rng), 6
    for _ in range(5):
        psi = random_state(dim, rng)
        w = total_decay_rate(spec, psi)
        w_op = transition_rate_operator(spec, psi)
        wp_op = modified_rate_operator(spec, psi)
        # psi is an eigenvector of W with eigenvalue -w and is annihilated by W'
        assert np.linalg.norm(w_op @ psi + w * psi) < 1e-10
        assert np.linalg.norm(wp_op @ psi) < 1e-10
        assert np.max(np.abs(wp_op - w_op - w * outer(psi))) < 1e-12
        assert float(np.trace(wp_op).real) == pytest.approx(w, abs=1e-10)
        assert float(np.min(np.linalg.eigvalsh(wp_op))) > -1e-10


def test_off_diagonal_blocks_vanish():
    # W has no matrix elements connecting psi to its orthogonal complement
    rng = np.random.default_rng(4)
    psi = random_state(6, rng)
    spec = random_spec(6, 2, rng)
    basis = orthonormal_completion(psi)
    w_op = transition_rate_operator(spec, psi)
    assert np.max(np.abs(basis.conj().T @ w_op @ psi)) < 1e-12


def test_orthogonal_rates_sum_to_total():
    # summing <phi|L[P]|phi> over an orthonormal complement of psi gives w
    rng = np.random.default_rng(8)
    for spec, dim in [(FLIP, 2), (OSC_SPEC, 20), (random_spec(5, 2, rng), 5)]:
        psi = random_state(dim, rng)
        w = total_decay_rate(spec, psi)
        image = apply_generator(spec, outer(psi))
        basis = orthonormal_completion(psi)
        total = sum(
            expectation(image, basis[:, n]).real for n in range(dim - 1)
        )
        assert total == pytest.approx(w, abs=1e-10)


def test_rate_operator_quadratic_form_matches_image():
    # for phi orthogonal to psi all three rate expressions agree
    rng = np.random.default_rng(12)
    spec = random_spec(6, 2, rng)
    psi = random_state(6, rng)
    image = apply_generator(spec, outer(psi))
    w_op = transition_rate_operator(spec, psi)
    wp_op = modified_rate_operator(spec, psi)
    basis = orthonormal_completion(psi)
    for n in range(5):
        phi = basis[:, n]
        direct = expectation(image, phi).real
        assert expectation(w_op, phi).real == pytest.approx(direct, abs=1e-12)
        assert expectation(wp_op, phi).real == pytest.approx(direct, abs=1e-12)


def test_channels_reconstruct_modified_rate_operator():
    rng = np.random.default_rng(21)
    for spec, dim in [(FLIP, 2), (OSC_SPEC, 20), (random_spec(6, 3, rng), 6)]:
        psi = random_state(dim, rng)
        wp_op = modified_rate_operator(spec, psi)
        report = jump_channels(spec, psi)
        assert report.rates.sum() == pytest.approx(report.total, abs=1e-10)
        recon = np.zeros_like(wp_op)
        for channel in report.channels:
            recon += channel.rate * outer(channel.target)
            assert abs(np.vdot(channel.target, psi)) < 1e-8
            assert np.linalg.norm(channel.target) == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(recon - wp_op)) < 1e-10
        # number of channels bounded by the number of couplings
        assert len(report.channels) <= spec.n_couplings
        rates = report.rates
        assert np.all(np.diff(rates) >= 0.0)


def test_channel_count_matches_coefficient_rank():
    rng = np.random.default_rng(3)
    psi = random_state(20, rng)
    assert len(jump_channels(OSC_SPEC, psi).channels) == 1  # rank-1 coefficient matrix
    full = OscillatorParams(levels=20, d11=0.3, d22=0.5, re_d12=0.1, im_d12=0.05)
    assert len(jump_channels(oscillator_generator(full), psi).channels) == 2


def test_pure_hamiltonian_has_no_channels():
    spec = GeneratorSpec(hamiltonian=SZ, couplings=(), coeff=np.zeros((0, 0)))
    psi = normalize(np.array([1.0, 1.0j]))
    assert total_decay_rate(spec, psi) == 0.0
    report = jump_channels(spec, psi)
    assert report.total == 0.0
    assert report.channels == []


def test_channel_determinism():
    rng = np.random.default_rng(30)
    psi = random_state(20, rng)
    first = jump_channels(OSC_SPEC, psi)
    second = jump_channels(OSC_SPEC, psi.copy())
    assert first.total == second.total
    for a, b in zip(first.channels, second.channels):
        assert a.rate == b.rate
        assert np.array_equal(a.target, b.target)


def test_frictional_rhs_norm_tangency_and_flow_agreement():
    # the projector route and the expanded stage polynomial agree on unit states
    rng = np.random.default_rng(14)
    for spec, dim in [(FLIP, 2), (OSC_SPEC, 20)]:
        flow = compile_flow(spec)
        for _ in range(5):
            psi = random_state(dim, rng)
            rhs = frictional_rhs(spec, psi)
            assert abs(2.0 * np.vdot(psi, rhs).real) < 1e-12
            assert np.max(np.abs(rhs - rhs_block(flow, psi[:, None])[0][:, 0])) < 1e-13


def test_rejects_off_norm_state():
    with pytest.raises(ValueError):
        total_decay_rate(FLIP, np.array([1.0, 1.0]))
