"""Checks for the dense linear algebra helpers, with hand-computed oracles."""

import warnings

import numpy as np
import pytest

from qjump.errors import DimensionMismatch, NonHermitianInput
from qjump.linalg import (
    eigh_phase_fixed,
    expectation,
    fix_phase,
    hermiticity_defect,
    lowest_eigenvalue,
    normalize,
    orthonormal_completion,
    outer,
    trace_distance,
)

SX = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
SZ = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=np.complex128)


def random_density(dim, rng):
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = mat @ mat.conj().T
    return rho / np.trace(rho).real


def test_pauli_x_eigenpairs():
    # spectrum {-1, +1}, eigenvectors (1, -1)/sqrt(2) and (1, 1)/sqrt(2)
    w, v = eigh_phase_fixed(SX)
    assert w.shape == (2,)
    r = 1.0 / np.sqrt(2.0)
    assert w[0] == pytest.approx(-1.0, abs=1e-14)
    assert w[1] == pytest.approx(1.0, abs=1e-14)
    assert np.allclose(v[:, 0], [r, -r], atol=1e-14)
    assert np.allclose(v[:, 1], [r, r], atol=1e-14)


def test_eigendecomposition_phase_anchor_is_real_positive():
    rng = np.random.default_rng(3)
    for _ in range(20):
        mat = rng.standard_normal((7, 7)) + 1j * rng.standard_normal((7, 7))
        mat = mat + mat.conj().T
        _, v = eigh_phase_fixed(mat)
        for n in range(7):
            col = v[:, n]
            idx = np.flatnonzero(np.abs(col) > 1e-12 * np.abs(col).max())[0]
            assert col[idx].imag == 0.0
            assert col[idx].real > 0.0


def test_eigendecomposition_deterministic():
    rng = np.random.default_rng(11)
    mat = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    mat = mat + mat.conj().T
    w1, v1 = eigh_phase_fixed(mat)
    w2, v2 = eigh_phase_fixed(mat.copy())
    assert np.array_equal(w1, w2)
    assert np.array_equal(v1, v2)


def test_eigendecomposition_degenerate_is_deterministic():
    # exact ties are ordered by the phase-fixed vectors themselves
    w_a, v_a = eigh_phase_fixed(np.eye(2, dtype=np.complex128))
    w_b, v_b = eigh_phase_fixed(np.eye(2, dtype=np.complex128))
    assert np.array_equal(w_a, w_b)
    assert np.array_equal(v_a, v_b)


@pytest.mark.parametrize("dim", [2, 5, 16, 64])
def test_eigendecomposition_round_trip(dim):
    rng = np.random.default_rng(dim)
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = mat + mat.conj().T
    w, v = eigh_phase_fixed(mat)
    recon = (v * w) @ v.conj().T
    assert np.max(np.abs(recon - mat)) < 1e-8
    assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10


def _reference_fix_phase(vec):
    # reference: the phase fix one column at a time, with abs() of the complex scalar anchor
    mags = np.abs(vec)
    top = float(mags.max(initial=0.0))
    if top == 0.0:
        return vec.copy()
    idx = int(np.argmax(mags > 1e-12 * top))
    anchor = vec[idx]
    return vec * (abs(anchor) / anchor)


def _reference_eigh_phase_fixed(mat):
    # per-column phase fix, then a sort of every column on (w, re, im, re, im, ...)
    w, v = np.linalg.eigh(mat)
    cols = [_reference_fix_phase(v[:, n]) for n in range(v.shape[1])]

    def key(n):
        c = cols[n]
        return (w[n],) + tuple(np.column_stack([c.real, c.imag]).ravel())

    order = sorted(range(len(cols)), key=key)
    return w[order].astype(np.float64), np.column_stack([cols[n] for n in order])


def _bitwise_test_matrices():
    rng = np.random.default_rng(17)
    for dim in (1, 2, 3, 5, 8, 20, 40):
        for _ in range(10):
            mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
            mat = mat + mat.conj().T
            yield mat
            # a rotated spectrum with near-ties: roundoff splits the degenerate pairs
            q, _ = np.linalg.qr(mat)
            yield q @ np.diag(np.resize([1.0, 2.0], dim)) @ q.conj().T
        yield np.eye(dim, dtype=np.complex128)
        # repeated blocks and a diagonal with repeated entries: exact ties
        half = mat[: max(1, dim // 2), : max(1, dim // 2)]
        yield np.kron(np.eye(2), half)
        yield np.kron(half, np.eye(3))
        yield np.diag(np.resize([0.0, 1.0, -1.0], dim)).astype(np.complex128)


def test_eigh_phase_fixed_bitwise_matches_per_column_reference():
    n_ties = 0
    for mat in _bitwise_test_matrices():
        w_ref, v_ref = _reference_eigh_phase_fixed(mat)
        w, v = eigh_phase_fixed(mat)
        n_ties += int(np.any(w[1:] == w[:-1]))
        assert w.tobytes() == w_ref.tobytes()
        assert v.tobytes() == v_ref.tobytes()
        raw = np.linalg.eigh(mat)[1]
        for n in range(raw.shape[1]):
            assert fix_phase(raw[:, n]).tobytes() == _reference_fix_phase(raw[:, n]).tobytes()
    assert n_ties > 20  # the exact-tie path ran


def test_eigendecomposition_rejects_non_hermitian():
    with pytest.raises(NonHermitianInput):
        eigh_phase_fixed(np.array([[0.0, 1.0], [0.0, 0.0]]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_input_is_not_hermitian(bad):
    mat = np.array([[bad, 0.0], [0.0, 1.0]])
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(NonHermitianInput):
            trace_distance(mat, np.eye(2))
        with pytest.raises(NonHermitianInput):
            eigh_phase_fixed(mat)
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


def test_lowest_eigenvalue():
    assert lowest_eigenvalue(SZ) == -1.0
    # eigvalsh itself returns finite numbers for this input
    assert np.isnan(lowest_eigenvalue(np.array([[np.nan, 0.0], [0.0, 1.0]])))


def test_fix_phase_removes_global_phase():
    rng = np.random.default_rng(5)
    vec = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    rotated = vec * np.exp(1j * 0.7)
    assert np.allclose(fix_phase(vec), fix_phase(rotated), atol=1e-14)


def test_fix_phase_skips_negligible_leading_entry():
    vec = np.array([1e-15, 1j], dtype=np.complex128)
    fixed = fix_phase(vec)
    assert fixed[1] == pytest.approx(1.0)
    assert abs(fixed[1].imag) == 0.0


def test_fix_phase_zero_vector():
    vec = np.zeros(3, dtype=np.complex128)
    assert np.array_equal(fix_phase(vec), vec)


def test_trace_distance_extremes():
    e0 = outer(np.array([1.0, 0.0]))
    e1 = outer(np.array([0.0, 1.0]))
    assert trace_distance(e0, e0) == 0.0
    assert trace_distance(e0, e1) == pytest.approx(1.0, abs=1e-14)
    assert trace_distance(e0, 0.5 * np.eye(2)) == pytest.approx(0.5, abs=1e-14)


def test_trace_distance_pure_state_overlap_formula():
    # for pure states: T = sqrt(1 - |<psi|phi>|^2)
    plus = normalize(np.array([1.0, 1.0]))
    e0 = np.array([1.0, 0.0])
    assert trace_distance(outer(e0), outer(plus)) == pytest.approx(np.sqrt(0.5), abs=1e-14)
    rng = np.random.default_rng(2)
    for _ in range(10):
        a = normalize(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        b = normalize(rng.standard_normal(5) + 1j * rng.standard_normal(5))
        expected = np.sqrt(1.0 - abs(np.vdot(a, b)) ** 2)
        assert trace_distance(outer(a), outer(b)) == pytest.approx(expected, abs=1e-12)


def test_trace_distance_triangle_inequality():
    rng = np.random.default_rng(9)
    for _ in range(10):
        a, b, c = (random_density(4, rng) for _ in range(3))
        assert trace_distance(a, c) <= trace_distance(a, b) + trace_distance(b, c) + 1e-12


def test_trace_distance_rejects_shape_mismatch():
    with pytest.raises(DimensionMismatch):
        trace_distance(np.eye(2), np.eye(3))


def test_expectation_values():
    e0 = np.array([1.0, 0.0])
    assert expectation(SZ, e0) == pytest.approx(1.0)
    # non-Hermitian operators keep their imaginary part
    up = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=np.complex128)
    plus_i = normalize(np.array([1.0, 1.0j]))
    assert expectation(up, plus_i) == pytest.approx(0.5j)
    with pytest.raises(DimensionMismatch):
        expectation(SZ, np.array([1.0, 0.0, 0.0]))


def test_hermiticity_defect():
    assert hermiticity_defect(SX) == 0.0
    assert hermiticity_defect(np.array([[0.0, 1.0], [0.0, 0.0]])) == pytest.approx(1.0)


def test_normalize_rejects_zero():
    with pytest.raises(ValueError):
        normalize(np.zeros(4))


def test_orthonormal_completion():
    rng = np.random.default_rng(1)
    psi = normalize(rng.standard_normal(6) + 1j * rng.standard_normal(6))
    basis = orthonormal_completion(psi)
    assert basis.shape == (6, 5)
    assert np.max(np.abs(basis.conj().T @ basis - np.eye(5))) < 1e-12
    assert np.max(np.abs(basis.conj().T @ psi)) < 1e-12
