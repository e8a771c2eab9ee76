"""Dense complex linear algebra helpers.

Operators are complex numpy arrays of shape (d, d) and pure states are
complex vectors of shape (d,) with unit Euclidean norm.  Everything here
is deterministic: the same input array produces the same output bytes,
which the rest of the package relies on for reproducible runs.
"""

from __future__ import annotations

import numpy as np

from .errors import DimensionMismatch, NonHermitianInput

HERMITICITY_TOL = 1e-10
PHASE_TOL = 1e-12


def as_operator(mat: np.ndarray) -> np.ndarray:
    """Coerce to a complex square matrix without copying when possible."""
    out = np.asarray(mat, dtype=np.complex128)
    if out.ndim != 2 or out.shape[0] != out.shape[1]:
        raise DimensionMismatch(f"expected a square matrix, got shape {out.shape}")
    return out


def as_state(psi: np.ndarray) -> np.ndarray:
    """Coerce to a complex vector without copying when possible."""
    out = np.asarray(psi, dtype=np.complex128)
    if out.ndim != 1:
        raise DimensionMismatch(f"expected a vector, got shape {out.shape}")
    return out


def outer(psi: np.ndarray) -> np.ndarray:
    """Projector |psi><psi| as a dense matrix."""
    psi = as_state(psi)
    return np.outer(psi, psi.conj())


def hermiticity_defect(mat: np.ndarray) -> float:
    """Largest entry of |M - M^dagger|; NaN, without a numpy warning, for non-finite input."""
    mat = as_operator(mat)
    with np.errstate(invalid="ignore"):  # inf - inf
        return float(np.max(np.abs(mat - mat.conj().T), initial=0.0))


def require_hermitian(mat: np.ndarray, tol: float = HERMITICITY_TOL, name: str = "matrix") -> np.ndarray:
    mat = as_operator(mat)
    defect = hermiticity_defect(mat)
    if not (defect <= tol):
        raise NonHermitianInput(f"{name} is not Hermitian: max |M - M^dagger| = {defect:.3e} > {tol:.1e}")
    return mat


def lowest_eigenvalue(mat: np.ndarray) -> float:
    """Smallest eigenvalue of a Hermitian matrix, NaN if an entry is not finite.

    eigvalsh does not reject NaN input and may return finite numbers for
    it, so non-finite input is caught before the call.
    """
    mat = as_operator(mat)
    if not np.isfinite(mat).all():
        return float("nan")
    return float(np.min(np.linalg.eigvalsh(mat)))


def normalize(psi: np.ndarray) -> np.ndarray:
    psi = as_state(psi)
    norm = float(np.linalg.norm(psi))
    if norm == 0.0:
        raise ValueError("cannot normalize a zero vector")
    return psi / norm


def expectation(operator: np.ndarray, state: np.ndarray) -> complex:
    """<psi| O |psi> as a complex number.

    The caller decides whether to take the real part; for non-Hermitian
    operators the imaginary part is meaningful.
    """
    operator = as_operator(operator)
    state = as_state(state)
    if operator.shape[0] != state.shape[0]:
        raise DimensionMismatch(
            f"operator dimension {operator.shape[0]} does not match state dimension {state.shape[0]}"
        )
    return complex(np.vdot(state, operator @ state))


def _fix_phases(vecs: np.ndarray) -> np.ndarray:
    """Rescale each column of vecs by a unit phase that makes its anchor real positive.

    The anchor is the first entry with modulus above PHASE_TOL times the
    column's largest modulus; an all-zero column is left as it is.
    """
    mags = np.abs(vecs)
    top = mags.max(axis=0, initial=0.0)
    anchor = vecs[np.argmax(mags > PHASE_TOL * top, axis=0), np.arange(vecs.shape[1])]
    anchor[top == 0.0] = 1.0
    # np.hypot is the modulus abs() gives a complex scalar; np.abs on an
    # array may differ from it in the last bit
    return vecs * (np.hypot(anchor.real, anchor.imag) / anchor)


def fix_phase(vec: np.ndarray) -> np.ndarray:
    """Rescale a vector by a unit phase so its first significant amplitude is real positive.

    The first entry with modulus above PHASE_TOL times the largest modulus
    anchors the phase.  Used to make eigenvector output reproducible.
    """
    return _fix_phases(as_state(vec)[:, None])[:, 0]


def eigh_phase_fixed(mat: np.ndarray, tol: float = HERMITICITY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and phase-fixed eigenvectors of a Hermitian matrix.

    Returns (w, V) with w ascending and V[:, n] the eigenvector for w[n].
    Each eigenvector has its first significant amplitude made real
    positive, and exact eigenvalue ties are ordered by lexicographic
    comparison of the phase-fixed vectors (real, imaginary, real, ... of
    entry 0, 1, ...), so identical input yields identical output.
    """
    mat = require_hermitian(mat, tol=tol, name="eigendecomposition input")
    w, v = np.linalg.eigh(mat)
    v = _fix_phases(v)
    # eigh returns w ascending, so only runs of exactly equal eigenvalues need ordering
    edges = np.flatnonzero(w[1:] != w[:-1]) + 1
    if edges.size + 1 < w.size:
        order = np.arange(w.size)
        bounds = np.concatenate(([0], edges, [w.size]))
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            if hi - lo > 1:
                run = v[:, lo:hi]
                keys = np.stack([run.real, run.imag], axis=1).reshape(-1, hi - lo)
                # lexsort takes its primary key last
                order[lo:hi] = lo + np.lexsort(keys[::-1])
        w, v = w[order], v[:, order]
    return w, v


def trace_distance(rho: np.ndarray, sigma: np.ndarray) -> float:
    """Half the sum of absolute eigenvalues of rho - sigma."""
    rho = as_operator(rho)
    sigma = as_operator(sigma)
    if rho.shape != sigma.shape:
        raise DimensionMismatch(f"shape mismatch {rho.shape} vs {sigma.shape}")
    diff = rho - sigma
    require_hermitian(diff, tol=1e-8, name="trace distance argument difference")
    eigs = np.linalg.eigvalsh(diff)
    return float(0.5 * np.sum(np.abs(eigs)))


def orthonormal_completion(psi: np.ndarray) -> np.ndarray:
    """Columns form an orthonormal basis of the subspace orthogonal to psi.

    Shape (d, d-1).  Together with psi itself this is a complete
    orthonormal set, which the rate sum rule checks need.
    """
    psi = normalize(psi)
    d = psi.shape[0]
    q, _ = np.linalg.qr(np.column_stack([psi, np.eye(d)]))
    # first column of q spans psi, the rest span its complement
    return q[:, 1:d]
