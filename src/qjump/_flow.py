"""Compiled evaluation of the no-jump flow, the decay rate and the jump channels.

compile_flow folds a GeneratorSpec into one stack of dense d x d blocks,
C on top, then the active couplings A_a:

    C    = -(i/hbar) H
           - (2i/hbar^2) sum_{a<b} Im D_ab A_b A_a
           - (1/hbar^2)  sum_{a,b} Re D_ab A_a A_b

so everything a step needs comes from one stacked product y = stack psi,
for a single state or a whole (d, M) block of columns.  Both engines
reach this module through the one step policy, _batch.jump_step, which
alone judges a step; this module only computes.  One conjugated dot
product per block, q = (psi^dag C psi, s_1, ..., s_n) with s_a =
psi^dag A_a psi, gives every bilinear the flow needs:

    v         = C psi + sum_a g_a A_a psi,      g = (2/hbar^2) D s
    psi^dag v = q_0 + sum_a g_a s_a
    rhs       = v - (psi^dag v) psi
    rate      = -Re[ psi^dag v + psi^dag C psi ]

For a normalized psi, rhs equals (L[psi psi^dag] - <L>) psi and rate the
total decay rate -<L>, exactly in exact arithmetic: the part of -<L>
beyond -Re psi^dag v has the real part of psi^dag C psi, because the H
term is imaginary in expectation and <A_b A_a> is the conjugate of
<A_a A_b>.  Couplings whose rows and columns of D vanish drop out of
every term and are excluded from the stack.

The same blocks give the master-equation generator of generator.py on a
d x d operator rho:

    L[rho] = C rho + rho C^dag + sum_ab gain_ab A_a rho A_b,    gain = (2/hbar^2) D

Expanding the double commutator and the friction commutator, the terms
with rho between two couplings are (1/hbar^2) Re D_ab (A_a rho A_b +
A_b rho A_a) and, for a < b, (2i/hbar^2) Im D_ab (A_a rho A_b - A_b rho
A_a); Re D is symmetric and Im D antisymmetric, so they sum to
(2/hbar^2) sum_ab D_ab A_a rho A_b, and every other term is C rho +
rho C^dag.  generator_image takes one stacked product stack rho for
C rho and every A_a rho, one product rho C^dag, and one product of the
row of A_a rho blocks with the stacked B_a = sum_b gain_ab A_b.

The jump channels are the eigenpairs of the modified rate operator
W' = Phi G Phi^dag, G = (2/hbar^2) D, whose columns phi_a = (A_a - s_a) psi
are the coupling rows of y less their means.  With the reduced QR
factorization Phi = Q R, W' = Q (R G R^dag) Q^dag, so channels_block
solves one small eigenproblem per state, of the size of the coupling
count, and maps its eigenvectors through Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import NegativeRate
from .generator import GeneratorSpec
from .linalg import _fix_phases

NEGATIVE_RATE_TOL = 1e-6
RATE_CLAMP = 1e-10
RATE_FLOOR_REL = 1e-12
OVERLAP_TOL = 1e-6


@dataclass(eq=False)
class CompiledFlow:
    dim: int
    stack: np.ndarray  # ((1 + n_active) * d, d): C on top, then the active couplings
    n_active: int
    gain: np.ndarray  # (n_active, n_active): (2/hbar^2) D restricted to active rows

    @cached_property
    def sandwich(self) -> np.ndarray:
        """(n_active * d, d): the blocks B_a = sum_b gain_ab A_b, stacked; formed on first use."""
        d = self.dim
        return np.tensordot(self.gain, self.stack[d:].reshape(self.n_active, d, d), axes=1).reshape(-1, d)


def compile_flow(spec: GeneratorSpec) -> CompiledFlow:
    spec.require_valid()
    d = spec.dim
    hbar = spec.hbar
    coeff = spec.coeff
    active = [a for a in range(spec.n_couplings) if np.any(coeff[a, :] != 0.0) or np.any(coeff[:, a] != 0.0)]
    ops = [np.asarray(spec.couplings[a]) for a in active]
    ka = len(ops)
    sub = coeff[np.ix_(active, active)] if ka else np.zeros((0, 0), dtype=np.complex128)
    re_d = sub.real
    im_d = sub.imag
    ih2 = 1.0 / hbar**2

    cmat = (-1j / hbar) * np.asarray(spec.hamiltonian)
    for a in range(ka):
        for b in range(ka):
            if re_d[a, b] != 0.0:
                cmat = cmat - (ih2 * re_d[a, b]) * (ops[a] @ ops[b])
    for a in range(ka):
        for b in range(a + 1, ka):
            if im_d[a, b] != 0.0:
                cmat = cmat - (2j * ih2 * im_d[a, b]) * (ops[b] @ ops[a])

    stack = np.vstack([cmat, *ops])
    return CompiledFlow(dim=d, stack=stack, n_active=ka, gain=(2.0 * ih2) * sub)


def rhs_block(cf: CompiledFlow, psi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Flow rhs and decay rate of each column of a (d, M) block."""
    d = cf.dim
    y = (cf.stack @ psi).reshape(-1, d, psi.shape[1])
    q = np.vecdot(psi, y, axis=-2)
    s = q[1:]
    g = cf.gain @ s
    v = y[0]
    dot = q[0]
    for a in range(cf.n_active):
        v = v + g[a] * y[1 + a]
        dot = dot + g[a] * s[a]
    return v - psi * dot, -(dot.real + q[0].real)


def generator_image(cf: CompiledFlow, rho: np.ndarray) -> np.ndarray:
    """Image L[rho] = C rho + rho C^dag + sum_ab gain_ab A_a rho A_b of a d x d operator.

    rho C^dag is its own product, not (C rho)^dag, so that an input that is
    Hermitian only to roundoff keeps its own arithmetic.
    """
    d = cf.dim
    y = cf.stack @ rho
    row = y[d:].reshape(cf.n_active, d, d).transpose(1, 0, 2).reshape(d, -1)
    return y[:d] + rho @ cf.stack[:d].conj().T + row @ cf.sandwich


def channels_block(cf: CompiledFlow, psi: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Jump channels of each unit column of a (d, M) block, as (ascending rates, (d, k) targets).

    Targets are phase-fixed.  A channel is dropped when its rate does not
    exceed 1e-12 of the column's total, or when its target overlaps psi
    by more than 1e-6, which only a phi_a cancelled to roundoff leaves.
    Raises NegativeRate for a rate below -1e-6: an invalid coefficient matrix.
    """
    d, m = psi.shape
    if cf.n_active == 0:
        return [(np.zeros(0), np.zeros((d, 0), dtype=np.complex128))] * m
    rows = (cf.stack[d:] @ psi).reshape(cf.n_active, d, m)
    phi = rows - np.vecdot(psi, rows, axis=-2)[:, None, :] * psi
    q, r = np.linalg.qr(phi.transpose(2, 1, 0))
    rates, vecs = np.linalg.eigh(r @ cf.gain @ r.conj().mT)
    low = float(rates[:, 0].min())
    if not (low >= -NEGATIVE_RATE_TOL):
        raise NegativeRate(f"rate operator has eigenvalue {low:.3e} < -{NEGATIVE_RATE_TOL:.1e}")
    k = rates.shape[1]
    targets = _fix_phases((q @ vecs).transpose(1, 0, 2).reshape(d, m * k)).reshape(d, m, k)
    overlap = np.abs(np.vecdot(psi[:, :, None], targets, axis=0))
    floor = RATE_FLOOR_REL * np.maximum(rates.sum(axis=1), 0.0)
    keep = (rates > floor[:, None]) & (overlap <= OVERLAP_TOL)
    return [(rates[j, keep[j]], targets[:, j, keep[j]]) for j in range(m)]


def rk4_step_block(
    cf: CompiledFlow,
    psi: np.ndarray,
    dt: float,
    k1: np.ndarray | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """One classical Runge-Kutta step of the flow, then exact renormalization.

    Returns the renormalized block and each column's drift |norm - 1|
    before renormalization (not finite for a non-finite column).  k1 may be
    passed in when the caller already evaluated the rhs at the start of
    the step (the engine does, to get the decay rate).
    """
    if k1 is None:
        k1, _ = rhs_block(cf, psi)
    k2, _ = rhs_block(cf, psi + (0.5 * dt) * k1)
    k3, _ = rhs_block(cf, psi + (0.5 * dt) * k2)
    k4, _ = rhs_block(cf, psi + dt * k3)
    out = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    norms = np.sqrt(np.vecdot(out, out, axis=0).real)
    return out / norms[None, :], np.abs(norms - 1.0)
