"""Compiled evaluation of the no-jump flow and the total decay rate.

compile_flow folds a GeneratorSpec into one stack of dense d x d blocks,
so the flow right hand side and the decay rate come from a single
stacked matrix product, for a single state or for a whole block of
states at once (columns of a (d, M) array).  Both engines reach this
module through the one step policy, _batch.jump_step, so a single
trajectory and an ensemble integrate the exact same discretized flow and
read their jump probability off the same rate evaluation.  This module
only computes: it reports a step's norm drift and never judges it, so
jump_step alone decides which steps fail, and only among those it keeps.

The stack holds C on top, then the active couplings A_a, then K:

    C    = -(i/hbar) H
           - (2i/hbar^2) sum_{a<b} Im D_ab A_b A_a
           - (1/hbar^2)  sum_{a,b} Re D_ab A_a A_b
    K    = sum_{a,b} E_ab A_a A_b

where E_ab = (2i/hbar^2) Im D_ab for a < b minus (1/hbar^2) Re D_ab.
One product y = stack psi (without the K block when no rate is wanted)
and one conjugated dot product per block,

    q    = (psi^dag C psi, s_1, ..., s_n, psi^dag K psi),   s_a = psi^dag A_a psi,

give every bilinear the flow needs, with no normalization.  Then

    v         = C psi + sum_a g_a A_a psi,      g = (2/hbar^2) D s
    psi^dag v = q_0 + sum_a g_a s_a
    rhs       = v - (psi^dag v) psi
    rate      = -Re[ psi^dag v + psi^dag K psi ]

For a normalized psi, rhs equals (L[psi psi^dag] - <L>) psi and rate
equals the total decay rate, exactly in exact arithmetic.  Couplings
whose rows and columns of D vanish drop out of every term and are
excluded from the stack; with none active, K is zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .generator import GeneratorSpec


@dataclass(eq=False)
class CompiledFlow:
    dim: int
    hbar: float
    stack: np.ndarray  # ((2 + n_active) * d, d): C on top, active couplings, K at the bottom
    n_active: int
    gain: np.ndarray  # (n_active, n_active): (2/hbar^2) D restricted to active rows


def compile_flow(spec: GeneratorSpec) -> CompiledFlow:
    spec.require_valid()
    d = spec.dim
    hbar = spec.hbar
    coeff = spec.coeff
    active = [
        a
        for a in range(spec.n_couplings)
        if np.any(coeff[a, :] != 0.0) or np.any(coeff[:, a] != 0.0)
    ]
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

    # K = sum_ab E_ab A_a A_b, the rate's bilinear beyond psi^dag v
    kmat = np.zeros((d, d), dtype=np.complex128)
    for a in range(ka):
        for b in range(ka):
            e_ab = -ih2 * re_d[a, b] + (2j * ih2 * im_d[a, b] if a < b else 0.0)
            if e_ab != 0.0:
                kmat = kmat + e_ab * (ops[a] @ ops[b])

    stack = np.vstack([cmat, *ops, kmat])
    return CompiledFlow(dim=d, hbar=hbar, stack=stack, n_active=ka, gain=(2.0 * ih2) * sub)


def rhs_block(cf: CompiledFlow, psi: np.ndarray, want_rate: bool = False):
    """Flow rhs for a (d, M) block; optionally also the decay rate per column."""
    d = cf.dim
    stack = cf.stack if want_rate else cf.stack[:-d]
    y = (stack @ psi).reshape(-1, d, psi.shape[1])
    q = np.vecdot(psi, y, axis=-2)
    s = q[1 : 1 + cf.n_active]
    g = cf.gain @ s
    v = y[0]
    dot = q[0]
    for a in range(cf.n_active):
        v = v + g[a] * y[1 + a]
        dot = dot + g[a] * s[a]
    rhs = v - psi * dot
    if not want_rate:
        return rhs, None
    return rhs, -(dot + q[-1]).real


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
