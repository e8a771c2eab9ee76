"""Compiled evaluation of the no-jump flow and the total decay rate.

compile_flow folds a GeneratorSpec into a small set of dense matrices so
the flow right hand side can be evaluated with one stacked matrix
product, for a single state or for a whole block of states at once
(columns of a (d, M) array).  Both engines reach this module through
the one step policy, _batch.jump_step, so a single trajectory and an
ensemble integrate the exact same discretized flow and read their jump
probability off the same rate evaluation.

With raw bilinear expectations s_a = psi^dag A_a psi (no normalization),

    v    = C psi + sum_a g_a A_a psi,      g = (2/hbar^2) D s
    C    = -(i/hbar) H
           - (2i/hbar^2) sum_{a<b} Im D_ab A_b A_a
           - (1/hbar^2)  sum_{a,b} Re D_ab A_a A_b
    rhs  = v - (psi^dag v) psi
    rate = -Re[ psi^dag v + sum_{a,b} E_ab psi^dag A_a A_b psi ]

where E_ab = (2i/hbar^2) Im D_ab for a < b minus (1/hbar^2) Re D_ab.
For a normalized psi, rhs equals (L[psi psi^dag] - <L>) psi and rate
equals the total decay rate, exactly in exact arithmetic.  Couplings
whose rows and columns of D vanish drop out of every term and are
excluded from the stack.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import StepTooLarge
from .generator import GeneratorSpec

NORM_DRIFT_MAX = 1e-3


@dataclass(eq=False)
class CompiledFlow:
    dim: int
    hbar: float
    stack: np.ndarray  # ((1 + n_active) * d, d): C on top, active couplings below
    n_active: int
    gain: np.ndarray  # (n_active, n_active): (2/hbar^2) D restricted to active rows
    scalar_coeff: np.ndarray  # (n_active, n_active): E above


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

    stack = np.ascontiguousarray(np.vstack([cmat] + ops) if ka else cmat)
    gain = (2.0 * ih2) * sub
    scalar_coeff = (-ih2 * re_d).astype(np.complex128)
    for a in range(ka):
        for b in range(a + 1, ka):
            scalar_coeff[a, b] += 2j * ih2 * im_d[a, b]
    return CompiledFlow(dim=d, hbar=hbar, stack=stack, n_active=ka, gain=gain, scalar_coeff=scalar_coeff)


def rhs_block(cf: CompiledFlow, psi: np.ndarray, want_rate: bool = False):
    """Flow rhs for a (d, M) block; optionally also the decay rate per column."""
    d = cf.dim
    y = cf.stack @ psi
    cpsi = y[:d]
    if cf.n_active == 0:
        v = cpsi
        dot = np.einsum("dm,dm->m", psi.conj(), v)
        rhs = v - psi * dot[None, :]
        if not want_rate:
            return rhs, None
        return rhs, -dot.real
    ys = y[d:].reshape(cf.n_active, d, -1)
    s = np.einsum("dm,adm->am", psi.conj(), ys)
    g = cf.gain @ s
    v = cpsi + np.einsum("am,adm->dm", g, ys)
    dot = np.einsum("dm,dm->m", psi.conj(), v)
    rhs = v - psi * dot[None, :]
    if not want_rate:
        return rhs, None
    cross = np.einsum("adm,bdm->abm", ys.conj(), ys)
    extra = np.einsum("ab,abm->m", cf.scalar_coeff, cross)
    rate = -(dot + extra).real
    return rhs, rate


def rk4_step_block(
    cf: CompiledFlow,
    psi: np.ndarray,
    dt: float,
    k1: np.ndarray | None = None,
    check: bool = True,
) -> np.ndarray:
    """One classical Runge-Kutta step of the flow, then exact renormalization.

    k1 may be passed in when the caller already evaluated the rhs at the
    start of the step (the engine does, to get the decay rate).
    """
    if k1 is None:
        k1, _ = rhs_block(cf, psi)
    k2, _ = rhs_block(cf, psi + (0.5 * dt) * k1)
    k3, _ = rhs_block(cf, psi + (0.5 * dt) * k2)
    k4, _ = rhs_block(cf, psi + dt * k3)
    out = psi + (dt / 6.0) * (k1 + 2.0 * (k2 + k3) + k4)
    norms = np.sqrt(np.einsum("dm,dm->m", out.conj(), out).real)
    if check:
        drift = np.abs(norms - 1.0)
        # written so that NaN and inf fail the guard as well
        bad = np.flatnonzero(~(drift <= NORM_DRIFT_MAX))
        if bad.size:
            j = int(bad[0])
            raise StepTooLarge(
                f"pre-renormalization norm of column {j} drifted by {drift[j]:.3e} > {NORM_DRIFT_MAX:.1e}; reduce dt",
                column=j,
            )
    return out / norms[None, :]


def flow_rhs(cf: CompiledFlow, psi: np.ndarray) -> np.ndarray:
    rhs, _ = rhs_block(cf, psi[:, None])
    return rhs[:, 0]


def rk4_step(cf: CompiledFlow, psi: np.ndarray, dt: float, check: bool = True) -> np.ndarray:
    return rk4_step_block(cf, psi[:, None], dt, check=check)[:, 0]
