"""Pure-state unraveling of a Markovian generator.

Around a normalized state psi with projector P = |psi><psi| the generator
image L[P] splits into a smooth part that keeps the state pure and a jump
part.  The transition rate operator

    W  = L[P] - {L[P], P} + 2 <L> P          (<L> = <psi|L[P]|psi>)

has psi as an eigenvector with eigenvalue -w, where w = -<L> is the total
decay rate out of psi.  The modified rate operator

    W' = W + w P

annihilates psi, is positive semidefinite whenever the coefficient matrix
is, and its trace equals w.  Its nonzero eigenpairs are the jump channels:
orthogonal target states phi_n with individual rates w_n summing to w.
The no-jump evolution in between is the norm-preserving nonlinear flow

    dpsi/dt = (L[P] - <L>) psi.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._flow import NEGATIVE_RATE_TOL, OVERLAP_TOL, RATE_CLAMP, RATE_FLOOR_REL, channels_block, compile_flow
from .errors import NegativeRate
from .generator import GeneratorSpec, apply_generator
from .linalg import as_state, eigh_phase_fixed, expectation, lowest_eigenvalue, outer

NORM_TOL = 1e-6


@dataclass
class JumpChannel:
    """One jump channel: a normalized target state and its rate."""

    rate: float
    target: np.ndarray


@dataclass
class RateReport:
    """Total decay rate together with the individual jump channels."""

    total: float
    channels: list[JumpChannel]

    @property
    def rates(self) -> np.ndarray:
        return np.array([c.rate for c in self.channels], dtype=np.float64)


def _require_unit(psi: np.ndarray) -> np.ndarray:
    psi = as_state(psi)
    norm = float(np.linalg.norm(psi))
    if not (abs(norm - 1.0) <= NORM_TOL):
        raise ValueError(f"state norm {norm!r} deviates from 1 by more than {NORM_TOL:.1e}")
    return psi


def _clamp_rate(w: float) -> float:
    """w with roundoff in [-RATE_CLAMP, 0) set to 0; NegativeRate below that, NaN as it is."""
    if w < 0.0:
        if w < -RATE_CLAMP:
            raise NegativeRate(f"total decay rate {w:.3e} is negative beyond roundoff")
        w = 0.0
    return w


def total_decay_rate(spec: GeneratorSpec, psi: np.ndarray) -> float:
    """Total rate w at which probability leaves the state psi.

    Equal to -<psi| L[P] |psi>.  Roundoff can push the value marginally
    below zero; values in [-1e-10, 0) are clamped to 0, anything lower is
    reported as an error because it signals a generator whose coefficient
    matrix is not positive semidefinite.

    This is the reference route, through the projector image at O(d^3)
    per call.  The engines read the same number off the compiled flow
    (_flow.rhs_block); the tests and ``qjump verify`` compare the two
    routes.
    """
    psi = _require_unit(psi)
    return _clamp_rate(-float(expectation(apply_generator(spec, outer(psi)), psi).real))


def transition_rate_operator(spec: GeneratorSpec, psi: np.ndarray) -> np.ndarray:
    """Rate operator W around psi.

    Satisfies W psi = -w psi and <phi| W |phi> equals the transition rate
    into any state phi orthogonal to psi.
    """
    return _rate_matrix(spec, _require_unit(psi), 2.0)


def modified_rate_operator(spec: GeneratorSpec, psi: np.ndarray) -> np.ndarray:
    """Positive semidefinite rate operator W' = W + w P.

    Annihilates psi and has trace equal to the total decay rate, so its
    eigendecomposition yields the jump channels directly.  Raises
    NegativeRate if an eigenvalue falls below -1e-6, which indicates an
    invalid coefficient matrix rather than roundoff.
    """
    w_op = _rate_matrix(spec, _require_unit(psi), 1.0)
    low = lowest_eigenvalue(w_op)
    if not (low >= -NEGATIVE_RATE_TOL):
        raise NegativeRate(f"modified rate operator has eigenvalue {low:.3e} < -{NEGATIVE_RATE_TOL:.1e}")
    return w_op


def _rate_matrix(spec: GeneratorSpec, psi: np.ndarray, weight: float) -> np.ndarray:
    """Hermitian part of L[P] - {L[P], P} + weight <L> P around a unit psi.

    weight 2 gives W and weight 1 gives W' = W + w P, since w = -<L>.
    """
    proj = outer(psi)
    image = apply_generator(spec, proj)
    mean = float(expectation(image, psi).real)
    w_op = image - image @ proj - proj @ image + (weight * mean) * proj
    return 0.5 * (w_op + w_op.conj().T)


def channels_from_rate_operator(w_op: np.ndarray, psi: np.ndarray) -> RateReport:
    """Filter the eigenpairs of a rate operator into jump channels.

    Channels are ordered by ascending rate.  Eigenpairs are dropped when
    the rate does not exceed 1e-12 of the total (numerical dust, and with
    it every channel of a zero-rate operator) or when the eigenvector
    overlaps psi by more than 1e-6, which removes the kernel direction
    along psi even when it is degenerate with a genuine zero-rate channel.
    """
    psi = as_state(psi)
    evals, vecs = eigh_phase_fixed(w_op)
    if float(evals[0]) < -NEGATIVE_RATE_TOL:
        raise NegativeRate(f"rate operator has eigenvalue {evals[0]:.3e} < -{NEGATIVE_RATE_TOL:.1e}")
    total = _clamp_rate(float(np.trace(w_op).real))
    keep = (evals > RATE_FLOOR_REL * total) & (np.abs(psi.conj() @ vecs) <= OVERLAP_TOL)
    return RateReport(total=total, channels=[JumpChannel(rate=float(evals[n]), target=vecs[:, n]) for n in np.flatnonzero(keep)])


def jump_channels(spec: GeneratorSpec, psi: np.ndarray) -> RateReport:
    """Jump channels out of psi, as the engines find them (_flow.channels_block); total is their rate sum.

    channels_from_rate_operator(modified_rate_operator(spec, psi), psi) is
    the reference route, through the d x d W'; tests and ``qjump verify`` compare the two.
    """
    rates, targets = channels_block(compile_flow(spec), _require_unit(psi)[:, None])[0]
    channels = [JumpChannel(rate=float(rate), target=targets[:, k]) for k, rate in enumerate(rates)]
    return RateReport(total=float(rates.sum()), channels=channels)


def frictional_rhs(spec: GeneratorSpec, psi: np.ndarray) -> np.ndarray:
    """Right hand side (L[P] - <L>) psi of the no-jump flow.

    Direct evaluation through the projector image, kept as the reference
    the flow module is tested against.  The integrators themselves use
    the expanded stage polynomial from the flow module; the two agree on
    unit vectors but differ off the sphere, where the projector route
    picks up extra norm factors.
    """
    psi = as_state(psi)
    image = apply_generator(spec, outer(psi))
    v = image @ psi
    return v - complex(np.vdot(psi, v)) * psi
