"""Damped harmonic oscillator in a truncated number basis.

The model couples a free oscillator to friction and diffusion through
the canonical pair (p, x), with a 2x2 Hermitian positive semidefinite
coefficient matrix D indexed 1=p, 2=x.  The friction constant is
lambda = (2/hbar) Im D_12.  Everything here exists in two forms: the
generic generator machinery instantiated for this model, and independent
closed-form expressions (rate operator, jump channels, flow right hand
side) used to cross-check the generic code path.

Truncation caveat: the finite ladder operators violate [x, p] = i hbar
in the top level, so closed-form comparisons are only claimed for
"truncation-safe" states whose top-two-level occupancy stays below 1e-8.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, InvalidGenerator
from .generator import PSD_TOL, GeneratorSpec
from .linalg import as_state, fix_phase, lowest_eigenvalue, normalize
from .unraveling import RateReport, JumpChannel, channels_from_rate_operator

TRUNCATION_TOL = 1e-8
SQUEEZE_RANGE = (-0.45, 0.45)  # minimize_hasse_defect's search interval in r
GOLDEN_ITERATIONS = 100


@dataclass
class OscillatorParams:
    """Model parameters: truncation, oscillator constants, diffusion matrix."""

    levels: int = 20
    mass: float = 1.0
    omega: float = 1.0
    hbar: float = 1.0
    d11: float = 0.0
    d22: float = 0.5
    re_d12: float = 0.0
    im_d12: float = 0.0

    def __post_init__(self) -> None:
        if int(self.levels) != self.levels or self.levels < 2:
            raise InvalidGenerator(f"levels must be an integer >= 2, got {self.levels!r}")
        self.levels = int(self.levels)
        for name in ("mass", "omega", "hbar"):
            value = getattr(self, name)
            if not value > 0.0:
                raise InvalidGenerator(f"{name} must be positive, got {value!r}")
        low = lowest_eigenvalue(self.coeff)
        if not (low >= PSD_TOL):
            raise InvalidGenerator(
                f"diffusion matrix is not positive semidefinite (min eigenvalue {low:.3e})"
            )
        if self.friction < 0.0:
            warnings.warn(
                f"friction constant {self.friction:.3e} is negative (Im D12 < 0): this model pumps energy in",
                stacklevel=2,
            )

    @property
    def coeff(self) -> np.ndarray:
        d12 = self.re_d12 + 1j * self.im_d12
        return np.array([[self.d11, d12], [np.conj(d12), self.d22]], dtype=np.complex128)

    @property
    def friction(self) -> float:
        return 2.0 * self.im_d12 / self.hbar


def ladder(levels: int) -> np.ndarray:
    """Lowering operator a with a|n> = sqrt(n)|n-1>."""
    return np.diag(np.sqrt(np.arange(1, levels, dtype=np.float64)), 1).astype(np.complex128)


def build_operators(params: OscillatorParams) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(H0, x, p) in the truncated number basis.

    H0 = hbar omega (n + 1/2) is built diagonally, so its spectrum is
    exact at every level; only x and p carry the truncation artifact.
    """
    n = params.levels
    a = ladder(n)
    adag = a.conj().T
    x = np.sqrt(params.hbar / (2.0 * params.mass * params.omega)) * (a + adag)
    p = 1j * np.sqrt(params.mass * params.hbar * params.omega / 2.0) * (adag - a)
    h0 = params.hbar * params.omega * np.diag(np.arange(n, dtype=np.float64) + 0.5).astype(np.complex128)
    return h0, x, p


def oscillator_generator(params: OscillatorParams) -> GeneratorSpec:
    """GeneratorSpec for this model with couplings (p, x) in that order."""
    h0, x, p = build_operators(params)
    return GeneratorSpec(hamiltonian=h0, couplings=(p, x), coeff=params.coeff, hbar=params.hbar)


def generator_reference(params: OscillatorParams, rho: np.ndarray) -> np.ndarray:
    """Literal term-by-term coding of the oscillator generator.

    Independent of apply_generator on purpose: the explicit friction
    commutator -(i/hbar) lambda [x, {p, rho}] plus the four real
    diffusion double commutators with prefactor 1/hbar^2.  Used as the
    dual route in tests.
    """
    h0, x, p = build_operators(params)
    rho = np.asarray(rho, dtype=np.complex128)
    if rho.shape != h0.shape:
        raise DimensionMismatch(f"operator has shape {rho.shape}, expected {h0.shape}")
    hbar = params.hbar
    lam = params.friction

    def comm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return a @ b - b @ a

    out = (-1j / hbar) * comm(h0, rho)
    out += (-1j / hbar) * lam * comm(x, p @ rho + rho @ p)
    re_d = params.coeff.real
    ops = (p, x)
    for a_idx in range(2):
        for b_idx in range(2):
            c = re_d[a_idx, b_idx]
            if c != 0.0:
                out += (-1.0 / hbar**2) * c * comm(ops[a_idx], comm(ops[b_idx], rho))
    return out


def fock_state(levels: int, n: int) -> np.ndarray:
    if not 0 <= n < levels:
        raise DimensionMismatch(f"fock index {n} outside 0..{levels - 1}")
    psi = np.zeros(levels, dtype=np.complex128)
    psi[n] = 1.0
    return psi


def coherent_state(levels: int, alpha: complex) -> np.ndarray:
    """Truncated coherent state, renormalized after truncation."""
    alpha = complex(alpha)
    if alpha == 0:
        return fock_state(levels, 0)
    n = np.arange(levels)
    log_fact = np.cumsum(np.concatenate([[0.0], np.log(np.arange(1, levels, dtype=np.float64))]))
    amps = np.exp(-0.5 * abs(alpha) ** 2 + n * np.log(alpha) - 0.5 * log_fact)
    return normalize(amps.astype(np.complex128))


def squeezed_vacuum(levels: int, r: float) -> np.ndarray:
    """exp(r/2 (a^2 - a^dag^2)) |0>, renormalized.

    Positive r squeezes position: sigma_22 = (hbar/2 m omega) e^{-2r} at
    unit mass and frequency.  For |r| beyond about 0.45 the truncated
    exponential leaks weight into the top levels at N=20; callers gate on
    is_truncation_safe.  scipy is imported here, on first use, so that
    importing qjump and running its commands never loads it.
    """
    from scipy.linalg import expm

    a = ladder(levels)
    gen = 0.5 * r * (a @ a - a.conj().T @ a.conj().T)
    psi = expm(gen) @ fock_state(levels, 0)
    return normalize(psi)


def sigma(psi: np.ndarray, x: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Second-moment matrix sigma_ab = <A_a A_b> - <A_a><A_b>, A = (p, x).

    Hermitian with Im sigma_12 = -hbar/2 away from the truncation
    boundary (operator ordering, not symmetrized).
    """
    psi = as_state(psi)
    ppsi = p @ psi
    xpsi = x @ psi
    mean_p = float(np.vdot(psi, ppsi).real)
    mean_x = float(np.vdot(psi, xpsi).real)
    vecs = (ppsi, xpsi)
    means = (mean_p, mean_x)
    out = np.empty((2, 2), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            out[a, b] = complex(np.vdot(vecs[a], vecs[b])) - means[a] * means[b]
    return out


def hasse_defect(psi: np.ndarray, params: OscillatorParams) -> float:
    """Re D_ab sigma_ab - hbar^2 lambda / 2.

    Zero exactly when the state supports jump-free (purely deterministic)
    evolution; the total decay rate equals (2/hbar^2) times this number.
    """
    _, x, p = build_operators(params)
    sig = sigma(psi, x, p)
    re_d = params.coeff.real
    contraction = float(np.sum(re_d * sig).real)
    return contraction - params.hbar**2 * params.friction / 2.0


def closed_form_rate_operator(psi: np.ndarray, params: OscillatorParams) -> np.ndarray:
    """(2/hbar^2) sum_ab D_ab (A_a - <A_a>) |psi><psi| (A_b - <A_b>), A = (p, x)."""
    psi = as_state(psi)
    _, x, p = build_operators(params)
    coeff = params.coeff
    means = (float(np.vdot(psi, p @ psi).real), float(np.vdot(psi, x @ psi).real))
    shifted = (p @ psi - means[0] * psi, x @ psi - means[1] * psi)
    out = np.zeros((params.levels, params.levels), dtype=np.complex128)
    for a in range(2):
        for b in range(2):
            c = coeff[a, b]
            if c != 0.0:
                out += c * np.outer(shifted[a], shifted[b].conj())
    return (2.0 / params.hbar**2) * out


def closed_form_channels(psi: np.ndarray, params: OscillatorParams) -> RateReport:
    """Jump channels from the closed-form rate operator.

    For the pure-position-diffusion model (only D_22 nonzero) the single
    channel is built directly: target (x - <x>) psi / sqrt(sigma_22),
    rate (2/hbar^2) D_22 sigma_22.  Otherwise the closed-form operator is
    eigendecomposed with the same filtering as the generic path.
    """
    psi = as_state(psi)
    if params.d11 == 0.0 and params.re_d12 == 0.0 and params.im_d12 == 0.0:
        _, x, _ = build_operators(params)
        xpsi = x @ psi
        mean_x = float(np.vdot(psi, xpsi).real)
        shifted = xpsi - mean_x * psi
        var = float(np.vdot(shifted, shifted).real)
        rate = (2.0 / params.hbar**2) * params.d22 * var
        if rate <= 0.0:
            return RateReport(total=max(rate, 0.0), channels=[])
        target = fix_phase(shifted / np.sqrt(var))
        return RateReport(total=rate, channels=[JumpChannel(rate=rate, target=target)])
    w_op = closed_form_rate_operator(psi, params)
    return channels_from_rate_operator(w_op, psi)


def frictional_rhs_closed_form(params: OscillatorParams, psi: np.ndarray) -> np.ndarray:
    """Explicit oscillator form of the no-jump flow right hand side.

    -(i/hbar)(H0 - <H0>) psi
    -(i/hbar) lambda (x p + <p> x - <x> p - <x p>) psi
    -(1/hbar^2) sum_ab Re D_ab [(A_a - <A_a>)(A_b - <A_b>) - sigma_ab] psi

    The last friction term subtracts the complex scalar <x p>, which is
    what makes this agree with the generic (L[psi psi^dag] - <L>) psi
    exactly; subtracting <x><p> instead breaks norm conservation.
    """
    psi = as_state(psi)
    h0, x, p = build_operators(params)
    hbar = params.hbar
    lam = params.friction
    ppsi = p @ psi
    xpsi = x @ psi
    mean_p = float(np.vdot(psi, ppsi).real)
    mean_x = float(np.vdot(psi, xpsi).real)
    mean_h = float(np.vdot(psi, h0 @ psi).real)
    mean_xp = complex(np.vdot(psi, x @ ppsi))
    sig = sigma(psi, x, p)

    out = (-1j / hbar) * (h0 @ psi - mean_h * psi)
    out += (-1j / hbar) * lam * (x @ ppsi + mean_p * xpsi - mean_x * ppsi - mean_xp * psi)
    re_d = params.coeff.real
    ops = (p, x)
    means = (mean_p, mean_x)
    for a in range(2):
        for b in range(2):
            c = re_d[a, b]
            if c != 0.0:
                vb = ops[b] @ psi - means[b] * psi
                vab = ops[a] @ vb - means[a] * vb
                out += (-1.0 / hbar**2) * c * (vab - sig[a, b] * psi)
    return out


def frictional_hamiltonian(params: OscillatorParams, psi: np.ndarray) -> np.ndarray:
    """Non-Hermitian effective Hamiltonian generating the no-jump flow.

    Hasse's frictional Hamiltonian: -(i/hbar)(H_fr - <H0>) psi reproduces
    frictional_rhs_closed_form wherever [x, p] = i hbar holds on psi (a
    truncation-safe state); the <H0> offset is the unobservable global
    phase the rhs convention removes.  `qjump verify` checks this on its
    random probe states; the engines integrate the generic flow instead.
    """
    psi = as_state(psi)
    h0, x, p = build_operators(params)
    lam = params.friction
    eye = np.eye(params.levels, dtype=np.complex128)
    sym = 0.5 * (x @ p + p @ x)
    mean_sym = float(np.vdot(psi, sym @ psi).real)
    mean_p = float(np.vdot(psi, p @ psi).real)
    mean_x = float(np.vdot(psi, x @ psi).real)
    sig = sigma(psi, x, p)
    out = h0 + lam * (sym - mean_sym * eye + mean_p * x - mean_x * p)
    re_d = params.coeff.real
    ops = (p, x)
    means = (mean_p, mean_x)
    for a in range(2):
        for b in range(2):
            c = re_d[a, b]
            if c != 0.0:
                shifted_a = ops[a] - means[a] * eye
                shifted_b = ops[b] - means[b] * eye
                out += (-1j / params.hbar) * c * (shifted_a @ shifted_b - sig[a, b] * eye)
    return out


def occupancy_tail(psi: np.ndarray) -> float:
    """Probability weight in the top two truncation levels."""
    psi = as_state(psi)
    return float(abs(psi[-1]) ** 2 + abs(psi[-2]) ** 2)


def is_truncation_safe(psi: np.ndarray) -> bool:
    return occupancy_tail(psi) <= TRUNCATION_TOL


def random_truncation_safe_state(levels: int, rng: np.random.Generator, support: int | None = None) -> np.ndarray:
    """Random normalized state supported on the lower levels only.

    Zero amplitude in the top levels makes the truncation-safety
    predicate hold trivially while leaving the occupied block generic.
    """
    if support is None:
        support = max(2, levels - 7)
    if not 2 <= support <= levels - 2:
        raise DimensionMismatch(f"support {support} incompatible with {levels} levels")
    psi = np.zeros(levels, dtype=np.complex128)
    psi[:support] = rng.standard_normal(support) + 1j * rng.standard_normal(support)
    return normalize(psi)


def minimize_hasse_defect(params: OscillatorParams) -> tuple[np.ndarray, float, float]:
    """Golden-section scan of squeezed vacua for the smallest Hasse defect.

    Returns (state, squeeze parameter, defect).  SQUEEZE_RANGE keeps every
    candidate truncation-safe at 20 levels.  The defect of squeezed vacua
    is smooth and single-dipped in r, so the scan converges fast.
    """
    inv_phi = (np.sqrt(5.0) - 1.0) / 2.0

    def defect_at(r: float) -> float:
        return hasse_defect(squeezed_vacuum(params.levels, r), params)

    a, b = SQUEEZE_RANGE
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = defect_at(c), defect_at(d)
    for _ in range(GOLDEN_ITERATIONS):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = defect_at(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = defect_at(d)
    best_r = c if fc < fd else d
    psi = squeezed_vacuum(params.levels, best_r)
    return psi, float(best_r), hasse_defect(psi, params)
