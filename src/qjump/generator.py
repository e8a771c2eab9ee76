"""Markovian generators in Hamiltonian plus coupling/coefficient form.

A generator is specified by a Hamiltonian H, a list of Hermitian coupling
operators A_a and a Hermitian positive semidefinite coefficient matrix D.
Acting on a density operator rho it produces

    L[rho] = -(i/hbar) [H, rho]
             - (2i/hbar^2) sum_{a<b} Im D_ab [A_b, {A_a, rho}]
             - (1/hbar^2)  sum_{a,b}  Re D_ab [A_a, [A_b, rho]]

which is trace free and maps Hermitian operators to Hermitian operators.
The antisymmetric (Im D) part carries friction, the symmetric (Re D) part
carries diffusion.  For two couplings (p, x) this reduces to the familiar
frictional oscillator form with friction constant lambda = 2 Im D_12 / hbar.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch, InvalidGenerator
from .linalg import HERMITICITY_TOL, as_operator, hermiticity_defect, lowest_eigenvalue

PSD_TOL = -1e-10
N_PROBE_OPERATORS = 10
PROBE_SEED = 0


def _read_only(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=np.complex128, copy=True)
    out.setflags(write=False)
    return out


@dataclass(eq=False)
class GeneratorSpec:
    """Immutable bundle of Hamiltonian, couplings and coefficient matrix.

    Shape consistency is enforced at construction.  Numeric invariants
    (hermiticity, positivity of the coefficient matrix) are enforced on
    first use unless strict=False, which admits a broken spec so that
    validate_generator can report what exactly is wrong with it.
    """

    hamiltonian: np.ndarray
    couplings: tuple[np.ndarray, ...]
    coeff: np.ndarray
    hbar: float = 1.0
    strict: bool = True
    _violation: str | None = field(default=None, init=False, repr=False, compare=False)
    _checked: bool = field(default=False, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        ham = as_operator(self.hamiltonian)
        d = ham.shape[0]
        coups = tuple(as_operator(a) for a in self.couplings)
        for i, a in enumerate(coups):
            if a.shape != (d, d):
                raise DimensionMismatch(f"coupling {i + 1} has shape {a.shape}, expected {(d, d)}")
        coeff = np.asarray(self.coeff, dtype=np.complex128)
        k = len(coups)
        if coeff.shape != (k, k):
            raise DimensionMismatch(f"coefficient matrix has shape {coeff.shape}, expected {(k, k)}")
        if not (np.isreal(self.hbar) and float(self.hbar) > 0.0):
            raise InvalidGenerator(f"hbar must be a positive real, got {self.hbar!r}")
        self.hamiltonian = _read_only(ham)
        self.couplings = tuple(_read_only(a) for a in coups)
        self.coeff = _read_only(coeff)
        self.hbar = float(self.hbar)
        if self.strict:
            self.require_valid()

    @property
    def dim(self) -> int:
        return self.hamiltonian.shape[0]

    @property
    def n_couplings(self) -> int:
        return len(self.couplings)

    def invariant_violation(self) -> str | None:
        """The line of the first failing structural check, or None if all pass."""
        if not self._checked:
            failed = [c for c in structural_checks(self) if not c.passed]
            self._violation = failed[0].line() if failed else None
            self._checked = True
        return self._violation

    def require_valid(self) -> None:
        msg = self.invariant_violation()
        if msg is not None:
            raise InvalidGenerator(msg)


def apply_generator(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    """Image L[rho] of a (not necessarily normalized) operator rho."""
    spec.require_valid()
    return _apply(spec, rho)


def _apply(spec: GeneratorSpec, rho: np.ndarray) -> np.ndarray:
    rho = as_operator(rho)
    d = spec.dim
    if rho.shape != (d, d):
        raise DimensionMismatch(f"operator has shape {rho.shape}, expected {(d, d)}")
    ham = spec.hamiltonian
    hbar = spec.hbar
    out = (-1j / hbar) * (ham @ rho - rho @ ham)
    k = spec.n_couplings
    if k == 0:
        return out
    re_d = spec.coeff.real
    im_d = spec.coeff.imag
    a_rho = [a @ rho for a in spec.couplings]
    rho_a = [rho @ a for a in spec.couplings]
    inv_h2 = 1.0 / hbar**2
    for a in range(k):
        for b in range(k):
            if re_d[a, b] != 0.0:
                comm_b = a_rho[b] - rho_a[b]
                inner = spec.couplings[a] @ comm_b - comm_b @ spec.couplings[a]
                out -= (inv_h2 * re_d[a, b]) * inner
    for a in range(k):
        for b in range(a + 1, k):
            if im_d[a, b] != 0.0:
                acomm_a = a_rho[a] + rho_a[a]
                inner = spec.couplings[b] @ acomm_a - acomm_a @ spec.couplings[b]
                out -= (2j * inv_h2 * im_d[a, b]) * inner
    return out


@dataclass
class CheckItem:
    """One named check with its measured value and threshold."""

    name: str
    passed: bool
    value: float
    threshold: float

    @classmethod
    def at_most(cls, name: str, value: float, threshold: float) -> "CheckItem":
        """A check that passes when value <= threshold; a NaN value fails."""
        value = float(value)
        return cls(name, value <= threshold, value, threshold)

    @classmethod
    def worst_of(cls, name: str, values: list[float], threshold: float) -> "CheckItem":
        """at_most on the largest of nonnegative defects; a NaN among them fails."""
        return cls.at_most(name, np.max(values, initial=0.0), threshold)

    def line(self) -> str:
        tag = "PASS" if self.passed else "FAIL"
        return f"[{tag}] {self.name}: value {self.value:.3e} (threshold {self.threshold:.1e})"


@dataclass
class GeneratorReport:
    """Outcome of the structural checks on a generator specification."""

    checks: list[CheckItem]

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def summary(self) -> str:
        return "\n".join(c.line() for c in self.checks)


def structural_checks(spec: GeneratorSpec) -> list[CheckItem]:
    """Hermiticity of H, of each coupling and of D, then positivity of D.

    A non-finite entry fails its hermiticity check, and the positivity
    check of a non-finite D reads NaN, so neither raises.
    """
    checks = [CheckItem.at_most("hamiltonian_hermitian", hermiticity_defect(spec.hamiltonian), HERMITICITY_TOL)]
    for i, a in enumerate(spec.couplings):
        checks.append(CheckItem.at_most(f"coupling_{i + 1}_hermitian", hermiticity_defect(a), HERMITICITY_TOL))
    if spec.n_couplings:
        checks.append(CheckItem.at_most("coeff_hermitian", hermiticity_defect(spec.coeff), HERMITICITY_TOL))
        low = lowest_eigenvalue(spec.coeff)
        checks.append(CheckItem("coeff_positive_semidefinite", low >= PSD_TOL, low, PSD_TOL))
    return checks


def validate_generator(spec: GeneratorSpec) -> GeneratorReport:
    """Structural checks plus two probes of trace freeness and hermiticity.

    The probes apply the generator to random Hermitian operators of unit
    Frobenius norm and take the worst distance of the images from being
    trace free and Hermitian.  Works on strict=False specs so that broken
    input is diagnosed rather than rejected outright.
    """
    rng = np.random.default_rng(PROBE_SEED)
    images = [_apply(spec, random_hermitian(spec.dim, rng)) for _ in range(N_PROBE_OPERATORS)]
    traces = [abs(complex(np.trace(image))) for image in images]
    herms = [hermiticity_defect(image) for image in images]
    return GeneratorReport(
        structural_checks(spec)
        + [
            CheckItem.worst_of("probe_trace_free", traces, HERMITICITY_TOL),
            CheckItem.worst_of("probe_hermiticity_preserving", herms, HERMITICITY_TOL),
        ]
    )


def random_hermitian(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Random Hermitian matrix with Frobenius norm one, for probes and tests."""
    mat = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    mat = mat + mat.conj().T
    return mat / np.linalg.norm(mat)
