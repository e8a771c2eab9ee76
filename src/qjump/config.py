"""Run configuration: documented key-value format with line-aware errors.

The format is sectioned plain text.  Comments run from '#' to end of
line, keys live under a [section] header, and a line starting with
whitespace continues the previous value (useful for large matrices).
Matrices are row-major lists of "re,im" pairs separated by whitespace;
complex scalars are written like 1+0.5i.

    [model]
    type = damped_oscillator      # or: explicit
    N = 20
    m = 1.0
    omega = 1.0
    hbar = 1.0
    D11 = 0.0
    D22 = 0.5
    ReD12 = 0.0
    ImD12 = 0.0

    [initial]
    state = fock(0)               # or coherent(1+0.5i), or explicit + amplitudes

    [run]
    dt = 1e-3
    t_final = 1.0
    snapshot_times = 0.25 0.5 1.0
    n_trajectories = 1000
    seed = 42

    [observables]
    names = x p                   # builtins: x p number H0 (oscillator model only)

    [output]
    directory = out
    dump_density = false

An explicit model instead carries dim, hbar, hamiltonian, couplings (the
count K), coupling_1 .. coupling_K, and coeff (the K x K coefficient
matrix).  Validation reports every problem it finds, each with the line
it came from, rather than stopping at the first.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import InvalidGenerator, ParseError, ValidationError
from .generator import GeneratorSpec, validate_generator
from .linalg import HERMITICITY_TOL, hermiticity_defect, normalize
from .oscillator import (
    OscillatorParams,
    build_operators,
    coherent_state,
    fock_state,
    occupancy_tail,
    oscillator_generator,
)
from .trajectory import grid_step

KNOWN_SECTIONS = ("model", "initial", "run", "observables", "output")
BUILTIN_OBSERVABLES = ("x", "p", "number", "H0")
MIN_INITIAL_NORM = 1e-12
# the real-valued damped_oscillator keys and the OscillatorParams fields they set
OSCILLATOR_REALS = (("m", "mass"), ("omega", "omega"), ("hbar", "hbar"), ("D11", "d11"), ("D22", "d22"), ("ReD12", "re_d12"), ("ImD12", "im_d12"))


@dataclass
class RunConfig:
    """Fully validated inputs for the CLI commands."""

    generator: GeneratorSpec
    model_type: str
    oscillator: OscillatorParams | None
    initial_state: np.ndarray
    initial_tail: float
    dt: float
    t_final: float
    snapshot_times: tuple[float, ...]
    n_trajectories: int
    seed: int
    trajectory_indices: tuple[int, ...]
    observables: dict[str, np.ndarray] = field(default_factory=dict)
    out_dir: str = "out"
    dump_density: bool = False

    def with_overrides(self, out_dir: str | None = None, seed: int | None = None) -> "RunConfig":
        cfg = self
        if out_dir is not None:
            cfg = replace(cfg, out_dir=out_dir)
        if seed is not None:
            if not 0 <= seed < 2**64:
                raise ValidationError([(0, f"seed override {seed} outside [0, 2^64)")])
            cfg = replace(cfg, seed=seed)
        return cfg


@dataclass
class _Entry:
    value: str
    line: int
    used: bool = False


def _scan(text: str) -> tuple[dict[tuple[str, str], _Entry], dict[str, int], list[tuple[int, str]]]:
    entries: dict[tuple[str, str], _Entry] = {}
    sections: dict[str, int] = {}
    errors: list[tuple[int, str]] = []
    section: str | None = None
    last_key: tuple[str, str] | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        if not body.strip():
            continue
        if body[0] in " \t":
            if last_key is None:
                errors.append((lineno, "continuation line with no preceding key"))
            else:
                entries[last_key].value += " " + body.strip()
            continue
        line = body.strip()
        if line.startswith("["):
            if not (line.endswith("]") and len(line) > 2):
                errors.append((lineno, f"malformed section header {line!r}"))
                section = None
                last_key = None
                continue
            section = line[1:-1].strip()
            sections.setdefault(section, lineno)
            last_key = None
            continue
        if "=" not in line:
            errors.append((lineno, f"expected 'key = value', got {line!r}"))
            continue
        key, _, value = line.partition("=")
        key = key.strip()
        if not key:
            errors.append((lineno, "empty key"))
            continue
        if section is None:
            errors.append((lineno, f"key {key!r} appears before any [section] header"))
            continue
        slot = (section, key)
        if slot in entries:
            errors.append((lineno, f"duplicate key {key!r} in section [{section}]"))
            continue
        entries[slot] = _Entry(value=value.strip(), line=lineno)
        last_key = slot
    return entries, sections, errors


class _Validator:
    """Accumulates (line, message) pairs while pulling typed values out."""

    def __init__(self, entries: dict[tuple[str, str], _Entry], sections: dict[str, int]):
        self.entries = entries
        self.sections = sections
        self.errors: list[tuple[int, str]] = []

    def error(self, line: int, message: str) -> None:
        self.errors.append((line, message))

    def section_line(self, section: str) -> int:
        return self.sections.get(section, 0)

    def get(self, section: str, key: str) -> _Entry | None:
        entry = self.entries.get((section, key))
        if entry is not None:
            entry.used = True
        return entry

    def typed(self, section: str, key: str, cast: Callable[[str], object], what: str, default=None, required=False):
        entry = self.get(section, key)
        if entry is None:
            if required:
                self.error(self.section_line(section), f"[{section}] is missing required key {key!r}")
            return default
        try:
            return cast(entry.value)
        except ValueError as exc:
            self.error(entry.line, f"{key!r}: expected {what}: {exc}")
            return default

    def flag_unknown(self) -> None:
        for section, line in self.sections.items():
            if section not in KNOWN_SECTIONS:
                self.error(line, f"unknown section [{section}]")
        for (section, key), entry in self.entries.items():
            if section not in KNOWN_SECTIONS:
                entry.used = True
            if not entry.used:
                self.error(entry.line, f"unknown key {key!r} in section [{section}]")


def _float(text: str) -> float:
    return float(text)


def _int(text: str) -> int:
    value = float(text)
    if int(value) != value:
        raise ValueError(f"{text!r} is not an integer")
    return int(value)


def _bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ValueError(f"{text!r} is not a boolean")


def _complex(text: str) -> complex:
    """complex() of text written with i as the imaginary unit: 1+2i, 2.5i, 1+infi."""
    cleaned = text.strip()
    if not cleaned:
        raise ValueError("empty value")
    # only a trailing i is the unit; the i of inf is not
    if cleaned.endswith("i"):
        cleaned = cleaned[:-1] + "j"
    return complex(cleaned)


def _pairs(text: str) -> np.ndarray:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty value")
    values = np.empty(len(tokens), dtype=np.complex128)
    for n, token in enumerate(tokens):
        parts = token.split(",")
        if len(parts) != 2:
            raise ValueError(f"token {token!r} is not a re,im pair")
        values[n] = float(parts[0]) + 1j * float(parts[1])
    return values


def _floats(text: str) -> tuple[float, ...]:
    tokens = text.split()
    if not tokens:
        raise ValueError("empty value")
    return tuple(float(token) for token in tokens)


def _ints(text: str) -> tuple[int, ...]:
    return tuple(_int(token) for token in text.split())


def _matrix(v: _Validator, section: str, key: str, dim: int, required: bool = False) -> np.ndarray | None:
    entry = v.get(section, key)
    if entry is None:
        if required:
            v.error(v.section_line(section), f"[{section}] is missing required key {key!r}")
        return None
    try:
        flat = _pairs(entry.value)
    except ValueError as exc:
        v.error(entry.line, f"{key!r}: {exc}")
        return None
    if flat.size != dim * dim:
        v.error(entry.line, f"{key!r}: expected {dim * dim} re,im pairs for a {dim}x{dim} matrix, got {flat.size}")
        return None
    return flat.reshape(dim, dim)


def _build_model(v: _Validator) -> tuple[GeneratorSpec | None, str, OscillatorParams | None]:
    entry = v.get("model", "type")
    if entry is None:
        v.error(v.section_line("model"), "[model] is missing required key 'type'")
        return None, "", None
    kind = entry.value.strip()
    if kind == "damped_oscillator":
        read = {"levels": v.typed("model", "N", _int, "an integer")}
        for key, name in OSCILLATOR_REALS:
            read[name] = v.typed("model", key, _float, "a real number")
        try:
            # an absent or unreadable key keeps its OscillatorParams default
            params = OscillatorParams(**{name: value for name, value in read.items() if value is not None})
            spec = oscillator_generator(params)
        except InvalidGenerator as exc:
            v.error(v.section_line("model"), f"invalid damped_oscillator model: {exc}")
            return None, kind, None
        return spec, kind, params
    if kind == "explicit":
        dim = v.typed("model", "dim", _int, "an integer", required=True)
        hbar = v.typed("model", "hbar", _float, "a real number", default=1.0)
        if dim is None or hbar is None:
            return None, kind, None
        if dim < 2:
            v.error(v.get("model", "dim").line, f"dim must be at least 2, got {dim}")
            return None, kind, None
        ham = _matrix(v, "model", "hamiltonian", dim, required=True)
        count = v.typed("model", "couplings", _int, "an integer", default=0)
        if count is None or count < 0:
            if count is not None:
                v.error(v.get("model", "couplings").line, f"couplings count must be nonnegative, got {count}")
            return None, kind, None
        coups = []
        for n in range(1, count + 1):
            mat = _matrix(v, "model", f"coupling_{n}", dim, required=True)
            coups.append(mat)
        coeff = _matrix(v, "model", "coeff", count, required=True) if count else None
        if ham is None or any(c is None for c in coups) or (count and coeff is None):
            return None, kind, None
        spec = GeneratorSpec(
            hamiltonian=ham,
            couplings=tuple(coups),
            coeff=coeff if coeff is not None else np.zeros((0, 0), dtype=np.complex128),
            hbar=hbar,
            strict=False,
        )
        report = validate_generator(spec)
        if not report.passed:
            for check in report.checks:
                if check.passed:
                    continue
                match = re.match(r"coupling_(\d+)_", check.name)
                if match:
                    key = f"coupling_{match.group(1)}"
                elif check.name.startswith("hamiltonian"):
                    key = "hamiltonian"
                elif check.name.startswith("coeff"):
                    key = "coeff"
                else:
                    key = None
                entry = v.entries.get(("model", key)) if key else None
                line = entry.line if entry else v.section_line("model")
                v.error(line, f"generator check failed: {check.name} (value {check.value:.3e})")
            return None, kind, None
        return spec, kind, None
    v.error(entry.line, f"unknown model type {kind!r} (expected damped_oscillator or explicit)")
    return None, kind, None


def _build_initial(v: _Validator, spec: GeneratorSpec | None, params: OscillatorParams | None) -> np.ndarray | None:
    entry = v.get("initial", "state")
    if entry is None:
        v.error(v.section_line("initial"), "[initial] is missing required key 'state'")
        return None
    if spec is None:
        return None
    dim = spec.dim
    text = entry.value.strip()
    fock_match = re.fullmatch(r"fock\((\d+)\)", text)
    coherent_match = re.fullmatch(r"coherent\(([^()]+)\)", text)
    if fock_match:
        n = int(fock_match.group(1))
        if n >= dim:
            v.error(entry.line, f"fock({n}) does not exist in dimension {dim}")
            return None
        return fock_state(dim, n)
    if coherent_match:
        if params is None:
            v.error(entry.line, "coherent initial states require the damped_oscillator model")
            return None
        try:
            alpha = _complex(coherent_match.group(1))
        except ValueError as exc:
            v.error(entry.line, f"coherent amplitude: {exc}")
            return None
        if not cmath.isfinite(alpha):
            v.error(entry.line, f"coherent amplitude {alpha} is not finite")
            return None
        try:
            return coherent_state(dim, alpha)
        except (OverflowError, ValueError):
            # |alpha|^2 overflows, or every level's amplitude underflows to zero
            v.error(entry.line, f"coherent amplitude {alpha} is too large for dimension {dim}")
            return None
    if text == "explicit":
        amp_entry = v.get("initial", "amplitudes")
        if amp_entry is None:
            v.error(entry.line, "state = explicit requires an 'amplitudes' key")
            return None
        try:
            amps = _pairs(amp_entry.value)
        except ValueError as exc:
            v.error(amp_entry.line, f"'amplitudes': {exc}")
            return None
        if amps.size != dim:
            v.error(amp_entry.line, f"'amplitudes': expected {dim} re,im pairs, got {amps.size}")
            return None
        if not np.isfinite(amps).all():
            v.error(amp_entry.line, "'amplitudes': every amplitude must be finite")
            return None
        norm = np.linalg.norm(amps)
        if norm <= MIN_INITIAL_NORM:
            v.error(amp_entry.line, f"initial state norm {norm:.3e} is too small to normalize")
            return None
        if not np.isfinite(norm):
            v.error(amp_entry.line, "initial state norm overflows; scale the amplitudes down")
            return None
        return normalize(amps)
    v.error(entry.line, f"unrecognized state {text!r} (expected fock(n), coherent(a), or explicit)")
    return None


def _build_observables(
    v: _Validator, spec: GeneratorSpec | None, params: OscillatorParams | None
) -> dict[str, np.ndarray]:
    out: dict[str, np.ndarray] = {}
    names_entry = v.get("observables", "names")
    if names_entry is not None and spec is not None:
        builtins: dict[str, np.ndarray] = {}
        if params is not None:
            h0, x, p = build_operators(params)
            number = np.diag(np.arange(params.levels, dtype=np.float64)).astype(np.complex128)
            builtins = {"x": x, "p": p, "number": number, "H0": h0}
        for name in names_entry.value.split():
            if name not in BUILTIN_OBSERVABLES:
                v.error(names_entry.line, f"unknown builtin observable {name!r} (have {', '.join(BUILTIN_OBSERVABLES)})")
            elif params is None:
                v.error(names_entry.line, f"builtin observable {name!r} requires the damped_oscillator model")
            elif name in out:
                v.error(names_entry.line, f"observable {name!r} listed twice")
            else:
                out[name] = builtins[name]
    matrix_keys = [
        (key, entry)
        for (section, key), entry in v.entries.items()
        if section == "observables" and key.startswith("matrix_")
    ]
    matrix_keys.sort(key=lambda item: item[1].line)
    for key, entry in matrix_keys:
        name = key[len("matrix_") :]
        entry.used = True
        if spec is None:
            continue
        if not name:
            v.error(entry.line, "observable matrix key has an empty name")
            continue
        if name in out:
            v.error(entry.line, f"observable {name!r} defined twice")
            continue
        mat = _matrix(v, "observables", key, spec.dim)
        if mat is None:
            continue
        defect = hermiticity_defect(mat)
        if not (defect <= HERMITICITY_TOL):
            v.error(entry.line, f"observable {name!r} is not Hermitian (defect {defect:.3e})")
            continue
        out[name] = mat
    return out


def parse_config(text: str) -> RunConfig:
    """Parse and validate; raises ParseError or ValidationError with line info."""
    entries, sections, scan_errors = _scan(text)
    if scan_errors:
        raise ParseError(sorted(scan_errors))
    v = _Validator(entries, sections)

    # non-finite or overflowing input becomes a line-numbered error below;
    # numpy's warnings about it on the way would only precede that error
    with np.errstate(invalid="ignore", over="ignore"):
        spec, model_type, params = _build_model(v)
        initial = _build_initial(v, spec, params)
    observables = _build_observables(v, spec, params)

    dt = v.typed("run", "dt", _float, "a real number", required=True)
    t_final = v.typed("run", "t_final", _float, "a real number", required=True)
    seed = v.typed("run", "seed", _int, "an integer", required=True)
    n_traj = v.typed("run", "n_trajectories", _int, "an integer", required=True)
    snapshots = v.typed("run", "snapshot_times", _floats, "a list of reals", default=None)
    indices = v.typed("run", "trajectory_indices", _ints, "a list of integers", default=(0,))

    n_steps = None
    if dt is not None and not dt > 0.0:
        v.error(v.get("run", "dt").line, f"dt must be positive, got {dt}")
        dt = None
    if dt is not None and t_final is not None:
        steps = grid_step(t_final, dt)
        if t_final < dt or steps is None:
            v.error(v.get("run", "t_final").line, f"t_final {t_final} is not a positive integer multiple of dt {dt}")
        else:
            n_steps = steps
    if seed is not None and not 0 <= seed < 2**64:
        v.error(v.get("run", "seed").line, f"seed must be in [0, 2^64), got {seed}")
    if n_traj is not None and n_traj < 1:
        v.error(v.get("run", "n_trajectories").line, f"n_trajectories must be positive, got {n_traj}")
    if snapshots is None:
        snapshots = (t_final,) if t_final is not None else ()
    elif dt is not None and n_steps is not None:
        seen_steps = set()
        for t in snapshots:
            k = grid_step(t, dt)
            if k is None or not 0 <= k <= n_steps:
                v.error(v.get("run", "snapshot_times").line, f"snapshot time {t} is not on the dt={dt} grid")
            elif k in seen_steps:
                v.error(v.get("run", "snapshot_times").line, f"snapshot time {t} repeats a grid point")
            else:
                seen_steps.add(k)
    if indices is not None:
        for idx in indices:
            if not 0 <= idx < 2**64:
                v.error(v.get("run", "trajectory_indices").line, f"trajectory index must be in [0, 2^64), got {idx}")

    out_dir = v.typed("output", "directory", str, "a path", default="out")
    dump_density = v.typed("output", "dump_density", _bool, "a boolean", default=False)

    v.flag_unknown()
    if v.errors:
        raise ValidationError(sorted(v.errors))

    assert spec is not None and initial is not None
    return RunConfig(
        generator=spec,
        model_type=model_type,
        oscillator=params,
        initial_state=initial,
        initial_tail=occupancy_tail(initial),
        dt=dt,
        t_final=t_final,
        snapshot_times=tuple(snapshots),
        n_trajectories=n_traj,
        seed=seed,
        trajectory_indices=tuple(indices),
        observables=observables,
        out_dir=out_dir,
        dump_density=dump_density,
    )
