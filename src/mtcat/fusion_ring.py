"""Fusion rings: label sets with unit, duality and fusion multiplicities.

The ring is the integer-level skeleton of a fusion category: a finite list of
labels (index 0 is always the unit), an involutive duality permutation, and a
non-negative multiplicity tensor ``N[a, b, c]`` counting the fusion channels
of ``a x b -> c``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ComputationError, DegenerateSMatrix, InputError

UNIT = 0
DET_TOL = 1e-8  # nondegeneracy threshold of sigma_min / sigma_max of an S-matrix
_GUARD_TOL = 1e-12  # smallest |S[e,x]| that verlinde_coefficients divides by


@dataclass(frozen=True)
class Label:
    """A simple object: dense index plus display name."""

    index: int
    name: str

    def __str__(self):
        return self.name


@dataclass
class Violation:
    """One failed ring invariant with the witnessing index tuple."""

    invariant: str
    witness: tuple
    message: str

    def __str__(self):
        return f"{self.invariant} at {self.witness}: {self.message}"


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def add(self, invariant, witness, message):
        self.violations.append(Violation(invariant, tuple(witness), message))

    def __str__(self):
        if self.ok:
            return "all invariants hold"
        return "\n".join(str(v) for v in self.violations)


class FusionRing:
    """Labels, duality involution and fusion multiplicity tensor.

    Immutable after construction; the tensor is stored dense (these rings are
    desk scale, a dozen labels at most in practice).
    """

    def __init__(self, names: list[str], dual, N):
        self.names = list(names)
        self.dual = np.asarray(dual, dtype=int).copy()
        self.N = np.asarray(N, dtype=int).copy()
        m = len(self.names)
        if self.dual.shape != (m,):
            raise InputError(f"dual permutation has shape {self.dual.shape}, expected ({m},)")
        if self.N.shape != (m, m, m):
            raise InputError(f"fusion tensor has shape {self.N.shape}, expected ({m},{m},{m})")
        self.dual.setflags(write=False)
        self.N.setflags(write=False)
        self._plan = None  # what is derived from the content; see category_data._plan

    @property
    def size(self) -> int:
        return len(self.names)

    @property
    def labels(self) -> tuple[Label, ...]:
        return tuple(Label(i, n) for i, n in enumerate(self.names))

    def index(self, label) -> int:
        """Resolve a label given as index, name or Label."""
        if isinstance(label, Label):
            label = label.index
        if isinstance(label, str):
            try:
                return self.names.index(label)
            except ValueError:
                raise InputError(f"unknown label name {label!r}") from None
        i = int(label)
        if not 0 <= i < self.size:
            raise InputError(f"label index {i} out of range 0..{self.size - 1}")
        return i

    def channels(self, a: int, b: int):
        """Indices c with N[a,b,c] > 0, in canonical order."""
        return np.nonzero(self.N[a, b])[0]

    def is_multiplicity_free(self) -> bool:
        return bool(self.N.max(initial=0) <= 1)

    def is_commutative(self) -> bool:
        return bool(np.array_equal(self.N, self.N.transpose(1, 0, 2)))

    def __eq__(self, other):
        return (
            isinstance(other, FusionRing)
            and self.names == other.names
            and np.array_equal(self.dual, other.dual)
            and np.array_equal(self.N, other.N)
        )

    def __repr__(self):
        return f"FusionRing({self.names})"


@dataclass
class SMatrix:
    """A square complex matrix with an explicit normalization tag.

    The tag distinguishes the raw matrix of quantum traces from its rescaling
    by the positive square root of the global dimension; the fusion-coefficient
    formula only makes sense for the normalized one.
    """

    entries: np.ndarray
    normalization: str = "unnormalized"  # or "normalized"

    def __post_init__(self):
        self.entries = np.asarray(self.entries, dtype=complex)
        if self.entries.ndim != 2 or self.entries.shape[0] != self.entries.shape[1]:
            raise InputError(f"S-matrix must be square, got shape {self.entries.shape}")
        if self.normalization not in ("unnormalized", "normalized"):
            raise InputError(f"unknown normalization tag {self.normalization!r}")

    @property
    def size(self):
        return self.entries.shape[0]


def _s_margin(s: np.ndarray) -> float | None:
    """sigma_min / sigma_max of an S-matrix, a scale-free margin of invertibility; None when it
    is empty or not finite.  Below ``DET_TOL``, S is singular: ``check_modular`` calls coherent
    data degenerate and ``verlinde_coefficients`` refuses it."""
    if not (s.size and np.isfinite(s).all()):
        return None
    sv = np.linalg.svd(s, compute_uv=False)
    return float(sv[-1] / sv[0]) if sv[0] > 0 else 0.0


def validate_ring(ring: FusionRing) -> ValidationReport:
    """Check every ring invariant; violations are data, not exceptions."""
    report = ValidationReport()
    m = ring.size
    N, dual = ring.N, ring.dual

    if sorted(dual.tolist()) != list(range(m)):
        report.add("duality", (), "dual is not a permutation of 0..m-1")
        return report  # index arithmetic below would be unsafe

    if (N < 0).any():
        a, b, c = np.argwhere(N < 0)[0]
        report.add("nonnegativity", (a, b, c), f"N[{a},{b},{c}] = {N[a, b, c]} < 0")

    for a in range(m):
        if dual[dual[a]] != a:
            report.add("duality", (a,), f"dual(dual({a})) = {dual[dual[a]]} != {a}")
    if dual[UNIT] != UNIT:
        report.add("duality", (UNIT,), f"dual(unit) = {dual[UNIT]} != unit")

    eye = np.eye(m, dtype=int)
    if not np.array_equal(N[UNIT], eye):
        a, c = np.argwhere(N[UNIT] != eye)[0]
        report.add("unit", (UNIT, a, c), f"N[e,{a},{c}] = {N[UNIT, a, c]} != delta")
    if not np.array_equal(N[:, UNIT, :], eye):
        a, c = np.argwhere(N[:, UNIT, :] != eye)[0]
        report.add("unit", (a, UNIT, c), f"N[{a},e,{c}] = {N[a, UNIT, c]} != delta")

    for a in range(m):
        for b in range(m):
            want = 1 if b == dual[a] else 0
            if N[a, b, UNIT] != want:
                report.add(
                    "duality-channel",
                    (a, b),
                    f"N[{a},{b},e] = {N[a, b, UNIT]} but dual({a}) = {dual[a]}",
                )

    lhs = np.einsum("abx,xcd->abcd", N, N)
    rhs = np.einsum("ayd,bcy->abcd", N, N)
    if not np.array_equal(lhs, rhs):
        a, b, c, d = np.argwhere(lhs != rhs)[0]
        report.add(
            "associativity",
            (a, b, c, d),
            f"sum_x N[{a},{b},x]N[x,{c},{d}] = {lhs[a, b, c, d]} != "
            f"sum_y N[{a},y,{d}]N[{b},{c},y] = {rhs[a, b, c, d]}",
        )
    return report


def fuse(ring: FusionRing, a, b) -> list[tuple[Label, int]]:
    """Decompose a x b: all (label, multiplicity) with N[a,b,c] > 0."""
    ia, ib = ring.index(a), ring.index(b)
    return [
        (Label(int(c), ring.names[int(c)]), int(ring.N[ia, ib, c]))
        for c in ring.channels(ia, ib)
    ]


def fp_dimensions(ring: FusionRing) -> np.ndarray:
    """Perron-Frobenius eigenvalue of each fusion matrix (N[a,b,c])_{b,c}.

    These are the unique positive ring homomorphism values; they serve as the
    positivity cross-check against the possibly signed categorical dimensions.
    """
    dims = np.empty(ring.size)
    for a in range(ring.size):
        try:
            eig = np.linalg.eigvals(ring.N[a].astype(float))
        except np.linalg.LinAlgError as exc:
            raise ComputationError(f"eigensolver failed on fusion matrix of label {a}: {exc}")
        dims[a] = np.abs(eig).max()
    return dims


@dataclass
class VerlindeResult:
    """Fusion tensor recovered from an S-matrix, raw and rounded."""

    raw: np.ndarray  # complex (m, m, m)
    rounded: np.ndarray  # int (m, m, m)
    max_error: float  # largest |raw - rounded| entry

    @property
    def integral(self) -> bool:
        return self.max_error < 1e-6


def verlinde_coefficients(S: SMatrix) -> VerlindeResult:
    """Recover N'[a,b,c] = sum_x S[a,x] S[b,x] conj(S[c,x]) / S[e,x].

    Requires the normalized S-matrix; the tag is checked so an unnormalized
    matrix cannot be used silently.  S must be finite and non-empty (else InputError) and
    is singular when its margin sigma_min / sigma_max is below ``DET_TOL``, the rule of
    ``check_modular``; ``|S[e,x]|`` below ``_GUARD_TOL`` is not divided by.  Either raises
    DegenerateSMatrix.
    """
    if S.normalization != "normalized":
        raise InputError("fusion-coefficient formula requires the normalized S-matrix")
    s = S.entries
    margin = _s_margin(s)
    if margin is None:
        raise InputError("S-matrix must be non-empty with finite entries")
    if margin < DET_TOL:
        raise DegenerateSMatrix("S-matrix is singular; cannot diagonalize fusion rules")
    row = s[UNIT]
    if np.abs(row).min() < _GUARD_TOL:
        x = int(np.argmin(np.abs(row)))
        raise DegenerateSMatrix(f"|S[e,{x}]| = {abs(row[x]):.3e} below division guard")
    raw = np.einsum("ax,bx,cx->abc", s, s, s.conj() / row)
    rounded = np.round(raw.real).astype(int)
    max_error = float(np.abs(raw - rounded).max())
    return VerlindeResult(raw=raw, rounded=rounded, max_error=max_error)
