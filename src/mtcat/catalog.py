"""Ground-truth category data: built-in families with known symbol tables.

Families
--------
``trivial``      one label.
``pointed_zn``   group ring of Z_n with a quadratic-form braiding; parameters
                 ``n`` and the form exponent ``q_exponent`` (``n * q_exponent``
                 must be even for the associativity data to close).
``fibonacci``    two labels, golden-ratio fusing matrix.
``ising``        three labels, the sqrt(2) fusing matrix with positive
                 unit-channel element and sigma-weight 1/16.
``su2_level``    level-k quantum-group labels j = 0, 1/2, ..., k/2 (named by
                 twice-spin), fusing matrices from q-deformed recoupling
                 coefficients at q = exp(i pi / (k+2)).

Every generator emits explicit identity blocks for unit-label fusing
matrices, per-label lowest weights, and a central charge, and is expected to
pass every coherence check; the test suite treats that as this module's own
acceptance gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _FAMILIES as FAMILIES
from .category_data import CategoryData, admissible_f_keys, admissible_r_keys, f_block_shape
from .category_data import _stacked, _table_stacks
from .errors import InputError
from .fusion_ring import UNIT, FusionRing

MAX_LEVEL = 12

PHI = (1.0 + math.sqrt(5.0)) / 2.0


@dataclass
class CatalogSpec:
    """Which family to generate, with family-specific integer parameters."""

    family: str
    level: int | None = None  # su2_level
    n: int | None = None  # pointed_zn
    q_exponent: int | None = None  # pointed_zn

    def validate(self):
        if self.family not in FAMILIES:
            raise InputError(f"unknown family {self.family!r}; known: {', '.join(FAMILIES)}")
        if self.family == "su2_level":
            if self.level is None or not 0 <= self.level <= MAX_LEVEL:
                raise InputError(f"su2_level needs a level in 0..{MAX_LEVEL}")
        if self.family == "pointed_zn":
            if self.n is None or self.n < 1:
                raise InputError("pointed_zn needs n >= 1")
            q = 0 if self.q_exponent is None else self.q_exponent
            if (q * self.n) % 2 != 0:
                raise InputError(
                    f"pointed_zn with n={self.n}, q_exponent={q}: the product must be even "
                    "for the associativity data to close"
                )


def generate(spec: CatalogSpec) -> CategoryData:
    """Build the requested category data, complete and coherence-clean."""
    spec.validate()
    if spec.family == "trivial":
        return _trivial()
    if spec.family == "pointed_zn":
        return _pointed_zn(spec.n, spec.q_exponent or 0)
    if spec.family == "fibonacci":
        return _fibonacci()
    if spec.family == "ising":
        return _ising()
    return _su2_level(spec.level)


def make(family: str, **params) -> CategoryData:
    """Convenience wrapper: ``make("su2_level", level=3)`` etc."""
    return generate(CatalogSpec(family=family, **params))


# ---------------------------------------------------------------------------
# shared scaffolding


def _empty_symbols(ring: FusionRing):
    """F with unit-label blocks preset to exact identities, R preset to ones.

    Non-unit blocks start as None placeholders the family fills in.
    """
    F = {}
    for key in admissible_f_keys(ring):
        a, b, c, d, e, f = key
        shape = f_block_shape(ring, *key)
        if UNIT in (a, b, c):
            nr = shape[0] * shape[1]
            block = np.eye(nr, dtype=complex).reshape(shape)
        else:
            block = None
        F[key] = block
    R = {key: None for key in admissible_r_keys(ring)}
    return F, R


def _finalize(ring, F, R, weights, central_charge, name) -> CategoryData:
    for key, block in F.items():
        if block is None:
            raise InputError(f"generator left F entry {key} unset")
    for key, block in R.items():
        if block is None:
            raise InputError(f"generator left R entry {key} unset")
    return CategoryData(
        ring=ring,
        F=_stacked(ring, "F", F, _table_stacks(ring, F, "F")),
        R=_stacked(ring, "R", R, _table_stacks(ring, R, "R")),
        weights=np.asarray(weights, dtype=float),
        central_charge=float(central_charge),
        name=name,
    )


def _scalar(x) -> np.ndarray:
    return np.array(complex(x)).reshape(1, 1, 1, 1)


def _rscalar(x) -> np.ndarray:
    return np.array(complex(x)).reshape(1, 1)


# ---------------------------------------------------------------------------
# families


def _trivial() -> CategoryData:
    ring = FusionRing(["1"], [0], np.ones((1, 1, 1), dtype=int))
    F, R = _empty_symbols(ring)
    R[(0, 0, 0)] = _rscalar(1.0)
    return _finalize(ring, F, R, [0.0], 0.0, "trivial")


def _pointed_zn(n: int, q_exponent: int) -> CategoryData:
    """Group ring of Z_n; braiding from the form exponent.

    Associativity data: omega(a,b,c) = (-1)^(Q a floor((b+c)/n)); braiding
    R(a,b) = exp(i pi Q a b / n).  The unit-channel fusing elements come out
    as (-1)^(Q a), so for odd Q on even n the self-dual label n/2 carries the
    sign that makes its categorical dimension -1 while its Perron dimension
    stays 1.
    """
    names = [str(a) for a in range(n)]
    dual = np.array([(-a) % n for a in range(n)])
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
    ring = FusionRing(names, dual, N)
    F, R = _empty_symbols(ring)
    Q = q_exponent
    for key in F:
        a, b, c, d, e, f = key
        if UNIT in (a, b, c):
            continue
        omega = -1.0 if (Q * a * ((b + c) // n)) % 2 else 1.0
        F[key] = _scalar(omega)
    for (a, b, c) in R:
        R[(a, b, c)] = _rscalar(np.exp(1j * math.pi * Q * a * b / n))
    # twists from the braiding and the signed dimensions; weights follow them
    dims = np.array([(-1.0) ** (Q * a) for a in range(n)])
    weights = []
    for a in range(n):
        theta = dims[(2 * a) % n] / dims[a] * np.exp(1j * math.pi * Q * a * a / n)
        weights.append((np.angle(theta) / (2 * math.pi)) % 1.0)
    p_plus = sum(dims[a] ** 2 * np.exp(2j * math.pi * weights[a]) for a in range(n))
    central = (np.angle(p_plus) * 8 / (2 * math.pi)) % 8 if abs(p_plus) > 1e-12 else 0.0
    if abs(central - round(central)) < 1e-9:  # Gauss-sum phases here are integral
        central = round(central) % 8
    return _finalize(ring, F, R, weights, central, f"pointed_z{n}_q{Q}")


def _fibonacci() -> CategoryData:
    names = ["1", "tau"]
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(names, [0, 1], N)
    F, R = _empty_symbols(ring)
    s = 1.0 / math.sqrt(PHI)
    F[(1, 1, 1, 1, 0, 0)] = _scalar(1.0 / PHI)
    F[(1, 1, 1, 1, 0, 1)] = _scalar(s)
    F[(1, 1, 1, 1, 1, 0)] = _scalar(s)
    F[(1, 1, 1, 1, 1, 1)] = _scalar(-1.0 / PHI)
    F[(1, 1, 1, 0, 1, 1)] = _scalar(1.0)
    for key in R:
        R[key] = _rscalar(1.0)
    R[(1, 1, 0)] = _rscalar(np.exp(-4j * math.pi / 5))
    R[(1, 1, 1)] = _rscalar(np.exp(3j * math.pi / 5))
    return _finalize(ring, F, R, [0.0, 0.4], 14.0 / 5.0, "fibonacci")


def _ising() -> CategoryData:
    names = ["1", "sigma", "psi"]
    SIG, PSI = 1, 2
    N = np.zeros((3, 3, 3), dtype=int)
    for a in range(3):
        N[0, a, a] = N[a, 0, a] = 1
    N[SIG, SIG, 0] = N[SIG, SIG, PSI] = 1
    N[SIG, PSI, SIG] = N[PSI, SIG, SIG] = 1
    N[PSI, PSI, 0] = 1
    ring = FusionRing(names, [0, 1, 2], N)
    F, R = _empty_symbols(ring)
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # sigma^4 fusing matrix: channels (1, psi) on both sides
    for e in (0, PSI):
        for f in (0, PSI):
            sign = -1.0 if (e == PSI and f == PSI) else 1.0
            F[(SIG, SIG, SIG, SIG, e, f)] = _scalar(sign * inv_sqrt2)
    F[(SIG, PSI, SIG, PSI, SIG, SIG)] = _scalar(-1.0)
    F[(PSI, SIG, PSI, SIG, SIG, SIG)] = _scalar(-1.0)
    # remaining non-unit tuples are +1
    for key, block in F.items():
        if block is None:
            F[key] = _scalar(1.0)
    for key in R:
        R[key] = _rscalar(1.0)
    R[(SIG, SIG, 0)] = _rscalar(np.exp(-1j * math.pi / 8))
    R[(SIG, SIG, PSI)] = _rscalar(np.exp(3j * math.pi / 8))
    R[(PSI, PSI, 0)] = _rscalar(-1.0)
    R[(SIG, PSI, SIG)] = _rscalar(-1j)
    R[(PSI, SIG, SIG)] = _rscalar(-1j)
    return _finalize(ring, F, R, [0.0, 1.0 / 16.0, 0.5], 0.5, "ising")


# -- su2_level ---------------------------------------------------------------


class _QuantumIntegers:
    """Quantum integers and factorials at q = exp(i pi / (k+2)).

    Uses the sine form [n] = sin(n pi / (k+2)) / sin(pi / (k+2)), which is
    exact at the root of unity and avoids cancellation at higher levels.
    """

    def __init__(self, k: int):
        self.k = k
        self.kappa = k + 2
        top = 2 * k + 4
        self.num = np.array(
            [math.sin(n * math.pi / self.kappa) / math.sin(math.pi / self.kappa) for n in range(top)]
        )
        self.fac = np.ones(top)
        for n in range(1, top):
            self.fac[n] = self.fac[n - 1] * self.num[n]
        for table in (self.num, self.fac):  # one instance serves every caller at its level
            table.setflags(write=False)

    def __getitem__(self, n: int) -> float:
        return self.num[n]

    def factorial(self, n: int) -> float:
        if n < 0:
            return 0.0
        return self.fac[n]


@functools.lru_cache(maxsize=16)
def _quantum_integers(k: int) -> _QuantumIntegers:
    """The level-k table, built once per level and shared by every coefficient."""
    return _QuantumIntegers(k)


def _admissible_triad(k: int, a: int, b: int, c: int) -> bool:
    """Level-k truncated triangle rule on twice-spin labels."""
    return (
        (a + b + c) % 2 == 0
        and abs(a - b) <= c <= a + b
        and a + b + c <= 2 * k
    )


def q_racah_6j(k: int, a: int, b: int, c: int, d: int, e: int, f: int) -> complex:
    """Normalized recoupling coefficient for the level-k family.

    Arguments are twice-spin integers naming the fusing-matrix slot
    ``F[a,b,c,d]`` row channel ``e`` (of b,c) and column channel ``f`` (of
    a,b).  Normalization makes the fusing matrices real orthogonal with
    identity unit-label blocks.
    """
    for x in (a, b, c, d, e, f):
        if not 0 <= x <= k:
            raise InputError(f"label {x} outside 0..{k} at level {k}")
    for triad in ((b, c, e), (a, e, d), (a, b, f), (f, c, d)):
        if not _admissible_triad(k, *triad):
            raise InputError(f"inadmissible triad {triad} at level {k}")
    qi = _quantum_integers(k)
    sign = -1.0 if ((a + b + c + d) // 2) % 2 else 1.0
    value = (
        sign
        * math.sqrt(qi[e + 1] * qi[f + 1])
        * _racah_w(qi, a, b, f, c, d, e)
    )
    return complex(value)


def _triangle_factor(qi: _QuantumIntegers, a: int, b: int, c: int) -> float:
    num = (
        qi.factorial((-a + b + c) // 2)
        * qi.factorial((a - b + c) // 2)
        * qi.factorial((a + b - c) // 2)
    )
    return math.sqrt(num / qi.factorial((a + b + c) // 2 + 1))


def _racah_w(qi, a, b, f, c, d, e) -> float:
    """q-deformed recoupling sum for the symbol {a b f; c d e} (twice-spins)."""
    start = max(a + b + f, f + c + d, b + c + e, a + e + d) // 2
    stop = min(a + b + c + d, a + f + c + e, b + f + d + e) // 2
    total = 0.0
    for z in range(start, stop + 1):
        denom = (
            qi.factorial(z - (a + b + f) // 2)
            * qi.factorial(z - (f + c + d) // 2)
            * qi.factorial(z - (b + c + e) // 2)
            * qi.factorial(z - (a + e + d) // 2)
            * qi.factorial((a + b + c + d) // 2 - z)
            * qi.factorial((a + f + c + e) // 2 - z)
            * qi.factorial((b + f + d + e) // 2 - z)
        )
        if denom == 0.0:
            raise InputError(
                f"vanishing factorial in recoupling sum at level {qi.k} for "
                f"({a},{b},{f},{c},{d},{e})"
            )
        total += (-1.0) ** z * qi.factorial(z + 1) / denom
    return total * (
        _triangle_factor(qi, a, b, f)
        * _triangle_factor(qi, f, c, d)
        * _triangle_factor(qi, b, c, e)
        * _triangle_factor(qi, a, e, d)
    )


def _su2_level(k: int) -> CategoryData:
    names = [str(jj) for jj in range(k + 1)]
    m = k + 1
    N = np.zeros((m, m, m), dtype=int)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if _admissible_triad(k, a, b, c):
                    N[a, b, c] = 1
    ring = FusionRing(names, np.arange(m), N)
    F, R = _empty_symbols(ring)
    for key in F:
        a, b, c, d, e, f = key
        if UNIT in (a, b, c):
            continue
        F[key] = _scalar(q_racah_6j(k, a, b, c, d, e, f))
    kappa = k + 2
    for (a, b, c) in R:
        # twice-spin grading sign keeps the braiding-derived twists on the
        # branch exp(2 i pi j(j+1)/(k+2)) despite the signed dimensions
        grading = -1.0 if (a * b) % 2 else 1.0
        parity = -1.0 if ((c - a - b) // 2) % 2 else 1.0
        casimir = (c * (c + 2) - a * (a + 2) - b * (b + 2)) / 4.0
        R[(a, b, c)] = _rscalar(grading * parity * np.exp(1j * math.pi * casimir / kappa))
    weights = [Fraction(jj * (jj + 2), 4 * kappa) for jj in range(m)]
    central = Fraction(3 * k, kappa)
    return _finalize(
        ring, F, R, [float(h) for h in weights], float(central), f"su2_level_{k}"
    )
