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

Every generator writes its F and R entries straight into the per-shape
stacks of the ring's plan, with identity blocks for unit-label fusing
matrices, and gives per-label lowest weights and a central charge.  Each is
expected to pass every coherence check; the test suite treats that as this
module's own acceptance gate.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import _FAMILIES as FAMILIES
from .category_data import CategoryData, _key_labels, _stacked, _stacking
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
        for name in ("level", "n", "q_exponent"):
            value = getattr(self, name)
            if value is not None and (type(value) is bool or not isinstance(value, int)):
                raise InputError(f"{name} must be an integer, got {value!r}")
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


def _finalize(ring, f, r, weights, central_charge, name) -> CategoryData:
    """The data of a multiplicity-free ring, its F and R entries written straight into the
    per-shape stacks of the ring's plan.  F blocks with a unit among (a, b, c) are identities;
    ``f`` is called with the label columns of the other F keys, ``r`` with those of every R
    key, both in admissible-key order, and each returns the entries of its keys."""
    tables = []
    for kind, entries in (("F", f), ("R", r)):
        stacking, labels = _stacking(ring, kind), _key_labels(ring, kind)
        keys = stacking.admissible
        flat = np.ones(len(keys), dtype=complex)
        live = (labels[:3] != UNIT).all(axis=0) if kind == "F" else slice(None)
        flat[live] = entries(*labels[:, live])
        stacks = [flat[x].reshape(-1, *shape) for shape, _, _, x in stacking.groups]
        tables.append(_stacked(ring, kind, keys, stacks))
    return CategoryData(ring, *tables, weights=np.asarray(weights, dtype=float),
                        central_charge=float(central_charge), name=name)


def _each(entry):
    """``entry`` as a function of key columns, called key by key on Python ints."""
    return lambda *labels: [entry(*key) for key in zip(*(x.tolist() for x in labels))]


def _table(entries: dict):
    """The listed entries; 1 for every other key."""
    return _each(lambda *key: entries.get(key, 1.0))


# ---------------------------------------------------------------------------
# families


def _trivial() -> CategoryData:
    ring = FusionRing(["1"], [0], np.ones((1, 1, 1), dtype=int))
    return _finalize(ring, _table({}), _table({}), [0.0], 0.0, "trivial")


def _pointed_zn(n: int, q_exponent: int) -> CategoryData:
    """Group ring of Z_n; braiding from the form exponent.

    Associativity data: omega(a,b,c) = (-1)^(Q a floor((b+c)/n)); braiding
    R(a,b) = exp(i pi Q a b / n).  The unit-channel fusing elements come out
    as (-1)^(Q a), so for odd Q on even n the self-dual label n/2 carries the
    sign that makes its categorical dimension -1 while its Perron dimension
    stays 1.
    """
    names = [str(a) for a in range(n)]
    x = np.arange(n)
    N = np.zeros((n, n, n), dtype=int)
    N[x[:, None], x, (x[:, None] + x) % n] = 1
    ring = FusionRing(names, (-x) % n, N)
    Q = q_exponent

    def omega(a, b, c, d, e, f):  # only the parity of Q matters
        return np.where((Q % 2) * a * ((b + c) // n) % 2, -1.0, 1.0)

    def r(a, b, c):
        return np.exp(1j * math.pi * Q * a * b / n)

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
    return _finalize(ring, omega, _each(r), weights, central, f"pointed_z{n}_q{Q}")


def _fibonacci() -> CategoryData:
    names = ["1", "tau"]
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(names, [0, 1], N)
    s = 1.0 / math.sqrt(PHI)
    F = {
        (1, 1, 1, 1, 0, 0): 1.0 / PHI,
        (1, 1, 1, 1, 0, 1): s,
        (1, 1, 1, 1, 1, 0): s,
        (1, 1, 1, 1, 1, 1): -1.0 / PHI,
        (1, 1, 1, 0, 1, 1): 1.0,
    }
    R = {(1, 1, 0): np.exp(-4j * math.pi / 5), (1, 1, 1): np.exp(3j * math.pi / 5)}
    return _finalize(ring, _table(F), _table(R), [0.0, 0.4], 14.0 / 5.0, "fibonacci")


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
    inv_sqrt2 = 1.0 / math.sqrt(2.0)
    # sigma^4 fusing matrix: channels (1, psi) on both sides; remaining non-unit tuples are +1
    F = {(SIG, SIG, SIG, SIG, e, f): -inv_sqrt2 if e == f == PSI else inv_sqrt2
         for e in (0, PSI) for f in (0, PSI)}
    F[(SIG, PSI, SIG, PSI, SIG, SIG)] = F[(PSI, SIG, PSI, SIG, SIG, SIG)] = -1.0
    R = {
        (SIG, SIG, 0): np.exp(-1j * math.pi / 8),
        (SIG, SIG, PSI): np.exp(3j * math.pi / 8),
        (PSI, PSI, 0): -1.0,
        (SIG, PSI, SIG): -1j,
        (PSI, SIG, SIG): -1j,
    }
    return _finalize(ring, _table(F), _table(R), [0.0, 1.0 / 16.0, 0.5], 0.5, "ising")


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


@functools.lru_cache(maxsize=16)
def _quantum_integers(k: int) -> _QuantumIntegers:
    """The level-k table, built once per level and shared by every coefficient."""
    return _QuantumIntegers(k)


def _admissible_triad(k: int, a, b, c):
    """Level-k truncated triangle rule on twice-spin labels, or on arrays of them."""
    return ((a + b + c) % 2 == 0) & (abs(a - b) <= c) & (c <= a + b) & (a + b + c <= 2 * k)


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
    key = np.array([a, b, c, d, e, f])[:, None]
    return complex(_racah_6j(_quantum_integers(k), *key)[0])


def _racah_6j(qi: _QuantumIntegers, a, b, c, d, e, f) -> np.ndarray:
    """``q_racah_6j`` of every key given by its label columns, in one pass over the z range of
    the q-deformed recoupling sum of {a b f; c d e}.  Per key it makes the floating-point
    operations of a scalar evaluation in the same order: products left to right, and the
    terms (-1)^z [z+1]! / denominator summed in z order from 0.0.  The factorial indices of a
    denominator lie in 0..k, where [n]! >= 1, so none vanishes."""
    fac = qi.fac
    triads = [(a, b, f), (f, c, d), (b, c, e), (a, e, d)]
    lo = [(x + y + z) // 2 for x, y, z in triads]
    hi = [(a + b + c + d) // 2, (a + f + c + e) // 2, (b + f + d + e) // 2]
    start, stop = np.max(lo, axis=0), np.min(hi, axis=0)
    total = np.zeros(len(a))
    for z in range(start.min(initial=2 * qi.k), stop.max(initial=-1) + 1):  # empty if no keys
        at = np.flatnonzero((start <= z) & (z <= stop))  # the keys whose sum has a term at z
        denom = fac[z - lo[0][at]]
        for x in lo[1:]:
            denom = denom * fac[z - x[at]]
        for x in hi:
            denom = denom * fac[x[at] - z]
        total[at] += (-1.0) ** z * fac[z + 1] / denom
    t1, t2, t3, t4 = (
        np.sqrt(fac[(-x + y + z) // 2] * fac[(x - y + z) // 2] * fac[(x + y - z) // 2]
                / fac[(x + y + z) // 2 + 1])
        for x, y, z in triads
    )
    sign = np.where(hi[0] % 2, -1.0, 1.0)
    return sign * np.sqrt(qi.num[e + 1] * qi.num[f + 1]) * (total * (t1 * t2 * t3 * t4))


def _su2_level(k: int) -> CategoryData:
    m, kappa = k + 1, k + 2
    N = _admissible_triad(k, *np.ogrid[:m, :m, :m]).astype(int)
    ring = FusionRing([str(jj) for jj in range(m)], np.arange(m), N)

    def r(a, b, c):
        # twice-spin grading sign keeps the braiding-derived twists on the
        # branch exp(2 i pi j(j+1)/(k+2)) despite the signed dimensions
        grading = -1.0 if (a * b) % 2 else 1.0
        parity = -1.0 if ((c - a - b) // 2) % 2 else 1.0
        casimir = (c * (c + 2) - a * (a + 2) - b * (b + 2)) / 4.0
        return grading * parity * np.exp(1j * math.pi * casimir / kappa)

    weights = [Fraction(jj * (jj + 2), 4 * kappa) for jj in range(m)]
    central = Fraction(3 * k, kappa)
    return _finalize(ring, functools.partial(_racah_6j, _quantum_integers(k)), _each(r),
                     [float(h) for h in weights], float(central), f"su2_level_{k}")
