"""Reference oracle for the catalog: every F and R block built key by key.

This is the per-key generator the package used before its batched kernel and
its stack writer: ``q_racah_6j`` evaluates one level-k symbol with Python
floats, and each family builds its F and R blocks one key at a time into
plain dicts.  The tests compare the package's output with it entry for entry
and byte for byte.
"""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np

from mtcat.catalog import PHI, _quantum_integers
from mtcat.category_data import CategoryData, admissible_f_keys, admissible_r_keys
from mtcat.fusion_ring import UNIT, FusionRing


def _admissible_triad(k: int, a: int, b: int, c: int) -> bool:
    return (a + b + c) % 2 == 0 and abs(a - b) <= c <= a + b and a + b + c <= 2 * k


def _factorial(qi, n: int) -> float:
    return 0.0 if n < 0 else qi.fac[n]


def _triangle_factor(qi, a: int, b: int, c: int) -> float:
    num = (
        _factorial(qi, (-a + b + c) // 2)
        * _factorial(qi, (a - b + c) // 2)
        * _factorial(qi, (a + b - c) // 2)
    )
    return math.sqrt(num / _factorial(qi, (a + b + c) // 2 + 1))


def _racah_w(qi, a, b, f, c, d, e) -> float:
    """q-deformed recoupling sum for the symbol {a b f; c d e} (twice-spins)."""
    start = max(a + b + f, f + c + d, b + c + e, a + e + d) // 2
    stop = min(a + b + c + d, a + f + c + e, b + f + d + e) // 2
    total = 0.0
    for z in range(start, stop + 1):
        denom = (
            _factorial(qi, z - (a + b + f) // 2)
            * _factorial(qi, z - (f + c + d) // 2)
            * _factorial(qi, z - (b + c + e) // 2)
            * _factorial(qi, z - (a + e + d) // 2)
            * _factorial(qi, (a + b + c + d) // 2 - z)
            * _factorial(qi, (a + f + c + e) // 2 - z)
            * _factorial(qi, (b + f + d + e) // 2 - z)
        )
        total += (-1.0) ** z * _factorial(qi, z + 1) / denom
    return total * (
        _triangle_factor(qi, a, b, f)
        * _triangle_factor(qi, f, c, d)
        * _triangle_factor(qi, b, c, e)
        * _triangle_factor(qi, a, e, d)
    )


def q_racah_6j(k: int, a: int, b: int, c: int, d: int, e: int, f: int) -> complex:
    qi = _quantum_integers(k)
    sign = -1.0 if ((a + b + c + d) // 2) % 2 else 1.0
    return complex(sign * math.sqrt(qi.num[e + 1] * qi.num[f + 1]) * _racah_w(qi, a, b, f, c, d, e))


def su2_level(k: int) -> CategoryData:
    m, kappa = k + 1, k + 2
    N = np.zeros((m, m, m), dtype=int)
    for a in range(m):
        for b in range(m):
            for c in range(m):
                if _admissible_triad(k, a, b, c):
                    N[a, b, c] = 1
    ring = FusionRing([str(jj) for jj in range(m)], np.arange(m), N)

    def r(a, b, c):
        grading = -1.0 if (a * b) % 2 else 1.0
        parity = -1.0 if ((c - a - b) // 2) % 2 else 1.0
        casimir = (c * (c + 2) - a * (a + 2) - b * (b + 2)) / 4.0
        return grading * parity * np.exp(1j * math.pi * casimir / kappa)

    weights = [float(Fraction(jj * (jj + 2), 4 * kappa)) for jj in range(m)]
    return _data(ring, lambda *key: q_racah_6j(k, *key), r,
                 weights, float(Fraction(3 * k, kappa)), f"su2_level_{k}")


def _block(value, ndim: int) -> np.ndarray:
    return np.array(complex(value)).reshape((1,) * ndim)


def _data(ring, f_entry, r_entry, weights, central, name) -> CategoryData:
    """Identity blocks for F keys with a unit among (a, b, c), ``f_entry`` for the others."""
    F = {key: _block(1.0 if UNIT in key[:3] else f_entry(*key), 4) for key in admissible_f_keys(ring)}
    R = {key: _block(r_entry(*key), 2) for key in admissible_r_keys(ring)}
    return CategoryData(ring, F, R, np.asarray(weights, dtype=float), float(central), name)


def trivial() -> CategoryData:
    ring = FusionRing(["1"], [0], np.ones((1, 1, 1), dtype=int))
    return _data(ring, None, lambda *key: 1.0, [0.0], 0.0, "trivial")


def pointed_zn(n: int, q_exponent: int = 0) -> CategoryData:
    N = np.zeros((n, n, n), dtype=int)
    for a in range(n):
        for b in range(n):
            N[a, b, (a + b) % n] = 1
    ring = FusionRing([str(a) for a in range(n)], np.array([(-a) % n for a in range(n)]), N)
    Q = q_exponent
    dims = np.array([(-1.0) ** (Q * a) for a in range(n)])
    weights = []
    for a in range(n):
        theta = dims[(2 * a) % n] / dims[a] * np.exp(1j * math.pi * Q * a * a / n)
        weights.append((np.angle(theta) / (2 * math.pi)) % 1.0)
    p_plus = sum(dims[a] ** 2 * np.exp(2j * math.pi * weights[a]) for a in range(n))
    central = (np.angle(p_plus) * 8 / (2 * math.pi)) % 8 if abs(p_plus) > 1e-12 else 0.0
    if abs(central - round(central)) < 1e-9:
        central = round(central) % 8
    return _data(
        ring,
        lambda a, b, c, d, e, f: -1.0 if (Q * a * ((b + c) // n)) % 2 else 1.0,
        lambda a, b, c: np.exp(1j * math.pi * Q * a * b / n),
        weights, central, f"pointed_z{n}_q{Q}",
    )


def fibonacci() -> CategoryData:
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = 1
    N[1, 1, 0] = N[1, 1, 1] = 1
    ring = FusionRing(["1", "tau"], [0, 1], N)
    s = 1.0 / math.sqrt(PHI)
    F = {(1, 1, 1, 1, 0, 0): 1.0 / PHI, (1, 1, 1, 1, 0, 1): s, (1, 1, 1, 1, 1, 0): s,
         (1, 1, 1, 1, 1, 1): -1.0 / PHI, (1, 1, 1, 0, 1, 1): 1.0}
    R = {(1, 1, 0): np.exp(-4j * math.pi / 5), (1, 1, 1): np.exp(3j * math.pi / 5)}
    return _data(ring, lambda *key: F[key], lambda *key: R.get(key, 1.0),
                 [0.0, 0.4], 14.0 / 5.0, "fibonacci")


def ising() -> CategoryData:
    SIG, PSI = 1, 2
    N = np.zeros((3, 3, 3), dtype=int)
    for a in range(3):
        N[0, a, a] = N[a, 0, a] = 1
    N[SIG, SIG, 0] = N[SIG, SIG, PSI] = 1
    N[SIG, PSI, SIG] = N[PSI, SIG, SIG] = 1
    N[PSI, PSI, 0] = 1
    ring = FusionRing(["1", "sigma", "psi"], [0, 1, 2], N)
    F = {}
    for e in (0, PSI):
        for f in (0, PSI):
            sign = -1.0 if (e == PSI and f == PSI) else 1.0
            F[(SIG, SIG, SIG, SIG, e, f)] = sign * (1.0 / math.sqrt(2.0))
    F[(SIG, PSI, SIG, PSI, SIG, SIG)] = F[(PSI, SIG, PSI, SIG, SIG, SIG)] = -1.0
    R = {(SIG, SIG, 0): np.exp(-1j * math.pi / 8), (SIG, SIG, PSI): np.exp(3j * math.pi / 8),
         (PSI, PSI, 0): -1.0, (SIG, PSI, SIG): -1j, (PSI, SIG, SIG): -1j}
    return _data(ring, lambda *key: F.get(key, 1.0), lambda *key: R.get(key, 1.0),
                 [0.0, 1.0 / 16.0, 0.5], 0.5, "ising")


def make(family: str, **params) -> CategoryData:
    """The reference build of a catalog entry, with ``mtcat.make``'s arguments."""
    if family == "su2_level":
        return su2_level(params["level"])
    if family == "pointed_zn":
        return pointed_zn(params["n"], params.get("q_exponent") or 0)
    return {"trivial": trivial, "fibonacci": fibonacci, "ising": ising}[family]()
