import numpy as np
import pytest

from mtcat import (
    DegenerateSMatrix,
    FusionRing,
    InputError,
    SMatrix,
    check_modular,
    fp_dimensions,
    fuse,
    make,
    validate_ring,
    verlinde_coefficients,
)

PHI = (1 + np.sqrt(5)) / 2


def fib_ring():
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = N[1, 1, 1] = 1
    return FusionRing(["1", "tau"], [0, 1], N)


def test_trivial_ring_validates():
    ring = FusionRing(["1"], [0], np.ones((1, 1, 1), dtype=int))
    assert validate_ring(ring).ok


def test_fibonacci_ring_validates_exhaustively():
    ring = fib_ring()
    report = validate_ring(ring)
    assert report.ok
    # independent associativity oracle: brute force over all 16 quadruples
    N = ring.N
    for a in range(2):
        for b in range(2):
            for c in range(2):
                for d in range(2):
                    lhs = sum(N[a, b, x] * N[x, c, d] for x in range(2))
                    rhs = sum(N[a, y, d] * N[b, c, y] for y in range(2))
                    assert lhs == rhs


def test_broken_duality_is_reported_with_witness():
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    ring = FusionRing(["1", "tau"], [0, 0], N)  # dual(tau) = 1: not an involution on e
    report = validate_ring(ring)
    assert not report.ok
    assert any(v.invariant == "duality" for v in report.violations)


def test_unit_row_violation_witnessed():
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[0, 1, 0] = 1  # breaks N[e,a,c] = delta
    report = validate_ring(FusionRing(["1", "x"], [0, 1], N))
    assert any(v.invariant == "unit" and v.witness == (0, 1, 0) for v in report.violations)


def test_associativity_violation_witnessed():
    N = np.zeros((3, 3, 3), dtype=int)
    for a in range(3):
        N[0, a, a] = N[a, 0, a] = 1
    N[1, 1, 0] = N[2, 2, 0] = 1
    N[1, 2, 0] = 0
    N[1, 1, 2] = 1  # 1x1 = e + 2, but 2x1 empty: associativity must break
    report = validate_ring(FusionRing(["e", "a", "b"], [0, 1, 2], N))
    assert [(v.invariant, v.witness, v.message) for v in report.violations] == [
        ("associativity", (1, 1, 2, 0),
         "sum_x N[1,1,x]N[x,2,0] = 1 != sum_y N[1,y,0]N[1,2,y] = 0")]


def _fib_ring_with(entry, value):
    N = fib_ring().N.copy()
    N[entry] = value
    return FusionRing(["1", "tau"], [0, 1], N)


@pytest.mark.parametrize("ring,invariant,witness,message", [
    (lambda: _fib_ring_with((1, 1, 1), -1), "nonnegativity", (1, 1, 1), "N[1,1,1] = -1 < 0"),
    (lambda: FusionRing(list("1xyz"), [0, 2, 3, 1], np.zeros((4, 4, 4), dtype=int)),
     "duality", (1,), "dual(dual(1)) = 3 != 1"),  # a 3-cycle on x, y, z
    (lambda: FusionRing(["1", "tau"], [1, 0], fib_ring().N), "duality", (0,),
     "dual(unit) = 1 != unit"),
    (lambda: _fib_ring_with((1, 0, 0), 1), "unit", (1, 0, 0), "N[1,e,0] = 1 != delta"),
], ids=["negative_entry", "dual_not_an_involution", "dual_of_unit", "right_unit_column"])
def test_ring_invariant_witnessed(ring, invariant, witness, message):
    report = validate_ring(ring())
    first = next(v for v in report.violations if v.invariant == invariant)
    assert (first.witness, first.message) == (witness, message)


def test_fuse_unit_law():
    ring = fib_ring()
    out = fuse(ring, 0, 1)
    assert [(lab.name, mult) for lab, mult in out] == [("tau", 1)]


def test_fuse_fibonacci_and_ising():
    assert [(l.index, m) for l, m in fuse(fib_ring(), "tau", "tau")] == [(0, 1), (1, 1)]
    ising = make("ising")
    assert [(l.name, m) for l, m in fuse(ising.ring, "sigma", "sigma")] == [
        ("1", 1),
        ("psi", 1),
    ]


def test_fuse_unknown_label():
    with pytest.raises(InputError):
        fuse(fib_ring(), "nope", 0)
    with pytest.raises(InputError):
        fuse(fib_ring(), 5, 0)


def test_fp_dimensions_trivial_fibonacci_ising():
    triv = FusionRing(["1"], [0], np.ones((1, 1, 1), dtype=int))
    assert fp_dimensions(triv) == pytest.approx([1.0])
    got = fp_dimensions(fib_ring())
    assert got == pytest.approx([1.0, PHI], abs=1e-12)
    ising = make("ising")
    assert fp_dimensions(ising.ring) == pytest.approx([1.0, np.sqrt(2), 1.0], abs=1e-12)


@pytest.mark.parametrize("name", ["fibonacci", "ising", "su2_k4", "pointed_z5"])
def test_fp_dimension_homomorphism(catalog, name):
    ring = catalog[name].ring
    fp = fp_dimensions(ring)
    prod = np.einsum("abc,c->ab", ring.N, fp)
    assert np.abs(np.outer(fp, fp) - prod).max() < 1e-9


def test_catalog_rings_commute(catalog):
    for name, data in catalog.items():
        assert data.ring.is_commutative(), name


def test_verlinde_trivial():
    S = SMatrix(np.array([[1.0]]), "normalized")
    out = verlinde_coefficients(S)
    assert out.rounded[0, 0, 0] == 1
    assert out.max_error < 1e-15


def test_verlinde_requires_normalized_tag():
    with pytest.raises(InputError):
        verlinde_coefficients(SMatrix(np.eye(2), "unnormalized"))


def test_verlinde_singular_matrix_rejected():
    S = SMatrix(np.ones((2, 2)), "normalized")
    with pytest.raises(DegenerateSMatrix):
        verlinde_coefficients(S)


def test_verlinde_division_guard():
    S = SMatrix(np.array([[0.0, 1.0], [1.0, 0.0]]), "normalized")
    with pytest.raises(DegenerateSMatrix):
        verlinde_coefficients(S)


@pytest.mark.parametrize("name", ["fibonacci", "ising"])
def test_verlinde_recovers_catalog_fusion(catalog, name):
    data = catalog[name]
    rep = check_modular(data)
    out = verlinde_coefficients(rep.s_norm)
    assert np.array_equal(out.rounded, data.ring.N)
    assert out.max_error < 1e-9
