import numpy as np
import pytest

from mtcat import CategoryData, FusionRing, make, validate_ring
from mtcat.category_data import admissible_f_keys, admissible_r_keys, f_block_shape

# the standard verification set: every built-in family at desk scale
CATALOG = [
    ("trivial", "trivial", {}),
    ("pointed_z2", "pointed_zn", {"n": 2, "q_exponent": 1}),
    ("pointed_z3", "pointed_zn", {"n": 3, "q_exponent": 2}),
    ("pointed_z4", "pointed_zn", {"n": 4, "q_exponent": 1}),
    ("pointed_z5", "pointed_zn", {"n": 5, "q_exponent": 2}),
    ("pointed_z6", "pointed_zn", {"n": 6, "q_exponent": 1}),
    ("fibonacci", "fibonacci", {}),
    ("ising", "ising", {}),
] + [(f"su2_k{k}", "su2_level", {"level": k}) for k in range(1, 9)]


@pytest.fixture(scope="session")
def catalog():
    """name -> CategoryData for the whole verification set (built once)."""
    return {name: make(family, **kw) for name, family, kw in CATALOG}


@pytest.fixture(scope="session")
def fib(catalog):
    return catalog["fibonacci"]


@pytest.fixture(scope="session")
def ising(catalog):
    return catalog["ising"]


@pytest.fixture(scope="session")
def semion():
    return make("pointed_zn", n=2, q_exponent=1)


def rep_a4_ring():
    """Fusion ring of Rep(A4): 1, 1', 1'', 3 with 3 x 3 = 1 + 1' + 1'' + 2*3."""
    N = np.zeros((4, 4, 4), dtype=int)
    for x in range(3):
        for y in range(3):
            N[x, y, (x + y) % 3] = 1
        N[x, 3, 3] = N[3, x, 3] = 1
        N[3, 3, x] = 1
    N[3, 3, 3] = 2
    return FusionRing(["1", "1'", "1''", "3"], [0, 2, 1, 3], N)


def random_rep_a4_data(seed):
    """Random complex blocks of the admissible shapes over the Rep(A4) ring.

    They are not coherent; coherent data with N > 1 needs a Rep(G) catalog
    family (ROADMAP item 1, `rep_group`).
    """
    ring = rep_a4_ring()
    assert validate_ring(ring).ok and ring.N.max() == 2
    rng = np.random.default_rng(seed)

    def block(shape):
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    F = {key: block(f_block_shape(ring, *key)) for key in admissible_f_keys(ring)}
    R = {
        (a, b, c): block((ring.N[a, b, c], ring.N[b, a, c]))
        for (a, b, c) in admissible_r_keys(ring)
    }
    assert F[(3, 3, 3, 3, 3, 3)].shape == (2, 2, 2, 2)
    return CategoryData(ring=ring, F=F, R=R)


def bump_one_f_and_one_r(data, seed=0):
    """Copy with one F block and one R block moved by 1e-3 (keys drawn by seed)."""
    rng = np.random.default_rng(seed)
    bad = data.copy()
    f_keys, r_keys = sorted(bad.F), sorted(bad.R)
    f_key = f_keys[rng.integers(len(f_keys))]
    r_key = r_keys[rng.integers(len(r_keys))]
    bad.F[f_key] = bad.F[f_key] + 1e-3
    bad.R[r_key] = bad.R[r_key] + 1e-3
    return bad
