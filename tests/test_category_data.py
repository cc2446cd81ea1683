import itertools
import re

import numpy as np
import pytest

from mtcat import (
    FusionRing,
    GaugeTransform,
    IncompleteData,
    InputError,
    check_modular,
    dumps,
    f_inverse_unit_check,
    f_matrix,
    gauge_transform,
    hexagon_residual,
    make,
    pentagon_residual,
    quantum_dimensions,
    random_gauge,
    ribbon_residual,
    rigidity_scalar,
    run_report,
    s_matrix_balanced,
    s_matrix_unnormalized,
    save,
    triangle_residual,
    twist,
    validate_ring,
    validate_symbols,
)
from mtcat import category_data
from mtcat.cli import main
from mtcat.io import content_hash
from mtcat.ribbon_modular import twist_weight_residual

import reference_coherence as reference
from conftest import CATALOG, bump_one_f_and_one_r, random_rep_a4_data

PHI = (1 + np.sqrt(5)) / 2


# --- residuals on clean data -------------------------------------------------


def test_trivial_category_residuals_vanish():
    data = make("trivial")
    assert pentagon_residual(data)[0] == 0.0
    assert hexagon_residual(data, "braid")[0] == 0.0
    assert hexagon_residual(data, "inverse_braid")[0] == 0.0
    assert triangle_residual(data) == 0.0


def test_catalog_coherence(catalog):
    for name, data in catalog.items():
        assert pentagon_residual(data)[0] < 1e-12, name
        assert hexagon_residual(data, "braid")[0] < 1e-12, name
        assert hexagon_residual(data, "inverse_braid")[0] < 1e-12, name
        assert triangle_residual(data) < 1e-14, name


def _engine_and_reference(data):
    """(identity, engine result, reference result) for the pentagon and both hexagons."""
    out = [("pentagon", pentagon_residual(data), reference.pentagon_residual(data))]
    for direction in ("braid", "inverse_braid"):
        out.append(
            (
                direction,
                hexagon_residual(data, direction),
                reference.hexagon_residual(data, direction),
            )
        )
    return out


def _assert_agree(data):
    """Engine and reference agree; returns the largest residual."""
    results = _engine_and_reference(data)
    for identity, got, want in results:
        assert got[0] == pytest.approx(want[0], abs=1e-15), identity
        if want[0] > 1e-12:  # below that, ties at round-off may resolve differently
            assert got[1] == want[1], identity
    return max(want[0] for _, _, want in results)


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG])
def test_engine_matches_reference(catalog, name):
    data = catalog[name]
    assert _assert_agree(data) < 1e-12
    assert _assert_agree(bump_one_f_and_one_r(data)) > 1e-4


@pytest.mark.slow
def test_engine_matches_reference_su2_k10():
    # the clean residuals are round-off, so the perturbed copy is the sharper
    # comparison; it still evaluates every clean instance of the level
    assert _assert_agree(bump_one_f_and_one_r(make("su2_level", level=10))) > 1e-4


def test_engine_matches_reference_with_multiplicity():
    # the blocks are random, so this compares the two evaluators on large residuals
    data = random_rep_a4_data(7)
    for identity, got, want in _engine_and_reference(data):
        assert got[0] == pytest.approx(want[0], rel=1e-12), identity
        assert got[1] == want[1], identity


def _vec_s3_ring():
    """Fusion ring of the group S3: not commutative, so N[a,b,c] and N[b,a,c] differ."""
    group = list(itertools.permutations(range(3)))
    product = [[group.index(tuple(g[h[i]] for i in range(3))) for h in group] for g in group]
    N = np.zeros((6, 6, 6), dtype=int)
    for g in range(6):
        for h in range(6):
            N[g, h, product[g][h]] = 1
    dual = [row.index(0) for row in product]
    return FusionRing([str(g) for g in group], dual, N)


def test_braiding_needs_a_commutative_ring(tmp_path, capsys):
    # Vec_S3 with all-ones F and R: associative, but no braiding can exist
    ring = _vec_s3_ring()
    F = {key: np.ones(category_data.f_block_shape(ring, *key), dtype=complex)
         for key in category_data.admissible_f_keys(ring)}
    R = {key: np.ones((1, 1), dtype=complex) for key in category_data.admissible_r_keys(ring)}
    data = category_data.CategoryData(ring, F, R)
    assert pentagon_residual(data)[0] == 0.0
    message = "fusion ring is not commutative: N[1,2,3] = 0 but N[2,1,3] = 1"
    checks = [category_data.coherence_summary, check_modular, lambda d: hexagon_residual(d, "braid"),
              lambda d: hexagon_residual(d, "inverse_braid"), lambda d: twist(d, 1),
              s_matrix_unnormalized, s_matrix_balanced, ribbon_residual, twist_weight_residual]
    for check in checks:
        with pytest.raises(InputError, match=re.escape(message)):
            check(data)
    path = tmp_path / "vec_s3.json"
    save(data, str(path))
    assert main(["verify", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}") and err.count("\n") == 1


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["rep_a4", "vec_s3"])
def test_tables_match_reference(catalog, name):
    # the copy-free tables, in blocks, against the row-copying builders: the
    # blocks joined end to end, with their label rows built again from their
    # cells, have the same rows in the same order
    rings = {"rep_a4": lambda: random_rep_a4_data(7).ring, "vec_s3": _vec_s3_ring}
    ring = catalog[name].ring if name in catalog else rings[name]()
    assert validate_ring(ring).ok
    for identity in ("pentagon", "hexagon"):
        want = reference.concatenated(reference.unblocked_tables(ring, identity))
        got = reference.concatenated(reference.labelled_blocks(ring, identity))
        for got_table, want_table in zip(got, want, strict=True):
            assert got_table.shape == want_table.shape, identity
            assert np.array_equal(got_table, want_table), identity


def test_inverse_braid_with_a_singular_block():
    data = random_rep_a4_data(7)
    data.R[(3, 3, 0)] = np.zeros((1, 1), dtype=complex)  # one of many 1x1 blocks
    assert np.isnan(hexagon_residual(data, "inverse_braid")[0])
    for stack in category_data._table_stacks(data.ring, data.R, "R"):
        for block, inverse in zip(stack, category_data._inverse(stack)):
            if block.any():
                assert np.array_equal(inverse, np.linalg.inv(block))
            else:
                assert inverse.shape == block.shape and np.isnan(inverse).all()


def test_perturbed_pentagon_detected(fib):
    bad = fib.copy()
    bad.F[(1, 1, 1, 1, 0, 0)] = bad.F[(1, 1, 1, 1, 0, 0)] + 1e-3
    res, worst = pentagon_residual(bad)
    assert res >= 5e-4
    assert worst[:4] == (1, 1, 1, 1)


def test_negated_r_breaks_hexagon(fib):
    bad = fib.copy()
    bad.R[(1, 1, 0)] = -bad.R[(1, 1, 0)]
    assert hexagon_residual(bad, "braid")[0] >= 0.1


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["rep_a4"])
def test_triangle_matches_reference(catalog, name):
    data = catalog[name] if name in catalog else random_rep_a4_data(7)
    for copy in (data, bump_one_f_and_one_r(data)):
        assert triangle_residual(copy) == reference.triangle_residual(copy)
        assert category_data.coherence_summary(copy)["triangle"] == triangle_residual(copy)


def test_triangle_with_multiplicity():
    data = random_rep_a4_data(7)
    for key, block in data.F.items():
        if 0 in key[:3]:  # make every unit block the identity, some of them 2x2
            rows = block.shape[0] * block.shape[1]
            data.F[key] = np.eye(rows, block.size // rows).reshape(block.shape).astype(complex)
    assert data.F[(0, 3, 3, 3, 3, 3)].shape == (2, 1, 1, 2)
    assert triangle_residual(data) == 0.0
    data.F[(0, 3, 3, 3, 3, 3)][0, 0, 0, 1] = 0.5  # off the diagonal
    assert triangle_residual(data) == 0.5


def test_triangle_flags_bad_unit_entry(fib):
    bad = fib.copy()
    bad.F[(0, 1, 1, 1, 1, 1)] = np.array(2.0 + 0j).reshape(1, 1, 1, 1)
    assert triangle_residual(bad) == pytest.approx(1.0)


def test_missing_entry_raises_incomplete(fib):
    bad = fib.copy()
    del bad.F[(1, 1, 1, 1, 0, 0)]
    with pytest.raises(IncompleteData) as err:
        pentagon_residual(bad)
    assert err.value.key == (1, 1, 1, 1, 0, 0)


@pytest.mark.parametrize("direction", ["braid", "inverse_braid"])
def test_missing_r_entry_raises_incomplete(catalog, direction):
    for missing in ([(3, 2, 1)], [(3, 2, 1), (2, 3, 1)]):
        bad = catalog["su2_k5"].copy()
        for key in missing:
            del bad.R[key]
        with pytest.raises(IncompleteData) as err:
            hexagon_residual(bad, direction)
        assert (err.value.key, err.value.kind) == (min(missing), "R")  # first in admissible order


# --- fusing matrices ---------------------------------------------------------


def test_f_matrix_trivial():
    lm = f_matrix(make("trivial"), 0, 0, 0, 0)
    assert lm.matrix.shape == (1, 1)
    assert lm.matrix[0, 0] == 1.0


def test_f_matrix_fibonacci_values(fib):
    lm = f_matrix(fib, 1, 1, 1, 1)
    assert lm.row_index == [(0, 0, 0), (1, 0, 0)]
    want = np.array([[1 / PHI, 1 / np.sqrt(PHI)], [1 / np.sqrt(PHI), -1 / PHI]])
    assert np.abs(lm.matrix - want).max() < 1e-12


def test_f_matrix_ising_hadamard(ising):
    lm = f_matrix(ising, 1, 1, 1, 1)
    want = np.array([[1.0, 1.0], [1.0, -1.0]]) / np.sqrt(2)
    assert np.abs(lm.matrix - want).max() < 1e-12


def test_f_matrix_inadmissible_tuple(ising):
    with pytest.raises(InputError, match="inadmissible"):
        f_matrix(ising, 1, 2, 2, 2)  # sigma x psi x psi cannot reach psi


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["rep_a4"])
def test_stacked_fusing_matrices_match_f_matrix(catalog, name):
    data = catalog[name] if name in catalog else random_rep_a4_data(7)
    m = data.ring.size
    seen = []
    for abcd, mats in category_data._fusing_matrices(data.ring, category_data._f_values(data)):
        for x, mat in zip(abcd.tolist(), mats):
            assert np.array_equal(mat, f_matrix(data, *np.unravel_index(x, (m,) * 4)).matrix)
        seen += abcd.tolist()
    assert sorted(seen) == sorted({np.ravel_multi_index(k[:4], (m,) * 4) for k in data.F})


# name -> (base data, edits); an edit replaces one F or R block, or deletes it (None)
DEFECTS = {
    "missing_f": ("su2_k3", [("F", (1, 1, 1, 1, 0, 0), None)]),
    "extra_f": ("su2_k3", [("F", (1, 1, 1, 1, 1, 1), np.ones((1, 1, 1, 1)))]),
    "shape_f": ("su2_k3", [("F", (1, 1, 1, 1, 0, 0), np.ones((1, 1)))]),
    "shape_r": ("su2_k3", [("R", (1, 1, 0), np.ones((1, 2)))]),
    "singular_r": ("su2_k3", [("R", (1, 1, 0), np.zeros((1, 1)))]),
    "shape_r_after_singular_r": (
        "su2_k3",
        [("R", (1, 2, 1), np.ones((1, 2))), ("R", (1, 1, 0), np.zeros((1, 1)))],
    ),
    "singular_f": ("su2_k3", [("F", (3, 3, 3, 3, 0, 0), np.zeros((1, 1, 1, 1)))]),
    "singular_f_rep_a4": (  # 7x7, 2x2 and 1x1 fusing matrices; the 2x2 key comes first
        "rep_a4",
        [
            ("F", (3, 3, 3, 3, 3, 3), np.zeros((2, 2, 2, 2))),
            ("F", (3, 3, 0, 0, 3, 0), np.zeros((1, 1, 1, 1))),
            ("F", (0, 3, 3, 3, 3, 3), np.zeros((2, 1, 1, 2))),
        ],
    ),
    "singular_r_rep_a4": ("rep_a4", [("R", (3, 3, 3), np.ones((2, 2)))]),
}


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["rep_a4", *DEFECTS])
def test_validate_symbols_matches_reference(catalog, name):
    base, edits = DEFECTS.get(name, (name, []))
    data = (catalog[base] if base in catalog else random_rep_a4_data(7)).copy()
    for kind, key, block in edits:
        table = data.F if kind == "F" else data.R
        if block is None:
            del table[key]
        else:
            table[key] = block.astype(complex)
    problems = validate_symbols(data)
    assert problems == reference.validate_symbols(data)
    assert bool(problems) == bool(edits)


def test_f_matrices_invertible(catalog):
    for name, data in catalog.items():
        for key in {k[:4] for k in data.F}:
            mat = f_matrix(data, *key).matrix
            assert np.abs(mat @ np.linalg.inv(mat) - np.eye(mat.shape[0])).max() < 1e-10


# --- rigidity ----------------------------------------------------------------


def test_rigidity_scalar_values(fib, ising, semion):
    assert rigidity_scalar(make("trivial"), 0) == pytest.approx(1.0)
    assert rigidity_scalar(fib, 1) == pytest.approx(1 / PHI, abs=1e-12)
    assert rigidity_scalar(semion, 1) == pytest.approx(-1.0, abs=1e-14)
    assert rigidity_scalar(ising, 1) == pytest.approx(1 / np.sqrt(2), abs=1e-12)


def test_rigidity_scalar_nonzero_everywhere(catalog):
    for name, data in catalog.items():
        for a in range(data.ring.size):
            assert abs(rigidity_scalar(data, a)) > 1e-6, (name, a)


def test_f_inverse_unit_check(catalog):
    for name, data in catalog.items():
        for a in range(data.ring.size):
            assert f_inverse_unit_check(data, a) < 1e-12, (name, a)


@pytest.mark.parametrize(
    "name,variant",
    [(name, v) for name, _, _ in CATALOG for v in ("plain", "gauged", "bumped")]
    + [("rep_a4", "plain")],
)
def test_pairing_reads_match_f_matrix(catalog, name, variant):
    data = random_rep_a4_data(0) if name == "rep_a4" else catalog[name]
    if variant == "gauged":
        data = gauge_transform(data, random_gauge(data.ring, 0))
    elif variant == "bumped":
        data = bump_one_f_and_one_r(data)
    # the stacked view gives the same numbers, bit for bit, as one f_matrix per label
    labels = range(data.ring.size)
    scalars = [reference.rigidity_scalar(data, a) for a in labels]
    checks = [reference.f_inverse_unit_check(data, a) for a in labels]
    assert [rigidity_scalar(data, a) for a in labels] == scalars
    assert [f_inverse_unit_check(data, a) for a in labels] == checks
    assert category_data._inverse_unit_checks(data).tolist() == checks
    dims = quantum_dimensions(data)
    assert dims.tobytes() == np.array([1.0 / x for x in scalars], dtype=complex).tobytes()


def test_singular_pairing_matrix(fib):
    bad = fib.copy()
    for e in (0, 1):
        for f in (0, 1):
            bad.F[(1, 1, 1, 1, e, f)] = np.ones((1, 1, 1, 1), dtype=complex)
    with pytest.raises(InputError, match=r"fusing matrix of \(1, dual, 1, 1\) is singular"):
        f_inverse_unit_check(bad, 1)
    checks = category_data._inverse_unit_checks(bad)
    assert checks[0] == 0.0 and np.isnan(checks[1])
    assert rigidity_scalar(bad, 1) == 1.0


# --- gauge transforms --------------------------------------------------------


def test_identity_gauge_is_exact_identity(fib):
    out = gauge_transform(fib, GaugeTransform(ring=fib.ring))
    for key in fib.F:
        assert np.array_equal(out.F[key], fib.F[key]), key
    for key in fib.R:
        assert np.array_equal(out.R[key], fib.R[key]), key


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_gauge_matches_dense_reference_with_multiplicity(seed):
    data = random_rep_a4_data(7)
    gauge = random_gauge(data.ring, seed)
    g = gauge.matrix(3, 3, 3)
    assert g.shape == (2, 2) and np.abs(g - np.diag(np.diag(g))).max() > 0.1  # non-abelian
    assert len({block.shape for block in data.F.values()}) >= 2  # batches of several shapes
    got = gauge_transform(data, gauge)
    want = reference.gauge_transform(data, gauge)
    assert got.F.keys() == want.F.keys() and got.R.keys() == want.R.keys()
    for key in want.F:
        assert np.abs(got.F[key] - want.F[key]).max() < 1e-12, key
    for key in want.R:
        assert np.abs(got.R[key] - want.R[key]).max() < 1e-12, key


def test_gauge_preserves_residuals_and_rigidity(catalog):
    for name in ("fibonacci", "ising", "pointed_z4", "su2_k3"):
        data = catalog[name]
        base = [rigidity_scalar(data, a) for a in range(data.ring.size)]
        for seed in (0, 1):
            gauged = gauge_transform(data, random_gauge(data.ring, seed))
            assert pentagon_residual(gauged)[0] < 1e-10, name
            assert hexagon_residual(gauged, "braid")[0] < 1e-10, name
            assert triangle_residual(gauged) < 1e-12, name
            for a in range(data.ring.size):
                assert abs(rigidity_scalar(gauged, a) - base[a]) < 1e-10, (name, a)


def test_diagonal_unimodular_gauge(fib):
    rng = np.random.default_rng(42)
    # (tau, tau, e) is a pinned pairing triple; only (tau, tau, tau) is free
    phases = {(1, 1, 1): np.exp(2j * np.pi * rng.random()).reshape(1, 1)}
    gauged = gauge_transform(fib, GaugeTransform(ring=fib.ring, matrices=phases))
    assert pentagon_residual(gauged)[0] < 1e-10
    assert rigidity_scalar(gauged, 1) == pytest.approx(rigidity_scalar(fib, 1), abs=1e-12)


def test_gauge_rejects_unit_triple(fib):
    g = GaugeTransform(ring=fib.ring, matrices={(0, 1, 1): np.array([[2.0]])})
    with pytest.raises(InputError, match="unit triple"):
        gauge_transform(fib, g)


@pytest.mark.parametrize("key", [(-1, 1, 1), (5, 1, 1), (1, 1)])
def test_gauge_rejects_a_key_that_is_not_three_labels(fib, key):
    g = GaugeTransform(ring=fib.ring, matrices={key: np.array([[2.0]])})
    with pytest.raises(InputError, match=rf"gauge key {re.escape(repr(key))} is not three label"):
        gauge_transform(fib, g)


def test_gauge_rejects_singular_matrix(fib):
    g = GaugeTransform(ring=fib.ring, matrices={(1, 1, 1): np.array([[0.0]])})
    with pytest.raises(InputError, match="not invertible"):
        gauge_transform(fib, g)


# --- the batched gauge draw and check against the per-vertex oracles ---------

GAUGE_DATA = [name for name, _, _ in CATALOG] + ["rep_a4"]


def _gauge_data(catalog, name):
    return random_rep_a4_data(7) if name == "rep_a4" else catalog[name]


@pytest.mark.parametrize("name", GAUGE_DATA)
def test_random_gauge_matches_reference(catalog, name):
    ring = _gauge_data(catalog, name).ring
    for seed in range(5):
        got = random_gauge(ring, seed).matrices
        want = reference.random_gauge(ring, seed).matrices
        assert list(got) == list(want)  # the same vertices in the same order
        for key, g in want.items():
            assert got[key].shape == g.shape and got[key].dtype == g.dtype, key
            assert got[key].tobytes() == g.tobytes(), (seed, key)  # bit for bit
    if name == "rep_a4":
        assert {g.shape for g in got.values()} == {(1, 1), (2, 2)}  # sizes mixed


def test_random_gauge_rejects_negative_seed(fib):
    with pytest.raises(InputError, match="non-negative integer, got -1"):
        random_gauge(fib.ring, -1)


def _bad_gauge(ring, case, seed):
    """A seeded random gauge with one or two bad matrices placed in its dict order."""
    items = list(random_gauge(ring, seed).matrices.items())
    rng = np.random.default_rng(seed)

    def put(key, g):
        items.insert(int(rng.integers(len(items) + 1)), (key, g))

    N, m = ring.N, ring.size
    if case == "inadmissible":
        put(tuple(int(x) for x in np.argwhere(N == 0)[0]), np.eye(1))
    elif case == "unit":
        a = int(rng.integers(m))
        put((0, a, a), 2 * np.eye(int(N[0, a, a])))
    elif case == "unit_close":  # within allclose of the identity: accepted
        a = int(rng.integers(m))
        put((a, 0, a), np.eye(int(N[a, 0, a])) + 1e-15)
    else:
        i = int(rng.integers(len(items)))
        n = len(items[i][1])
        if case == "shape":
            items[i] = items[i][0], np.eye(n + 1)
        elif case == "singular":
            items[i] = items[i][0], np.zeros((n, n))
        elif case == "nan":
            items[i] = items[i][0], np.full((n, n), np.nan)
        elif case == "lists":  # not arrays, and valid
            items[i] = items[i][0], np.eye(n).tolist()
        elif case == "singular_then_unit":
            items[i] = items[i][0], np.zeros((n, n))
            items.append(((0, 0, 0), np.array([[3.0]])))
    return GaugeTransform(ring=ring, matrices=dict(items))


@pytest.mark.parametrize("name", GAUGE_DATA)
def test_gauge_validation_matches_reference(catalog, name):
    ring = _gauge_data(catalog, name).ring
    cases = ["unit", "unit_close"]
    if (ring.N == 0).any():
        cases.append("inadmissible")
    if random_gauge(ring, 0).matrices:  # a vertex that is not pinned
        cases += ["shape", "singular", "nan", "lists", "singular_then_unit"]
    for case in cases:
        for seed in range(3):
            gauge = _bad_gauge(ring, case, seed)
            try:
                reference.validate_gauge(gauge)
            except Exception as exc:
                want = exc
            else:
                gauge.validate()
                assert case in ("unit_close", "lists"), case
                continue
            with pytest.raises(Exception) as got:
                gauge.validate()
            assert type(got.value) is type(want), (case, seed, got.value, want)
            assert str(got.value) == str(want), (case, seed)


def test_gauge_transform_rejects_a_misshapen_block(fib):
    bad = fib.copy()
    bad.F[(1, 1, 1, 1, 1, 1)] = bad.F[(1, 1, 1, 1, 1, 1)].reshape(1, 1, 1)
    with pytest.raises(InputError, match="admissible shapes"):
        gauge_transform(bad, random_gauge(fib.ring, 0))


def test_gauge_transform_follows_the_key_order():
    data = random_rep_a4_data(5)
    gauge = random_gauge(data.ring, 3)
    want = gauge_transform(data, gauge)
    flipped = data.copy()
    flipped.F = dict(reversed(flipped.F.items()))
    flipped.R = dict(reversed(flipped.R.items()))
    for _ in range(2):  # a new key order, then the first one again
        for source in (flipped, data):
            got = gauge_transform(source, gauge)
            assert list(got.F) == list(source.F) and list(got.R) == list(source.R)
            for key in want.F:
                assert got.F[key].tobytes() == want.F[key].tobytes(), key
            for key in want.R:
                assert got.R[key].tobytes() == want.R[key].tobytes(), key


# --- blocks of the right size and the wrong shape -----------------------------


def _misshapen(catalog, case):
    """su(2)_3 with one F block given a leading axis, or Rep(A4) with its 2x2x2x2 F block or
    its 2x2 R block laid out in another shape of the same size."""
    if case == "su2_k3":
        data = catalog["su2_k3"].copy()
        key = sorted(data.F)[len(data.F) // 2]
        data.F[key] = data.F[key][None]
        return data
    data = random_rep_a4_data(7)
    if case == "rep_a4_f":
        data.F[(3, 3, 3, 3, 3, 3)] = data.F[(3, 3, 3, 3, 3, 3)].reshape(4, 1, 2, 2)
    else:
        data.R[(3, 3, 3)] = data.R[(3, 3, 3)].reshape(1, 4)
    return data


@pytest.mark.parametrize("case", ["su2_k3", "rep_a4_f", "rep_a4_r"])
def test_blocks_of_another_shape_of_the_same_size_are_rejected(catalog, case):
    data = _misshapen(catalog, case)
    kind = "R" if case == "rep_a4_r" else "F"
    assert f"shape-{kind}" in {problem[0] for problem in validate_symbols(data)}
    readers = [category_data.coherence_summary, run_report, dumps, content_hash]
    if kind == "R":  # the inverse braid and the monodromies read R alone
        readers += [lambda d: hexagon_residual(d, "inverse_braid"), ribbon_residual]
    for read in readers:
        with pytest.raises(InputError, match="F/R blocks do not have their admissible shapes"):
            read(data)
