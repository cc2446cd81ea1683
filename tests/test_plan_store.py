"""The plan store shared by rings of equal content, and the block-wise evaluation
against the unblocked oracle of ``reference_coherence``."""

import gc
import math
import sys
import threading

import numpy as np
import pytest

from mtcat import CategoryData, FusionRing, dumps, gauge_transform, loads, make, random_gauge
from mtcat import category_data
from mtcat.category_data import _coherence_tables, _plan, _with_r, _f_values

import reference_coherence as reference
from conftest import CATALOG, bump_one_f_and_one_r, random_rep_a4_data, rep_a4_ring


@pytest.fixture
def empty_store(monkeypatch):
    """A store with no plan in it, for tests that count plan builds; rings made before the
    test keep the plans they hold."""
    monkeypatch.setattr(category_data, "_plans", {})
    monkeypatch.setattr(category_data, "_idle", {})


@pytest.fixture
def pentagon_builds(monkeypatch):
    """The (a,b,c,d) cells of every pentagon block built, as (start, stop), in build order."""
    built, build = [], category_data._pentagon_block

    def counting(N, lay, cells):
        built.append((cells.start, cells.stop))
        return build(N, lay, cells)

    monkeypatch.setattr(category_data, "_pentagon_block", counting)
    return built


def _tile_the_cells_once(runs, ring):
    """Whether runs of cells, in order, cover every (a,b,c,d) cell of the ring once."""
    starts, stops = zip(*runs)
    return starts[0] == 0 and starts[1:] == stops[:-1] and stops[-1] == ring.size**4


def _plan_bytes(content):
    return sum(entry[1] for entry in category_data._plans[content].values())


# --- the store ---------------------------------------------------------------


def test_two_loads_of_one_text_build_the_pentagon_plan_once(empty_store, pentagon_builds):
    text = dumps(make("su2_level", level=3))
    first, second = loads(text), loads(text)
    assert first.ring is not second.ring
    assert category_data.pentagon_residual(first) == category_data.pentagon_residual(second)
    assert _tile_the_cells_once(pentagon_builds, first.ring)
    assert _plan(first.ring) is _plan(second.ring)


def test_z4_with_q0_and_q2_share_a_plan(empty_store, pentagon_builds):
    q0 = make("pointed_zn", n=4, q_exponent=0)
    q2 = make("pointed_zn", n=4, q_exponent=2)
    assert q0.ring == q2.ring and q0.ring is not q2.ring
    assert _plan(q0.ring) is _plan(q2.ring)
    category_data.coherence_summary(q0)
    category_data.coherence_summary(q2)
    assert _tile_the_cells_once(pentagon_builds, q0.ring)


def test_rings_that_differ_only_in_names_dual_or_n_do_not_share(empty_store):
    base = make("pointed_zn", n=3, q_exponent=2).ring
    names = FusionRing(["e", "x", "y"], base.dual, base.N)
    dual = FusionRing(base.names, [0, 1, 2], base.N)  # not a valid ring: only the plan matters
    N = base.N.copy()
    N[1, 1, 2] = 2
    mult = FusionRing(base.names, base.dual, N)
    plans = [_plan(ring) for ring in (base, names, dual, mult)]
    assert len({id(plan) for plan in plans}) == 4
    assert _plan(FusionRing(base.names, base.dual, base.N)) is plans[0]


def test_a_plan_lives_while_a_ring_holds_it(empty_store):
    a, b = make("fibonacci"), make("fibonacci")
    plan = _plan(a.ring)
    assert _plan(b.ring) is plan and plan.holders == 2
    category_data.coherence_summary(a)
    del a
    gc.collect()
    assert plan.holders == 1 and not category_data._idle
    del b
    gc.collect()
    assert list(category_data._idle) == [plan.content]  # idle, and kept: it fits the budget
    again = make("fibonacci")
    assert _plan(again.ring) is plan and not category_data._idle


def test_idle_plans_stay_within_the_budget(empty_store, monkeypatch):
    sizes = {}
    for n in range(2, 10):
        data = make("pointed_zn", n=n, q_exponent=2)
        category_data.coherence_summary(data)
        sizes[n] = _plan_bytes(_plan(data.ring).content)
    assert all(sizes[n] < sizes[n + 1] for n in range(2, 9))
    monkeypatch.setattr(category_data, "_PLAN_BUDGET", sizes[8] + sizes[9])
    monkeypatch.setattr(category_data, "_plans", {})
    monkeypatch.setattr(category_data, "_idle", {})

    def release(n):
        data = make("pointed_zn", n=n, q_exponent=2)
        content = _plan(data.ring).content
        category_data.coherence_summary(data)
        del data
        gc.collect()
        idle = category_data._idle
        assert sum(idle.values()) <= category_data._PLAN_BUDGET
        assert all(idle[c] == _plan_bytes(c) for c in idle)  # the counts are the plans' bytes
        assert set(category_data._plans) == set(idle)  # no live ring: every plan kept is idle
        return content in idle

    assert all(release(n) for n in range(2, 10))  # each fits the budget alone
    assert [len(names) for names, _, _ in category_data._idle] == [8, 9]
    assert release(2)  # least recently released out first
    assert [len(names) for names, _, _ in category_data._idle] == [9, 2]
    # a plan larger than the budget is dropped alone
    monkeypatch.setattr(category_data, "_PLAN_BUDGET", sizes[9] - 1)
    assert not release(9)
    assert [len(names) for names, _, _ in category_data._idle] == [2]


def test_threads_share_the_store(empty_store):
    bases = [make("pointed_zn", n=n, q_exponent=2).ring for n in (2, 3, 4)] + [make("ising").ring]
    kept = [[] for _ in range(6)]  # rings each worker keeps alive to the end
    errors = []

    def work(keep):
        try:
            for i in range(300):
                base = bases[i % len(bases)]
                ring = FusionRing(base.names, base.dual, base.N)
                keys = category_data.admissible_f_keys(ring)
                assert keys == category_data.admissible_f_keys(base)
                if i % 7 == 0:
                    keep.append(ring)
        except Exception as exc:  # reported below: an assertion in a thread fails nothing
            errors.append(exc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=work, args=(keep,)) for keep in kept]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers) and not errors, errors
    gc.collect()
    live = [ring for keep in kept for ring in keep] + bases
    for base in bases:  # a lost update of a count would break this
        plan = _plan(base)
        assert plan.holders == sum(ring._plan is plan for ring in live)
        assert all(ring._plan is plan for ring in live if ring == base)
    assert not category_data._idle


# --- block-wise evaluation against the unblocked oracle ----------------------

BLOCK_DATA = [name for name, _, _ in CATALOG] + ["rep_a4"]


def _variants(catalog, name):
    """The data, a seeded gauge of it, a bumped copy, a copy with one NaN entry and a gauged
    copy whose products overflow."""
    data = random_rep_a4_data(7) if name == "rep_a4" else catalog[name]
    nan = data.copy()
    key = sorted(nan.F)[len(nan.F) // 2]
    nan.F[key].flat[-1] = np.nan
    gauged = gauge_transform(data, random_gauge(data.ring, 0))
    return {
        "plain": data,
        "gauged": gauged,
        "bumped": bump_one_f_and_one_r(data),
        "nan": nan,
        "overflow": _overflowing(gauged),
    }


def _overflowing(data):
    """A copy with every other F block scaled by 1e160: the products of two or three scaled
    complex entries overflow, to inf or, where inf - inf meets, to a NaN part."""
    out = data.copy()
    for key in sorted(out.F)[::2]:
        out.F[key] = out.F[key] * 1e160
    return out


def _values(data):
    """identity -> the flat value arrays it is evaluated on."""
    f = _f_values(data)
    return {
        "pentagon": [f],
        "hexagon": [_with_r(data, f, "braid"), _with_r(data, f, "inverse_braid")],
    }


@np.errstate(over="ignore", invalid="ignore")  # the overflow variant
def _assert_blocks_match_oracle(data):
    ring = data.ring
    for identity, values in _values(data).items():
        blocks = _coherence_tables(ring, identity)
        chunks = reference.unblocked_tables(ring, identity)
        assert np.array_equal(  # the labels of every instance, built again from its block's cells
            np.concatenate([w for w, _, _ in reference.labelled_blocks(ring, identity)]),
            np.concatenate([w for w, _, _ in chunks]),
        )
        for vals in values:
            got = np.concatenate([category_data._residuals(vals, block) for block in blocks])
            want = np.concatenate([reference.residuals(vals, chunk) for chunk in chunks])
            assert got.tobytes() == want.tobytes(), identity  # bit for bit, NaN included
            got = category_data._worst_instance(ring, identity, vals)
            want = reference.worst_instance(chunks, vals)
            assert repr(got) == repr(want), identity  # repr: a NaN residual equals itself


@pytest.mark.parametrize("name", BLOCK_DATA)
def test_blocks_match_the_unblocked_oracle(catalog, name):
    variants = _variants(catalog, name)
    for data in variants.values():
        _assert_blocks_match_oracle(data)
    residual, _ = category_data.pentagon_residual(variants["nan"])
    assert math.isnan(residual)


@pytest.mark.parametrize("name", ["su2_k3", "su2_k5", "rep_a4"])
def test_overflow_variant_reaches_inf_and_nan(catalog, name):
    data = _variants(catalog, name)["overflow"]
    residuals, sums = [], []
    with np.errstate(over="ignore", invalid="ignore"):
        for identity, values in _values(data).items():
            for vals in values:
                for n, lhs, rhs, at in _coherence_tables(data.ring, identity):
                    residuals.append(category_data._residuals(vals, (n, lhs, rhs, at)))
                    sums += [category_data._sum(vals, side, n) for side in (lhs, rhs)]
    residuals, sums = np.concatenate(residuals), np.concatenate(sums)
    assert np.isfinite(residuals).any() and np.isinf(residuals).any() and np.isnan(residuals).any()
    assert (np.isinf(sums.real) & np.isnan(sums.imag)).any() or (
        np.isnan(sums.real) & np.isinf(sums.imag)).any()  # (inf, NaN) parts


def test_rep_a4_instances_have_several_terms():
    ring = random_rep_a4_data(7).ring
    for identity in ("pentagon", "hexagon"):
        witnesses, lhs, rhs = reference.concatenated(reference.unblocked_tables(ring, identity))
        assert np.bincount(lhs[0]).max() > 1 and np.bincount(rhs[0]).max() > 1, identity


def _fresh(ring):
    """A ring equal to ``ring`` with a plan of its own, built under the block bound in force."""
    return FusionRing(ring.names, ring.dual, ring.N)


def _counts(ring, identity):
    """The instances of every (a,b,c,d) cell, as the package counts them."""
    if identity == "pentagon":
        return category_data._pentagon_counts(ring.N)
    return category_data._hexagon_counts(ring.N)


def _cells(ring, witnesses):
    """The raveled (a,b,c,d) cell of every instance."""
    return np.ravel_multi_index(tuple(witnesses[:, :4].T), (ring.size,) * 4)


def _assert_cuts_within_the_bound(ring, bound):
    """No cell is split between blocks, and a block holds at most ``bound`` instances
    besides those of its first cell."""
    for identity in ("pentagon", "hexagon"):
        counts = _counts(ring, identity)
        cells = [_cells(ring, w) for w, _, _ in reference.labelled_blocks(ring, identity)]
        assert all(here[-1] < after[0] for here, after in zip(cells, cells[1:])), identity
        assert all(len(c) <= bound + counts[c[0]] for c in cells), identity


@pytest.mark.parametrize("bound", [1, 5, 64])
@pytest.mark.parametrize("name", ["rep_a4", "su2_k4"])
def test_instances_with_more_terms_than_a_block(catalog, empty_store, monkeypatch, name, bound):
    monkeypatch.setattr(category_data, "_BLOCK_INSTANCES", bound)
    variants = _variants(catalog, name)
    ring = _fresh(variants["plain"].ring)
    for data in variants.values():
        _assert_blocks_match_oracle(CategoryData(ring=ring, F=data.F, R=data.R))
    assert len(_coherence_tables(ring, "pentagon")) > 1
    _assert_same_rows(ring, "pentagon")  # every term kept
    _assert_cuts_within_the_bound(ring, bound)


@pytest.mark.parametrize("name", BLOCK_DATA + ["su2_k9"])
def test_cell_counts_match_the_oracle(catalog, name):
    rings = {"su2_k9": _su2_ring(9), "rep_a4": rep_a4_ring()}
    ring = rings[name] if name in rings else catalog[name].ring
    for identity in ("pentagon", "hexagon"):
        witnesses = reference.concatenated(reference.unblocked_tables(ring, identity))[0]
        want = np.bincount(_cells(ring, witnesses), minlength=ring.size**4)
        assert np.array_equal(_counts(ring, identity), want), identity


@pytest.mark.parametrize("bound", [1, 7, 64])
def test_cuts_keep_cells_whole_and_within_the_bound(catalog, empty_store, monkeypatch, bound):
    monkeypatch.setattr(category_data, "_BLOCK_INSTANCES", bound)
    for name in ("pointed_z6", "su2_k5"):  # test_instances_with_more_terms_than_a_block: the others
        variants = _variants(catalog, name)
        ring = _fresh(variants["plain"].ring)
        _assert_cuts_within_the_bound(ring, bound)
        for data in variants.values():  # nan and overflow included
            _assert_blocks_match_oracle(CategoryData(ring=ring, F=data.F, R=data.R))


# --- witnesses, built again from the cell of one instance ------------------------


def _witness_checks(totals):
    """Instances to look up: all of them up to 4000, else the first and last instance of
    400 cells with instances, drawn with a fixed seed, and the last instance of all."""
    if totals[-1] <= 4000:
        return range(int(totals[-1]))
    ends = np.unique(totals[totals > 0])  # the total at the end of each cell with instances
    starts = np.concatenate([[0], ends[:-1]])
    pick = np.random.default_rng(0).choice(len(ends), 400, replace=False)
    return sorted({*starts[pick].tolist(), *(ends[pick] - 1).tolist(), int(totals[-1]) - 1})


@pytest.mark.parametrize("name", BLOCK_DATA)
def test_every_witness_lookup_matches_the_oracle(catalog, name):
    ring = rep_a4_ring() if name == "rep_a4" else catalog[name].ring
    for identity in ("pentagon", "hexagon"):
        want = reference.concatenated(reference.unblocked_tables(ring, identity))[0]
        totals = category_data._cell_totals(ring, identity)
        assert totals[-1] == len(want)
        for instance in _witness_checks(totals):
            got = category_data._witness(ring, identity, instance)
            assert got == tuple(want[instance].tolist()), (identity, instance)
    assert category_data._witness(ring, "pentagon", None) == ()


def _passes(runs):
    """The runs of a side split into its passes: within a pass the runs rise and are not
    adjacent, and the next pass starts at or before the last run's start."""
    passes = [[]]
    for run in runs:
        if passes[-1] and run[0] < passes[-1][-1][1]:
            passes.append([])
        passes[-1].append(run)
    return passes


def test_rep_a4_blocks_are_reordered_and_passes_split_into_runs():
    data = random_rep_a4_data(7)
    for identity in ("pentagon", "hexagon"):
        blocks = _coherence_tables(data.ring, identity)
        assert all(at is not None for _, _, _, at in blocks), identity
        split = [len(runs) for _, lhs, rhs, _ in blocks for _, runs in (lhs, rhs)
                 for runs in _passes(runs)]
        assert max(split) >= 2, identity
    _assert_blocks_match_oracle(data)  # bit for bit


@pytest.mark.parametrize("name", ["su2_k5", "rep_a4"])
def test_ties_name_the_first_instance_in_any_block_order(catalog, name):
    # all-zero values tie every instance: the witness is the first instance, not the
    # first place of the block order
    ring = rep_a4_ring() if name == "rep_a4" else catalog[name].ring
    zeros = np.zeros(category_data._layout(ring).size, dtype=complex)
    for identity in ("pentagon", "hexagon"):
        assert _coherence_tables(ring, identity)[0][3] is not None, identity  # reordered
        first = reference.unblocked_tables(ring, identity)[0][0][0]
        assert category_data._worst_instance(ring, identity, zeros) == (0.0, tuple(first.tolist()))


def test_exact_data_names_the_first_instance():
    data = make("pointed_zn", n=4, q_exponent=0)  # every residual exactly 0
    summary = category_data.coherence_summary(data)
    first = {identity: tuple(reference.unblocked_tables(data.ring, identity)[0][0][0].tolist())
             for identity in ("pentagon", "hexagon")}
    assert category_data.pentagon_residual(data) == (0.0, first["pentagon"])
    assert category_data.hexagon_residual(data, "inverse_braid") == (0.0, first["hexagon"])
    assert summary["pentagon"] == summary["hexagon_braid"] == summary["hexagon_inverse"] == 0.0
    assert summary["pentagon_worst"] == first["pentagon"]
    assert summary["hexagon_braid_worst"] == summary["hexagon_inverse_worst"] == first["hexagon"]


def _array_bytes(value):
    """The bytes of every array in a nest of tuples and lists."""
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, (tuple, list)):
        return sum(map(_array_bytes, value))
    return 0


def test_plan_entries_count_every_array(empty_store):
    data = make("su2_level", level=8)
    category_data.coherence_summary(data)
    plan = _plan(data.ring)
    for name in ("pentagon", "hexagon", "pentagon totals", "hexagon totals"):
        value, size = plan[name]
        assert size == _array_bytes(value) > 0, name
    # 5_981_782 with an instance row per term, 8_632_507 with a table of witness labels too
    assert plan["pentagon"][1] == 4_923_848
    assert all(len(block) == 4 and isinstance(block[0], int) for block in plan["pentagon"][0])


# --- index types, and blocks past 2^16 instances --------------------------------


def _su2_ring(k):
    """The fusion ring of su(2)_k on labels 2j = 0..k, at any level: only its instance tables
    are read."""
    a, b, c = np.indices((k + 1,) * 3)
    N = (abs(a - b) <= c) & (c <= np.minimum(a + b, 2 * k - a - b)) & ((a + b + c) % 2 == 0)
    return FusionRing([str(x) for x in range(k + 1)], range(k + 1), N)


def _assert_same_rows(ring, identity):
    """The package's tables, with the label rows built again from the cells, equal the
    oracle's."""
    got = reference.concatenated(reference.labelled_blocks(ring, identity))
    want = reference.concatenated(reference.unblocked_tables(ring, identity))
    for got_table, want_table in zip(got, want, strict=True):
        assert np.array_equal(got_table, want_table)


def _assert_same_sums(ring, identity, vals):
    blocks, chunks = _coherence_tables(ring, identity), reference.unblocked_tables(ring, identity)
    got = np.concatenate([category_data._residuals(vals, block) for block in blocks])
    want = np.concatenate([reference.residuals(vals, chunk) for chunk in chunks])
    assert got.tobytes() == want.tobytes()
    assert repr(category_data._worst_instance(ring, identity, vals)) == repr(
        reference.worst_instance(chunks, vals))


def _random_values(lay, seed):
    rng = np.random.default_rng(seed)
    return rng.standard_normal(lay.size) + 1j * rng.standard_normal(lay.size)


def _types(blocks):
    """The types of the offset rows, as (lhs, rhs), and of ``at`` where a block has one."""
    return ({(lhs[0].dtype, rhs[0].dtype) for _, lhs, rhs, _ in blocks},
            {at.dtype for _, _, _, at in blocks if at is not None})


U16, U32 = np.dtype(np.uint16), np.dtype(np.uint32)


def test_index_type_holds_every_index():
    index = category_data._index_type
    assert index(1) == index(256) == np.uint8 and index(257) == np.uint16
    assert index(1 << 16) == np.uint16 and index((1 << 16) + 1) == np.uint32


def test_a_block_past_2_16_instances_gets_the_wider_type(empty_store, monkeypatch):
    monkeypatch.setattr(category_data, "_BLOCK_INSTANCES", 1 << 17)
    ring = _su2_ring(9)
    lay = category_data._layout(ring)
    assert lay.size < 1 << 16  # only the instance index needs 32 bits
    blocks = _coherence_tables(ring, "pentagon")
    wide = [n > 1 << 16 for n, _, _, _ in blocks]
    assert any(wide)
    assert all(at is not None for _, _, _, at in blocks)
    assert [at.dtype == U32 for _, _, _, at in blocks] == wide
    assert _types(blocks) == ({(U16, U16)}, {U16, U32})  # the offsets stay 16-bit
    _assert_same_rows(ring, "pentagon")
    _assert_same_sums(ring, "pentagon", _random_values(lay, 5))


def test_offsets_past_2_16_get_the_wider_type(empty_store):
    ring = _su2_ring(14)
    lay = category_data._layout(ring)
    assert lay.f_size > 1 << 16  # every R offset is past 2**16
    blocks = _coherence_tables(ring, "hexagon")
    assert _types(blocks) == ({(U32, U32)}, {U16})  # the places of a block need no more
    _assert_same_rows(ring, "hexagon")
    _assert_same_sums(ring, "hexagon", _random_values(lay, 3))


def test_a_label_past_2_16_instances_is_built_in_16_bit_blocks(empty_store):
    ring = _su2_ring(9)
    lay = category_data._layout(ring)
    per_label = category_data._pentagon_counts(ring.N).reshape(ring.size, -1).sum(axis=1)
    assert per_label.max() > 1 << 16 and lay.size < 1 << 16
    blocks = _coherence_tables(ring, "pentagon")
    assert _types(blocks) == ({(U16, U16)}, {U16})
    _assert_same_rows(ring, "pentagon")


@pytest.mark.parametrize("name", BLOCK_DATA)
def test_chunks_of_few_instances_match_the_unblocked_oracle(catalog, empty_store, monkeypatch,
                                                            name):
    bound = 64
    monkeypatch.setattr(category_data, "_BLOCK_INSTANCES", bound)
    variants = _variants(catalog, name)
    ring = _fresh(variants["plain"].ring)
    _assert_same_rows(ring, "pentagon")
    _assert_cuts_within_the_bound(ring, bound)
    for data in (variants["plain"], variants["bumped"]):
        _assert_blocks_match_oracle(CategoryData(ring=ring, F=data.F, R=data.R))


def test_su2_k8_pentagon_plan_is_16_bit_and_built_once(empty_store, pentagon_builds):
    ring = make("su2_level", level=8).ring
    blocks = _coherence_tables(ring, "pentagon")
    _coherence_tables(ring, "pentagon")
    assert _tile_the_cells_once(pentagon_builds, ring)
    assert _types(blocks) == ({(U16, U16)}, {U16})
    assert _plan(ring)["pentagon"][1] <= 9.0e6  # int32 tables: 14.61 MB
