"""Symbol tables stored as per-shape stacks read the same as plain dicts.

Every reader of F and R takes a stacked table's entries from its stacks, and
gathers a plain dict of exactly the admissible keys into the same stacks in one
pass.  Here each output of the readers is compared
between a stacked table and a plain-dict copy, as built and after every
mutation a dict allows.
"""

import copy
import json
import operator
import pickle
import sys
import threading

import numpy as np
import pytest

from mtcat import CategoryData, dumps, gauge_transform, loads, make, random_gauge
from mtcat.category_data import (
    _flat,
    _inverse_unit_checks,
    _Stacked,
    _stacked_on,
    coherence_summary,
    validate_symbols,
)
from mtcat.io import content_hash, run_report
from mtcat.ribbon_modular import quantum_dimensions

from conftest import CATALOG, random_rep_a4_data

NAMES = [name for name, _, _ in CATALOG] + ["rep_a4", "su2_k7_shuffled"]


def _stacked_data(name):
    if name == "rep_a4":  # fusion multiplicity 2: several block shapes
        return loads(dumps(random_rep_a4_data(7)))
    if name == "su2_k7_shuffled":  # rows in random order: keys not in stack order
        doc = json.loads(dumps(make("su2_level", level=7)))
        rng = np.random.default_rng(7)
        for table in ("f_symbols", "r_symbols"):
            doc[table] = [doc[table][i] for i in rng.permutation(len(doc[table]))]
        return loads(json.dumps(doc))
    family, kw = next((family, kw) for n, family, kw in CATALOG if n == name)
    return make(family, **kw)


@pytest.fixture(scope="module")
def built():
    """name -> (stacked data, a gauge on its ring), built once."""
    out = {}
    for name in NAMES:
        data = _stacked_data(name)
        out[name] = data, random_gauge(data.ring, 0)
    return out


def _plain(data):
    """A copy whose tables are plain dicts with their own blocks."""
    return CategoryData(
        ring=data.ring,
        F={key: block.copy() for key, block in data.F.items()},
        R={key: block.copy() for key, block in data.R.items()},
        weights=data.weights,
        central_charge=data.central_charge,
        name=data.name,
    )


def _outputs(data, gauge) -> dict:
    """Every reader's output as bytes or text; an error counts by its type and message."""
    readers = {
        "coherence": lambda: repr(coherence_summary(data)),
        "inverse_unit_checks": lambda: _inverse_unit_checks(data).tobytes(),
        "dims": lambda: quantum_dimensions(data).tobytes(),
        "validate_symbols": lambda: repr(validate_symbols(data)),
        "gauge": lambda: _gauged(gauge_transform(data, gauge)),
        "dumps": lambda: dumps(data),
        "content_hash": lambda: content_hash(data),
    }
    out = {}
    for name, read in readers.items():
        try:
            with np.errstate(invalid="ignore"):
                out[name] = read()
        except Exception as exc:  # noqa: BLE001 - both sides must fail alike
            out[name] = (type(exc).__name__, str(exc))
    return out


def _gauged(data):
    return [
        (kind, list(table), [(block.shape, block.tobytes()) for block in table.values()])
        for kind, table in (("F", data.F), ("R", data.R))
    ]


def _keys(data):
    """A key in the middle of each table, and a key out of the ring's range."""
    f_key, r_key = list(data.F)[len(data.F) // 2], list(data.R)[len(data.R) // 3]
    m = data.ring.size
    return (f_key, (m,) * 6), (r_key, (m,) * 3)


# each mutation is applied to both tables: (table, key, out-of-range key) -> None
MUTATIONS = {
    "setitem_same_shape": lambda t, k, x: t.__setitem__(k, t[k] * (1 + 1e-3)),
    "setitem_other_shape": lambda t, k, x: t.__setitem__(k, t[k][None]),
    "delitem": lambda t, k, x: t.__delitem__(k),
    "pop": lambda t, k, x: t.pop(k),
    "popitem": lambda t, k, x: t.popitem(),
    "update": lambda t, k, x: t.update({k: -t[k]}),
    "setdefault": lambda t, k, x: t.setdefault(x, t[k]),
    "clear": lambda t, k, x: t.clear(),
    "ior": lambda t, k, x: operator.ior(t, {k: 2 * t[k]}),
}
IN_PLACE = {  # edits through a block: the stacks stay and hold the edit
    "block_assign": lambda t, k: t[k].__setitem__(..., 3 * t[k]),
    "block_flat_nan": lambda t, k: t[k].flat.__setitem__(-1, np.nan),
}


@pytest.mark.parametrize("name", NAMES)
def test_stacked_tables_read_like_plain_dicts(built, name):
    data, gauge = built[name]
    assert _stacked_on(data.ring, data.F, "F") and _stacked_on(data.ring, data.R, "R")
    want = _outputs(_plain(data), gauge)
    assert _outputs(data, gauge) == want
    copied = data.copy()
    assert _stacked_on(data.ring, copied.F, "F") and _stacked_on(data.ring, copied.R, "R")
    assert _outputs(copied, gauge) == want
    gauged = gauge_transform(data, gauge)
    assert list(gauged.F) == list(data.F) and list(gauged.R) == list(data.R)
    assert _stacked_on(data.ring, gauged.F, "F") and _stacked_on(data.ring, gauged.R, "R")
    assert _outputs(gauged, gauge) == _outputs(_plain(gauged), gauge)


@pytest.mark.parametrize("mutation", [*MUTATIONS, *IN_PLACE, "assign_table"])
@pytest.mark.parametrize("name", NAMES)
def test_mutated_stacked_tables_read_like_plain_dicts(built, name, mutation):
    data, gauge = built[name]
    stacked, plain = data.copy(), _plain(data)
    for target in (stacked, plain):
        for (key, extra), kind in zip(_keys(data), "FR"):
            table = getattr(target, kind)
            if mutation in MUTATIONS:
                MUTATIONS[mutation](table, key, extra)
            elif mutation in IN_PLACE:
                IN_PLACE[mutation](table, key)
            else:  # a new plain table in another key order
                setattr(target, kind, dict(reversed(table.items())))
    for kind in "FR":
        table = getattr(stacked, kind)
        assert _stacked_on(data.ring, table, kind) == (mutation in IN_PLACE), (kind, mutation)
    assert _outputs(stacked, gauge) == _outputs(plain, gauge)


def test_every_mutator_drops_the_stacks(built):
    data = built["fibonacci"][0]
    key = next(iter(data.F))
    calls = {
        "__setitem__": (key, data.F[key]),
        "__delitem__": (key,),
        "pop": (key,),
        "popitem": (),
        "clear": (),
        "update": ({},),
        "setdefault": (key,),
        "__ior__": ({},),
    }
    for method, args in calls.items():
        table = data.copy().F
        assert table.stacks is not None
        getattr(table, method)(*args)
        assert table.stacks is None and not _stacked_on(data.ring, table, "F"), method


def test_blocks_are_views_of_the_stacks(built):
    data = built["rep_a4"][0]
    for table in (data.F, data.R):
        assert len({block.shape for block in table.values()}) == len(table.stacks) > 1
        for block in table.values():
            assert any(np.shares_memory(block, stack) for stack in table.stacks)


def test_copies_and_pickles_are_plain_dicts(built):
    data = built["rep_a4"][0]
    for table in (copy.copy(data.F), copy.deepcopy(data.F), pickle.loads(pickle.dumps(data.F))):
        assert type(table) is dict and list(table) == list(data.F)
        assert all(np.array_equal(table[key], block) for key, block in data.F.items())


def test_a_table_of_another_plan_is_gathered(built):
    data = built["su2_k3"][0]
    other = make("su2_level", level=4)
    moved = CategoryData(ring=other.ring, F=data.F, R=data.R)
    assert not _stacked_on(other.ring, moved.F, "F")
    assert validate_symbols(moved) == validate_symbols(_plain(moved))
    assert validate_symbols(moved)  # the keys of another ring


# A table from gauge_transform, copy() or load has no per-key views until data.F or data.R is
# first read; these compare the table that read makes, before any dict method is called on it,
# with the same table once a dict method has been called and with a plain dict.


def _unread_tables():
    data = make("su2_level", level=3)  # blocks of one entry: == compares them as numbers
    gauged = gauge_transform(data, random_gauge(data.ring, 0))
    assert "F" not in vars(gauged)  # the flag: the table has not yet been read
    return gauged.F, gauge_transform(data, random_gauge(data.ring, 0)).F


def _subjects():
    """The same F table: unread, read, and as a plain dict; and an equal unread table."""
    unread, other = _unread_tables()
    read = _unread_tables()[0]
    len(read)
    assert type(read) is _Stacked and type(unread) is _Stacked
    return {"unread": unread, "read": read, "plain": dict(_unread_tables()[0])}, other


def _seen(x):
    """``x`` as comparable values: arrays by shape and bytes, tables as their items."""
    if isinstance(x, np.ndarray):
        return "array", x.shape, x.tobytes()
    if isinstance(x, dict):
        return type(x) is dict, [(key, _seen(value)) for key, value in x.items()]
    if isinstance(x, (list, tuple, type({}.keys()), type({}.values()), type({}.items()))):
        return [_seen(item) for item in x]
    return x


def _outcome(op, table, other):
    try:
        result = op(table, other)
    except Exception as exc:  # noqa: BLE001 - every subject must fail alike
        return type(exc).__name__, str(exc)
    return "itself" if result is table else _seen(result), _seen(dict(table.items()))


KEY, ABSENT = (1, 1, 1, 1, 0, 0), (9, 9, 9, 9, 9, 9)
READS = {
    "len": lambda t, o: len(t),
    "iter": lambda t, o: list(iter(t)),
    "reversed": lambda t, o: list(reversed(t)),
    "keys": lambda t, o: t.keys(),
    "values": lambda t, o: t.values(),
    "items": lambda t, o: t.items(),
    "get": lambda t, o: (t.get(KEY), t.get(ABSENT), t.get(ABSENT, "none")),
    "getitem": lambda t, o: t[KEY],
    "getitem_absent": lambda t, o: t[ABSENT],
    "in": lambda t, o: (KEY in t, ABSENT in t),
    "eq_other": lambda t, o: (t == o, o == t, t != o, o != t),
    "eq_plain": lambda t, o: (t == dict(o), dict(o) == t, t != dict(o), dict(o) != t),
    "eq_empty": lambda t, o: (t == {}, {} == t, t != {}, {} != t),
    "eq_self": lambda t, o: (t == t, t != t),  # noqa: PLR0124
    "repr": lambda t, o: repr(t),
    "str": lambda t, o: str(t),
    "dict": lambda t, o: dict(t),
    "unpack": lambda t, o: {**t},
    "copy_method": lambda t, o: t.copy(),
    "copy": lambda t, o: copy.copy(t),
    "deepcopy": lambda t, o: copy.deepcopy(t),
    "pickle": lambda t, o: pickle.loads(pickle.dumps(t)),
    "or": lambda t, o: t | {ABSENT: 1},
    "ror": lambda t, o: {ABSENT: 1} | t,
    "or_other": lambda t, o: t | o,
    "bool": lambda t, o: bool(t),
}
WRITES = {
    "setitem": lambda t, o: t.__setitem__(KEY, t[KEY] * 2),
    "delitem": lambda t, o: t.__delitem__(KEY),
    "delitem_absent": lambda t, o: t.__delitem__(ABSENT),
    "pop": lambda t, o: t.pop(KEY),
    "pop_absent": lambda t, o: t.pop(ABSENT, "none"),
    "popitem": lambda t, o: t.popitem(),
    "clear": lambda t, o: t.clear(),
    "update": lambda t, o: t.update({KEY: -t[KEY]}),
    "update_from_other": lambda t, o: t.update(o),
    "setdefault": lambda t, o: (t.setdefault(KEY), t.setdefault(ABSENT, 0)),
    "ior": lambda t, o: operator.ior(t, {ABSENT: 0}),
    "block_edit": lambda t, o: t[KEY].__setitem__(..., 7.0),
}


@pytest.mark.parametrize("op", [*READS, *WRITES])
def test_an_unread_table_is_a_dict(op):
    call = READS.get(op) or WRITES[op]
    subjects, other = _subjects()
    outcomes = {name: _outcome(call, table, other) for name, table in subjects.items()}
    assert outcomes["unread"] == outcomes["read"] == outcomes["plain"]
    assert type(subjects["unread"]) is _Stacked  # read now, like the table read first


@pytest.mark.parametrize("op", ["block_edit", "setitem"])
def test_an_unread_table_keeps_or_drops_its_stacks_as_a_read_one(op):
    subjects, other = _subjects()
    for name in ("unread", "read"):
        table = subjects[name]
        WRITES[op](table, other)
        assert (table.stacks is not None) == (op == "block_edit"), name
    ring = make("su2_level", level=3).ring
    assert _stacked_on(ring, subjects["unread"], "F") == (op == "block_edit")
    if op == "block_edit":  # the edit is in the stacks, which readers read
        edited = _flat(ring, subjects["unread"], "F")
        assert np.array_equal(edited, _flat(ring, subjects["read"], "F"))


def test_an_unread_table_keeps_its_key_order():
    data = _stacked_data("su2_k7_shuffled")  # keys in file order, not in stack order
    assert "F" not in vars(data)
    order = list(_stacked_data("su2_k7_shuffled").F)
    gauged = gauge_transform(data, random_gauge(data.ring, 1))
    copied = data.copy()
    assert "F" not in vars(gauged) and "F" not in vars(copied)
    assert list(gauged.F) == list(copied.F) == list(data.F) == order != sorted(order)


def test_a_report_reads_no_table_key_by_key():
    for level in (3, 8):
        data = make("su2_level", level=level)
        gauged = gauge_transform(data, random_gauge(data.ring, 2))
        run_report(gauged)
        assert "F" not in vars(gauged) and "R" not in vars(gauged)
        assert "F" not in vars(data) and "R" not in vars(data)


def test_threads_read_one_unread_table():
    data = make("su2_level", level=6)  # blocks of one shape: one stack
    errors = []
    for _ in range(5):
        gauged = gauge_transform(data, random_gauge(data.ring, 4))
        want = list(data.F)

        def work():
            try:
                for _ in range(20):  # a lost or doubled fill would change the keys or blocks
                    table = gauged.F
                    assert list(table) == want and len(table) == len(want)
                    assert all(np.shares_memory(table[key], table.stacks[0]) for key in want)
            except Exception as exc:  # reported below: an assertion in a thread fails nothing
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            workers = [threading.Thread(target=work) for _ in range(6)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers) and not errors, errors
        assert type(gauged.F) is _Stacked
