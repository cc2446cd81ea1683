"""Symbol tables stored as per-shape stacks read the same as plain dicts.

Every reader of F and R takes a stacked table's entries from its stacks and
gathers a plain dict key by key.  Here each output of the readers is compared
between a stacked table and a plain-dict copy, as built and after every
mutation a dict allows.
"""

import copy
import json
import operator
import pickle

import numpy as np
import pytest

from mtcat import CategoryData, dumps, gauge_transform, loads, make, random_gauge
from mtcat.category_data import (
    _inverse_unit_checks,
    _stacked_on,
    coherence_summary,
    validate_symbols,
)
from mtcat.io import content_hash
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
