"""The columnar loader of the F/R tables against the row-by-row oracle, row order,
block independence, and malformed values at the command line."""

import copy
import json
import os
import subprocess
import sys
from collections import Counter
from decimal import Decimal
from pathlib import Path

import numpy as np
import pytest

from mtcat import MtcatError, loads, make
from mtcat.category_data import f_block_shape
from mtcat.cli import main
from mtcat.io import category_from_dict, category_to_dict, dumps, save

import reference_io
from conftest import CATALOG, random_rep_a4_data

SRC = str(Path(__file__).resolve().parent.parent / "src")

# per table: labels, then multiplicity indices, then (re, im)
WIDTHS = {"f_symbols": (6, 4), "r_symbols": (3, 2)}


def _data(catalog, name):
    return random_rep_a4_data(0) if name == "rep_a4" else catalog[name]


def _doc(data):
    return json.loads(json.dumps(category_to_dict(data)))


def _shape(ring, table, labels):
    if table == "f_symbols":
        return f_block_shape(ring, *labels)
    a, b, c = labels
    return (int(ring.N[a, b, c]), int(ring.N[b, a, c]))


def _assert_same_tables(got, want):
    assert list(got) == list(want)  # the same keys in the same order
    for key, block in want.items():
        assert got[key].shape == block.shape and got[key].dtype == block.dtype, key
        assert np.array_equal(got[key], block) and got[key].tobytes() == block.tobytes(), key


# --- corruptions: each edits row i of a table and returns a fragment of the message


def _short_row(doc, ring, table, i):
    doc[table][i] = doc[table][i][:-1]
    return "row must have"


def _non_list_row(doc, ring, table, i):
    doc[table][i] = {"row": doc[table][i]}
    return "row must have"


def _bool_index(doc, ring, table, i):
    doc[table][i][sum(WIDTHS[table]) - 1] = True
    return "expected integer, got True"


def _float_index(doc, ring, table, i):
    doc[table][i][1] = float(doc[table][i][1])
    return "expected integer, got"


def _unit_label_at(doc, table, i):
    """The first row at or after i with the unit among its labels, and the unit's place."""
    rows, n_key = doc[table], WIDTHS[table][0]
    k = next(k for k in [*range(i, len(rows)), *range(i)] if 0 in rows[k][:n_key])
    return rows[k], rows[k].index(0)


def _label_out_of_range(doc, ring, table, i):
    # in place of the unit: the row would be valid if an out-of-range label read as 0
    row, j = _unit_label_at(doc, table, i)
    row[j] = ring.size
    return f"label index {ring.size} out of range"


def _huge_label(doc, ring, table, i):
    row, j = _unit_label_at(doc, table, i)
    row[j] = 2**63
    return f"label index {2**63} out of range"


def _inadmissible(doc, ring, table, i):
    row, n_key = doc[table][i], WIDTHS[table][0]
    for j in range(n_key):
        for label in range(ring.size):
            if 0 in _shape(ring, table, row[:j] + [label] + row[j + 1 : n_key]):
                row[j] = label
                return "entry for inadmissible tuple"
    raise AssertionError(f"no inadmissible tuple one label away from {row}")


def _multiplicity_zero(doc, ring, table, i):
    doc[table][i][WIDTHS[table][0]] = 0
    return "multiplicity index"


def _multiplicity_too_large(doc, ring, table, i):
    row, n_key = doc[table][i], WIDTHS[table][0]
    row[-3] = _shape(ring, table, row[:n_key])[-1] + 1
    return "multiplicity index"


def _huge_multiplicity(doc, ring, table, i):
    doc[table][i][-3] = 2**64
    return "multiplicity index"


def _duplicate_row(doc, ring, table, i):
    doc[table].append(list(doc[table][i]))
    return "duplicate"


def _nan_value(doc, ring, table, i):
    doc[table][i][-1] = Decimal("NaN")
    return "expected a finite number, got Decimal('NaN')"


def _huge_value(doc, ring, table, i):
    doc[table][i][-2] = 10**400
    return "expected a finite number, got 1000"


def _in_big_blocks(rows, n_key):
    """Indices of the rows whose block has more than one entry."""
    counts = Counter(tuple(row[:n_key]) for row in rows)
    return [k for k, row in enumerate(rows) if counts[tuple(row[:n_key])] > 1]


def _partial_block(doc, ring, table, i):
    """Drop the first row at or after i whose block has more than one entry."""
    big = _in_big_blocks(doc[table], WIDTHS[table][0])
    del doc[table][next((k for k in big if k >= i), big[0])]
    return "is only partially specified"


SINGLE = {
    "short_row": _short_row,
    "non_list_row": _non_list_row,
    "bool_index": _bool_index,
    "float_index": _float_index,
    "label_out_of_range": _label_out_of_range,
    "huge_label": _huge_label,
    "inadmissible": _inadmissible,
    "multiplicity_zero": _multiplicity_zero,
    "multiplicity_too_large": _multiplicity_too_large,
    "huge_multiplicity": _huge_multiplicity,
    "duplicate_row": _duplicate_row,
    "nan_value": _nan_value,
    "huge_value": _huge_value,
}


def _two_rows(first, second):
    """``first`` in row i and ``second`` in a later row: the earlier row's error wins."""

    def corrupt(doc, ring, table, i):
        i = min(i, len(doc[table]) - 2)
        second(doc, ring, table, len(doc[table]) - 1)
        return first(doc, ring, table, i)

    return corrupt


def _value_between_duplicates(doc, ring, table, i):
    i = min(i, len(doc[table]) - 2)
    _duplicate_row(doc, ring, table, i)  # the copy goes last: the later of the two is flagged
    return _nan_value(doc, ring, table, i + 1)


def _two_partial_blocks(doc, ring, table, i):
    # reversed, so the block first seen in the file is not the first in key order
    rows, n_key = doc[table][::-1], WIDTHS[table][0]
    big = _in_big_blocks(rows, n_key)
    first, last = rows[big[0]][:n_key], rows[big[-1]][:n_key]
    assert first > last
    del rows[big[-1]], rows[big[0]]
    doc[table] = rows
    return f"block {tuple(first)} is only partially specified"


def _f_and_r(doc, ring, table, i):
    # an R error in the first R row and an F error in the last F row: F is read first
    _short_row(doc, ring, "r_symbols", 0)
    return _nan_value(doc, ring, "f_symbols", len(doc["f_symbols"]) - 1)


CORRUPT = {
    **SINGLE,
    "partial_block": _partial_block,
    "two_rows_value_then_index": _two_rows(_nan_value, _bool_index),
    "two_rows_index_then_duplicate": _two_rows(_multiplicity_zero, _duplicate_row),
    "value_between_duplicates": _value_between_duplicates,
    "two_partial_blocks": _two_partial_blocks,
    "f_and_r": _f_and_r,
}
DATA = ("fibonacci", "su2_k4", "rep_a4")
CASES = [(case, table, data) for case in SINGLE for table in WIDTHS for data in DATA]
CASES += [("partial_block", table, "rep_a4") for table in WIDTHS]  # its blocks have several entries
CASES += [
    (case, table, data)
    for case in ("two_rows_value_then_index", "two_rows_index_then_duplicate")
    for table in WIDTHS
    for data in ("su2_k4", "rep_a4")
]
CASES += [("value_between_duplicates", table, data) for table in WIDTHS for data in DATA]
CASES += [("two_partial_blocks", "f_symbols", "rep_a4")]
CASES += [("f_and_r", "f_symbols", data) for data in DATA]


@pytest.mark.parametrize("case,table,name", CASES)
def test_load_error_matches_reference(catalog, case, table, name):
    data = _data(catalog, name)
    doc = _doc(data)
    i = int(np.random.default_rng(len(case)).integers(len(doc[table])))
    fragment = CORRUPT[case](doc, data.ring, table, i)
    with pytest.raises(MtcatError) as want:
        reference_io.symbol_tables(copy.deepcopy(doc), data.ring)
    assert fragment in str(want.value)
    with pytest.raises(MtcatError) as got:
        category_from_dict(doc)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("shuffled", [False, True])
@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["rep_a4"])
def test_loaded_tables_match_reference(catalog, name, shuffled):
    doc = _doc(_data(catalog, name))
    if shuffled:
        rng = np.random.default_rng(11)
        for table in WIDTHS:
            doc[table] = [doc[table][i] for i in rng.permutation(len(doc[table]))]
    data = category_from_dict(copy.deepcopy(doc))
    want_f, want_r = reference_io.symbol_tables(doc, data.ring)
    _assert_same_tables(data.F, want_f)
    _assert_same_tables(data.R, want_r)


def test_row_order_is_free(tmp_path, capsys):
    canonical, shuffled = tmp_path / "su2_k7.json", tmp_path / "shuffled.json"
    save(make("su2_level", level=7), canonical)
    doc = json.loads(canonical.read_text())
    rng = np.random.default_rng(2024)
    for table in WIDTHS:
        doc[table] = [doc[table][i] for i in rng.permutation(len(doc[table]))]
    shuffled.write_text(json.dumps(doc))
    assert shuffled.read_text() != canonical.read_text()
    assert main(["verify", str(canonical), "--json"]) == 0
    want = capsys.readouterr().out
    assert main(["verify", str(shuffled), "--json"]) == 0
    assert capsys.readouterr().out == want


@pytest.mark.parametrize("name", ["su2_k4", "rep_a4"])
def test_loaded_blocks_are_independent(catalog, name):
    data = loads(dumps(_data(catalog, name)))
    for table in (data.F, data.R):
        before = {key: block.copy() for key, block in table.items()}
        for key in list(table)[:: max(1, len(table) // 7)]:
            table[key] *= 3  # in place: a view of its shape's stack
            for other, block in table.items():
                expect = before[other] * 3 if other == key else before[other]
                assert np.array_equal(block, expect), (key, other)
            table[key] /= 3
            before[key] = table[key].copy()


def _cli_verify(path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (SRC, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "mtcat.cli", "verify", str(path)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _set_weights(doc, value):
    doc["weights"] = value


def _set_fusion_multiplicity(doc, value):
    next(row for row in doc["fusion"] if row[:3] == [1, 1, 1])[3] = value


def _set_f_real_part(doc, value):
    doc["f_symbols"][0][10] = value


def _set_name(doc, value):
    doc["name"] = value


@pytest.mark.parametrize(
    "edit,token,message",
    [
        (_set_weights, "7", "key 'weights' must be a list"),
        (_set_weights, "null", "key 'weights' must be a list"),
        (_set_fusion_multiplicity, str(2**70), "fusion multiplicity at (1,1,1) exceeds 2147483647"),
        (_set_f_real_part, str(10**400), "f_symbols: expected a finite number, got 1000"),
        (_set_f_real_part, "1" * 5000, "Exceeds the limit (4300 digits)"),
        (_set_f_real_part, "[" * 100000 + "]" * 100000, "maximum recursion depth exceeded"),
        (_set_name, "null", "name must be a string, got None"),
    ],
    ids=[
        "weights_int", "weights_null", "huge_multiplicity", "huge_real_part", "5000_digits",
        "deep_nesting", "name_null",
    ],
)
def test_cli_malformed_value_exits_2(tmp_path, fib, edit, token, message):
    doc = category_to_dict(fib)
    edit(doc, 1234.5)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc).replace("1234.5", token))
    proc = _cli_verify(path)
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and message in lines[0]


# --- the fusion rows, read as columns, against the row-by-row oracle ---------


def _fusion_edit(index, value):
    def edit(rows, i):
        rows[i][index] = value

    return edit


def _fusion_row(value):
    def edit(rows, i):
        rows[i] = value if not callable(value) else value(rows[i])

    return edit


def _fusion_duplicate(rows, i):
    rows.insert(i + 1 + (len(rows) - i) // 2, list(rows[i]))


def _fusion_two(first, second):
    def edit(rows, i):
        second(rows, len(rows) - 1)
        first(rows, i)

    return edit


FUSION_CORRUPT = {
    "label_too_large": _fusion_edit(1, 99),
    "negative_label": _fusion_edit(0, -1),
    "huge_label": _fusion_edit(2, 2**70),
    "duplicate_triple": _fusion_duplicate,
    "float_entry": _fusion_edit(3, 1.0),
    "bool_entry": _fusion_edit(0, True),
    "string_entry": _fusion_edit(2, "1"),
    "short_row": _fusion_row(lambda row: row[:3]),
    "long_row": _fusion_row(lambda row: row + [1]),
    "non_list_row": _fusion_row(7),
    "negative_multiplicity": _fusion_edit(3, -1),
    "multiplicity_over_limit": _fusion_edit(3, 2**31),
    "huge_multiplicity": _fusion_edit(3, 2**70),
    "negative_then_duplicate": _fusion_two(_fusion_edit(3, -2), _fusion_duplicate),
    "duplicate_then_short_row": _fusion_two(_fusion_duplicate, _fusion_row([0])),
    "label_then_float": _fusion_two(_fusion_edit(0, 50), _fusion_edit(1, 0.5)),
}


@pytest.mark.parametrize("name", ["fibonacci", "su2_k4", "rep_a4"])
@pytest.mark.parametrize("case", FUSION_CORRUPT)
def test_fusion_error_matches_reference(catalog, case, name):
    data = _data(catalog, name)
    doc = _doc(data)
    i = int(np.random.default_rng(len(case)).integers(len(doc["fusion"]) - 1))
    FUSION_CORRUPT[case](doc["fusion"], i)
    with pytest.raises(MtcatError) as want:
        reference_io.fusion_table(copy.deepcopy(doc), data.ring.size)
    with pytest.raises(MtcatError) as got:
        category_from_dict(doc)
    assert type(got.value) is type(want.value)
    assert str(got.value) == str(want.value)


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["rep_a4"])
def test_fusion_table_matches_reference(catalog, name):
    doc = _doc(_data(catalog, name))
    rng = np.random.default_rng(5)
    doc["fusion"] = [doc["fusion"][i] for i in rng.permutation(len(doc["fusion"]))]
    N = np.array(_data(catalog, name).ring.N)
    if (N == 0).any():  # a row of multiplicity 0 is allowed
        doc["fusion"].insert(1, [*np.argwhere(N == 0)[-1].tolist(), 0])
    ring = category_from_dict(copy.deepcopy(doc)).ring
    assert np.array_equal(ring.N, reference_io.fusion_table(doc, ring.size))
