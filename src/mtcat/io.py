"""Category file format (JSON, schema version 1) and report serialization.

File layout::

    {
      "schema_version": 1,
      "name": "fibonacci",
      "labels": ["1", "tau"],
      "dual": [0, 1],
      "fusion": [[a, b, c, N], ...],                 # nonzero entries only
      "f_symbols": [[a,b,c,d,e,f, alpha,beta,gamma,delta, re, im], ...],
      "r_symbols": [[a,b,c, alpha,beta, re, im], ...],
      "weights": [[a, h_a], ...],                    # optional
      "central_charge": c                            # optional
    }

Labels are referenced by index; multiplicity indices are 1-based in files
(0-based in memory).  Floats are written as ``repr`` writes them (shortest
decimal that round-trips the double, at most 17 significant digits), those of
a large symbol table by the numpy kernel of ``_floatrepr``, so save -> load is
exact and reports are byte-reproducible.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import numbers
from decimal import Decimal

import numpy as np

from . import __version__, _floatrepr
from .category_data import (
    _BLOCK_VERTICES,
    CategoryData,
    _cached,
    _flat,
    _held,
    _key_labels,
    _layout,
    _ring_ok,
    _shape,
    _stacked,
    _stacking,
    validate_symbols,
)
from .errors import InputError, ParseError, SchemaError, ValidationError
from .fusion_ring import FusionRing, validate_ring
from .ribbon_modular import _CHECKS, COHERENCE_TOL, DET_TOL, RIGIDITY_FLOOR, check_modular

SCHEMA_VERSION = 1
MAX_MULTIPLICITY = 2**31 - 1  # the coherence tables index with int32
CHECK_NAMES = ("pentagon", "hexagon", "triangle", "ribbon", "rigidity", "modularity")
_KERNEL_FLOATS = 1500  # a table of fewer floats is written by repr, one by one
_ROWS = 2048  # rows whose floats the kernel writes at once
_SEPARATOR = np.frombuffer(b",\n   ", dtype=np.uint8)  # of a row's re and im
_PARTS = np.frombuffer(b"%s,\n   %s", dtype=np.uint8)  # a row's re and im in a text template


# ---------------------------------------------------------------------------
# save


def category_to_dict(data: CategoryData) -> dict:
    doc = {**_data_fields(data), **_ring_fields(data.ring)}
    for name, kind in (("f_symbols", "F"), ("r_symbols", "R")):
        doc[name] = _symbol_rows(getattr(data, kind), kind)
    return doc


def dumps(data: CategoryData) -> str:
    """The canonical text: ``json.dumps(category_to_dict(data), indent=1, sort_keys=True)``."""
    return "".join(_text_parts(data))


def _text_parts(data: CategoryData):
    """The canonical text in parts, made as they are read; the tables through a row template,
    not the json encoder, which is pure Python when it indents, and the ring's fields kept in
    the ring's plan."""
    ring = data.ring
    fields = {**_cached(ring, "ring text", lambda: _field_texts(_ring_fields(ring))),
              **_field_texts(_data_fields(data))}
    texts = {name: (text,) for name, text in fields.items()}
    texts["f_symbols"] = _table_text(ring, _held(data, "F"), "F")
    texts["r_symbols"] = _table_text(ring, _held(data, "R"), "R")
    for i, (name, text) in enumerate(sorted(texts.items())):
        yield from (",\n " if i else "{\n ", json.dumps(name), ": ")  # no comma before the first
        yield from text
    yield "\n}"


def _field_texts(fields: dict) -> dict:
    """Each field's value as ``json.dumps`` writes it one level deep with ``indent=1``."""
    return {
        name: json.dumps(value, indent=1).replace("\n", "\n ") for name, value in fields.items()
    }


def _ring_fields(ring: FusionRing) -> dict:
    """The fields that depend only on the ring."""
    return {
        "labels": list(ring.names),
        "dual": [int(x) for x in ring.dual],
        "fusion": [[a, b, c, int(ring.N[a, b, c])] for a, b, c in np.argwhere(ring.N > 0).tolist()],
    }


def _data_fields(data: CategoryData) -> dict:
    """The fields other than the ring's and the two symbol tables."""
    doc = {"schema_version": SCHEMA_VERSION, "name": data.name}
    if data.weights is not None:
        doc["weights"] = [[a, float(h)] for a, h in enumerate(data.weights)]
    if data.central_charge is not None:
        doc["central_charge"] = float(data.central_charge)
    return doc


def _symbol_rows(table: dict, kind: str) -> list:
    """The rows of an F or R table: key, 1-based multiplicity indices, re, im.

    Keys are sorted and each block is read in C order, which is the row order
    of a file.  Only ``category_to_dict``, the reference that ``dumps`` is
    tested against, reads a table this way, key by key and whatever its keys
    but one that is not a tuple of ints, which raises InputError.
    """
    for key in table:
        if not isinstance(key, tuple) or not all(isinstance(x, numbers.Integral) for x in key):
            raise InputError(f"{kind} entry present for inadmissible tuple {key!r}")
    keys = sorted(table)
    blocks = [table[key] for key in keys]
    shapes = list(map(_shape, blocks))
    if None in shapes:
        raise InputError(f"{kind} block {keys[shapes.index(None)]} is not an array of numbers")
    indices = {
        shape: [tuple(i + 1 for i in idx) for idx in np.ndindex(shape)] for shape in set(shapes)
    }
    per_block = [indices[shape] for shape in shapes]
    flat = [block.ravel() for block in blocks]
    values = np.concatenate(flat, dtype=complex) if flat else np.empty(0, complex)
    columns = (
        itertools.chain.from_iterable(map(itertools.repeat, keys, map(len, per_block))),
        itertools.chain.from_iterable(per_block),
        values.real.tolist(),
        values.imag.tolist(),
    )
    return [[*key, *mult, re, im] for key, mult, re, im in zip(*columns)]


def _table_text(ring: FusionRing, table: dict, kind: str):
    """A symbol table as ``json.dumps`` writes it one level deep with ``indent=1``, in parts
    made as they are read.

    The table is read as every reader reads it (``_table_stacks``: exactly the admissible
    keys, of their shapes, else IncompleteData or InputError) and written through a row
    template, kept in the ring's plan: everything in a row but its two floats, rows in
    ``_Layout`` order.  Its floats are written by the array kernel, ``_ROWS`` rows at a
    time, when there are ``_KERNEL_FLOATS`` or more; else by ``repr``, one by one.
    """
    values = _flat(ring, table, kind).view(float)  # re, im of every entry
    split = values.size >= _KERNEL_FLOATS
    template = _cached(ring, f"{kind} rows", lambda: _row_template(ring, kind, split))
    if isinstance(template, str):
        texts = values.tolist()
        for i in np.flatnonzero(~np.isfinite(values)).tolist():
            texts[i] = json.dumps(texts[i])  # NaN, Infinity, -Infinity
        yield template % tuple(texts)  # %s writes a float as repr does
        return
    heads, tail = template
    for start in range(0, len(heads), _ROWS):  # each row: its head, re, ",\n   ", im
        head = heads[start : start + _ROWS]
        texts = _floatrepr.texts(values[2 * start : 2 * (start + len(head))])
        chars, keep = (a.reshape(len(head), 2, -1) for a in texts)
        between = np.broadcast_to(_SEPARATOR, (len(head), 5))
        text = np.concatenate([head, chars[:, 0], between, chars[:, 1]], axis=1)
        kept = np.concatenate([head != 0, keep[:, 0], between != 0, keep[:, 1]], axis=1)
        del texts, chars, keep  # freed before the compress makes the text again
        yield str(text[kept].data, "ascii")
    yield tail


def _row_template(ring: FusionRing, kind: str, split: bool):
    """The text of the table of the admissible F or R keys, with ``%s`` in place of every
    real and imaginary part; ``split``, as the text of each row before its two parts in a
    uint8 array, NUL where a row is shorter, and the text after the last row.

    A head is the row's opening, then every key label and 1-based multiplicity index with
    ",\n   " after it.  Every number is written in one width of digits, NUL in front where
    it has fewer, and the first row's shorter opening has NUL in front too.
    """
    labels = _key_labels(ring, kind)
    dims = [ring.N[tuple(labels[i] for i in vertex)] for vertex in _BLOCK_VERTICES[kind][1]]
    size = np.prod(dims, axis=0)  # entries per block
    place = np.arange(size.sum()) - np.repeat(np.cumsum(size) - size, size)  # in its block
    index = []
    for dim in reversed(dims):  # C order: the last index runs fastest
        dim = np.repeat(dim, size)
        index.append(place % dim + 1)
        place = place // dim
    numbers = np.concatenate([np.repeat(labels, size, axis=1), index[::-1]]).T[..., None]
    width = len(str(numbers.max(initial=0)))
    power = 10 ** np.arange(width)[::-1]
    fields = np.empty((*numbers.shape[:2], width + len(_SEPARATOR)), dtype=np.uint8)
    fields[..., :width] = np.where((numbers >= power) | (power == 1), 48 + numbers // power % 10, 0)
    fields[..., width:] = _SEPARATOR
    opening = np.tile(np.frombuffer(b"\n  ],\n  [\n   ", dtype=np.uint8), (len(fields), 1))
    opening[:1] = np.frombuffer(b"\0\0\0\0[\n  [\n   ", dtype=np.uint8)
    heads = np.concatenate([opening, fields.reshape(len(fields), -1)], axis=1)  # [row, char]
    tail = "\n  ]\n ]"
    if split:
        return heads, tail
    rows = np.concatenate([heads, np.broadcast_to(_PARTS, (len(heads), len(_PARTS)))], axis=1)
    return str(rows[rows != 0].data, "ascii") + tail


def save(data: CategoryData, path) -> None:
    text = dumps(data)  # before the file is opened: data that cannot be written leaves it as it was
    try:
        with open(path, "w") as fh:
            fh.write(text)
            fh.write("\n")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from None


def content_hash(data: CategoryData) -> str:
    """sha256 of the canonical serialization; the report provenance key.

    It equals the sha256 of a file written by :func:`save` without its final newline.
    The text is hashed part by part, never joined.
    """
    digest = hashlib.sha256()
    for part in _text_parts(data):
        digest.update(part.encode())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# load


def load(path) -> CategoryData:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from None
    return loads(text)


def loads(text: str) -> CategoryData:
    try:
        # JSON has no NaN or Infinity: parse them to Decimal, which no field accepts
        doc = json.loads(text, parse_constant=Decimal)
    except json.JSONDecodeError as exc:
        raise ParseError(f"line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:  # too many digits, or nesting too deep
        raise ParseError(str(exc)) from None
    return category_from_dict(doc)


def category_from_dict(doc) -> CategoryData:
    if not isinstance(doc, dict):
        raise SchemaError("top level must be an object")
    version = doc.get("schema_version")
    if type(version) is not int or version != SCHEMA_VERSION:  # not True, not 1.0
        raise SchemaError(f"schema_version must be {SCHEMA_VERSION}")
    name = doc.get("name", "")
    if not isinstance(name, str):
        raise SchemaError(f"name must be a string, got {name!r}")
    labels = _expect(doc, "labels", list)
    if not labels or not all(isinstance(x, str) for x in labels):
        raise SchemaError("labels must be a non-empty list of strings")
    if len(set(labels)) != len(labels):
        raise SchemaError("duplicate label names")
    m = len(labels)
    dual = [_as_int(x, "dual") for x in _expect(doc, "dual", list)]
    if sorted(dual) != list(range(m)):
        raise SchemaError("dual must be a permutation of 0..m-1")

    ring = FusionRing(labels, dual, _fusion_table(_expect(doc, "fusion", list), m))
    if not _ring_ok(ring):
        report = validate_ring(ring)
        raise ValidationError(
            "fusion ring invariants violated:\n" + str(report), report.violations
        )

    F = _symbol_table(doc, "f_symbols", ring)
    R = _symbol_table(doc, "r_symbols", ring)

    weights = None
    if "weights" in doc:
        weights = np.zeros(m)
        got = set()
        for row in _expect(doc, "weights", list):
            if not isinstance(row, list) or len(row) != 2:
                raise SchemaError(f"weights row must be [label, h], got {row!r}")
            a = _as_int(row[0], "weights")
            _check_range((a,), m, "weights")
            if a in got:
                raise SchemaError(f"duplicate weight for label {a}")
            got.add(a)
            weights[a] = _as_number(row[1], "weights")
        if got != set(range(m)):
            raise SchemaError("weights must cover every label when present")

    central = doc.get("central_charge")
    if central is not None:
        central = _as_number(central, "central_charge")

    data = CategoryData(
        ring=ring,
        F=F,
        R=R,
        weights=weights,
        central_charge=central,
        name=name,
    )
    problems = validate_symbols(data)
    if problems:
        lines = [f"{kind} {key}: {msg}" for kind, key, msg in problems]
        raise ValidationError("symbol data invalid:\n" + "\n".join(lines))
    return data


def _expect(doc, key, typ):
    if key not in doc:
        raise SchemaError(f"missing required key {key!r}")
    if not isinstance(doc[key], typ):
        raise SchemaError(f"key {key!r} must be a {typ.__name__}")
    return doc[key]


def _as_int(x, where):
    if isinstance(x, bool) or not isinstance(x, int):
        raise SchemaError(f"{where}: expected integer, got {x!r}")
    return x


def _as_number(x, where):
    if not isinstance(x, bool) and isinstance(x, (int, float)):
        try:
            value = float(x)
        except OverflowError:  # an integer beyond the largest float
            pass
        else:
            if math.isfinite(value):
                return value
    raise SchemaError(f"{where}: expected a finite number, got {x!r}")


def _fusion_table(rows: list, m: int) -> np.ndarray:
    """N from the fusion rows, read as columns like the symbol tables."""
    (a, b, c, mult), _ = _int_columns(rows, 4, 4)
    labels = np.stack([a, b, c])
    in_range = ((labels >= 0) & (labels < m)).all(axis=0)
    key = np.ravel_multi_index(np.where(in_range, labels, 0), (m, m, m))
    _, first = np.unique(np.where(in_range, key, -1), return_index=True)
    duplicate = in_range.copy()
    duplicate[first] = False  # the first of equal keys is not a duplicate
    bad = _first(~in_range | duplicate | (mult < 0) | (mult > MAX_MULTIPLICITY))
    if bad < len(rows):
        row = _int_row(rows[bad], 4, "fusion")
        _check_range(row[:3], m, "fusion")
        where = "({},{},{})".format(*row[:3])
        if duplicate[bad]:
            raise SchemaError(f"duplicate fusion key {where}")
        if row[3] < 0:
            raise SchemaError(f"fusion multiplicity at {where} is negative")
        raise SchemaError(f"fusion multiplicity at {where} exceeds {MAX_MULTIPLICITY}")
    N = np.zeros(m**3, dtype=int)
    N[key] = mult
    return N.reshape(m, m, m)


def _int_row(row, n, where):
    if not isinstance(row, list) or len(row) != n:
        raise SchemaError(f"{where} row must have {n} integers, got {row!r}")
    return tuple(_as_int(x, where) for x in row)


def _check_range(indices, m, where):
    for i in indices:
        if not 0 <= i < m:
            raise SchemaError(f"{where}: label index {i} out of range 0..{m - 1}")


# The rows of a symbol table are read as columns: every check is an array mask
# over all rows, and only the first flagged row is looked at on its own, to
# raise the error that reading the rows one by one would raise there.
_TABLES = {"f_symbols": _BLOCK_VERTICES["F"], "r_symbols": _BLOCK_VERTICES["R"]}


def _symbol_table(doc, where: str, ring: FusionRing):
    """The F or R table of ``doc[where]``, checked and placed without a step per row.

    A row's labels and 0-based multiplicity indices give its offset in the ring's ``_Layout``
    (R counted from its first entry); the first row of an offset leads, a later one is a
    duplicate.  A table of every admissible key is unread, its stacks taken from the placed
    entries as ``_Stacking`` lays them out; any other is a dict of slices of them.  Either
    way its keys are in the order they first appear.
    """
    rows = _expect(doc, where, list)
    n_key, vertices = _TABLES[where]
    ints, values, finite = _columns(rows, n_key + len(vertices))
    m, N = ring.size, ring.N
    labels, mults = ints[:n_key], ints[n_key:] - 1
    in_range = ((labels >= 0) & (labels < m)).all(axis=0)
    labels = np.where(in_range, labels, 0)  # keeps the look-ups in bounds; the row is flagged
    shape = np.stack([N[labels[i], labels[j], labels[k]] for i, j, k in vertices])
    ok = in_range & ((mults >= 0) & (mults < shape)).all(axis=0)  # no index fits an empty range
    at, names = np.flatnonzero(ok), "abcdef"[:n_key]
    t = dict(zip(names, labels[:, at]))
    t.update(("".join(names[i] for i in v), x) for v, x in zip(vertices, mults[:, at]))
    lay, kind = _layout(ring), where[0].upper()
    offset = lay.f(t, names) if kind == "F" else lay.r(t, names) - lay.f_size
    _, lead = np.unique(offset, return_index=True)  # the first row of each offset
    duplicate = ok.copy()
    duplicate[at[lead]] = False
    bad = _first(~ok | duplicate | ~finite)  # len(ok) when only a row after those is bad
    if bad < len(rows):
        _raise_row_error(where, rows[bad], ring, bad < len(ok) and duplicate[bad])
    if not len(at):
        return {}

    stacking = _stacking(ring, kind)
    flat = np.empty(lay.f_size if kind == "F" else lay.size - lay.f_size, dtype=complex)
    flat[offset] = values[at]
    size = np.diff(stacking.start, append=flat.size)  # entries per block
    block = np.searchsorted(stacking.start, offset, side="right") - 1
    present, first, count = np.unique(block, return_index=True, return_counts=True)
    partial = np.flatnonzero(count != size[present])
    if len(partial):
        key = stacking.admissible[present[partial[np.argmin(first[partial])]]]
        raise SchemaError(f"{where} block {key} is only partially specified")
    in_file = present[np.argsort(first)].tolist()
    keys = list(map(stacking.admissible.__getitem__, in_file))
    if len(keys) == len(stacking.admissible):
        stacks = [np.take(flat, offsets).reshape(len(x), *block_shape)
                  for block_shape, _, offsets, x in stacking.groups]
        return _stacked(ring, kind, keys, stacks)
    start = stacking.start[in_file].tolist()
    return {key: flat[i : i + n].reshape(stacking.shapes[x])
            for key, i, n, x in zip(keys, start, size[in_file].tolist(), in_file)}


def _columns(rows: list, n_int: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The integer entries (one row per column), the complex values, and which values are finite.

    Rows are read up to the first that is not a list of ``n_int`` integers and
    two more entries; a value that is not a finite number reads as NaN.
    """
    ints, cols = _int_columns(rows, n_int, n_int + 2)
    try:
        if not set(map(type, itertools.chain.from_iterable(cols[n_int:]))) <= {int, float}:
            raise TypeError
        re, im = np.array(cols[n_int:], dtype=float).reshape(2, -1)
    except (TypeError, OverflowError):  # look at each value
        re, im = (np.array([_number_or_nan(x) for x in col], dtype=float) for col in cols[n_int:])
    values = np.empty(len(re), dtype=complex)
    values.real, values.imag = re, im
    return ints, values, np.isfinite(re) & np.isfinite(im)


def _int_columns(rows: list, n_int: int, width: int) -> tuple[np.ndarray, list]:
    """The first ``n_int`` entries of the rows as integer columns, and every entry as columns.

    Rows are read up to the first that is not a list of ``width`` entries
    starting with ``n_int`` integers.
    """
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {width}):
        rows = rows[: _first([not isinstance(r, list) or len(r) != width for r in rows])]
    cols = list(zip(*rows)) or [()] * width
    if not set(map(type, itertools.chain.from_iterable(cols[:n_int]))) <= {int}:
        flat = list(itertools.chain.from_iterable(cols[:n_int]))
        is_int = np.fromiter(map(isinstance, flat, itertools.repeat(int)), dtype=bool)
        is_int &= ~np.fromiter(map(isinstance, flat, itertools.repeat(bool)), dtype=bool)
        stop = _first(~is_int.reshape(n_int, -1).all(axis=0))
        cols = [col[:stop] for col in cols]
    try:
        ints = np.array(cols[:n_int], dtype=np.int64).reshape(n_int, -1)
    except OverflowError:  # 2**63 or more: out of range as a label and as an index
        ints = np.array([[min(max(x, -(2**62)), 2**62) for x in col] for col in cols[:n_int]])
    return ints, cols


def _first(flags) -> int:
    """Index of the first true flag, or the number of flags."""
    hits = np.flatnonzero(flags)
    return int(hits[0]) if len(hits) else len(flags)


def _number_or_nan(x) -> float:
    """``x`` as ``_as_number`` reads it, or NaN when it is not a finite number."""
    try:
        return _as_number(x, "")
    except SchemaError:
        return math.nan


def _raise_row_error(where: str, row, ring: FusionRing, duplicate: bool):
    """Raise the error of a flagged row: its checks in the order a row is read."""
    n_key, vertices = _TABLES[where]
    width = n_key + len(vertices) + 2
    if not isinstance(row, list) or len(row) != width:
        raise SchemaError(f"{where} row must have {width} entries, got {row!r}")
    ints = [_as_int(x, where) for x in row[: width - 2]]
    key, mult = tuple(ints[:n_key]), tuple(ints[n_key:])
    _check_range(key, ring.size, where)
    shape = [ring.N[key[i], key[j], key[k]] for i, j, k in vertices]
    if 0 in shape:
        raise SchemaError(f"{where} entry for inadmissible tuple ({','.join(map(str, key))})")
    if not all(1 <= i <= n for i, n in zip(mult, shape)):
        raise SchemaError(
            f"multiplicity index ({','.join(map(str, mult))}) out of range for {key}"
        )
    if duplicate:
        raise SchemaError(f"duplicate {where} key {key + mult}")
    for x in row[width - 2 :]:
        _as_number(x, where)
    raise AssertionError(f"{where} row {row!r} was flagged but passes every check")


# ---------------------------------------------------------------------------
# reports


def run_report(data: CategoryData, checks=None, tolerance: float = 1e-9) -> dict:
    """Run ``check_modular`` once and format its result as the report document.

    ``checks`` defaults to all of them; a string names one.  Pass/fail per
    check uses ``tolerance``; the overall verdict always comes from the full
    pipeline with its own pinned thresholds (coherence 1e-7, S~ margin 1e-8),
    so the verdict is stable under tolerance tweaks.  Non-finite numbers are
    written as ``null``.
    """
    if isinstance(tolerance, bool) or not (
        isinstance(tolerance, numbers.Real) and math.isfinite(tolerance) and tolerance > 0
    ):
        raise InputError(f"tolerance must be a finite positive number, got {tolerance!r}")
    if checks is None:
        checks = CHECK_NAMES
    checks = [checks] if isinstance(checks, str) else list(checks)
    if not checks:
        raise InputError(f"no check selected; known: {', '.join(CHECK_NAMES)}")
    for c in checks:
        if c not in CHECK_NAMES:
            raise InputError(f"unknown check {c!r}; known: {', '.join(CHECK_NAMES)}")

    rep = check_modular(data)  # computes every number the report holds
    matrices = {
        "dims": _plain(rep.dims),
        "fp_dims": _plain(rep.fp_dims),
        "twists": _plain(rep.twists),
        "s_tilde": _plain(rep.s_tilde.entries),
        "s_norm": None if rep.s_norm is None else _plain(rep.s_norm.entries),
        "t": _plain(rep.t_diag),
    }
    report = {
        "schema_version": SCHEMA_VERSION,
        "name": data.name,
        "checks": {c: _one_check(rep, c, tolerance) for c in checks},
        "verdict": rep.verdict,
        "residuals": {k: _plain(v) for k, v in sorted(rep.residuals.items())},
        "global_dim_sq": _plain(rep.global_dim_sq),
        "gauss_sums": {"plus": _plain(rep.gauss_sums[0]), "minus": _plain(rep.gauss_sums[1])},
        "matrices": matrices,
        "provenance": {
            "input_sha256": content_hash(data),
            "tool_version": __version__,
            "tolerance": tolerance,
            "coherence_tol": COHERENCE_TOL,
            "det_tol": DET_TOL,
            "rigidity_floor": RIGIDITY_FLOOR,
        },
    }
    return report


def _one_check(rep, name, tol):
    """A check's entry, from the numbers ``check_modular`` computed."""
    if name == "modularity":  # the S~ margin, which decides degenerate: it passes with the verdict
        return {"residual": rep.s_margin, "threshold": DET_TOL, "pass": rep.verdict == "modular"}
    if name == "rigidity":
        residual = rep.rigidity
    else:  # an invalid ring leaves the residuals uncomputed, which fails the check
        residual = float(np.max([rep.residuals.get(key, np.inf) for key in _CHECKS[name]]))
    return {"residual": _plain(residual), "threshold": tol, "pass": residual < tol}  # NaN fails


def _plain(x):
    """A number or array as JSON-ready lists, a complex number as [re, im], a non-finite
    number as None; None stays None."""
    if x is None:
        return None
    x = np.asarray(x)
    if np.iscomplexobj(x):
        x = np.stack([x.real, x.imag], axis=-1)
    return np.where(np.isfinite(x), x.astype(object), None).tolist()


def report_to_json(report: dict) -> str:
    return json.dumps(report, indent=2, sort_keys=True, allow_nan=False)


def report_to_text(report: dict) -> str:
    lines = []
    name = report["name"] or "(unnamed)"
    lines.append(f"category: {name}")
    lines.append(f"verdict:  {report['verdict']}")
    lines.append("")
    lines.append(f"{'check':<12} {'residual':>12} {'threshold':>12}  result")
    for cname, entry in report["checks"].items():
        res = entry["residual"]
        res_s = "n/a" if res is None else f"{res:.3e}"  # null: not a finite number
        verdict = "pass" if entry["pass"] else "FAIL"
        lines.append(f"{cname:<12} {res_s:>12} {entry['threshold']:>12.1e}  {verdict}")
    lines.append("")
    mats = report["matrices"]
    lines.append(f"{'label':<10} {'dim':>22} {'fp_dim':>12} {'twist':>24}")
    for i, (d, fp, t) in enumerate(zip(mats["dims"], mats["fp_dims"], mats["twists"])):
        lines.append(f"{i:<10} {_fmt_c(d):>22} {_num(fp):>12.8f} {_fmt_c(t):>24}")
    return "\n".join(lines)


def _num(x) -> float:
    return math.nan if x is None else x  # a report writes non-finite numbers as null


def _fmt_c(pair) -> str:
    z = complex(_num(pair[0]), _num(pair[1]))
    if not (math.isfinite(z.real) and math.isfinite(z.imag)):
        return "n/a"  # as in the residual column
    if abs(z.imag) < 5e-13:
        return f"{z.real:.8f}"
    return f"{z.real:.6f}{z.imag:+.6f}i"


def all_pass(report: dict) -> bool:
    return all(entry["pass"] for entry in report["checks"].values())
