"""Reference oracle: the fusion and F/R rows of a category file read one row at a time.

This is the original loader of the two symbol tables: one Python step per
row, each row checked in turn (entry count, integer indices, label range,
admissibility, multiplicity range, duplicate, finite value) and written into
a NaN-filled block, then every block checked for completeness.  The tests
compare it with the columnar loader of ``mtcat.io``: the same exception type
and message on corrupted files, and the same blocks, in the same key order,
on clean ones.  ``fusion_table`` reads the ``fusion`` rows the same way.
"""

import numpy as np

from mtcat.category_data import f_block_shape
from mtcat.errors import SchemaError
from mtcat.io import MAX_MULTIPLICITY, _as_int, _as_number, _check_range, _expect


def fusion_table(doc: dict, m: int) -> np.ndarray:
    """N of the ``fusion`` rows of ``doc`` over ``m`` labels, read row by row."""
    N = np.zeros((m, m, m), dtype=int)
    seen = set()
    for row in _expect(doc, "fusion", list):
        if not isinstance(row, list) or len(row) != 4:
            raise SchemaError(f"fusion row must have 4 integers, got {row!r}")
        a, b, c, mult = (_as_int(x, "fusion") for x in row)
        _check_range((a, b, c), m, "fusion")
        if (a, b, c) in seen:
            raise SchemaError(f"duplicate fusion key ({a},{b},{c})")
        seen.add((a, b, c))
        if mult < 0:
            raise SchemaError(f"fusion multiplicity at ({a},{b},{c}) is negative")
        if mult > MAX_MULTIPLICITY:
            raise SchemaError(f"fusion multiplicity at ({a},{b},{c}) exceeds {MAX_MULTIPLICITY}")
        N[a, b, c] = mult
    return N


def symbol_tables(doc: dict, ring) -> tuple[dict, dict]:
    """The F and R blocks of ``doc`` over ``ring``, read row by row."""
    m, N = ring.size, ring.N

    F = {}
    for row in _expect(doc, "f_symbols", list):
        if not isinstance(row, list) or len(row) != 12:
            raise SchemaError(f"f_symbols row must have 12 entries, got {row!r}")
        a, b, c, d, e, f = (_as_int(x, "f_symbols") for x in row[:6])
        al, be, ga, de = (_as_int(x, "f_symbols") for x in row[6:10])
        _check_range((a, b, c, d, e, f), m, "f_symbols")
        shape = f_block_shape(ring, a, b, c, d, e, f)
        if 0 in shape:
            raise SchemaError(f"f_symbols entry for inadmissible tuple ({a},{b},{c},{d},{e},{f})")
        key = (a, b, c, d, e, f)
        if key not in F:
            F[key] = np.full(shape, np.nan, dtype=complex)
        idx = (al - 1, be - 1, ga - 1, de - 1)
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise SchemaError(
                f"multiplicity index ({al},{be},{ga},{de}) out of range for {key}"
            )
        if not np.isnan(F[key][idx].real):
            raise SchemaError(f"duplicate f_symbols key {key + (al, be, ga, de)}")
        F[key][idx] = complex(_as_number(row[10], "f_symbols"), _as_number(row[11], "f_symbols"))
    for key, block in F.items():
        if np.isnan(block.real).any():
            raise SchemaError(f"f_symbols block {key} is only partially specified")

    R = {}
    for row in _expect(doc, "r_symbols", list):
        if not isinstance(row, list) or len(row) != 7:
            raise SchemaError(f"r_symbols row must have 7 entries, got {row!r}")
        a, b, c = (_as_int(x, "r_symbols") for x in row[:3])
        al, be = (_as_int(x, "r_symbols") for x in row[3:5])
        _check_range((a, b, c), m, "r_symbols")
        shape = (int(N[a, b, c]), int(N[b, a, c]))
        if 0 in shape:
            raise SchemaError(f"r_symbols entry for inadmissible tuple ({a},{b},{c})")
        key = (a, b, c)
        if key not in R:
            R[key] = np.full(shape, np.nan, dtype=complex)
        idx = (al - 1, be - 1)
        if not all(0 <= i < n for i, n in zip(idx, shape)):
            raise SchemaError(f"multiplicity index ({al},{be}) out of range for {key}")
        if not np.isnan(R[key][idx].real):
            raise SchemaError(f"duplicate r_symbols key {key + (al, be)}")
        R[key][idx] = complex(_as_number(row[5], "r_symbols"), _as_number(row[6], "r_symbols"))
    for key, block in R.items():
        if np.isnan(block.real).any():
            raise SchemaError(f"r_symbols block {key} is only partially specified")
    return F, R
