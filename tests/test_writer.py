"""The canonical text's floats: the array kernel writes what ``repr`` writes.

The kernel is called directly here, so tables below the writer's size
threshold do not route around it; ``dumps`` is checked against the json
encoder, which writes every float with ``repr``.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mtcat import CategoryData, dumps, gauge_transform, make, random_gauge
from mtcat._floatrepr import texts
from mtcat.category_data import _stacked_on
from mtcat.io import _KERNEL_FLOATS, category_to_dict

from conftest import random_rep_a4_data


def _assert_like_json(values):
    """The kernel's text of every value is ``json.dumps``'s, which is ``repr`` when finite."""
    values = np.asarray(values, dtype=float)
    chars, keep = texts(values)
    want = list(map(repr, values.tolist()))
    for i in np.flatnonzero(~np.isfinite(values)).tolist():
        want[i] = json.dumps(values[i].item())  # NaN, Infinity, -Infinity
    # the texts joined and each text's length: together they pin every text
    assert keep.sum(axis=1).tolist() == list(map(len, want))
    got = chars[keep].tobytes().decode()
    if got != "".join(want):
        bad = [
            (w, bytes(c[k]).decode()) for c, k, w in zip(chars, keep, want)
            if bytes(c[k]).decode() != w
        ]
        raise AssertionError(f"{len(bad)} values differ, e.g. {bad[:5]}")


def test_kernel_on_random_bit_patterns():
    rng = np.random.default_rng(20260419)
    for _ in range(4):
        values = rng.integers(0, 2**64, size=250_000, dtype=np.uint64).view(float)
        _assert_like_json(values[np.isfinite(values)])


def _with_neighbours(values):
    values = np.asarray(values, dtype=float)
    return np.concatenate([values, np.nextafter(values, -np.inf), np.nextafter(values, np.inf)])


EDGES = {
    "zeros and extremes": [0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                           2.2250738585072014e-308, 1.7976931348623157e308,
                           -1.7976931348623157e308],
    "powers of 2": _with_neighbours(2.0 ** np.arange(-1074, 1024)),
    "powers of 10": _with_neighbours([float(f"1e{k}") for k in range(-323, 309)]),
    "fixed and exponent form": _with_neighbours([1e16, 9999999999999998.0, 1e-4, 1e-5]),
    "integers": np.r_[np.arange(-2000.0, 2000.0), np.arange(2.0**53 - 2000, 2.0**53 + 3)],
    "halves between integers": np.arange(2.0**50, 2.0**50 + 64) + 0.25,  # ties to even
    "non-finite": [np.nan, np.inf, -np.inf],
}


@pytest.mark.parametrize("name", EDGES)
def test_kernel_on_edge_values(name):
    _assert_like_json(EDGES[name])


@settings(max_examples=200, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=1, max_size=50))
def test_kernel_on_any_floats(values):
    _assert_like_json(values)


def _random_bits_copy(data, seed):
    """A stacked copy whose F values are random bit patterns, with a NaN and both infinities."""
    copy = data.copy()
    stacks = copy.F.stacks
    rng = np.random.default_rng(seed)
    for stack in stacks:
        bits = rng.integers(0, 2**64, size=stack.size * 2, dtype=np.uint64)
        stack.reshape(-1).view(np.uint64)[:] = bits
    flat = stacks[-1].reshape(-1)
    flat[:3] = [np.nan, np.inf, complex(-np.inf, np.nan)]
    return copy


@pytest.mark.parametrize("name", ["su2_k7", "su2_k8", "rep_a4", "su2_k8_random_bits"])
def test_dumps_is_the_json_encoder(name):
    if name == "rep_a4":
        data = random_rep_a4_data(2)  # fusion multiplicity 2
    else:
        base = make("su2_level", level=int(name[5]))
        data = gauge_transform(base, random_gauge(base.ring, 11))
        if name.endswith("random_bits"):
            data = _random_bits_copy(data, 11)
    assert _stacked_on(data.ring, data.F, "F") or name == "rep_a4"
    if name != "rep_a4":  # the F table goes through the kernel
        assert 2 * sum(block.size for block in data.F.values()) >= _KERNEL_FLOATS
    assert dumps(data) == json.dumps(category_to_dict(data), indent=1, sort_keys=True)


def test_a_plain_dict_table_goes_through_the_kernel():
    base = make("su2_level", level=7)
    data = gauge_transform(base, random_gauge(base.ring, 3))
    plain = CategoryData(ring=data.ring, F=dict(data.F), R=dict(data.R), name=data.name,
                         weights=data.weights, central_charge=data.central_charge)
    assert not _stacked_on(plain.ring, plain.F, "F")
    assert dumps(plain) == dumps(data)
