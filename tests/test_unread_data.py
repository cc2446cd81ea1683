"""Data whose F or R table has not been read: ``load``, the catalog, ``gauge_transform`` and
``copy()`` keep a table as its stacks until ``data.F`` or ``data.R`` is first read.  Copies,
pickles and assignments behave as they would on read data, and readers never read it."""

import copy
import dataclasses
import pickle
import threading

import numpy as np
import pytest

from mtcat import dumps, gauge_transform, loads, make, random_gauge
from mtcat.io import report_to_json, run_report

from conftest import random_rep_a4_data

NAMES = ["su2_k3_gauged", "rep_a4_loaded"]


def _unread(name):
    """Fresh data with an unread F table: a gauged su(2)_3, whose R is unread too, or a loaded
    Rep(A4) with random blocks (``load`` has read its R to validate it)."""
    if name == "su2_k3_gauged":
        data = make("su2_level", level=3)
        data = gauge_transform(data, random_gauge(data.ring, 0))
        assert "R" not in vars(data)
    else:
        data = loads(dumps(random_rep_a4_data(7)))
    assert "F" not in vars(data)
    return data


def _bytes(data):
    return dumps(data), report_to_json(run_report(data))


def _unread_kinds(data):
    return {kind for kind in "FR" if kind not in vars(data)}


COPIES = {
    "pickle": lambda data: pickle.loads(pickle.dumps(data)),
    "deepcopy": copy.deepcopy,
    "copy_method": lambda data: data.copy(),
}


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", NAMES)
def test_a_copy_of_unread_data_is_unread_and_alike(name, how):
    data = _unread(name)
    unread = _unread_kinds(data)
    copied = COPIES[how](data)
    kept = _unread_kinds(copied)  # copy() leaves a read stacked table unread in the copy
    assert kept == (unread if how != "copy_method" else {"F", "R"})
    assert _bytes(copied) == _bytes(data)
    assert _unread_kinds(copied) == kept and _unread_kinds(data) == unread  # readers read none


@pytest.mark.parametrize("how", COPIES)
@pytest.mark.parametrize("name", NAMES)
def test_editing_a_block_of_a_copy_leaves_the_source_alone(name, how):
    data = _unread(name)
    want = _bytes(data)
    copied = COPIES[how](data)
    key = next(iter(copied.F))
    copied.F[key][...] = 3 * copied.F[key]  # in place: the copy keeps its stacks
    assert _bytes(copied)[0] != want[0]
    assert _bytes(data) == want


@pytest.mark.parametrize("name", NAMES)
def test_replace_keeps_every_table_entry(name):
    data = _unread(name)
    replaced = dataclasses.replace(data, name="x")
    assert replaced.name == "x"
    for kind in "FR":
        got, want = getattr(replaced, kind), getattr(_unread(name), kind)
        assert list(got) == list(want)
        assert all(np.array_equal(got[key], block) for key, block in want.items())


@pytest.mark.parametrize("name", NAMES)
def test_an_assigned_table_wins_over_the_unread_stacks(name):
    data = _unread(name)
    bumped = {key: block.copy() for key, block in _unread(name).F.items()}
    key = list(bumped)[len(bumped) // 2]
    bumped[key] = bumped[key] * (1 + 1e-3)
    data.F = bumped  # before any read of data.F
    assert data.F is bumped and "_unread_F" not in vars(data)  # nor in its pickles and copies
    report = run_report(data)
    assert report["verdict"] == "incoherent"
    assert report["residuals"]["pentagon"] > 1e-6
    assert loads(dumps(data)).F[key] == pytest.approx(bumped[key])
    gauge = random_gauge(data.ring, 3)
    gauged = gauge_transform(data, gauge)
    assert run_report(gauged)["verdict"] == "incoherent"
    plain = dataclasses.replace(data, F=dict(bumped))
    assert _bytes(gauged) == _bytes(gauge_transform(plain, gauge))


def test_other_names_raise_attribute_error():
    data = _unread("su2_k3_gauged")
    with pytest.raises(AttributeError, match="'CategoryData' object has no attribute 'G'"):
        data.G
    for name in ("__setstate__", "_unread_G", "f", ""):  # pickle probes __setstate__
        with pytest.raises(AttributeError):
            getattr(data, name)
    assert _unread_kinds(data) == {"F", "R"}


@pytest.mark.parametrize("level", [3, 8])
def test_a_report_on_loaded_data_reads_no_f(level):
    loaded = loads(dumps(make("su2_level", level=level)))
    run_report(loaded)
    assert _unread_kinds(loaded) == {"F", "R"}


def test_threads_that_read_first_get_one_table():
    data = make("su2_level", level=6)
    for seed in range(5):
        gauged = gauge_transform(data, random_gauge(data.ring, seed))
        start, seen = threading.Barrier(4), []

        def work():
            start.wait(timeout=60)
            seen.append(gauged.F)

        workers = [threading.Thread(target=work) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
        assert len(seen) == 4 and all(table is gauged.F for table in seen)
        assert "_unread_F" not in vars(gauged)  # a pickle or copy carries the table alone
