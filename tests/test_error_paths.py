"""Error paths that the other tests never reach: the loader's schema checks through the CLI,
API argument checks, the CLI's answers on degenerate data, tables whose keys do not sort, and
malformed blocks, gauges and scalar fields."""

import dataclasses
import json
import re

import numpy as np
import pytest

from mtcat import (
    CategoryData,
    FusionRing,
    GaugeTransform,
    InputError,
    MtcatError,
    RigidityDegenerate,
    SMatrix,
    dumps,
    gauge_transform,
    hexagon_residual,
    make,
    random_gauge,
    rigidity_scalar,
    run_report,
    validate_symbols,
)
from mtcat.cli import main
from mtcat.io import category_to_dict, content_hash

import reference_coherence as reference


def _fibonacci_doc():
    return json.loads(dumps(make("fibonacci")))


def _write(tmp_path, doc):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(doc))
    return str(path)


# each case: a valid Fibonacci document with one field changed, and the loader's message
LOADER_CASES = {
    "top_level_list": (lambda doc: [], "top level must be an object"),
    "empty_labels": (lambda doc: {**doc, "labels": []},
                     "labels must be a non-empty list of strings"),
    "duplicate_labels": (lambda doc: {**doc, "labels": ["1", "1"]}, "duplicate label names"),
    "dual_not_a_permutation": (lambda doc: {**doc, "dual": [0, 0]},
                               "dual must be a permutation of 0..m-1"),
    "missing_fusion": (lambda doc: {k: v for k, v in doc.items() if k != "fusion"},
                       "missing required key 'fusion'"),
    "fusion_an_object": (lambda doc: {**doc, "fusion": {}}, "key 'fusion' must be a list"),
    "weights_row_not_a_pair": (lambda doc: {**doc, "weights": [[0, 0.0, 1], [1, 0.4]]},
                               "weights row must be [label, h], got [0, 0.0, 1]"),
    "duplicate_weight": (lambda doc: {**doc, "weights": [[0, 0.0], [0, 0.4]]},
                         "duplicate weight for label 0"),
    "weights_miss_a_label": (lambda doc: {**doc, "weights": [[0, 0.0]]},
                             "weights must cover every label when present"),
}


@pytest.mark.parametrize("case", LOADER_CASES)
def test_verify_names_the_loader_error(tmp_path, capsys, case):
    change, message = LOADER_CASES[case]
    path = _write(tmp_path, change(_fibonacci_doc()))
    assert main(["verify", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_validate_prints_the_summary(tmp_path, capsys):
    path = _write(tmp_path, _fibonacci_doc())
    assert main(["validate", path]) == 0
    out, err = capsys.readouterr()
    assert out == "fibonacci: 2 labels\nring invariants: ok\nsymbol tables:   ok\n" and err == ""


def test_validate_and_verify_refuse_a_missing_f_row(tmp_path, capsys):
    doc = _fibonacci_doc()
    doc["f_symbols"] = [row for row in doc["f_symbols"] if row[:6] != [1, 1, 1, 1, 1, 1]]
    path = _write(tmp_path, doc)
    assert main(["validate", path]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid data: ") and "missing-F (1, 1, 1, 1, 1, 1)" in err
    assert main(["verify", path]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("invalid data: ")


@pytest.mark.parametrize("command, message", [
    (["smatrix", "--normalized"], "cannot normalize: verdict is degenerate\n"),
    (["verlinde"], "no normalized S-matrix: verdict is degenerate\n"),
])
def test_degenerate_data_has_no_normalized_s_matrix(tmp_path, capsys, command, message):
    path = str(tmp_path / "z4.json")
    assert main(["gen", "pointed_zn", "--n", "4", "--q", "0", "-o", path]) == 0
    capsys.readouterr()
    assert main([command[0], path, *command[1:]]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == message


def test_weights_of_the_wrong_length_are_refused():
    data = make("fibonacci")
    with pytest.raises(InputError, match="weights must give one value per label"):
        CategoryData(ring=data.ring, F=data.F, R=data.R, weights=[0.0, 0.4, 0.1])


def test_rigidity_scalar_refuses_a_vanishing_unit_element():
    data = make("fibonacci").copy()
    data.F[(1, 1, 1, 1, 0, 0)] = np.zeros((1, 1, 1, 1), dtype=complex)
    message = "unit-channel fusing element for label 1 has modulus 0.000e+00"
    with pytest.raises(RigidityDegenerate, match=re.escape(message)):
        rigidity_scalar(data, 1)


def test_hexagon_residual_refuses_an_unknown_direction():
    with pytest.raises(InputError, match="unknown hexagon direction 'sideways'"):
        hexagon_residual(make("fibonacci"), direction="sideways")


def test_gauge_transform_refuses_a_gauge_of_another_ring():
    data, other = make("fibonacci"), make("ising")
    with pytest.raises(InputError, match="gauge transform built for a different fusion ring"):
        gauge_transform(data, random_gauge(other.ring, 0))


def test_shape_checks_of_rings_and_s_matrices():
    N = make("fibonacci").ring.N
    with pytest.raises(InputError,
                       match=re.escape("dual permutation has shape (1,), expected (2,)")):
        FusionRing(["1", "tau"], [0], N)
    with pytest.raises(InputError,
                       match=re.escape("fusion tensor has shape (2, 2), expected (2,2,2)")):
        FusionRing(["1", "tau"], [0, 1], N[0])
    with pytest.raises(InputError, match=re.escape("S-matrix must be square, got shape (2, 3)")):
        SMatrix(np.zeros((2, 3)))
    with pytest.raises(InputError, match="unknown normalization tag 'half'"):
        SMatrix(np.eye(2), normalization="half")


# --- keys that do not sort -----------------------------------------------------


def _with_extra_keys(kind, *keys):
    """A Fibonacci copy with the extra keys added to one table, in this order."""
    data = make("fibonacci").copy()
    table = getattr(data, kind)
    block = next(iter(table.values()))
    for key in keys:
        table[key] = block.copy()
    return data


@pytest.mark.parametrize("kind, far", [("F", (5,) * 6), ("R", (5,) * 3)])
def test_keys_that_do_not_sort(kind, far):
    message = f"{kind} entry present for inadmissible tuple"
    for keys in (("junk", far), (far, "junk")):  # listed in the table's order
        data = _with_extra_keys(kind, *keys)
        assert validate_symbols(data) == [(f"extra-{kind}", key, message) for key in keys]
        with pytest.raises(InputError, match=re.escape(f"{message} 'junk'")):
            category_to_dict(data)
    with pytest.raises(InputError, match=re.escape(f"{message} 'junk'")):
        category_to_dict(_with_extra_keys(kind, "junk"))


@pytest.mark.parametrize("kind, far", [("F", (5,) * 6), ("R", (5,) * 3)])
def test_extra_keys_that_compare_are_sorted(kind, far):
    data = _with_extra_keys(kind, far, (4,) * len(far))
    problems = validate_symbols(data)
    assert [key for _, key, _ in problems] == [(4,) * len(far), far]
    assert problems == reference.validate_symbols(data)


# --- malformed blocks, gauges and scalar fields --------------------------------


def _block(kind, key, block):
    """A Fibonacci copy with one block replaced."""
    def change(fib, ising):
        data = fib.copy()
        getattr(data, kind)[key] = block
        return data
    return change


def _gauge(g):
    """Ising and a gauge of the one matrix ``g`` on the vertex (1, 1, 2)."""
    return lambda fib, ising: (ising, GaugeTransform(ising.ring, {(1, 1, 2): g}))


F_KEY, R_KEY, F_SHAPE, R_SHAPE = (1,) * 6, (1, 1, 0), (1, 1, 1, 1), (1, 1)
# each case: how to make it from Fibonacci and Ising, and what it is: a block that is not
# an array of numbers or not finite, an InputError message at construction, or a gauge
MALFORMED = {
    "f_list": (_block("F", F_KEY, [[[[1.0]]]]), "type"),
    "r_list": (_block("R", R_KEY, [[1.0]]), "type"),
    "f_strings": (_block("F", F_KEY, np.full(F_SHAPE, "a")), "type"),
    "r_strings": (_block("R", R_KEY, np.full(R_SHAPE, "a")), "type"),
    "f_bools": (_block("F", F_KEY, np.ones(F_SHAPE, dtype=bool)), "type"),
    "f_nan": (_block("F", F_KEY, np.full(F_SHAPE, np.nan, dtype=complex)), "not finite"),
    "r_nan": (_block("R", R_KEY, np.full(R_SHAPE, np.nan, dtype=complex)), "not finite"),
    "f_inf": (_block("F", F_KEY, np.full(F_SHAPE, np.inf, dtype=complex)), "not finite"),
    "r_inf": (_block("R", R_KEY, np.full(R_SHAPE, complex(0, np.inf))), "not finite"),
    "weights_strings": (lambda fib, ising: dataclasses.replace(fib, weights=["a", "b"]),
                        "weights must be real numbers, got ['a', 'b']"),
    "weights_complex": (lambda fib, ising: dataclasses.replace(fib, weights=np.array([0, 0.4j])),
                        "weights must be real numbers, got array(["),
    "weights_nan": (lambda fib, ising: dataclasses.replace(fib, weights=np.array([0, np.nan])),
                    "weights must be finite real numbers, got array([ 0., nan])"),
    "weights_inf": (lambda fib, ising: dataclasses.replace(fib, weights=np.array([0, np.inf])),
                    "weights must be finite real numbers, got array([ 0., inf])"),
    "weights_huge": (lambda fib, ising: dataclasses.replace(fib, weights=[0, 10**400]),
                     "weights must be finite real numbers, got [0, 1000"),
    "central_charge_string": (lambda fib, ising: dataclasses.replace(fib, central_charge="x"),
                              "central_charge must be a finite real number, got 'x'"),
    "central_charge_complex": (lambda fib, ising: dataclasses.replace(fib, central_charge=1j),
                               "central_charge must be a finite real number, got 1j"),
    "central_charge_nan": (lambda fib, ising: dataclasses.replace(fib, central_charge=np.nan),
                           "central_charge must be a finite real number, got nan"),
    "central_charge_inf": (lambda fib, ising: dataclasses.replace(fib, central_charge=np.inf),
                           "central_charge must be a finite real number, got inf"),
    "central_charge_huge": (lambda fib, ising: dataclasses.replace(fib, central_charge=10**400),
                            "central_charge must be a finite real number, got 1000"),
    "gauge_nan": (_gauge(np.full((1, 1), np.nan)), "gauge matrix on (1,1,2) is not invertible"),
    "gauge_inf": (_gauge(np.full((1, 1), np.inf)), "gauge matrix on (1,1,2) is not invertible"),
    "gauge_strings": (_gauge(np.full((1, 1), "a")), "gauge on (1,1,2) is not an array of numbers"),
}


@pytest.mark.parametrize("case", MALFORMED)
def test_malformed_input_raises_only_mtcat_errors(fib, ising, case):
    make_case, expect = MALFORMED[case]
    if expect not in ("type", "not finite"):  # refused where it is made or used
        with pytest.raises(InputError, match=re.escape(expect)):
            data, gauge = make_case(fib, ising)
            gauge_transform(data, gauge)
        return
    data = make_case(fib, ising)
    kind = "F" if case.startswith("f") else "R"
    key = F_KEY if kind == "F" else R_KEY
    problems = validate_symbols(data)
    assert problems == reference.validate_symbols(data)
    if expect == "type":
        assert problems == [(f"type-{kind}", key, "block is not an array of numbers")]
    else:  # a matrix that is not finite is not invertible
        matrix = "fusing matrix" if kind == "F" else "braiding block"
        assert problems == [(f"singular-{kind}", key[:4], f"{matrix} is not invertible")]
    calls = [run_report, dumps, content_hash, category_to_dict,
             lambda d: gauge_transform(d, random_gauge(d.ring, 0))]
    for call in calls:
        try:
            with np.errstate(invalid="ignore", over="ignore"):
                out = call(data)
        except MtcatError as exc:
            assert expect == "type" and type(exc) is InputError
            assert str(exc) == f"{kind} block {key} is not an array of numbers"
        else:
            assert expect == "not finite"
            if call is run_report:
                assert out["verdict"] == "incoherent"
