import hashlib
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from mtcat import (
    CategoryData,
    FusionRing,
    IncompleteData,
    InputError,
    ParseError,
    SchemaError,
    ValidationError,
    check_modular,
    dumps,
    gauge_transform,
    load,
    loads,
    make,
    quantum_dimensions,
    random_gauge,
    rigidity_scalar,
    run_report,
    save,
)
from mtcat import category_data
from mtcat.catalog import FAMILIES
from mtcat.category_data import coherence_summary, validate_symbols
from mtcat.cli import build_parser, main
from mtcat.io import (
    all_pass,
    category_from_dict,
    category_to_dict,
    content_hash,
    report_to_json,
    report_to_text,
)

from conftest import CATALOG, bump_one_f_and_one_r, random_rep_a4_data


@pytest.mark.parametrize(
    "family,kw",
    [
        ("trivial", {}),
        ("fibonacci", {}),
        ("ising", {}),
        ("pointed_zn", {"n": 4, "q_exponent": 1}),
        ("su2_level", {"level": 2}),
    ],
)
def test_round_trip_field_exact(family, kw):
    data = make(family, **kw)
    back = loads(dumps(data))
    assert back.ring == data.ring
    assert set(back.F) == set(data.F)
    for key in data.F:
        assert np.array_equal(back.F[key], data.F[key])
    for key in data.R:
        assert np.array_equal(back.R[key], data.R[key])
    assert np.array_equal(back.weights, data.weights)
    assert back.central_charge == data.central_charge
    assert back.name == data.name
    # canonical serialization is a fixed point
    assert dumps(back) == dumps(data)


def test_save_load_file(tmp_path, fib):
    path = tmp_path / "fib.json"
    save(fib, path)
    assert load(path).ring == fib.ring


def test_round_trip_whole_catalog(catalog):
    for name, data in catalog.items():
        back = loads(dumps(data))
        assert dumps(back) == dumps(data), name


def _unusual_fibonacci(fib):
    """A Fibonacci copy with the floats and the name characters json writes specially."""
    odd = fib.copy()
    odd.name = 'the "golden" anyon, φ'
    odd.F[(1, 1, 1, 1, 0, 0)] = np.array(complex(np.nan, np.inf)).reshape(1, 1, 1, 1)
    odd.F[(1, 1, 1, 1, 0, 1)] = np.array(complex(-np.inf, -0.0)).reshape(1, 1, 1, 1)
    odd.F[(1, 1, 1, 1, 1, 1)] = np.array(complex(1e-300, 5e-324)).reshape(1, 1, 1, 1)
    return odd


@pytest.mark.parametrize("gauged", [False, True])
@pytest.mark.parametrize(
    "name", [name for name, _, _ in CATALOG] + ["random_rep_a4", "unusual_fibonacci"]
)
def test_dumps_is_the_json_encoder_layout(catalog, name, gauged):
    if name == "random_rep_a4":
        data = random_rep_a4_data(7)  # multiplicity indices up to 2
    elif name == "unusual_fibonacci":
        data = _unusual_fibonacci(catalog["fibonacci"])
    else:
        data = catalog[name]
    if gauged:
        with np.errstate(invalid="ignore"):
            data = gauge_transform(data, random_gauge(data.ring, 0))
    size = data.ring.size
    for weights in (None, np.linspace(0.0, 0.9, size) if data.weights is None else data.weights):
        for central in (None, 0.7 if data.central_charge is None else data.central_charge):
            copy = CategoryData(
                ring=data.ring, F=data.F, R=data.R,
                weights=weights, central_charge=central, name=data.name,
            )
            assert dumps(copy) == json.dumps(category_to_dict(copy), indent=1, sort_keys=True)


def _canonical(data):
    return json.dumps(category_to_dict(data), indent=1, sort_keys=True)


@pytest.mark.parametrize("name", ["su2_k4", "random_rep_a4"])
def test_dumps_row_template_follows_the_layout(catalog, name):
    a = random_rep_a4_data(3) if name == "random_rep_a4" else catalog[name].copy()
    f_key = sorted(a.F)[len(a.F) // 2]
    r_key = sorted(a.R)[len(a.R) // 3]
    # a table that load would reject is not written: one F and one R key removed, one block
    # of another shape, a key outside the label range, the reshaped block with a key removed
    missing = a.copy()
    del missing.F[f_key], missing.R[r_key]
    reshaped = a.copy()
    reshaped.F[f_key] = reshaped.F[f_key].reshape(-1, *reshaped.F[f_key].shape[2:])
    reordered = a.copy()
    reordered.F = dict(reversed(reordered.F.items()))
    extra = a.copy()
    extra.F[(a.ring.size,) * 6] = a.F[f_key].copy()
    torn = reshaped.copy()
    gone = sorted(a.F)[len(a.F) // 2 + 1]
    del torn.F[gone]
    refused = {
        id(missing): (IncompleteData, f"missing admissible F entry for {f_key}"),
        id(reshaped): (InputError, "F/R blocks do not have their admissible shapes"),
        id(extra): (InputError, f"F entry present for inadmissible tuple {(a.ring.size,) * 6}"),
        id(torn): (IncompleteData, f"missing admissible F entry for {gone}"),  # before the shapes
    }
    first = dumps(a)
    assert first == _canonical(a)
    for data in (missing, a, reshaped, a, reordered, a, extra, a, torn, a):
        if id(data) in refused:
            error, message = refused[id(data)]
            with pytest.raises(error, match=re.escape(message) + "$"):
                dumps(data)
        else:
            assert dumps(data) == _canonical(data)
    assert dumps(a) == first
    a.F[f_key][(0,) * a.F[f_key].ndim] += 0.5  # in place: the layout is the same
    a.R[r_key] *= -1
    assert dumps(a) == _canonical(a) != first


@pytest.mark.parametrize("name", ["fibonacci", "su2_k3"])
@pytest.mark.parametrize("kind", ["F", "R"])
@pytest.mark.parametrize("extra", ["out_of_range", "inadmissible", "junk"])
def test_every_reader_refuses_an_extra_key(catalog, tmp_path, name, kind, extra):
    # one rule for every reader and the writer: a table holds exactly the admissible keys
    data = catalog[name].copy()
    size, table = data.ring.size, data.F if kind == "F" else data.R
    key = {"out_of_range": (size,) * len(next(iter(table))),
           "inadmissible": (0, 0, 0, 0, 1, 1) if kind == "F" else (0, 1, 0),
           "junk": "junk"}[extra]
    assert key not in table
    table[key] = next(iter(table.values())).copy()
    problems = validate_symbols(data)
    assert (f"extra-{kind}", key, f"{kind} entry present for inadmissible tuple") in problems
    path = tmp_path / "data.json"
    save(catalog[name], path)
    before = path.read_bytes()
    readers = [run_report, check_modular, coherence_summary, lambda d: gauge_transform(
        d, random_gauge(d.ring, 0)), dumps, content_hash, lambda d: save(d, path)]
    if kind == "F":
        readers += [quantum_dimensions, lambda d: rigidity_scalar(d, 1)]
    for reader in readers:
        with pytest.raises(InputError, match=re.escape(
                f"{kind} entry present for inadmissible tuple {key!r}") + "$"):
            reader(data)
    assert path.read_bytes() == before


def test_dumps_writes_numbers_of_two_digits():
    # row heads whose labels or multiplicity indices have one or two digits, on tables
    # large enough for the float kernel
    z12 = make("pointed_zn", n=12, q_exponent=1)  # labels 0..11
    N = np.zeros((2, 2, 2), dtype=int)
    N[0, 0, 0] = N[0, 1, 1] = N[1, 0, 1] = N[1, 1, 0] = 1
    N[1, 1, 1] = 10  # x * x = 1 + 10 x: indices 1..10
    ring = FusionRing(["1", "x"], [0, 1], N)
    rng = np.random.default_rng(0)
    shapes = {"F": category_data.f_block_shape, "R": lambda r, a, b, c: (N[a, b, c], N[b, a, c])}
    tables = {kind: {key: rng.standard_normal(shapes[kind](ring, *key)) + 0j for key in keys}
              for kind, keys in (("F", category_data.admissible_f_keys(ring)),
                                 ("R", category_data.admissible_r_keys(ring)))}
    multiple = CategoryData(ring=ring, F=tables["F"], R=tables["R"])
    for data in (z12, multiple):
        assert len(data.F) and sum(block.size for block in data.F.values()) >= 750
        assert dumps(data) == _canonical(data)


def test_content_hash_pinned(catalog):
    # digests of the canonical text as json.dumps(indent=1, sort_keys=True) wrote it
    assert content_hash(catalog["fibonacci"]) == (
        "0b8ddbe82b333e337e4b56baa1b8398bfa462017befb1a9b005fdbc1589fad7d"
    )
    assert content_hash(catalog["su2_k3"]) == (
        "2e42f9a0c99bec3d26a32279a101b08eb8869b56e737783c8aa41b77cc6abaaf"
    )


@pytest.mark.parametrize("name", ["fibonacci", "su2_k3"])
def test_content_hash_is_the_saved_file_hash(catalog, tmp_path, name):
    data = gauge_transform(catalog[name], random_gauge(catalog[name].ring, 5))
    path = tmp_path / "data.json"
    save(data, path)
    raw = path.read_bytes()
    assert raw.endswith(b"}\n")
    digest = hashlib.sha256(raw[:-1]).hexdigest()
    assert content_hash(data) == digest
    assert content_hash(load(path)) == digest  # the input_sha256 of mtcat verify


def test_parse_error_names_location(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{ not json")
    with pytest.raises(ParseError, match="line 1"):
        load(path)


def test_duplicate_f_key_rejected(fib):
    doc = category_to_dict(fib)
    doc["f_symbols"].append(doc["f_symbols"][0])
    with pytest.raises(SchemaError, match="duplicate f_symbols"):
        loads(json.dumps(doc))


def test_duplicate_fusion_key_rejected(fib):
    doc = category_to_dict(fib)
    doc["fusion"].append(doc["fusion"][0])
    with pytest.raises(SchemaError, match="duplicate fusion"):
        loads(json.dumps(doc))


def test_bad_duality_is_validation_error(fib):
    doc = category_to_dict(fib)
    # make tau x tau lose its unit channel: N[a,b,e] != delta_{b,dual(a)}
    doc["fusion"] = [row for row in doc["fusion"] if row[:3] != [1, 1, 0]]
    with pytest.raises(ValidationError, match="duality"):
        loads(json.dumps(doc))


def test_out_of_range_label_rejected(fib):
    doc = category_to_dict(fib)
    doc["fusion"].append([0, 0, 5, 1])
    with pytest.raises(SchemaError, match="out of range"):
        loads(json.dumps(doc))


def test_missing_admissible_f_entry_rejected(fib):
    doc = category_to_dict(fib)
    doc["f_symbols"] = [row for row in doc["f_symbols"] if row[:6] != [1, 1, 1, 0, 1, 1]]
    with pytest.raises(ValidationError, match="missing-F"):
        loads(json.dumps(doc))


def test_schema_version_checked(fib):
    doc = category_to_dict(fib)
    doc["schema_version"] = 2
    with pytest.raises(SchemaError, match="schema_version"):
        loads(json.dumps(doc))


@pytest.mark.parametrize("version", [True, 1.0, "1", None])
def test_schema_version_must_be_the_integer_1(fib, version):
    doc = category_to_dict(fib)
    doc["schema_version"] = version
    with pytest.raises(SchemaError, match="schema_version must be 1"):
        category_from_dict(doc)


@pytest.mark.parametrize("name", [None, 5, ["x"], {"a": 1}, True])
def test_name_must_be_a_string(fib, name):
    doc = category_to_dict(fib)
    doc["name"] = name
    with pytest.raises(SchemaError, match=re.escape(f"name must be a string, got {name!r}")):
        category_from_dict(doc)


def test_absent_name_loads_as_empty(fib):
    doc = category_to_dict(fib)
    del doc["name"]
    assert category_from_dict(doc).name == ""


def _put_number(doc, field, value):
    """Write ``value`` into the first number slot of ``field``."""
    if field == "central_charge":
        doc[field] = value
    elif field == "weights":
        doc[field][1][1] = value
    else:
        doc[field][0][-2] = value  # real part of the first entry


@pytest.mark.parametrize("field", ["f_symbols", "r_symbols", "weights", "central_charge"])
@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_finite_token_rejected(fib, field, token):
    doc = category_to_dict(fib)
    _put_number(doc, field, 1234.5)
    text = json.dumps(doc).replace("1234.5", token)
    message = f"{field}: expected a finite number, got Decimal('{token}')"
    with pytest.raises(SchemaError, match=re.escape(message)):
        loads(text)


@pytest.mark.parametrize("field", ["f_symbols", "r_symbols", "weights", "central_charge"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_non_finite_float_rejected(fib, field, value):
    doc = category_to_dict(fib)
    _put_number(doc, field, value)
    with pytest.raises(SchemaError, match=f"{field}: expected a finite number"):
        category_from_dict(doc)


# --- reports -------------------------------------------------------------------


def test_report_deterministic(fib):
    a = report_to_json(run_report(fib, tolerance=1e-9))
    b = report_to_json(run_report(fib, tolerance=1e-9))
    assert a == b


def test_report_single_check(fib):
    report = run_report(fib, checks=["pentagon"], tolerance=1e-9)
    assert list(report["checks"]) == ["pentagon"]
    assert report["checks"]["pentagon"]["pass"]
    assert report["verdict"] == "modular"


def test_report_takes_a_string_as_one_check(fib):
    assert run_report(fib, checks="pentagon") == run_report(fib, checks=["pentagon"])
    with pytest.raises(InputError, match="unknown check 'pent'"):  # not split into letters
        run_report(fib, checks="pent")


def test_report_degenerate_entry():
    data = make("pointed_zn", n=2, q_exponent=0)
    report = run_report(data)
    assert report["verdict"] == "degenerate"
    assert report["checks"]["pentagon"]["pass"]
    assert not report["checks"]["modularity"]["pass"]


def _count_calls(monkeypatch, *functions):
    """Count calls to ``functions`` through every mtcat module that binds them."""
    counts = {fn.__name__: 0 for fn in functions}
    for fn in functions:

        def counted(*args, _fn=fn, **kwargs):
            counts[_fn.__name__] += 1
            return _fn(*args, **kwargs)

        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "mtcat" and vars(mod).get(fn.__name__) is fn:
                monkeypatch.setattr(mod, fn.__name__, counted)
    return counts


def test_report_computes_each_quantity_once(fib, monkeypatch):
    # the pairing matrices of all labels are read at once: nothing runs per label
    counts = _count_calls(
        monkeypatch,
        category_data._coherence,
        quantum_dimensions,
        category_data._unit_elements,
        category_data._inverse_unit_checks,
        rigidity_scalar,
        category_data.f_inverse_unit_check,
        category_data.f_matrix,
    )
    assert all_pass(run_report(fib))
    assert counts == {
        "_coherence": 1,
        "quantum_dimensions": 1,
        "_unit_elements": 1,
        "_inverse_unit_checks": 1,
        "rigidity_scalar": 0,
        "f_inverse_unit_check": 0,
        "f_matrix": 0,
    }


@pytest.mark.parametrize("name", ["fibonacci", "su2_k5"])
def test_only_coherence_summary_builds_witnesses(catalog, monkeypatch, name):
    # the report reads no witness, so none is built; a summary builds one per identity
    data = bump_one_f_and_one_r(catalog[name])
    for identity in ("pentagon", "hexagon"):
        category_data._coherence_tables(data.ring, identity)  # the blocks: built before counting
    counts = _count_calls(
        monkeypatch, category_data._pentagon_instances, category_data._hexagon_instances
    )
    run_report(data)
    check_modular(data)
    assert counts == {"_pentagon_instances": 0, "_hexagon_instances": 0}
    summary = coherence_summary(data)
    assert counts == {"_pentagon_instances": 1, "_hexagon_instances": 2}
    assert summary["pentagon_worst"] == category_data.pentagon_residual(data)[1]
    assert summary["hexagon_inverse_worst"] == category_data.hexagon_residual(
        data, "inverse_braid")[1]


def _strict_json(text):
    """Parse ``text``, refusing the NaN and Infinity tokens that JSON does not have."""

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    return json.loads(text, parse_constant=reject)


def test_report_on_singular_fusing_matrix(fib):
    bad = fib.copy()
    for e in (0, 1):
        for f in (0, 1):
            bad.F[(1, 1, 1, 1, e, f)] = np.ones((1, 1, 1, 1), dtype=complex)
    report = run_report(bad)
    assert report["verdict"] == "incoherent"
    assert report["checks"]["rigidity"]["pass"] is False


def test_report_on_invalid_ring_fails_every_check(fib):
    ring = FusionRing(fib.ring.names, [0, 0], fib.ring.N)  # tau is not its own dual
    report = run_report(CategoryData(ring=ring, F=fib.F, R=fib.R))
    assert report["verdict"] == "incoherent"
    for name, entry in report["checks"].items():
        assert entry["residual"] is None and entry["pass"] is False, name
    assert _strict_json(report_to_json(report))["residuals"] == {"ring": None}


@pytest.mark.parametrize(
    "kind,key,nan_residuals",
    [
        ("F", (1, 1, 1, 1, 0, 0), ("pentagon", "hexagon_braid", "hexagon_inverse")),
        ("F", (0, 1, 1, 1, 1, 1), ("triangle", "pentagon")),
        ("R", (1, 1, 1), ("hexagon_braid", "hexagon_inverse", "ribbon")),
    ],
)
def test_nan_data_never_passes(fib, kind, key, nan_residuals):
    bad = fib.copy()
    table = bad.F if kind == "F" else bad.R
    table[key] = np.full(table[key].shape, np.nan, dtype=complex)
    with np.errstate(invalid="ignore"):
        rep = check_modular(bad)
        report = run_report(bad)
    assert rep.verdict == "incoherent"
    for name in nan_residuals:
        assert np.isnan(rep.residuals[name]), name
    assert report["verdict"] == "incoherent"
    assert report["checks"]["modularity"]["pass"] is False
    assert not all_pass(report)
    assert _strict_json(report_to_json(report))["verdict"] == "incoherent"


def test_report_text_renders(fib):
    text = report_to_text(run_report(fib))
    assert "verdict:  modular" in text
    assert "pentagon" in text


# --- CLI -------------------------------------------------------------------------


def test_cli_gen_validate_verify(tmp_path, capsys):
    out = tmp_path / "fib.json"
    assert main(["gen", "fibonacci", "-o", str(out)]) == 0
    assert main(["validate", str(out)]) == 0
    assert main(["verify", str(out)]) == 0
    captured = capsys.readouterr()
    assert "modular" in captured.out


def test_cli_verify_json_output(tmp_path, capsys):
    out = tmp_path / "ising.json"
    main(["gen", "ising", "-o", str(out)])
    assert main(["verify", str(out), "--json", "--checks", "pentagon,hexagon"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert set(report["checks"]) == {"pentagon", "hexagon"}


def test_cli_verify_fails_on_broken_data(tmp_path, capsys):
    path = tmp_path / "fib.json"
    main(["gen", "fibonacci", "-o", str(path)])
    doc = json.loads(path.read_text())
    for row in doc["f_symbols"]:
        if row[:6] == [1, 1, 1, 1, 0, 0]:
            row[10] += 1e-3
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    assert "incoherent" in capsys.readouterr().out


def test_cli_verify_reports_vanishing_unit_channel_element(tmp_path, capsys):
    # the fusing matrix of (tau, tau, tau, tau) stays invertible, so the file loads
    path = tmp_path / "fib.json"
    main(["gen", "fibonacci", "-o", str(path)])
    doc = json.loads(path.read_text())
    for row in doc["f_symbols"]:
        if row[:6] == [1, 1, 1, 1, 0, 0]:
            row[10:12] = [0.0, 0.0]
    path.write_text(json.dumps(doc))
    assert main(["verify", str(path)]) == 1
    text = capsys.readouterr().out
    assert "verdict:  incoherent" in text
    rows = {line.split()[0]: line.split()[1:] for line in text.splitlines() if line}
    # a null residual: NaN for the ribbon, not computed for rigidity and modularity
    for name in ("ribbon", "rigidity", "modularity"):
        assert rows[name][0] == "n/a" and rows[name][-1] == "FAIL", name
    # the dims/twists table: tau's dimension and twist are NaN
    table = text[text.index("fp_dim"):]
    assert "nan" not in table and rows["1"][0] == "n/a" and rows["1"][-1] == "n/a"
    assert main(["verify", str(path), "--json"]) == 1
    report = _strict_json(capsys.readouterr().out)
    assert report["verdict"] == "incoherent"
    assert report["checks"]["rigidity"] == {"residual": None, "threshold": 1e-9, "pass": False}
    assert report["matrices"]["dims"][1][0] is None  # NaN


def test_cli_verify_does_not_import_numpy_ma(tmp_path):
    # numpy.ma costs 10-13 ms of every CLI process, and np.unique imports it;
    # at level 7 the pentagon tables are cut into blocks
    path = tmp_path / "su2_k7.json"
    main(["gen", "su2_level", "--level", "7", "-o", str(path)])
    code = (
        "import sys\n"
        "from mtcat.cli import main\n"
        f"status = main(['verify', {str(path)!r}, '--json'])\n"
        "print(status, 'numpy.ma' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cli_verify_does_not_import_the_catalog(tmp_path):
    # only `mtcat gen` needs the catalog, whose import costs every CLI process
    path = tmp_path / "fib.json"
    save(make("fibonacci"), path)
    code = (
        "import sys\n"
        "from mtcat.cli import main\n"
        f"status = main(['verify', {str(path)!r}, '--json'])\n"
        "print(status, 'mtcat.catalog' in sys.modules, 'fractions' in sys.modules)\n"
    )
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "0 False False"


def _cli(*args):
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-m", "mtcat.cli", *map(str, args)],
        env=env, capture_output=True, text=True, timeout=120,
    )


def _one_error_line(proc, fragment):
    assert proc.returncode == 2, proc.stderr[-2000:]
    assert "Traceback" not in proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ") and fragment in lines[0], lines


@pytest.mark.parametrize("tol", ["inf", "nan", "-inf", "0", "-1e-9"])
def test_cli_verify_rejects_a_bad_tolerance(tmp_path, catalog, tol):
    path = tmp_path / "bumped.json"
    save(bump_one_f_and_one_r(catalog["su2_k3"]), path)
    proc = _cli("verify", path, "--json", f"--tol={tol}")
    _one_error_line(proc, "tolerance must be a finite positive number")
    assert proc.stdout == ""


def test_cli_gen_to_a_missing_directory_is_an_input_error(tmp_path):
    out = tmp_path / "missing" / "x.json"
    proc = _cli("gen", "trivial", "-o", out)
    _one_error_line(proc, f"cannot write {out}: ")
    assert "No such file or directory" in proc.stderr and not out.parent.exists()


def test_cli_gauge_to_a_directory_is_an_input_error(tmp_path):
    path = tmp_path / "fib.json"
    save(make("fibonacci"), path)
    proc = _cli("gauge", path, "--seed", "1", "-o", tmp_path)
    _one_error_line(proc, f"cannot write {tmp_path}: ")
    assert "Is a directory" in proc.stderr and proc.stdout == ""


def test_save_to_an_unwritable_path_raises_input_error(fib, tmp_path):
    with pytest.raises(InputError, match="cannot write"):
        save(fib, tmp_path)


def test_save_of_data_it_cannot_write_leaves_the_file_as_it_was(fib, tmp_path):
    path = tmp_path / "fib.json"
    save(fib, path)
    before = path.read_bytes()
    bad = fib.copy()
    bad.F[(1, 1, 1, 1, 0, 0)] = np.ones((2, 2, 2, 2), dtype=complex)
    with pytest.raises(InputError, match="admissible shapes"):
        save(bad, path)
    assert path.read_bytes() == before


@pytest.mark.parametrize("tol", [float("inf"), float("nan"), 0.0, -1.0, "1e-9"])
def test_run_report_rejects_a_bad_tolerance(fib, tol):
    with pytest.raises(InputError, match="tolerance must be a finite positive number"):
        run_report(fib, tolerance=tol)


@pytest.mark.parametrize("flag", [True, False])
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda data, flag: run_report(data, tolerance=flag), "tolerance must be a finite"),
        (lambda data, flag: random_gauge(data.ring, flag), "gauge seed must be a non-negative"),
    ],
    ids=["run_report_tolerance", "random_gauge_seed"],
)
def test_a_bool_is_not_taken_as_a_number(fib, call, message, flag):
    with pytest.raises(InputError, match=f"{message}.*got {flag}"):
        call(fib, flag)


@pytest.mark.parametrize("checks", ["", ",", " , "])
def test_cli_verify_rejects_an_empty_check_selection(tmp_path, catalog, checks):
    path = tmp_path / "bumped.json"
    save(bump_one_f_and_one_r(catalog["su2_k3"]), path)
    proc = _cli("verify", path, "--json", f"--checks={checks}")
    _one_error_line(proc, "no check selected")
    assert proc.stdout == ""


def test_run_report_rejects_an_empty_check_selection(fib):
    with pytest.raises(InputError, match="no check selected"):
        run_report(fib, checks=[])


def test_cli_gauge_rejects_a_negative_seed(tmp_path):
    src, dst = tmp_path / "fib.json", tmp_path / "out.json"
    main(["gen", "fibonacci", "-o", str(src)])
    _one_error_line(_cli("gauge", src, "--seed", "-1", "-o", dst), "non-negative integer, got -1")
    assert not dst.exists()


def test_cli_exit_code_2_on_garbage(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{')")
    assert main(["verify", str(path)]) == 2
    assert main(["validate", str(path)]) == 2
    assert main(["dims", str(tmp_path / "missing.json")]) == 2


def test_cli_gen_offers_every_family():
    parser = build_parser()
    for family in FAMILIES:
        assert parser.parse_args(["gen", family, "-o", "x.json"]).family == family


def test_cli_gen_rejects_bad_params(capsys, tmp_path):
    out = tmp_path / "x.json"
    assert main(["gen", "su2_level", "--level", "99", "-o", str(out)]) == 2
    assert main(["gen", "pointed_zn", "--n", "3", "--q", "1", "-o", str(out)]) == 2


def test_cli_dims_smatrix_verlinde(tmp_path, capsys):
    out = tmp_path / "su2k2.json"
    main(["gen", "su2_level", "--level", "2", "-o", str(out)])
    assert main(["dims", str(out)]) == 0
    captured = capsys.readouterr()
    assert "-1.4142135624" in captured.out  # signed dimension of the spin-1/2 label
    assert main(["smatrix", str(out), "--normalized"]) == 0
    capsys.readouterr()
    assert main(["verlinde", str(out)]) == 0
    captured = capsys.readouterr()
    assert "N[1,1,0] = 1" in captured.out


def test_cli_gauge_round(tmp_path, capsys):
    src = tmp_path / "fib.json"
    dst = tmp_path / "fib_g.json"
    main(["gen", "fibonacci", "-o", str(src)])
    assert main(["gauge", str(src), "--seed", "11", "-o", str(dst)]) == 0
    assert main(["verify", str(dst)]) == 0


def test_cli_pointed_gen_verdicts(tmp_path, capsys):
    mod = tmp_path / "z5.json"
    deg = tmp_path / "z5deg.json"
    main(["gen", "pointed_zn", "--n", "5", "--q", "2", "-o", str(mod)])
    main(["gen", "pointed_zn", "--n", "5", "--q", "0", "-o", str(deg)])
    assert main(["verify", str(mod)]) == 0
    capsys.readouterr()
    assert main(["verify", str(deg)]) == 1  # modularity check fails: degenerate
    assert "degenerate" in capsys.readouterr().out


def test_reports_on_finite_data_raise_no_runtime_warning(catalog):
    bases = list(catalog.values()) + [make("pointed_zn", n=4, q_exponent=q) for q in (0, 2)]
    datas = bases + [gauge_transform(d, random_gauge(d.ring, 0)) for d in bases]
    assert len(datas) == 36
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for data in datas:
            run_report(data)


def test_editing_a_reports_fp_dims_leaves_the_next_report_unchanged(catalog):
    data = catalog["su2_k3"]
    first = report_to_json(run_report(data))
    check_modular(data).fp_dims[:] = -1.0
    assert report_to_json(run_report(data)) == first
    assert (check_modular(data).fp_dims > 0).all()
