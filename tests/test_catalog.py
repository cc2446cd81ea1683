import warnings

import numpy as np
import pytest
import reference_catalog as reference
from conftest import CATALOG

from mtcat import (
    CatalogSpec,
    InputError,
    check_modular,
    generate,
    make,
    q_racah_6j,
    quantum_dimensions,
    twist,
    validate_ring,
    validate_symbols,
)
from mtcat import io
from mtcat.catalog import MAX_LEVEL, _quantum_integers, _su2_level
from mtcat.category_data import coherence_summary
from mtcat.fusion_ring import fp_dimensions
from mtcat.ribbon_modular import ribbon_residual, twist_weight_residual

PHI = (1 + np.sqrt(5)) / 2


def test_unknown_family_rejected():
    with pytest.raises(InputError):
        generate(CatalogSpec(family="unicorn"))


def test_su2_level_range_checked():
    with pytest.raises(InputError):
        make("su2_level", level=13)
    with pytest.raises(InputError):
        make("su2_level", level=-1)


def test_pointed_parameter_domain():
    with pytest.raises(InputError):
        make("pointed_zn", n=0)
    with pytest.raises(InputError):
        make("pointed_zn", n=3, q_exponent=1)  # odd product: data cannot close
    make("pointed_zn", n=3, q_exponent=2)
    make("pointed_zn", n=4, q_exponent=1)


def test_su2_k0_is_trivial():
    data = make("su2_level", level=0)
    assert data.ring.size == 1
    assert check_modular(data).verdict == "modular"


def test_su2_k1_example():
    data = make("su2_level", level=1)
    assert data.ring.names == ["0", "1"]
    assert fp_dimensions(data.ring) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert twist(data, 1) == pytest.approx(1j, abs=1e-12)  # h = 1/4
    assert data.weights[1] == pytest.approx(0.25)


def test_su2_k2_has_ising_fusion():
    data = make("su2_level", level=2)
    assert data.ring.size == 3
    ising = make("ising")
    assert np.array_equal(data.ring.N, ising.ring.N)
    assert fp_dimensions(data.ring) == pytest.approx([1.0, np.sqrt(2), 1.0], abs=1e-12)
    # same fusion, different braided data: the level-2 twist sits at h = 3/16
    assert twist(data, 1) == pytest.approx(np.exp(2j * np.pi * 3 / 16), abs=1e-12)


def test_q_racah_values():
    assert q_racah_6j(0, 0, 0, 0, 0, 0, 0) == pytest.approx(1.0)
    # unit-channel element of the level-2 sigma^4 fusing matrix
    assert q_racah_6j(2, 1, 1, 1, 1, 0, 0) == pytest.approx(-1 / np.sqrt(2), abs=1e-12)
    assert abs(q_racah_6j(2, 1, 1, 1, 1, 0, 2)) == pytest.approx(1 / np.sqrt(2), abs=1e-12)
    # level-3 integer-spin sector reproduces the golden-ratio element
    assert abs(q_racah_6j(3, 2, 2, 2, 2, 0, 0)) == pytest.approx(1 / PHI, abs=1e-12)


def test_q_racah_inadmissible_triad():
    with pytest.raises(InputError):
        q_racah_6j(2, 1, 1, 1, 1, 1, 0)  # (1,1,1) violates parity
    with pytest.raises(InputError):
        q_racah_6j(1, 1, 1, 1, 1, 2, 0)  # label above the level


def test_generated_data_is_complete_and_valid(catalog):
    for name, data in catalog.items():
        assert validate_ring(data.ring).ok, name
        assert validate_symbols(data) == [], name
        assert data.weights is not None and data.central_charge is not None, name


def test_coherence_gate_tight(catalog):
    # the generators' own acceptance gate: far tighter than the 1e-7 verdicts
    for name, data in catalog.items():
        summary = coherence_summary(data)
        for key in ("pentagon", "hexagon_braid", "hexagon_inverse", "triangle"):
            assert summary[key] < 1e-10, (name, key)
        assert ribbon_residual(data) < 1e-10, name


def test_weights_match_twists_catalogwide(catalog):
    for name, data in catalog.items():
        assert twist_weight_residual(data) < 1e-9, name


def test_su2_modular_up_to_level_8(catalog):
    for k in range(1, 9):
        assert check_modular(catalog[f"su2_k{k}"]).verdict == "modular", k


def test_pointed_trivial_form_degenerate():
    for n in (2, 3, 4, 5, 6):
        data = make("pointed_zn", n=n, q_exponent=0)
        assert check_modular(data).verdict == "degenerate", n


def test_semion_dimensions(semion):
    d = quantum_dimensions(semion)
    assert d[1] == pytest.approx(-1.0, abs=1e-12)
    assert fp_dimensions(semion.ring) == pytest.approx([1.0, 1.0], abs=1e-12)
    assert check_modular(semion).verdict == "modular"


def test_su2_signed_dimensions(catalog):
    # half-integer spins carry the sign of their self-pairing; magnitudes are
    # the quantum integers [jj+1]
    data = catalog["su2_k4"]
    d = quantum_dimensions(data)
    want = np.array([1.0, -np.sqrt(3), 2.0, -np.sqrt(3), 1.0])
    assert np.abs(d - want).max() < 1e-9
    assert np.abs(np.abs(d) - fp_dimensions(data.ring)).max() < 1e-9


@pytest.mark.slow
def test_su2_level_12_coherence():
    data = make("su2_level", level=12)
    summary = coherence_summary(data)
    for key in ("pentagon", "hexagon_braid", "hexagon_inverse", "triangle"):
        assert summary[key] < 1e-7, key
    assert ribbon_residual(data) < 1e-7
    assert twist_weight_residual(data) < 1e-9
    assert check_modular(data).verdict == "modular"


# -- the batched generator against the per-key reference -----------------------


def _assert_bit_identical(got: dict, want: dict):
    """Same keys in the same order, and the same bits in every one-entry block."""
    assert list(got) == list(want)
    bits = [np.concatenate([b.ravel() for b in t.values()]).view(np.uint64) for t in (got, want)]
    differ = np.flatnonzero(bits[0] != bits[1])
    assert differ.size == 0, f"{differ.size} words differ, first in {list(got)[differ[0] // 2]}"


@pytest.mark.parametrize(
    "family, params",
    [(family, kw) for _, family, kw in CATALOG]
    + [("su2_level", {"level": k}) for k in (0, 9, 10, 11, 12)],
    ids=[name for name, _, _ in CATALOG] + [f"su2_k{k}" for k in (0, 9, 10, 11, 12)],
)
def test_generated_file_matches_reference(family, params):
    got, want = make(family, **params), reference.make(family, **params)
    assert io.dumps(got).splitlines() == io.dumps(want).splitlines()  # a short diff on failure
    assert list(got.F) == list(want.F) and list(got.R) == list(want.R)


@pytest.mark.slow
def test_su2_level_13_f_bit_identical():
    got, want = _su2_level(13), reference.su2_level(13)
    _assert_bit_identical(got.F, want.F)
    _assert_bit_identical(got.R, want.R)


def test_su2_level_14_sampled_keys_bit_identical():
    data = _su2_level(14)
    keys = [key for key in data.F if 0 not in key[:3]]
    rng = np.random.default_rng(14)
    for i in rng.choice(len(keys), size=2000, replace=False):
        key = keys[i]
        want = np.array(reference.q_racah_6j(14, *key)).tobytes()
        assert data.F[key].tobytes() == want, key
        assert np.array(q_racah_6j(14, *key)).tobytes() == want, key


@pytest.mark.parametrize(
    "params",
    [
        {"family": "su2_level", "level": True},
        {"family": "su2_level", "level": 2.0},
        {"family": "su2_level", "level": "3"},
        {"family": "su2_level", "level": np.int64(3)},
        {"family": "pointed_zn", "n": 4.0},
        {"family": "pointed_zn", "n": True},
        {"family": "pointed_zn", "n": 3, "q_exponent": 2.0},
        {"family": "pointed_zn", "n": 4, "q_exponent": False},
    ],
)
def test_spec_parameters_must_be_ints(params):
    with pytest.raises(InputError, match="must be an integer"):
        make(**params)


def test_generation_raises_no_runtime_warning():
    # the kernel's z loop touches only the keys whose sum has a term there
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        for k in range(MAX_LEVEL + 1):
            make("su2_level", level=k)
        for _, family, kw in CATALOG:
            make(family, **kw)


@pytest.mark.parametrize("k", range(MAX_LEVEL + 1))
def test_recoupling_denominators_stay_nonzero(k):
    # why the recoupling sum needs no vanishing-denominator check: every
    # factorial index of a denominator lies in 0..k, where [n]! >= 1
    assert _quantum_integers(k).fac[: k + 1].min() >= 1.0
    a, b, c, d, e, f = np.array(list(_su2_level(k).F)).T
    lo = [(a + b + f) // 2, (f + c + d) // 2, (b + c + e) // 2, (a + e + d) // 2]
    hi = [(a + b + c + d) // 2, (a + f + c + e) // 2, (b + f + d + e) // 2]
    start, stop = np.max(lo, axis=0), np.min(hi, axis=0)
    assert (start <= stop).all()
    assert max((stop - x).max() for x in lo) <= k
    assert max((x - start).max() for x in hi) <= k
