import warnings

import numpy as np
import pytest

from mtcat import (
    InputError,
    WeightsInconsistent,
    check_modular,
    gauge_transform,
    make,
    monodromy,
    quantum_dimension,
    quantum_dimensions,
    random_gauge,
    ribbon_residual,
    run_report,
    s_matrix_balanced,
    s_matrix_unnormalized,
    t_matrix,
    twist,
    verlinde_coefficients,
)
from mtcat.fusion_ring import fp_dimensions
from mtcat.ribbon_modular import DET_TOL, _s_margin

import reference_coherence as reference
from conftest import CATALOG, bump_one_f_and_one_r, random_rep_a4_data

PHI = (1 + np.sqrt(5)) / 2


# --- dimensions --------------------------------------------------------------


def test_quantum_dimension_values(fib, ising, semion):
    assert quantum_dimension(make("trivial"), 0) == pytest.approx(1.0)
    assert quantum_dimension(fib, "tau") == pytest.approx(PHI, abs=1e-9)
    assert quantum_dimension(ising, "sigma") == pytest.approx(np.sqrt(2), abs=1e-9)
    # pointed Z2 with odd form exponent: categorical dimension is exactly -1
    # while the Perron dimension stays 1
    d = quantum_dimension(semion, 1)
    assert d == pytest.approx(-1.0, abs=1e-12)
    assert fp_dimensions(semion.ring)[1] == pytest.approx(1.0, abs=1e-12)


def test_dimension_homomorphism(catalog):
    for name, data in catalog.items():
        d = quantum_dimensions(data)
        prod = np.einsum("abc,c->ab", data.ring.N, d)
        assert np.abs(np.outer(d, d) - prod).max() < 1e-9, name


def test_dims_match_perron_up_to_sign(catalog):
    for name, data in catalog.items():
        d = quantum_dimensions(data)
        fp = fp_dimensions(data.ring)
        assert np.abs(np.abs(d) - fp).max() < 1e-9, name


# --- twists ------------------------------------------------------------------


def test_twist_values(fib, ising):
    assert twist(make("trivial"), 0) == pytest.approx(1.0)
    assert twist(fib, "tau") == pytest.approx(np.exp(4j * np.pi / 5), abs=1e-12)
    assert twist(ising, "sigma") == pytest.approx(np.exp(1j * np.pi / 8), abs=1e-12)
    # consistent with the stored weight h_sigma = 1/16
    assert twist(ising, 1) == pytest.approx(np.exp(2j * np.pi / 16), abs=1e-12)


def test_twist_unit_is_one(catalog):
    for name, data in catalog.items():
        assert twist(data, 0) == pytest.approx(1.0, abs=1e-12), name


def test_twist_weight_mismatch_raises(fib):
    bad = fib.copy()
    bad.weights = np.array([0.0, 0.3])
    with pytest.raises(WeightsInconsistent):
        twist(bad, 1)


def test_su2_twists_match_weights(catalog):
    for k in range(1, 9):
        data = catalog[f"su2_k{k}"]
        th = np.array([twist(data, a) for a in range(data.ring.size)])
        want = np.exp(2j * np.pi * data.weights)
        assert np.abs(th - want).max() < 1e-9, k


# --- monodromy and balancing --------------------------------------------------


def test_monodromy_with_unit_is_identity(catalog):
    for name, data in catalog.items():
        for a in range(data.ring.size):
            M = monodromy(data, 0, a, a)
            assert np.abs(M - np.eye(M.shape[0])).max() < 1e-12, name


def test_monodromy_fibonacci(fib):
    assert monodromy(fib, 1, 1, 0)[0, 0] == pytest.approx(np.exp(-8j * np.pi / 5))
    assert monodromy(fib, 1, 1, 1)[0, 0] == pytest.approx(np.exp(6j * np.pi / 5))


def test_monodromy_inadmissible_channel(fib):
    with pytest.raises(InputError):
        monodromy(fib, 0, 0, 1)


def test_ribbon_residual_clean_and_perturbed(fib, catalog):
    for name, data in catalog.items():
        assert ribbon_residual(data) < 1e-12, name
    assert ribbon_residual(fib, twists=np.array([1.0, 1.0])) >= 0.5


def test_array_helpers_match_channel_loops(catalog):
    # the random Rep(A4) data has a 2 x 2 monodromy block on the channel (3, 3, 3)
    datas = [random_rep_a4_data(7)]
    for data in catalog.values():
        datas += [data, bump_one_f_and_one_r(data)]
    for data in datas:
        want = reference.modular_loops(data)
        rep = check_modular(data)
        got = {
            "twists": rep.twists,
            "ribbon": rep.residuals["ribbon"],
            "s_trace": rep.s_tilde.entries,
            "s_balanced": s_matrix_balanced(data).entries,
        }
        assert ribbon_residual(data) == got["ribbon"], data.name
        for key, value in want.items():
            assert np.allclose(got[key], value, rtol=1e-12, atol=1e-15), (data.name, key)


def test_ribbon_reads_multiplicity_blocks():
    # with unit twists and identity braiding elsewhere, only the 2 x 2 block is off balance
    data = random_rep_a4_data(7)
    for key, block in data.R.items():
        if key != (3, 3, 3):
            data.R[key] = np.eye(len(block), dtype=complex)
    M = data.R[(3, 3, 3)] @ data.R[(3, 3, 3)]
    want = np.abs(np.eye(2) - M).max()
    assert ribbon_residual(data, twists=np.ones(4)) == pytest.approx(want, rel=1e-12)


# --- S and T matrices ----------------------------------------------------------


def test_s_matrix_values(fib, ising):
    want_fib = np.array([[1, PHI], [PHI, -1]])
    assert np.abs(s_matrix_unnormalized(fib).entries - want_fib).max() < 1e-10
    r2 = np.sqrt(2)
    want_ising = np.array([[1, r2, 1], [r2, 0, -r2], [1, -r2, 1]])
    assert np.abs(s_matrix_unnormalized(ising).entries - want_ising).max() < 1e-10


def test_s_matrix_trivial_braiding_is_singular():
    data = make("pointed_zn", n=2, q_exponent=0)
    S = s_matrix_unnormalized(data).entries
    assert np.abs(S - np.ones((2, 2))).max() < 1e-12
    assert abs(np.linalg.det(S)) < 1e-12


def test_two_route_s_matrix_agreement(catalog):
    for name, data in catalog.items():
        a = s_matrix_unnormalized(data).entries
        b = s_matrix_balanced(data).entries
        assert np.abs(a - b).max() < 1e-9, name


def test_s_matrix_structure(catalog):
    for name, data in catalog.items():
        S = s_matrix_unnormalized(data).entries
        d = quantum_dimensions(data)
        assert np.abs(S - S.T).max() < 1e-9, name
        assert np.abs(S[0] - d).max() < 1e-9, name
        # conjugation symmetry: S[a, dual(b)] = conj(S[a, b])
        assert np.abs(S[:, data.ring.dual] - S.conj()).max() < 1e-9, name


def test_t_matrix_values(ising, fib):
    t = t_matrix(ising)
    phase = np.exp(-2j * np.pi * 0.5 / 24)
    want = phase * np.array([1.0, np.exp(1j * np.pi / 8), -1.0])
    assert np.abs(t - want).max() < 1e-12
    t_fib = t_matrix(fib)
    assert t_fib[0] == pytest.approx(np.exp(-2j * np.pi * 14 / (5 * 24)))


def test_t_matrix_needs_central_charge(fib):
    data = fib.copy()
    data.central_charge = None
    with pytest.raises(InputError):
        t_matrix(data)


# --- check_modular -------------------------------------------------------------


def test_verdicts(catalog):
    assert check_modular(make("trivial")).verdict == "modular"
    for name in ("fibonacci", "ising", "pointed_z3", "pointed_z5") + tuple(
        f"su2_k{k}" for k in range(1, 9)
    ):
        assert check_modular(catalog[name]).verdict == "modular", name
    assert check_modular(make("pointed_zn", n=2, q_exponent=0)).verdict == "degenerate"
    assert check_modular(make("pointed_zn", n=2, q_exponent=2)).verdict == "degenerate"


def test_nondegeneracy_margin_at_rank_169():
    # the size of S~ for su(2)_12 x su(2)_12: rank 169 and |S~| / sqrt(m) = D = 141, where a
    # determinant and a scale of |S~| / sqrt(m) to the power m both overflow
    q, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((169, 169)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        margin = _s_margin(141 * q)
    assert margin == pytest.approx(1, abs=1e-12) and margin >= DET_TOL


@pytest.mark.parametrize("name", [name for name, _, _ in CATALOG] + ["pointed_z4_q2"])
def test_modularity_entry_is_the_verdict(catalog, name):
    # the report's modularity entry passes exactly for modular data, and for coherent data
    # that is the S~ margin at DET_TOL or above
    base = catalog.get(name) or make("pointed_zn", n=4, q_exponent=2)
    for data in (base, gauge_transform(base, random_gauge(base.ring, 0)),
                 bump_one_f_and_one_r(base)):
        report = run_report(data)
        entry = report["checks"]["modularity"]
        assert entry["pass"] == (report["verdict"] == "modular")
        if report["verdict"] != "incoherent":
            assert entry["pass"] == (entry["residual"] >= DET_TOL)
    assert run_report(base)["verdict"] == ("degenerate" if name == "pointed_z4_q2" else "modular")


def test_incoherent_verdict(fib):
    bad = fib.copy()
    bad.F[(1, 1, 1, 1, 0, 0)] = bad.F[(1, 1, 1, 1, 0, 0)] + 1e-3
    rep = check_modular(bad)
    assert rep.verdict == "incoherent"


def test_report_invariants(catalog):
    for name, data in catalog.items():
        rep = check_modular(data)
        S = rep.s_tilde.entries
        assert np.abs(S - S.T).max() < 1e-9
        assert np.abs(S[0] - rep.dims).max() < 1e-9
        if rep.verdict == "modular":
            assert abs(np.linalg.det(rep.s_norm.entries)) > 1e-8


def test_sl2z_relations_ising(ising):
    rep = check_modular(ising)
    s = rep.s_norm.entries
    C = np.eye(3)  # all labels self-dual
    assert np.abs(s @ s - C).max() < 1e-9
    th = rep.twists
    D = np.sqrt(rep.global_dim_sq)
    p_plus = rep.gauss_sums[0]
    st = s * th[None, :]
    assert np.abs(st @ st @ st - (p_plus / D) * (s @ s)).max() < 1e-9
    # Gauss-sum phase encodes the central charge: arg(p+) = 2 pi (1/2) / 8
    assert np.angle(p_plus) == pytest.approx(2 * np.pi * 0.5 / 8, abs=1e-9)
    assert abs(p_plus * rep.gauss_sums[1]) == pytest.approx(rep.global_dim_sq, abs=1e-9)


def test_modular_report_residuals_small(catalog):
    for name, data in catalog.items():
        rep = check_modular(data)
        assert rep.verdict == "modular", name
        for key, value in rep.residuals.items():
            assert value < 1e-9, (name, key, value)


def test_gauss_sum_charge_consistency(catalog):
    for name, data in catalog.items():
        rep = check_modular(data)
        p_plus = rep.gauss_sums[0]
        want = np.exp(2j * np.pi * data.central_charge / 8)
        assert abs(p_plus / abs(p_plus) - want) < 1e-9, name


def test_verlinde_round_trip_all_modular(catalog):
    for name, data in catalog.items():
        rep = check_modular(data)
        out = verlinde_coefficients(rep.s_norm)
        assert out.max_error < 1e-6, name
        assert np.array_equal(out.rounded, data.ring.N), name
