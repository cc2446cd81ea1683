"""Dimensions, twists, monodromies, S/T matrices and the modularity verdict.

The categorical dimension of a label is the reciprocal of its unit-channel
fusing element; it can carry a sign (or phase) relative to the positive
Perron dimension, and every formula here uses the signed value consistently.
Twists are computed from the braiding alone via the quantum trace; supplied
conformal weights are a cross-check, never an input to the computation.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .category_data import CategoryData, coherence_summary, rigidity_scalar
from .errors import InputError, WeightsInconsistent
from .fusion_ring import SMatrix, fp_dimensions, validate_ring

COHERENCE_TOL = 1e-7  # verdict threshold; loose enough for level-8 accumulation
DET_TOL = 1e-8  # determinant threshold, relative to the matrix scale


def quantum_dimension(data: CategoryData, a) -> complex:
    """1 / (unit-channel fusing element); the trace of the identity on a."""
    return 1.0 / rigidity_scalar(data, a)


def quantum_dimensions(data: CategoryData) -> np.ndarray:
    return np.array([quantum_dimension(data, a) for a in range(data.ring.size)])


def monodromy(data: CategoryData, a, b, c) -> np.ndarray:
    """Double-braiding block R[b,a,c] @ R[a,b,c] on the channel c."""
    ring = data.ring
    a, b, c = (ring.index(x) for x in (a, b, c))
    if not ring.N[a, b, c]:
        raise InputError(f"({a},{b}) has no channel {c}")
    return data.r_block(b, a, c) @ data.r_block(a, b, c)


def twist(data: CategoryData, a, check_weights: bool = True, tol: float = 1e-9) -> complex:
    """Ribbon twist of a label from the braiding data.

    theta_a = (1/d_a) sum_c d_c tr R[a,a,c]: the quantum trace of the
    self-braiding divided by the dimension.  When weights are present the
    value is checked against exp(2 i pi h_a); a mismatch beyond ``tol``
    raises, since it means the file's weights belong to a different braiding.
    """
    ring = data.ring
    a = ring.index(a)
    value = _twists(data)[a]
    if check_weights and data.weights is not None:
        expect = np.exp(2j * np.pi * data.weights[a])
        if abs(value - expect) >= tol:
            raise WeightsInconsistent(
                f"twist of label {a} is {value:.12g} but weights give {expect:.12g}"
            )
    return complex(value)


def _twists(data: CategoryData, dims: np.ndarray | None = None) -> np.ndarray:
    if dims is None:
        dims = quantum_dimensions(data)
    ring = data.ring
    th = np.zeros(ring.size, dtype=complex)
    for a in range(ring.size):
        total = 0.0 + 0.0j
        for c in ring.channels(a, a):
            total += dims[c] * np.trace(data.r_block(a, a, int(c)))
        th[a] = total / dims[a]
    return th


def twist_weight_residual(data: CategoryData) -> float:
    """max_a |theta_a - exp(2 i pi h_a)|, or 0.0 when no weights are stored."""
    if data.weights is None:
        return 0.0
    th = _twists(data)
    return float(np.abs(th - np.exp(2j * np.pi * data.weights)).max())


def ribbon_residual(data: CategoryData, twists: np.ndarray | None = None) -> float:
    """Balancing check: max over channels of ||theta_c I - theta_a theta_b M||.

    ``twists`` overrides the braiding-derived values (useful for probing how
    far a wrong twist assignment is from balancing).
    """
    ring = data.ring
    dims = quantum_dimensions(data)
    th = _twists(data, dims) if twists is None else np.asarray(twists, dtype=complex)
    worst = 0.0
    for a in range(ring.size):
        for b in range(ring.size):
            for c in ring.channels(a, b):
                c = int(c)
                block = th[a] * th[b] * monodromy(data, a, b, c)
                dev = np.abs(th[c] * np.eye(block.shape[0]) - block).max()
                worst = np.maximum(worst, dev)  # unlike max(), keeps a NaN
    return float(worst)


def s_matrix_unnormalized(data: CategoryData) -> SMatrix:
    """Matrix of quantum traces of the double braiding.

    S~[a,b] = sum_c d_c tr(monodromy block on c); symmetric, with unit row
    equal to the dimension vector.
    """
    ring = data.ring
    dims = quantum_dimensions(data)
    m = ring.size
    S = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            total = 0.0 + 0.0j
            for c in ring.channels(a, b):
                total += dims[int(c)] * np.trace(monodromy(data, a, b, int(c)))
            S[a, b] = total
    return SMatrix(S, "unnormalized")


def s_matrix_balanced(data: CategoryData) -> SMatrix:
    """Same matrix through the twists: S~[a,b] = sum_c N d_c theta_c/(theta_a theta_b).

    Its entrywise agreement with the trace route is the package's working
    oracle for the identity expressing the modular transformation matrix
    through braiding and fusing data.
    """
    ring = data.ring
    dims = quantum_dimensions(data)
    th = _twists(data, dims)
    m = ring.size
    S = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            total = 0.0 + 0.0j
            for c in ring.channels(a, b):
                c = int(c)
                total += ring.N[a, b, c] * dims[c] * th[c]
            S[a, b] = total / (th[a] * th[b])
    return SMatrix(S, "unnormalized")


def t_matrix(data: CategoryData) -> np.ndarray:
    """Diagonal of the T-matrix: t[a] = theta_a exp(-2 i pi c / 24)."""
    if data.central_charge is None:
        raise InputError("T-matrix needs a central charge")
    th = _twists(data)
    return th * np.exp(-2j * np.pi * data.central_charge / 24.0)


@dataclass
class ModularReport:
    """Everything check_modular computes, plus the verdict."""

    verdict: str  # "modular" | "degenerate" | "incoherent"
    dims: np.ndarray
    fp_dims: np.ndarray
    twists: np.ndarray
    s_tilde: SMatrix
    s_norm: SMatrix | None
    t_diag: np.ndarray | None
    global_dim_sq: float
    gauss_sums: tuple[complex, complex]
    residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "modular"


def check_modular(data: CategoryData, coherence_tol: float = COHERENCE_TOL) -> ModularReport:
    """Full pipeline: coherence residuals, modular data, verdict.

    The verdict is ``incoherent`` when any coherence residual (ring
    validation counts as one) reaches ``coherence_tol``; otherwise
    ``degenerate`` when det(S~) vanishes relative to the matrix scale;
    otherwise ``modular``.  When modular and a central charge is present,
    the S/T relations are evaluated and recorded as residuals (they inform
    the report, not the verdict).
    """
    ring = data.ring
    residuals: dict[str, float] = {}

    ring_report = validate_ring(ring)
    residuals["ring"] = 0.0 if ring_report.ok else float("inf")

    if ring_report.ok:
        summary = coherence_summary(data)
        residuals["pentagon"] = summary["pentagon"]
        residuals["hexagon_braid"] = summary["hexagon_braid"]
        residuals["hexagon_inverse"] = summary["hexagon_inverse"]
        residuals["triangle"] = summary["triangle"]
        residuals["ribbon"] = ribbon_residual(data)
        residuals["twist_weights"] = twist_weight_residual(data)
    coherent = ring_report.ok and all(
        residuals[k] < coherence_tol
        for k in ("pentagon", "hexagon_braid", "hexagon_inverse", "triangle", "ribbon",
                  "twist_weights")
    )

    dims = quantum_dimensions(data) if ring_report.ok else np.array([])
    fp = fp_dimensions(ring) if ring_report.ok else np.array([])
    th = _twists(data, dims) if ring_report.ok else np.array([])

    if not coherent:
        s_tilde = s_matrix_unnormalized(data) if ring_report.ok else SMatrix(np.zeros((0, 0)))
        return ModularReport(
            verdict="incoherent",
            dims=dims,
            fp_dims=fp,
            twists=th,
            s_tilde=s_tilde,
            s_norm=None,
            t_diag=None,
            global_dim_sq=float(np.real(np.sum(dims**2))) if dims.size else 0.0,
            gauss_sums=(0j, 0j),
            residuals=residuals,
        )

    s_tilde = s_matrix_unnormalized(data)
    s_balanced = s_matrix_balanced(data)
    residuals["smatrix_two_route"] = float(
        np.abs(s_tilde.entries - s_balanced.entries).max()
    )
    residuals["smatrix_symmetric"] = float(
        np.abs(s_tilde.entries - s_tilde.entries.T).max()
    )

    dim_sq = complex(np.sum(dims**2))
    p_plus = complex(np.sum(dims**2 * th))
    p_minus = complex(np.sum(dims**2 / th))

    m = ring.size
    scale = (np.linalg.norm(s_tilde.entries) / np.sqrt(m)) ** m
    det = np.linalg.det(s_tilde.entries)
    if abs(det) < DET_TOL * max(scale, 1e-300):
        return ModularReport(
            verdict="degenerate",
            dims=dims,
            fp_dims=fp,
            twists=th,
            s_tilde=s_tilde,
            s_norm=None,
            t_diag=None if data.central_charge is None else t_matrix(data),
            global_dim_sq=float(dim_sq.real),
            gauss_sums=(p_plus, p_minus),
            residuals=residuals,
        )

    # normalized S and the relations it should satisfy
    if abs(dim_sq.imag) > 1e-9 * max(abs(dim_sq), 1.0) or dim_sq.real <= 0:
        residuals["global_dim_positive"] = float("inf")
        s_norm = None
        t_diag = None
    else:
        residuals["global_dim_positive"] = float(abs(dim_sq.imag))
        D = float(np.sqrt(dim_sq.real))
        s = s_tilde.entries / D
        s_norm = SMatrix(s, "normalized")
        charge_perm = np.zeros((m, m))
        charge_perm[np.arange(m), ring.dual] = 1.0
        residuals["s_squared_charge"] = float(np.abs(s @ s - charge_perm).max())
        residuals["gauss_product"] = float(abs(abs(p_plus * p_minus) - dim_sq.real))
        # (st)^3 = (p+/D) s^2 C with t the bare twists; the extra charge
        # conjugation reflects this package's dual-index placement in S~
        # (for all-self-dual label sets C is the identity and the factor
        # drops out).  The charge factor in the T-matrix diagonal would
        # cancel the Gauss-sum phase to give (sT)^3 = s^2 C instead.
        st = s * th[None, :]
        st3 = st @ st @ st
        residuals["st_cubed"] = float(
            np.abs(st3 - (p_plus / D) * (s @ s @ charge_perm)).max()
        )
        t_diag = None
        if data.central_charge is not None:
            t_diag = t_matrix(data)
            # Gauss-sum phase against the stated central charge (mod 8)
            residuals["central_charge_phase"] = float(
                abs(p_plus / abs(p_plus) - np.exp(2j * np.pi * data.central_charge / 8.0))
            )

    return ModularReport(
        verdict="modular",
        dims=dims,
        fp_dims=fp,
        twists=th,
        s_tilde=s_tilde,
        s_norm=s_norm,
        t_diag=t_diag,
        global_dim_sq=float(dim_sq.real),
        gauss_sums=(p_plus, p_minus),
        residuals=residuals,
    )
