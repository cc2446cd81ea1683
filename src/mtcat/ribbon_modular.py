"""Dimensions, twists, monodromies, S/T matrices and the modularity verdict.

The categorical dimension of a label is the reciprocal of its unit-channel
fusing element; it can carry a sign (or phase) relative to the positive
Perron dimension, and every formula here uses the signed value consistently.
Twists are computed from the braiding alone via the quantum trace; supplied
conformal weights are a cross-check, never an input to the computation.

Everything downstream of the dimensions is derived from the R blocks of each
shape at once (``_derive``); the public functions are thin entry points over
the same array helpers that ``check_modular`` uses.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .category_data import (_RIGIDITY_TOL, CategoryData, _cached, _check_commutative, _coherence,
                            _flat, _held, _inverse_unit_checks, _ring_ok, _stacking,
                            _unit_elements, rigidity_scalar)
from .errors import InputError, WeightsInconsistent
from .fusion_ring import DET_TOL, SMatrix, _s_margin, fp_dimensions

COHERENCE_TOL = 1e-7  # verdict threshold; loose enough for level-8 accumulation
RIGIDITY_FLOOR = 1e-6  # a dimension of modulus 1 / RIGIDITY_FLOOR or more fails rigidity
_TWIST_TOL = 1e-9  # ``twist`` raises when |theta_a - exp(2 i pi h_a)| reaches this
# each coherence check of a report and the residuals it reads; together they decide
# coherence, and the first four come from category_data._coherence, coherence_summary
# without its witnesses
_CHECKS = {"pentagon": ("pentagon",), "hexagon": ("hexagon_braid", "hexagon_inverse"),
           "triangle": ("triangle",), "ribbon": ("ribbon", "twist_weights")}
_COHERENCE = sum(_CHECKS.values(), ())


def quantum_dimension(data: CategoryData, a) -> complex:
    """1 / (unit-channel fusing element); the trace of the identity on a."""
    return 1.0 / rigidity_scalar(data, a)


def quantum_dimensions(data: CategoryData) -> np.ndarray:
    """Every label's dimension; NaN where the unit-channel element is missing or vanishes.

    The NaN carries into the twists and the ribbon residual, so such data is
    judged ``incoherent`` instead of stopping the check.
    """
    dims = np.full(data.ring.size, np.nan, dtype=complex)
    for a, value in _unit_elements(data).items():
        if not abs(value) < _RIGIDITY_TOL:  # a NaN element gives a NaN dimension
            dims[a] = 1.0 / value
    return dims


def monodromy(data: CategoryData, a, b, c) -> np.ndarray:
    """Double-braiding block R[b,a,c] @ R[a,b,c] on the channel c."""
    ring = data.ring
    a, b, c = (ring.index(x) for x in (a, b, c))
    if not ring.N[a, b, c]:
        raise InputError(f"({a},{b}) has no channel {c}")
    return data.r_block(b, a, c) @ data.r_block(a, b, c)


class _Derived(NamedTuple):
    dims: np.ndarray
    twists: np.ndarray
    monodromies: list  # per R block shape: labels a, b, c of its channels, R[b,a,c] @ R[a,b,c]
    s_tilde: np.ndarray  # sum_c d_c tr(monodromy on c), summed in channel order


def _derive(data: CategoryData) -> _Derived:
    """Dimensions, twists, channel monodromies and S~, one batched product per R block shape.

    theta_a = (1/d_a) sum_c d_c tr R[a,a,c]: the quantum trace of the
    self-braiding divided by the dimension, summed in channel order.
    """
    _check_commutative(data.ring)
    dims, N, stacking = quantum_dimensions(data), data.ring.N, _stacking(data.ring, "R")
    channels, r, monodromies = np.argwhere(N > 0), _flat(data.ring, _held(data, "R"), "R"), []
    r_traces, traces = np.empty((2, len(channels)), dtype=complex)
    for (p, q), _, own, at in stacking.groups:  # the R keys are the channels, in order
        blocks = np.take(r, own).reshape(-1, p, q)
        swapped = np.take(r, stacking.swapped[at, None] + np.arange(p * q)).reshape(-1, q, p)
        monodromies.append((channels[at].T, swapped @ blocks))
        r_traces[at] = np.trace(blocks, axis1=1, axis2=2)
        traces[at] = np.trace(monodromies[-1][1], axis1=1, axis2=2)
    a, b, c = channels.T
    s_tilde = np.zeros((len(dims),) * 2, dtype=complex)
    np.add.at(s_tilde, (a, b), dims[c] * traces)
    twists = np.zeros(len(dims), dtype=complex)
    for x, d, tr in zip(a[a == b].tolist(), dims[c[a == b]], r_traces[a == b]):  # scalar products:
        twists[x] += d * tr  # an array product can round otherwise, and the twists would move
    with np.errstate(invalid="ignore"):  # a NaN dimension gives a NaN twist, quietly
        twists = twists / dims
    return _Derived(dims, twists, monodromies, s_tilde)


def twist(data: CategoryData, a, check_weights: bool = True) -> complex:
    """Ribbon twist of a label from the braiding data (see ``_derive``).

    When weights are present the value is checked against exp(2 i pi h_a); a
    mismatch of ``_TWIST_TOL`` or more raises, since it means the file's
    weights belong to a different braiding.
    """
    a = data.ring.index(a)
    value = _derive(data).twists[a]
    if check_weights and data.weights is not None:
        expect = np.exp(2j * np.pi * data.weights[a])
        if abs(value - expect) >= _TWIST_TOL:
            raise WeightsInconsistent(
                f"twist of label {a} is {value:.12g} but weights give {expect:.12g}"
            )
    return complex(value)


def twist_weight_residual(data: CategoryData) -> float:
    """max_a |theta_a - exp(2 i pi h_a)|, or 0.0 when no weights are stored."""
    return _weight_residual(_derive(data).twists, data.weights)


def _weight_residual(twists: np.ndarray, weights: np.ndarray | None) -> float:
    if weights is None:
        return 0.0
    return float(np.abs(twists - np.exp(2j * np.pi * weights)).max())


def ribbon_residual(data: CategoryData, twists: np.ndarray | None = None) -> float:
    """Balancing check: max over channels of ||theta_c I - theta_a theta_b M||.

    ``twists`` overrides the braiding-derived values (useful for probing how
    far a wrong twist assignment is from balancing).
    """
    derived = _derive(data)
    th = derived.twists if twists is None else np.asarray(twists, dtype=complex)
    return _ribbon(derived, th)


def _ribbon(derived: _Derived, th: np.ndarray) -> float:
    """The balancing residual, one array expression per monodromy block shape."""
    worst = 0.0
    for (a, b, c), blocks in derived.monodromies:
        eye = np.eye(blocks.shape[1])
        dev = np.abs(th[c, None, None] * eye - (th[a] * th[b])[:, None, None] * blocks)
        worst = np.maximum(worst, dev.max())  # unlike max(), keeps a NaN
    return float(worst)


def s_matrix_unnormalized(data: CategoryData) -> SMatrix:
    """Matrix of quantum traces of the double braiding.

    S~[a,b] = sum_c d_c tr(monodromy block on c); symmetric, with unit row
    equal to the dimension vector.
    """
    return SMatrix(_derive(data).s_tilde, "unnormalized")


def s_matrix_balanced(data: CategoryData) -> SMatrix:
    """Same matrix through the twists: S~[a,b] = sum_c N d_c theta_c/(theta_a theta_b).

    Its entrywise agreement with the trace route is the package's working
    oracle for the identity expressing the modular transformation matrix
    through braiding and fusing data.
    """
    derived = _derive(data)
    return SMatrix(_s_balanced(data.ring.N, derived.dims, derived.twists), "unnormalized")


def _s_balanced(N: np.ndarray, dims: np.ndarray, th: np.ndarray) -> np.ndarray:
    return np.einsum("abc,c->ab", N, dims * th) / np.outer(th, th)


def t_matrix(data: CategoryData) -> np.ndarray:
    """Diagonal of the T-matrix: t[a] = theta_a exp(-2 i pi c / 24)."""
    if data.central_charge is None:
        raise InputError("T-matrix needs a central charge")
    return _t_diag(_derive(data).twists, data.central_charge)


def _t_diag(th: np.ndarray, central_charge: float) -> np.ndarray:
    return th * np.exp(-2j * np.pi * central_charge / 24.0)


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
    s_margin: float | None  # sigma_min / sigma_max of S~; None when empty or not finite
    rigidity: float  # the largest inverse-unit gap; inf without usable dimensions
    residuals: dict = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return self.verdict == "modular"


def check_modular(data: CategoryData) -> ModularReport:
    """Full pipeline: coherence residuals, modular data, verdict.

    The verdict is ``incoherent`` when any coherence residual (ring
    validation counts as one) reaches ``COHERENCE_TOL``; otherwise
    ``degenerate`` when the margin sigma_min / sigma_max of S~ is below
    ``DET_TOL``; otherwise ``modular``.  When modular and a central charge is
    present, the S/T relations are evaluated and recorded as residuals (they
    inform the report, not the verdict).  Every number a report's checks print
    is computed here, the margin and the rigidity gap included.  An invalid
    ring leaves every derived array empty.
    """
    ring = data.ring
    m = ring.size
    residuals: dict[str, float] = {"ring": 0.0 if _ring_ok(ring) else float("inf")}
    coherent = False
    dims = fp = th = np.array([])
    s_tilde = np.zeros((0, 0))
    s_norm = t_diag = None
    dim_sq = 0j
    gauss_sums = (0j, 0j)
    rigidity = float("inf")

    if residuals["ring"] == 0.0:
        summary = _coherence(data)
        residuals.update((key, summary[key]) for key in _COHERENCE[:4])
        derived = _derive(data)
        dims, th = derived.dims, derived.twists
        fp = _cached(ring, "fp dims", lambda: fp_dimensions(ring)).copy()
        residuals["ribbon"] = _ribbon(derived, th)
        residuals["twist_weights"] = _weight_residual(th, data.weights)
        s_tilde = derived.s_tilde
        dim_sq = complex(np.sum(dims**2))
        coherent = all(residuals[key] < COHERENCE_TOL for key in _COHERENCE)
        # a missing or vanishing unit-channel element gives a NaN dimension
        if np.isfinite(dims).all() and (abs(dims) < 1 / RIGIDITY_FLOOR).all():
            # NaN for a singular pairing matrix, possible only for data built in memory
            rigidity = float(np.max(_inverse_unit_checks(data)))

    s_margin = _s_margin(s_tilde)
    verdict = "modular" if coherent else "incoherent"
    if coherent:
        residuals["smatrix_two_route"] = float(
            np.abs(s_tilde - _s_balanced(ring.N, dims, th)).max()
        )
        residuals["smatrix_symmetric"] = float(np.abs(s_tilde - s_tilde.T).max())
        p_plus = complex(np.sum(dims**2 * th))
        p_minus = complex(np.sum(dims**2 / th))
        gauss_sums = (p_plus, p_minus)
        t = None if data.central_charge is None else _t_diag(th, data.central_charge)
        if s_margin is None or s_margin < DET_TOL:
            verdict, t_diag = "degenerate", t
        elif abs(dim_sq.imag) > 1e-9 * max(abs(dim_sq), 1.0) or dim_sq.real <= 0:
            residuals["global_dim_positive"] = float("inf")
        else:
            # normalized S and the relations it should satisfy
            residuals["global_dim_positive"] = float(abs(dim_sq.imag))
            D = float(np.sqrt(dim_sq.real))
            s = s_tilde / D
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
            t_diag = t
            if t is not None:
                # Gauss-sum phase against the stated central charge (mod 8)
                residuals["central_charge_phase"] = float(
                    abs(p_plus / abs(p_plus) - np.exp(2j * np.pi * data.central_charge / 8.0))
                )

    return ModularReport(
        verdict=verdict,
        dims=dims,
        fp_dims=fp,
        twists=th,
        s_tilde=SMatrix(s_tilde, "unnormalized"),
        s_norm=s_norm,
        t_diag=t_diag,
        global_dim_sq=float(dim_sq.real),
        gauss_sums=gauss_sums,
        s_margin=s_margin,
        rigidity=rigidity,
        residuals=residuals,
    )
