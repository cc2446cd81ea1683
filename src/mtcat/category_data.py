"""F/R symbol data, coherence residuals, gauge transforms, rigidity scalars.

Index layout, fixed once for the whole package
----------------------------------------------
``F[a, b, c, d]`` is the change of basis between the two fusion trees of
``a x b x c -> d``:

* rows ``(e, alpha, beta)``: right tree ``a (b c)``; ``e`` is the channel of
  ``b x c``, ``alpha`` in ``N[b,c,e]``, ``beta`` in ``N[a,e,d]``;
* columns ``(f, gamma, delta)``: left tree ``(a b) c``; ``f`` is the channel
  of ``a x b``, ``gamma`` in ``N[a,b,f]``, ``delta`` in ``N[f,c,d]``.

A right-tree basis vector expands as ``sum_{f,gamma,delta} F * `` left-tree
vectors.  ``R[a, b, c]`` is the ``N[a,b,c] x N[b,a,c]`` matrix of the
elementary braiding ``a x b -> b x a`` restricted to channel ``c``; the
double braiding (monodromy) on a channel is ``R[b,a,c] @ R[a,b,c]``.

Blocks are stored sparsely: a key is present exactly when every multiplicity
range in its shape is non-empty.  Multiplicity indices are 0-based in memory
(1-based in serialized files).
"""

from __future__ import annotations

import itertools
import math
import numbers
import threading
import weakref
from collections import namedtuple
from dataclasses import dataclass, field, replace
from itertools import compress

import numpy as np

from .errors import IncompleteData, InputError, RigidityDegenerate
from .fusion_ring import UNIT, FusionRing, validate_ring

FKey = tuple[int, int, int, int, int, int]  # (a, b, c, d, e, f)
RKey = tuple[int, int, int]  # (a, b, c)

FSymbols = dict  # FKey -> complex ndarray (N[b,c,e], N[a,e,d], N[a,b,f], N[f,c,d])
RSymbols = dict  # RKey -> complex ndarray (N[a,b,c], N[b,a,c])

_COND_TOL = 1e-12  # singular: least singular value <= this * max(largest, 1); F, R and gauges
_RIGIDITY_TOL = 1e-12  # a unit-channel fusing element of smaller modulus is taken as zero


def f_block_shape(ring: FusionRing, a, b, c, d, e, f):
    N = ring.N
    return (int(N[b, c, e]), int(N[a, e, d]), int(N[a, b, f]), int(N[f, c, d]))


def admissible_f_keys(ring: FusionRing) -> list[FKey]:
    """All F keys whose four multiplicity ranges are non-empty, in lex order."""
    return _cached(ring, "f key list", lambda: list(map(tuple, _key_labels(ring, "F").T.tolist())))


def admissible_r_keys(ring: FusionRing) -> list[RKey]:
    return _cached(ring, "r key list", lambda: list(map(tuple, _key_labels(ring, "R").T.tolist())))


def _key_labels(ring: FusionRing, kind: str) -> np.ndarray:
    """The admissible F or R keys as label columns, one row per label, in lex order; found
    from the ring each time, not kept."""
    m, N = ring.size, ring.N
    if kind == "R":
        return np.array(np.nonzero((N > 0) & (N.transpose(1, 0, 2) > 0)))
    # an F key is a row (a,b,c,d,e) and a column (a,b,c,d,f) of one fusing matrix
    lay = _layout(ring)
    rows, cols = np.flatnonzero(lay.rows > 0), np.flatnonzero(lay.cols > 0)  # raveled
    per_matrix = np.bincount(cols // m, minlength=m**4)
    per_row = np.take(per_matrix, rows // m)  # the keys of each row, one per column
    before = np.repeat(np.cumsum(per_row) - per_row, per_row)  # keys of the rows before
    first_col = np.take(np.cumsum(per_matrix) - per_matrix, rows // m)
    col = np.take(cols, np.repeat(first_col, per_row) + np.arange(per_row.sum()) - before)
    return np.array([*np.unravel_index(np.repeat(rows, per_row), (m,) * 5), col % m])


def fusion_vertices(ring: FusionRing) -> list[RKey]:
    """All triples (a,b,c) with N[a,b,c] > 0."""
    return [tuple(int(x) for x in row) for row in np.argwhere(ring.N > 0)]


@dataclass
class CategoryData:
    """A fusion ring together with its F and R symbols and optional weights.

    Treat instances as immutable once validated: every operation here is pure,
    so shared data is safe to read concurrently.  Use :meth:`copy` before
    perturbing entries.
    """

    ring: FusionRing
    F: FSymbols
    R: RSymbols
    weights: np.ndarray | None = None  # per-label lowest conformal weight
    central_charge: float | None = None
    name: str = ""

    def __post_init__(self):
        if self.weights is not None:
            try:
                self.weights = np.asarray(self.weights, dtype=float)
            except (TypeError, ValueError):
                raise InputError(f"weights must be real numbers, got {self.weights!r}") from None
            if self.weights.shape != (self.ring.size,):
                raise InputError("weights must give one value per label")
        c = self.central_charge
        if c is not None and (isinstance(c, bool) or not isinstance(c, numbers.Real)):
            raise InputError(f"central_charge must be a real number, got {c!r}")

    def __setattr__(self, name, value):
        if name in ("F", "R"):  # an unread table waits aside until its first read
            vars(self).pop("_unread_" + name, None)  # an assigned table is read in its place
            name = "_unread_" + name if isinstance(value, _Stacks) else name
        object.__setattr__(self, name, value)

    def __getattr__(self, name):
        """The first read of an unread F or R table makes its ``_Stacked`` dict of views, kept
        with ``setdefault`` so that threads reading it first at once get one table; any other
        missing name raises AttributeError."""
        state = vars(self)
        unread = state.get("_unread_" + name) if name in ("F", "R") else None
        if unread is None:
            if name in state:  # kept by another thread since the look-up began
                return state[name]
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        table = _Stacked(dict.fromkeys(unread.order))
        table.stacking, table.stacks, table.order = _stacking(self.ring, name), *unread
        dict.update(table, zip(table.stacking.keys, itertools.chain.from_iterable(table.stacks)))
        table = state.setdefault(name, table)
        state.pop("_unread_" + name, None)  # a copy or pickle then holds the table alone
        return table

    def f_block(self, a, b, c, d, e, f) -> np.ndarray:
        try:
            return self.F[(a, b, c, d, e, f)]
        except KeyError:
            raise IncompleteData((a, b, c, d, e, f), kind="F") from None

    def r_block(self, a, b, c) -> np.ndarray:
        try:
            return self.R[(a, b, c)]
        except KeyError:
            raise IncompleteData((a, b, c), kind="R") from None

    def copy(self) -> "CategoryData":
        return replace(self, F=_copied(self.ring, _held(self, "F"), "F"),
                       R=_copied(self.ring, _held(self, "R"), "R"),
                       weights=None if self.weights is None else self.weights.copy())


def validate_symbols(data: CategoryData) -> list[tuple]:
    """Check F/R key sets match admissibility, shapes, and invertibility.

    Returns a list of (kind, key, message) problems; empty means consistent.
    """
    problems = []
    ring = data.ring
    if not _stacked_on(ring, _held(data, "F"), "F"):  # a stacked table has every key, of its shape
        stacking = _stacking(ring, "F")
        problems += _key_problems(data.F, stacking.admissible, "F")
        problems += filter(None, (_block_problem("F", key, data.F[key], shape) for key, shape
                                  in zip(stacking.admissible, stacking.shapes) if key in data.F))
    stacking = _stacking(ring, "R")
    problems += _key_problems(data.R, stacking.admissible, "R")
    present = [(k, shape) for k, shape in zip(stacking.admissible, stacking.shapes) if k in data.R]
    square = [k for k, shape in present if _shape(data.R[k]) == shape and shape[0] == shape[1]]
    singular_r = set()
    for shape in {data.R[k].shape for k in square}:  # one SVD call per block shape
        group = [k for k in square if data.R[k].shape == shape]
        stack = np.stack([data.R[k] for k in group])
        singular_r.update(compress(group, _singular(stack)))
    for key, shape in present:
        problem = _block_problem("R", key, data.R[key], shape)
        if problem:
            problems.append(problem)
        elif key in singular_r:
            problems.append(("singular-R", key, "braiding block is not invertible"))
    if not problems:
        singular_f = []  # raveled (a,b,c,d)
        for abcd, mats in _fusing_matrices(ring, _f_values(data)):
            singular_f += abcd[_singular(mats)].tolist()
        for x in sorted(singular_f):
            key = tuple(int(i) for i in np.unravel_index(x, (ring.size,) * 4))
            problems.append(("singular-F", key, "fusing matrix is not invertible"))
    return problems


def _key_problems(table: dict, admissible: list, kind: str) -> list:
    """The admissible keys missing from a table, sorted, then its other keys: sorted when they
    compare, else in the table's order."""
    want = set(admissible)
    missing, extra = sorted(want.difference(table)), [key for key in table if key not in want]
    try:
        extra = sorted(extra)
    except TypeError:  # such as a string and a tuple
        pass
    return [(f"missing-{kind}", key, f"admissible {kind} entry absent") for key in missing] + [
        (f"extra-{kind}", key, f"{kind} entry present for inadmissible tuple") for key in extra]


def _shape(block):
    """The shape of a block; None when it is not an ndarray of numbers (bool is not a number,
    as in a file).  Every reader and ``validate_symbols`` check a block by it."""
    return block.shape if isinstance(block, np.ndarray) and block.dtype.kind in "iufc" else None


def _block_problem(kind: str, key, block, shape: tuple):
    """The problem of a block that is not an array of numbers or not of ``shape``; else None."""
    got = _shape(block)
    if got is None:
        return f"type-{kind}", key, "block is not an array of numbers"
    if got != shape:
        return f"shape-{kind}", key, f"block shape {got}, expected {shape}"
    return None


def _singular(mats: np.ndarray) -> np.ndarray:
    """Which matrices of a stack are not invertible, by their singular values; a matrix with
    an entry that is not finite is not."""
    finite = np.isfinite(mats).all(axis=(1, 2))
    if not finite.all():  # the SVD of a NaN may not converge
        mats = np.where(finite[:, None, None], mats, 0)
    sv = np.linalg.svd(mats, compute_uv=False)
    return ~finite | (sv[:, -1] <= _COND_TOL * np.maximum(sv[:, 0], 1.0))


@dataclass
class LabeledMatrix:
    """Dense matrix with the (channel, multiplicities) tuple naming each slot."""

    matrix: np.ndarray
    row_index: list[tuple]  # (e, alpha, beta)
    col_index: list[tuple]  # (f, gamma, delta)


def f_matrix(data: CategoryData, a, b, c, d) -> LabeledMatrix:
    """Dense fusing matrix for (a,b,c,d) over (e,alpha,beta) x (f,gamma,delta)."""
    ring = data.ring
    a, b, c, d = (ring.index(x) for x in (a, b, c, d))
    N = ring.N
    es, fs = _tree_channels(ring, a, b, c, d)
    rows = [(e, al, be) for e in es for al in range(N[b, c, e]) for be in range(N[a, e, d])]
    cols = [(f, ga, de) for f in fs for ga in range(N[a, b, f]) for de in range(N[f, c, d])]
    mat = np.zeros((len(rows), len(cols)), dtype=complex)
    rpos = 0
    for e in es:
        rcount = N[b, c, e] * N[a, e, d]
        cpos = 0
        for f in fs:
            ccount = N[a, b, f] * N[f, c, d]
            block = data.f_block(a, b, c, d, e, f)
            mat[rpos : rpos + rcount, cpos : cpos + ccount] = block.reshape(rcount, ccount)
            cpos += ccount
        rpos += rcount
    return LabeledMatrix(mat, rows, cols)


def _tree_channels(ring: FusionRing, a, b, c, d) -> tuple[list, list]:
    """The channels e of the right tree and f of the left tree; InputError if either is empty."""
    N = ring.N
    es = [e for e in range(ring.size) if N[b, c, e] and N[a, e, d]]
    fs = [f for f in range(ring.size) if N[a, b, f] and N[f, c, d]]
    if not es or not fs:
        raise InputError(
            f"tuple ({a},{b},{c},{d}) is inadmissible: "
            + ("right-tree fusion space is empty" if not es else "left-tree fusion space is empty")
        )
    return es, fs


def rigidity_scalar(data: CategoryData, a) -> complex:
    """Unit-to-unit element of the fusing matrix of (a, dual(a), a, a).

    This is the scalar by which the zig-zag duality composites act; it is
    nonzero for coherent data, and its reciprocal is the categorical
    dimension (a sign or phase times the positive Perron dimension).
    """
    a = data.ring.index(a)
    elements = _unit_elements(data)
    if a not in elements:
        raise RigidityDegenerate(f"label {a} has no unit channel with its dual")
    value = elements[a]
    if abs(value) < _RIGIDITY_TOL:
        raise RigidityDegenerate(
            f"unit-channel fusing element for label {a} has modulus {abs(value):.3e}"
        )
    return value


def f_inverse_unit_check(data: CategoryData, a) -> float:
    """|(F^-1)_unit,unit - F_unit,unit| for the fusing matrix of (a, a', a, a).

    With dual-pairing bases matched, the inverse fusing matrix has the same
    unit-to-unit element; a nonzero value flags inconsistently scaled pairing
    vertices.
    """
    ring = data.ring
    a = ring.index(a)
    if not _unit_channel(ring)[a]:
        raise RigidityDegenerate(f"label {a} has no unit channel with its dual")
    mat = next(mats[labels == a][0] for labels, mats in _pairing_matrices(data) if a in labels)
    try:
        inv = np.linalg.inv(mat)
    except np.linalg.LinAlgError:
        raise InputError(f"fusing matrix of ({a}, dual, {a}, {a}) is singular") from None
    return float(abs(inv[0, 0] - mat[0, 0]))


# The fusing matrix of (a, dual(a), a, a) is the pairing matrix of label a.  Its
# rows and columns start with the channel e = f = unit, so when the unit is a
# channel of both trees the unit-to-unit element is entry (0, 0).


def _pairing_matrices(data: CategoryData) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every label's pairing matrix from the stacked fusing view: (labels, stack) per shape."""
    f = _f_values(data)
    index = _cached(data.ring, "pairing", lambda: _pairing_index(data.ring))
    return [(labels, np.take(f, offsets)) for labels, offsets in index]


def _pairing_index(ring: FusionRing) -> list:
    """Per pairing-matrix shape: the labels, and the flat-F offset of every matrix entry."""
    m = ring.size
    labels = np.arange(m)
    pairing = ((labels * m + ring.dual) * m + labels) * m + labels  # raveled (a, a', a, a)
    index, found = [], np.zeros(m, dtype=bool)
    for abcd, offsets in _cached(ring, "fusing", lambda: _fusing_index(ring)):
        pos = np.minimum(np.searchsorted(abcd, pairing), len(abcd) - 1)
        hit = abcd[pos] == pairing
        found |= hit
        if hit.any():
            index.append((labels[hit], offsets[pos[hit]]))
    if not found.all():  # an empty tree, possible only on an invalid ring
        a = int(np.argmin(found))
        _tree_channels(ring, a, int(ring.dual[a]), a, a)  # raises
    return index


def _unit_channel(ring: FusionRing) -> np.ndarray:
    """Whether the unit is a channel of both trees of each label's pairing matrix."""
    N, a, dual = ring.N, np.arange(ring.size), ring.dual
    rows = (N[dual, a, UNIT] > 0) & (N[a, UNIT, a] > 0)  # e = unit
    return rows & (N[a, dual, UNIT] > 0) & (N[UNIT, a, a] > 0)  # and f = unit


def _unit_elements(data: CategoryData) -> dict[int, complex]:
    """label -> unit-to-unit element of its pairing matrix, for the labels with a unit channel."""
    unit = _unit_channel(data.ring)
    elements = {}
    for labels, mats in _pairing_matrices(data):
        pick = unit[labels]
        elements.update(zip(labels[pick].tolist(), mats[pick, 0, 0].tolist()))
    return elements


def _inverse_unit_checks(data: CategoryData) -> np.ndarray:
    """``f_inverse_unit_check`` of every label, one ``inv`` per matrix shape.

    NaN for a singular matrix and for a label without a unit channel.
    """
    unit = _unit_channel(data.ring)
    out = np.full(data.ring.size, np.nan)
    for labels, mats in _pairing_matrices(data):
        inverses = _inverse(mats)
        gaps = (inverses[:, 0, 0] - mats[:, 0, 0]).tolist()
        out[labels] = list(map(abs, gaps))  # abs() of one entry: np.abs may round otherwise
    out[~unit] = np.nan
    return out


# ---------------------------------------------------------------------------
# coherence residuals


def triangle_residual(data: CategoryData) -> float:
    """Max deviation of unit-label fusing matrices from the identity.

    Whenever one of (a, b, c) is the unit, the fusing matrix has a single
    (e, f) block and both unit isomorphism conventions demand it be exactly
    the identity in the canonical basis.
    """
    return _triangle(data.ring, _f_values(data))


def _triangle(ring: FusionRing, f: np.ndarray) -> float:
    worst = 0.0
    for abcd, mats in _fusing_matrices(ring, f):
        unit = (np.array(np.unravel_index(abcd, (ring.size,) * 4))[:3] == UNIT).any(axis=0)
        dev = np.abs(mats[unit] - np.eye(*mats.shape[1:])).max(initial=0.0)
        worst = np.maximum(worst, dev)  # unlike max(), keeps a NaN
    return float(worst)


def pentagon_residual(data: CategoryData) -> tuple[float, tuple]:
    """Largest deviation between the two re-association routes on four factors.

    Returns ``(max_abs_residual, worst_tuple)``; the tuple is
    ``(a, b, c, d, w, q, p, r, s)`` naming the instance: w the total channel,
    q the (c,d) channel, p the (b,q) channel, r the (a,b) channel, s the
    (r,c) channel.  Ties resolve to the lexicographically smallest tuple.
    """
    return _worst_instance(data.ring, "pentagon", _f_values(data))


def hexagon_residual(data: CategoryData, direction: str = "braid") -> tuple[float, tuple]:
    """Largest deviation of the braiding coherence identity (R-F-R vs F-R-F).

    ``direction="braid"`` uses the elementary braiding; ``"inverse_braid"``
    replaces each R[x,y,c] by the inverse of R[y,x,c].  Returns (residual,
    worst tuple (a, b, c, d, g, f)) with g the (c,a) channel and f the (a,b)
    channel of the instance.
    """
    if direction not in ("braid", "inverse_braid"):
        raise InputError(f"unknown hexagon direction {direction!r}")
    return _worst_instance(data.ring, "hexagon", _with_r(data, _f_values(data), direction))


# One engine evaluates both identities.  An identity is a table of instances
# (label tuples with one basis vector per vertex, in lexicographic order of the
# labels) and two term tables; a term is a product of entries of one flat value
# array, summed into its instance, and the residual of an instance is
# |sum lhs - sum rhs|.  Columns are named by one letter per label and three per
# vertex ("cdq" is the basis vector of vertex (c,d,q)); factors that share a
# vertex contract over it.  The tables depend only on the ring.  They are built
# and evaluated in blocks: runs of consecutive (a,b,c,d) cells of the label grid
# with at most _BLOCK_INSTANCES instances besides those of their first cell, cut
# from the exact count of every cell, so cost and memory follow the instance
# count.  A block keeps its instance count, its term tables and ``at``, not the
# labels of its instances: the running instance totals per cell, kept in the plan
# too, find the cell of the one worst instance, and the labels of that cell alone
# are built again.  A term table holds no instance index: its instances are put in
# block order, most lhs terms first and then most rhs terms, and its value offsets
# pass-major, every instance's first term, then every second term, and so on.  A
# pass then covers a few runs of consecutive instances, and the sum adds one slice
# of products per run; ``at`` puts the residuals back in instance order.  Offsets
# are stored in the narrowest type for the value array, ``at`` in the narrowest
# for the block.
#
# Every cache below is kept in the ring's plan, which the process-wide store
# shares among all rings of equal content (names, dual, N: what ``==``
# compares).  Loading many data sets over one set of fusion rules therefore
# builds the plan once.  A plan lives while a ring holds it; after that it
# stays in the store, least recently released first out, while the idle
# plans together hold at most _PLAN_BUDGET bytes of arrays and text.

_PLAN_BUDGET = 64 << 20  # bytes kept for the plans that no live ring holds
_BLOCK_INSTANCES = 6144  # instances per block besides its first cell's: small temporaries
_plans: dict = {}  # ring content -> _Plan
_idle: dict = {}  # content -> bytes, of the plans no live ring holds, in release order
_store_lock = threading.RLock()  # reentrant: a ring may be freed, and released, inside _plan


class _Plan(dict):
    """Everything derived from the content of a ring: name -> (value, bytes)."""

    def __init__(self, content: tuple):
        super().__init__()
        self.content, self.holders = content, 0


def _plan(ring: FusionRing) -> _Plan:
    """The plan of the ring, found in the store or made, and held until the ring is freed."""
    plan = ring._plan
    if plan is None:
        content = (tuple(ring.names), ring.dual.tobytes(), ring.N.tobytes())
        with _store_lock:
            plan = _plans.get(content)
            if plan is None:
                plan = _plans[content] = _Plan(content)
            _idle.pop(content, None)
            plan.holders += 1
        weakref.finalize(ring, _release, plan).atexit = False
        ring._plan = plan
    return plan


def _release(plan: _Plan):
    """A ring holding ``plan`` was freed: keep the plan only within the budget."""
    with _store_lock:
        plan.holders -= 1
        if plan.holders or _plans.get(plan.content) is not plan:
            return
        size = sum(entry[1] for entry in plan.values())
        if size > _PLAN_BUDGET:  # would push out every other plan
            del _plans[plan.content]
            return
        _idle[plan.content] = size
        total = sum(_idle.values())
        while total > _PLAN_BUDGET:
            content = next(iter(_idle))
            total -= _idle.pop(content)
            del _plans[content]


def _cached(ring: FusionRing, name: str, build):
    """``build()``, kept in the ring's plan under ``name``."""
    plan = _plan(ring)
    entry = plan.get(name)
    if entry is None:
        value = build()
        plan[name] = entry = value, _nbytes(value)
    return entry[0]


def _ring_ok(ring: FusionRing) -> bool:
    """Whether ``validate_ring`` passes the ring, kept in its plan."""
    return _cached(ring, "ring ok", lambda: validate_ring(ring).ok)


def _nbytes(value) -> int:
    """Bytes of the arrays and strings in a cached value.

    A list holds items of one kind: a list of numbers or of tuples of numbers only,
    such as keys, counts 0 without a look at each item; a list of tuples that hold
    arrays, such as blocks, counts its arrays.
    """
    if isinstance(value, np.ndarray):
        return value.nbytes
    if isinstance(value, str):
        return len(value)
    if isinstance(value, dict):
        value = tuple(value.values())
    elif hasattr(value, "__dict__"):
        value = tuple(vars(value).values())
    if isinstance(value, list) and value:
        first = value[0] if isinstance(value[0], tuple) else (value[0],)
        if all(isinstance(x, numbers.Number) for x in first):
            return 0
    if isinstance(value, (list, tuple)):
        return sum(map(_nbytes, value))
    return 0


def _layout(ring: FusionRing) -> _Layout:
    return _cached(ring, "layout", lambda: _Layout(ring.N))


def _coherence_tables(ring: FusionRing, identity: str) -> list:
    """The instance tables of one identity in blocks of whole cells: (instance count, lhs, rhs)
    per block, in instance order; a term's instance counts from the first of its block."""
    N, lay = ring.N, _layout(ring)
    build = _pentagon_block if identity == "pentagon" else _hexagon_block
    return _cached(ring, identity, lambda: [build(N, lay, cells)
                                            for cells in _runs(_cell_totals(ring, identity))])


def _cell_totals(ring: FusionRing, identity: str) -> np.ndarray:
    """The running instance total of an identity at the end of every raveled (a,b,c,d) cell."""
    counts = _pentagon_counts if identity == "pentagon" else _hexagon_counts
    return _cached(ring, f"{identity} totals", lambda: np.cumsum(counts(ring.N)))


def _runs(totals: np.ndarray) -> list[slice]:
    """The blocks as runs of consecutive cells, given the running instance totals per cell.

    A run is the cells whose running totals have one quotient by _BLOCK_INSTANCES + 1,
    so it holds at most _BLOCK_INSTANCES instances besides its first cell's; a cell of
    more is a run alone.  A run without instances is left out.
    """
    run = totals // (_BLOCK_INSTANCES + 1)
    cuts = [0, *(np.flatnonzero(run[1:] != run[:-1]) + 1).tolist(), len(totals)]
    before = np.concatenate([[0], totals])  # instances in the cells before each cell
    return [slice(i, j) for i, j in zip(cuts, cuts[1:]) if before[j] > before[i]]


def _pentagon_counts(N: np.ndarray) -> np.ndarray:
    """Pentagon instances per raveled (a,b,c,d): the sum over w of X[a,b,c,d,w] Y[a,b,c,d,w],
    X = sum_{q,p} N[c,d,q] N[b,q,p] N[a,p,w] and Y = sum_{r,s} N[a,b,r] N[r,c,s] N[s,d,w].

    Pairwise products of float N, exact far below 2**53 instances.
    """
    m, n = len(N), N.astype(float)
    x = np.matmul(np.matmul(n.reshape(1, m * m, m), n).reshape(1, -1, m), n)  # [a, bcd, w]
    y = (n.reshape(m * m, m) @ n.reshape(m, -1)).reshape(-1, m) @ n.reshape(m, -1)  # [abc, dw]
    return np.rint(np.einsum("ij,ij->i", x.reshape(-1, m), y.reshape(-1, m))).astype(np.int64)


def _hexagon_counts(N: np.ndarray) -> np.ndarray:
    """Hexagon instances per raveled (a,b,c,d): sum_g N[c,a,g] N[b,g,d] times
    sum_f N[a,b,f] N[f,c,d]."""
    m, n = len(N), N.astype(np.int64)
    g = np.einsum("cag,bgd->abcd", n, n)
    f = np.einsum("abf,fcd->abcd", n, n)
    return (g * f).reshape(m**4)


def _index_type(size: int) -> np.dtype:
    """The narrowest unsigned type that holds an index below ``size``."""
    return np.min_scalar_type(max(size - 1, 0))


class _Layout:
    """Offsets into the value array of ``_with_r``: F blocks, then R blocks.

    Blocks follow admissible-key order and are C-ordered inside, so an offset
    is arithmetic on the ring, done in int32.  Arrays are indexed by raveled
    label tuples.
    """

    def __init__(self, N: np.ndarray):
        self.m, self.multiple = len(N), bool(N.max(initial=0) > 1)
        rows = np.einsum("bce,aed->abcde", N, N)  # right-tree slots per channel e
        cols = np.einsum("abf,fcd->abcdf", N, N)  # left-tree slots per channel f
        ncols = cols.sum(axis=-1, keepdims=True)
        size = rows.sum(axis=-1, keepdims=True) * ncols
        # first entry of the blocks (a,b,c,d;e,*): all rows of lower e precede them
        band = np.cumsum(size).reshape(size.shape) - size + (np.cumsum(rows, -1) - rows) * ncols
        r_size = (N * N.transpose(1, 0, 2)).ravel()
        self.f_size = int(size.sum())
        self.size = self.f_size + int(r_size.sum())
        if max(self.size, self.m**5) >= 2**31:
            raise InputError("fusion ring too large for int32 value offsets")
        self.band, self.rows, self.cols, self.N = (
            x.ravel().astype(np.int32) for x in (band, rows, cols, N)
        )
        self.col_start = (np.cumsum(cols, axis=-1) - cols).ravel().astype(np.int32)
        self.r_start = (np.cumsum(r_size) - r_size + self.f_size).astype(np.int32)

    def f(self, t, key: str) -> np.ndarray:
        """Offset of the F[key] entry of every row; key names six label columns."""
        a, b, c, d, e, f = key
        al, be, ga, de = (t[v] for v in (b + c + e, a + e + d, a + b + f, f + c + d))
        a, b, c, d, e, f = (t[x] for x in key)
        m, N, take = self.m, self.N, np.take  # take: faster than fancy indexing
        band = a.astype(np.int32)  # (((a m + b) m + c) m + d) m, in place
        for x in (b, c, d):
            band *= m
            band += x
        band *= m
        row_band, col_band = band + e, band + f
        offset = take(self.col_start, col_band)
        if self.multiple:  # else a channel has one slot: every admissible row is 1
            offset = offset * take(self.rows, row_band)
        offset = offset + take(self.band, row_band)
        if al.any() or be.any():  # all zero without multiplicities
            a, e = a.astype(np.int32), e.astype(np.int32)
            offset = offset + (al * take(N, (a * m + e) * m + d) + be) * take(self.cols, col_band)
        if ga.any() or de.any():
            offset = offset + ga * take(N, (f.astype(np.int32) * m + c) * m + d) + de
        return offset

    def r(self, t, key: str) -> np.ndarray:
        """Offset of the R[key] entry of every row; key names three label columns."""
        x, y, z = key
        al, be = t[x + y + z], t[y + x + z]
        x, y, z = (t[v].astype(np.int32) for v in key)
        m = self.m
        start = np.take(self.r_start, (x * m + y) * m + z)
        return start + al * np.take(self.N, (y * m + x) * m + z) + be


def _fusing_matrices(ring: FusionRing, f: np.ndarray) -> list[tuple[np.ndarray, np.ndarray]]:
    """Every (a,b,c,d) fusing matrix of the F entries ``f``, stacked by shape.

    Returns (raveled (a,b,c,d) in increasing order, stack of matrices) per
    shape; rows are (e, alpha, beta) and columns (f, gamma, delta), as in
    ``f_matrix``.
    """
    index = _cached(ring, "fusing", lambda: _fusing_index(ring))
    return [(abcd, np.take(f, offsets)) for abcd, offsets in index]


def _fusing_index(ring: FusionRing) -> list:
    """Per fusing-matrix shape: the raveled (a,b,c,d) and the flat-F offset of every entry."""
    lay, m = _layout(ring), ring.size
    rows, cols = lay.rows.reshape(-1, m), lay.cols.reshape(-1, m)  # slots per channel e / f
    nrows, ncols = rows.sum(axis=1), cols.sum(axis=1)
    out = []
    for shape in sorted(set(zip(nrows.tolist(), ncols.tolist()))):
        if 0 in shape:  # no admissible block
            continue
        abcd = np.flatnonzero((nrows == shape[0]) & (ncols == shape[1]))
        t = dict(zip("abcd", (x[:, None, None] for x in np.unravel_index(abcd, (m,) * 4))))
        # the slot of a row within its channel e stands in for (alpha, beta): the
        # offset is linear in beta with unit stride, and alpha = 0; columns alike
        t["e"], t["aed"] = (x[:, :, None] for x in _slots(rows[abcd]))
        t["f"], t["fcd"] = (x[:, None, :] for x in _slots(cols[abcd]))
        t["bce"] = t["abf"] = np.zeros((), dtype=np.int32)
        out.append((abcd, lay.f(t, "abcdef")))
    return out


def _slots(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Channel, and place within it, of every slot; ``counts`` rows have equal totals."""
    flat = counts.ravel()
    channel = np.repeat(np.tile(np.arange(counts.shape[1]), len(counts)), flat)
    pos = np.arange(flat.sum()) - np.repeat(np.cumsum(flat) - flat, flat)
    return channel.reshape(len(counts), -1), pos.reshape(len(counts), -1)


def _pentagon_instances(N: np.ndarray, cells: slice) -> dict:
    """The pentagon instances on the ``cells`` of the (a,b,c,d) grid, in instance order."""
    out, mid, into = _channels(N)
    t = _grid(N, "abcdw", slice(cells.start * len(N), cells.stop * len(N)))
    t = _labels(t, "q", out(t["c"], t["d"]))
    t = _labels(t, "p", out(t["b"], t["q"]) & mid(t["a"], t["w"]))
    t = _labels(t, "r", out(t["a"], t["b"]))
    t = _labels(t, "s", out(t["r"], t["c"]) & into(t["d"], t["w"]))
    return _vectors(N, t, "cdq", "bqp", "apw", "abr", "rcs", "sdw")


def _pentagon_block(N: np.ndarray, lay: _Layout, cells: slice) -> tuple:
    """Pentagon instances on the ``cells`` of the (a,b,c,d) grid.

    lhs: F[a,b,q,w;p,r] F[r,c,d,w;q,s]; rhs: the sum over t of
    F[b,c,d,p;q,t] F[a,t,d,w;p,s] F[a,b,c,s;t,r].
    """
    out, mid, into = _channels(N)
    t = _pentagon_instances(N, cells)
    t["instance"] = np.arange(len(t["a"]))  # _block counts the terms of each instance by it
    lhs = _vectors(N, _where(N, t, "rqw"), "rqw")
    rhs = _labels(t, "t", out(t["b"], t["c"]) & into(t["d"], t["p"]) & mid(t["a"], t["s"]))
    rhs = _vectors(N, rhs, "bct", "tdp", "ats")
    return _block(lay, t, (lhs, lay.f(lhs, "abqwpr"), lay.f(lhs, "rcdwqs")),
                  (rhs, lay.f(rhs, "bcdpqt"), lay.f(rhs, "atdwps"), lay.f(rhs, "abcstr")))


def _hexagon_instances(N: np.ndarray, cells: slice) -> dict:
    """The hexagon instances on the ``cells`` of the (a,b,c,d) grid, in instance order."""
    out, mid, into = _channels(N)
    t = _grid(N, "abcd", cells)
    t = _labels(t, "g", out(t["c"], t["a"]) & mid(t["b"], t["d"]))
    t = _labels(t, "f", out(t["a"], t["b"]) & into(t["c"], t["d"]))
    return _vectors(N, t, "cag", "bgd", "abf", "fcd")


def _hexagon_block(N: np.ndarray, lay: _Layout, cells: slice) -> tuple:
    """Hexagon instances on the ``cells`` of the (a,b,c,d) grid.

    lhs: the sum over h of F[b,c,a,d;g,h] R[a,h,d] F[a,b,c,d;h,f];
    rhs: R[a,c,g] F[b,a,c,d;g,f] R[a,b,f].
    """
    out, mid, into = _channels(N)
    t = _hexagon_instances(N, cells)
    t["instance"] = np.arange(len(t["a"]))  # _block counts the terms of each instance by it
    lhs = _labels(t, "h", out(t["b"], t["c"]) & into(t["a"], t["d"]) & mid(t["a"], t["d"]))
    lhs = _vectors(N, lhs, "bch", "had", "ahd")
    rhs = _vectors(N, _where(N, t, "acg", "baf"), "acg", "baf")
    return _block(lay, t, (lhs, lay.f(lhs, "bcadgh"), lay.r(lhs, "ahd"), lay.f(lhs, "abcdhf")),
                  (rhs, lay.r(rhs, "acg"), lay.f(rhs, "bacdgf"), lay.r(rhs, "abf")))


def _rows(t: dict, row) -> dict:
    """The rows ``row`` of every column of ``t``; a 0-d column stays one value."""
    return {name: col if col.ndim == 0 else np.take(col, row) for name, col in t.items()}


def _grid(N: np.ndarray, labels: str, rows: slice) -> dict:
    """The ``rows`` of the tuples of the named labels, in lexicographic order."""
    grid = np.unravel_index(np.arange(rows.start, rows.stop), (len(N),) * len(labels))
    small = np.min_scalar_type(len(N))
    return {label: col.astype(small) for label, col in zip(labels, grid)}


def _labels(t: dict, name: str, allowed: np.ndarray) -> dict:
    """Extend every row by each label its row of ``allowed`` marks, in increasing order."""
    flat = np.flatnonzero(allowed)  # faster than a 2-d nonzero
    row = flat // allowed.shape[1]
    return {**_rows(t, row), name: _small(flat - row * allowed.shape[1])}


def _channels(N: np.ndarray) -> list:
    """Row lookups by two label columns: out(x, y)[z], mid(x, z)[y], into(y, z)[x] are N > 0."""
    m, E = len(N), N > 0
    tables = [E.reshape(m * m, m), E.transpose(0, 2, 1).reshape(m * m, m),
              E.transpose(1, 2, 0).reshape(m * m, m)]
    return [lambda u, v, tab=tab: np.take(tab, u.astype(np.intp) * m + v, axis=0) for tab in tables]


def _where(N: np.ndarray, t: dict, *vertices: str) -> dict:
    """The rows of ``t`` on which every named vertex has a basis vector."""
    keep = np.logical_and.reduce([_size(N, t, vertex) > 0 for vertex in vertices])
    return t if keep.all() else _rows(t, np.flatnonzero(keep))


def _vectors(N: np.ndarray, t: dict, *vertices: str) -> dict:
    """Extend every row by each choice of basis vector at the named vertices.

    Every named vertex must have a basis vector on every row.
    """
    if N.max() <= 1:  # each vertex has its one basis vector: the rows stay, every index is 0
        return {**t, **dict.fromkeys(vertices, np.zeros((), dtype=np.uint8))}
    sizes = [_size(N, t, vertex) for vertex in vertices]
    count = np.prod(sizes, axis=0)
    row = np.repeat(np.arange(count.size), count)
    pos = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    t = _rows(t, row)
    for vertex, size in reversed(list(zip(vertices, sizes))):
        size = size[row]
        t[vertex] = _small(pos % size)
        pos = pos // size
    return t


def _size(N: np.ndarray, t: dict, vertex: str) -> np.ndarray:
    """N at the named vertex, on every row."""
    x, y, z = (t[v] for v in vertex)
    return np.take(N, (x.astype(np.intp) * len(N) + y) * len(N) + z)  # faster than N[x, y, z]


def _small(col: np.ndarray) -> np.ndarray:
    """The column in the smallest type that fits."""
    return col.astype(np.min_scalar_type(col.max(initial=0)))


def _block(lay: _Layout, instances: dict, lhs: tuple, rhs: tuple) -> tuple:
    """A block, (instance count, lhs, rhs, at), from its instances and per side the term
    table and the value offset of each factor, in table order; the tables carry the
    ``instance`` column of the instances.

    The block order of the instances puts those with most lhs terms first, then those
    with most rhs terms, stable; ``at`` is the place of every instance in it (None: the
    instance order).  A side is ``(offset rows, runs)``: the rows hold pass 0, the first
    term of every instance that has one, in block order, then pass 1, every second term,
    and so on; a run is a (start, stop) of block places that one pass covers, in row
    order.  The instances with more than k terms of a side lead each group of equal lhs
    count, so a pass is at most one run per group.
    """
    n = len(instances["a"])
    counts = [np.bincount(t["instance"], None, n) for t, *_ in (lhs, rhs)]
    nl, nr = (count.max(initial=0) + 1 for count in counts)  # lhs counts < nl, rhs < nr
    key = counts[0] * nr + counts[1]
    order = at = None
    if (key[1:] > key[:-1]).any():
        last = nl * nr - 1
        order = np.argsort((last - key).astype(_index_type(last + 1)), kind="stable")  # radix
        at = np.empty(n, _index_type(n))
        at[order] = np.arange(n)
    # tally[g, j]: the instances of group g (equal lhs count, most first) with the j-th
    # largest rhs count; the same table for lhs counts is diagonal
    tally = np.bincount(key, None, nl * nr).reshape(nl, nr)[::-1, ::-1]
    size = tally.sum(axis=1)
    start = (np.cumsum(size) - size).tolist()  # the first place of every group
    index, sides = _index_type(lay.size), []
    for (_, *offsets), count, table in zip((lhs, rhs), counts, (np.diag(size), tally)):
        # more[k][g]: the instances of group g with more than k terms, which lead the group
        more = np.cumsum(table[:, :-1], axis=1)[:, ::-1].T.tolist()
        first = np.zeros(n, np.intp)  # the first term of every instance
        np.cumsum(count[:-1], out=first[1:])
        first = first if order is None else np.take(first, order)
        runs, parts = [], [first[:0]]  # no array to join for a side without terms
        for k, row in enumerate(more):
            for place, length in zip(start, row):
                if length:
                    part = first[place : place + length]  # the k-th terms of these places
                    parts.append(part + k if k else part)
                    if runs and runs[-1][1] == place:  # adjacent: one run
                        runs[-1] = runs[-1][0], place + length
                    else:
                        runs.append((place, place + length))
        rows = np.stack(offsets, dtype=index, casting="unsafe")  # every offset fits
        sides.append((np.take(rows, np.concatenate(parts), axis=1), runs))
    return n, *sides, at


def _f_values(data: CategoryData) -> np.ndarray:
    """The F entries, flat in ``_Layout`` order."""
    return _flat(data.ring, _held(data, "F"), "F")


def _with_r(data: CategoryData, f: np.ndarray, direction: str) -> np.ndarray:
    """The F entries ``f``, then the R entries for ``direction``, flat in ``_Layout`` order."""
    _check_commutative(data.ring)
    return np.concatenate([f, _flat(data.ring, _held(data, "R"), "R", direction != "braid")])


def _check_commutative(ring: FusionRing):
    """A braiding needs a commutative ring: InputError names the first (a, b, c) where
    N[a,b,c] != N[b,a,c].  The hexagons and ``ribbon_modular._derive`` check it first."""
    N = ring.N
    bad = np.argwhere(N != N.transpose(1, 0, 2))
    if len(bad):
        a, b, c = bad[0].tolist()
        raise InputError(f"fusion ring is not commutative: N[{a},{b},{c}] = {N[a, b, c]} but "
                         f"N[{b},{a},{c}] = {N[b, a, c]}, and a braiding needs a commutative ring")


def _flat(ring: FusionRing, table: dict, kind: str, invert: bool = False) -> np.ndarray:
    """The entries of an F or R table in ``_Layout`` order (R counted from its first), read from
    its stacks (``_table_stacks``); with ``invert``, R[x,y,z] is the inverse of R[y,x,z]."""
    stacks, stacking = _table_stacks(ring, table, kind), _stacking(ring, kind)
    stacks = list(map(_inverse, stacks)) if invert else stacks
    order = stacking.inverse_order if invert else stacking.order
    flat = np.concatenate([stack.ravel() for stack in stacks])
    flat = flat if order is None else np.take(flat, order)
    return flat.astype(complex, copy=False)


def _inverse(stack: np.ndarray) -> np.ndarray:
    """The inverse of every matrix of a stack; all NaN for a matrix that has none."""
    try:
        return np.linalg.inv(stack)
    except np.linalg.LinAlgError:  # look for the singular matrices one at a time
        if len(stack) == 1:
            return np.full(stack.shape, np.nan, dtype=complex)
        return np.concatenate([_inverse(stack[i : i + 1]) for i in range(len(stack))])


def _sum(vals: np.ndarray, side: tuple, n: int) -> np.ndarray:
    """Per instance, in block order, the sum of its terms in table order.

    The factors are multiplied left to right into new arrays by ``np.multiply``.
    A complex product can round differently when its operands are swapped or
    when it is written over one of them, and the ``*`` operator does both with a
    temporary of 256 KB or more, so a product would depend on the table's size.
    The products are pass-major (``_block``), so each run of a pass adds one slice
    of them to a slice of the zeroed sums: every instance adds its terms in table
    order, ((0 + t0) + t1) + t2, with no instance index and no scatter.
    """
    offsets, runs = side
    product = np.take(vals, offsets[0])
    for offset in offsets[1:]:
        product = np.multiply(product, np.take(vals, offset))
    out, k = np.zeros(n, dtype=complex), 0
    for start, stop in runs:
        out[start:stop] += product[k : k + stop - start]
        k += stop - start
    return out


def _residuals(vals: np.ndarray, block: tuple) -> np.ndarray:
    """|sum lhs - sum rhs| of every instance of a block, in instance order.

    A side whose sums are not all finite is rebuilt as ``real + 1j * imag``, so an
    infinite imaginary part makes the real part NaN.  A finite residual has finite sums
    on both sides, so the sides are looked at only when a residual is not finite.
    """
    n, lhs, rhs, at = block
    sums = _sum(vals, lhs, n), _sum(vals, rhs, n)
    residual = np.abs(sums[0] - sums[1])
    if not np.isfinite(residual).all():
        lhs, rhs = (s if np.isfinite(s).all() else s.real + 1j * s.imag for s in sums)
        residual = np.abs(lhs - rhs)
    return residual if at is None else np.take(residual, at)


def _worst(ring: FusionRing, identity: str, vals: np.ndarray) -> tuple[float, int | None]:
    """Largest residual of an identity and the first instance reaching it, counted over all
    blocks (None: no instance); a NaN always wins."""
    tops, first = [], 0
    for block in _coherence_tables(ring, identity):
        residual = _residuals(vals, block)
        k = int(np.argmax(residual))
        tops.append((float(residual[k]), first + k))
        first += block[0]
    if not tops:
        return 0.0, None
    return tops[int(np.argmax([res for res, _ in tops]))]


def _witness(ring: FusionRing, identity: str, instance: int | None) -> tuple:
    """The labels of one instance of an identity, built again from its cell alone; ()
    for None."""
    if instance is None:
        return ()
    totals = _cell_totals(ring, identity)
    cell = int(np.searchsorted(totals, instance, side="right"))
    if identity == "pentagon":
        t, labels = _pentagon_instances(ring.N, slice(cell, cell + 1)), "abcdwqprs"
    else:
        t, labels = _hexagon_instances(ring.N, slice(cell, cell + 1)), "abcdgf"
    row = instance - int(totals[cell]) + len(t["a"])  # the cell's instances end at its total
    return tuple(int(t[x][row]) for x in labels)


def _worst_instance(ring: FusionRing, identity: str, vals: np.ndarray) -> tuple[float, tuple]:
    """Largest residual of an identity and the labels of the first instance reaching it."""
    residual, instance = _worst(ring, identity, vals)
    return residual, _witness(ring, identity, instance)


# ---------------------------------------------------------------------------
# gauge transforms


@dataclass
class GaugeTransform:
    """Invertible basis change on each fusion multiplicity space.

    Maps (a, b, c) -> invertible N[a,b,c] x N[a,b,c] matrix.  Unit-containing
    triples (e,a,a), (a,e,a) and (a,dual(a),e) must carry the identity: those
    bases are pinned, which is what keeps the rigidity scalar and everything
    derived from it well defined.
    """

    ring: FusionRing
    matrices: dict = field(default_factory=dict)  # RKey -> ndarray

    def matrix(self, a, b, c) -> np.ndarray:
        g = self.matrices.get((a, b, c))
        if g is None:
            return np.eye(int(self.ring.N[a, b, c]), dtype=complex)
        return np.asarray(g, dtype=complex)

    def validate(self):
        """Raise InputError for the first matrix, in dict order, that is not a valid gauge.

        The matrices are checked with one SVD per size; only a flagged vertex is
        looked at on its own, to raise the error a vertex-by-vertex check would.
        """
        keys = list(self.matrices)
        a, b, c = _gauge_labels(self.ring, keys).T
        mats = list(map(_gauge_array, self.matrices.values()))
        n = self.ring.N[a, b, c]
        flagged = np.ones(len(keys), dtype=bool)  # inadmissible or misshapen until cleared
        unit = _unit_triples(self.ring, a, b, c)
        for size in set(n.tolist()) - {0}:
            pick = [i for i in np.flatnonzero(n == size).tolist()
                    if _shape(mats[i]) == (size, size)]
            if not pick:
                continue
            stack = np.stack([mats[i] for i in pick])
            pinned = np.isclose(stack, np.eye(size), atol=1e-14).all(axis=(1, 2))
            flagged[pick] = _singular(stack) | (unit[pick] & ~pinned)
        for i in np.flatnonzero(flagged).tolist():
            _check_gauge_matrix(self.ring, keys[i], mats[i])


def _gauge_labels(ring: FusionRing, keys: list) -> np.ndarray:
    """The gauge keys as a (keys, 3) label array; InputError names the first key that is not
    three label indices."""
    try:
        labels = np.array(keys).reshape(len(keys), -1)
    except ValueError:  # keys of different lengths
        labels = np.empty((0, 0))
    if labels.shape[1:] == (3,) and labels.dtype.kind in "iu":
        if ((labels >= 0) & (labels < ring.size)).all():
            return labels
    for key in keys:
        if not (
            isinstance(key, tuple)
            and len(key) == 3
            and all(isinstance(x, numbers.Integral) and 0 <= x < ring.size for x in key)
        ):
            raise InputError(f"gauge key {key!r} is not three label indices in 0..{ring.size - 1}")
    return np.array(keys, dtype=np.intp).reshape(-1, 3)


def _gauge_array(g):
    """A gauge matrix as a complex array; None when it is not an array of numbers."""
    try:
        g = np.asarray(g)
    except ValueError:  # rows of different lengths
        return None
    return None if _shape(g) is None else g.astype(complex, copy=False)


def _check_gauge_matrix(ring: FusionRing, key, g: np.ndarray | None):
    """Raise InputError when ``g`` (``_gauge_array``) is not a valid gauge matrix on vertex
    ``key``."""
    a, b, c = key
    n = int(ring.N[a, b, c])
    if n == 0:
        raise InputError(f"gauge given on inadmissible triple ({a},{b},{c})")
    if g is None:
        raise InputError(f"gauge on ({a},{b},{c}) is not an array of numbers")
    if g.shape != (n, n):
        raise InputError(f"gauge on ({a},{b},{c}) has shape {g.shape}, expected ({n},{n})")
    if _singular(g[None])[0]:
        raise InputError(f"gauge matrix on ({a},{b},{c}) is not invertible")
    if _unit_triples(ring, a, b, c) and not np.allclose(g, np.eye(n), atol=1e-14):
        raise InputError(f"gauge on unit triple ({a},{b},{c}) must be the identity")


def _unit_triples(ring: FusionRing, a, b, c):
    """Whether the basis of (a, b, c) is pinned: a or b is the unit, or c is and b = dual(a)."""
    return (a == UNIT) | (b == UNIT) | ((c == UNIT) & (b == ring.dual[a]))


def random_gauge(ring: FusionRing, seed: int) -> GaugeTransform:
    """Seeded random admissible gauge: Haar unitary per non-unit triple.

    One normal draw covers every vertex, in vertex order with the real then
    the imaginary parts of each matrix, and the QR runs once per matrix size.
    """
    if isinstance(seed, bool) or not isinstance(seed, (int, np.integer)) or seed < 0:
        raise InputError(f"gauge seed must be a non-negative integer, got {seed!r}")
    rng = np.random.default_rng(seed)
    vertices = np.argwhere(ring.N > 0)
    vertices = vertices[~_unit_triples(ring, *vertices.T)]
    n = ring.N[tuple(vertices.T)]
    start = np.cumsum(2 * n * n) - 2 * n * n  # of the real parts; the imaginary parts follow
    z = rng.standard_normal(int(2 * (n * n).sum()))
    keys = list(map(tuple, vertices.tolist()))
    mats = dict.fromkeys(keys)
    for size in sorted(set(n.tolist())):
        pick = np.flatnonzero(n == size)
        at = start[pick, None, None] + np.arange(size * size).reshape(size, size)
        qmat, rmat = np.linalg.qr(z[at] + 1j * z[at + size * size])
        diag = np.diagonal(rmat, axis1=1, axis2=2)
        qmat = qmat * (diag / np.abs(diag))[:, None, :]
        mats.update(zip(map(keys.__getitem__, pick.tolist()), qmat))
    return GaugeTransform(ring=ring, matrices=mats)


def gauge_transform(data: CategoryData, gauge: GaugeTransform) -> CategoryData:
    """Conjugate the symbol data by a basis change of the fusion spaces.

    Per block, F'[a,b,c,d;e,f] = (g[b,c,e] (x) g[a,e,d]) F (g[a,b,f]^-1 (x) g[f,c,d]^-1)
    and R'[a,b,c] = inv(g[a,b,c])^T R[a,b,c] g[b,a,c]^T; the blocks of one
    shape are conjugated together.  The ring object is shared, not copied.
    """
    if gauge.ring is not data.ring and gauge.ring != data.ring:
        raise InputError("gauge transform built for a different fusion ring")
    gauge.validate()
    ring = data.ring
    vertices, groups, slot = _cached(ring, "vertex slots", lambda: _vertex_slots(ring))
    given = list(map(gauge.matrices.get, vertices))
    g, gi = {}, {}  # the vertex matrices and their inverses stacked by size n, in slot order
    for n, pick in groups.items():
        eye = np.eye(n, dtype=complex)
        g[n] = np.array([eye if given[i] is None else given[i] for i in pick], dtype=complex)
        gi[n] = np.linalg.inv(g[n])  # each vertex inverted once
    f_stacks, r_stacks = (zip(_table_stacks(ring, _held(data, kind), kind),
                              _stacking(ring, kind).groups) for kind in "FR")
    F = [
        np.einsum("xij,xkl,xjlmn,xmo,xnp->xikop", g[n1][s1], g[n2][s2], x, gi[n3][s3], gi[n4][s4])
        for x, ((n1, n2, n3, n4), (s1, s2, s3, s4), *_) in f_stacks
    ]
    R = [gi[n1][s1].transpose(0, 2, 1) @ x @ g[n2][s2].transpose(0, 2, 1)
         for x, ((n1, n2), (s1, s2), *_) in r_stacks]
    return replace(data, F=_stacked(ring, "F", _held(data, "F"), F),  # in the key orders of data
                   R=_stacked(ring, "R", _held(data, "R"), R),
                   weights=None if data.weights is None else data.weights.copy())


# Per table: the number of labels in a key and the fusion vertices that bound
# the multiplicity indices of a block, as positions in its key: F[a,b,c,d;e,f]
# has shape (N[b,c,e], N[a,e,d], N[a,b,f], N[f,c,d]) and R[a,b,c] has shape
# (N[a,b,c], N[b,a,c]).
_BLOCK_VERTICES = {
    "F": (6, ((1, 2, 4), (0, 4, 3), (0, 1, 5), (5, 2, 3))),
    "R": (3, ((0, 1, 2), (1, 0, 2))),
}


def _vertex_slots(ring: FusionRing) -> tuple[list, dict, np.ndarray]:
    """The fusion vertices in order; per size n, the positions of the vertices of that size;
    and the slot of every vertex among those of its size."""
    N = ring.N
    vertices, sizes = np.argwhere(N > 0), N[N > 0]
    slot = np.zeros(N.shape, dtype=np.intp)
    groups = {}
    for n in sorted(set(sizes.tolist())):
        pick = np.flatnonzero(sizes == n)
        slot[tuple(vertices[pick].T)] = np.arange(len(pick))
        groups[n] = pick.tolist()
    return list(map(tuple, vertices.tolist())), groups, slot


# ---------------------------------------------------------------------------
# symbol tables stored as per-shape stacks, read in one pass instead of key by key


class _Stacked(dict):
    """An F or R table of every admissible key, its blocks views of ``stacks`` laid out as
    ``stacking`` and its keys in the order of the list ``order``.  A method that changes the
    table drops them; readers then gather it."""

    stacking = stacks = order = None

    def __reduce__(self):  # a copy or pickle holds new arrays, not views: a plain dict
        return dict, (dict(self),)


def _dropping(method):
    def drop(self, *args, **kwargs):
        self.stacking = self.stacks = self.order = None
        return method(self, *args, **kwargs)

    return drop


for _name in "__setitem__ __delitem__ pop popitem clear update setdefault __ior__".split():
    setattr(_Stacked, _name, _dropping(getattr(dict, _name)))


# An unread F or R table: its stacks, laid out as the ring's ``_stacking``, and its keys in the
# order of the list ``order``.  ``CategoryData`` keeps it aside until the table is first read.
_Stacks = namedtuple("_Stacks", "stacks order")


def _held(data: CategoryData, kind: str):
    """The F or R table of ``data`` as readers take it: the dict once read or assigned, else
    the unread ``_Stacks``."""
    unread = vars(data).get("_unread_" + kind)  # looked at first: it goes once the dict is kept
    return vars(data).get(kind, unread)


class _Stacking:
    """One stack per block shape, in sorted order, of its blocks in admissible-key order:
    ``admissible`` keys, their ``shapes``, the ``keys`` in stack order; per stack (``groups``)
    the shape, the slot of each block's vertex per vertex of ``_BLOCK_VERTICES``, the
    ``_Layout`` offset of each entry and each block's place among the admissible keys; where
    each entry in ``_Layout`` order is among the stacked ones, or those of the inverse R blocks
    (``order``, ``inverse_order``; None: in place); R[y,x,z]'s offset per R[x,y,z] (``swapped``)."""

    def __init__(self, ring: FusionRing, kind: str):
        keys = admissible_f_keys(ring) if kind == "F" else admissible_r_keys(ring)
        self.admissible, vertices = keys, _BLOCK_VERTICES[kind][1]
        slot = _cached(ring, "vertex slots", lambda: _vertex_slots(ring))[2]
        labels = _key_labels(ring, kind)
        at = [tuple(labels[i] for i in vertex) for vertex in vertices]
        dims = [ring.N[v] for v in at]
        self.shapes = list(zip(*(x.tolist() for x in dims)))
        shapes = sorted(set(self.shapes))
        picks = [np.flatnonzero(np.logical_and.reduce([n == k for n, k in zip(dims, shape)]))
                 for shape in shapes]
        self.keys = list(map(keys.__getitem__, itertools.chain(*(x.tolist() for x in picks))))
        size = np.prod(dims, axis=0)
        start = np.cumsum(size) - size  # of every block, in _Layout order

        def entries(first):  # per stack, the offset of every entry when block i starts at first[i]
            return [first[x, None] + np.arange(math.prod(shape)) for x, shape in zip(picks, shapes)]

        def order(first):
            at = np.concatenate([np.empty(0, dtype=np.intp)] + [x.ravel() for x in entries(first)])
            return None if np.array_equal(at, np.arange(at.size)) else np.argsort(at)

        self.groups = [(shape, [slot[v][x] for v in at], offsets, x)
                       for shape, x, offsets in zip(shapes, picks, entries(start))]
        self.order, self.inverse_order = order(start), None
        if kind == "R":  # the inverse of R[y,x,z] fills the block of R[x,y,z]
            (a, b, c), m = labels, ring.size
            self.swapped = start[np.searchsorted((a * m + b) * m + c, (b * m + a) * m + c)]
            self.inverse_order = order(self.swapped)


def _stacking(ring: FusionRing, kind: str) -> _Stacking:
    return _cached(ring, f"{kind} stacks", lambda: _Stacking(ring, kind))


def _stacked_on(ring: FusionRing, table, kind: str) -> bool:
    """Whether ``table`` is unread, or a stacked table laid out by the ring's plan."""
    return isinstance(table, _Stacks) or (isinstance(table, _Stacked)
                                          and table.stacking is _stacking(ring, kind))


def _stacked(ring: FusionRing, kind: str, order, stacks: list) -> _Stacks:
    """An unread table of ``stacks``, keys ordered as ``order``: a key list, or a held table."""
    return _Stacks(stacks, order.order if _stacked_on(ring, order, kind) else list(order))


def _table_stacks(ring: FusionRing, table, kind: str) -> list:
    """The stacks of a held F or R table, as every reader and the writer take it: an unread or
    stacked table's own; any other's gathered from its keys, exactly the admissible ones.  The
    first missing key in admissible order raises IncompleteData, as ``f_block`` does; then the
    first other key, in the table's order, the first block that is not an array of numbers
    (``_shape``) and a block of the wrong shape raise InputError."""
    if _stacked_on(ring, table, kind):
        return table.stacks
    stacking = _stacking(ring, kind)
    try:
        blocks = list(map(table.__getitem__, stacking.admissible))
    except KeyError as exc:
        raise IncompleteData(exc.args[0], kind=kind) from None
    if len(table) != len(blocks):  # every admissible key is there, so some other key is too
        admissible = set(stacking.admissible)
        key = next(key for key in table if key not in admissible)
        raise InputError(f"{kind} entry present for inadmissible tuple {key!r}")
    shapes = list(map(_shape, blocks))
    if None in shapes:
        key = stacking.admissible[shapes.index(None)]
        raise InputError(f"{kind} block {key} is not an array of numbers")
    if shapes != stacking.shapes:
        raise InputError("F/R blocks do not have their admissible shapes")
    return [np.stack([blocks[i] for i in at.tolist()]) for _, _, _, at in stacking.groups]


def _copied(ring: FusionRing, table, kind: str):
    """A held table with copies of the blocks; an unread or stacked table gives an unread one."""
    if _stacked_on(ring, table, kind):
        return _stacked(ring, kind, table, [stack.copy() for stack in table.stacks])
    return {key: block.copy() for key, block in table.items()}


def coherence_summary(data: CategoryData) -> dict:
    """All coherence residuals in one dict (pentagon, hexagons, triangle), with the labels
    of each identity's worst instance under ``<name>_worst``.

    The F entries are gathered once and shared by every identity.
    """
    summary = _coherence(data)
    for name, identity in (("pentagon", "pentagon"), ("hexagon_braid", "hexagon"),
                           ("hexagon_inverse", "hexagon")):
        summary[name + "_worst"] = _witness(data.ring, identity, summary[name + "_worst"])
    return summary


def _coherence(data: CategoryData) -> dict:
    """``coherence_summary`` with the index of each worst instance in place of its labels,
    so that no witness is built."""
    ring, f = data.ring, _f_values(data)
    pent, pent_at = _worst(ring, "pentagon", f)
    hex1, hex1_at = _worst(ring, "hexagon", _with_r(data, f, "braid"))
    hex2, hex2_at = _worst(ring, "hexagon", _with_r(data, f, "inverse_braid"))
    return {
        "pentagon": pent,
        "pentagon_worst": pent_at,
        "hexagon_braid": hex1,
        "hexagon_braid_worst": hex1_at,
        "hexagon_inverse": hex2,
        "hexagon_inverse_worst": hex2_at,
        "triangle": _triangle(ring, f),
    }
