"""Reference oracles: per-instance loops, the row-copying table builders, the
per-tuple symbol validation and the dense gauge transform.

These are the original block-by-block evaluations of the pentagon and both
hexagons, one ``einsum`` per instance over the multiplicity indices.  They
are slow (Python loops over every label tuple) but independent of the
instance tables in ``mtcat.category_data``, so the tests compare the two:
residuals to round-off and the same worst instance; ``triangle_residual``
walks the unit-containing F blocks one at a time.  ``pentagon_tables`` and
``hexagon_tables`` build the instance tables the first way they were built,
copying every column at every step and computing offsets in the platform
integer, against the copy-free tables of the package.  ``validate_symbols``
checks one key, block and fusing matrix at a time, against the stacked
checks of the package.  ``rigidity_scalar`` and ``f_inverse_unit_check``
read one dense ``f_matrix`` per label, against the pairing matrices that the
package reads from its stacked fusing view.  ``modular_loops``
computes the twists, the ribbon residual and both S-matrix routes one label
pair and channel at a time, against the array helpers of
``mtcat.ribbon_modular``.  ``gauge_transform`` conjugates each whole fusing
matrix by dense block-diagonal gauges, against the block-by-block transform
of the package.  ``random_gauge`` draws and factors one vertex matrix at a
time and ``validate_gauge`` checks one vertex at a time, against the draw and
the QR and SVD per matrix size of the package.  ``unblocked_tables`` holds
the tables of each leading label whole, and ``residuals`` and
``worst_instance`` evaluate them one table at a time, against the blocks of
whole instances that the package evaluates; ``concatenated`` joins either
into one table whose terms count their instance from the first of all.
``labelled_blocks`` gives the package's blocks their label rows back, built
again by the package from each block's cells, and their terms back in table
order with an instance row (``table_order``), for comparison with the rows of
``unblocked_tables``.
"""

import numpy as np

from mtcat.category_data import (
    CategoryData,
    GaugeTransform,
    admissible_f_keys,
    admissible_r_keys,
    f_block_shape,
    f_matrix,
    fusion_vertices,
)
from mtcat.errors import InputError, RigidityDegenerate
from mtcat.fusion_ring import UNIT
from mtcat.ribbon_modular import monodromy, quantum_dimensions


def rigidity_scalar(data: CategoryData, a, tol: float = 1e-12) -> complex:
    ring = data.ring
    lm = f_matrix(data, a, int(ring.dual[a]), a, a)
    try:
        i = lm.row_index.index((UNIT, 0, 0))
        j = lm.col_index.index((UNIT, 0, 0))
    except ValueError:
        raise RigidityDegenerate(f"label {a} has no unit channel with its dual") from None
    value = complex(lm.matrix[i, j])
    if abs(value) < tol:
        raise RigidityDegenerate(
            f"unit-channel fusing element for label {a} has modulus {abs(value):.3e}"
        )
    return value


def f_inverse_unit_check(data: CategoryData, a) -> float:
    ring = data.ring
    lm = f_matrix(data, a, int(ring.dual[a]), a, a)
    i = lm.row_index.index((UNIT, 0, 0))
    j = lm.col_index.index((UNIT, 0, 0))
    try:
        inv = np.linalg.inv(lm.matrix)
    except np.linalg.LinAlgError:
        raise InputError(f"fusing matrix of ({a}, dual, {a}, {a}) is singular") from None
    return float(abs(inv[j, i] - lm.matrix[i, j]))


def triangle_residual(data: CategoryData) -> float:
    worst = 0.0
    for key, block in data.F.items():
        if 0 not in key[:3]:
            continue
        nr = block.shape[0] * block.shape[1]
        nc = block.shape[2] * block.shape[3]
        worst = np.maximum(worst, np.abs(block.reshape(nr, nc) - np.eye(nr, nc)).max())
    return float(worst)


def pentagon_residual(data: CategoryData) -> tuple[float, tuple]:
    ring = data.ring
    N = ring.N
    m = ring.size
    worst = 0.0
    worst_tuple = ()
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    for w in range(m):
                        res, tup = _pentagon_group(data, N, m, a, b, c, d, w)
                        if res > worst:
                            worst, worst_tuple = res, tup
    return worst, worst_tuple


def _pentagon_group(data: CategoryData, N, m, a, b, c, d, w):
    """One (a,b,c,d,w) family of pentagon instances, blockwise."""
    worst = 0.0
    worst_tuple = ()
    for q in range(m):
        if not N[c, d, q]:
            continue
        for p in range(m):
            if not (N[b, q, p] and N[a, p, w]):
                continue
            for r in range(m):
                if not N[a, b, r]:
                    continue
                for s in range(m):
                    if not (N[r, c, s] and N[s, d, w]):
                        continue
                    if N[r, q, w]:
                        B1 = data.f_block(a, b, q, w, p, r)  # (j, i, g, x)
                        B2 = data.f_block(r, c, d, w, q, s)  # (m, x, s, t)
                        lhs = np.einsum("jigx,mxst->mjigst", B1, B2)
                    else:
                        lhs = None  # empty sum over the (r,q) channel
                    rhs = None
                    for t in range(m):
                        if not (N[b, c, t] and N[t, d, p] and N[a, t, s]):
                            continue
                        A = data.f_block(b, c, d, p, q, t)  # (m, j, l, k)
                        B = data.f_block(a, t, d, w, p, s)  # (k, i, u, t)
                        C = data.f_block(a, b, c, s, t, r)  # (l, u, g, s)
                        term = np.einsum("mjlk,kiut,lugs->mjigst", A, B, C)
                        rhs = term if rhs is None else rhs + term
                    if lhs is None and rhs is None:
                        continue
                    if lhs is None:
                        diff = np.abs(rhs).max()
                    elif rhs is None:
                        diff = np.abs(lhs).max()
                    else:
                        diff = np.abs(lhs - rhs).max()
                    if diff > worst:
                        worst = float(diff)
                        worst_tuple = (a, b, c, d, w, q, p, r, s)
    return worst, worst_tuple


def _r_entry(data: CategoryData, direction: str, x, y, z) -> np.ndarray:
    if direction == "braid":
        return data.r_block(x, y, z)
    return np.linalg.inv(data.r_block(y, x, z))


def hexagon_residual(data: CategoryData, direction: str = "braid") -> tuple[float, tuple]:
    ring = data.ring
    N = ring.N
    m = ring.size
    worst = 0.0
    worst_tuple = ()
    for a in range(m):
        for b in range(m):
            for c in range(m):
                for d in range(m):
                    gs = [g for g in range(m) if N[c, a, g] and N[b, g, d]]
                    fs = [f for f in range(m) if N[a, b, f] and N[f, c, d]]
                    for g in gs:
                        for f in fs:
                            lhs = None
                            for h in range(m):
                                if not (N[b, c, h] and N[h, a, d] and N[a, h, d]):
                                    continue
                                B1 = data.f_block(b, c, a, d, g, h)  # (p, t, s, k)
                                Rah = _r_entry(data, direction, a, h, d)  # (b, k)
                                B2 = data.f_block(a, b, c, d, h, f)  # (s, b, g, d)
                                term = np.einsum("ptsk,bk,sbgd->ptgd", B1, Rah, B2)
                                lhs = term if lhs is None else lhs + term
                            if not (N[a, c, g] and N[b, a, f]):
                                rhs = None
                            else:
                                Racg = _r_entry(data, direction, a, c, g)  # (l, p)
                                B3 = data.f_block(b, a, c, d, g, f)  # (l, t, m, d)
                                Rabf = _r_entry(data, direction, a, b, f)  # (g, m)
                                rhs = np.einsum("lp,ltmd,gm->ptgd", Racg, B3, Rabf)
                            if lhs is None and rhs is None:
                                continue
                            if lhs is None:
                                diff = np.abs(rhs).max()
                            elif rhs is None:
                                diff = np.abs(lhs).max()
                            else:
                                diff = np.abs(lhs - rhs).max()
                            if diff > worst:
                                worst = float(diff)
                                worst_tuple = (a, b, c, d, g, f)
    return worst, worst_tuple


def modular_loops(data: CategoryData) -> dict:
    """Twists, ribbon residual and the trace and balanced S~, one channel at a time."""
    ring = data.ring
    m = ring.size
    dims = quantum_dimensions(data)
    th = np.zeros(m, dtype=complex)
    for a in range(m):
        total = 0.0 + 0.0j
        for c in ring.channels(a, a):
            total += dims[c] * np.trace(data.r_block(a, a, int(c)))
        th[a] = total / dims[a]
    ribbon = 0.0
    s_trace = np.zeros((m, m), dtype=complex)
    s_balanced = np.zeros((m, m), dtype=complex)
    for a in range(m):
        for b in range(m):
            for c in ring.channels(a, b):
                c = int(c)
                M = monodromy(data, a, b, c)
                dev = np.abs(th[c] * np.eye(M.shape[0]) - th[a] * th[b] * M).max()
                ribbon = np.maximum(ribbon, dev)
                s_trace[a, b] += dims[c] * np.trace(M)
                s_balanced[a, b] += ring.N[a, b, c] * dims[c] * th[c]
            s_balanced[a, b] /= th[a] * th[b]
    return {
        "twists": th,
        "ribbon": float(ribbon),
        "s_trace": s_trace,
        "s_balanced": s_balanced,
    }


def gauge_transform(data: CategoryData, gauge) -> CategoryData:
    """F'[a,b,c,d] = (block-diagonal row gauge) F (block-diagonal column gauge)^-1."""
    N = data.ring.N
    grouped = {}
    for key in data.F:
        grouped.setdefault(key[:4], []).append(key)
    newF = {}
    for (a, b, c, d), keys in grouped.items():
        es = sorted({k[4] for k in keys})
        fs = sorted({k[5] for k in keys})
        lm = f_matrix(data, a, b, c, d)
        row_g = _block_diag(
            [np.kron(gauge.matrix(b, c, e), gauge.matrix(a, e, d)) for e in es]
        )
        col_g = _block_diag(
            [np.kron(gauge.matrix(a, b, f), gauge.matrix(f, c, d)) for f in fs]
        )
        new = row_g @ lm.matrix @ np.linalg.inv(col_g)
        rpos = 0
        for e in es:
            rcount = N[b, c, e] * N[a, e, d]
            cpos = 0
            for f in fs:
                ccount = N[a, b, f] * N[f, c, d]
                newF[(a, b, c, d, e, f)] = new[rpos : rpos + rcount, cpos : cpos + ccount].reshape(
                    N[b, c, e], N[a, e, d], N[a, b, f], N[f, c, d]
                )
                cpos += ccount
            rpos += rcount
    newR = {
        (a, b, c): np.linalg.inv(gauge.matrix(a, b, c)).T @ block @ gauge.matrix(b, a, c).T
        for (a, b, c), block in data.R.items()
    }
    return CategoryData(ring=data.ring, F=newF, R=newR)


def random_gauge(ring, seed: int) -> GaugeTransform:
    """One standard-normal draw and one QR per non-unit vertex, in vertex order."""
    rng = np.random.default_rng(seed)
    mats = {}
    for (a, b, c) in fusion_vertices(ring):
        if a == UNIT or b == UNIT or (c == UNIT and b == ring.dual[a]):
            continue
        n = int(ring.N[a, b, c])
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        qmat, rmat = np.linalg.qr(z)
        qmat = qmat * (np.diagonal(rmat) / np.abs(np.diagonal(rmat)))
        mats[(a, b, c)] = qmat
    return GaugeTransform(ring=ring, matrices=mats)


def validate_gauge(gauge, cond_tol: float = 1e-12):
    """Check one vertex at a time, in dict order; raise at the first bad one."""
    ring = gauge.ring
    for (a, b, c), g in gauge.matrices.items():
        n = int(ring.N[a, b, c])
        if n == 0:
            raise InputError(f"gauge given on inadmissible triple ({a},{b},{c})")
        g = np.asarray(g)
        if not _numbers(g):
            raise InputError(f"gauge on ({a},{b},{c}) is not an array of numbers")
        if g.shape != (n, n):
            raise InputError(f"gauge on ({a},{b},{c}) has shape {g.shape}, expected ({n},{n})")
        if _singular(g, cond_tol):
            raise InputError(f"gauge matrix on ({a},{b},{c}) is not invertible")
        unit = a == UNIT or b == UNIT or (c == UNIT and b == ring.dual[a])
        if unit and not np.allclose(g, np.eye(n), atol=1e-14):
            raise InputError(f"gauge on unit triple ({a},{b},{c}) must be the identity")


def _block_diag(blocks):
    n = sum(b.shape[0] for b in blocks)
    k = sum(b.shape[1] for b in blocks)
    out = np.zeros((n, k), dtype=complex)
    i = j = 0
    for b in blocks:
        out[i : i + b.shape[0], j : j + b.shape[1]] = b
        i += b.shape[0]
        j += b.shape[1]
    return out


def _numbers(block) -> bool:
    """Whether a block is an ndarray of numbers; bool is not a number."""
    return isinstance(block, np.ndarray) and block.dtype.kind in "iufc"


def _singular(mat, cond_tol) -> bool:
    """Whether a matrix is not invertible; one with an entry that is not finite is not."""
    if not np.isfinite(mat).all():
        return True
    sv = np.linalg.svd(mat, compute_uv=False)
    return sv[-1] <= cond_tol * max(sv[0], 1.0)


def validate_symbols(data: CategoryData, cond_tol: float = 1e-12) -> list[tuple]:
    problems = []
    ring = data.ring
    want_f = set(admissible_f_keys(ring))
    have_f = set(data.F)
    for key in sorted(want_f - have_f):
        problems.append(("missing-F", key, "admissible F entry absent"))
    for key in sorted(have_f - want_f):
        problems.append(("extra-F", key, "F entry present for inadmissible tuple"))
    for key in sorted(want_f & have_f):
        shape = f_block_shape(ring, *key)
        if not _numbers(data.F[key]):
            problems.append(("type-F", key, "block is not an array of numbers"))
        elif data.F[key].shape != shape:
            problems.append(("shape-F", key, f"block shape {data.F[key].shape}, expected {shape}"))
    want_r = set(admissible_r_keys(ring))
    have_r = set(data.R)
    for key in sorted(want_r - have_r):
        problems.append(("missing-R", key, "admissible R entry absent"))
    for key in sorted(have_r - want_r):
        problems.append(("extra-R", key, "R entry present for inadmissible tuple"))
    for key in sorted(want_r & have_r):
        a, b, c = key
        shape = (int(ring.N[a, b, c]), int(ring.N[b, a, c]))
        block = data.R[key]
        if not _numbers(block):
            problems.append(("type-R", key, "block is not an array of numbers"))
        elif block.shape != shape:
            problems.append(("shape-R", key, f"block shape {block.shape}, expected {shape}"))
        elif shape[0] == shape[1] and shape[0] > 0 and _singular(block, cond_tol):
            problems.append(("singular-R", key, "braiding block is not invertible"))
    if not problems:
        for (a, b, c, d) in sorted({k[:4] for k in want_f}):
            if _singular(f_matrix(data, a, b, c, d).matrix, cond_tol):
                problems.append(("singular-F", (a, b, c, d), "fusing matrix is not invertible"))
    return problems


def pentagon_tables(N, lay, a):
    """(witnesses, lhs, rhs) of the pentagon instances with leading label a."""
    E = N > 0
    into = E.transpose(1, 2, 0)
    t = _grid(N, a, "bcdw")
    t = _labels(t, "q", E[t["c"], t["d"]])
    t = _labels(t, "p", E[t["b"], t["q"]] & E[t["a"], :, t["w"]])
    t = _labels(t, "r", E[t["a"], t["b"]])
    t = _labels(t, "s", E[t["r"], t["c"]] & into[t["d"], t["w"]])
    t = _vectors(N, t, "cdq", "bqp", "apw", "abr", "rcs", "sdw")
    t["instance"] = np.arange(len(t["a"]))
    lhs = _vectors(N, t, "rqw")
    rhs = _labels(t, "t", E[t["b"], t["c"]] & into[t["d"], t["p"]] & E[t["a"], :, t["s"]])
    rhs = _vectors(N, rhs, "bct", "tdp", "ats")
    f = _offset_f
    return (
        np.stack([t[x] for x in "abcdwqprs"], axis=1),
        _terms(lhs, f(lay, lhs, "abqwpr"), f(lay, lhs, "rcdwqs")),
        _terms(rhs, f(lay, rhs, "bcdpqt"), f(lay, rhs, "atdwps"), f(lay, rhs, "abcstr")),
    )


def hexagon_tables(N, lay, a):
    """(witnesses, lhs, rhs) of the hexagon instances with leading label a."""
    E = N > 0
    into = E.transpose(1, 2, 0)
    t = _grid(N, a, "bcd")
    t = _labels(t, "g", E[t["c"], t["a"]] & E[t["b"], :, t["d"]])
    t = _labels(t, "f", E[t["a"], t["b"]] & into[t["c"], t["d"]])
    t = _vectors(N, t, "cag", "bgd", "abf", "fcd")
    t["instance"] = np.arange(len(t["a"]))
    lhs = _labels(t, "h", E[t["b"], t["c"]] & into[t["a"], t["d"]] & E[t["a"], :, t["d"]])
    lhs = _vectors(N, lhs, "bch", "had", "ahd")
    rhs = _vectors(N, t, "acg", "baf")
    f, r = _offset_f, _offset_r
    return (
        np.stack([t[x] for x in "abcdgf"], axis=1),
        _terms(lhs, f(lay, lhs, "bcadgh"), r(lay, lhs, "ahd"), f(lay, lhs, "abcdhf")),
        _terms(rhs, r(lay, rhs, "acg"), f(lay, rhs, "bacdgf"), r(lay, rhs, "abf")),
    )


def _offset_f(lay, t, key):
    a, b, c, d, e, f = key
    al, be, ga, de = (t[v] for v in (b + c + e, a + e + d, a + b + f, f + c + d))
    a, b, c, d, e, f = (t[x].astype(np.intp) for x in key)
    m, N = lay.m, lay.N.astype(np.intp)
    abcd = ((a * m + b) * m + c) * m + d
    row_band, col_band = abcd * m + e, abcd * m + f
    return (
        lay.band[row_band].astype(np.intp)
        + lay.rows[row_band].astype(np.intp) * lay.col_start[col_band]
        + (al * N[(a * m + e) * m + d] + be) * lay.cols[col_band]
        + ga * N[(f * m + c) * m + d]
        + de
    )


def _offset_r(lay, t, key):
    x, y, z = key
    al, be = t[x + y + z], t[y + x + z]
    x, y, z = (t[v].astype(np.intp) for v in key)
    m = lay.m
    return lay.r_start[(x * m + y) * m + z].astype(np.intp) + al * lay.N[(y * m + x) * m + z] + be


def _grid(N, a, labels):
    small = np.min_scalar_type(len(N))
    grid = np.indices((len(N),) * len(labels), dtype=small).reshape(len(labels), -1)
    return dict(zip(labels, grid), a=np.full(grid.shape[1], a, dtype=small))


def _labels(t, name, allowed):
    row, label = np.nonzero(allowed)
    return _grow(t, row, {name: label})


def _vectors(N, t, *vertices):
    sizes = [N[t[x], t[y], t[z]] for x, y, z in vertices]
    count = np.prod(sizes, axis=0)
    row = np.repeat(np.arange(count.size), count)
    pos = np.arange(row.size) - np.repeat(np.cumsum(count) - count, count)
    new = {}
    for vertex, size in reversed(list(zip(vertices, sizes))):
        size = size[row]
        new[vertex] = pos % size
        pos = pos // size
    return _grow(t, row, new)


def _grow(t, row, new):
    """Rows ``row`` of ``t`` plus the ``new`` columns: every column is copied."""
    out = {name: col[row] for name, col in t.items()}
    for name, col in new.items():
        out[name] = col.astype(np.min_scalar_type(col.max(initial=0)))
    return out


def _terms(t, *offsets):
    return np.stack([t["instance"], *offsets]).astype(np.int32)


def unblocked_tables(ring, identity):
    """(witnesses, lhs, rhs) per leading label with instances, as built before blocking."""
    from mtcat.category_data import _layout

    build = pentagon_tables if identity == "pentagon" else hexagon_tables
    chunks = (build(ring.N, _layout(ring), a) for a in range(ring.size))
    return [chunk for chunk in chunks if len(chunk[0])]


def _sum(vals, terms, n):
    # np.multiply into a new array, not *: numpy may write a product of 256 KB or
    # more over the right-hand temporary, operands swapped, which can round otherwise
    instance, *offsets = terms
    product = np.take(vals, offsets[0])
    for offset in offsets[1:]:
        product = np.multiply(product, np.take(vals, offset))
    return np.bincount(instance, product.real, n) + 1j * np.bincount(instance, product.imag, n)


def residuals(vals, chunk):
    witnesses, lhs, rhs = chunk
    n = len(witnesses)
    return np.abs(_sum(vals, lhs, n) - _sum(vals, rhs, n))


def worst_instance(chunks, vals):
    """Largest residual and the first instance reaching it; a NaN always wins."""
    tops = []
    for witnesses, lhs, rhs in chunks:
        residual = residuals(vals, (witnesses, lhs, rhs))
        k = int(np.argmax(residual))
        tops.append((float(residual[k]), tuple(int(x) for x in witnesses[k])))
    if not tops:
        return 0.0, ()
    return tops[int(np.argmax([res for res, _ in tops]))]


def concatenated(tables):
    """One (witnesses, lhs, rhs) of a list of them, each term's instance counted from the
    first instance of the whole list."""
    counts = [len(witnesses) for witnesses, _, _ in tables]
    first = np.cumsum(counts) - counts
    out = [np.concatenate([witnesses for witnesses, _, _ in tables])]
    for side in (1, 2):
        parts = []
        for table, start in zip(tables, first):
            part = table[side].astype(np.int64)
            part[0] += start
            parts.append(part)
        out.append(np.concatenate(parts, axis=1))
    return tuple(out)


def labelled_blocks(ring, identity):
    """The package's blocks of an identity in the shape of ``unblocked_tables``: each block's
    label rows built again by the package's own instance builder from the cells of its first
    to its last instance, found from the running instance totals per cell by
    ``searchsorted``, as the package finds a witness; each side's terms put back in table
    order with their instance row, by ``table_order``."""
    from mtcat import category_data as cd

    if identity == "pentagon":
        build, labels = cd._pentagon_instances, "abcdwqprs"
    else:
        build, labels = cd._hexagon_instances, "abcdgf"
    totals, out, first = cd._cell_totals(ring, identity), [], 0
    for n, lhs, rhs, at in cd._coherence_tables(ring, identity):
        start, last = np.searchsorted(totals, [first, first + n - 1], side="right").tolist()
        t = build(ring.N, slice(start, last + 1))
        out.append((np.stack([t[x] for x in labels], axis=1), table_order(lhs, at, n),
                    table_order(rhs, at, n)))
        first += n
    return out


def table_order(side, at, n):
    """A side of a package block as the instance row and the offset rows of its terms in
    table order.

    The runs, read in order, give the block place of every term in the order of the
    offset rows; ``at`` turns a place back into its instance.  A stable sort by instance
    then keeps the terms of one instance in the order the package adds them.
    """
    offsets, runs = side
    place = np.concatenate([np.arange(start, stop) for start, stop in runs] + [np.zeros(0, int)])
    assert len(place) == offsets.shape[1] and all(0 <= s < e <= n for s, e in runs)
    assert at is None or np.array_equal(np.sort(at), np.arange(n))  # a permutation
    instance = place if at is None else np.argsort(at)[place]
    order = np.argsort(instance, kind="stable")
    return np.vstack([instance[order], offsets[:, order]])
