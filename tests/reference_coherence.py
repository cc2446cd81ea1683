"""Reference oracle for the coherence engine: the per-instance loops.

These are the original block-by-block evaluations of the pentagon and both
hexagons, one ``einsum`` per instance over the multiplicity indices.  They
are slow (Python loops over every label tuple) but independent of the
instance tables in ``mtcat.category_data``, so the tests compare the two:
residuals to round-off and the same worst instance.
"""

import numpy as np

from mtcat.category_data import CategoryData


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
