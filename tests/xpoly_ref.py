"""Reference composition of a form in x0..x3 with the surface map, and
pointwise evaluation.

Dense coefficient grids, multiplied by plain loops: the tests check the
oracle's equation against it as an exact identity f(g0, .., g3) = 0.
``eval_rows`` evaluates a sparse polynomial term by term over all points,
and ``coeff_vector`` lists a form's coefficients in ``monomials_of_degree``
order, which ``from_coeff_vector`` reads back.
"""

from typing import Optional, Sequence

import numpy as np

from tensurf import bipoly
from tensurf.bipoly import BiPoly, SparsePoly
from tensurf.xpoly import XPoly, monomials_of_degree


def eval_rows(f: SparsePoly, points) -> np.ndarray:
    """f at each row of an (N, 4) array of residues below 2**31: per
    coordinate a table of its powers up to the largest exponent f needs,
    then per term one product of its coefficient and four table rows,
    each factor reduced mod p."""
    p = f.p
    pts = np.asarray(points, dtype=np.int64) % p
    out = np.zeros(len(pts), dtype=np.int64)
    if not f.terms:
        return out
    top = np.array(list(f.terms)).max(axis=0)
    tables = []
    for k in range(4):
        table = np.ones((top[k] + 1, len(pts)), dtype=np.int64)
        for e in range(1, top[k] + 1):
            table[e] = table[e - 1] * pts[:, k] % p
        tables.append(table)
    for exp, c in f.terms.items():
        term = np.full(len(pts), c % p, dtype=np.int64)
        for table, e in zip(tables, exp):
            if e:
                term = term * table[e] % p
        out += term
        out %= p
    return out


def coeff_vector(f: XPoly, degree: int) -> np.ndarray:
    """Coefficients of a form of degree ``degree``, the inverse of
    ``from_coeff_vector``."""
    if not f.is_homogeneous(degree):
        raise ValueError("not homogeneous of the requested degree")
    return np.array([f.terms.get(m, 0) for m in monomials_of_degree(degree)],
                    dtype=np.int64)


def from_coeff_vector(p: int, degree: int, vec: Sequence[int]) -> XPoly:
    """The form of degree ``degree`` with coefficients ``vec`` in
    ``monomials_of_degree`` order."""
    mons = monomials_of_degree(degree)
    if len(vec) != len(mons):
        raise ValueError("coefficient vector has wrong length")
    return XPoly(p, {exp: int(c) for exp, c in zip(mons, vec)})


def grid_mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Multiply two dense coefficient grids mod p."""
    out = np.zeros((x.shape[0] + y.shape[0] - 1,
                    x.shape[1] + y.shape[1] - 1), dtype=np.int64)
    xr, xc = x.shape
    for (j, l), c in np.ndenumerate(y):
        if c:
            out[j:j + xr, l:l + xc] = (out[j:j + xr, l:l + xc] + c * x) % p
    return out


def grid_add(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    rows = max(x.shape[0], y.shape[0])
    cols = max(x.shape[1], y.shape[1])
    out = np.zeros((rows, cols), dtype=np.int64)
    out[:x.shape[0], :x.shape[1]] = x
    out[:y.shape[0], :y.shape[1]] = (out[:y.shape[0], :y.shape[1]] + y) % p
    return out


def compose_with_map(f: XPoly, gens: Sequence[BiPoly], a: int, b: int
                     ) -> np.ndarray:
    """Exact dense grid of f(g0, g1, g2, g3) dehomogenized at s = u = 1.

    Horner evaluation variable by variable; the result is the zero grid
    exactly when f vanishes identically on the image of the map.
    """
    p = f.p
    grids = [bipoly.coeff_grid(g, a, b) for g in gens]

    def rec(terms: dict, k: int) -> np.ndarray:
        if not terms:
            return np.zeros((1, 1), dtype=np.int64)
        if k == 3:
            top = max(e[3] for e in terms)
            acc = np.zeros((1, 1), dtype=np.int64)
            for e3 in range(top, 0, -1):
                c = terms.get((0, 0, 0, e3), 0)
                acc = grid_add(acc, np.array([[c]], dtype=np.int64), p)
                acc = grid_mul(acc, grids[3], p)
            tail = np.array([[terms.get((0, 0, 0, 0), 0)]], dtype=np.int64)
            return grid_add(acc, tail, p)
        top = max(e[k] for e in terms)
        acc: Optional[np.ndarray] = None
        for ek in range(top, -1, -1):
            sub = {}
            for e, c in terms.items():
                if e[k] == ek:
                    reduced = list(e)
                    reduced[k] = 0
                    sub[tuple(reduced)] = c
            part = rec(sub, k + 1)
            if acc is None:
                acc = part
            else:
                acc = grid_mul(acc, grids[k], p)
                acc = grid_add(acc, part, p)
        assert acc is not None
        return acc

    return rec(dict(f.terms), 0)


def vanishes_on_map(f: XPoly, gens: Sequence[BiPoly], a: int, b: int) -> bool:
    """Exact test that f(g0, .., g3) is identically zero."""
    return not compose_with_map(f, gens, a, b).any()
