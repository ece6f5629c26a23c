"""Reference resultants of binary forms: the Sylvester matrix, the
specialization of a bigraded form at a point (s0 : t0), the (u, v)-resultant
of two bigraded forms from one Sylvester determinant per node and a
Vandermonde solve, and coprimality decided by contents and a resultant.

Plain loops over Python ints, with determinants and solves from
``gauss_ref``: the tests compare ``tensurf.membership.resultant_uv`` against
:func:`vandermonde_resultant`, and ``tensurf.membership.bihomog_coprime``
against :func:`coprime_by_resultant`.
"""

from typing import Sequence

import numpy as np

import gauss_ref
from tensurf.bipoly import BiPoly, mirror_poly, uni_gcd


def sylvester_from_coeffs(fc: Sequence[int], gc: Sequence[int], p: int
                          ) -> np.ndarray:
    """Sylvester band matrix for formal degrees m = len(fc)-1, n = len(gc)-1.

    Row r < n carries fc shifted by r; row n + r (r < m) carries gc shifted
    by r.  Columns correspond to the degree-(m+n-1) monomials x^(m+n-1-c) y^c,
    c ascending.
    """
    m, n = len(fc) - 1, len(gc) - 1
    M = np.zeros((m + n, m + n), dtype=np.int64)
    for r in range(n):
        for k, c in enumerate(fc):
            M[r, r + k] = c % p
    for r in range(m):
        for k, c in enumerate(gc):
            M[n + r, r + k] = c % p
    return M


def substitute_st(f: BiPoly, s0: int, t0: int, uv_degree: int
                  ) -> tuple[int, ...]:
    """f with (s, t) specialized at scalars: the coefficients of
    u^(d-l) v^l, d = uv_degree."""
    p = f.p
    out = [0] * (uv_degree + 1)
    for (i, j, k, l), c in f.terms.items():
        out[l] = (out[l] + c * pow(s0, i, p) * pow(t0, j, p)) % p
    return tuple(out)


def vandermonde_resultant(f: BiPoly, g: BiPoly, deg_f: tuple[int, int],
                          deg_g: tuple[int, int], p: int) -> tuple[int, ...]:
    """Coefficients of the (u, v)-resultant R(s, t) of f and g, of degree
    D = cf*dg + cg*df, s^D first: one Sylvester determinant per node
    s = 0..D at t = 1, then a Gauss-Jordan solve of the Vandermonde system
    on those nodes, which are distinct only when D + 1 <= p (ValueError
    otherwise)."""
    (cf, df), (cg, dg) = deg_f, deg_g
    D = cf * dg + cg * df
    if D + 1 > p:
        raise ValueError("prime too small for the Vandermonde nodes")
    rows = []
    for s0 in range(D + 1):
        sample = gauss_ref.det(sylvester_from_coeffs(
            substitute_st(f, s0, 1, df), substitute_st(g, s0, 1, dg), p), p)
        rows.append([pow(s0, D - k, p) for k in range(D + 1)] + [sample])
    reduced, pivots = gauss_ref.rref(rows, p)
    assert pivots == list(range(D + 1))
    return tuple(row[-1] for row in reduced)


def st_content(f: BiPoly, c: int, d: int) -> BiPoly:
    """gcd of the (s, t)-coefficient forms of f, one per u^k v^l monomial,
    as a (c', 0)-form."""
    groups: dict[tuple[int, int], dict] = {}
    for (i, j, k, l), coeff in f.terms.items():
        groups.setdefault((k, l), {})[(i, j, 0, 0)] = coeff
    acc = BiPoly.zero(f.p)
    for terms in groups.values():
        acc = uni_gcd(acc, BiPoly(f.p, terms))
    return acc


def uv_content(f: BiPoly, c: int, d: int) -> BiPoly:
    """gcd of the (u, v)-coefficient forms of f, one per s^i t^j monomial,
    as a (0, d')-form."""
    return mirror_poly(st_content(mirror_poly(f), d, c))


def coprime_by_resultant(f: BiPoly, g: BiPoly) -> bool:
    """Coprimality of two nonzero bihomogeneous polynomials: no common
    (s, t)-content, no common (u, v)-content, and a nonzero (u, v)-resultant
    when both have positive uv-degree.  By Gauss's lemma every common factor
    is caught by one of the three.  The resultant needs D + 1 <= p for its
    D + 1 sample nodes and raises ValueError otherwise."""
    (cf, df), (cg, dg) = f.bidegree(), g.bidegree()
    if uni_gcd(st_content(f, cf, df), st_content(g, cg, dg)).bidegree() \
            != (0, 0):
        return False
    if uni_gcd(uv_content(f, cf, df), uv_content(g, cg, dg)).bidegree() \
            != (0, 0):
        return False
    if df > 0 and dg > 0:
        return any(vandermonde_resultant(f, g, (cf, df), (cg, dg), f.p))
    return True
