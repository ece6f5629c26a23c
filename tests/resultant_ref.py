"""Reference resultants of binary forms: the Sylvester matrix and the
specialization of a bigraded form at a point (s0 : t0).

Plain loops over Python ints: the tests compare
``tensurf.membership.resultant_uv`` against one Sylvester determinant per
specialization.
"""

from typing import Sequence

import numpy as np

from tensurf.bipoly import BiPoly, UniHomPoly


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


def substitute_st(f: BiPoly, s0: int, t0: int, uv_degree: int) -> UniHomPoly:
    """f with (s, t) specialized at scalars, as a (u, v)-form."""
    p = f.p
    out = [0] * (uv_degree + 1)
    for (i, j, k, l), c in f.terms.items():
        out[l] = (out[l] + c * pow(s0, i, p) * pow(t0, j, p)) % p
    return UniHomPoly(p, uv_degree, tuple(out))
