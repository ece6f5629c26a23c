"""Ideal membership for pairs of binary forms, coprimality, and resultants.

For coprime binary forms h0, h1 of degrees m, n, every form of degree
>= m + n - 1 lies in the ideal (h0, h1); concretely the (m+n) x (m+n)
Sylvester matrix expresses the degree-(m+n-1) monomials in terms of the
shifted copies of h0 and h1, and the same band system in any degree
d >= m + n - 1 is surjective.  `two_gen_solve` solves

    target = x0 * h0 + x1 * h1

slice by slice over the s,t-monomials of the target, all slices as the
columns of one right-hand side of a single elimination, with free variables
set to zero, so the answer is canonical.  `psi_solve` plays the same game
against a graded syzygy matrix with a unique solution.  `bihomog_coprime`
is binary-form gcds at a few points, else one rank (syzygies on a line).
`resultant_uv` samples the (u, v)-resultants of pairs of forms at s = 0..D
as d x d Bezout determinants, all in one batch, and interpolates them by
two products with the cached operators of those nodes.

Binary forms are :class:`~tensurf.bipoly.BiPoly` forms: h0 and h1 are the
nonzero (0, m)- and (0, n)-forms in (u, v), and the resultants come back
as (D, 0)-forms in (s, t).
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (
    BiPoly,
    CertificateError,
    HypothesisError,
    coeff_grid,
    dot,
    multiplication_matrix,
    uni_gcd,
)
from .hburch import GradedSyzMatrix


def pair_system(h0: BiPoly, h1: BiPoly, d: int, p: int
                ) -> NDArray[np.int64]:
    """Multiplication matrices of the nonzero (u, v)-forms h0, then h1, by
    degree d - deg h: columns u^(e-w) v^w h against the degree-d rows."""
    blocks = []
    for h in (h0, h1):
        e = h.bidegree()[1]
        blocks.append(multiplication_matrix(coeff_grid(h, 0, e), 0, d - e))
    return np.hstack(blocks)


def two_gen_solve(target: BiPoly, h0: BiPoly, h1: BiPoly,
                  st_degree: Optional[int] = None,
                  uv_degree: Optional[int] = None) -> tuple[BiPoly, BiPoly]:
    """The canonical (x0, x1) with target = x0 * h0 + x1 * h1.

    Requires nonzero (u, v)-forms h0, h1 with unit gcd and target
    uv-degree d >= deg h0 + deg h1 - 1.  The system is :func:`pair_system`
    (h0 and h1 times degree d - deg h), solved slice by slice over
    s^i t^(c-i), every slice a column of one right-hand side, with free
    variables zero; the result is verified exactly before returning.
    """
    p = h0.p
    for name, h in (("h0", h0), ("h1", h1)):
        if h.is_zero:
            raise HypothesisError(f"the form {name} is zero")
    if uni_gcd(h0, h1).bidegree() != (0, 0):
        raise HypothesisError("the pair of forms shares a common factor")
    bd = target.bidegree()
    if bd is not None:
        st_degree, uv_degree = bd
    if st_degree is None or uv_degree is None:
        raise ValueError("zero target needs explicit degrees")
    c, d = st_degree, uv_degree
    m0, m1 = h0.bidegree()[1], h1.bidegree()[1]
    if d < m0 + m1 - 1:
        raise HypothesisError(
            f"target uv-degree {d} below the membership threshold "
            f"{m0 + m1 - 1}")
    M = pair_system(h0, h1, d, p)
    x = linalg.solve_particular(M, coeff_grid(target, c, d).T, p)
    if x is None:
        raise CertificateError("membership system unexpectedly inconsistent")
    x0, x1 = (BiPoly.from_grid(part.T, p)
              for part in np.split(x, [d - m0 + 1]))
    if not (target - dot([x0, x1], [h0, h1])).is_zero:
        raise CertificateError("membership certificate failed the exact check")
    return x0, x1


def psi_solve(f_prime: Sequence[BiPoly], psi: GradedSyzMatrix, a: int,
              b: int) -> list[BiPoly]:
    """The unique alpha with psi * alpha = f_prime, alpha_j of bidegree
    (a, b - mu_j): block (i, j) of the system is the multiplication matrix
    of entry (i, j) of psi, of degree mu_j, by degree b - mu_j."""
    p = psi.p
    if len(f_prime) != len(psi.row_degrees):
        raise ValueError("length of f_prime must match the rows of psi")
    n = psi.row_degrees[0]
    mus = [cd - n for cd in psi.col_degrees]
    if any(b - mu < 0 for mu in mus):
        raise HypothesisError("a column degree of psi exceeds b")
    M = np.hstack([np.vstack([multiplication_matrix(coeff_grid(e, 0, mu), 0,
                                                    b - mu)
                              for e in psi.column(j)[0]])
                   for j, mu in enumerate(mus)])
    # column pos stacks the pos-th (s, t)-slice of every f_prime entry
    rhs = np.concatenate([coeff_grid(f, a, b).T for f in f_prime])
    k, res = M.shape[1], linalg.rref(np.hstack([M, rhs]), p)
    if res.pivots[:k] != tuple(range(k)):
        raise CertificateError("psi is not injective in the solve degree")
    if res.pivots[-1] >= k:
        raise CertificateError("f_prime is not in the image of psi")
    x = res.matrix[:k, k:]
    ends = np.cumsum([b - mu + 1 for mu in mus])
    alphas = [BiPoly.from_grid(part.T, p) for part in np.split(x, ends[:-1])]
    # exact verification
    for row, f in zip(psi.entries, f_prime):
        if not (dot(row, alphas) - f).is_zero:
            raise CertificateError("psi solve failed the exact check")
    return alphas


# ---------------------------------------------------------------------------
# resultants of bigraded forms and exact coprimality


def resultant_uv(pairs: Sequence[tuple[BiPoly, BiPoly]], c: int, d: int,
                 p: int) -> list[BiPoly]:
    """Homogeneous resultants in (u, v) of pairs of (c, d)-forms.

    Each is a (D, 0)-form in (s, t), D = 2cd, sampled at t = 1 and
    s = 0..D (distinct since p > D).  There the resultant of two (u, v)-forms
    of formal degree d is (-1)^(d(d+1)/2) times the determinant of their
    symmetric d x d Bezout matrix B (Cox, Little & O'Shea, *Using Algebraic
    Geometry*, ch. 3): with coefficients indexed by the v-exponent,
    B[r, q] = B[r-1, q+1] + f[q+1] g[r] - g[q+1] f[r] for q >= r.  The sign
    makes Res(u^d, v^d) = 1, as B is -1 on its antidiagonal there.  All
    pairs at all samples take one batch of determinants, and every R(s, 1)
    is recovered at once by the (D, p) pair of ``linalg.newton_operators``:
    forward differences, then the coefficients of the binomials C(s, k).
    """
    D, n = 2 * c * d, len(pairs)
    if D + 1 > p:
        raise ValueError("prime too small for resultant interpolation")
    # powers[r, j] = r^(c-j) mod p weighs grid row j, that of s^(c-j) t^j
    powers = linalg.vandermonde(np.arange(D + 1), c + 1, p)[:, ::-1]
    grids = np.hstack([coeff_grid(h, c, d) for pair in pairs for h in pair])
    vals = linalg.matmul_mod(powers, grids, p).reshape(D + 1, n, 2, d + 1)
    f, g = vals[:, :, 0], vals[:, :, 1]
    bez = np.empty((D + 1, n, d, d), dtype=np.int64)
    for r in range(d):
        # each product is below 2^62, so the row fits in int64 unreduced
        row = (f[..., r + 1:] * g[..., r, None]
               - g[..., r + 1:] * f[..., r, None])
        if r:
            row[..., :-1] += bez[:, :, r - 1, r + 1:]
        bez[:, :, r, r:] = row % p
        bez[:, :, r + 1:, r] = bez[:, :, r, r + 1:]
    dets = linalg.batch_det(bez.reshape((D + 1) * n, d, d), p)
    dets = dets.reshape(D + 1, n) * (-1) ** (d * (d + 1) // 2) % p
    diff, newton = linalg.newton_operators(D, p)
    coeffs = linalg.matmul_mod(newton, linalg.matmul_mod(diff, dets, p), p)
    # coeffs[m] is the coefficient of s^m t^(D-m), grid row D - m
    return [BiPoly.from_grid(col[::-1, None], p) for col in coeffs.T]


_POINTS = (1, 2, 3)  # the x of (s : t) = (1 : x) and (u : v) = (1 : x)


def bihomog_coprime(f: BiPoly, g: BiPoly) -> bool:
    """Exact coprimality of two nonzero bihomogeneous polynomials, over the
    closure of F_p too, where gcds and ranks are the same.

    Let h = gcd(f, g) have bidegree (k1, k2).  If k2 > 0, h(1, x, u, v)
    divides f(1, x, u, v) and g(1, x, u, v) and is a (u, v)-form of degree
    k2 or zero, and then so are they: their gcd is no nonzero constant.  So
    one at some x proves k2 = 0, and one at (u : v) = (1 : x) k1 = 0.  Else
    one rank decides: the (x, y) with x f + y g = 0, the kernel of [M(f) by
    bideg g | M(g) by bideg f], are the line through (g, -f) exactly when
    gcd(f, g) = 1, as x f = -y g forces g | x, so x = lambda g; a common k
    of bidegree (k1, k2) != (0, 0) gives (m g / k, -m f / k) for the
    (k1 + 1)(k2 + 1) >= 2 monomials m of k's bidegree.
    """
    bf, bg = f.bidegree(), g.bidegree()
    if bf is None or bg is None:
        raise ValueError("inputs must be nonzero and bihomogeneous")
    p, grids = f.p, (coeff_grid(f, *bf), coeff_grid(g, *bg))
    # rows of Vandermonde times f's and g's grids: the forms at (s : t) =
    # (1 : x); times the transposes: at (u : v) = (1 : x), renamed (u, v)
    sides = ([[BiPoly.from_grid(row[None], p) for row in linalg.matmul_mod(
        linalg.vandermonde(_POINTS, len(G), p), G, p)] for G in pair]
        for pair in (grids, [G.T for G in grids]))
    if all(any(uni_gcd(x, y).bidegree() == (0, 0) for x, y in zip(*side))
           for side in sides):
        return True
    M = np.hstack([multiplication_matrix(grids[0], *bg),
                   multiplication_matrix(grids[1], *bf)])
    return linalg.rank(M, p) == M.shape[1] - 1
