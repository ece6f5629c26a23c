"""Ideal membership for pairs of binary forms, and resultant utilities.

For coprime binary forms h0, h1 of degrees m, n, every form of degree
>= m + n - 1 lies in the ideal (h0, h1); concretely the (m+n) x (m+n)
Sylvester matrix expresses the degree-(m+n-1) monomials in terms of the
shifted copies of h0 and h1, and the same band system in any degree
d >= m + n - 1 is surjective.  `two_gen_solve` solves

    target = x0 * h0 + x1 * h1

slice by slice over the s,t-monomials of the target, all slices as the
columns of one right-hand side of a single elimination, with free variables
set to zero, so the answer is canonical.  `psi_solve` plays the same game
against a graded syzygy matrix with a unique solution.  `resultant_uv` samples the
(u, v)-resultant of two bigraded forms at s = 0..D and recovers it by Newton
interpolation on those consecutive nodes, in O(D^2) operations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (
    BiPoly,
    CertificateError,
    HypothesisError,
    UniHomPoly,
    coeff_vector,
    dot,
    multiplication_matrix,
    uni_gcd,
)
from .hburch import HBResolution


def pair_system(h0: UniHomPoly, h1: UniHomPoly, d: int, p: int
                ) -> NDArray[np.int64]:
    """Multiplication matrices of h0, then h1, by degree d - deg h: columns
    u^(e-w) v^w h against the degree-d rows."""
    return np.hstack([multiplication_matrix(np.array([h.coeffs]), 0,
                                            d - h.degree) for h in (h0, h1)])


@dataclass(frozen=True)
class TwoGenCertificate:
    """target = x0 * h0 + x1 * h1."""

    x0: BiPoly
    x1: BiPoly


def two_gen_solve(target: BiPoly, h0: UniHomPoly, h1: UniHomPoly,
                  st_degree: Optional[int] = None,
                  uv_degree: Optional[int] = None) -> TwoGenCertificate:
    """Canonical membership certificate of target in (h0, h1).

    Requires unit gcd and target uv-degree d >= deg h0 + deg h1 - 1.  The
    system is :func:`pair_system` (h0 and h1 times degree d - deg h), solved
    slice by slice over s^i t^(c-i), every slice a column of one
    right-hand side, with free variables zero; the result is verified
    exactly before returning.
    """
    p = h0.p
    common = uni_gcd(h0, h1)
    if common.is_zero or common.degree > 0:
        raise HypothesisError("the pair of forms shares a common factor")
    bd = target.bidegree()
    if bd is not None:
        st_degree, uv_degree = bd
    if st_degree is None or uv_degree is None:
        raise ValueError("zero target needs explicit degrees")
    c, d = st_degree, uv_degree
    if d < h0.degree + h1.degree - 1:
        raise HypothesisError(
            f"target uv-degree {d} below the membership threshold "
            f"{h0.degree + h1.degree - 1}")
    M = pair_system(h0, h1, d, p)
    e0 = d - h0.degree
    rhs = coeff_vector(target, c, d).reshape(c + 1, d + 1).T
    x = linalg.solve_particular(M, rhs, p)
    if x is None:
        raise CertificateError("membership system unexpectedly inconsistent")
    x0, x1 = (BiPoly.from_st_slices(
        [UniHomPoly(p, e, tuple(col)) for col in part.T.tolist()], c, p)
        for part, e in zip(np.split(x, [e0 + 1]), (e0, d - h1.degree)))
    if not (target - dot([x0, x1], [h0.to_bipoly(), h1.to_bipoly()],
                         BiPoly.zero(p))).is_zero:
        raise CertificateError("membership certificate failed the exact check")
    return TwoGenCertificate(x0, x1)


def psi_solve(f_prime: Sequence[BiPoly], psi: HBResolution, a: int, b: int
              ) -> list[BiPoly]:
    """The unique alpha with psi * alpha = f_prime, alpha_j of bidegree
    (a, b - mu_j): block (i, j) of the system is the multiplication matrix
    of entry (i, j) of psi, of degree mu_j, by degree b - mu_j."""
    mat = psi.matrix
    p = mat.p
    if len(f_prime) != len(mat.row_degrees):
        raise ValueError("length of f_prime must match the rows of psi")
    n = mat.row_degrees[0]
    mus = [cd - n for cd in mat.col_degrees]
    if any(b - mu < 0 for mu in mus):
        raise HypothesisError("a column degree of psi exceeds b")
    M = np.hstack([np.vstack([multiplication_matrix(np.array([e.coeffs]), 0,
                                                    b - mu)
                              for e in mat.column(j)])
                   for j, mu in enumerate(mus)])
    if linalg.kernel_basis(M, p):
        raise CertificateError("psi is not injective in the solve degree")
    # column pos stacks the pos-th (s, t)-slice of every f_prime entry
    rhs = np.concatenate([coeff_vector(f, a, b).reshape(a + 1, b + 1).T
                          for f in f_prime])
    x = linalg.solve_particular(M, rhs, p)
    if x is None:
        raise CertificateError("f_prime is not in the image of psi")
    ends = np.cumsum([b - mu + 1 for mu in mus])
    alphas = [BiPoly.from_st_slices(
        [UniHomPoly(p, b - mu, tuple(col)) for col in part.T.tolist()], a, p)
        for part, mu in zip(np.split(x, ends[:-1]), mus)]
    # exact verification
    for row, f in zip(mat.entries, f_prime):
        if not (dot([e.to_bipoly() for e in row], alphas, BiPoly.zero(p))
                - f).is_zero:
            raise CertificateError("psi solve failed the exact check")
    return alphas


# ---------------------------------------------------------------------------
# resultants of bigraded forms and exact coprimality


def resultant_uv(f: BiPoly, g: BiPoly, deg_f: tuple[int, int],
                 deg_g: tuple[int, int], p: int) -> UniHomPoly:
    """Homogeneous resultant in (u, v) with fixed formal bidegrees.

    The result is a binary form in (s, t) of degree D = cf*dg + cg*df,
    computed by specialize-and-interpolate: t is set to 1 at the D + 1
    sample values s = 0..D (distinct since p > D), the Sylvester
    determinants of the specialized (u, v)-forms are taken in one batch,
    and R(s, 1) is recovered in O(D^2) by Newton interpolation from the
    forward differences of the samples.
    """
    (cf, df), (cg, dg) = deg_f, deg_g
    D = cf * dg + cg * df
    if D + 1 > p:
        raise ValueError("prime too small for resultant interpolation")
    # powers[r, k] = r^k mod p at the sample nodes s = 0..D
    powers = linalg.vandermonde(np.arange(D + 1), max(cf, cg) + 1, p)
    # grid row j holds the coefficients of s^(c-j) t^j
    fs = linalg.matmul_mod(
        powers[:, cf::-1], coeff_vector(f, cf, df).reshape(cf + 1, df + 1), p)
    gs = linalg.matmul_mod(
        powers[:, cg::-1], coeff_vector(g, cg, dg).reshape(cg + 1, dg + 1), p)
    size = df + dg
    syl = np.zeros((D + 1, size, size), dtype=np.int64)
    for r in range(dg):
        syl[:, r, r:r + df + 1] = fs
    for r in range(df):
        syl[:, dg + r, r:r + dg + 1] = gs
    diff = linalg.batch_det(syl, p)
    # after step k, diff[k] is the k-th forward difference at s = 0
    for k in range(1, D + 1):
        diff[k:] = (diff[k:] - diff[k - 1:-1]) % p
    # R(s, 1) = sum_k diff[k] / k! * s (s - 1) ... (s - k + 1)
    inv_fact = [1] * (D + 1)
    inv_fact[D] = pow(math.factorial(D) % p, -1, p)
    for k in range(D, 1, -1):
        inv_fact[k - 1] = inv_fact[k] * k % p
    newton = diff * np.array(inv_fact, dtype=np.int64) % p
    # nested multiplication by (s - k); coefficients ascending in s
    acc = newton[D:]
    for k in range(D - 1, -1, -1):
        nxt = np.zeros(len(acc) + 1, dtype=np.int64)
        nxt[1:] = acc
        nxt[:-1] = (nxt[:-1] - k * acc) % p
        nxt[0] = (nxt[0] + newton[k]) % p
        acc = nxt
    return UniHomPoly(p, D, tuple(int(t) for t in acc[::-1]))


def st_content(f: BiPoly, c: int, d: int) -> UniHomPoly:
    """gcd of the (s, t)-coefficient forms of f, one per u^k v^l monomial."""
    groups: dict[tuple[int, int], list[int]] = {}
    for (i, j, k, l), coeff in f.terms.items():
        groups.setdefault((k, l), [0] * (c + 1))[j] = coeff
    acc = UniHomPoly.zero(f.p, 0)
    for coeffs in groups.values():
        acc = uni_gcd(acc, UniHomPoly(f.p, c, tuple(coeffs)))
    return acc


def uv_content(f: BiPoly, c: int, d: int) -> UniHomPoly:
    from .bipoly import mirror_poly
    return st_content(mirror_poly(f), d, c)


def bihomog_coprime(f: BiPoly, g: BiPoly) -> bool:
    """Exact coprimality of two nonzero bihomogeneous polynomials."""
    bf, bg = f.bidegree(), g.bidegree()
    if bf is None or bg is None:
        raise ValueError("inputs must be nonzero and bihomogeneous")
    p = f.p
    (cf, df), (cg, dg) = bf, bg
    cont_st = uni_gcd(st_content(f, cf, df), st_content(g, cg, dg))
    if cont_st.degree > 0:
        return False
    cont_uv = uni_gcd(uv_content(f, cf, df), uv_content(g, cg, dg))
    if cont_uv.degree > 0:
        return False
    if df > 0 and dg > 0:
        if resultant_uv(f, g, bf, bg, p).is_zero:
            return False
    return True
