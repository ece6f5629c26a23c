"""Graded free resolutions of finite lists of binary forms.

A binary form here is a (0, d) :class:`~tensurf.bipoly.BiPoly` in (u, v).
The syzygy module of k binary forms (not all zero, unit gcd among the
nonzero ones) is free of rank k-1, so each list has a k x (k-1) graded
syzygy matrix and the list is recovered, up to a unit, by the signed maximal
minors (Hilbert-Burch).  A zero form has no degree, so lists carry their
degrees beside them and matrices carry shift bookkeeping: entry (i, j) of a
:class:`GradedSyzMatrix` is a form of degree col_degrees[j] -
row_degrees[i]; when that number is negative the entry must be zero.

Minimal generators of the syzygy module are found degree by degree: at each
total degree d, the full kernel K_d of the coefficient system is computed,
and the canonical kernel vectors that extend the span of u*K_(d-1) + v*K_(d-1)
plus the already-selected generators are kept, in canonical kernel order.

Each identity is checked once, where the matrix is made: annihilation in
:func:`min_graded_syzygies`, the signed minors in
:func:`normalized_resolution`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (BiPoly, CertificateError, coeff_grid, dot,
                     multiplication_matrix, uni_gcd)


@dataclass(frozen=True)
class GradedSyzMatrix:
    """Matrix of binary forms between shifted graded free modules."""

    p: int
    row_degrees: tuple[int, ...]
    col_degrees: tuple[int, ...]
    entries: tuple[tuple[BiPoly, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_degrees):
                raise ValueError("entry row length mismatch")
            for j, e in enumerate(row):
                d = self.col_degrees[j] - self.row_degrees[i]
                if d < 0 and not e.is_zero:
                    raise ValueError(
                        f"entry ({i},{j}) must vanish (formal degree {d})")
                if d >= 0 and not e.is_bihomogeneous(0, d):
                    raise ValueError(
                        f"entry ({i},{j}) has bidegree {e.bidegree()}, "
                        f"expected (0, {d})")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_degrees), len(self.col_degrees)

    def column(self, j: int) -> tuple[list[BiPoly], list[int]]:
        """Column j and the degree of each entry (clamped at 0)."""
        return ([row[j] for row in self.entries],
                [max(self.col_degrees[j] - rd, 0) for rd in self.row_degrees])

    def scale_column(self, j: int, c: int) -> "GradedSyzMatrix":
        rows = []
        for i, row in enumerate(self.entries):
            row = list(row)
            row[j] = row[j].scale(c)
            rows.append(tuple(row))
        return GradedSyzMatrix(self.p, self.row_degrees, self.col_degrees,
                               tuple(rows))

    def check_annihilates(self, gens: Sequence[BiPoly]) -> bool:
        return all(dot(col, gens).is_zero for col in zip(*self.entries))


def _kernel_at_degree(gens: Sequence[BiPoly], degrees: Sequence[int],
                      delta: int, p: int) -> list[NDArray[np.int64]]:
    """Canonical basis of degree-delta syzygies, in block coordinates: the
    kernel of the multiplication matrices of the generators with
    deg g <= delta, each by degree delta - deg g."""
    blocks = [multiplication_matrix(coeff_grid(g, 0, d), 0, delta - d)
              for g, d in zip(gens, degrees) if d <= delta]
    return linalg.kernel_basis(np.hstack(blocks), p) if blocks else []


def _lift(vec: NDArray[np.int64], delta: int, row_degrees: Sequence[int],
          p: int) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Multiply a degree-(delta-1) syzygy vector by u and by v.

    Each block of a generator with deg g <= delta is a form of degree
    delta - 1 - deg g (empty when deg g = delta); the two columns of its
    multiplication matrix by degree 1 are its u- and v-multiples.
    """
    lifted, src = [], 0
    for rd in row_degrees:
        if rd <= delta:
            end = src + max(delta - rd, 0)
            lifted.append(multiplication_matrix(vec[None, src:end], 0, 1))
            src = end
    out = np.concatenate(lifted) % p
    return out[:, 0], out[:, 1]


def min_graded_syzygies(gens: Sequence[BiPoly], degrees: Sequence[int],
                        p: int) -> GradedSyzMatrix:
    """Minimal generators of the syzygy module of a list of binary forms,
    the i-th of degree ``degrees[i]``.

    Columns appear in order of ascending degree, ties in canonical kernel
    order.  Zero generators are allowed (their unit syzygies appear at the
    generator's own degree); the nonzero generators must have unit gcd.
    """
    k = len(gens)
    if k < 2:
        raise ValueError("need at least two generators")
    if len(degrees) != k or not all(
            g.is_bihomogeneous(0, d) for g, d in zip(gens, degrees)):
        raise ValueError("generators do not have the given degrees")
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        raise ValueError("all generators vanish")
    common = nonzero[0]
    for g in nonzero[1:]:
        common = uni_gcd(common, g)
    if common.bidegree() != (0, 0):
        raise ValueError("nonzero generators share a common factor")

    row_degrees = list(degrees)
    cap = sum(row_degrees) + 1
    cols: list[tuple[int, NDArray[np.int64]]] = []
    prev_kernel: list[NDArray[np.int64]] = []
    for delta in range(min(row_degrees), cap + 1):
        kernel = _kernel_at_degree(gens, row_degrees, delta, p)
        if kernel:
            # the leftmost pivots of [lifts | kernel] are the greedy choice
            lifts = [v for w in prev_kernel
                     for v in _lift(w, delta, row_degrees, p)]
            pivots = linalg.rref(np.column_stack(lifts + kernel), p).pivots
            cols += [(delta, kernel[j - len(lifts)]) for j in pivots
                     if j >= len(lifts)][:k - 1 - len(cols)]
            if len(cols) == k - 1:
                break
        prev_kernel = kernel
    if len(cols) != k - 1:
        raise CertificateError(
            "syzygy module resolution did not close at the expected rank")
    if sum(d for d, _ in cols) != sum(row_degrees):
        raise CertificateError(
            "degree sum of syzygy columns differs from the generator degrees")

    col_degrees = tuple(d for d, _ in cols)
    entries: list[list[BiPoly]] = [[] for _ in range(k)]
    for delta, vec in cols:
        off = 0
        for i, rd in enumerate(row_degrees):
            size = max(delta - rd + 1, 0)
            entries[i].append(BiPoly.from_grid(vec[None, off:off + size], p)
                              if size else BiPoly.zero(p))
            off += size
    out = GradedSyzMatrix(p, tuple(row_degrees), col_degrees,
                          tuple(tuple(r) for r in entries))
    if not out.check_annihilates(gens):
        raise CertificateError("computed columns are not syzygies")
    return out


def _poly_det(rows: list[list[BiPoly]], p: int) -> BiPoly:
    """Determinant by cofactor expansion, skipping zero entries."""
    if len(rows) == 1:
        return rows[0][0]
    acc = BiPoly.zero(p)
    for j, e in enumerate(rows[0]):
        if not e.is_zero:
            term = e * _poly_det([r[:j] + r[j + 1:] for r in rows[1:]], p)
            acc = acc - term if j % 2 else acc + term
    return acc


def signed_minors(mat: GradedSyzMatrix) -> list[BiPoly]:
    """(-1)^i * det(mat with row i removed), for a k x (k-1) matrix."""
    k, km1 = mat.shape
    if km1 != k - 1:
        raise ValueError("signed minors need a k x (k-1) matrix")
    expected_total = sum(mat.col_degrees) - sum(mat.row_degrees)
    out = []
    for i in range(k):
        det = _poly_det([list(row) for r, row in enumerate(mat.entries)
                         if r != i], mat.p)
        if not det.is_bihomogeneous(0, expected_total + mat.row_degrees[i]):
            raise CertificateError("minor degree mismatch")
        out.append(-det if i % 2 else det)
    return out


def normalized_resolution(gens: Sequence[BiPoly], degrees: Sequence[int],
                          p: int) -> GradedSyzMatrix:
    """The syzygy matrix of a list of binary forms of the given degrees,
    its first column scaled so that its signed maximal minors are the forms
    exactly (Hilbert-Burch).  This is the one place that identity is
    checked: a mismatch raises CertificateError."""
    mat = min_graded_syzygies(gens, degrees, p)
    minors = signed_minors(mat)
    lam = None
    for g, d in zip(gens, minors):
        if g.is_zero != d.is_zero:
            raise CertificateError("minor vanishes against a nonzero generator")
        if not g.is_zero:
            # the largest key is the first monomial in coeff_grid order
            lam = g.terms[max(g.terms)] * pow(d.terms[max(d.terms)], -1, p) % p
            break
    if lam is None:
        raise CertificateError("cannot normalize: all generators vanish")
    for g, d in zip(gens, minors):
        if not (g - d.scale(lam)).is_zero:
            raise CertificateError(
                "signed minors do not reproduce the generators after scaling")
    return mat.scale_column(0, lam)


def hilbert_burch_psi(g: Sequence[BiPoly], p: int) -> GradedSyzMatrix:
    """Normalized resolution of the g-vector (common degree, unit gcd)."""
    if not 2 <= len(g) <= 4:
        raise ValueError("expected between two and four entries")
    if any(gk.is_zero for gk in g):
        raise CertificateError("an entry of g vanishes")
    bidegrees = {gk.bidegree() for gk in g}
    if len(bidegrees) != 1:
        raise ValueError("entries of g must share one degree")
    n = bidegrees.pop()[1]
    return normalized_resolution(g, [n] * len(g), p)


def transpose_product(column: Sequence[BiPoly], degrees: Sequence[int],
                      mat: GradedSyzMatrix) -> tuple[list[BiPoly], list[int]]:
    """Row vector column^T * mat and the degree of each entry.

    The column entries must share one degree and the matrix rows one shift.
    """
    if len(set(degrees)) != 1:
        raise ValueError("column entries must share one degree")
    if len(set(mat.row_degrees)) != 1:
        raise ValueError("matrix row shifts must be uniform")
    shift = degrees[0] - mat.row_degrees[0]
    return ([dot(column, col) for col in zip(*mat.entries)],
            [max(cd + shift, 0) for cd in mat.col_degrees])


def compose(left: GradedSyzMatrix, right: GradedSyzMatrix,
            row_degrees: Sequence[int]) -> GradedSyzMatrix:
    """Matrix product left * right as a graded matrix with given row shifts."""
    if len(left.col_degrees) != len(right.row_degrees):
        raise ValueError("inner dimensions differ")
    entries = tuple(tuple(dot(row, col) for col in zip(*right.entries))
                    for row in left.entries)
    return GradedSyzMatrix(left.p, tuple(row_degrees), right.col_degrees,
                           entries)
