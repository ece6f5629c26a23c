"""Graded free resolutions of finite lists of binary forms.

The syzygy module of k binary forms (not all zero, unit gcd among the nonzero
ones) is free of rank k-1, so each list has a k x (k-1) graded syzygy matrix
and the list is recovered, up to a unit, by the signed maximal minors
(Hilbert-Burch).  Matrices carry shift bookkeeping: entry (i, j) of a
:class:`GradedSyzMatrix` is homogeneous of degree col_degrees[j] -
row_degrees[i]; when that number is negative the entry must be zero (stored
as the degree-0 zero form).

Minimal generators of the syzygy module are found degree by degree: at each
total degree d, the full kernel K_d of the coefficient system is computed,
and the canonical kernel vectors that extend the span of u*K_(d-1) + v*K_(d-1)
plus the already-selected generators are kept, in canonical kernel order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (CertificateError, UniHomPoly, multiplication_matrix,
                     uni_gcd)


@dataclass(frozen=True)
class GradedSyzMatrix:
    """Matrix of binary forms between shifted graded free modules."""

    p: int
    row_degrees: tuple[int, ...]
    col_degrees: tuple[int, ...]
    entries: tuple[tuple[UniHomPoly, ...], ...]

    def __post_init__(self) -> None:
        for i, row in enumerate(self.entries):
            if len(row) != len(self.col_degrees):
                raise ValueError("entry row length mismatch")
            for j, e in enumerate(row):
                d = self.col_degrees[j] - self.row_degrees[i]
                if d < 0:
                    if not e.is_zero:
                        raise ValueError(
                            f"entry ({i},{j}) must vanish (formal degree {d})")
                elif e.degree != d and not e.is_zero:
                    raise ValueError(
                        f"entry ({i},{j}) has degree {e.degree}, expected {d}")

    @property
    def shape(self) -> tuple[int, int]:
        return len(self.row_degrees), len(self.col_degrees)

    def entry(self, i: int, j: int) -> UniHomPoly:
        return self.entries[i][j]

    def column(self, j: int) -> list[UniHomPoly]:
        """Column j with every entry carrying its formal degree (clamped at 0)."""
        out = []
        for i in range(len(self.row_degrees)):
            d = self.col_degrees[j] - self.row_degrees[i]
            e = self.entries[i][j]
            if d >= 0 and e.degree != d:
                e = UniHomPoly.zero(self.p, d)
            out.append(e)
        return out

    def scale_column(self, j: int, c: int) -> "GradedSyzMatrix":
        rows = []
        for i, row in enumerate(self.entries):
            row = list(row)
            row[j] = row[j].scale(c)
            rows.append(tuple(row))
        return GradedSyzMatrix(self.p, self.row_degrees, self.col_degrees,
                               tuple(rows))

    def check_annihilates(self, gens: Sequence[UniHomPoly]) -> bool:
        for j in range(len(self.col_degrees)):
            acc: Optional[UniHomPoly] = None
            for i, g in enumerate(gens):
                e = self.entries[i][j]
                if e.is_zero or g.is_zero:
                    continue
                term = e * g
                acc = term if acc is None else acc + term
            if acc is not None and not acc.is_zero:
                return False
        return True


def _kernel_at_degree(gens: Sequence[UniHomPoly], delta: int, p: int
                      ) -> list[NDArray[np.int64]]:
    """Canonical basis of degree-delta syzygies, in block coordinates: the
    kernel of the multiplication matrices of the generators with
    deg g <= delta, each by degree delta - deg g."""
    blocks = [multiplication_matrix(np.array([g.coeffs]), 0, delta - g.degree)
              for g in gens if g.degree <= delta]
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


def min_graded_syzygies(gens: Sequence[UniHomPoly], p: int) -> GradedSyzMatrix:
    """Minimal generators of the syzygy module of a list of binary forms.

    Columns appear in order of ascending degree, ties in canonical kernel
    order.  Zero generators are allowed (their unit syzygies appear at the
    generator's own degree); the nonzero generators must have unit gcd.
    """
    k = len(gens)
    if k < 2:
        raise ValueError("need at least two generators")
    nonzero = [g for g in gens if not g.is_zero]
    if not nonzero:
        raise ValueError("all generators vanish")
    common = nonzero[0]
    for g in nonzero[1:]:
        common = uni_gcd(common, g)
    if common.degree > 0:
        raise ValueError("nonzero generators share a common factor")

    row_degrees = [g.degree for g in gens]
    cap = sum(row_degrees) + 1
    cols: list[tuple[int, NDArray[np.int64]]] = []
    prev_kernel: list[NDArray[np.int64]] = []
    for delta in range(min(row_degrees), cap + 1):
        kernel = _kernel_at_degree(gens, delta, p)
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
    entries: list[list[UniHomPoly]] = [[] for _ in range(k)]
    for delta, vec in cols:
        off = 0
        for i, rd in enumerate(row_degrees):
            size = max(delta - rd + 1, 0)
            block = tuple(int(c) for c in vec[off:off + size])
            entries[i].append(UniHomPoly(p, delta - rd, block) if size
                              else UniHomPoly.zero(p, 0))
            off += size
    out = GradedSyzMatrix(p, tuple(row_degrees), col_degrees,
                          tuple(tuple(r) for r in entries))
    if not out.check_annihilates(gens):
        raise CertificateError("computed columns are not syzygies")
    return out


def _poly_det(rows: list[list[UniHomPoly]]) -> Optional[UniHomPoly]:
    """Determinant by cofactor expansion, skipping zero entries.

    Returns None when every expansion term vanishes identically (the caller
    supplies the formal degree of the zero result).
    """
    m = len(rows)
    if m == 1:
        e = rows[0][0]
        return None if e.is_zero else e
    acc: Optional[UniHomPoly] = None
    for j, e in enumerate(rows[0]):
        if e.is_zero:
            continue
        sub = [[r[jj] for jj in range(m) if jj != j] for r in rows[1:]]
        inner = _poly_det(sub)
        if inner is None:
            continue
        term = e * inner
        if j % 2 == 1:
            term = -term
        acc = term if acc is None else acc + term
    return acc


def signed_minors(mat: GradedSyzMatrix) -> list[UniHomPoly]:
    """(-1)^i * det(mat with row i removed), for a k x (k-1) matrix."""
    k, km1 = mat.shape
    if km1 != k - 1:
        raise ValueError("signed minors need a k x (k-1) matrix")
    expected_total = sum(mat.col_degrees) - sum(mat.row_degrees)
    out = []
    for i in range(k):
        rows = [[mat.entries[r][j] for j in range(k - 1)]
                for r in range(k) if r != i]
        det = _poly_det(rows)
        degree = expected_total + mat.row_degrees[i]
        if det is None:
            det = UniHomPoly.zero(mat.p, max(degree, 0))
        elif det.degree != degree:
            raise CertificateError("minor degree mismatch")
        if i % 2 == 1:
            det = -det
        out.append(det)
    return out


@dataclass(frozen=True)
class HBResolution:
    """A list of binary forms with its normalized graded syzygy matrix.

    After normalization the signed maximal minors of ``matrix`` equal the
    generators exactly; ``lam`` is the unit the raw first column was scaled by.
    """

    gens: tuple[UniHomPoly, ...]
    matrix: GradedSyzMatrix
    lam: int
    minors: tuple[UniHomPoly, ...]


def normalized_resolution(gens: Sequence[UniHomPoly], p: int) -> HBResolution:
    """Resolve a list of binary forms and normalize via Hilbert-Burch."""
    mat = min_graded_syzygies(gens, p)
    minors = signed_minors(mat)
    lam = None
    for g, d in zip(gens, minors):
        if g.is_zero != d.is_zero:
            raise CertificateError("minor vanishes against a nonzero generator")
        if not g.is_zero:
            g_lead = next(c for c in g.coeffs if c)
            d_lead = next(c for c in d.coeffs if c)
            lam = g_lead * pow(d_lead, -1, p) % p
            break
    if lam is None:
        raise CertificateError("cannot normalize: all generators vanish")
    mat = mat.scale_column(0, lam)
    minors = [d.scale(lam) for d in minors]
    for g, d in zip(gens, minors):
        if not (g - d).is_zero:
            raise CertificateError(
                "signed minors do not reproduce the generators after scaling")
    return HBResolution(tuple(gens), mat, lam, tuple(minors))


def hilbert_burch_psi(g: Sequence[UniHomPoly], p: int) -> HBResolution:
    """Normalized resolution of the g-vector (common degree, unit gcd)."""
    if not 2 <= len(g) <= 4:
        raise ValueError("expected between two and four entries")
    degrees = {gk.degree for gk in g}
    if len(degrees) != 1:
        raise ValueError("entries of g must share one degree")
    if any(gk.is_zero for gk in g):
        raise CertificateError("an entry of g vanishes")
    return normalized_resolution(g, p)


def column_resolutions(psi: HBResolution) -> list[HBResolution]:
    """Normalized resolutions of each column of psi's matrix."""
    out = []
    for j in range(len(psi.matrix.col_degrees)):
        out.append(normalized_resolution(psi.matrix.column(j), psi.matrix.p))
    return out


def transpose_product(column: Sequence[UniHomPoly], mat: GradedSyzMatrix
                      ) -> list[UniHomPoly]:
    """Row vector column^T * mat with formal degree bookkeeping.

    The column entries must share one degree and the matrix rows one shift.
    """
    col_deg = {c.degree for c in column if not c.is_zero}
    if len(col_deg) > 1:
        raise ValueError("column entries must share one degree")
    row_deg = set(mat.row_degrees)
    if len(row_deg) != 1:
        raise ValueError("matrix row shifts must be uniform")
    mu = col_deg.pop() if col_deg else None
    out = []
    for m in range(len(mat.col_degrees)):
        acc: Optional[UniHomPoly] = None
        for i, c in enumerate(column):
            e = mat.entries[i][m]
            if c.is_zero or e.is_zero:
                continue
            term = c * e
            acc = term if acc is None else acc + term
        if acc is None:
            base = mu if mu is not None else 0
            formal = base + mat.col_degrees[m] - mat.row_degrees[0]
            acc = UniHomPoly.zero(mat.p, max(formal, 0))
        out.append(acc)
    return out


def compose(left: GradedSyzMatrix, right: GradedSyzMatrix,
            row_degrees: Sequence[int]) -> GradedSyzMatrix:
    """Matrix product left * right as a graded matrix with given row shifts."""
    n_rows = len(left.row_degrees)
    n_mid = len(left.col_degrees)
    if n_mid != len(right.row_degrees):
        raise ValueError("inner dimensions differ")
    entries = []
    for i in range(n_rows):
        row = []
        for m in range(len(right.col_degrees)):
            acc: Optional[UniHomPoly] = None
            for w in range(n_mid):
                a, b = left.entries[i][w], right.entries[w][m]
                if a.is_zero or b.is_zero:
                    continue
                term = a * b
                acc = term if acc is None else acc + term
            formal = right.col_degrees[m] - row_degrees[i]
            if acc is None:
                acc = UniHomPoly.zero(left.p, max(formal, 0))
            row.append(acc)
        entries.append(tuple(row))
    return GradedSyzMatrix(left.p, tuple(row_degrees), right.col_degrees,
                           tuple(entries))


def gamma_matrices(psi: HBResolution, phis: Sequence[HBResolution]
                   ) -> dict[tuple[int, int], HBResolution]:
    """Resolutions of C_i^T phi_j for the pairs (0,1), (0,2), (1,2)."""
    out = {}
    for (i, j) in [(0, 1), (0, 2), (1, 2)]:
        h = transpose_product(psi.matrix.column(i), phis[j].matrix)
        out[(i, j)] = normalized_resolution(h, psi.matrix.p)
    return out

