"""Square matrix of linear forms built from the syzygy family.

Each syzygy column of bidegree (c, d) is multiplied by every monomial of
bidegree (2a-1-c, b-1-d) to land in the fixed working bidegree
(2a-1, b-1).  The resulting columns assemble a square matrix of size
2ab whose entries are linear forms in the coordinates x0..x3 of the
input's own generators, F's coordinates: the determinant of that matrix
is c F^d for the implicit equation F of the surface, which
:meth:`Strand.det_cube` interpolates exactly, block by block.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

from . import linalg
from .bipoly import (CertificateError, coeff_grid, monomial_basis,
                     multiplication_matrix)
from .cases import CaseResult
from .xpoly import XPoly, lattice_form, principal_lattice


@dataclass(frozen=True)
class Strand:
    """Size-2ab matrix with entries linear in x0..x3.

    ``tensor`` has shape (size, size, 4); entry (r, c) is the linear form
    sum_k tensor[r, c, k] * x_k.  ``column_labels`` records, per column,
    the syzygy label and the monomial multiplier that produced it.
    """

    p: int
    a: int
    b: int
    size: int
    tensor: np.ndarray
    column_labels: tuple[tuple[str, tuple[int, int, int, int]], ...]

    def eval_matrix_at(self, point) -> np.ndarray:
        """Scalar matrix obtained by evaluating every entry at one point."""
        x = np.asarray(point, dtype=np.int64) % self.p
        return (self.tensor * x[None, None, :] % self.p).sum(axis=2) % self.p

    def block(self, rows, cols) -> "Strand":
        """The square submatrix on ``rows`` and ``cols``."""
        return replace(self, size=len(rows),
                       tensor=self.tensor[np.ix_(rows, cols)],
                       column_labels=tuple(self.column_labels[c]
                                           for c in cols))

    @cached_property
    def blocks(self) -> list[tuple[np.ndarray, np.ndarray]]:
        """Rows and columns of each connected component of the nonzero
        pattern, rows and columns taken as the two sides of a bipartite
        graph (union-find, once per strand).  Components come in order of
        their first row; one without rows (a zero column) comes last."""
        n = self.size
        root = list(range(2 * n))   # rows 0..n-1, columns n..2n-1

        def find(x: int) -> int:
            while root[x] != x:
                root[x] = x = root[root[x]]
            return x

        for r, c in np.argwhere(self.tensor.any(axis=2)).tolist():
            root[find(r)] = find(n + c)
        label = np.array([find(x) for x in range(2 * n)])
        return [(np.flatnonzero(label[:n] == g),
                 np.flatnonzero(label[n:] == g))
                for g in dict.fromkeys(label.tolist())]

    def det_at(self, point) -> int:
        return linalg.det_field(self.eval_matrix_at(point), self.p)

    def det_at_many(self, points: np.ndarray) -> np.ndarray:
        """Determinants at each row of an (N, 4) point array, chunked.

        Only the nonzero rows of the (size**2, 4) coefficient table are
        evaluated.  Coefficients and coordinates are lifted once to
        balanced residues in [-h, h], h = (p - 1) // 2
        (``linalg.balanced``), so an entry's value sum_k coef_k * x_k is at
        most 4 * h**2 < 2**62 in magnitude and takes a single reduction.
        Each chunk of points scatters its values into a zeroed
        (size, size, m) block, batch axis last, of at most
        ``linalg.DET_BLOCK`` elements, and ``linalg.det_block`` eliminates
        that block in place.
        """
        p, n = self.p, self.size
        table = self.tensor.reshape(n * n, 4) % p
        rows = np.flatnonzero(table.any(axis=1))
        coef = linalg.balanced(table[rows], p)
        xs = linalg.balanced(np.asarray(points, dtype=np.int64) % p, p)
        step = max(1, linalg.DET_BLOCK // (n * n))
        out = np.empty(len(xs), dtype=np.int64)
        for lo in range(0, len(xs), step):
            vals = coef @ xs[lo:lo + step].T
            block = np.zeros((n * n, vals.shape[1]), dtype=np.int64)
            block[rows] = vals % p
            out[lo:lo + step] = linalg.det_block(block.reshape(n, n, -1), p)
        return out

    @property
    def det_box(self) -> tuple[int, int, int]:
        """(b1, b2, b3), b_k >= the determinant's degree in x_k: each term
        of det = sum_sigma +- prod_r M[r, sigma(r)] is a product of linear
        forms, one per row and per column, so b_k is the smaller of the
        numbers of rows and of columns with an x_k term."""
        hit = self.tensor[:, :, 1:] != 0
        return tuple(int(min(r, c)) for r, c in zip(
            hit.any(axis=1).sum(axis=0), hit.any(axis=0).sum(axis=0)))

    def det_cube(self) -> np.ndarray:
        """The coefficient cube (as ``XPoly.coeff_cube``) of the
        determinant, a form of degree ``size``: ``xpoly.lattice_form`` of
        its values on the principal lattice of that degree cut to
        ``det_box``.  Exact when p > size."""
        box = self.det_box
        values = self.det_at_many(principal_lattice(self.size, box))
        return lattice_form(values, self.size, self.p, box)


def build_strand(case: CaseResult) -> Strand:
    """Spread the syzygy family over monomial multipliers into a square matrix.

    A syzygy acts on the changed generators; its entry for input generator
    i is sum_j transition[i, j] * e_j (``VAnalysis.transition``), one
    ``matmul_mod`` over the family's grids.  A syzygy of bidegree (c, d)
    contributes, for each coordinate x_i, the multiplication matrix of that
    entry by bidegree (2a - 1 - c, b - 1 - d): one column per multiplier
    monomial.
    """
    va = case.analysis
    a, b, p = va.input.a, va.input.b, va.input.field.p
    size = 2 * a * b
    grids = [np.stack([coeff_grid(e, *sy.bidegree) for e in sy.entries])
             for sy in case.syzygies]
    moved = linalg.matmul_mod(
        va.transition, np.hstack([g.reshape(4, -1) for g in grids]), p)
    blocks: list[np.ndarray] = []
    labels: list[tuple[str, tuple[int, int, int, int]]] = []
    for sy, g in zip(case.syzygies, grids):
        c, d = sy.bidegree
        mc, md = 2 * a - 1 - c, b - 1 - d
        entries, moved = moved[:, :g[0].size], moved[:, g[0].size:]
        blocks.append(np.stack([multiplication_matrix(e, mc, md)
                                for e in entries.reshape(g.shape)], axis=2))
        labels += [(sy.label, mult) for mult in monomial_basis(mc, md)]
    if len(labels) != size:
        raise CertificateError(
            f"strand is {size}x{len(labels)}, expected a square matrix")
    tensor = np.concatenate(blocks, axis=1)
    return Strand(p=p, a=a, b=b, size=size, tensor=tensor,
                  column_labels=tuple(labels))


def reconstruct_det(strand: Strand) -> XPoly:
    """The determinant polynomial, from ``Strand.det_cube``, spot-checked
    against ``Strand.det_at`` at 10 random points."""
    p = strand.p
    result = XPoly.from_cube(p, strand.size, strand.det_cube())
    rng = np.random.default_rng(0)
    spots = rng.integers(0, p, size=(10, 4), dtype=np.int64)
    for pt in spots:
        if result.eval(pt) != strand.det_at(pt):
            raise CertificateError(
                "interpolated determinant fails a spot check")
    return result
