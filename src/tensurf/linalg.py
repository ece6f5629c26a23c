"""Exact dense linear algebra over F_p on int64 numpy arrays.

All entries live in [0, p) with p < 2**31.  The single-matrix routines run
on two primitives:

* ``_mul_sub`` computes C <- (C - A @ B) mod p in place, and
  ``matmul_mod`` (A @ B) mod p, from the float64 BLAS products of
  ``_limb_products``.  B is split into 16-bit limbs (low < 2**16, high <
  2**15).  A stays whole when inner * (p - 1) * (2**16 - 1) <= 2**53,
  that is for an inner dimension of at most 64 at every p < 2**31: two
  products, each partial sum an integer of at most 2**53 and thus exact.
  A wider product splits A too: four products of limbs, whose terms are
  at most (2**16 - 1)**2, exact up to an inner dimension of ``MAX_INNER``;
  a larger one raises ``ValueError``.  The limb products are summed in
  int64 into base-2**16 digits, and the digits are combined in Horner
  order, each partial result reduced mod p before it is scaled by 2**16
  mod p, so every int64 intermediate stays below 2**63 for any p < 2**31.
  Rows go in chunks of about ``_CHUNK`` elements so that the float64
  temporaries stay small whatever the matrix size.
* ``_ple`` reduces a matrix in place to row echelon form.  It halves the
  column range until a panel has at most ``_PANEL`` columns; inside a panel,
  rows are eliminated with dense slice updates on the panel's columns only,
  and a column with nothing below its pivot takes none.
  After the left half of a range, its pivot rows are finished on the right
  half by a unit lower triangular solve and the rows below by one
  ``_mul_sub`` (A22 -= L21 @ U12).  Multipliers are stored in place below
  the pivots, so full-row swaps carry them along.  ``rank``, ``rref``,
  ``kernel_basis`` and ``solve_particular`` all start from it and
  back-substitute, by blocks, through the same triangular solve.

Every determinant comes from ``det_block``, which takes many small ones at
once.  It eliminates, in place, a block of m matrices laid out (n, n, m),
batch axis last, so that every update streams along contiguous memory, and
it reduces mod p lazily: pivot rows and multipliers are lifted to balanced
residues in [-h, h], h = (p - 1) // 2 (``balanced``), so each rank-one term
is at most h**2 in magnitude, and a row takes up to K updates between
reductions, where K * h**2 + p < 2**63 <= (K + 1) * h**2 + p (K = 8 at
p = 2**31 - 1): one count per row bounds the unreduced updates of each of
its entries.  ``Strand.det_at_many`` (the lattice certificate) builds its
blocks in that layout and hands them over directly; ``batch_det`` copies
an (N, n, n) stack into blocks for every other caller
(``membership.resultant_uv``: the Bezout matrices of every pair at every
sample node in one stack), and ``det_field`` is ``batch_det`` of one
matrix.  ``newton_operators``, built once per (degree, p), interpolates at
the nodes 0..degree for ``xpoly.lattice_form`` and
``membership.resultant_uv``.

Conventions fixed here and relied on throughout:

* pivots are chosen leftmost, each taken from the first row at or below the
  current row with a nonzero entry in that column; the elimination thus
  finds the column rank profile, and the reduced echelon form it leads to
  is the unique one;
* the canonical kernel basis has one vector per free column, ordered by free
  column ascending, with that free variable set to 1 and all other free
  variables set to 0;
* particular solutions set every free variable to 0.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray

Matrix = NDArray[np.int64]
Vector = NDArray[np.int64]

_LIMB_BITS = 16
_LIMB_MASK = (1 << _LIMB_BITS) - 1
# Largest inner dimension for which every float64 partial sum of 16-bit limb
# products is an exact integer (at most 2**53).
MAX_INNER = 2 ** 53 // _LIMB_MASK ** 2
_PANEL = 32
_CHUNK = 1 << 14
# Elements per ``batch_det`` block (8 MB of int64).  The block stays in the
# last-level cache, and its batch axis stays long enough (about 200
# matrices at n = 72) for each numpy call to amortize its fixed cost: at
# n = 72, blocks of 2**18 elements took 1.8 times as long (2-vCPU Xeon,
# numpy 2.4).
DET_BLOCK = 1 << 20


def as_matrix(rows, p: int) -> Matrix:
    return np.asarray(rows, dtype=np.int64) % p


def pow_mod_array(x: Vector, e: int, p: int) -> Vector:
    """Elementwise x**e mod p by square-and-multiply."""
    result = np.ones_like(x)
    base = x % p
    while e:
        if e & 1:
            result = result * base % p
        base = base * base % p
        e >>= 1
    return result


def vandermonde(nodes, width: int, p: int) -> Matrix:
    """Matrix of nodes[i]**j mod p for j < width, built column by column."""
    x = np.asarray(nodes, dtype=np.int64) % p
    out = np.ones((x.shape[0], width), dtype=np.int64)
    for j in range(1, width):
        out[:, j] = out[:, j - 1] * x % p
    return out


def _limbs(X: Matrix) -> tuple[NDArray[np.float64], NDArray[np.float64]]:
    return ((X & _LIMB_MASK).astype(np.float64),
            (X >> _LIMB_BITS).astype(np.float64))


def _limb_products(A: Matrix, B: Matrix, p: int):
    """Yield (rows, P) by row chunks, P congruent to A[rows] @ B mod p with
    entries in [0, 2**63), from float64 products of limbs (the module
    docstring gives the bounds); entries of A and B in [0, p)."""
    inner = A.shape[1]
    if inner > MAX_INNER:
        raise ValueError(f"inner dimension {inner} exceeds {MAX_INNER}, "
                         "the limit of exact limb-split products")
    whole = inner * (p - 1) * _LIMB_MASK <= 2 ** 53
    b_limbs = _limbs(B)
    shift = (1 << _LIMB_BITS) % p
    step = max(1, _CHUNK // max(1, inner, B.shape[1]))
    for i in range(0, A.shape[0], step):
        rows = slice(i, i + step)
        a_limbs = (A[rows].astype(np.float64),) if whole else _limbs(A[rows])
        digits = [None] * (len(a_limbs) + 1)
        for j, a in enumerate(a_limbs):
            for k, b in enumerate(b_limbs):
                term, prev = (a @ b).astype(np.int64), digits[j + k]
                digits[j + k] = term if prev is None else prev + term
        acc = digits.pop()
        for digit in reversed(digits):
            acc %= p
            acc *= shift
            acc += digit
        yield rows, acc


def _mul_sub(C: Matrix, A: Matrix, B: Matrix, p: int) -> None:
    """C <- (C - A @ B) mod p in place; entries of A and B in [0, p).  Two
    limb products when inner * (p - 1) * (2**16 - 1) <= 2**53, else four."""
    for rows, acc in _limb_products(A, B, p):
        chunk = C[rows]
        chunk -= acc
        chunk %= p


def matmul_mod(A, B, p: int) -> Matrix:
    """(A @ B) mod p, exact for an inner dimension up to ``MAX_INNER``."""
    A = as_matrix(A, p)
    B = as_matrix(B, p)
    out = np.empty((A.shape[0], B.shape[1]), dtype=np.int64)
    for rows, acc in _limb_products(A, B, p):
        np.remainder(acc, p, out=out[rows])
    return out


def _solve_unit_lower(L: Matrix, X: Matrix, p: int) -> None:
    """X <- L^-1 X in place, for L unit lower triangular.

    Only the strictly lower part of L is read.  Blocks of ``_PANEL`` rows
    are solved by rank-one updates and applied below through ``_mul_sub``.
    """
    k = L.shape[0]
    for i0 in range(0, k, _PANEL):
        i1 = min(i0 + _PANEL, k)
        for j in range(i0, i1 - 1):
            X[j + 1:i1] = (X[j + 1:i1] - L[j + 1:i1, j, None] * X[j]) % p
        if i1 < k:
            _mul_sub(X[i1:], L[i1:, i0:i1], X[i0:i1], p)


def _ple(M: Matrix, p: int) -> list[int]:
    """Reduce M in place to row echelon form, multipliers stored below pivots.

    Returns the pivot columns; row i of the result carries the
    (unnormalized) pivot of column pivots[i].  Rows at and past the rank
    are zero outside the pivot columns.
    """
    pivots: list[int] = []
    _eliminate(M, 0, M.shape[1], pivots, p)
    return pivots


def _eliminate(M: Matrix, c0: int, c1: int, pivots: list[int], p: int
               ) -> None:
    """Eliminate columns c0:c1 in the rows below the pivots found so far.

    Only columns c0:c1 are updated.  Wide ranges are halved: the left half
    is eliminated, its pivot rows are finished on the right half by a
    triangular solve (U12 = L11^-1 A12) and the rows below by A22 -= L21 @
    U12, then the right half is eliminated.  Appends the new pivot columns
    to ``pivots``.
    """
    r0 = len(pivots)
    if c1 - c0 > _PANEL:
        mid = (c0 + c1) // 2
        _eliminate(M, c0, mid, pivots, p)
        r = len(pivots)
        if r > r0:
            left = pivots[r0:]
            _solve_unit_lower(M[r0:r, left], M[r0:r, mid:c1], p)
            _mul_sub(M[r:, mid:c1], M[r:, left], M[r0:r, mid:c1], p)
        _eliminate(M, mid, c1, pivots, p)
        return
    n_rows = M.shape[0]
    r = r0
    for c in range(c0, c1):
        if r == n_rows:
            break
        nz = M[r:, c].nonzero()[0]
        if not nz.size:
            continue
        if nz[0]:
            pr = r + int(nz[0])
            M[[r, pr]] = M[[pr, r]]
        # nz holds the pivot too: a second entry lies below it
        if nz.size > 1:
            lower, trail = M[r + 1:, c], M[r + 1:, c + 1:c1]
            lower *= pow(int(M[r, c]), -1, p)
            lower %= p
            trail -= lower[:, None] * M[r, c + 1:c1]
            trail %= p
        pivots.append(c)
        r += 1


def _back_substitute(M: Matrix, pivots: list[int], cols, p: int) -> Matrix:
    """Columns ``cols`` of the reduced echelon rows of a ``_ple``-reduced M."""
    rank = len(pivots)
    inv = np.array([pow(v, -1, p) for v in
                    M[np.arange(rank), pivots].tolist()], dtype=np.int64)
    T = M[:rank, pivots] * inv[:, None] % p
    X = M[:rank, cols] * inv[:, None] % p
    _solve_unit_lower(T[::-1, ::-1], X[::-1], p)
    return X


@dataclass(frozen=True)
class RrefResult:
    rank: int
    pivots: tuple[int, ...]
    matrix: Matrix


def rref(mat, p: int) -> RrefResult:
    """Full reduced row echelon form."""
    M = as_matrix(mat, p)
    pivots = _ple(M, p)
    rank = len(pivots)
    R = np.zeros_like(M)
    R[:rank] = _back_substitute(M, pivots, slice(None), p)
    R[:rank, pivots] = np.eye(rank, dtype=np.int64)
    return RrefResult(rank, tuple(pivots), R)


def rank(mat, p: int) -> int:
    return len(_ple(as_matrix(mat, p), p))


def kernel_basis(mat, p: int) -> list[Vector]:
    """Canonical basis of the right kernel (free column ascending)."""
    M = as_matrix(mat, p)
    n_cols = M.shape[1]
    pivots = _ple(M, p)
    pivot_set = set(pivots)
    free = [c for c in range(n_cols) if c not in pivot_set]
    if not free:
        return []
    # Back-substitute only the free columns: cheap when the kernel is small.
    F = _back_substitute(M, pivots, free, p)
    out = []
    for j, fc in enumerate(free):
        v = np.zeros(n_cols, dtype=np.int64)
        v[fc] = 1
        v[pivots] = (-F[:, j]) % p
        out.append(v)
    return out


def solve_particular(mat, rhs, p: int) -> Matrix | None:
    """One solution of mat @ x = rhs with all free variables set to 0.

    ``rhs`` is a vector, or an (n, k) matrix whose k columns are solved in
    one elimination; x then has k columns, each the solution of its own.
    Returns None when any column is inconsistent.
    """
    A = as_matrix(mat, p)
    b = as_matrix(rhs, p)
    M = np.hstack([A, b.reshape(A.shape[0], -1)])
    n_cols = A.shape[1]
    pivots = _ple(M, p)
    if pivots and pivots[-1] >= n_cols:
        return None
    x = np.zeros((n_cols, M.shape[1] - n_cols), dtype=np.int64)
    x[pivots] = _back_substitute(M, pivots, slice(n_cols, None), p)
    return x.reshape((n_cols,) + b.shape[1:])


def det_field(mat, p: int) -> int:
    """Determinant of a square matrix over F_p: ``batch_det`` of one."""
    return int(batch_det([mat], p)[0])


@functools.lru_cache(maxsize=64)
def newton_operators(degree: int, p: int) -> tuple[Matrix, Matrix]:
    """Read-only (diff, newton) for the nodes 0..degree; needs p > degree.

    Values at the nodes are B D with B[i, k] = C(i, k) and D the forward
    differences at 0 (Gregory-Newton), so diff = B^-1: (-1)^(i-k) C(i, k).
    Column k of newton = V^-1 B, V the nodes' Vandermonde matrix, one
    ``solve_particular``, holds the coefficients of C(x, k), ascending, so
    newton @ diff @ values are those of the polynomial of degree <= degree
    through the values.
    """
    k = np.arange(degree + 1)
    binom = np.array([[math.comb(i, j) % p for j in k] for i in k])
    diff = np.where((k[:, None] - k) % 2, p - binom, binom) % p
    newton = solve_particular(vandermonde(k, degree + 1, p), binom, p)
    diff.flags.writeable = newton.flags.writeable = False
    return diff, newton


def balanced(x: Matrix, p: int) -> Matrix:
    """Residues in [0, p) lifted to [-h, h], h = (p - 1) // 2, in place, so
    a product of two is at most h**2 < 2**60 in magnitude: the range every
    lazy reduction here and in ``strand`` and ``planes`` rests on."""
    x -= p * (x > (p - 1) // 2)
    return x


def _reduction_period(p: int) -> int:
    """Largest K with K * h**2 + p < 2**63, h = (p - 1) // 2.

    An entry that starts in [0, p) and takes K updates of at most h**2 in
    magnitude stays strictly inside int64.  p is an odd prime.
    """
    h = (p - 1) // 2
    return (2 ** 63 - 1 - p) // (h * h)


def inverse_many(x: Vector, p: int) -> Vector:
    """Inverses mod p of nonzero residues from one modular inverse.

    Montgomery's trick on a product tree: pairwise products up to the root,
    one ``pow(root, -1, p)``, then on the way down each node's inverse is
    its parent's inverse times its sibling.
    """
    level = np.ones(1 << (x.size - 1).bit_length(), dtype=np.int64)
    level[:x.size] = x
    tree = [level]
    while level.size > 1:
        level = level[0::2] * level[1::2] % p
        tree.append(level)
    inv = np.array([pow(int(level[0]), -1, p)], dtype=np.int64)
    for level in reversed(tree[:-1]):
        inv = (inv[:, None] * level.reshape(-1, 2)[:, ::-1] % p).reshape(-1)
    return inv[:x.size]


def det_block(M: NDArray[np.int64], p: int) -> Vector:
    """Determinants of the m matrices of an (n, n, m) block, in place.

    Entries start in [0, p); the block is overwritten.  ``pending[i]``
    bounds the unreduced updates any entry of row i has taken; the whole
    block shares it, because rows and columns are chosen for the block, not
    per matrix, and a row swap gives both rows the larger count.  A row is
    reduced, on its trailing columns, before an update that could be its
    (K + 1)-th unreduced one, K from ``_reduction_period``.  A matrix with
    no pivot in a column has determinant 0; its elimination goes on with
    pivot 1 and its result is ignored.  The elimination steps are listed
    under ``batch_det``.
    """
    n, m = M.shape[0], M.shape[2]
    period = _reduction_period(p)
    det = np.ones(m, dtype=np.int64)
    pending = np.zeros(n, dtype=np.int64)
    for c in range(n):
        # pivot column, exactly: only rows with pending updates can hold
        # entries outside [0, p)
        dirty = pending[c:].nonzero()[0]
        if dirty.size:
            span = M[c + dirty[0]:c + dirty[-1] + 1, c]
            np.remainder(span, p, out=span)
        piv = M[c, c]
        if not piv.all():
            nonzero = M[c:, c] != 0
            first = nonzero.argmax(axis=0)
            dead = ~nonzero.any(axis=0)
            det[dead] = 0
            if not det.any():
                return det
            for off in (np.flatnonzero(np.bincount(first)[1:]) + 1).tolist():
                hit = first == off
                top, low = M[c, c:], M[c + off, c:]
                saved = top.copy()
                np.copyto(top, low, where=hit)
                np.copyto(low, saved, where=hit)
                np.subtract(p, det, out=det, where=hit)
                pending[[c, c + off]] = pending[[c, c + off]].max()
            piv = M[c, c].copy()
            piv[dead] = 1
        det = det * piv % p
        # Rows whose multiplier, and columns whose pivot-row entry, is zero
        # in every matrix of the block take no update.
        rows = c + 1 + M[c + 1:, c].any(axis=1).nonzero()[0]
        if not rows.size:
            continue
        if pending[c]:
            np.remainder(M[c, c + 1:], p, out=M[c, c + 1:])
        cols = c + 1 + M[c, c + 1:].any(axis=1).nonzero()[0]
        if not cols.size:
            continue
        mult = balanced(M[rows, c] * inverse_many(piv, p) % p, p)
        row = balanced(M[c, cols], p)
        full = pending[rows] >= period
        if full.any():
            M[rows[full], c + 1:] %= p
            pending[rows[full]] = 0
        pending[rows] += 1
        dense = rows.size == cols.size == n - c - 1
        M[np.s_[c + 1:, c + 1:] if dense else np.ix_(rows, cols)] -= (
            mult[:, None, :] * row[None, :, :])
    return det


def batch_det(mats, p: int) -> Vector:
    """Determinants of a stack of square matrices over F_p.

    ``mats`` has shape (N, n, n); the result has shape (N,); p is an odd
    prime below 2**31.  The stack is copied, reduced, into blocks of at
    most ``DET_BLOCK`` elements laid out (n, n, m), batch axis last, and
    ``det_block`` eliminates each block in place with per-matrix pivot
    choice (first nonzero entry at or below the diagonal), swap signs and
    singular drop-out.  Per column:

    * the pivot column is reduced exactly, and the pivot search, with its
      row swaps, runs only when some pivot is zero; the pivot row is
      reduced before it is used;
    * all pivot inverses come from one modular inverse (Montgomery's trick);
    * pivot row and multipliers are lifted by ``balanced``, so each
      rank-one term is at most h**2 < 2**60 in magnitude, and a trailing
      row is reduced only before an update that could be its (K + 1)-th
      unreduced one by its row count, K from ``_reduction_period`` (K = 8
      at p = 2**31 - 1);
    * rows whose multiplier is zero in every matrix of the block, and
      columns whose pivot-row entry is, are skipped.  Strand matrices are
      sparse, so this skips most of the n**3 / 3 work.
    """
    A = np.asarray(mats, dtype=np.int64)
    if A.ndim != 3 or A.shape[1] != A.shape[2]:
        raise ValueError("expected a stack of square matrices")
    n_mats, n = A.shape[0], A.shape[1]
    stack = np.moveaxis(A, 0, -1)
    step = max(1, DET_BLOCK // max(1, n * n))
    block = np.empty((n, n, min(step, n_mats)), dtype=np.int64)
    out = np.empty(n_mats, dtype=np.int64)
    for lo in range(0, n_mats, step):
        M = block[:, :, :min(step, n_mats - lo)]
        np.remainder(stack[:, :, lo:lo + step], p, out=M)
        out[lo:lo + step] = det_block(M, p)
    return out
