"""Exact dense linear algebra over F_p on int64 numpy arrays.

All entries live in [0, p) with p < 2**31.  Everything except ``batch_det``
runs on two primitives:

* ``_mul_sub`` computes C <- (C - A @ B) mod p in place.  Each operand is
  split into 16-bit limbs (low < 2**16, high < 2**15) and the four limb
  products run as float64 BLAS products.  A limb product term is at most
  (2**16 - 1)**2, so for an inner dimension of at most ``MAX_INNER`` every
  partial sum, in any summation order, is an integer of at most 2**53 and
  thus exact.  Each limb product is reduced mod p before it is scaled by
  2**16 mod p (Horner order: high, then middle, then low), so every int64
  intermediate stays below 2**63 for any p < 2**31.  A larger inner
  dimension raises ``ValueError``.  C is updated in row chunks of about
  ``_CHUNK`` elements so that the float64 temporaries stay small whatever
  the matrix size.
* ``_ple`` reduces a matrix in place to row echelon form.  It halves the
  column range until a panel has at most ``_PANEL`` columns; inside a panel,
  rows are eliminated with dense slice updates on the panel's columns only.
  After the left half of a range, its pivot rows are finished on the right
  half by a unit lower triangular solve and the rows below by one
  ``_mul_sub`` (A22 -= L21 @ U12).  Multipliers are stored in place below
  the pivots, so full-row swaps carry them along.  ``rank``, ``rref``,
  ``kernel_basis``, ``solve_particular``, ``det_field`` and
  ``matrix_inverse`` all start from it and back-substitute, by blocks,
  through the same triangular solve.

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


def _mul_sub(C: Matrix, A: Matrix, B: Matrix, p: int) -> None:
    """C <- (C - A @ B) mod p in place; entries of A and B in [0, p)."""
    inner = A.shape[1]
    if inner > MAX_INNER:
        raise ValueError(f"inner dimension {inner} exceeds {MAX_INNER}, "
                         "the limit of exact limb-split products")
    b_lo, b_hi = _limbs(B)
    shift = (1 << _LIMB_BITS) % p
    step = max(1, _CHUNK // max(1, inner, B.shape[1]))
    for i in range(0, C.shape[0], step):
        a_lo, a_hi = _limbs(A[i:i + step])
        acc = (a_hi @ b_hi).astype(np.int64) % p * shift
        acc += (a_hi @ b_lo).astype(np.int64)
        acc += (a_lo @ b_hi).astype(np.int64)
        acc %= p
        acc *= shift
        acc += (a_lo @ b_lo).astype(np.int64)
        C[i:i + step] = (C[i:i + step] - acc) % p


def matmul_mod(A, B, p: int) -> Matrix:
    """(A @ B) mod p, exact for an inner dimension up to ``MAX_INNER``."""
    A = as_matrix(A, p)
    B = as_matrix(B, p)
    out = np.zeros((A.shape[0], B.shape[1]), dtype=np.int64)
    _mul_sub(out, A, B, p)
    return -out % p


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


def _ple(M: Matrix, p: int) -> tuple[list[int], int]:
    """Reduce M in place to row echelon form, multipliers stored below pivots.

    Returns the pivot columns and the number of row swaps made; row i of
    the result carries the (unnormalized) pivot of column pivots[i].  Rows
    at and past the rank are zero outside the pivot columns.
    """
    pivots: list[int] = []
    swaps = _eliminate(M, 0, M.shape[1], pivots, p)
    return pivots, swaps


def _eliminate(M: Matrix, c0: int, c1: int, pivots: list[int], p: int) -> int:
    """Eliminate columns c0:c1 in the rows below the pivots found so far.

    Only columns c0:c1 are updated.  Wide ranges are halved: the left half
    is eliminated, its pivot rows are finished on the right half by a
    triangular solve (U12 = L11^-1 A12) and the rows below by A22 -= L21 @
    U12, then the right half is eliminated.  Appends the new pivot columns
    to ``pivots`` and returns the number of row swaps.
    """
    r0 = len(pivots)
    if c1 - c0 > _PANEL:
        mid = (c0 + c1) // 2
        swaps = _eliminate(M, c0, mid, pivots, p)
        r = len(pivots)
        if r > r0:
            left = pivots[r0:]
            _solve_unit_lower(M[r0:r, left], M[r0:r, mid:c1], p)
            _mul_sub(M[r:, mid:c1], M[r:, left], M[r0:r, mid:c1], p)
        return swaps + _eliminate(M, mid, c1, pivots, p)
    n_rows = M.shape[0]
    swaps = 0
    r = r0
    for c in range(c0, c1):
        if r == n_rows:
            break
        nz = np.flatnonzero(M[r:, c])
        if not nz.size:
            continue
        if nz[0]:
            pr = r + int(nz[0])
            M[[r, pr]] = M[[pr, r]]
            swaps += 1
        if nz.size > 1:
            lower = M[r + 1:, c] * pow(int(M[r, c]), -1, p) % p
            M[r + 1:, c] = lower
            M[r + 1:, c + 1:c1] = (M[r + 1:, c + 1:c1]
                                   - lower[:, None] * M[r, c + 1:c1]) % p
        pivots.append(c)
        r += 1
    return swaps


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
    pivots, _ = _ple(M, p)
    rank = len(pivots)
    R = np.zeros_like(M)
    R[:rank] = _back_substitute(M, pivots, slice(None), p)
    R[:rank, pivots] = np.eye(rank, dtype=np.int64)
    return RrefResult(rank, tuple(pivots), R)


def rank(mat, p: int) -> int:
    return len(_ple(as_matrix(mat, p), p)[0])


def kernel_basis(mat, p: int) -> list[Vector]:
    """Canonical basis of the right kernel (free column ascending)."""
    M = as_matrix(mat, p)
    n_cols = M.shape[1]
    pivots, _ = _ple(M, p)
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


def solve_particular(mat, rhs, p: int) -> Vector | None:
    """One solution of mat @ x = rhs with all free variables set to 0.

    Returns None when the system is inconsistent.
    """
    A = as_matrix(mat, p)
    b = as_matrix(rhs, p).reshape(-1, 1)
    M = np.hstack([A, b])
    n_cols = A.shape[1]
    pivots, _ = _ple(M, p)
    if pivots and pivots[-1] == n_cols:
        return None
    x = np.zeros(n_cols, dtype=np.int64)
    x[pivots] = _back_substitute(M, pivots, [n_cols], p)[:, 0]
    return x


def det_field(mat, p: int) -> int:
    """Determinant of a square matrix over F_p."""
    M = as_matrix(mat, p)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("determinant of a non-square matrix")
    pivots, swaps = _ple(M, p)
    if len(pivots) < n:
        return 0
    det = p - 1 if swaps % 2 else 1
    for v in M.diagonal().tolist():
        det = det * v % p
    return det


def matrix_inverse(mat, p: int) -> Matrix:
    M = as_matrix(mat, p)
    n = M.shape[0]
    if M.shape[0] != M.shape[1]:
        raise ValueError("inverse of a non-square matrix")
    aug = np.hstack([M, np.eye(n, dtype=np.int64)])
    pivots, _ = _ple(aug, p)
    if pivots[n - 1] != n - 1:
        raise ValueError("matrix is singular")
    return _back_substitute(aug, pivots, slice(n, None), p)


def batch_det(mats, p: int) -> Vector:
    """Determinants of a stack of square matrices over F_p.

    ``mats`` has shape (N, n, n).  One elimination sweep runs for the whole
    stack, with per-matrix pivot choice, swap signs, and singular drop-out
    tracked in parallel.
    """
    M = np.asarray(mats, dtype=np.int64) % p
    M = M.copy()
    if M.ndim != 3 or M.shape[1] != M.shape[2]:
        raise ValueError("expected a stack of square matrices")
    n_mats, n = M.shape[0], M.shape[1]
    det = np.ones(n_mats, dtype=np.int64)
    alive = np.ones(n_mats, dtype=bool)
    for c in range(n):
        col = M[:, c:, c]
        has = col != 0
        any_nz = has.any(axis=1)
        det[alive & ~any_nz] = 0
        alive &= any_nz
        if not alive.any():
            return det
        first = has.argmax(axis=1)
        need = alive & (first > 0)
        if need.any():
            idx = np.nonzero(need)[0]
            rows = c + first[idx]
            tmp = M[idx, rows].copy()
            M[idx, rows] = M[idx, c]
            M[idx, c] = tmp
            det[idx] = -det[idx] % p
        piv = M[:, c, c].copy()
        piv[~alive] = 1
        det = det * piv % p
        inv = pow_mod_array(piv, p - 2, p)
        M[:, c, c:] = M[:, c, c:] * inv[:, None] % p
        if c + 1 < n:
            below = M[:, c + 1:, c]
            M[:, c + 1:, c:] = (M[:, c + 1:, c:]
                                - below[:, :, None] * M[:, c, None, c:]) % p
    return det
