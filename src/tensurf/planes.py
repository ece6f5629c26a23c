"""The degree of the implicit equation, read off a random plane section.

For random linear forms m_0..m_e with m_k[0] != 0, a form F of degree e
in x0..x3 is G_0 + m_0 (G_1 + m_1 (... + m_(e-1) G_e)), each G_k a form of
degree e - k in x1, x2, x3: the chart of the plane H_k = {m_k = 0}.  The
image X meets H_0 in a plane curve, whose F_p-points come from one batched
Cantor-Zassenhaus split per random draw (:func:`_split_roots`), its
arithmetic lazily reduced on balanced residues (``linalg.balanced``).  On
those points one kernel, on the monomials in x1, x2, x3 of
:func:`tensurf.xpoly.eval_matrix`, is the line of G_0 at e, which it reads
off (:func:`section`).

The oracle (:mod:`tensurf.oracle`) takes a section only when one rank of
the strand gives no e to read F off, and then reads F off a strand block
whose size is a multiple of e.  Its proof takes one fact from here, which
:func:`section` enforces: the level-0 kernel at e, on points checked
exactly to lie on X and on H_0, is the line of G_0.  The peel of levels
1..e, which assembles F from all e + 1 planes, is the test-side reference
``tests/planes_ref.py``.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .syzygy import SurfaceInput
from .xpoly import eval_matrix

# Random image points beyond the unknowns of the level-0 kernel.
_SAMPLE_MARGIN = 8
# Draw rounds before a plane section gives up and leaves F to the scan.
_ROUNDS = 4


def _split_roots(f: NDArray[np.int64], delta: NDArray[np.int64], p: int
                 ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """Roots in F_p of many polynomials, one Cantor-Zassenhaus split each.

    Column j of the (K + 1, m) array ``f`` holds the ascending coefficients
    of a polynomial f_j of degree K <= 8; a column whose leading coefficient
    is zero gives nothing.  With w = (x + delta_j)^((p - 1) / 2) mod f_j,
    the factor x - r of f_j divides w - 1 when r + delta_j is a nonzero
    square and w + 1 when it is a non-square (Cantor & Zassenhaus, Math.
    Comp. 36, 1981), so wherever gcd(f_j, w -+ 1) is linear its zero is a
    root.  Residues are kept balanced, so a coefficient of w^2 sums at most
    K <= 8 products of size h^2 < 2^60 before one reduction.  Returns the
    columns and the roots, each root checked.  For K = 1 the root -f0 / f1
    is returned directly, so every root is found.
    """
    K = f.shape[0] - 1
    cols = np.flatnonzero(f[K])
    if not cols.size:
        return cols, cols
    if K == 1:
        return cols, -f[0, cols] * linalg.inverse_many(f[1, cols], p) % p
    monic = f[:, cols] * linalg.inverse_many(f[K, cols], p) % p
    # red[j] = x^(K + j) mod f_j, balanced
    red = [linalg.balanced(-monic[:K] % p, p)]
    for _ in range(K - 2):
        prev = red[-1]
        red.append(linalg.balanced(
            (np.vstack([np.zeros_like(prev[:1]), prev[:-1]])
             + prev[-1] * red[0]) % p, p))
    red = np.array(red)
    delta = linalg.balanced(delta[cols] % p, p)
    w = np.zeros((K, cols.size), dtype=np.int64)
    w[0] = 1
    for bit in bin((p - 1) // 2)[2:]:
        sq = np.zeros((2 * K - 1, cols.size), dtype=np.int64)
        for i in range(K):
            sq[i:i + K] += w[i] * w
        sq = linalg.balanced(sq % p, p)
        w = linalg.balanced(
            (sq[:K] + (sq[K:, None] * red).sum(axis=0)) % p, p)
        if bit == "1":   # w (x + delta): a shift and one scaled add
            w = linalg.balanced((np.vstack([np.zeros_like(w[:1]), w[:-1]])
                                 + delta * w + w[-1] * red[0]) % p, p)
    w %= p
    g = np.vstack([np.hstack([w, w]), np.zeros((1, 2 * cols.size), np.int64)])
    g[0] = (g[0] - np.repeat([1, p - 1], cols.size)) % p
    sel, roots = _linear_gcd_roots(np.hstack([monic, monic]), g, p)
    sel %= cols.size
    value = np.zeros_like(roots)
    for k in range(K, -1, -1):
        value = (value * roots + monic[k, sel]) % p
    return cols[sel[value == 0]], roots[value == 0]


def _degrees(X: NDArray[np.int64]) -> NDArray[np.int64]:
    """Degree of each column of ascending coefficients; -1 for zero."""
    nz = X != 0
    return np.where(nz.any(axis=0), X.shape[0] - 1 - nz[::-1].argmax(axis=0),
                    -1)


def _linear_gcd_roots(A: NDArray[np.int64], B: NDArray[np.int64], p: int
                      ) -> tuple[NDArray[np.int64], NDArray[np.int64]]:
    """The columns j where gcd(A_j, B_j) is linear, and its zero.

    Batched fraction-free Euclid: each step swaps the columns where B has
    the higher degree, then, on the columns whose B is still nonzero,
    cancels the lead of A against B x^(deg A - deg B):
    A <- lc(B) A - lc(A) x^s B.  A ends as a multiple of the gcd.
    """
    dA, dB = _degrees(A), _degrees(B)
    rows = np.arange(A.shape[0])[:, None]
    at = np.arange(A.shape[1])
    while True:
        swap = dB > dA
        A, B = np.where(swap, B, A), np.where(swap, A, B)
        dA, dB = np.where(swap, dB, dA), np.where(swap, dA, dB)
        live = dB >= 0
        if not live.any():
            break
        src = rows - np.where(live, dA - dB, 0)
        shifted = np.take_along_axis(B, np.maximum(src, 0), axis=0) * (src >= 0)
        lead_a = np.where(live, A[np.maximum(dA, 0), at], 0)
        lead_b = np.where(live, B[np.maximum(dB, 0), at], 1)
        A = (lead_b * A % p - lead_a * shifted % p) % p
        dA = _degrees(A)
    sel = np.flatnonzero(dA == 1)
    return sel, -A[0, sel] * linalg.inverse_many(A[1, sel], p) % p


def _section_points(grids: list[NDArray[np.int64]], plane: NDArray[np.int64],
                    need: int, per_point: float, rng, p: int
                    ) -> NDArray[np.int64]:
    """Up to ``need`` distinct points of X on the plane H = {plane . y = 0}.

    ``grids`` are the generators' coefficient grids, rows indexed by the
    variable fixed at random and columns by the one solved for (degree K).
    A draw fixes that coordinate and takes the roots of the degree-K form
    plane . phi (``_split_roots``).  Image points are scaled to a leading
    1, checked exactly to lie on H, and dropped when they repeat.  Each
    round draws for the points still short, sized by the yield seen so far
    (``per_point`` draws per point before any, at most four times that
    after); after ``_ROUNDS`` rounds the points are returned as far as they
    got.
    """
    K = grids[0].shape[1] - 1
    found: dict = {}   # an insertion-ordered set
    drawn = fresh = 0
    cap = 4 * per_point
    for _ in range(_ROUNDS):
        short = need - len(found)
        if short <= 0:
            break
        if drawn:
            per_point = min(drawn / max(fresh, 1), cap)
        size = int(np.ceil((short + 3 * np.sqrt(short) + 2) * per_point))
        drawn += size
        zpow = linalg.vandermonde(rng.integers(0, p, size),
                                  grids[0].shape[0], p)
        coef = np.stack([linalg.matmul_mod(zpow, g, p) for g in grids])
        form = (plane[:, None, None] * coef % p).sum(axis=0) % p
        idx, roots = _split_roots(form.T, rng.integers(0, p, size), p)
        y = coef[:, idx, K]
        for j in range(K - 1, -1, -1):
            y = (y * roots + coef[:, idx, j]) % p
        y = y.T[y.any(axis=0)]
        lead = y[np.arange(len(y)), (y != 0).argmax(axis=1)]
        y = y * linalg.inverse_many(lead, p)[:, None] % p
        on = linalg.matmul_mod(y, plane[:, None], p)[:, 0] == 0
        for row in map(tuple, y[on].tolist()):
            if row not in found:
                found[row] = None
                fresh += 1
    return np.array(list(found)[:need], dtype=np.int64).reshape(-1, 4)


def section(inp: SurfaceInput, gen_grids: list[NDArray[np.int64]]
            ) -> Optional[int]:
    """The degree e read off the section of the image X by a random plane
    H_0, or None.

    e = 2ab / d divides e_max = 2ab / step, as phi factors through
    x -> x^step in the solved variable x (below), so step divides d.  On
    C(e_max + 2, 2) + 8 points of X checked exactly to lie on H_0, the forms
    of degree e_max in x1, x2, x3 vanishing there are G_0 times every form
    of degree e_max - e.  So e is e_max when that kernel is a line, else the
    least divisor of e_max with a nonzero kernel on a prefix of the points,
    and that kernel must be a line.  None when points run short or it is
    not.  Planes are drawn for all e_max + 1 levels of the expansion above,
    so that the stream, and with it the level-0 points, is that of a full
    peel (``tests/planes_ref.py``); only the level-0 plane is kept.
    """
    p, a, b = inp.field.p, inp.a, inp.b
    grids = gen_grids if a > b else [g.T for g in gen_grids]
    # when phi only has powers of x^step in the solved variable x, solve for
    # x^step: every root in F_p still gives an F_p-point of X
    step = math.gcd(*np.flatnonzero(np.any(grids, axis=(0, 1))).tolist()) or 1
    grids = [g[:, ::step] for g in grids]
    K = grids[0].shape[1] - 1
    if K > 8:   # beyond _split_roots's lazy reduction
        return None
    e_max = 2 * a * b // step
    rng = np.random.default_rng(inp.field.rng("oracle-sample").getrandbits(64))
    plane = rng.integers(0, p, (e_max + 1, 4))[0]
    plane[0] = rng.integers(1, p, e_max + 1)[0]
    need = [math.comb(D + 2, 2) + _SAMPLE_MARGIN for D in range(e_max + 1)]
    pts = _section_points(grids, plane, need[e_max], 1 if K == 1 else 2, rng,
                          p)
    if len(pts) < need[e_max]:
        return None

    def level0_kernel(D: int) -> list[NDArray[np.int64]]:
        return linalg.kernel_basis(eval_matrix(D, pts[:need[D], 1:], p), p)

    e, kern = e_max, level0_kernel(e_max)
    if len(kern) > 1:   # d > step: G_0 times every form of degree e_max - e
        for e in [k for k in range(1, e_max) if e_max % k == 0]:
            kern = level0_kernel(e)
            if kern:
                break
    return e if len(kern) == 1 else None
