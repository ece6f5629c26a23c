"""The implicit equation peeled off random plane sections of the image.

For random linear forms m_0..m_e with m_k[0] != 0, a form F of degree e
in x0..x3 is G_0 + m_0 (G_1 + m_1 (... + m_(e-1) G_e)), each G_k a form of
degree e - k in x1, x2, x3: the chart of the plane H_k = {m_k = 0}.  The
image X meets H_k in a plane curve, whose F_p-points come from one batched
Cantor-Zassenhaus split per random draw (:func:`_split_roots`), its
arithmetic lazily reduced on balanced residues (``linalg.balanced``).  On
those points one kernel (level 0) and e small solves (levels 1..e), each on
the monomials in x1, x2, x3 of :func:`tensurf.xpoly.eval_matrix`, give the
G_k, and Horner's rule on F's coefficient cube (``XPoly.coeff_cube``)
assembles it.

Level 0 comes first (:func:`section`): its points are drawn for the
largest degree e_max the map allows, and its kernel reads off e.  The
oracle (:mod:`tensurf.oracle`) takes a section only when one rank of the
strand gives no e to read F off; then it reads F off a strand block of
size e when it can, and else :func:`peel` draws points for levels 1..e.
The oracle proves the candidate either way, on this path with one fact
from here, which :func:`section` enforces: the level-0 kernel at e, on
points checked exactly to lie on X and on H_0, is the line of G_0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .syzygy import SurfaceInput
from .xpoly import eval_form, eval_matrix, monomials_of_degree

# Random image points beyond the unknowns of each plane solve.
_SAMPLE_MARGIN = 8
# Draw rounds before the plane sections give up and leave F to the scan.
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


def _section_points(grids: list[NDArray[np.int64]], planes: NDArray[np.int64],
                    need: NDArray[np.int64], per_point: float, rng, p: int
                    ) -> list[NDArray[np.int64]]:
    """Distinct points of X on each plane H_k = {planes[k] . y = 0}.

    ``grids`` are the generators' coefficient grids, rows indexed by the
    variable fixed at random and columns by the one solved for (degree K).
    A draw for level k fixes that coordinate and takes the roots of the
    degree-K form planes[k] . phi (``_split_roots``).  Image points are
    scaled to a leading 1, checked exactly to lie on H_k, and dropped when
    they repeat or lie on an earlier plane H_j, j < k.  Each round draws
    for the levels still short of ``need``, sized by the yield seen so far
    (``per_point`` draws per point before any, at most four times that
    after); after ``_ROUNDS`` rounds the levels are returned as far as
    they got, each at most ``need[k]``.
    """
    levels = np.arange(len(need))
    K = grids[0].shape[1] - 1
    found: list[dict] = [{} for _ in need]   # insertion-ordered sets
    drawn = fresh = 0
    cap = 4 * per_point
    for _ in range(_ROUNDS):
        short = np.maximum(need - [len(f) for f in found], 0)
        if not short.any():
            break
        if drawn:
            per_point = min(drawn / max(fresh, 1), cap)
        size = np.ceil((short + 3 * np.sqrt(short) + 2) * per_point)
        lev = np.repeat(levels, np.where(short > 0, size, 0).astype(np.int64))
        drawn += lev.size
        zpow = linalg.vandermonde(rng.integers(0, p, lev.size),
                                  grids[0].shape[0], p)
        coef = np.stack([linalg.matmul_mod(zpow, g, p) for g in grids])
        form = (planes[lev].T[:, :, None] * coef % p).sum(axis=0) % p
        idx, roots = _split_roots(form.T, rng.integers(0, p, lev.size), p)
        y = coef[:, idx, K]
        for j in range(K - 1, -1, -1):
            y = (y * roots + coef[:, idx, j]) % p
        y, lev = y.T, lev[idx]
        nz = y != 0
        live = nz.any(axis=1)
        y, lev = y[live], lev[live]
        lead = y[np.arange(len(y)), nz[live].argmax(axis=1)]
        y = y * linalg.inverse_many(lead, p)[:, None] % p
        mv = linalg.matmul_mod(y, planes.T, p)
        ok = ((mv != 0) | (levels >= lev[:, None])).all(axis=1) & (
            mv[np.arange(len(y)), lev] == 0)
        for row, k in zip(map(tuple, y[ok].tolist()), lev[ok].tolist()):
            if row not in found[k]:
                found[k][row] = None
                fresh += 1
    return [np.array(list(f)[:n], dtype=np.int64).reshape(-1, 4)
            for f, n in zip(found, need.tolist())]


def _assemble(gs: list[NDArray[np.int64]], planes: NDArray[np.int64],
              p: int) -> NDArray[np.int64]:
    """Coefficient cube (as ``XPoly.coeff_cube``) of
    G_0 + m_0 (G_1 + m_1 (... + m_(e-1) G_e)).

    G_k is a form of degree e - k in x1, x2, x3, its coefficients in
    ``monomials_of_degree`` order, and m_k = planes[k].  Horner's rule runs on
    the cube at x0 = 1: multiplying by m_k is m_k[0] times the cube plus
    m_k[i] times the cube shifted one step along axis i.  ``np.roll`` wraps
    the last slice round, but below degree e that slice is zero.
    """
    e = len(gs) - 1
    cube = np.zeros((e + 1,) * 3, dtype=np.int64)
    cube[0, 0, 0] = gs[e][0] % p
    for k in range(e - 1, -1, -1):
        m = planes[k]
        cube = (cube * m[0] % p + sum(np.roll(cube, 1, axis=i) * m[i + 1] % p
                                      for i in range(3))) % p
        cube[tuple(zip(*monomials_of_degree(e - k, 3)))] += gs[k]
        cube %= p
    return cube


def _need(e: int) -> NDArray[np.int64]:
    """Points per level of a degree-e peel: the unknowns of G_k + margin."""
    return np.array([math.comb(e - k + 2, 2) + _SAMPLE_MARGIN
                     for k in range(e + 1)])


@dataclass(frozen=True)
class Section:
    """The level-0 plane section: the degree e, G_0 (the line of the level-0
    kernel at e) and what :func:`peel` draws the other levels from.  The
    generator grids are oriented and reduced as in :func:`section`."""

    e: int
    g0: NDArray[np.int64]
    points: NDArray[np.int64]
    grids: list[NDArray[np.int64]]
    planes: NDArray[np.int64]
    per_point: float
    rng: np.random.Generator
    p: int


def section(inp: SurfaceInput, gen_grids: list[NDArray[np.int64]]
            ) -> Optional[Section]:
    """The level-0 section of the image X by a random plane H_0, or None.

    e = 2ab / d divides e_max = 2ab / step, as phi factors through
    x -> x^step in the solved variable x (below), so step divides d.  On
    C(e_max + 2, 2) + 8 points of X checked exactly to lie on H_0, the forms
    of degree e_max in x1, x2, x3 vanishing there are G_0 times every form
    of degree e_max - e.  So e is e_max when that kernel is a line, else the
    least divisor of e_max with a nonzero kernel on a prefix of the points,
    and that kernel must be a line.  None when points run short or it is
    not.  Only the level-0 plane gets points here; the planes of levels
    1..e are drawn with it, for :func:`peel`.
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
    planes = rng.integers(0, p, (e_max + 1, 4))
    planes[:, 0] = rng.integers(1, p, e_max + 1)
    per_point = 1 if K == 1 else 2
    need = _need(e_max)[:1]
    pts = _section_points(grids, planes[:1], need, per_point, rng, p)[0]
    if len(pts) < need[0]:
        return None

    def level0_kernel(D: int) -> list[NDArray[np.int64]]:
        return linalg.kernel_basis(
            eval_matrix(D, pts[:_need(D)[0], 1:], p), p)

    e, kern = e_max, level0_kernel(e_max)
    if len(kern) > 1:   # d > step: G_0 times every form of degree e_max - e
        for e in [k for k in range(1, e_max) if e_max % k == 0]:
            kern = level0_kernel(e)
            if kern:
                break
    if len(kern) != 1:
        return None
    return Section(e, kern[0], pts[:_need(e)[0]], grids, planes[:e + 1],
                   per_point, rng, p)


def peel(sec: Section) -> Optional[NDArray[np.int64]]:
    """A candidate coefficient cube of degree e peeled off the planes of a
    level-0 section, or None.

    F = G_0 + m_0 (G_1 + m_1 (... + m_(e-1) G_e)) for the section's planes
    m_k, each G_k a form of degree e - k in x1, x2, x3 (the chart of H_k =
    {m_k = 0}).  At a point y of X on H_k and off the earlier planes,
    G_k(y) = F_k(y), where F_0 = F = 0 on X and F_(j+1) = (F_j - G_j) / m_j.
    G_0 is the section's; points for levels 1..e are drawn now, and each
    G_k solves its sampled system.  None when points run short or a system
    is inconsistent.  ``eval_form`` gives G_k at the later levels' points.
    """
    e, p, planes = sec.e, sec.p, sec.planes
    need = _need(e)
    pts = _section_points(sec.grids, planes, np.concatenate([[0], need[1:]]),
                          sec.per_point, sec.rng, p)
    pts[0] = sec.points
    if any(len(y) < n for y, n in zip(pts, need.tolist())):
        return None
    Y = np.concatenate(pts)
    start = np.cumsum([0] + need.tolist())
    mv = linalg.matmul_mod(Y, planes.T, p)
    # prod[:, k] = m_0(y) ... m_(k-1)(y), nonzero up to each point's level
    prod = np.ones((len(Y), e + 1), dtype=np.int64)
    for k in range(e):
        prod[:, k + 1] = prod[:, k] * mv[:, k] % p
    level = np.repeat(np.arange(e + 1), need)
    scale = linalg.inverse_many(prod[np.arange(len(Y)), level], p)
    num = np.zeros(len(Y), dtype=np.int64)   # sum_(j<k) G_j(y) prod[y, j]
    gs = []
    for k in range(e + 1):
        lo, hi, D = start[k], start[k + 1], e - k
        if k == 0:
            g = sec.g0
        else:   # G_k(y) = F_k(y) = -num(y) / prod[y, k]
            g = linalg.solve_particular(eval_matrix(D, Y[lo:hi, 1:], p),
                                        -num[lo:hi] * scale[lo:hi] % p, p)
            if g is None:
                return None
        gs.append(g)
        _, e2, e3 = zip(*monomials_of_degree(D, 3))
        square = np.zeros((D + 1, D + 1), dtype=np.int64)
        square[e2, e3] = g
        num[hi:] = (num[hi:] + eval_form(square, D, Y[hi:, 1:], p)
                    * prod[hi:, k]) % p
    return _assemble(gs, planes, p)
