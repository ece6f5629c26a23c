"""Reference implicit equation without a strand: the plane peel.

``tensurf.oracle`` reads F off a block of the strand.  This module keeps
the strandless path it replaced, as the independent reference that the
acceptance gates and the oracle tests compare with:

* :func:`section`, the level-0 plane section of ``tensurf.planes.section``
  with the same draws, keeping G_0, its points, the planes of every level
  and the random stream the peel draws from;
* :func:`_section_points`, the drawer of points on the planes of several
  levels at once, of which ``tensurf.planes`` keeps the one-plane case;
* :func:`peel`, the levels 1..e: F = G_0 + m_0 (G_1 + m_1 (... +
  m_(e-1) G_e)), each G_k one small exact solve on points of the image on
  the plane m_k = 0, assembled by Horner's rule (:func:`_assemble`);
* :func:`_vanishes_at`, the proof of the peeled F on the image of an
  (e*a + 1) x (e*b + 1) product grid, on :func:`eval_form`;
* the degree scan of ``tensurf.oracle`` as the fallback.

:func:`implicit_by_elimination` runs them in that order.
"""

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from tensurf import linalg, oracle, planes
from tensurf.oracle import OracleResult
from tensurf.syzygy import SurfaceInput
from tensurf.xpoly import eval_matrix, monomials_of_degree

# Elements of ``eval_form``'s monomial table per row chunk (256 KB of int64).
FORM_CHUNK = 1 << 15


def eval_form(cube: np.ndarray, degree: int, points: np.ndarray, p: int
              ) -> np.ndarray:
    """Values of a form of degree ``degree`` at (N, n + 1) points x0..xn.

    ``cube`` (n axes of size degree + 1) holds its coefficients at x0 = 1:
    entry [e1, .., en] belongs to x0^(degree - e1 - .. - en) x1^e1 .. xn^en.
    Rows with x0 != 0 are scaled to x0 = 1 by one ``inverse_many``; one
    ``matmul_mod`` of ``cube`` by the monomials of degree <= ``degree`` in
    z1..z(n-1) gives the coefficients in zn, which a power table of zn
    sums, times x0^degree.  Rows with x0 = 0 take the terms free of x0, an
    array with one axis fewer, the same way.  Monomial tables hold about
    ``FORM_CHUNK`` elements."""
    pts = np.asarray(points, dtype=np.int64) % p
    n, lead, width = cube.ndim, pts[:, 0], degree + 1
    if not n:
        return int(cube) * linalg.pow_mod_array(lead, degree, p) % p
    out = np.zeros(len(pts), dtype=np.int64)
    off = np.flatnonzero(lead == 0)
    if off.size:   # the terms free of x0: exponents summing to the degree
        top = np.where(np.indices(cube.shape).sum(axis=0) == degree, cube, 0)
        out[off] = eval_form(top.sum(axis=0), degree, pts[off, 1:], p)
    on = np.flatnonzero(lead)
    z = pts[on, 1:] * linalg.inverse_many(lead[on], p)[:, None] % p
    scale = linalg.pow_mod_array(lead[on], degree, p)
    exps = np.indices(cube.shape[:-1]).reshape(n - 1, cube.size // width)
    keep = exps.sum(axis=0) <= degree
    exps, table = exps[:, keep], cube.reshape(-1, width)[keep].T
    step = max(width, FORM_CHUNK // table.shape[1])
    for lo in range(0, len(on), step):
        zc = z[lo:lo + step]   # power tables pw[power, variable, row]
        pw = linalg.vandermonde(zc.T.reshape(-1), width, p).T.reshape(
            width, n, -1)
        mons = np.ones((1, len(zc)), dtype=np.int64)
        for k, ex in enumerate(exps):
            mons = mons * pw[ex, k] % p
        coef = linalg.matmul_mod(table, mons, p)   # rows ascending in zn
        out[on[lo:lo + step]] = ((coef * pw[:, -1] % p).sum(axis=0) % p
                                 * scale[lo:lo + step] % p)
    return out


def _section_points(grids: list, plane_rows: np.ndarray, need: np.ndarray,
                    per_point: float, rng, p: int) -> list:
    """Distinct points of X on each plane H_k = {plane_rows[k] . y = 0}.

    ``tensurf.planes._section_points`` for several levels at once: a draw
    for level k fixes the random coordinate and takes the roots of the
    degree-K form plane_rows[k] . phi (``planes._split_roots``).  Image
    points are scaled to a leading 1, checked exactly to lie on H_k, and
    dropped when they repeat or lie on an earlier plane H_j, j < k.  Each
    round draws for the levels still short of ``need``, sized by the yield
    seen so far; after ``planes._ROUNDS`` rounds the levels are returned as
    far as they got, each at most ``need[k]``.  With one level it draws
    what ``tensurf.planes._section_points`` draws.
    """
    levels = np.arange(len(need))
    K = grids[0].shape[1] - 1
    found = [{} for _ in need]   # insertion-ordered sets
    drawn = fresh = 0
    cap = 4 * per_point
    for _ in range(planes._ROUNDS):
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
        form = (plane_rows[lev].T[:, :, None] * coef % p).sum(axis=0) % p
        idx, roots = planes._split_roots(form.T, rng.integers(0, p, lev.size),
                                         p)
        y = coef[:, idx, K]
        for j in range(K - 1, -1, -1):
            y = (y * roots + coef[:, idx, j]) % p
        y, lev = y.T, lev[idx]
        nz = y != 0
        live = nz.any(axis=1)
        y, lev = y[live], lev[live]
        lead = y[np.arange(len(y)), nz[live].argmax(axis=1)]
        y = y * linalg.inverse_many(lead, p)[:, None] % p
        mv = linalg.matmul_mod(y, plane_rows.T, p)
        ok = ((mv != 0) | (levels >= lev[:, None])).all(axis=1) & (
            mv[np.arange(len(y)), lev] == 0)
        for row, k in zip(map(tuple, y[ok].tolist()), lev[ok].tolist()):
            if row not in found[k]:
                found[k][row] = None
                fresh += 1
    return [np.array(list(f)[:n], dtype=np.int64).reshape(-1, 4)
            for f, n in zip(found, need.tolist())]


def _need(e: int) -> np.ndarray:
    """Points per level of a degree-e peel: the unknowns of G_k + margin."""
    return np.array([math.comb(e - k + 2, 2) + planes._SAMPLE_MARGIN
                     for k in range(e + 1)])


@dataclass(frozen=True)
class Section:
    """The level-0 plane section: the degree e, G_0 (the line of the level-0
    kernel at e) and what :func:`peel` draws the other levels from.  The
    generator grids are oriented and reduced as in :func:`section`."""

    e: int
    g0: np.ndarray
    points: np.ndarray
    grids: list
    planes: np.ndarray
    per_point: float
    rng: np.random.Generator
    p: int


def section(inp: SurfaceInput, gen_grids: list) -> Optional[Section]:
    """``tensurf.planes.section`` with its draws, keeping what the peel
    needs, or None where it gives None."""
    p, a, b = inp.field.p, inp.a, inp.b
    grids = gen_grids if a > b else [g.T for g in gen_grids]
    step = math.gcd(*np.flatnonzero(np.any(grids, axis=(0, 1))).tolist()) or 1
    grids = [g[:, ::step] for g in grids]
    K = grids[0].shape[1] - 1
    if K > 8:
        return None
    e_max = 2 * a * b // step
    rng = np.random.default_rng(inp.field.rng("oracle-sample").getrandbits(64))
    plane_rows = rng.integers(0, p, (e_max + 1, 4))
    plane_rows[:, 0] = rng.integers(1, p, e_max + 1)
    per_point = 1 if K == 1 else 2
    need = int(_need(e_max)[0])
    pts = planes._section_points(grids, plane_rows[0], need, per_point, rng, p)
    if len(pts) < need:
        return None

    def level0_kernel(D: int) -> list:
        return linalg.kernel_basis(
            eval_matrix(D, pts[:_need(D)[0], 1:], p), p)

    e, kern = e_max, level0_kernel(e_max)
    if len(kern) > 1:
        for e in [k for k in range(1, e_max) if e_max % k == 0]:
            kern = level0_kernel(e)
            if kern:
                break
    if len(kern) != 1:
        return None
    return Section(e, kern[0], pts[:_need(e)[0]], grids, plane_rows[:e + 1],
                   per_point, rng, p)


def _assemble(gs: list, plane_rows: np.ndarray, p: int) -> np.ndarray:
    """Coefficient cube (as ``XPoly.coeff_cube``) of
    G_0 + m_0 (G_1 + m_1 (... + m_(e-1) G_e)).

    G_k is a form of degree e - k in x1, x2, x3, its coefficients in
    ``monomials_of_degree`` order, and m_k = plane_rows[k].  Horner's rule
    runs on the cube at x0 = 1: multiplying by m_k is m_k[0] times the cube
    plus m_k[i] times the cube shifted one step along axis i.  ``np.roll``
    wraps the last slice round, but below degree e that slice is zero.
    """
    e = len(gs) - 1
    cube = np.zeros((e + 1,) * 3, dtype=np.int64)
    cube[0, 0, 0] = gs[e][0] % p
    for k in range(e - 1, -1, -1):
        m = plane_rows[k]
        cube = (cube * m[0] % p + sum(np.roll(cube, 1, axis=i) * m[i + 1] % p
                                      for i in range(3))) % p
        cube[tuple(zip(*monomials_of_degree(e - k, 3)))] += gs[k]
        cube %= p
    return cube


def peel(sec: Section) -> Optional[np.ndarray]:
    """A candidate coefficient cube of degree e peeled off the planes of a
    level-0 section, or None.

    At a point y of X on H_k and off the earlier planes, G_k(y) = F_k(y),
    where F_0 = F = 0 on X and F_(j+1) = (F_j - G_j) / m_j.  G_0 is the
    section's; points for levels 1..e are drawn now, and each G_k solves its
    sampled system.  None when points run short or a system is
    inconsistent.  ``eval_form`` gives G_k at the later levels' points.
    """
    e, p, plane_rows = sec.e, sec.p, sec.planes
    need = _need(e)
    pts = _section_points(sec.grids, plane_rows,
                          np.concatenate([[0], need[1:]]), sec.per_point,
                          sec.rng, p)
    pts[0] = sec.points
    if any(len(y) < n for y, n in zip(pts, need.tolist())):
        return None
    Y = np.concatenate(pts)
    start = np.cumsum([0] + need.tolist())
    mv = linalg.matmul_mod(Y, plane_rows.T, p)
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
    return _assemble(gs, plane_rows, p)


def _vanishes_at(degree: int, points: np.ndarray, cube: np.ndarray,
                 p: int) -> bool:
    """Whether the form with coefficient cube ``cube`` is zero at every
    point."""
    return not eval_form(cube, degree, points, p).any()


def _grid_points(inp: SurfaceInput, e: int) -> np.ndarray:
    """The image of the degree scan's (e*a + 1) x (e*b + 1) product grid in
    ``tensurf.oracle``: its first nodes in t and in v, from the same
    stream."""
    p, a, b, size = inp.field.p, inp.a, inp.b, 2 * inp.a * inp.b
    rng = inp.field.rng("oracle")
    t_nodes, v_nodes = (rng.sample(range(p), size * n + 1) for n in (a, b))
    tv = linalg.vandermonde(t_nodes[:e * a + 1], a + 1, p)
    vv = linalg.vandermonde(v_nodes[:e * b + 1], b + 1, p)
    return np.stack([linalg.matmul_mod(linalg.matmul_mod(tv, g, p), vv.T,
                                       p).reshape(-1) for g in inp.grids],
                    axis=1)


def implicit_by_elimination(inp: SurfaceInput) -> OracleResult:
    """The minimal implicit equation of the image from the generators
    alone, normalized to a leading 1.

    The plane section gives e and G_0, the peel a candidate, which must
    vanish on the image of the product grid: F of bidegree (e*a, e*b) in
    the parameters then vanishes identically, and the section's line at e
    rules out every lower degree.  Any failure, or a grid point where all
    four generators vanish, leaves F to the degree scan, on the same grid.
    """
    oracle.check_prime_floor(inp.a, inp.b, inp.field.p)
    sec = section(inp, list(inp.grids))
    if sec is not None:
        points = _grid_points(inp, sec.e)
        cube = peel(sec) if points.any(axis=1).all() else None
        if cube is not None and _vanishes_at(sec.e, points, cube, inp.field.p):
            return oracle._result(inp, sec.e, cube)
    return oracle._scan(inp)
