"""Polynomials in the four homogeneous image coordinates x0..x3 over F_p.

:class:`XPoly` is the K[x0..x3] subclass of the sparse core
:class:`tensurf.bipoly.SparsePoly`, which supplies its arithmetic, parser
and printer; it adds the total-degree grading.  A dense form of degree e
is its coefficient cube at x0 = 1 (``XPoly.coeff_cube`` and
``XPoly.from_cube``), the one array format of forms here.  The module
also provides the one monomial table (:func:`monomials_of_degree`, and
:func:`eval_matrix` at many points), in x0..x3 or, for the plane sections
of :mod:`tensurf.planes`, in x1, x2, x3; the one vectorized evaluator of
cubes (:func:`eval_form`) and the one interpolator into a cube
(:func:`lattice_form`, from values on the principal lattice).  Used by the
strand, the elimination oracle, the plane sections, the determinant
certificate and the reference checks.
"""

from __future__ import annotations

import heapq
from typing import Optional

import numpy as np

from . import linalg
from .bipoly import Exponent, SparsePoly, _Parser


def monomials_of_degree(degree: int, n_vars: int = 4
                        ) -> list[tuple[int, ...]]:
    """Exponent tuples of total degree ``degree`` in ``n_vars`` variables.

    Ordered lexicographically descending: the first variable's power
    ``degree`` comes first and the last one's last.  In x1, x2, x3 this is
    the order of the x0-free tail of the list in x0..x3.
    """
    heads = [((), degree)]   # leading exponents and the degree left
    for _ in range(n_vars - 1):
        heads = [(head + (e,), left - e) for head, left in heads
                 for e in range(left, -1, -1)]
    return [head + (left,) for head, left in heads]


def eval_matrix(degree: int, points: np.ndarray, p: int) -> np.ndarray:
    """Evaluate every degree-``degree`` monomial at every point.

    ``points`` is an (N, n) int64 array of coordinates, one column per
    variable.  The result has shape (N, number of monomials) with columns
    ordered as in :func:`monomials_of_degree` in n variables: the product,
    variable by variable, of columns of each variable's power table.
    """
    pts = np.asarray(points, dtype=np.int64) % p
    if pts.ndim != 2 or not pts.shape[1]:
        raise ValueError("points must have shape (N, n) with n >= 1")
    mons = np.array(monomials_of_degree(degree, pts.shape[1]), dtype=np.int64)
    tables = [linalg.vandermonde(x, degree + 1, p) for x in pts.T]
    vals = tables[0][:, mons[:, 0]]
    for table, exps in zip(tables[1:], mons.T[1:]):
        vals *= table[:, exps]
        vals %= p
    return vals


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


# ---------------------------------------------------------------------------
# the principal lattice


def _contract(cube: np.ndarray, mats, p: int) -> np.ndarray:
    """``mats[a]`` applied along axis a of ``cube``: three ``matmul_mod``
    products, each contracting the first axis and putting the new one
    last."""
    for mat in mats:
        cube = np.moveaxis(linalg.matmul_mod(mat, cube.reshape(
            len(cube), -1), p).reshape(-1, *cube.shape[1:]), 0, -1)
    return cube


def _support(degree: int, box: tuple) -> np.ndarray:
    """The mask i + j + k <= degree on {0..b1} x {0..b2} x {0..b3}."""
    i, j, k = (np.arange(b + 1) for b in box)
    return i[:, None, None] + j[:, None] + k <= degree


def principal_lattice(degree: int, box: tuple) -> np.ndarray:
    """The points (1, i, j, k) with i + j + k <= degree and (i, j, k) at
    most ``box`` = (b1, b2, b3) coordinatewise, in lexicographic order of
    (i, j, k); with every b = degree, the C(degree + 3, 3) points of the
    principal lattice.  A form of degree ``degree`` and of degree at most
    b1, b2, b3 in x1, x2, x3 that vanishes there is zero when the nodes
    0..degree are distinct mod p (Chung & Yao, SIAM J. Numer. Anal. 14,
    1977; :func:`lattice_form` for the box)."""
    i, j, k = np.nonzero(_support(degree, box))
    return np.stack([np.ones_like(i), i, j, k], axis=1, dtype=np.int64)


def lattice_values(cube: np.ndarray, size: int, p: int, box: tuple
                   ) -> np.ndarray:
    """The form with coefficient cube ``cube`` (as ``XPoly.coeff_cube``) on
    the points of ``principal_lattice(size, box)``: on the box, ``cube``
    contracted on each axis with the Vandermonde matrix of that axis'
    nodes, then masked to i + j + k <= size."""
    vander = linalg.vandermonde(np.arange(max(box) + 1), len(cube), p)
    return _contract(cube, [vander[:b + 1] for b in box], p)[
        _support(size, box)]


def lattice_form(values: np.ndarray, degree: int, p: int, box: tuple
                 ) -> np.ndarray:
    """The coefficient cube (as ``XPoly.coeff_cube``) of the form of degree
    ``degree``, of degree at most b1, b2, b3 in x1, x2, x3 (``box``), that
    takes ``values`` on ``principal_lattice(degree, box)``; needs
    p > degree.

    At x0 = 1 the form is sum D[i, j, k] C(x1, i) C(x2, j) C(x3, k) over
    the lattice's exponents S, D its forward differences at 0
    (Gregory-Newton).  S is a lower set, so D on S only takes values on S
    and the monomials on S span the same forms.  Of the pair
    ``linalg.newton_operators`` (degree, p), built once, diff is lower and
    newton upper triangular: three contractions with diff's leading
    (b + 1) x (b + 1) blocks give D, three with newton's first b + 1
    columns the cube.
    """
    inside = _support(degree, box)
    cube = np.zeros(inside.shape, dtype=np.int64)
    cube[inside] = values % p
    diff, newton = linalg.newton_operators(degree, p)
    cube = _contract(cube, [diff[:b + 1, :b + 1] for b in box], p) * inside
    return _contract(cube, [newton[:, :b + 1] for b in box], p)


class XPoly(SparsePoly):
    """Sparse polynomial in x0..x3, keyed by exponent tuples."""

    __slots__ = ()
    VARS = ("x0", "x1", "x2", "x3")
    ORDER = (0, 1, 2, 3)

    @staticmethod
    def from_cube(p: int, degree: int, cube: np.ndarray) -> "XPoly":
        """The form of degree ``degree`` whose ``coeff_cube`` is ``cube``."""
        cube = np.asarray(cube) % p
        at = np.argwhere(cube)
        if at.size and at.sum(axis=1).max() > degree:
            raise ValueError(f"coefficient cube exceeds degree {degree}")
        return XPoly(p, {(degree - i - j - k, i, j, k): int(cube[i, j, k])
                         for i, j, k in at.tolist()})

    def coeff_cube(self, degree: int) -> np.ndarray:
        """Coefficients at x0 = 1, the cube ``eval_form`` takes."""
        if not self.is_homogeneous(degree):
            raise ValueError("not homogeneous of the requested degree")
        out = np.zeros((degree + 1,) * 3, dtype=np.int64)
        for exp, c in self.terms.items():
            out[exp[1:]] = c
        return out

    def degree(self) -> Optional[int]:
        """Common total degree, or None for zero / inhomogeneous input."""
        degs = {sum(exp) for exp in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int) -> bool:
        return self.is_zero or self.degree() == degree


# ---------------------------------------------------------------------------
# division and linear changes of coordinates


def _grlex_key(exp: Exponent) -> tuple[int, int, int, int]:
    return (exp[0] + exp[1] + exp[2] + exp[3], exp[0], exp[1], exp[2])


def divide_with_remainder(f: XPoly, g: XPoly) -> tuple[XPoly, XPoly]:
    """Long division f = q*g + r by a single divisor, graded-lex order.

    No monomial of r is divisible by the leading monomial of g, so for a
    single divisor r is zero exactly when g divides f.
    """
    if g.is_zero:
        raise ZeroDivisionError("division by the zero polynomial")
    p = f.p
    g_lead = max(g.terms, key=_grlex_key)
    g_inv = pow(g.terms[g_lead], -1, p)
    work = dict(f.terms)
    heap: list[tuple[tuple[int, int, int, int], Exponent]] = []
    for e in work:
        heapq.heappush(heap, (tuple(-x for x in _grlex_key(e)), e))
    quotient: dict[Exponent, int] = {}
    remainder: dict[Exponent, int] = {}
    while heap:
        _, e = heapq.heappop(heap)
        c = work.pop(e, 0)
        if not c:
            continue
        diff = tuple(e[k] - g_lead[k] for k in range(4))
        if min(diff) < 0:
            remainder[e] = c
            continue
        q = c * g_inv % p
        quotient[diff] = (quotient.get(diff, 0) + q) % p
        for ge, gc in g.terms.items():
            if ge == g_lead:
                continue
            exp = (diff[0] + ge[0], diff[1] + ge[1],
                   diff[2] + ge[2], diff[3] + ge[3])
            prev = work.get(exp)
            cur = ((prev or 0) - q * gc) % p
            if cur:
                work[exp] = cur
                if prev is None:
                    heapq.heappush(heap, (tuple(-x for x in _grlex_key(exp)), exp))
            else:
                work.pop(exp, None)
    return XPoly(p, quotient), XPoly(p, remainder)


def linear_substitute(f: XPoly, mat: np.ndarray) -> XPoly:
    """Substitute x_i -> sum_j mat[i, j] x_j into f, exactly."""
    p = f.p
    m = np.asarray(mat, dtype=np.int64) % p
    forms = [XPoly(p, {tuple(1 if k == j else 0 for k in range(4)): int(m[i, j])
                       for j in range(4) if m[i, j]}) for i in range(4)]
    powers: list[dict[int, XPoly]] = [{0: XPoly.const(p, 1)} for _ in range(4)]

    def power(i: int, e: int) -> XPoly:
        cache = powers[i]
        if e not in cache:
            cache[e] = power(i, e - 1) * forms[i]
        return cache[e]

    out = XPoly.zero(p)
    for exp, c in f.terms.items():
        term = XPoly.const(p, c)
        for i in range(4):
            if exp[i]:
                term = term * power(i, exp[i])
        out = out + term
    return out


# ---------------------------------------------------------------------------
# parsing (bipoly.poly_to_str prints)

def parse_xpoly(text: str, p: int) -> XPoly:
    """Parse a polynomial in x0..x3 with integer coefficients mod p."""
    return _Parser(XPoly, text, p).parse()
