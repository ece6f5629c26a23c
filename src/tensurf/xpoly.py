"""Polynomials in the four homogeneous image coordinates x0..x3 over F_p.

Provides sparse arithmetic, degree-graded monomial enumeration with
vectorized point evaluation, and exact composition with a bihomogeneous
parameterization via dense coefficient grids.  Used by the determinant
certificate and by the independent elimination cross-check.
"""

from __future__ import annotations

import heapq
import math
from typing import Optional, Sequence

import numpy as np

from .bipoly import BiPoly, ParseError

Exponent = tuple[int, int, int, int]

VAR_NAMES = ("x0", "x1", "x2", "x3")


def num_monomials(degree: int) -> int:
    """Dimension of the space of degree-``degree`` forms in four variables."""
    return math.comb(degree + 3, 3)


def monomials_of_degree(degree: int) -> list[Exponent]:
    """Exponent tuples of total degree ``degree``.

    Ordered by the first three exponents lexicographically descending, so
    x0^degree comes first and x3^degree last.
    """
    out: list[Exponent] = []
    for e0 in range(degree, -1, -1):
        for e1 in range(degree - e0, -1, -1):
            for e2 in range(degree - e0 - e1, -1, -1):
                out.append((e0, e1, e2, degree - e0 - e1 - e2))
    return out


def eval_matrix(degree: int, points: np.ndarray, p: int) -> np.ndarray:
    """Evaluate every degree-``degree`` monomial at every point.

    ``points`` is an (N, 4) int64 array of coordinates reduced mod p.  The
    result has shape (N, num_monomials(degree)) with columns ordered as in
    :func:`monomials_of_degree`.  Each column is one product of a value
    x0^e0 * x1^e1 and a value x2^e2 * x3^e3, both taken from tables of all
    (degree + 1)^2 exponent pairs.
    """
    pts = np.asarray(points, dtype=np.int64) % p
    if pts.ndim != 2 or pts.shape[1] != 4:
        raise ValueError("points must have shape (N, 4)")
    n, width = pts.shape[0], degree + 1
    powers = np.ones((4, n, width), dtype=np.int64)
    for e in range(1, width):
        powers[:, :, e] = powers[:, :, e - 1] * pts.T % p
    low = (powers[0, :, :, None] * powers[1, :, None, :] % p).reshape(n, -1)
    high = (powers[2, :, :, None] * powers[3, :, None, :] % p).reshape(n, -1)
    mons = np.array(monomials_of_degree(degree), dtype=np.int64)
    vals = low[:, mons[:, 0] * width + mons[:, 1]]
    vals *= high[:, mons[:, 2] * width + mons[:, 3]]
    vals %= p
    return vals


class XPoly:
    """Sparse polynomial in x0..x3, keyed by exponent tuples."""

    __slots__ = ("p", "terms")

    def __init__(self, p: int, terms: Optional[dict] = None):
        self.p = p
        self.terms: dict[Exponent, int] = {}
        if terms:
            for exp, c in terms.items():
                c %= p
                if c:
                    self.terms[exp] = c

    @staticmethod
    def zero(p: int) -> "XPoly":
        return XPoly(p)

    @staticmethod
    def monomial(p: int, exp: Exponent, c: int = 1) -> "XPoly":
        return XPoly(p, {exp: c})

    @staticmethod
    def const(p: int, c: int) -> "XPoly":
        return XPoly(p, {(0, 0, 0, 0): c})

    @staticmethod
    def variable(p: int, k: int) -> "XPoly":
        exp = [0, 0, 0, 0]
        exp[k] = 1
        return XPoly(p, {tuple(exp): 1})

    @staticmethod
    def from_coeff_vector(p: int, degree: int, vec: Sequence[int]) -> "XPoly":
        mons = monomials_of_degree(degree)
        if len(vec) != len(mons):
            raise ValueError("coefficient vector has wrong length")
        return XPoly(p, {exp: int(c) for exp, c in zip(mons, vec)})

    def coeff_vector(self, degree: int) -> np.ndarray:
        if not self.is_homogeneous(degree):
            raise ValueError("not homogeneous of the requested degree")
        mons = monomials_of_degree(degree)
        pos = {exp: i for i, exp in enumerate(mons)}
        out = np.zeros(len(mons), dtype=np.int64)
        for exp, c in self.terms.items():
            out[pos[exp]] = c
        return out

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> Optional[int]:
        """Common total degree, or None for zero / inhomogeneous input."""
        degs = {sum(exp) for exp in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_homogeneous(self, degree: int) -> bool:
        return self.is_zero or self.degree() == degree

    def __eq__(self, other: object) -> bool:
        return (isinstance(other, XPoly) and self.p == other.p
                and self.terms == other.terms)

    def __hash__(self):  # pragma: no cover
        return hash((self.p, frozenset(self.terms.items())))

    def __add__(self, other: "XPoly") -> "XPoly":
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = (out.get(exp, 0) + c) % self.p
        return XPoly(self.p, out)

    def __sub__(self, other: "XPoly") -> "XPoly":
        return self + (-other)

    def __neg__(self) -> "XPoly":
        return XPoly(self.p, {e: -c % self.p for e, c in self.terms.items()})

    def scale(self, c: int) -> "XPoly":
        c %= self.p
        return XPoly(self.p, {e: a * c % self.p for e, a in self.terms.items()})

    def __mul__(self, other: "XPoly") -> "XPoly":
        p = self.p
        out: dict[Exponent, int] = {}
        a_items = self.terms.items()
        for e2, c2 in other.terms.items():
            for e1, c1 in a_items:
                exp = (e1[0] + e2[0], e1[1] + e2[1],
                       e1[2] + e2[2], e1[3] + e2[3])
                out[exp] = (out.get(exp, 0) + c1 * c2) % p
        return XPoly(p, out)

    def __pow__(self, n: int) -> "XPoly":
        if n < 0:
            raise ValueError("negative power")
        result = XPoly.const(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def eval(self, point: Sequence[int]) -> int:
        p = self.p
        acc = 0
        for exp, c in self.terms.items():
            term = c
            for k in range(4):
                if exp[k]:
                    term = term * pow(int(point[k]) % p, exp[k], p) % p
            acc = (acc + term) % p
        return acc

    def eval_many(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at each row of an (N, 4) array, vectorized per term."""
        pts = np.asarray(points, dtype=np.int64) % self.p
        acc = np.zeros(pts.shape[0], dtype=np.int64)
        for exp, c in self.terms.items():
            term = np.full(pts.shape[0], c, dtype=np.int64)
            for k in range(4):
                e = exp[k]
                col = pts[:, k]
                while e:
                    if e & 1:
                        term = term * col % self.p
                    col = col * col % self.p
                    e >>= 1
            acc = (acc + term) % self.p
        return acc


# ---------------------------------------------------------------------------
# dense coefficient grids and exact composition

def grid_from_bipoly(f: BiPoly, a: int, b: int) -> np.ndarray:
    """Dehomogenize an (a, b)-form at s = u = 1 onto a dense (t, v) grid.

    Entry [j, l] is the coefficient of t^j v^l.  No information is lost:
    a bihomogeneous form of known bidegree is determined by this grid.
    """
    if not f.is_bihomogeneous(a, b):
        raise ValueError("input is not bihomogeneous of the stated bidegree")
    out = np.zeros((a + 1, b + 1), dtype=np.int64)
    for (i, j, k, l), c in f.terms.items():
        out[j, l] = c
    return out


def grid_mul(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    """Multiply two dense coefficient grids mod p."""
    out = np.zeros((x.shape[0] + y.shape[0] - 1,
                    x.shape[1] + y.shape[1] - 1), dtype=np.int64)
    xr, xc = x.shape
    for (j, l), c in np.ndenumerate(y):
        if c:
            out[j:j + xr, l:l + xc] = (out[j:j + xr, l:l + xc] + c * x) % p
    return out


def grid_add(x: np.ndarray, y: np.ndarray, p: int) -> np.ndarray:
    rows = max(x.shape[0], y.shape[0])
    cols = max(x.shape[1], y.shape[1])
    out = np.zeros((rows, cols), dtype=np.int64)
    out[:x.shape[0], :x.shape[1]] = x
    out[:y.shape[0], :y.shape[1]] = (out[:y.shape[0], :y.shape[1]] + y) % p
    return out


def compose_with_map(f: XPoly, gens: Sequence[BiPoly], a: int, b: int
                     ) -> np.ndarray:
    """Exact dense grid of f(g0, g1, g2, g3) dehomogenized at s = u = 1.

    Horner evaluation variable by variable; the result is the zero grid
    exactly when f vanishes identically on the image of the map.
    """
    p = f.p
    grids = [grid_from_bipoly(g, a, b) for g in gens]

    def rec(terms: dict, k: int) -> np.ndarray:
        if not terms:
            return np.zeros((1, 1), dtype=np.int64)
        if k == 3:
            top = max(e[3] for e in terms)
            acc = np.zeros((1, 1), dtype=np.int64)
            for e3 in range(top, 0, -1):
                c = terms.get((0, 0, 0, e3), 0)
                acc = grid_add(acc, np.array([[c]], dtype=np.int64), p)
                acc = grid_mul(acc, grids[3], p)
            tail = np.array([[terms.get((0, 0, 0, 0), 0)]], dtype=np.int64)
            return grid_add(acc, tail, p)
        top = max(e[k] for e in terms)
        acc: Optional[np.ndarray] = None
        for ek in range(top, -1, -1):
            sub = {}
            for e, c in terms.items():
                if e[k] == ek:
                    reduced = list(e)
                    reduced[k] = 0
                    sub[tuple(reduced)] = c
            part = rec(sub, k + 1)
            if acc is None:
                acc = part
            else:
                acc = grid_mul(acc, grids[k], p)
                acc = grid_add(acc, part, p)
        assert acc is not None
        return acc

    return rec(dict(f.terms), 0)


def vanishes_on_map(f: XPoly, gens: Sequence[BiPoly], a: int, b: int) -> bool:
    """Exact test that f(g0, .., g3) is identically zero."""
    return not compose_with_map(f, gens, a, b).any()


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
# parsing and printing

class _XParser:
    """Recursive-descent parser for +, -, *, ^ and ** over x0..x3."""

    def __init__(self, text: str, p: int):
        self.text = text
        self.p = p
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self) -> XPoly:
        out = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(
                f"unexpected character {self.text[self.pos]!r}", self.pos)
        return out

    def _expr(self) -> XPoly:
        ch = self._peek()
        if ch == "+":
            self.pos += 1
        acc = self._term()
        while True:
            ch = self._peek()
            if ch == "+":
                self.pos += 1
                acc = acc + self._term()
            elif ch == "-":
                self.pos += 1
                acc = acc - self._term()
            else:
                return acc

    def _term(self) -> XPoly:
        acc = self._factor()
        while self._peek() == "*":
            self.pos += 1
            if self._peek() == "*":  # tolerate ** as exponentiation
                self.pos += 1
                acc = acc ** self._integer()
            else:
                acc = acc * self._factor()
        return acc

    def _factor(self) -> XPoly:
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        base = self._atom()
        if self._peek() == "^":
            self.pos += 1
            return base ** self._integer()
        return base

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.pos)
        return int(self.text[start:self.pos])

    def _atom(self) -> XPoly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch.isdigit():
            return XPoly.const(self.p, self._integer())
        if ch == "x":
            nxt = self.text[self.pos + 1] if self.pos + 1 < len(self.text) else ""
            if nxt in "0123":
                self.pos += 2
                return XPoly.variable(self.p, int(nxt))
            raise ParseError("expected one of x0, x1, x2, x3", self.pos)
        if ch.isalpha():
            raise ParseError(f"unknown variable {ch!r}", self.pos)
        raise ParseError("expected a term", self.pos)


def parse_xpoly(text: str, p: int) -> XPoly:
    """Parse a polynomial in x0..x3 with integer coefficients mod p."""
    return _XParser(text, p).parse()


def _lift(c: int, p: int) -> int:
    return c - p if c > p // 2 else c


def xpoly_to_str(f: XPoly) -> str:
    """Render with balanced coefficient lifts, highest x0-power first."""
    if f.is_zero:
        return "0"
    items = sorted(f.terms.items(),
                   key=lambda kv: (-kv[0][0], -kv[0][1], -kv[0][2]))
    parts: list[str] = []
    for exp, c in items:
        lifted = _lift(c, f.p)
        mono = "*".join(f"{VAR_NAMES[k]}^{e}" if e > 1 else VAR_NAMES[k]
                        for k, e in enumerate(exp) if e)
        mag = abs(lifted)
        if not mono:
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}*{mono}"
        if not parts:
            parts.append(body if lifted > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if lifted > 0 else f"- {body}")
    return " ".join(parts)
