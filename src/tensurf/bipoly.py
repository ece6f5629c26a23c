"""Sparse polynomials in four variables and binary forms over a prime field.

The package works in two polynomial rings over K = F_p, both with four
variables and 4-tuple exponent keys: K[s, t, u, v], bigraded by
deg(s) = deg(t) = (1, 0) and deg(u) = deg(v) = (0, 1), and K[x0..x3] of
the image (see :mod:`tensurf.xpoly`).  Containers:

* :class:`SparsePoly` — the one sparse dict-of-exponents arithmetic,
  expression parser and printer, driven by a subclass's variable names
  and print order.
* :class:`BiPoly` — the subclass for K[s, t, u, v], keyed by
  ``(i, j, k, l)`` for ``s^i t^j u^k v^l``, with its bigraded helpers.
* :class:`UniHomPoly` — dense binary form in one variable pair, with an
  explicit graded degree so the zero form of each degree is representable.
  ``coeffs[k]`` is the coefficient of ``x^(d-k) y^k`` for the pair (x, y);
  the pair is (u, v) everywhere except where noted.  Its arithmetic runs
  on the dense univariate ``_upoly_*`` helpers.

Global monomial order of K[s, t, u, v] (used for printing, coefficient
vectors and equation rows): s-exponent descending, then u-exponent
descending.  So the coefficient grid of an (a, b)-form, the
(a + 1, b + 1) array with entry [j, l] the coefficient of
s^(a-j) t^j u^(b-l) v^l, is ``coeff_vector(f, a, b).reshape(a + 1, b + 1)``;
a binary form in (u, v) is the one-row grid ``np.array([h.coeffs])``.
Every linear system over forms is built from one matrix of such grids,
:func:`multiplication_matrix`: column m holds the coefficients of f * m
for each monomial m of a bidegree (c, d).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

DEFAULT_PRIME = 2147483647  # largest signed-32-bit prime


class HypothesisError(Exception):
    """The input violates a structural hypothesis (no certificate exists)."""


class CertificateError(Exception):
    """An internal identity that the construction guarantees failed to hold."""


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin on bases 2, 3, 5 and 7.

    Exact for n < 3,215,031,751, the least strong pseudoprime to all four
    bases, which covers every supported prime (p < 2**31).
    """
    if n < 2:
        return False
    for q in (2, 3, 5, 7):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for base in (2, 3, 5, 7):
        x = pow(base, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldConfig:
    """Coefficient field F_p plus the master seed for randomized steps.

    ``p`` must be an odd prime below 2**31 so that products of two reduced
    residues fit in int64.
    """

    p: int = DEFAULT_PRIME
    seed: int = 0

    def __post_init__(self) -> None:
        if not (2 < self.p < 2**31):
            raise ValueError(f"prime must lie in (2, 2^31), got {self.p}")
        if not _is_prime(self.p):
            raise ValueError(f"{self.p} is not prime")

    def rng(self, purpose: str) -> random.Random:
        """Deterministic per-purpose random stream derived from the seed."""
        return random.Random(f"{self.seed}:{purpose}")


# ---------------------------------------------------------------------------
# dense binary forms


@dataclass(frozen=True)
class UniHomPoly:
    """Dense binary form of an explicit graded degree over F_p."""

    p: int
    degree: int
    coeffs: tuple[int, ...]

    def __post_init__(self) -> None:
        if self.degree < 0:
            raise ValueError("degree must be >= 0")
        if len(self.coeffs) != self.degree + 1:
            raise ValueError("coefficient length does not match degree")
        object.__setattr__(self, "coeffs", tuple(c % self.p for c in self.coeffs))

    @staticmethod
    def zero(p: int, degree: int) -> "UniHomPoly":
        return UniHomPoly(p, degree, (0,) * (degree + 1))

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def __add__(self, other: "UniHomPoly") -> "UniHomPoly":
        if self.degree != other.degree:
            raise ValueError("degree mismatch in binary-form addition")
        return UniHomPoly(
            self.p, self.degree,
            tuple((a + b) % self.p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "UniHomPoly") -> "UniHomPoly":
        return self + (-other)

    def __neg__(self) -> "UniHomPoly":
        return UniHomPoly(self.p, self.degree, tuple(-c % self.p for c in self.coeffs))

    def scale(self, c: int) -> "UniHomPoly":
        c %= self.p
        return UniHomPoly(self.p, self.degree, tuple(a * c % self.p for a in self.coeffs))

    def __mul__(self, other: "UniHomPoly") -> "UniHomPoly":
        return UniHomPoly(self.p, self.degree + other.degree,
                          tuple(_upoly_mul(self.coeffs, other.coeffs, self.p)))

    def to_bipoly(self) -> "BiPoly":
        """Embed into R with (x, y) read as (u, v)."""
        d = self.degree
        return BiPoly(self.p, {(0, 0, d - k, k): c
                               for k, c in enumerate(self.coeffs) if c})

    def to_bipoly_st(self) -> "BiPoly":
        """Embed into R with (x, y) read as (s, t)."""
        d = self.degree
        return BiPoly(self.p, {(d - k, k, 0, 0): c
                               for k, c in enumerate(self.coeffs) if c})

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"UniHomPoly(d={self.degree}, {self.coeffs})"


def _strip(coeffs: Sequence[int]) -> tuple[int, int, list[int]]:
    """Return (lo, hi, core) with core = coeffs[lo:hi+1], ends nonzero."""
    lo = next(i for i, c in enumerate(coeffs) if c)
    hi = max(i for i, c in enumerate(coeffs) if c)
    return lo, hi, list(coeffs[lo:hi + 1])


def _upoly_strip(a: list[int]) -> list[int]:
    """Drop the zero high coefficients of a dense univariate, in place."""
    while a and a[-1] == 0:
        a.pop()
    return a


def _upoly_mul(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Product of dense univariates (ascending coefficients)."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[i + j] = (out[i + j] + x * y) % p
    return out


def _upoly_divide(a: Sequence[int], b: Sequence[int], p: int) -> list[int]:
    """Exact quotient of dense univariates; raises ValueError otherwise."""
    rem = list(a)
    deg_q = len(a) - len(b)
    if deg_q < 0:
        raise ValueError("not divisible (degree)")
    inv = pow(b[-1], -1, p)
    q = [0] * (deg_q + 1)
    for i in range(deg_q, -1, -1):
        c = rem[i + len(b) - 1] * inv % p
        q[i] = c
        if c:
            for j, y in enumerate(b):
                rem[i + j] = (rem[i + j] - c * y) % p
    if any(rem):
        raise ValueError("not divisible (nonzero remainder)")
    return q


def _upoly_mod(a: list[int], b: list[int], p: int) -> list[int]:
    """Remainder of dense univariate a by b (ascending coefficients)."""
    a = _upoly_strip(a[:])
    db = len(b) - 1
    inv = pow(b[-1], -1, p)
    while len(a) - 1 >= db:
        q = a[-1] * inv % p
        off = len(a) - 1 - db
        for i, c in enumerate(b):
            a[off + i] = (a[off + i] - q * c) % p
        a.pop()
        _upoly_strip(a)
    return a


def _upoly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    while b:
        a, b = b, _upoly_mod(a, b, p)
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def uni_gcd(f: UniHomPoly, g: UniHomPoly) -> UniHomPoly:
    """Greatest common divisor of two binary forms.

    The result is normalized so its first nonzero coefficient is 1.  The gcd
    of two zero forms is the zero form of degree 0 by convention.
    """
    if f.is_zero and g.is_zero:
        return UniHomPoly.zero(f.p, 0)
    if f.is_zero:
        f, g = g, f
    if g.is_zero:
        lead = next(c for c in f.coeffs if c)
        return f.scale(pow(lead, -1, f.p))
    p = f.p
    f_lo, f_hi, f_core = _strip(f.coeffs)
    g_lo, g_hi, g_core = _strip(g.coeffs)
    # x-valuation of a form is (degree - hi), y-valuation is lo.
    y_val = min(f_lo, g_lo)
    x_val = min(f.degree - f_hi, g.degree - g_hi)
    core = _upoly_gcd(f_core, g_core, p)  # univariate in z = y/x
    r = len(core) - 1
    d = r + x_val + y_val
    coeffs = [0] * (d + 1)
    for k, c in enumerate(core):
        coeffs[y_val + k] = c
    out = UniHomPoly(p, d, tuple(coeffs))
    lead = next(c for c in out.coeffs if c)
    return out.scale(pow(lead, -1, p))


def uni_divide_exact(f: UniHomPoly, g: UniHomPoly) -> UniHomPoly:
    """Exact quotient f / g of binary forms; raises ValueError otherwise."""
    if g.is_zero:
        raise ValueError("division by the zero form")
    p = f.p
    if f.is_zero:
        if f.degree < g.degree:
            raise ValueError("degree of quotient would be negative")
        return UniHomPoly.zero(p, f.degree - g.degree)
    g_lo, g_hi, g_core = _strip(g.coeffs)
    f_lo, f_hi, f_core = _strip(f.coeffs)
    if f_lo < g_lo or (f.degree - f_hi) < (g.degree - g_hi):
        raise ValueError("not divisible (valuation)")
    # divide cores as univariates in z = y/x, ascending coefficients
    q = _upoly_divide(f_core, g_core, p)
    d = f.degree - g.degree
    coeffs = [0] * (d + 1)
    off = f_lo - g_lo
    for k, c in enumerate(q):
        coeffs[off + k] = c
    return UniHomPoly(p, d, tuple(coeffs))


# ---------------------------------------------------------------------------
# sparse polynomials in four variables

Exponent = tuple[int, int, int, int]


class SparsePoly:
    """Sparse polynomial in four variables over F_p, keyed by exponent tuples.

    A subclass names its ring: ``VARS`` are the variable names, in exponent
    position order, and ``ORDER`` lists exponent positions whose exponents
    sort the printed terms descending.  Parser and printer read both.
    Polynomials of different subclasses never compare equal.
    """

    __slots__ = ("p", "terms")
    VARS: tuple[str, ...]
    ORDER: tuple[int, ...]

    def __init__(self, p: int, terms: Optional[dict] = None):
        self.p = p
        self.terms: dict[Exponent, int] = {}
        if terms:
            for exp, c in terms.items():
                c %= p
                if c:
                    self.terms[exp] = c

    @classmethod
    def zero(cls, p: int):
        return cls(p)

    @classmethod
    def monomial(cls, p: int, exp: Exponent, c: int = 1):
        return cls(p, {exp: c})

    @classmethod
    def const(cls, p: int, c: int):
        return cls(p, {(0, 0, 0, 0): c})

    @property
    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other: object) -> bool:
        return (type(other) is type(self) and self.p == other.p
                and self.terms == other.terms)

    def __hash__(self):  # pragma: no cover
        return hash((self.p, frozenset(self.terms.items())))

    def __add__(self, other):
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = (out.get(exp, 0) + c) % self.p
        return type(self)(self.p, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return type(self)(self.p, {e: -c % self.p for e, c in self.terms.items()})

    def scale(self, c: int):
        c %= self.p
        return type(self)(self.p, {e: a * c % self.p
                                   for e, a in self.terms.items()})

    def __mul__(self, other):
        p = self.p
        out: dict[Exponent, int] = {}
        a_items = self.terms.items()
        for (i2, j2, k2, l2), c2 in other.terms.items():
            for (i1, j1, k1, l1), c1 in a_items:
                exp = (i1 + i2, j1 + j2, k1 + k2, l1 + l2)
                out[exp] = (out.get(exp, 0) + c1 * c2) % p
        return type(self)(p, out)

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative power")
        result = self.const(self.p, 1)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def eval(self, point: Sequence[int]) -> int:
        """Value at one point, given as four coordinates."""
        p = self.p
        x = [int(v) % p for v in point]
        acc = 0
        for exp, c in self.terms.items():
            for xk, e in zip(x, exp):
                if e:
                    c = c * pow(xk, e, p) % p
            acc = (acc + c) % p
        return acc

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"{type(self).__name__}({_format_poly(self)})"


class BiPoly(SparsePoly):
    """Sparse element of K[s,t,u,v], keyed by (i, j, k, l) exponent tuples."""

    __slots__ = ()
    VARS = ("s", "t", "u", "v")
    ORDER = (0, 2, 1, 3)

    def bidegree(self) -> Optional[tuple[int, int]]:
        """The common (st, uv) degree, or None for zero / inhomogeneous."""
        degs = {(i + j, k + l) for (i, j, k, l) in self.terms}
        if len(degs) == 1:
            return degs.pop()
        return None

    def is_bihomogeneous(self, c: int, d: int) -> bool:
        return self.is_zero or self.bidegree() == (c, d)

    def times_monomial(self, i: int, j: int, k: int, l: int) -> "BiPoly":
        return BiPoly(self.p, {(a + i, b + j, c + k, d + l): v
                               for (a, b, c, d), v in self.terms.items()})

    def st_slices(self, c: int, d: int) -> list[UniHomPoly]:
        """Split a (c, d)-form into (u,v)-forms, one per s^i t^(c-i), i descending."""
        rows = [[0] * (d + 1) for _ in range(c + 1)]
        for (i, j, k, l), a in self.terms.items():
            rows[c - i][l] = a
        return [UniHomPoly(self.p, d, tuple(r)) for r in rows]

    @staticmethod
    def from_st_slices(slices: Sequence[UniHomPoly], c: int, p: int) -> "BiPoly":
        """Inverse of :meth:`st_slices` (slices[0] goes with s^c)."""
        out: dict[tuple[int, int, int, int], int] = {}
        for pos, sl in enumerate(slices):
            i = c - pos
            d = sl.degree
            for k, coeff in enumerate(sl.coeffs):
                if coeff:
                    out[(i, c - i, d - k, k)] = coeff
        return BiPoly(p, out)


def mirror_poly(f: BiPoly) -> BiPoly:
    """Swap the roles of (s, t) and (u, v)."""
    return BiPoly(f.p, {(k, l, i, j): c for (i, j, k, l), c in f.terms.items()})


def divide_by_uni(f: BiPoly, g: UniHomPoly) -> BiPoly:
    """Exact quotient of a bihomogeneous f by a (u, v)-form g."""
    bd = f.bidegree()
    if f.is_zero:
        return f
    if bd is None:
        raise ValueError("dividend is not bihomogeneous")
    c, d = bd
    slices = f.st_slices(c, d)
    quot = [uni_divide_exact(sl, g) if not sl.is_zero
            else UniHomPoly.zero(f.p, d - g.degree) for sl in slices]
    return BiPoly.from_st_slices(quot, c, f.p)


def dot(xs: Sequence, ys: Sequence, zero):
    """Sum of x * y over the pairs whose factors are both nonzero, or
    ``zero`` when there are none.  Works for :class:`BiPoly` and for
    :class:`UniHomPoly`, whose ``zero`` carries the formal degree."""
    acc = None
    for x, y in zip(xs, ys):
        if not (x.is_zero or y.is_zero):
            acc = x * y if acc is None else acc + x * y
    return zero if acc is None else acc


# ---------------------------------------------------------------------------
# monomial order, coefficient vectors


def monomial_basis(c: int, d: int) -> list[tuple[int, int, int, int]]:
    """Monomials of bidegree (c, d): s-exponent descending, then u descending."""
    if c < 0 or d < 0:
        return []
    return [(i, c - i, k, d - k)
            for i in range(c, -1, -1) for k in range(d, -1, -1)]


def coeff_vector(f: BiPoly, c: int, d: int) -> NDArray[np.int64]:
    """Coefficients of a (c, d)-form in the global monomial order."""
    if not f.is_bihomogeneous(c, d):
        raise ValueError(f"expected a form of bidegree ({c}, {d})")
    vec = np.zeros((c + 1) * (d + 1), dtype=np.int64)
    for (_, j, _, l), a in f.terms.items():
        vec[j * (d + 1) + l] = a
    return vec


def multiplication_matrix(grid: NDArray[np.int64], c: int, d: int
                          ) -> NDArray[np.int64]:
    """Matrix of multiplication by an (a, b)-form f, given by its
    (a + 1, b + 1) coefficient grid, from bidegree (c, d) to (a + c, b + d).

    Column m holds the coefficients of f * m, m the m-th monomial of
    :func:`monomial_basis` (c, d), in :func:`coeff_vector` order.
    """
    a1, b1 = grid.shape
    j = np.arange(c + 1)[:, None, None, None]  # the monomial t^j v^l
    l = np.arange(d + 1)[:, None, None]
    x, y = np.arange(a1)[:, None], np.arange(b1)  # the grid entry t^x v^y
    out = np.zeros((a1 + c, b1 + d, c + 1, d + 1), dtype=np.int64)
    out[j + x, l + y, j, l] = grid
    return out.reshape((a1 + c) * (b1 + d), (c + 1) * (d + 1))


# ---------------------------------------------------------------------------
# parsing and printing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


_UNIT_EXPONENTS = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))


class _Parser:
    """Recursive-descent parser for +, -, *, ^ (alias **) and parentheses.

    Variables are the names in ``cls.VARS``; a power binds to the atom
    before it, so ``2*s^3`` and ``2*s**3`` are the same polynomial.
    """

    def __init__(self, cls: type, text: str, p: int):
        self.cls = cls
        self.text = text
        self.p = p
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def parse(self):
        out = self._expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ParseError(f"unexpected character {self.text[self.pos]!r}", self.pos)
        return out

    def _expr(self):
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

    def _term(self):
        acc = self._factor()
        while self._peek() == "*":
            self.pos += 1
            acc = acc * self._factor()
        return acc

    def _factor(self):
        ch = self._peek()
        if ch == "-":
            self.pos += 1
            return -self._factor()
        base = self._atom()
        ch = self._peek()
        if ch == "^" or self.text.startswith("**", self.pos):
            self.pos += 1 if ch == "^" else 2
            return base ** self._integer()
        return base

    def _atom(self):
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self._expr()
            if self._peek() != ")":
                raise ParseError("expected ')'", self.pos)
            self.pos += 1
            return inner
        if ch.isdigit():
            return self.cls.const(self.p, self._integer())
        if ch.isalpha():
            names = self.cls.VARS
            for name, exp in zip(names, _UNIT_EXPONENTS):
                if self.text.startswith(name, self.pos):
                    self.pos += len(name)
                    return self.cls.monomial(self.p, exp)
            if any(name[0] == ch for name in names):
                raise ParseError(f"expected one of {', '.join(names)}", self.pos)
            raise ParseError(f"unknown variable {ch!r}", self.pos)
        raise ParseError("expected a term", self.pos)

    def _integer(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise ParseError("expected an integer", self.pos)
        return int(self.text[start:self.pos])


def parse_poly(text: str, p: int = DEFAULT_PRIME) -> BiPoly:
    """Parse an expression in s, t, u, v with integer coefficients."""
    return _Parser(BiPoly, text, p).parse()


def _format_poly(f: SparsePoly) -> str:
    """Render in the class's print order with balanced coefficient lifts."""
    if f.is_zero:
        return "0"
    order = f.ORDER
    items = sorted(f.terms.items(),
                   key=lambda kv: tuple(-kv[0][k] for k in order))
    out = []
    for idx, (exp, c) in enumerate(items):
        cb = c if c <= f.p // 2 else c - f.p
        mag, neg = abs(cb), cb < 0
        mono = "*".join(name if e == 1 else f"{name}^{e}"
                        for name, e in zip(f.VARS, exp) if e)
        if mono and mag == 1:
            body = mono
        elif mono:
            body = f"{mag}*{mono}"
        else:
            body = str(mag)
        if idx == 0:
            out.append(f"-{body}" if neg else body)
        else:
            out.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(out)


def poly_to_str(f: BiPoly) -> str:
    """Render in the global monomial order with balanced coefficient lifts."""
    return _format_poly(f)


def uni_to_str(f: UniHomPoly, pair: str = "uv") -> str:
    return poly_to_str(f.to_bipoly() if pair == "uv" else f.to_bipoly_st())
