"""Sparse polynomials in four variables over a prime field.

The package works in two polynomial rings over K = F_p, both with four
variables and 4-tuple exponent keys: K[s, t, u, v], bigraded by
deg(s) = deg(t) = (1, 0) and deg(u) = deg(v) = (0, 1), and K[x0..x3] of
the image (see :mod:`tensurf.xpoly`).  Containers:

* :class:`SparsePoly` — the one sparse dict-of-exponents arithmetic,
  expression parser (one regex pass of tokens) and printer, driven by a
  subclass's variable names and print order.
* :class:`BiPoly` — the subclass for K[s, t, u, v], keyed by
  ``(i, j, k, l)`` for ``s^i t^j u^k v^l``, with its bigraded helpers.

A binary form is a :class:`BiPoly` too: a (0, d)-form in (u, v) or a
(d, 0)-form in (s, t).  A zero form has no bidegree, so a list or matrix
of binary forms that may hold zeros carries its degrees beside it (see
:class:`tensurf.hburch.GradedSyzMatrix`).

Global monomial order of K[s, t, u, v] (used for printing and equation
rows): s-exponent descending, then u-exponent descending.  The one array
format of a form is its coefficient grid: for an (a, b)-form, the
(a + 1, b + 1) array with entry [j, l] the coefficient of
s^(a-j) t^j u^(b-l) v^l.  :func:`coeff_grid` builds it and
:meth:`BiPoly.from_grid` is its inverse; ``grid.ravel()`` lists the
coefficients in the global order, and a binary form's grid is one row
(in (u, v)) or one column (in (s, t)).  Every linear system over forms is
built from one matrix of such grids, :func:`multiplication_matrix`:
column m holds the coefficients of f * m for each monomial m of a
bidegree (c, d).
"""

from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import lru_cache, reduce
from operator import itemgetter
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
        return f"{type(self).__name__}({poly_to_str(self)})"


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

    @staticmethod
    def from_grid(grid: NDArray[np.int64], p: int) -> "BiPoly":
        """Inverse of :func:`coeff_grid`: the form of bidegree
        (rows - 1, columns - 1) whose coefficients are the grid's."""
        c, d = grid.shape[0] - 1, grid.shape[1] - 1
        # tolist() gives Python ints: numpy ones would overflow in products
        return BiPoly(p, {(c - j, j, d - l, l): x
                          for j, row in enumerate(grid.tolist())
                          for l, x in enumerate(row)})


def mirror_poly(f: BiPoly) -> BiPoly:
    """Swap the roles of (s, t) and (u, v)."""
    return BiPoly(f.p, {(k, l, i, j): c for (i, j, k, l), c in f.terms.items()})


def dot(xs: Sequence[BiPoly], ys: Sequence[BiPoly]) -> BiPoly:
    """Sum of x * y over the pairs whose factors are both nonzero, or the
    zero form of the prime of ``xs``, which is not empty, when none are."""
    acc = None
    for x, y in zip(xs, ys):
        if not (x.is_zero or y.is_zero):
            acc = x * y if acc is None else acc + x * y
    return BiPoly.zero(xs[0].p) if acc is None else acc


# ---------------------------------------------------------------------------
# monomial order, coefficient grids


def monomial_basis(c: int, d: int) -> list[tuple[int, int, int, int]]:
    """Monomials of bidegree (c, d): s-exponent descending, then u descending."""
    if c < 0 or d < 0:
        return []
    return [(i, c - i, k, d - k)
            for i in range(c, -1, -1) for k in range(d, -1, -1)]


def coeff_grid(f: BiPoly, c: int, d: int) -> NDArray[np.int64]:
    """The (c + 1, d + 1) coefficient grid of a (c, d)-form: entry [j, l]
    is the coefficient of s^(c-j) t^j u^(d-l) v^l."""
    if not f.is_bihomogeneous(c, d):
        raise ValueError(f"expected a form of bidegree ({c}, {d})")
    grid = np.zeros((c + 1, d + 1), dtype=np.int64)
    for (_, j, _, l), a in f.terms.items():
        grid[j, l] = a
    return grid


def multiplication_matrix(grid: NDArray[np.int64], c: int, d: int
                          ) -> NDArray[np.int64]:
    """Matrix of multiplication by an (a, b)-form f, given by its
    (a + 1, b + 1) coefficient grid, from bidegree (c, d) to (a + c, b + d).

    Column m holds the coefficients of f * m, m the m-th monomial of
    :func:`monomial_basis` (c, d), in the order of a raveled grid.
    """
    a1, b1 = grid.shape
    out = np.zeros((a1 + c, b1 + d, c + 1, d + 1), dtype=np.int64)
    s0, s1, s2, s3 = out.strides
    # entry [j, l, x, y] of the view is out[j + x, l + y, j, l]: the grid
    # entry t^x v^y times the monomial t^j v^l, each cell once
    np.ndarray((c + 1, d + 1, a1, b1), np.int64, out,
               strides=(s0 + s2, s1 + s3, s0, s1))[...] = grid
    return out.reshape((a1 + c) * (b1 + d), (c + 1) * (d + 1))


# ---------------------------------------------------------------------------
# binary forms


# Euclid steps by a divisor of more than _SHORT coefficients run on int64
# arrays, about 6 us each; by a shorter one on lists, 1 + 0.3 m us at
# degree m (2-vCPU Xeon, numpy 2.4).
_SHORT = 16


def uni_gcd(f: BiPoly, g: BiPoly) -> BiPoly:
    """Greatest common divisor of two binary forms in one variable pair,
    (0, d)-forms in (u, v) or (d, 0)-forms in (s, t).

    The result is a form in the operands' pair whose first nonzero
    coefficient in :func:`coeff_grid` order is 1.  The gcd of two zero
    forms is zero.

    Euclid runs on the coefficients from the first nonzero one to the
    last, leading one first, with remainders up to a unit: by a divisor b
    of degree deg a or deg a - 1 in the variable w, b0 a - a0 b or
    b0^2 a - (a0 b0 w + b0 a1 - a0 b1) b, scalars in [-p/2, p/2] so that
    each product is below 2**61; else by quotient steps.
    """
    p, h = f.p, (f.p - 1) // 2
    cores, vals, pairs = [], [], set()
    for form in (f, g):
        if form.is_zero:
            continue
        c, d = form.bidegree() or (1, 1)
        if c and d:
            raise ValueError("expected binary forms")
        if c or d:
            pairs.add(c > 0)
        # c or d is 0, so j + l is the y-exponent
        coeffs = {j + l: x for (_, j, _, l), x in form.terms.items()}
        lo, hi = min(coeffs), max(coeffs)
        cores.append([coeffs.get(k, 0) for k in range(lo, hi + 1)])
        vals.append((lo, c + d - hi))
    if len(pairs) > 1:
        raise ValueError("binary forms in different variable pairs")
    if not cores:
        return BiPoly.zero(p)
    a, b = (sorted(cores, key=len, reverse=True) + [[]])[:2]
    while len(b) > 1:
        if (type(b) is list) == (len(b) > _SHORT):
            a, b = ((np.array(a, dtype=np.int64), np.array(b, dtype=np.int64))
                    if type(b) is list else (a.tolist(), b.tolist()))
        m, k = len(b) - 1, len(a) - len(b) + 1
        if k < 3:
            a0, b0, b1 = int(a[0]), int(b[0]), int(b[1])
            lam, mu1, mu0 = [(x + h) % p - h for x in (
                (b0, a0, 0) if k == 1 else
                (b0 * b0, b0 * int(a[1]) - a0 * b1, a0 * b0))]
            if type(b) is list:
                r = [(lam * x - mu1 * y - mu0 * z) % p
                     for x, y, z in zip(a[k:], b[1:], b[2:] + [0])]
            else:
                r = lam * a[k:] - mu1 * b[1:]
                r[:-1] -= mu0 * b[2:]
                r %= p
        else:
            a, b = np.array(a, dtype=np.int64), np.asarray(b, dtype=np.int64)
            inv, lead, tail = pow(int(b[0]), -1, p), int(a[0]), b[1:]
            for i in range(k):
                row = a[i + 1:i + 1 + m]
                row[:] = (row - lead * inv % p * tail) % p
                lead = int(row[0])
            r = a[k:]
        a, b = b, r
        while len(b) and not b[0]:
            b = b[1:]
    core = [1] if len(b) else np.asarray(a).tolist()
    (y0, x0), inv = map(min, zip(*vals)), pow(core[0], -1, p)
    e, st = y0 + len(core) - 1 + x0, pairs == {True}
    return BiPoly(p, {(e - k, k, 0, 0) if st else (0, 0, e - k, k): x * inv
                      for k, x in enumerate(core, y0)})


# ---------------------------------------------------------------------------
# parsing and printing


class ParseError(ValueError):
    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} at position {pos}")
        self.pos = pos


@lru_cache(maxsize=4)
def _token_regex(names: tuple[str, ...]) -> re.Pattern:
    """Groups: a variable (1) with its literal power (2), an integer in
    decimal digits (3), an operator (4), any other character (5)."""
    return re.compile(f"({'|'.join(map(re.escape, names))})(?:"
                      r"\s*(?:\^|\*\*)\s*(\d+))?|(\d+)|(\*\*|[-+*^()])|(\S)")


class _Parser:
    """Recursive descent over one regex pass of tokens for +, -, *, ^
    (alias **), parentheses and ``cls.VARS``; a power binds to the atom
    before it, so ``2*s^3`` and ``2*s**3`` are the same polynomial.

    A token is (kind, value, position): "m"/"v" a variable with/without
    its literal power, valued (variable index, power); "n" an integer;
    "?" any other character; "" the end; an operator is its own kind.
    A factor adds its variables' powers into its term's exponent list and
    returns a residue, or a dict {exponent: residue} for a parenthesized
    sum; a term multiplies its sums in order, then its single terms.  A
    power or a term with a sum in it above ``max_degree`` is refused
    before it is expanded.
    """

    def __init__(self, cls: type, text: str, p: int,
                 max_degree: Optional[int] = None):
        self.cls, self.text, self.p, self.i = cls, text, p, 0
        self.max_degree = max_degree
        index = {name: i for i, name in enumerate(cls.VARS)}
        self.toks = toks = []
        for m in _token_regex(cls.VARS).finditer(text):
            name, power, number, op, other = m.groups()
            if name:
                value = index[name], int(power) if power else 1
                toks.append(("m" if power else "v", value, m.start()))
            else:
                toks.append(("n", int(number), m.start()) if number
                            else (op or "?", other, m.start()))
        toks.append(("", None, len(text)))

    def parse(self):
        terms = self._expr()
        kind, _, pos = self.toks[self.i]
        if kind:
            raise ParseError(f"unexpected character {self.text[pos]!r}", pos)
        return self.cls(self.p, terms)

    def _expr(self) -> dict:
        toks, p, acc, sign = self.toks, self.p, {}, 1
        if toks[self.i][0] == "+":
            self.i += 1
        while True:
            for exp, c in self._term().items():
                acc[exp] = c = (acc.get(exp, 0) + sign * c) % p
                if not c:  # a cancelled term leaves the sum
                    del acc[exp]
            kind = toks[self.i][0]
            if kind != "+" and kind != "-":
                return acc
            sign = 1 if kind == "+" else -1
            self.i += 1

    def _term(self):
        toks, cls, p = self.toks, self.cls, self.p
        exp, c, sums, pos = [0, 0, 0, 0], 1, [], toks[self.i][2]
        while True:
            factor = self._factor(exp)
            if type(factor) is dict:
                sums.append(factor)
            else:
                c = c * factor % p
            if toks[self.i][0] != "*":
                break
            self.i += 1
        if toks[self.i][0] == "**":  # a '*' with no factor after it
            raise ParseError("expected a term", toks[self.i][2] + 1)
        if not sums:
            return {tuple(exp): c}
        # the monomials' degree plus each sum's top degree
        top = sum(exp) + sum(max(map(sum, f), default=0) for f in sums)
        if self.max_degree is not None and top > self.max_degree:
            raise ParseError(f"a product of total degree {top} exceeds "
                             f"{self.max_degree}", pos)
        return reduce(lambda f, g: (cls(p, f) * cls(p, g)).terms,
                      sums + [{tuple(exp): c}])

    def _factor(self, exp: list):
        toks, p = self.toks, self.p
        kind, value, pos = toks[self.i]
        self.i += 1
        if kind == "-":
            value = self._factor(exp)
            return ({e: -c % p for e, c in value.items()}
                    if type(value) is dict else -value % p)
        if kind == "(":
            value = self._expr()
            if toks[self.i][0] != ")":
                raise ParseError("expected ')'", toks[self.i][2])
            self.i += 1
        elif kind not in ("m", "v", "n"):
            ch, names = self.text[pos:pos + 1], self.cls.VARS
            if not ch.isalpha():
                raise ParseError("expected a term", pos)
            if any(name[0] == ch for name in names):
                raise ParseError(f"expected one of {', '.join(names)}", pos)
            raise ParseError(f"unknown variable {ch!r}", pos)
        n = 1
        if kind != "m" and toks[self.i][0] in ("^", "**"):
            n_kind, n, n_pos = toks[self.i + 1]
            if n_kind != "n":
                raise ParseError("expected an integer", n_pos)
            self.i += 2
            top = max(map(sum, value), default=0) * n if kind == "(" else 0
            if self.max_degree is not None and top > self.max_degree:
                raise ParseError(f"a power of total degree {top} exceeds "
                                 f"{self.max_degree}", n_pos)
        if kind == "m" or kind == "v":
            exp[value[0]] += value[1] * n
            return 1
        if kind == "n":
            return pow(value, n, p)
        return value if n == 1 else (self.cls(p, value) ** n).terms


def parse_poly(text: str, p: int = DEFAULT_PRIME,
               max_degree: Optional[int] = None) -> BiPoly:
    """Parse an expression in s, t, u, v with integer coefficients.  A
    parenthesized sum raised to a power, or a term with a sum in it, above
    ``max_degree`` in total degree is refused before it is expanded."""
    return _Parser(BiPoly, text, p, max_degree).parse()


def print_terms(f: SparsePoly) -> list[tuple[Exponent, int]]:
    """f's terms, exponents descending at the positions ``f.ORDER`` lists."""
    terms = f.terms
    return [(e, terms[e])
            for e in sorted(terms, key=itemgetter(*f.ORDER), reverse=True)]


def format_monomials(f: SparsePoly, exps: list[Exponent]) -> list[str]:
    """The monomials ``exps`` in f's variables, as ``x0^2*x1``; the
    constant monomial is the empty string.  Every power comes from one
    table per variable."""
    top = max(map(max, exps), default=0)
    powers = [["", name, *(f"{name}^{e}" for e in range(2, top + 1))]
              for name in f.VARS]
    return ["*".join(filter(None, map(list.__getitem__, powers, exp)))
            for exp in exps]


def format_terms(f: SparsePoly, terms: list[tuple[Exponent, int]]) -> str:
    """Render ``terms`` of f (see :func:`print_terms`) with balanced
    coefficient lifts."""
    if not terms:
        return "0"
    out = []
    for (_, c), mono in zip(terms, format_monomials(f, [e for e, _ in terms])):
        sign, mag = ("-", f.p - c) if 2 * c > f.p else ("+", c)
        body = (mono if mag == 1 else f"{mag}*{mono}") if mono else mag
        out.append(f"{sign} {body}")
    text = " ".join(out)  # the leading sign is bare: "x0", "-x0"
    return text[2:] if text[0] == "+" else "-" + text[2:]


def poly_to_str(f: SparsePoly) -> str:
    """Render in f's print order with balanced coefficient lifts: the
    global monomial order of K[s, t, u, v], highest x0 power first in
    K[x0..x3]."""
    return format_terms(f, print_terms(f))
