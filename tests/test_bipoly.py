"""Bigraded polynomial arithmetic, parsing, and binary-form helpers."""

import random
import re
import time
from itertools import takewhile

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

import parse_ref
from helpers import form_coeffs, multiplication_matrix_ref, uv_form
from resultant_ref import substitute_st
from tensurf import linalg
from tensurf.bipoly import (
    BiPoly,
    DEFAULT_PRIME,
    FieldConfig,
    ParseError,
    coeff_grid,
    dot,
    format_monomials,
    mirror_poly,
    monomial_basis,
    multiplication_matrix,
    parse_poly,
    poly_to_str,
    uni_gcd,
    _is_prime,
)
from tensurf.xpoly import XPoly, parse_xpoly

P = DEFAULT_PRIME


def random_bipoly(rng, c, d, p=P):
    terms = {}
    for j in range(c + 1):
        for l in range(d + 1):
            coeff = rng.randrange(p)
            if coeff:
                terms[(c - j, j, d - l, l)] = coeff
    return BiPoly(p, terms)


def random_form(rng, degree, p=P):
    """A nonzero (0, degree)-form in (u, v)."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        if any(coeffs):
            return uv_form(coeffs, p)


def test_field_config_validates_prime():
    with pytest.raises(ValueError):
        FieldConfig(10)
    f = FieldConfig(101, seed=3)
    assert (f.p, f.seed) == (101, 3)


def test_is_prime_matches_trial_division():
    small = [q for q in range(2, 317) if all(q % r for r in range(2, q))]

    def by_trial_division(n):
        return n >= 2 and all(
            n % q for q in takewhile(lambda q: q * q <= n, small) if q != n)

    assert [n for n in range(10 ** 5) if _is_prime(n)] == \
        [n for n in range(10 ** 5) if by_trial_division(n)]


def test_is_prime_rejects_pseudoprimes():
    # strong pseudoprimes to bases 2; 2, 3; and 2, 3, 5; Carmichael numbers
    for n in (2047, 1373653, 25326001, 561, 41041):
        assert not _is_prime(n), n
    assert _is_prime(2 ** 31 - 1)
    assert not _is_prime(2 ** 31 - 3)   # 5 * 429496729


def test_field_config_rng_streams_are_purpose_keyed():
    f = FieldConfig(seed=5)
    a = f.rng("alpha").randrange(1 << 30)
    b = f.rng("beta").randrange(1 << 30)
    a2 = f.rng("alpha").randrange(1 << 30)
    assert a == a2
    assert a != b


def test_parse_and_print_round_trip_frozen():
    text = "-t^2*u^4*v - s^2*v^5"
    f = parse_poly(text)
    assert f.terms == {(0, 2, 4, 1): P - 1, (2, 0, 0, 5): P - 1}
    assert poly_to_str(f) == "-s^2*v^5 - t^2*u^4*v"
    assert parse_poly(poly_to_str(f)) == f
    # inhomogeneous and mixed-sign inputs; expected strings as printed by
    # the two-parser implementation this one replaced
    for text, want in [
            ("3 - s + 2*t*u^2 - 5*s^2*v + u*v - 7",
             "-5*s^2*v - s + 2*t*u^2 + u*v - 4"),
            ("v - u + t - s", "-s - u + t + v"),
            ("-(s - 2*t)^2*(u + v) + 1",
             "-s^2*u - s^2*v + 4*s*t*u + 4*s*t*v - 4*t^2*u - 4*t^2*v + 1"),
            ("s*t*u*v - 1000000000*t^3 + 4*s^3 - v^2",
             "4*s^3 + s*t*u*v - 1000000000*t^3 - v^2")]:
        g = parse_poly(text)
        assert poly_to_str(g) == want
        assert parse_poly(want) == g


def test_format_monomials_renders_each_power_once():
    f = XPoly.zero(P)
    assert format_monomials(f, [(2, 1, 0, 0), (0, 0, 0, 0), (0, 0, 0, 11),
                                (1, 1, 1, 1)]) == [
        "x0^2*x1", "", "x3^11", "x0*x1*x2*x3"]
    assert format_monomials(f, []) == []
    assert format_monomials(BiPoly.zero(P), [(0, 3, 1, 0)]) == ["t^3*u"]


def test_parse_supports_parentheses_powers_and_constants():
    f = parse_poly("(s + t)^2*u - 3*s^2*u + 2*s*t*u")
    g = parse_poly("-2*s^2*u + 4*s*t*u + t^2*u")
    assert f == g
    assert parse_poly("0").is_zero
    # ** is ^ and binds to the atom before it
    assert parse_poly("2*s**3") == parse_poly("2*s^3")
    assert poly_to_str(parse_poly("2*s**3")) == "2*s^3"
    assert parse_poly("s*u**2") == parse_poly("s*u^2")
    assert parse_poly("(s + t)**2 - s**2") == parse_poly("2*s*t + t^2")
    for text, pos, message in [
            ("s +", 3, "expected a term at position 3"),
            ("x*u", 0, "unknown variable 'x' at position 0"),
            ("st", 1, "unexpected character 't' at position 1")]:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert err.value.pos == pos
        assert str(err.value) == message



def test_integers_are_decimal_digits():
    # a digit that is not decimal, such as a superscript, is no integer
    for text, message in [("s^²", "expected an integer at position 2"),
                          ("²*s", "expected a term at position 0"),
                          ("s^2²", "unexpected character '²' at position 3")]:
        with pytest.raises(ParseError) as err:
            parse_poly(text)
        assert str(err.value) == message
    # decimal digits of any script parse as before
    assert parse_poly("٣*s^٣ + ١٠") == parse_poly("3*s^3 + 10")


def test_a_power_above_the_degree_bound_is_refused_before_it_expands():
    # (s+t+u+v)^40 would be 12,341 terms; the bound refuses it at the
    # exponent, while powers within it parse as without a bound
    for text, pos, top in [("(s+t+u+v)^40", 10, 40),
                           ("s*(t + u^2)^3", 12, 6),
                           ("-(s*u + t*v)**3 + s^3*u^3", 14, 6)]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, max_degree=5)
        assert err.value.pos == pos
        assert str(err.value) == (f"a power of total degree {top} exceeds 5 "
                                  f"at position {pos}")
    for text in ["(s + t)^2*u^3", "(s*u + t*v)^2 - s^2*u^2", "(2 + 3)^40*s",
                 "(s - s)^9", "s^9"]:
        assert parse_poly(text, max_degree=5) == parse_poly(text)


def test_a_product_above_the_degree_bound_is_refused_before_it_expands():
    # multiplied out, the three factors are 9,139 terms; the bound refuses
    # the term at its start before it multiplies any two of them
    text = "(s+t+u+v)^12*(s+t+u+v)^12*(s+t+u+v)^12"
    start = time.perf_counter()
    with pytest.raises(ParseError) as err:
        parse_poly(text, max_degree=12)
    assert time.perf_counter() - start < 0.1
    assert err.value.pos == 0
    assert str(err.value) == ("a product of total degree 36 exceeds 12 at "
                              "position 0")
    # a term's monomials count too, on either side of its sums
    for text, pos, top in [("s^5 + s^9*(s + t)", 6, 10),
                           ("u*v - (s + t)*s^9", 6, 10),
                           ("s*u + u*(s + t)^2*-(u + v)^2*v", 6, 6)]:
        with pytest.raises(ParseError) as err:
            parse_poly(text, max_degree=5)
        assert err.value.pos == pos
        assert str(err.value) == (f"a product of total degree {top} exceeds "
                                  f"5 at position {pos}")
    for text, bound in [("(s+t)*(u+v)", 2), ("s*(t + u)*v", 3),
                        ("(s + t)^2*u^3 + s^9", 5), ("(s - s)^9*s", 5)]:
        assert parse_poly(text, max_degree=bound) == parse_poly(text)


# -- the token pass against the reference parser of tests/parse_ref.py

MALFORMED = ["s +", "st", "s^", "s**", "s^2^3", "(s+t)^", "s * * 2", "2 3",
             "3*s^2*(u+v", "", "(", "()", "s)", "s^2**3", "s***2", "x*u",
             "é", "s^x", "++s", "-", "(s+t)^2^2", "s^2 ** 3", "x4", "x0x1",
             "x10", "2x0", "x", "s ^ -2"]


def _outcome(parse, text, p):
    """(terms in key order, None) or (None, (position, message))."""
    try:
        return list(parse(text, p).terms.items()), None
    except ParseError as exc:
        return None, (exc.pos, str(exc))


RINGS = [(BiPoly, parse_poly), (XPoly, parse_xpoly)]


@pytest.mark.parametrize("cls, parse", RINGS, ids=["BiPoly", "XPoly"])
@pytest.mark.parametrize("text", MALFORMED)
def test_malformed_expressions_fail_as_in_the_reference(cls, parse, text):
    want = _outcome(lambda t, p: parse_ref.parse(cls, t, p), text, P)
    assert _outcome(parse, text, P) == want


@st.composite
def expressions(draw, names):
    """Expression strings over ``names``: whitespace, ``^`` and ``**``,
    nested parentheses, unary minus, powers of sums, coefficients of 0
    and above p, repeated terms that cancel, then up to two
    single-character insertions or deletions."""
    sums = [3]  # parenthesized sums left, so products stay small

    def space():
        return draw(st.sampled_from(["", "", " ", "  ", "\t", "\n "]))

    def factor(depth):
        kind = draw(st.integers(0, 2 if depth and sums[0] else 1))
        if kind == 0:
            out = str(draw(st.sampled_from([0, 1, 2, 7, 100, 101, 102,
                                            P - 1, P, 10 ** 12])))
        elif kind == 1:
            out = draw(st.sampled_from(names))
        else:
            sums[0] -= 1
            out = "(" + space() + expr(depth - 1) + space() + ")"
        if draw(st.booleans()):
            out += (space() + draw(st.sampled_from(["^", "**"])) + space()
                    + str(draw(st.integers(0, 2 if kind == 2 else 3))))
        return ("-" + space() if draw(st.integers(0, 4)) == 0 else "") + out

    def expr(depth):
        terms = [(space() + "*" + space()).join(
            factor(depth) for _ in range(draw(st.integers(1, 3))))
            for _ in range(draw(st.integers(1, 3)))]
        terms += [draw(st.sampled_from(terms))
                  for _ in range(draw(st.integers(0, 2)))]
        out = draw(st.sampled_from(["", "+", "-"])) + space() + terms[0]
        for term in terms[1:]:
            out += space() + draw(st.sampled_from("+-")) + space() + term
        return out

    text = expr(2)
    for _ in range(draw(st.integers(0, 2))):
        pos = draw(st.integers(0, len(text)))
        if draw(st.booleans()):
            char = draw(st.sampled_from(" +-*^()0stuvx٣²é"))
            text = text[:pos] + char + text[pos:]
        else:
            text = text[:pos] + text[pos + 1:]
    return text


@pytest.mark.parametrize("cls, parse", RINGS, ids=["BiPoly", "XPoly"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_parser_matches_the_reference(cls, parse, data):
    p = data.draw(st.sampled_from([101, P]))
    text = data.draw(expressions(cls.VARS))
    # an edit that merges digits could raise a sum to a large power
    assume(all(int(k) <= 3 for k in
               re.findall(r"(?:\^|\*\*)\s*(\d+)", text)))
    try:
        want = _outcome(lambda t, q: parse_ref.parse(cls, t, q), text, p)
    except ValueError:
        # the reference reads '²' as a digit and int() rejects it
        assert "²" in text
        with pytest.raises(ParseError):
            parse(text, p)
        return
    assert _outcome(parse, text, p) == want


@pytest.mark.parametrize("cls", [BiPoly, XPoly], ids=["BiPoly", "XPoly"])
@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_printer_matches_the_reference(cls, data):
    # any exponents up to two digits, coefficients at the lift's edges
    p = data.draw(st.sampled_from([101, P]))
    coeffs = st.one_of(st.sampled_from([1, 2, p // 2, p // 2 + 1, p - 1]),
                       st.integers(1, p - 1))
    terms = data.draw(st.dictionaries(
        st.tuples(*[st.integers(0, 12)] * 4), coeffs, max_size=40))
    f = cls(p, terms)
    assert poly_to_str(f) == parse_ref.to_str(f)


def test_print_round_trip_random():
    rng = random.Random(101)
    for _ in range(25):
        f = random_bipoly(rng, rng.randrange(1, 4), rng.randrange(1, 4))
        assert parse_poly(poly_to_str(f)) == f


def test_bipoly_ring_axioms_random():
    rng = random.Random(7)
    for _ in range(20):
        f = random_bipoly(rng, 2, 2)
        g = random_bipoly(rng, 1, 3)
        h = random_bipoly(rng, 1, 1)
        assert f * g == g * f
        assert (f + f) - f == f
        assert f * (g + g) == f * g + f * g
        assert (f * g) * h == f * (g * h)
        pt = [rng.randrange(P) for _ in range(4)]
        assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt) % P


def test_bidegree_and_homogeneity():
    f = parse_poly("s*u^2 + t*u*v")
    assert f.bidegree() == (1, 2)
    assert f.is_bihomogeneous(1, 2)
    assert not f.is_bihomogeneous(2, 2)
    mixed = parse_poly("s*u + s^2*u")
    assert mixed.bidegree() is None


def test_substitute_and_slices_frozen():
    f = parse_poly("s^2*u^2 + 3*s*t*u*v + 5*t^2*v^2")
    assert substitute_st(f, 1, 2, 2) == (1, 6, 20)
    # grid row j is the (u, v)-slice of s^(2-j) t^j
    grid = coeff_grid(f, 2, 2)
    assert grid.tolist() == [[1, 0, 0], [0, 3, 0], [0, 0, 5]]
    assert BiPoly.from_grid(grid, P) == f


def test_mirror_poly_swaps_variable_pairs():
    f = parse_poly("s^2*u^3 + 7*s*t*u*v^2")
    m = mirror_poly(f)
    assert m == parse_poly("s^3*u^2 + 7*s*t^2*u*v")
    assert mirror_poly(m) == f


def test_uni_gcd_frozen_and_random():
    u2 = uv_form((1, 0, 0))        # u^2
    uv = uv_form((0, 1, 0))        # u*v
    g = uni_gcd(u2, uv)
    assert g.bidegree() == (0, 1) and poly_to_str(g) == "u"
    # the same forms in (s, t) keep their pair
    assert uni_gcd(mirror_poly(u2), mirror_poly(uv)) == parse_poly("s")
    for f, g in [("s", "u"), ("s*u", "u"), ("s + u", "1")]:
        with pytest.raises(ValueError):
            uni_gcd(parse_poly(f), parse_poly(g))
    rng = random.Random(23)
    for _ in range(20):
        common = random_form(rng, rng.randrange(1, 3))
        f1 = common * random_form(rng, rng.randrange(1, 3))
        f2 = common * random_form(rng, rng.randrange(1, 3))
        d = uni_gcd(f1, f2)
        assert d.bidegree()[1] >= common.bidegree()[1]
        # exact divisibility of both arguments by the gcd
        assert divide_by_form(f1, d) is not None
        assert divide_by_form(f2, d) is not None


def divide_by_form(f, g):
    """f / g for a (c, d)-form f and a nonzero (u, v)-form g by one solve
    of the multiplication system of g, one (s, t)-row of f per right-hand
    side column; None when g does not divide f."""
    c, d = f.bidegree()
    e = g.bidegree()[1]
    x = linalg.solve_particular(
        multiplication_matrix(coeff_grid(g, 0, e), 0, d - e),
        coeff_grid(f, c, d).T, f.p)
    return None if x is None else BiPoly.from_grid(x.T, f.p)


def _euclid_ref(f, g, p):
    """gcd of binary forms given by their coefficient lists, c_k that of
    x^(d-k) y^k: Euclid on f(1, z) and g(1, z) with the coefficient of z^k
    at index k, times x to the least x-valuation of the nonzero operands,
    scaled to a first nonzero coefficient of 1; [] for two zero forms."""
    def strip(a):
        while a and a[-1] == 0:
            a = a[:-1]
        return a

    def rem(a, b):
        while len(a) >= len(b):
            q = a[-1] * pow(b[-1], p - 2, p) % p
            shift = [0] * (len(a) - len(b)) + b
            a = strip([(x - q * y) % p for x, y in zip(a, shift)])
        return a

    nonzero = [c for c in (f, g) if any(c)]
    if not nonzero:
        return []
    x_val = min(len(c) - len(strip(list(c))) for c in nonzero)
    a, b = strip(list(nonzero[0])), strip(list(nonzero[-1]))
    while b:
        a, b = b, rem(a, b)
    lead = next(x for x in a if x)
    return [x * pow(lead, p - 2, p) % p for x in a] + [0] * x_val


@st.composite
def binary_pairs(draw):
    """(p, pair, coefficient lists of two forms): each zero, a nonzero
    constant, random, or a multiple of one shared random form."""
    p = draw(st.sampled_from([7, 101, P]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    common = [rng.randrange(p) for _ in range(draw(st.integers(1, 3)))]
    lists = []
    for kind in draw(st.lists(st.sampled_from(
            ["zero", "constant", "random", "planted"]), min_size=2,
            max_size=2)):
        d = draw(st.integers(0, 3))
        if kind == "zero":
            coeffs = [0] * (d + 1)
        elif kind == "constant":
            coeffs = [rng.randrange(1, p)]
        else:
            coeffs = [rng.randrange(p) for _ in range(d + 1)]
        if kind == "planted":
            prod = [0] * (len(common) + d)
            for i, x in enumerate(common):
                for j, y in enumerate(coeffs):
                    prod[i + j] = (prod[i + j] + x * y) % p
            coeffs = prod
        lists.append(coeffs)
    return p, draw(st.sampled_from(["uv", "st"])), lists


@st.composite
def screen_pairs(draw):
    """(p, pair, coefficient lists) at the sizes of the basepoint screen,
    whose resultants have degree 2ab <= 72: each operand a multiple of
    one shared random form of degree 0 to 52 (of total degree up to 72),
    random of degree up to 72, zero, or a nonzero constant.  491 is the
    prime floor 2ab max(a, b) + 1 at (5,7).  The sizes come from the
    seeded stream, so they spread evenly over their ranges."""
    p = draw(st.sampled_from([P, 491]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    common = [rng.randrange(p) for _ in range(rng.randrange(53) + 1)]
    lists = []
    for kind in draw(st.lists(st.sampled_from(
            ["planted", "random", "zero", "constant"]), min_size=2,
            max_size=2)):
        top = 73 - len(common) if kind == "planted" else 72
        coeffs = [rng.randrange(p) for _ in range(rng.randrange(top + 1) + 1)]
        if kind == "zero":
            coeffs = [0] * len(coeffs)
        elif kind == "constant":
            coeffs = [rng.randrange(1, p)]
        elif kind == "planted":
            prod = [0] * (len(common) + len(coeffs) - 1)
            for i, x in enumerate(common):
                for j, y in enumerate(coeffs):
                    prod[i + j] += x * y
            coeffs = [x % p for x in prod]
        lists.append(coeffs)
    return p, draw(st.sampled_from(["uv", "st"])), lists


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(binary_pairs())
def test_uni_gcd_matches_euclid_in_both_pairs(case):
    check_uni_gcd(*case)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(screen_pairs())
def test_uni_gcd_matches_euclid_at_screen_sizes(case):
    # long cores run Euclid on int64 arrays until the divisor has at most
    # _SHORT coefficients, then on lists, so both sides are crossed
    check_uni_gcd(*case)


def check_uni_gcd(p, pair, lists):
    cf, cg = lists

    def form(coeffs):
        row = np.array([coeffs])
        return BiPoly.from_grid(row if pair == "uv" else row.T, p)

    want = _euclid_ref(cf, cg, p)
    got = uni_gcd(form(cf), form(cg))
    if not want:
        assert got.is_zero
        return
    assert got == form(want)
    d = len(want) - 1
    # the operands' pair is kept, and a constant gcd is the constant 1
    assert got.bidegree() == ((d, 0) if pair == "st" else (0, d))
    assert next(x for x in form_coeffs(got) if x) == 1
    assert uni_gcd(form(cg), form(cf)) == got


def test_exact_division_by_one_solve_random():
    rng = random.Random(31)
    for _ in range(15):
        g = random_form(rng, rng.randrange(1, 4))
        q = random_bipoly(rng, 2, 2)
        f = q * g
        assert divide_by_form(f, g) == q
    assert divide_by_form(parse_poly("u^3"), uv_form((1, 1))) is None
    # u^2 + v^2 is not a multiple of u
    assert divide_by_form(parse_poly("u^2 + v^2"), uv_form((1, 0))) is None


def test_monomial_basis_order_and_coeff_vectors():
    # a raveled grid lists the coefficients in monomial_basis order
    basis = monomial_basis(1, 2)
    assert basis[0] == (1, 0, 2, 0)
    assert len(basis) == 2 * 3
    for pos, exp in enumerate(basis):
        vec = coeff_grid(BiPoly(P, {exp: 1}), 1, 2).ravel()
        assert vec.tolist() == [int(k == pos) for k in range(len(basis))]
    rng = random.Random(41)
    f = random_bipoly(rng, 1, 2)
    vec = coeff_grid(f, 1, 2).ravel()
    assert BiPoly(P, {exp: int(a) for exp, a in zip(basis, vec)}) == f


@st.composite
def forms(draw, p):
    """(c, d, f): a form f of bidegree (c, d) that is zero, sparse or dense."""
    c, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
    basis = monomial_basis(c, d)
    kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
    mons = {"zero": [], "dense": basis,
            "sparse": draw(st.lists(st.sampled_from(basis), min_size=1,
                                    max_size=2))}[kind]
    return c, d, BiPoly(p, {m: draw(st.integers(1, p - 1)) for m in mons})


@st.composite
def products(draw):
    """(p, (a, b, f), (c, d, g)): forms f, g that are zero, sparse or dense."""
    p = draw(st.sampled_from([101, P]))
    return p, draw(forms(p)), draw(forms(p))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([101, P]).flatmap(forms))
def test_from_grid_inverts_coeff_grid(form):
    c, d, f = form
    grid = coeff_grid(f, c, d)
    assert grid.shape == (c + 1, d + 1)
    back = BiPoly.from_grid(grid, f.p)
    assert back == f
    assert all(type(x) is int for x in back.terms.values())
    # and the other way round
    assert coeff_grid(back, c, d).tolist() == grid.tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(products())
def test_multiplication_matrix_multiplies(case):
    # a = 0 is a binary form: its grid is the one row of its coefficients
    p, (a, b, f), (c, d, g) = case
    grid = coeff_grid(f, a, b)
    if a == 0:
        assert grid.tolist() == [[f.terms.get((0, 0, b - l, l), 0)
                                  for l in range(b + 1)]]
    M = multiplication_matrix(grid, c, d)
    got = linalg.matmul_mod(M, coeff_grid(g, c, d).reshape(-1, 1), p)[:, 0]
    assert got.tolist() == coeff_grid(f * g, a + c, b + d).ravel().tolist()
    for col, m in zip(M.T, monomial_basis(c, d)):
        product = f * BiPoly(p, {m: 1})
        assert col.tolist() == coeff_grid(product, a + c, b + d).ravel().tolist()


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.integers(1, 5), st.integers(1, 5), st.integers(0, 5),
       st.integers(0, 5), st.integers(0, 2**31))
@example(1, 1, 0, 0, 1)
@example(1, 4, 3, 0, 2)
@example(3, 1, 0, 2, 3)
def test_multiplication_matrix_matches_the_fancy_index_reference(
        a1, b1, c, d, seed):
    grid = np.random.default_rng(seed).integers(0, P, size=(a1, b1))
    M = multiplication_matrix(grid, c, d)
    assert M.dtype == np.int64
    assert M.shape == ((a1 + c) * (b1 + d), (c + 1) * (d + 1))
    assert (M == multiplication_matrix_ref(grid, c, d)).all()


def test_multiplication_matrix_returns_a_fresh_writable_array():
    grid = np.array([[1, 2, 3], [4, 5, 6]], dtype=np.int64)
    first = multiplication_matrix(grid, 2, 1)
    second = multiplication_matrix(grid, 2, 1)
    assert first.flags.writeable and first.flags.c_contiguous
    assert not np.shares_memory(first, second)
    assert not np.shares_memory(first, grid)
    first[...] = 7
    assert (second == multiplication_matrix_ref(grid, 2, 1)).all()
    assert grid.tolist() == [[1, 2, 3], [4, 5, 6]]


def test_uni_eval_matches_bipoly_eval():
    # a binary form's grid is one row in (u, v) and one column in (s, t);
    # both forms take the value sum c_k x^(d-k) y^k
    rng = random.Random(53)
    coeffs = np.array([[rng.randrange(P) for _ in range(5)]])
    f_uv, f_st = (BiPoly.from_grid(g, P) for g in (coeffs, coeffs.T))
    assert f_uv.bidegree() == (0, 4) and f_st.bidegree() == (4, 0)
    assert mirror_poly(f_uv) == f_st
    for _ in range(10):
        x0, y0 = rng.randrange(P), rng.randrange(P)
        want = sum(c * pow(x0, 4 - k, P) * pow(y0, k, P)
                   for k, c in enumerate(coeffs[0].tolist())) % P
        assert f_uv.eval((0, 0, x0, y0)) == want
        assert f_st.eval((x0, y0, 0, 0)) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([101, P]), st.booleans(), st.integers(0, 2**31),
       st.lists(st.tuples(st.booleans(), st.booleans()), min_size=1,
                max_size=4))
def test_dot_matches_the_naive_sum(p, uni, seed, zeros):
    # nonempty rows of (c, d)-forms or of (0, d) binary forms; zeros[i]
    # marks x_i, y_i zero
    rng = random.Random(seed)
    (c, d), (e, f) = [(rng.randrange(3), rng.randrange(3)) for _ in range(2)]

    def entry(is_zero, c, d):
        if is_zero:
            return BiPoly.zero(p)
        return random_form(rng, d, p) if uni else random_bipoly(rng, c, d, p)

    xs = [entry(zx, c, d) for zx, _ in zeros]
    ys = [entry(zy, e, f) for _, zy in zeros]
    zero = BiPoly.zero(p)
    naive = zero
    for x, y in zip(xs, ys):
        naive = naive + x * y
    assert dot(xs, ys) == naive
    # an all-zero row gives the zero form of the operands' prime
    assert dot([x.scale(0) for x in xs], ys) == zero
