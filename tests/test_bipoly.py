"""Bigraded polynomial arithmetic, parsing, and binary-form helpers."""

import random
from itertools import takewhile

import pytest
from hypothesis import given, settings, strategies as st

from resultant_ref import substitute_st
from tensurf import linalg
from tensurf.bipoly import (
    BiPoly,
    DEFAULT_PRIME,
    FieldConfig,
    ParseError,
    UniHomPoly,
    coeff_vector,
    divide_by_uni,
    dot,
    mirror_poly,
    monomial_basis,
    multiplication_matrix,
    parse_poly,
    poly_to_str,
    uni_divide_exact,
    uni_gcd,
    uni_to_str,
    _is_prime,
)

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
    while True:
        coeffs = tuple(rng.randrange(p) for _ in range(degree + 1))
        if any(coeffs):
            return UniHomPoly(p, degree, coeffs)


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
    at_s1_t2 = substitute_st(f, 1, 2, 2)
    assert at_s1_t2.degree == 2
    assert at_s1_t2.coeffs == (1, 6, 20)
    slices = f.st_slices(2, 2)
    assert [sl.coeffs for sl in slices] == [(1, 0, 0), (0, 3, 0), (0, 0, 5)]
    back = BiPoly.from_st_slices(slices, 2, P)
    assert back == f


def test_mirror_poly_swaps_variable_pairs():
    f = parse_poly("s^2*u^3 + 7*s*t*u*v^2")
    m = mirror_poly(f)
    assert m == parse_poly("s^3*u^2 + 7*s*t^2*u*v")
    assert mirror_poly(m) == f


def test_uni_gcd_frozen_and_random():
    u2 = UniHomPoly(P, 2, (1, 0, 0))        # u^2
    uv = UniHomPoly(P, 2, (0, 1, 0))        # u*v
    g = uni_gcd(u2, uv)
    assert g.degree == 1 and uni_to_str(g) == "u"
    rng = random.Random(23)
    for _ in range(20):
        common = random_form(rng, rng.randrange(1, 3))
        f1 = common * random_form(rng, rng.randrange(1, 3))
        f2 = common * random_form(rng, rng.randrange(1, 3))
        d = uni_gcd(f1, f2)
        assert d.degree >= common.degree
        # exact divisibility of both arguments by the gcd
        assert (uni_divide_exact(f1, d) * d - f1).is_zero
        assert (uni_divide_exact(f2, d) * d - f2).is_zero


def test_uni_divide_exact_rejects_non_divisors():
    u = UniHomPoly(P, 1, (1, 0))
    f = UniHomPoly(P, 2, (1, 0, 1))  # u^2 + v^2
    with pytest.raises(ValueError):
        uni_divide_exact(f, u)


def test_divide_by_uni_random():
    rng = random.Random(31)
    for _ in range(15):
        g = random_form(rng, rng.randrange(1, 4))
        q = random_bipoly(rng, 2, 2)
        f = q * g.to_bipoly()
        assert divide_by_uni(f, g) == q
    with pytest.raises(ValueError):
        divide_by_uni(parse_poly("u^3"), UniHomPoly(P, 1, (1, 1)))


def test_monomial_basis_order_and_coeff_vectors():
    basis = monomial_basis(1, 2)
    assert basis[0] == (1, 0, 2, 0)
    assert len(basis) == 2 * 3
    for pos, exp in enumerate(basis):
        vec = coeff_vector(BiPoly.monomial(P, exp), 1, 2)
        assert vec.tolist() == [int(k == pos) for k in range(len(basis))]
    rng = random.Random(41)
    f = random_bipoly(rng, 1, 2)
    vec = coeff_vector(f, 1, 2)
    assert BiPoly(P, {exp: int(a) for exp, a in zip(basis, vec)}) == f


@st.composite
def products(draw):
    """(p, (a, b, f), (c, d, g)): forms f, g that are zero, sparse or dense."""
    p = draw(st.sampled_from([101, P]))
    out = [p]
    for _ in range(2):
        c, d = draw(st.integers(0, 3)), draw(st.integers(0, 3))
        basis = monomial_basis(c, d)
        kind = draw(st.sampled_from(["zero", "sparse", "dense"]))
        mons = {"zero": [], "dense": basis,
                "sparse": draw(st.lists(st.sampled_from(basis), min_size=1,
                                        max_size=2))}[kind]
        out.append((c, d, BiPoly(p, {m: draw(st.integers(1, p - 1))
                                     for m in mons})))
    return tuple(out)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(products())
def test_multiplication_matrix_multiplies(case):
    # a = 0 is a binary form: its grid is the one row of its coefficients
    p, (a, b, f), (c, d, g) = case
    grid = coeff_vector(f, a, b).reshape(a + 1, b + 1)
    if a == 0:
        assert grid.tolist() == [list(f.st_slices(0, b)[0].coeffs)]
    M = multiplication_matrix(grid, c, d)
    got = linalg.matmul_mod(M, coeff_vector(g, c, d)[:, None], p)[:, 0]
    assert got.tolist() == coeff_vector(f * g, a + c, b + d).tolist()
    for col, m in zip(M.T, monomial_basis(c, d)):
        product = f * BiPoly.monomial(p, m)
        assert col.tolist() == coeff_vector(product, a + c, b + d).tolist()


def test_uni_eval_matches_bipoly_eval():
    # both embeddings of a binary form take its value sum c_k x^(d-k) y^k
    rng = random.Random(53)
    f = random_form(rng, 4)
    for _ in range(10):
        x0, y0 = rng.randrange(P), rng.randrange(P)
        want = sum(c * pow(x0, 4 - k, P) * pow(y0, k, P)
                   for k, c in enumerate(f.coeffs)) % P
        assert f.to_bipoly().eval((0, 0, x0, y0)) == want
        assert f.to_bipoly_st().eval((x0, y0, 0, 0)) == want


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.sampled_from([101, P]), st.booleans(), st.integers(0, 2**31),
       st.lists(st.tuples(st.booleans(), st.booleans()), max_size=4))
def test_dot_matches_the_naive_sum(p, uni, seed, zeros):
    # rows of BiPoly or of UniHomPoly forms; zeros[i] marks x_i, y_i zero
    rng = random.Random(seed)
    (c, d), (e, f) = [(rng.randrange(3), rng.randrange(3)) for _ in range(2)]

    def entry(is_zero, c, d):
        if uni:
            return UniHomPoly.zero(p, d) if is_zero else random_form(rng, d, p)
        return BiPoly.zero(p) if is_zero else random_bipoly(rng, c, d, p)

    xs = [entry(zx, c, d) for zx, _ in zeros]
    ys = [entry(zy, e, f) for _, zy in zeros]
    zero = UniHomPoly.zero(p, d + f) if uni else BiPoly.zero(p)
    naive = zero
    for x, y in zip(xs, ys):
        naive = naive + x * y
    got = dot(xs, ys, zero)
    assert got == naive
    if all(x.is_zero or y.is_zero for x, y in zip(xs, ys)):
        assert got is zero
    # an all-zero row returns the given zero, formal degree included
    pad = UniHomPoly.zero(p, 7) if uni else BiPoly.zero(p)
    assert dot([x.scale(0) for x in xs], ys, pad) is pad
