"""Two-generator ideal membership, resultants, and coprimality checks."""

import random

import pytest

import gauss_ref
import resultant_ref
from resultant_ref import substitute_st, sylvester_from_coeffs
from tensurf import linalg, membership
from tensurf.bipoly import (BiPoly, DEFAULT_PRIME, HypothesisError,
                            UniHomPoly, parse_poly, uni_gcd)

P = DEFAULT_PRIME


def form(degree, coeffs):
    return UniHomPoly(P, degree, tuple(c % P for c in coeffs))


def random_form(rng, degree):
    while True:
        coeffs = tuple(rng.randrange(P) for _ in range(degree + 1))
        if any(coeffs):
            return UniHomPoly(P, degree, coeffs)


def random_coprime_pair(rng, m, n):
    while True:
        h0, h1 = random_form(rng, m), random_form(rng, n)
        if uni_gcd(h0, h1).degree == 0:
            return h0, h1


def random_bipoly(rng, c, d):
    terms = {}
    for j in range(c + 1):
        for l in range(d + 1):
            coeff = rng.randrange(P)
            if coeff:
                terms[(c - j, j, d - l, l)] = coeff
    return BiPoly(P, terms)


def resultant(f, g):
    M = sylvester_from_coeffs(f.coeffs, g.coeffs, P)
    return linalg.det_field(M, P)


def test_sylvester_frozen():
    # f = u + 2v (m=1), g = 3u + 4v (n=1)
    M = sylvester_from_coeffs((1, 2), (3, 4), P)
    assert M.tolist() == [[1, 2], [3, 4]]
    assert resultant(form(1, (1, 2)), form(1, (3, 4))) == P - 2


def test_resultant_vanishes_iff_common_root():
    u_plus_v = form(1, (1, 1))
    f = u_plus_v * form(1, (1, 5))
    g = u_plus_v * form(1, (2, 3))
    assert resultant(f, g) == 0
    h = form(2, (1, 0, 1))
    assert resultant(f, h) != 0


def test_two_gen_solve_frozen():
    target = parse_poly("s*u^3")
    h0 = form(2, (0, 0, 1))       # v^2
    h1 = form(2, (P - 1, 0, 0))   # -u^2
    cert = membership.two_gen_solve(target, h0, h1)
    assert cert.x0.is_zero
    assert cert.x1 == parse_poly("-s*u")


def test_two_gen_solve_random_identity():
    rng = random.Random(97)
    for _ in range(20):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        h0, h1 = random_coprime_pair(rng, m, n)
        d = m + n - 1 + rng.randrange(0, 3)
        target = random_bipoly(rng, rng.randrange(0, 3), d)
        cert = membership.two_gen_solve(target, h0, h1)
        resid = target - cert.x0 * h0.to_bipoly() - cert.x1 * h1.to_bipoly()
        assert resid.is_zero


def test_two_gen_solve_rejects_bad_inputs():
    u = form(1, (1, 0))
    with pytest.raises(HypothesisError):
        membership.two_gen_solve(parse_poly("u^3"), u * u, u * form(1, (0, 1)))
    with pytest.raises(HypothesisError):
        # degree below the membership threshold
        membership.two_gen_solve(parse_poly("u"),
                                 form(2, (1, 0, 0)), form(2, (0, 0, 1)))


def test_psi_solve_recovers_planted_coefficients():
    from tensurf import hburch
    rng = random.Random(103)
    g = [form(2, (1, 0, 0)), form(2, (0, 1, 0)), form(2, (0, 0, 1))]
    psi = hburch.hilbert_burch_psi(g, P)
    a, b = 2, 3
    w = [random_bipoly(rng, a, b - 1) for _ in range(2)]
    f_prime = []
    for i in range(3):
        acc = BiPoly.zero(P)
        for j in range(2):
            e = psi.matrix.entries[i][j]
            if not e.is_zero:
                acc = acc + e.to_bipoly() * w[j]
        f_prime.append(acc)
    alphas = membership.psi_solve(f_prime, psi, a, b)
    assert all((x - y).is_zero for x, y in zip(alphas, w))


def test_resultant_uv_frozen_and_multiplicative_scaling():
    f = parse_poly("s*u + t*v")
    g = parse_poly("t*u + s*v")
    r = membership.resultant_uv(f, g, (1, 1), (1, 1), P)
    # det [[s, t], [t, s]] = s^2 - t^2
    assert r.degree == 2
    assert r.coeffs == (1, 0, P - 1)
    rng = random.Random(113)
    for _ in range(5):
        c = rng.randrange(1, P)
        rc = membership.resultant_uv(f.scale(c), g, (1, 1), (1, 1), P)
        # scaling f by c scales the resultant by c^(deg_uv g)
        assert rc.coeffs == tuple(x * c % P for x in r.coeffs)


def test_resultant_uv_matches_sylvester_determinants_of_specializations():
    # the batched samples must interpolate the same form as one det_field
    # per specialization, checked off the sample nodes 0..D
    rng = random.Random(117)

    def random_bipoly(c, d):
        return BiPoly(P, {(c - i, i, d - k, k): rng.randrange(P)
                          for i in range(c + 1) for k in range(d + 1)})

    f, g = random_bipoly(2, 3), random_bipoly(3, 4)
    r = membership.resultant_uv(f, g, (2, 3), (3, 4), P)
    assert r.degree == 2 * 4 + 3 * 3
    for _ in range(5):
        s0 = rng.randrange(r.degree + 1, P)
        want = linalg.det_field(sylvester_from_coeffs(
            substitute_st(f, s0, 1, 3).coeffs,
            substitute_st(g, s0, 1, 4).coeffs, P), P)
        assert r.to_bipoly_st().eval((s0, 1, 0, 0)) == want


def test_resultant_uv_detects_shared_uv_factor():
    common = parse_poly("u - 2*v")
    f = parse_poly("s*u + t*v") * common
    g = parse_poly("t*u - s*v") * common
    r = membership.resultant_uv(f, g, (1, 2), (1, 2), P)
    assert r.is_zero


def vandermonde_resultant(f, g, deg_f, deg_g, p):
    """R(s, 1) from one Sylvester determinant per node s = 0..D and a
    Gauss-Jordan solve of the Vandermonde system on those nodes."""
    (cf, df), (cg, dg) = deg_f, deg_g
    D = cf * dg + cg * df
    rows = []
    for s0 in range(D + 1):
        sample = linalg.det_field(sylvester_from_coeffs(
            substitute_st(f, s0, 1, df).coeffs,
            substitute_st(g, s0, 1, dg).coeffs, p), p)
        rows.append([pow(s0, D - k, p) for k in range(D + 1)] + [sample])
    reduced, pivots = gauss_ref.rref(rows, p)
    assert pivots == list(range(D + 1))
    return tuple(row[-1] for row in reduced)


def random_bipoly_mod(rng, p, c, d):
    while True:
        f = BiPoly(p, {(c - j, j, d - l, l): rng.randrange(p)
                       for j in range(c + 1) for l in range(d + 1)})
        if not f.is_zero:
            return f


@pytest.mark.parametrize("p", [P, 65521])
def test_resultant_uv_matches_a_vandermonde_solve(p):
    # D = 0 degrees take the same Newton path from the one node s = 0; the
    # resultant is then constant, so it is one Sylvester determinant at any
    # specialization, here (s : t) = (1 : 1)
    rng = random.Random(p)
    checked = constant = 0
    while checked < 12 or constant < 4:
        cf, df, cg, dg = (rng.randrange(4) for _ in range(4))
        D = cf * dg + cg * df
        f = random_bipoly_mod(rng, p, cf, df)
        g = random_bipoly_mod(rng, p, cg, dg)
        r = membership.resultant_uv(f, g, (cf, df), (cg, dg), p)
        assert r.degree == D
        if D:
            want = vandermonde_resultant(f, g, (cf, df), (cg, dg), p)
        else:
            want = (linalg.det_field(sylvester_from_coeffs(
                substitute_st(f, 1, 1, df).coeffs,
                substitute_st(g, 1, 1, dg).coeffs, p), p),)
        assert r.coeffs == want, (cf, df, cg, dg)
        checked += 1
        constant += D == 0


def test_resultant_uv_at_a_prime_just_above_the_degree():
    # D = 2*3 + 2*3 = 12 and p = 13: the nodes 0..12 fill F_13 and 12! is -1
    p = 13
    rng = random.Random(13)
    for _ in range(10):
        f = random_bipoly_mod(rng, p, 2, 3)
        g = random_bipoly_mod(rng, p, 2, 3)
        r = membership.resultant_uv(f, g, (2, 3), (2, 3), p)
        assert r.coeffs == vandermonde_resultant(f, g, (2, 3), (2, 3), p)
    with pytest.raises(ValueError, match="prime too small"):
        membership.resultant_uv(f, g, (2, 3), (2, 4), p)


def test_resultant_uv_of_a_shared_uv_factor_is_zero():
    rng = random.Random(151)
    common = random_bipoly(rng, 1, 1)
    f = random_bipoly(rng, 2, 2) * common
    g = random_bipoly(rng, 1, 3) * common
    want = vandermonde_resultant(f, g, (3, 3), (2, 4), P)
    assert not any(want)
    r = membership.resultant_uv(f, g, (3, 3), (2, 4), P)
    assert r.degree == 3 * 4 + 2 * 3 and r.is_zero


def test_resultant_uv_with_samples_vanishing_at_some_nodes():
    # f vanishes identically at s = 0, 2 and 5 (t = 1)
    rng = random.Random(157)
    roots = parse_poly("s*(s - 2*t)*(s - 5*t)")
    f = roots * random_bipoly(rng, 1, 3)
    g = random_bipoly(rng, 3, 2)
    r = membership.resultant_uv(f, g, (4, 3), (3, 2), P)
    r_st = r.to_bipoly_st()
    assert [k for k in range(r.degree + 1)
            if r_st.eval((k, 1, 0, 0)) == 0] == [0, 2, 5]
    assert r.coeffs == vandermonde_resultant(f, g, (4, 3), (3, 2), P)


def test_content_and_coprimality():
    f = parse_poly("s*u^2 + s*u*v")   # st-content s, uv-content u^2 + u*v
    assert resultant_ref.st_content(f, 1, 2).degree == 1
    assert resultant_ref.uv_content(f, 1, 2).degree == 2
    g = parse_poly("t*v^2")
    assert membership.bihomog_coprime(f, g)      # u*(u+v) against v^2
    h = parse_poly("t*u^2 + t*u*v")
    assert not membership.bihomog_coprime(f, h)  # common uv-content u
    f2 = parse_poly("s*u + t*v")
    g2 = parse_poly("s*u - t*v")
    assert membership.bihomog_coprime(f2, g2)
    # constants are units
    assert membership.bihomog_coprime(parse_poly("3"), f)


def random_form_mod(rng, p, c, d):
    """A nonzero (c, d)-form with random coefficients in F_p."""
    while True:
        f = BiPoly(p, {(c - j, j, d - l, l): rng.randrange(p)
                       for j in range(c + 1) for l in range(d + 1)})
        if not f.is_zero:
            return f


@pytest.mark.parametrize("p", [5, 7, P])
@pytest.mark.parametrize("common", [(0, 1), (1, 0), (1, 1), (0, 2), (2, 0)])
def test_bihomog_coprime_sees_a_planted_common_factor(p, common):
    rng = random.Random(f"{p}:{common}")
    for _ in range(10):
        k = random_form_mod(rng, p, *common)
        f1, g1 = random_form_mod(rng, p, 1, 2), random_form_mod(rng, p, 2, 1)
        assert not membership.bihomog_coprime(k * f1, k * g1)
        assert not membership.bihomog_coprime(k * g1, k)
    if p == P:
        # random forms at a large prime are coprime
        assert membership.bihomog_coprime(f1, g1)


@pytest.mark.parametrize("p", [5, 7, 101, P])
def test_bihomog_coprime_matches_contents_and_resultant(p):
    # random pairs with and without a planted common factor, at every
    # bidegree pair where the reference resultant runs (D + 1 <= p)
    rng = random.Random(p)
    verdicts = []
    while len(verdicts) < 60:
        k, f1, g1 = [random_form_mod(rng, p, rng.randrange(3), rng.randrange(3))
                     for _ in range(3)]
        f, g = k * f1, k * g1
        (cf, df), (cg, dg) = f.bidegree(), g.bidegree()
        if df and dg and cf * dg + cg * df + 1 > p:
            continue
        want = resultant_ref.coprime_by_resultant(f, g)
        assert membership.bihomog_coprime(f, g) == want, (f, g)
        verdicts.append(want)
    assert True in verdicts and False in verdicts
