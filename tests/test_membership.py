"""Two-generator ideal membership, resultants, and coprimality checks."""

import itertools
import math
import operator
import random
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import resultant_ref
from helpers import bench_jobs, form_coeffs, uv_form
from resultant_ref import (substitute_st, sylvester_from_coeffs,
                           vandermonde_resultant)
from tensurf import linalg, membership
from tensurf.bipoly import (BiPoly, CertificateError, DEFAULT_PRIME,
                            FieldConfig, HypothesisError, coeff_grid,
                            parse_poly, uni_gcd)
from tensurf.cases import run_case
from tensurf.syzygy import SurfaceInput, analyze

P = DEFAULT_PRIME


def random_form(rng, degree):
    while True:
        coeffs = [rng.randrange(P) for _ in range(degree + 1)]
        if any(coeffs):
            return uv_form(coeffs)


def random_coprime_pair(rng, m, n):
    while True:
        h0, h1 = random_form(rng, m), random_form(rng, n)
        if uni_gcd(h0, h1).bidegree() == (0, 0):
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
    M = sylvester_from_coeffs(form_coeffs(f), form_coeffs(g), P)
    return linalg.det_field(M, P)


def test_sylvester_frozen():
    # f = u + 2v (m=1), g = 3u + 4v (n=1)
    M = sylvester_from_coeffs((1, 2), (3, 4), P)
    assert M.tolist() == [[1, 2], [3, 4]]
    assert resultant(uv_form((1, 2)), uv_form((3, 4))) == P - 2


def test_resultant_vanishes_iff_common_root():
    u_plus_v = uv_form((1, 1))
    f = u_plus_v * uv_form((1, 5))
    g = u_plus_v * uv_form((2, 3))
    assert resultant(f, g) == 0
    h = uv_form((1, 0, 1))
    assert resultant(f, h) != 0


def test_two_gen_solve_frozen():
    target = parse_poly("s*u^3")
    h0 = uv_form((0, 0, 1))       # v^2
    h1 = uv_form((-1, 0, 0))      # -u^2
    x0, x1 = membership.two_gen_solve(target, h0, h1)
    assert x0.is_zero
    assert x1 == parse_poly("-s*u")


def test_two_gen_solve_random_identity():
    rng = random.Random(97)
    for _ in range(20):
        m, n = rng.randrange(1, 4), rng.randrange(1, 4)
        h0, h1 = random_coprime_pair(rng, m, n)
        d = m + n - 1 + rng.randrange(0, 3)
        target = random_bipoly(rng, rng.randrange(0, 3), d)
        x0, x1 = membership.two_gen_solve(target, h0, h1)
        assert (target - x0 * h0 - x1 * h1).is_zero


def test_two_gen_solve_rejects_bad_inputs():
    u = uv_form((1, 0))
    with pytest.raises(HypothesisError):
        membership.two_gen_solve(parse_poly("u^3"), u * u, u * uv_form((0, 1)))
    with pytest.raises(HypothesisError):
        # degree below the membership threshold
        membership.two_gen_solve(parse_poly("u"),
                                 uv_form((1, 0, 0)), uv_form((0, 0, 1)))


def test_two_gen_solve_rejects_a_zero_form():
    # a zero form has no degree to solve at, even beside a unit
    one, zero = parse_poly("1"), BiPoly.zero(P)
    for h0, h1, name in [(zero, one, "h0"), (one, zero, "h1"),
                         (zero, zero, "h0")]:
        with pytest.raises(HypothesisError, match=f"the form {name} is zero"):
            membership.two_gen_solve(parse_poly("s*u"), h0, h1)
    # beside the unit, the nonzero side alone carries the target
    assert membership.two_gen_solve(parse_poly("s*u"), one, uv_form((0, 1))) \
        == (parse_poly("s*u"), BiPoly.zero(P))


def test_psi_solve_recovers_planted_coefficients():
    from tensurf import hburch
    rng = random.Random(103)
    g = [uv_form((1, 0, 0)), uv_form((0, 1, 0)), uv_form((0, 0, 1))]
    psi = hburch.hilbert_burch_psi(g, P)
    a, b = 2, 3
    w = [random_bipoly(rng, a, b - 1) for _ in range(2)]
    f_prime = []
    for i in range(3):
        acc = BiPoly.zero(P)
        for j in range(2):
            acc = acc + psi.entries[i][j] * w[j]
        f_prime.append(acc)
    alphas = membership.psi_solve(f_prime, psi, a, b)
    assert all((x - y).is_zero for x, y in zip(alphas, w))


def test_psi_solve_refuses_a_kernel_first_then_a_target_off_the_image():
    from tensurf import hburch
    g = [uv_form((1, 0, 0)), uv_form((0, 1, 0)), uv_form((0, 0, 1))]
    psi = hburch.hilbert_burch_psi(g, P)
    # u^2 times s^2 u^3 is not cancelled by the other entries: psi's
    # columns are syzygies of g, so g . (psi alpha) = 0 for every alpha
    off = [parse_poly("s^2*u^3"), BiPoly.zero(P), BiPoly.zero(P)]
    with pytest.raises(CertificateError, match="not in the image"):
        membership.psi_solve(off, psi, 2, 3)
    # both columns psi's first: the system has a kernel, which is
    # reported before the target is looked at
    twin = hburch.GradedSyzMatrix(
        P, psi.row_degrees, (psi.col_degrees[0],) * 2,
        tuple((e, e) for e in psi.column(0)[0]))
    for f_prime in (off, [BiPoly.zero(P)] * 3):
        with pytest.raises(CertificateError, match="not injective"):
            membership.psi_solve(f_prime, twin, 2, 3)


def resultants(pairs, c, d, p=P):
    return membership.resultant_uv(pairs, c, d, p)


def st_coeffs(r, D):
    """The coefficients of s^(D-k) t^k of a (D, 0)-form or zero."""
    return tuple(coeff_grid(r, D, 0).ravel().tolist())


def test_resultant_uv_frozen_and_multiplicative_scaling():
    f = parse_poly("s*u + t*v")
    g = parse_poly("t*u + s*v")
    [r] = resultants([(f, g)], 1, 1)
    # det [[s, t], [t, s]] = s^2 - t^2, a (2, 0)-form
    assert r == parse_poly("s^2 - t^2")
    rng = random.Random(113)
    scales = [rng.randrange(1, P) for _ in range(5)]
    for c, rc in zip(scales, resultants([(f.scale(c), g) for c in scales],
                                        1, 1)):
        # scaling f by c scales the resultant by c^(deg_uv g)
        assert rc == r.scale(c)
    # the normalization Res(u^d, v^d) = 1 fixes the sign (-1)^(d(d+1)/2)
    for d in range(7):
        pair = (parse_poly(f"u^{d}"), parse_poly(f"v^{d}"))
        assert resultants([pair], 0, d) == [BiPoly.const(P, 1)]


def test_resultant_uv_matches_sylvester_determinants_of_specializations():
    # the batched samples must interpolate the same form as one det_field
    # per specialization, checked off the sample nodes 0..D
    rng = random.Random(117)

    def random_bipoly(c, d):
        return BiPoly(P, {(c - i, i, d - k, k): rng.randrange(P)
                          for i in range(c + 1) for k in range(d + 1)})

    f, g = random_bipoly(3, 4), random_bipoly(3, 4)
    [r] = resultants([(f, g)], 3, 4)
    D = 3 * 4 + 3 * 4
    assert r.bidegree() == (D, 0)
    for _ in range(5):
        s0 = rng.randrange(D + 1, P)
        want = linalg.det_field(sylvester_from_coeffs(
            substitute_st(f, s0, 1, 4), substitute_st(g, s0, 1, 4), P), P)
        assert r.eval((s0, 1, 0, 0)) == want


def test_resultant_uv_detects_shared_uv_factor():
    common = parse_poly("u - 2*v")
    f = parse_poly("s*u + t*v") * common
    g = parse_poly("t*u - s*v") * common
    [r] = resultants([(f, g)], 1, 2)
    assert r.is_zero


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
        c, d = rng.randrange(4), rng.randrange(4)
        D = 2 * c * d
        f = random_bipoly_mod(rng, p, c, d)
        g = random_bipoly_mod(rng, p, c, d)
        [r] = resultants([(f, g)], c, d, p)
        if D:
            want = vandermonde_resultant(f, g, (c, d), (c, d), p)
        else:
            want = (linalg.det_field(sylvester_from_coeffs(
                substitute_st(f, 1, 1, d), substitute_st(g, 1, 1, d), p),
                p),)
        assert st_coeffs(r, D) == want, (c, d)
        checked += 1
        constant += D == 0


def test_resultant_uv_at_a_prime_just_above_the_degree():
    # D = 2*3 + 2*3 = 12 and p = 13: the nodes 0..12 fill F_13 and 12! is -1
    p = 13
    rng = random.Random(13)
    pairs = [(random_bipoly_mod(rng, p, 2, 3), random_bipoly_mod(rng, p, 2, 3))
             for _ in range(10)]
    for (f, g), r in zip(pairs, resultants(pairs, 2, 3, p)):
        assert st_coeffs(r, 12) == vandermonde_resultant(f, g, (2, 3),
                                                         (2, 3), p)
    f, g = random_bipoly_mod(rng, p, 2, 4), random_bipoly_mod(rng, p, 2, 4)
    with pytest.raises(ValueError, match="prime too small"):
        resultants([(f, g)], 2, 4, p)


def test_resultant_uv_of_a_shared_uv_factor_is_zero():
    rng = random.Random(151)
    common = random_bipoly(rng, 1, 1)
    f = random_bipoly(rng, 2, 2) * common
    g = random_bipoly(rng, 2, 2) * common
    want = vandermonde_resultant(f, g, (3, 3), (3, 3), P)
    assert not any(want)
    [r] = resultants([(f, g)], 3, 3)
    assert r.is_zero


def test_resultant_uv_with_samples_vanishing_at_some_nodes():
    # f vanishes identically at s = 0, 2 and 5 (t = 1)
    rng = random.Random(157)
    roots = parse_poly("s*(s - 2*t)*(s - 5*t)")
    f = roots * random_bipoly(rng, 1, 3)
    g = random_bipoly(rng, 4, 3)
    [r] = resultants([(f, g)], 4, 3)
    assert [k for k in range(25) if r.eval((k, 1, 0, 0)) == 0] == [0, 2, 5]
    assert st_coeffs(r, 24) == vandermonde_resultant(f, g, (4, 3), (4, 3), P)


def _primes_around(n):
    """(largest odd prime <= n or None, least odd prime > n)."""
    def is_prime(m):
        return m > 1 and all(m % q for q in range(2, math.isqrt(m) + 1))
    below = next((m for m in range(n, 2, -1) if is_prime(m)), None)
    return below, next(m for m in itertools.count(max(3, n + 1))
                      if is_prime(m))


PAIR_KINDS = ["random", "drop", "shared", "vanishing"]


@st.composite
def resultant_batches(draw, d):
    """(c, p, pairs, kinds) for a batch of (c, d)-form pairs, each pair
    drawn as one of ``PAIR_KINDS``."""
    c = draw(st.integers(0, 4))
    D = 2 * c * d
    p = draw(st.sampled_from([P, 65521, _primes_around(D)[1]]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    kinds = draw(st.lists(st.sampled_from(PAIR_KINDS), min_size=1,
                          max_size=3))
    pairs = []
    for kind in kinds:
        f, g = (random_bipoly_mod(rng, p, c, d) for _ in range(2))
        if kind == "drop" and d:
            # zero u^d or v^d in one or both forms: a formal degree drop
            l = rng.choice([0, d])
            f, g = (BiPoly(p, {e: x for e, x in h.terms.items() if e[3] != l})
                    if rng.random() < 0.7 else h for h in (f, g))
        elif kind == "shared" and d:
            c1, d1 = rng.randrange(c + 1), rng.randrange(1, d + 1)
            common = random_bipoly_mod(rng, p, c1, d1)
            f, g = (common * random_bipoly_mod(rng, p, c - c1, d - d1)
                    for _ in range(2))
        elif kind == "vanishing" and D:
            # f vanishes at up to c of the nodes s = 0..D
            nodes = rng.sample(range(D + 1), rng.randrange(1, min(c, D) + 1))
            f = random_bipoly_mod(rng, p, c - len(nodes), d)
            for k in nodes:
                f = f * BiPoly(p, {(1, 0, 0, 0): 1, (0, 1, 0, 0): -k % p})
        pairs.append((f, g))
    return c, p, pairs, kinds


@pytest.mark.parametrize("d", range(7))
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_resultant_uv_matches_the_reference_on_random_batches(d, data):
    # d = 1, 2, 5, 6 take the sign (-1)^(d(d+1)/2) = -1, d = 0, 3, 4 take +1
    c, p, pairs, kinds = data.draw(resultant_batches(d))
    got = resultants(pairs, c, d, p)
    assert len(got) == len(pairs)
    for (f, g), kind, r in zip(pairs, kinds, got):
        assert st_coeffs(r, 2 * c * d) == vandermonde_resultant(
            f, g, (c, d), (c, d), p)
        if kind == "shared" and d:
            assert r.is_zero
    below = _primes_around(2 * c * d)[0]
    if below is not None:
        with pytest.raises(ValueError, match="prime too small"):
            resultants(pairs, c, d, below)


def test_content_and_coprimality():
    f = parse_poly("s*u^2 + s*u*v")   # st-content s, uv-content u^2 + u*v
    assert resultant_ref.st_content(f, 1, 2) == parse_poly("s")
    assert resultant_ref.uv_content(f, 1, 2) == parse_poly("u^2 + u*v")
    g = parse_poly("t*v^2")
    assert membership.bihomog_coprime(f, g)      # u*(u+v) against v^2
    h = parse_poly("t*u^2 + t*u*v")
    assert not membership.bihomog_coprime(f, h)  # common uv-content u
    f2 = parse_poly("s*u + t*v")
    g2 = parse_poly("s*u - t*v")
    assert membership.bihomog_coprime(f2, g2)
    # constants are units
    assert membership.bihomog_coprime(parse_poly("3"), f)


def spy_rank(monkeypatch) -> list:
    """Record the shape of every matrix ``linalg.rank`` is asked about."""
    shapes, original = [], linalg.rank

    def spy(mat, p):
        shapes.append(np.shape(mat))
        return original(mat, p)

    monkeypatch.setattr(linalg, "rank", spy)
    return shapes


def test_bihomog_coprime_takes_the_rank_where_no_point_certifies(
        monkeypatch):
    # R vanishes at every listed (u : v) = (1 : x), so there f and g share
    # the root t = 0; f and g are coprime all the same, as t does not
    # divide s * R
    R = reduce(operator.mul, [parse_poly(f"v - {x}*u")
                              for x in membership._POINTS])
    f, g = parse_poly("s") * R + parse_poly("t*u^3"), parse_poly("t")
    ranks = spy_rank(monkeypatch)
    assert membership.bihomog_coprime(f, g)
    assert membership.bihomog_coprime(g, f)
    assert len(ranks) == 2


@pytest.mark.parametrize("content", ["s + 2*t", "u + 3*v", "s", "v",
                                     "(t - s)*(v - u)"])
def test_bihomog_coprime_refuses_a_common_factor(content, monkeypatch):
    # a common (s, t)-form leaves every (s : t)-specialization coprime, and
    # a common (u, v)-form every (u : v)-specialization: the other side,
    # then the rank, must refuse.  (t - s)(v - u) makes both forms vanish
    # at (s : t) = (1 : 1) and at (u : v) = (1 : 1), whose gcd is zero
    rng = random.Random(content)
    k = parse_poly(content)
    ranks = spy_rank(monkeypatch)
    for _ in range(5):
        f1, g1 = random_form_mod(rng, P, 1, 2), random_form_mod(rng, P, 2, 1)
        assert membership.bihomog_coprime(f1, g1)
        assert not membership.bihomog_coprime(k * f1, k * g1)
    assert len(ranks) == 5


def test_bench_and_corpus_alphas_are_coprime_without_a_rank(
        corpus, tmp_path, monkeypatch):
    analyses = [gi.analysis for gi in corpus if gi.spec.kind != "dim2"]
    for workload in ("generic-d1", "exact-d2", "screen"):
        for job in bench_jobs(workload, tmp_path / workload):
            data = job.load()
            va = analyze(SurfaceInput.from_strings(
                data["a"], data["b"], data["generators"],
                FieldConfig(data["prime"])))
            if va.dim_v > 2:
                analyses.append(va)
    assert len(analyses) == 60 + 10
    ranks = spy_rank(monkeypatch)
    for va in analyses:
        assert all(run_case(va).checks.values())
    assert ranks == []


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
