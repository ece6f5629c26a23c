"""Quaternary forms: evaluation, composition with the surface map, division."""

import math
import random

import numpy as np
import pytest

import planes_ref
from tensurf import xpoly
from tensurf.bipoly import DEFAULT_PRIME, BiPoly, poly_to_str
from tensurf.xpoly import (XPoly, divide_with_remainder, eval_matrix,
                           linear_substitute, monomials_of_degree,
                           parse_xpoly)
from xpoly_ref import (coeff_vector, compose_with_map, eval_rows,
                       vanishes_on_map)

P = DEFAULT_PRIME


def random_xpoly(rng, degree, n_terms=6):
    monos = monomials_of_degree(degree)
    terms = {}
    for exp in rng.sample(monos, min(n_terms, len(monos))):
        terms[exp] = rng.randrange(1, P)
    return XPoly(P, terms)


def test_monomial_count_and_order():
    monos = monomials_of_degree(2)
    assert len(monos) == 10
    assert monos[0] == (2, 0, 0, 0)
    assert monos[-1] == (0, 0, 0, 2)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("degree", [0, 1, 4])
def test_monomials_and_eval_matrix_in_n_variables(n, degree):
    mons = monomials_of_degree(degree, n)
    assert len(set(mons)) == len(mons) == math.comb(degree + n - 1, n - 1)
    assert {sum(m) for m in mons} == {degree}
    assert mons == sorted(mons, reverse=True)
    rng = random.Random(n * 10 + degree)
    pts = np.array([[rng.randrange(P) for _ in range(n)] for _ in range(5)]
                   + [[0] * n], dtype=np.int64)
    want = [[math.prod(pow(int(x), e, P) for x, e in zip(pt, m)) % P
             for m in mons] for pt in pts]
    assert eval_matrix(degree, pts, P).tolist() == want


def test_eval_matrix_rejects_points_without_coordinates():
    with pytest.raises(ValueError):
        eval_matrix(2, np.zeros((3, 0), dtype=np.int64), P)
    with pytest.raises(ValueError):
        eval_matrix(2, np.zeros(4, dtype=np.int64), P)


def test_parse_and_print_round_trip():
    f = parse_xpoly("x0*x3 - x1*x2", P)
    assert f.terms == {(1, 0, 0, 1): 1, (0, 1, 1, 0): P - 1}
    assert poly_to_str(f) == "x0*x3 - x1*x2"
    # inhomogeneous and mixed-sign inputs; expected strings as printed by
    # the two-parser implementation this one replaced
    for text, want in [
            ("7 - 2*x0^2 + 5*x1*x2*x3 + x2^3 - x0*x1 + x1",
             "-2*x0^2 - x0*x1 + 5*x1*x2*x3 + x1 + x2^3 + 7"),
            ("-(x0 - 3*x3)^3 + x1^2*x2",
             "-x0^3 + 9*x0^2*x3 - 27*x0*x3^2 + x1^2*x2 + 27*x3^3"),
            ("x3 - x2 + x1 - x0", "-x0 + x1 - x2 + x3")]:
        g = parse_xpoly(text, P)
        assert poly_to_str(g) == want
        assert parse_xpoly(want, P) == g
    # ** is ^ and binds to the atom before it
    assert poly_to_str(parse_xpoly("3*x0**2", P)) == "3*x0^2"
    rng = random.Random(7)
    for _ in range(15):
        g = random_xpoly(rng, rng.randrange(1, 5))
        assert parse_xpoly(poly_to_str(g), P) == g


def test_degree_and_homogeneity():
    f = parse_xpoly("x0^2 + x1*x2", P)
    assert f.degree() == 2
    assert f.is_homogeneous(2)
    assert parse_xpoly("x0 + x1^2", P).degree() is None
    assert XPoly.const(P, 5).degree() == 0
    assert XPoly.zero(P).degree() is None


def test_eval_matrix_matches_pointwise_eval():
    rng = random.Random(13)
    for degree in (3, 0, 9):
        f = random_xpoly(rng, degree, n_terms=40)
        # zero coordinates exercise the 0^0 = 1 entries
        pts = np.array([[rng.randrange(P) for _ in range(4)]
                        for _ in range(6)]
                       + [[0, 0, 0, 0], [0, 5, 0, P - 1]], dtype=np.int64)
        M = eval_matrix(degree, pts, P)
        assert M.shape == (8, math.comb(degree + 3, 3))
        vec = coeff_vector(f, degree)
        vals = np.zeros(8, dtype=np.int64)
        for k in range(M.shape[1]):
            vals = (vals + M[:, k] * int(vec[k])) % P
        for i in range(8):
            assert int(vals[i]) == f.eval(pts[i])
        assert np.array_equal(
            planes_ref.eval_form(f.coeff_cube(degree), degree, pts, P), vals)


@pytest.mark.parametrize("chunk", [planes_ref.FORM_CHUNK, 100])
def test_eval_form_matches_pointwise_eval(chunk, monkeypatch):
    # the reference peel's evaluator of cubes; a chunk of 100 elements
    # splits the points into many row chunks
    monkeypatch.setattr(planes_ref, "FORM_CHUNK", chunk)
    for p in (P, 65521):
        rng = random.Random(17)
        pts = np.array([[rng.randrange(p) for _ in range(4)]
                        for _ in range(40)], dtype=np.int64)
        pts[rng.sample(range(40), 12), 0] = 0
        pts[:8:2, 1] = 0
        pts = np.vstack([pts, [[0, 0, 0, 0], [0, 3, 0, 0], [0, 0, 0, 5],
                               [-1, 2, -3, p + 4]]])
        for degree in (0, 1, 6, 12):
            mons = monomials_of_degree(degree)
            for n_terms in sorted({1, min(4, len(mons)), len(mons)}):
                f = XPoly(p, {m: rng.randrange(1, p)
                              for m in rng.sample(mons, n_terms)})
                got = planes_ref.eval_form(f.coeff_cube(degree), degree, pts, p)
                assert got.dtype == np.int64
                assert got.tolist() == eval_rows(f, pts).tolist()
                assert planes_ref.eval_form(f.coeff_cube(degree), degree, pts[:0],
                                 p).shape == (0,)
                # its x0-free part, a ternary form: one axis fewer
                g = XPoly(p, {m: c for m, c in f.terms.items() if not m[0]})
                square = np.zeros((degree + 1,) * 2, dtype=np.int64)
                for m, c in g.terms.items():
                    square[m[2], m[3]] = c
                got = planes_ref.eval_form(square, degree, pts[:, 1:], p)
                assert got.tolist() == eval_rows(g, pts).tolist()
        zero = XPoly.zero(p).coeff_cube(3)
        assert not planes_ref.eval_form(zero, 3, pts, p).any()


@pytest.mark.parametrize("p", [P, 65521])
def test_shift_form_is_the_taylor_shift(p):
    # f(y + z) at points y, and the shift by -z undoes the shift by z
    rng = random.Random(p % 97)
    pts = np.array([[1] + [rng.randrange(p) for _ in range(3)]
                    for _ in range(10)], dtype=np.int64)
    for degree in (0, 1, 4, 9):
        mons = monomials_of_degree(degree)
        f = XPoly(p, {m: rng.randrange(1, p)
                      for m in rng.sample(mons, min(8, len(mons)))})
        z = [rng.randrange(p), 0, p - rng.randrange(1, p)]
        got = xpoly.shift_form(f.coeff_cube(degree), z, p)
        moved = pts + np.array([0, *z])
        assert eval_rows(XPoly.from_cube(p, degree, got), pts).tolist() \
            == eval_rows(f, moved).tolist()
        back = xpoly.shift_form(got, [-x for x in z], p)
        assert back.tolist() == f.coeff_cube(degree).tolist()


@pytest.mark.parametrize("p", [P, 65521])
@pytest.mark.parametrize("degree", [0, 1, 5, 12])
def test_from_cube_inverts_coeff_cube(degree, p):
    rng = random.Random(degree * 100 + p % 100)
    mons = monomials_of_degree(degree)
    for n_terms in sorted({1, len(mons) // 3 + 1, len(mons)}):
        f = XPoly(p, {m: rng.randrange(1, p)
                      for m in rng.sample(mons, n_terms)})
        assert XPoly.from_cube(p, degree, f.coeff_cube(degree)) == f
    zero = XPoly.zero(p)
    assert XPoly.from_cube(p, degree, zero.coeff_cube(degree)) == zero
    # an entry beyond the degree would need a negative power of x0
    cube = np.zeros((degree + 2,) * 3, dtype=np.int64)
    cube[degree, 1, 0] = 1
    with pytest.raises(ValueError, match="exceeds degree"):
        XPoly.from_cube(p, degree, cube)


def test_arithmetic_and_powers():
    rng = random.Random(19)
    f = random_xpoly(rng, 2)
    g = random_xpoly(rng, 2)
    pt = [rng.randrange(P) for _ in range(4)]
    assert (f * g).eval(pt) == f.eval(pt) * g.eval(pt) % P
    assert (f ** 3).eval(pt) == pow(f.eval(pt), 3, P)
    assert (f - f).is_zero
    # the two rings share keys but not equality
    assert BiPoly(P, {(1, 0, 0, 0): 1}) != XPoly(P, {(1, 0, 0, 0): 1})


def test_grid_and_composition(example_input, example_oracle):
    a, b = example_input.a, example_input.b
    # entry [j, l] of a generator's grid is its coefficient of t^j v^l
    g0 = example_input.grids[0]  # -t^2*u^4*v - s^2*v^5
    assert g0.shape == (a + 1, b + 1)
    assert {(j, l) for j, l in zip(*np.nonzero(g0))} == {(2, 1), (0, 5)}
    assert g0[2, 1] == g0[0, 5] == P - 1
    comp = compose_with_map(example_oracle.f, example_input.gens, a, b)
    d = example_oracle.degree
    assert comp.shape == (d * a + 1, d * b + 1)
    assert not np.any(comp)
    assert vanishes_on_map(example_oracle.f, example_input.gens, a, b)
    probe = parse_xpoly("x0^10", P)
    assert not vanishes_on_map(probe, example_input.gens, a, b)


def test_compose_with_map_agrees_with_pointwise(segre_input):
    rng = random.Random(23)
    f = parse_xpoly("x0*x3 - 5*x1*x2 + x0^2", P)
    comp = compose_with_map(f, segre_input.gens, 1, 1)
    for _ in range(10):
        s0, t0, u0, v0 = (rng.randrange(P) for _ in range(4))
        img = [g.eval((s0, t0, u0, v0)) for g in segre_input.gens]
        want = f.eval(img)
        got = 0
        for (i, j) in np.ndindex(comp.shape):
            got = (got + int(comp[i, j])
                   * pow(s0, comp.shape[0] - 1 - i, P) * pow(t0, i, P)
                   * pow(u0, comp.shape[1] - 1 - j, P) * pow(v0, j, P)) % P
        assert got == want


def test_divide_with_remainder_round_trip():
    rng = random.Random(29)
    for _ in range(12):
        g = random_xpoly(rng, rng.randrange(1, 3), n_terms=4)
        q = random_xpoly(rng, rng.randrange(1, 3), n_terms=4)
        r = random_xpoly(rng, 1, n_terms=2)
        f = g * q + r
        q2, r2 = divide_with_remainder(f, g)
        assert g * q2 + r2 == f
        # exact multiples leave no remainder
        q3, r3 = divide_with_remainder(g * q, g)
        assert r3.is_zero
        assert q3 == q


def test_divide_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divide_with_remainder(parse_xpoly("x0", P), XPoly.zero(P))


def test_linear_substitute_matches_eval():
    rng = random.Random(31)
    f = random_xpoly(rng, 3)
    mat = np.array([[rng.randrange(P) for _ in range(4)] for _ in range(4)],
                   dtype=np.int64)
    sub = linear_substitute(f, mat)
    for _ in range(10):
        y = np.array([rng.randrange(P) for _ in range(4)], dtype=np.int64)
        my = np.zeros(4, dtype=np.int64)
        for k in range(4):
            my = (my + mat[:, k] * int(y[k])) % P
        assert sub.eval(y) == f.eval(my)


def test_linear_substitute_identity_is_noop():
    f = parse_xpoly("x0^2*x3 - 7*x1*x2*x3", P)
    assert linear_substitute(f, np.eye(4, dtype=np.int64)) == f
