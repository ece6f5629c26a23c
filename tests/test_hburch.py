"""Graded resolutions of binary-form lists and signed-minor recovery."""

import random

import pytest

from tensurf import hburch
from tensurf.bipoly import CertificateError, DEFAULT_PRIME, UniHomPoly, uni_to_str

P = DEFAULT_PRIME


def form(degree, coeffs):
    return UniHomPoly(P, degree, tuple(c % P for c in coeffs))


def random_form(rng, degree):
    while True:
        coeffs = tuple(rng.randrange(P) for _ in range(degree + 1))
        if any(coeffs):
            return UniHomPoly(P, degree, coeffs)


def test_power_basis_resolution_frozen():
    # g = (u^2, u*v, v^2) resolves by the 3 x 2 matrix [[-v,0],[u,-v],[0,u]]
    g = [form(2, (1, 0, 0)), form(2, (0, 1, 0)), form(2, (0, 0, 1))]
    res = hburch.hilbert_burch_psi(g, P)
    assert res.matrix.col_degrees == (3, 3)
    rows = [[uni_to_str(e) for e in row] for row in res.matrix.entries]
    assert rows == [["-v", "0"], ["u", "-v"], ["0", "u"]]
    assert res.lam == 1
    assert all((x - y).is_zero for x, y in zip(res.minors, g))


def test_quartic_power_basis_resolution_frozen():
    g = [form(3, (1, 0, 0, 0)), form(3, (0, 1, 0, 0)),
         form(3, (0, 0, 1, 0)), form(3, (0, 0, 0, 1))]
    res = hburch.hilbert_burch_psi(g, P)
    assert res.matrix.col_degrees == (4, 4, 4)
    rows = [[uni_to_str(e) for e in row] for row in res.matrix.entries]
    assert rows == [["-v", "0", "0"],
                    ["u", "-v", "0"],
                    ["0", "u", "-v"],
                    ["0", "0", "u"]]


def test_random_resolutions_recover_generators():
    rng = random.Random(61)
    for _ in range(12):
        k = rng.choice([2, 3, 4])
        deg = rng.randrange(1, 4)
        gens = [random_form(rng, deg) for _ in range(k)]
        common = gens[0]
        for g in gens[1:]:
            from tensurf.bipoly import uni_gcd
            common = uni_gcd(common, g)
        if common.degree > 0:
            continue
        res = hburch.normalized_resolution(gens, P)
        assert sum(res.matrix.col_degrees) == sum(res.matrix.row_degrees)
        assert res.matrix.check_annihilates(gens)
        assert all((x - y).is_zero for x, y in zip(res.minors, gens))


def test_min_graded_syzygies_rejects_common_factor():
    u = form(1, (1, 0))
    with pytest.raises(ValueError):
        hburch.min_graded_syzygies([u * u, u * form(1, (0, 1))], P)


def test_hilbert_burch_psi_rejects_zero_entry():
    with pytest.raises(CertificateError):
        hburch.hilbert_burch_psi([form(1, (1, 0)), UniHomPoly.zero(P, 1)], P)


def test_graded_matrix_degree_bookkeeping():
    with pytest.raises(ValueError):
        hburch.GradedSyzMatrix(P, (1,), (2,), ((form(3, (1, 0, 0, 1)),),))
    m = hburch.GradedSyzMatrix(P, (1, 2), (2, 3),
                               ((form(1, (1, 0)), form(2, (0, 1, 0))),
                                (form(0, (5,)), form(1, (1, 1)))))
    assert m.shape == (2, 2)
    assert uni_to_str(m.entry(0, 1)) == "u*v"
    col = m.column(0)
    assert [e.degree for e in col] == [1, 0]


def test_transpose_product_frozen():
    # (0, -v, u) times the resolution [[0,u],[0,v],[1,0]] gives (u, -v^2)
    phi = hburch.GradedSyzMatrix(
        P, (1, 1, 1), (1, 2),
        ((UniHomPoly.zero(P, 0), form(1, (1, 0))),
         (UniHomPoly.zero(P, 0), form(1, (0, 1))),
         (form(0, (1,)), UniHomPoly.zero(P, 1))))
    col = [UniHomPoly.zero(P, 1), form(1, (0, -1)), form(1, (1, 0))]
    out = hburch.transpose_product(col, phi)
    assert [uni_to_str(x) for x in out] == ["u", "-v^2"]


def test_compose_matches_manual_product():
    rng = random.Random(71)
    left = hburch.GradedSyzMatrix(
        P, (0, 0), (1, 1),
        ((random_form(rng, 1), random_form(rng, 1)),
         (random_form(rng, 1), random_form(rng, 1))))
    right = hburch.GradedSyzMatrix(
        P, (1, 1), (2,),
        ((random_form(rng, 1),), (random_form(rng, 1),)))
    prod = hburch.compose(left, right, (0, 0))
    for i in range(2):
        want = (left.entries[i][0] * right.entries[0][0]
                + left.entries[i][1] * right.entries[1][0])
        assert (prod.entries[i][0] - want).is_zero
