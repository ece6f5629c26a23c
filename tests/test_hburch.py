"""Graded resolutions of binary-form lists and signed-minor recovery."""

import random

import pytest

from helpers import uv_form
from tensurf import hburch
from tensurf.bipoly import (BiPoly, CertificateError, DEFAULT_PRIME,
                            poly_to_str, uni_gcd)

P = DEFAULT_PRIME
ZERO = BiPoly.zero(P)


def random_form(rng, degree):
    while True:
        coeffs = [rng.randrange(P) for _ in range(degree + 1)]
        if any(coeffs):
            return uv_form(coeffs)


def strings(mat):
    return [[poly_to_str(e) for e in row] for row in mat.entries]


def test_power_basis_resolution_frozen():
    # g = (u^2, u*v, v^2) resolves by the 3 x 2 matrix [[-v,0],[u,-v],[0,u]]
    g = [uv_form((1, 0, 0)), uv_form((0, 1, 0)), uv_form((0, 0, 1))]
    mat = hburch.hilbert_burch_psi(g, P)
    assert mat.row_degrees == (2, 2, 2)
    assert mat.col_degrees == (3, 3)
    assert strings(mat) == [["-v", "0"], ["u", "-v"], ["0", "u"]]
    # the raw matrix needed no scaling
    assert mat == hburch.min_graded_syzygies(g, [2, 2, 2], P)
    assert hburch.signed_minors(mat) == g


def test_quartic_power_basis_resolution_frozen():
    g = [uv_form((1, 0, 0, 0)), uv_form((0, 1, 0, 0)),
         uv_form((0, 0, 1, 0)), uv_form((0, 0, 0, 1))]
    mat = hburch.hilbert_burch_psi(g, P)
    assert mat.col_degrees == (4, 4, 4)
    assert strings(mat) == [["-v", "0", "0"],
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
            common = uni_gcd(common, g)
        if common.bidegree() != (0, 0):
            continue
        mat = hburch.normalized_resolution(gens, [deg] * k, P)
        assert sum(mat.col_degrees) == sum(mat.row_degrees)
        assert mat.check_annihilates(gens)
        assert hburch.signed_minors(mat) == gens


@pytest.mark.parametrize("gens, lam, cols, rows", [
    ([(2, 0, 5), None, (0, 1, 7)], 5, (2, 4),
     [["0", "-858993459*u*v + 429496728*v^2"], ["5", "0"],
      ["0", "-429496729*u^2 + v^2"]]),
    ([None, (1, 0, 1), (0, 3, 0), None], 1, (2, 2, 4),
     [["1", "0", "0"], ["0", "0", "-3*u*v"], ["0", "0", "u^2 + v^2"],
      ["0", "1", "0"]]),
])
def test_column_with_a_zero_entry_resolves_as_before(gens, lam, cols, rows):
    # None marks a zero entry of the column's degree 2; the frozen matrices
    # are those of the dense binary-form type this representation replaced
    gens = [ZERO if g is None else uv_form(g) for g in gens]
    mat = hburch.normalized_resolution(gens, [2] * len(gens), P)
    assert (mat.row_degrees, mat.col_degrees) == ((2,) * len(gens), cols)
    # the raw first column was scaled by lam
    raw = hburch.min_graded_syzygies(gens, [2] * len(gens), P)
    assert mat == raw.scale_column(0, lam)
    assert strings(mat) == rows
    assert all(e.is_bihomogeneous(0, cd - rd)
               for row, rd in zip(mat.entries, mat.row_degrees)
               for e, cd in zip(row, mat.col_degrees))
    assert hburch.signed_minors(mat) == gens


def test_a_changed_minor_fails_the_hilbert_burch_check(monkeypatch):
    original = hburch.signed_minors

    def spoiled(mat):
        minors = original(mat)
        exp, c = min(minors[-1].terms.items())
        minors[-1] = BiPoly(P, {**minors[-1].terms, exp: (c + 1) % P or 1})
        return minors

    monkeypatch.setattr(hburch, "signed_minors", spoiled)
    g = [uv_form((1, 0, 0)), uv_form((0, 1, 0)), uv_form((0, 0, 1))]
    with pytest.raises(CertificateError, match="^signed minors do not "
                       "reproduce the generators after scaling$"):
        hburch.hilbert_burch_psi(g, P)


def test_min_graded_syzygies_rejects_common_factor():
    u = uv_form((1, 0))
    with pytest.raises(ValueError):
        hburch.min_graded_syzygies([u * u, u * uv_form((0, 1))], [2, 2], P)
    # the degrees must be those of the forms
    with pytest.raises(ValueError):
        hburch.min_graded_syzygies([u, uv_form((0, 1))], [1, 2], P)


def test_hilbert_burch_psi_rejects_zero_entry():
    with pytest.raises(CertificateError):
        hburch.hilbert_burch_psi([uv_form((1, 0)), ZERO], P)


def test_graded_matrix_degree_bookkeeping():
    with pytest.raises(ValueError):
        hburch.GradedSyzMatrix(P, (1,), (2,), ((uv_form((1, 0, 0, 1)),),))
    m = hburch.GradedSyzMatrix(P, (1, 2), (2, 3),
                               ((uv_form((1, 0)), uv_form((0, 1, 0))),
                                (uv_form((5,)), uv_form((1, 1)))))
    assert m.shape == (2, 2)
    assert poly_to_str(m.entries[0][1]) == "u*v"
    forms, degrees = m.column(0)
    assert forms == [uv_form((1, 0)), uv_form((5,))]
    assert degrees == [1, 0]
    # an entry of negative formal degree is zero, its degree clamped at 0
    m = hburch.GradedSyzMatrix(P, (1, 3), (2,), ((uv_form((1, 1)),), (ZERO,)))
    assert m.column(0) == ([uv_form((1, 1)), ZERO], [1, 0])


def test_transpose_product_frozen():
    # (0, -v, u) times the resolution [[0,u],[0,v],[1,0]] gives (u, -v^2)
    phi = hburch.GradedSyzMatrix(
        P, (1, 1, 1), (1, 2),
        ((ZERO, uv_form((1, 0))),
         (ZERO, uv_form((0, 1))),
         (uv_form((1,)), ZERO)))
    col = [ZERO, uv_form((0, -1)), uv_form((1, 0))]
    out, degrees = hburch.transpose_product(col, [1, 1, 1], phi)
    assert [poly_to_str(x) for x in out] == ["u", "-v^2"]
    assert degrees == [1, 2]


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
