"""Point-elimination oracle, determinant certificate, basepoint screen."""

import dataclasses
import hashlib
import math
import random
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from conftest import EXAMPLE_GENERATORS
from helpers import mutate_case
from tensurf import linalg, oracle, planes
from tensurf.bipoly import (BiPoly, CertificateError, DEFAULT_PRIME,
                            FieldConfig, HypothesisError, parse_poly,
                            poly_to_str)
from tensurf.oracle import (DetCertificate, basepoint_check,
                            implicit_by_elimination, implicitize,
                            verify_implicitization, _lattice_values,
                            _principal_lattice)
from tensurf.bipoly import UniHomPoly, uni_gcd
from tensurf.cases import run_case
from tensurf.gen import GenSpec, generate
from tensurf.strand import Strand, build_strand, reconstruct_det
from tensurf.syzygy import SurfaceInput, analyze
from tensurf.xpoly import (XPoly, eval_matrix, linear_substitute,
                           monomials_of_degree, parse_xpoly, xpoly_to_str)
from xpoly_ref import coeff_vector, eval_rows, vanishes_on_map

P = DEFAULT_PRIME


# ---------------------------------------------------------------------------
# the implicit equation by elimination


def test_example_oracle_frozen(example_oracle):
    orc = example_oracle
    assert orc.degree == 10
    assert orc.kernel_dim == 1
    assert orc.kernel_dims == tuple((e, 0) for e in range(1, 10)) + ((10, 1),)
    f = orc.f
    assert len(f.terms) == 143
    assert f.terms[(9, 0, 0, 1)] == 1          # normalized leading coefficient
    assert f.terms[(8, 1, 1, 0)] == P - 1
    assert f.terms[(8, 1, 0, 1)] == 2
    assert f.terms[(0, 9, 1, 0)] == 1
    assert f.terms[(0, 0, 10, 0)] == 2
    assert f.terms[(1, 0, 0, 9)] == P - 1
    assert f.terms[(0, 1, 1, 8)] == 1


def test_oracle_equation_vanishes_on_the_surface(example_input,
                                                 example_oracle):
    assert vanishes_on_map(example_oracle.f, example_input.gens,
                           example_input.a, example_input.b)


def test_segre_oracle_frozen(segre_input):
    orc = implicit_by_elimination(segre_input)
    assert orc.degree == 2
    assert orc.kernel_dim == 1
    assert orc.f == parse_xpoly("x0*x3 - x1*x2", P)


def test_oracle_detects_dead_grid_point(field):
    # plant a basepoint curve straight through the first evaluation node
    a = b = 2
    rng = field.rng("oracle")
    rng.sample(range(P), 2 * a * b * a + 1)
    v0 = rng.sample(range(P), 2 * a * b * b + 1)[0]
    factor = parse_poly(f"v - {v0}*u", P)
    gens = [poly_to_str(parse_poly(cof, P) * factor)
            for cof in ["s^2*u", "s^2*v", "s*t*u", "t^2*v"]]
    inp = SurfaceInput.from_strings(a, b, gens, field)
    with pytest.raises(HypothesisError, match="basepoint"):
        implicit_by_elimination(inp)


# ---------------------------------------------------------------------------
# the plane sections, the degree they read off and the exact check there


def _unhinted(monkeypatch, inp):
    """The oracle with the plane sections switched off: the plain scan."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "peel", lambda inp, gen_grids: None)
        return implicit_by_elimination(inp)


def _count_kernels(monkeypatch) -> list:
    calls = []
    original = linalg.kernel_basis

    def counting(mat, p):
        calls.append(np.shape(mat))
        return original(mat, p)

    monkeypatch.setattr(linalg, "kernel_basis", counting)
    return calls


def _peeled_degree(inp):
    return planes.peel(inp, list(inp.grids()))[0]


def test_fiber_degree_of_known_surfaces(example_input, segre_input):
    # the peel reads e = 2ab / d off its first plane section: d = 2, 1, 1
    assert _peeled_degree(example_input) == 10
    assert _peeled_degree(segre_input) == 2
    inst = generate(GenSpec("dim2", 3, 2, 1), index=0, seed=0)
    assert _peeled_degree(inst.input) == 12


def test_hinted_oracle_matches_the_scan_on_the_worked_surface(
        example_input, monkeypatch):
    want = _unhinted(monkeypatch, example_input)
    calls = _count_kernels(monkeypatch)
    got = implicit_by_elimination(example_input)
    assert got == want
    assert got.grid_shape == (21, 51)
    # one kernel, on the C(12, 2) plane monomials of degree 10 at level 0,
    # instead of one kernel per degree; the other levels are solves
    assert calls == [(math.comb(12, 2) + 8, math.comb(12, 2))]


def test_hinted_oracle_matches_the_scan_on_segre(segre_input, monkeypatch):
    want = _unhinted(monkeypatch, segre_input)
    assert implicit_by_elimination(segre_input) == want
    assert want.kernel_dims == ((1, 0), (2, 1))


def test_failed_grid_check_falls_back_to_the_scan(example_input,
                                                  monkeypatch):
    want = _unhinted(monkeypatch, example_input)
    original = oracle._vanishes_at
    seen = []

    def perturbed(degree, points, vec, p):
        bumped = vec.copy()
        bumped[-1] = (bumped[-1] + 1) % p
        seen.append(degree)
        return original(degree, points, bumped, p)

    monkeypatch.setattr(oracle, "_vanishes_at", perturbed)
    calls = _count_kernels(monkeypatch)
    assert implicit_by_elimination(example_input) == want
    assert seen == [10]
    assert len(calls) == 1 + 10


# The exact grid check evaluates the candidate with xpoly.eval_form on its
# coefficient cube; the reference multiplies the dense monomial evaluation
# matrix by the coefficient vector.


def _grid_reference(degree, points, vec, p):
    return linalg.matmul_mod(eval_matrix(degree, points, p), vec[:, None],
                             p)[:, 0]


def _oracle_grid(inp, e):
    """The image of the oracle's (e*a + 1) x (e*b + 1) product grid."""
    a, b = inp.a, inp.b
    rng = inp.field.rng("oracle")
    t_nodes = rng.sample(range(P), 2 * a * b * a + 1)[:e * a + 1]
    v_nodes = rng.sample(range(P), 2 * a * b * b + 1)[:e * b + 1]
    params = np.array([(1, t, 1, v) for t in t_nodes for v in v_nodes],
                      dtype=np.int64)
    return np.stack([eval_rows(g, params) for g in inp.gens], axis=1)


@pytest.mark.parametrize("p", [P, 65521])
def test_vanishes_at_agrees_with_the_evaluation_matrix(p):
    # quartics through the points with x1 = 0 or x2 = x3 (one sparse, one
    # dense) and a random dense quartic, at points with zero coordinates
    rng = np.random.default_rng(p % 1000)
    pts = rng.integers(0, p, size=(40, 4), dtype=np.int64)
    pts[rng.random(pts.shape) < 0.3] = 0
    pts[::5, 3] = pts[::5, 2]
    through = parse_xpoly("x1*x2 - x1*x3", p)
    quadric = XPoly.from_coeff_vector(p, 2, rng.integers(0, p, 10))
    forms = [through * parse_xpoly("x0^2 + 3*x3^2", p), through * quadric,
             XPoly.from_coeff_vector(p, 4, rng.integers(0, p, 35))]
    zeros = []
    for f in forms:
        vec = coeff_vector(f, 4)
        want = _grid_reference(4, pts, vec, p) == 0
        got = [oracle._vanishes_at(4, pts[i:i + 1], vec, p)
               for i in range(len(pts))]
        assert got == want.tolist()
        assert oracle._vanishes_at(4, pts[want], vec, p)
        assert not oracle._vanishes_at(4, pts, vec, p)
        zeros.append(int(want.sum()))
    assert zeros[0] >= 8 and zeros[1] >= 8


@pytest.mark.parametrize("name", ["worked", "segre"])
def test_grid_check_accepts_the_equation_and_rejects_a_change(
        name, example_input, example_oracle, segre_input):
    # worked: F of degree 10; Segre: the sparse quadric x0*x3 - x1*x2
    if name == "worked":
        inp, orc = example_input, example_oracle
    else:
        inp, orc = segre_input, implicit_by_elimination(segre_input)
    e = orc.degree
    pts = _oracle_grid(inp, e)
    vec = coeff_vector(orc.f, e)
    assert oracle._vanishes_at(e, pts, vec, P)
    assert not _grid_reference(e, pts, vec, P).any()
    # change a nonzero coefficient, then add a term
    for pos in (int(np.flatnonzero(vec)[-1]), int(np.flatnonzero(vec == 0)[0])):
        bumped = vec.copy()
        bumped[pos] = (bumped[pos] + 1) % P
        assert not oracle._vanishes_at(e, pts, bumped, P)
        assert _grid_reference(e, pts, bumped, P).any()


def test_hint_leaves_a_dead_grid_point_to_the_scan(field, monkeypatch):
    # Segre times a (0, 1) factor vanishing on the first v node: the image
    # is still the quadric, but the map now has degree d = 2 onto it.  The
    # peel draws for e_max = 2ab = 4, finds a kernel of dimension
    # C(4, 2) = 6 there, none at degree 1 and the line of the quadric at 2;
    # it sees the dead grid row and leaves it to the scan, which raises
    # with its own message
    a, b = 1, 2
    rng = field.rng("oracle")
    rng.sample(range(P), 2 * a * b * a + 1)
    v0 = rng.sample(range(P), 2 * a * b * b + 1)[0]
    factor = parse_poly(f"v - {v0}*u", P)
    gens = [poly_to_str(parse_poly(cof, P) * factor)
            for cof in ["s*u", "s*v", "t*u", "t*v"]]
    inp = SurfaceInput.from_strings(a, b, gens, field)
    with pytest.raises(HypothesisError, match="basepoint") as want:
        _unhinted(monkeypatch, inp)
    calls = _count_kernels(monkeypatch)
    with pytest.raises(HypothesisError) as got:
        implicit_by_elimination(inp)
    assert str(got.value) == str(want.value)
    assert calls == [(math.comb(6, 2) + 8, math.comb(6, 2)),
                     (math.comb(3, 2) + 8, math.comb(3, 2)),
                     (math.comb(4, 2) + 8, math.comb(4, 2))]


def test_oracle_refuses_primes_below_the_floor():
    # the floor 2ab*max(a, b) + 1 = 37 is what the oracle's product grid
    # needs: 2ab*a + 1 and 2ab*b + 1 distinct nodes in F_p
    gens = ["s^2*u^3", "s*t*u^2*v", "t^2*u*v^2", "s^2*v^3 + t^2*u^3"]
    inp = SurfaceInput.from_strings(2, 3, gens, FieldConfig(11))
    with pytest.raises(ValueError, match="prime 11 is below the floor 37"):
        implicit_by_elimination(inp)


ODD_A_SPECS = [GenSpec("dim2", 3, 2, 1), GenSpec("dim3", 1, 5, 3, (1,)),
               GenSpec("dim2", 3, 3, 2)]


@pytest.mark.parametrize("spec", ODD_A_SPECS, ids=str)
def test_generic_odd_a_instances(spec, monkeypatch):
    # odd a: generic surfaces with d = 1, which the corpus does not cover.
    # The scan takes seconds at (3, 3) (degree 18), so there the certificate
    # alone checks the equation
    for index in range(5):
        inst = generate(spec, index=index, seed=0)
        got = implicit_by_elimination(inst.input)
        if spec.a * spec.b < 9:
            assert got == _unhinted(monkeypatch, inst.input)
        assert got.degree == 2 * spec.a * spec.b
        assert got.kernel_dims[-1] == (got.degree, 1)
        cert = verify_implicitization(
            build_strand(inst.case), got, inst.analysis.point_transform,
            inst.input.field)
        assert cert.exponent == 1


def _swap_symmetric_input(field):
    """Bidegree (2, 2) generators in s^2 + t^2 and s*t only: phi(s, t) =
    phi(t, s), so d = 2, and the roots t and 1/t of one draw map to one
    image point."""
    rng = random.Random(11)

    def form():
        return " + ".join(f"{rng.randrange(1, 100)}*{m}"
                          for m in ("u^2", "u*v", "v^2"))

    gens = [poly_to_str(parse_poly(f"({form()})*(s^2 + t^2)", P)
                        + parse_poly(f"({form()})*s*t", P))
            for _ in range(4)]
    return SurfaceInput.from_strings(2, 2, gens, field)


def test_peel_drops_repeated_points_on_a_swap_symmetric_surface(
        field, monkeypatch):
    inp = _swap_symmetric_input(field)
    want = _unhinted(monkeypatch, inp)
    assert want.degree == 4
    draws = []
    split_roots = planes._split_roots

    def spy(f, delta, p):
        cols, roots = split_roots(f, delta, p)
        draws.append(cols)
        return cols, roots

    monkeypatch.setattr(planes, "_split_roots", spy)
    calls = _count_kernels(monkeypatch)
    assert implicit_by_elimination(inp) == want
    # draws gave two roots, t and 1/t, to be kept as one point
    cols = np.concatenate(draws)
    assert len(set(cols.tolist())) < len(cols)
    # d = 2: the level-0 kernel at e_max = 2ab = 8 is G_0 times the C(6, 2)
    # quartics; degrees 1 and 2 have none, and at e = 4 it is a line
    assert calls == [(math.comb(10, 2) + 8, math.comb(10, 2)),
                     (math.comb(3, 2) + 8, math.comb(3, 2)),
                     (math.comb(4, 2) + 8, math.comb(4, 2)),
                     (math.comb(6, 2) + 8, math.comb(6, 2))]


def test_points_off_their_plane_are_dropped(example_input, example_oracle,
                                            monkeypatch):
    # a root finder that returns a wrong root first for every draw: its
    # image points miss the draw's plane, the exact check drops them, and
    # the level-0 kernel is still a line
    split_roots = planes._split_roots

    def with_wrong_roots(f, delta, p):
        cols, roots = split_roots(f, delta, p)
        return (np.concatenate([cols, cols]),
                np.concatenate([(roots + 1) % p, roots]))

    monkeypatch.setattr(planes, "_split_roots", with_wrong_roots)
    calls = _count_kernels(monkeypatch)
    assert implicit_by_elimination(example_input) == example_oracle
    assert calls == [(74, 66)]


def test_peel_drops_a_level_on_an_earlier_plane_to_the_scan(
        example_input, monkeypatch):
    # H_2 = H_0: every level-2 point lies on an earlier plane, so the peel
    # gives up and the scan answers
    want = _unhinted(monkeypatch, example_input)
    section_points = planes._section_points

    def same_plane(grids, planes, *args):
        planes[2] = planes[0] * 3 % P
        return section_points(grids, planes, *args)

    monkeypatch.setattr(planes, "_section_points", same_plane)
    calls = _count_kernels(monkeypatch)
    assert implicit_by_elimination(example_input) == want
    assert len(calls) == 10


@pytest.mark.parametrize("level", [3, 10])
def test_a_wrong_level_solve_leaves_the_result_to_the_scan(
        level, example_input, monkeypatch):
    # a wrong G_3 makes the level-4 system inconsistent; a wrong G_10, the
    # last level, builds a candidate that the grid proof rejects
    want = _unhinted(monkeypatch, example_input)
    solve_particular = linalg.solve_particular
    solves = []

    def wrong_g(mat, rhs, p):
        x = solve_particular(mat, rhs, p)
        solves.append(None if x is None else len(x))
        if len(solves) == level:
            x[0] = (x[0] + 1) % p
        return x

    vanishes_at = oracle._vanishes_at
    proofs = []

    def proof(*args):
        proofs.append(vanishes_at(*args))
        return proofs[-1]

    monkeypatch.setattr(linalg, "solve_particular", wrong_g)
    monkeypatch.setattr(oracle, "_vanishes_at", proof)
    calls = _count_kernels(monkeypatch)
    assert implicit_by_elimination(example_input) == want
    unknowns = [math.comb(12 - k, 2) for k in range(1, 11)]
    if level == 3:
        assert solves == unknowns[:3] + [None] and proofs == []
    else:
        assert solves == unknowns and proofs == [False]
    assert len(calls) == 1 + 10


# The worked surface over small primes, from the floor 2ab*max(a, b) + 1 =
# 101 up, against the sha256 prefix of the printed F that the dense solve
# (113 and 127: the degree scan) gave before the plane sections replaced
# it.  The plane sections solve for t^2 (the generators have even
# t-exponents), so e_max = 2ab / 2 = 10 and even at 101 a plane section has
# the 74 level-0 points: every prime here peels, 101 to 107 in two draw
# rounds.
@pytest.mark.parametrize("p, digest", [
    (101, "a7695b243556"), (103, "a78c73072180"), (107, "068ffc06fc5c"),
    (113, "bc15c257b239"), (127, "e732e3190ace"), (211, "2d15df539c4b"),
    (1009, "6f703eeb04fd"), (65521, "6f703eeb04fd")])
def test_worked_surface_over_small_primes(p, digest, example_oracle,
                                          monkeypatch):
    inp = SurfaceInput.from_strings(2, 5, EXAMPLE_GENERATORS, FieldConfig(p))
    calls = _count_kernels(monkeypatch)
    got = implicit_by_elimination(inp)
    assert hashlib.sha256(xpoly_to_str(got.f).encode()).hexdigest()[:12] == \
        digest
    assert got.kernel_dims == example_oracle.kernel_dims
    assert calls == [(74, 66)]
    if p > 401:
        # the integer equation, reduced: coefficients lifted from (-P/2, P/2)
        assert got.f == XPoly(p, {m: c - P if c > P // 2 else c
                                  for m, c in example_oracle.f.terms.items()})


# ---------------------------------------------------------------------------
# the determinant certificate


def test_certificate_frozen(example_analysis, example_strand,
                            example_oracle, field):
    cert = verify_implicitization(example_strand, example_oracle,
                                  example_analysis.point_transform, field)
    assert cert == DetCertificate(c=P - 1, exponent=2, n_points=40,
                                  mode="interpolate", blocks=(10, 10))


def test_a_generic_d1_strand_is_one_block():
    inst = generate(GenSpec("dim2", 3, 2, 1), index=0, seed=0)
    cert = verify_implicitization(
        build_strand(inst.case), implicit_by_elimination(inst.input),
        inst.analysis.point_transform, inst.input.field)
    assert cert.exponent == 1 and cert.blocks == (12,)


def test_swapping_rows_of_two_blocks_negates_c(example_analysis,
                                               example_strand,
                                               example_oracle, field):
    (rows0, _), (rows1, _) = oracle._blocks(example_strand.tensor % P)
    tensor = example_strand.tensor.copy()
    tensor[[rows0[0], rows1[0]]] = tensor[[rows1[0], rows0[0]]]
    cert = verify_implicitization(
        dataclasses.replace(example_strand, tensor=tensor), example_oracle,
        example_analysis.point_transform, field)
    assert cert.blocks == (10, 10)
    assert cert.c == P - (P - 1)


def test_certificate_rejects_a_zero_row(example_analysis, example_strand,
                                        example_oracle, field):
    tensor = example_strand.tensor.copy()
    tensor[3] = 0
    with pytest.raises(CertificateError,
                       match="component .* determinant is zero"):
        verify_implicitization(
            dataclasses.replace(example_strand, tensor=tensor),
            example_oracle, example_analysis.point_transform, field)


def test_certificate_rejects_a_block_the_degree_does_not_divide(
        example_analysis, example_strand, example_oracle, field):
    # 4 divides the strand size 20 but not the block size 10
    quartic = dataclasses.replace(
        example_oracle, degree=4, f=XPoly(P, {(4, 0, 0, 0): 1}))
    with pytest.raises(CertificateError,
                       match="does not divide the block size 10"):
        verify_implicitization(example_strand, quartic,
                               example_analysis.point_transform, field)


def test_certificate_rejects_a_changed_coefficient_in_the_second_block(
        example_analysis, example_strand, example_oracle, field):
    _, (rows, cols) = oracle._blocks(example_strand.tensor % P)
    tensor = example_strand.tensor % P
    block = tensor[np.ix_(rows, cols)]
    r, c, k = np.argwhere((block != 0) & (block != P - 1))[0]
    tensor[rows[r], cols[c], k] += 1
    with pytest.raises(CertificateError, match="block 1"):
        verify_implicitization(
            dataclasses.replace(example_strand, tensor=tensor),
            example_oracle, example_analysis.point_transform, field)


def test_certificate_interpolate_mode(example_analysis, example_strand,
                                      example_oracle, field):
    cert = verify_implicitization(example_strand, example_oracle,
                                  example_analysis.point_transform, field)
    assert cert.exponent == 2
    assert cert.c == P - 1
    assert cert.mode == "interpolate"
    # det = c * F^2 as polynomials (transition is the identity here)
    f_t = linear_substitute(example_oracle.f,
                            example_analysis.point_transform)
    assert f_t == example_oracle.f
    assert reconstruct_det(example_strand) == (f_t * f_t).scale(cert.c)


@pytest.mark.parametrize("degree", [2, 4, 12])
def test_principal_lattice_is_unisolvent(degree):
    pts = _principal_lattice(degree)
    n = math.comb(degree + 3, 3)
    assert pts.shape == (n, 4)
    assert (pts[:, 0] == 1).all() and (pts[:, 1:].sum(axis=1) <= degree).all()
    exps = [(i, j, k) for i in range(degree + 1)
            for j in range(degree + 1 - i) for k in range(degree + 1 - i - j)]
    vander = np.array([[pow(int(y1), i, P) * pow(int(y2), j, P)
                        * pow(int(y3), k, P) % P for i, j, k in exps]
                       for _, y1, y2, y3 in pts], dtype=np.int64)
    assert linalg.rank(vander, P) == n


@pytest.mark.parametrize("p", [P, 65521])
@pytest.mark.parametrize("degree, size", [(0, 3), (1, 4), (6, 6), (5, 12)])
def test_lattice_values_are_the_form_at_the_lattice_points(degree, size, p):
    rng = random.Random(degree * 100 + size)
    mons = monomials_of_degree(degree)
    for n_terms in sorted({1, len(mons) // 3 + 1, len(mons)}):
        f = XPoly(p, {m: rng.randrange(1, p)
                      for m in rng.sample(mons, n_terms)})
        lattice = _principal_lattice(size)
        got = _lattice_values(f.coeff_cube(degree), size, p)
        assert got.tolist() == eval_rows(f, lattice).tolist()


@pytest.fixture(scope="module")
def moved_instance():
    """A generated (2,3) surface whose point transform is not the identity,
    with its strand and oracle equation."""
    inst = generate(GenSpec("dim3", 2, 3, 2, (1,)), index=0, seed=0)
    transform = inst.analysis.point_transform
    assert (transform % P != np.eye(4, dtype=np.int64)).sum() > 4
    return (build_strand(inst.case), implicit_by_elimination(inst.input),
            transform, inst.input.field)


def test_certificate_in_moved_coordinates_is_the_original_identity(
        moved_instance):
    strand, orc, transform, field = moved_instance
    cert = verify_implicitization(strand, orc, transform, field)
    assert cert.exponent * orc.degree == strand.size
    # det M(y) = c F(T y)^d at random points y of the original coordinates
    rng = random.Random(8)
    for _ in range(5):
        y = np.array([rng.randrange(P) for _ in range(4)], dtype=np.int64)
        f_ty = orc.f.eval(linalg.matmul_mod(transform, y[:, None], P)[:, 0])
        assert strand.det_at(y) == cert.c * pow(f_ty, cert.exponent, P) % P


def test_certificate_in_moved_coordinates_rejects_a_changed_strand(
        moved_instance):
    strand, orc, transform, field = moved_instance
    # one nonzero coefficient of one entry changed
    tensor = strand.tensor.copy()
    r, c, k = np.argwhere(tensor % P)[len(np.argwhere(tensor % P)) // 2]
    tensor[r, c, k] = (tensor[r, c, k] + 1) % P
    with pytest.raises(CertificateError):
        verify_implicitization(dataclasses.replace(strand, tensor=tensor),
                               orc, transform, field)
    # two equal columns: the determinant is identically zero
    tensor = strand.tensor.copy()
    tensor[:, 1] = tensor[:, 0]
    with pytest.raises(CertificateError):
        verify_implicitization(dataclasses.replace(strand, tensor=tensor),
                               orc, transform, field)


def test_certificate_rejects_a_singular_transform(moved_instance):
    strand, orc, transform, field = moved_instance
    singular = transform.copy()
    singular[3] = (singular[1] + 5 * singular[2]) % P
    with pytest.raises(CertificateError, match="singular"):
        verify_implicitization(strand, orc, singular, field)
    # singular mod p only: the rows are independent over the integers
    singular = np.eye(4, dtype=np.int64)
    singular[3, 3] = P
    with pytest.raises(CertificateError, match="singular"):
        verify_implicitization(strand, orc, singular, field)


def _newton(node: tuple[int, int, int], degree: int, y) -> int:
    """y0^(D-i-j-k) prod_{m<i}(y1 - m y0) prod_{m<j}(y2 - m y0) ... mod P.

    On the principal lattice it is nonzero exactly at the points (1, i', j',
    k') with i' >= i, j' >= j and k' >= k.
    """
    y0 = int(y[0])
    acc = pow(y0, degree - sum(node), P)
    for e, yk in zip(node, y[1:]):
        for m in range(e):
            acc = acc * (int(yk) - m * y0) % P
    return acc


@pytest.mark.parametrize("node", [(10, 0, 0), (0, 0, 10), (3, 4, 3),
                                  (2, 3, 4)])
def test_interpolate_catches_a_perturbation_at_lattice_points(
        node, example_analysis, example_strand, example_oracle, field,
        monkeypatch):
    # the worked strand is two blocks of size 10; only the first block's
    # determinant is perturbed, on its own degree-10 lattice
    original = Strand.det_at_many
    sizes = []

    def perturbed(self, points):
        out = original(self, points)
        sizes.append(self.size)
        if len(sizes) > 1:
            return out
        pts = np.asarray(points, dtype=np.int64) % P
        for r, y in enumerate(pts):
            if y[0] == 1 and (y <= self.size).all():
                out[r] = (out[r] + _newton(node, self.size, y)) % P
        return out

    monkeypatch.setattr(Strand, "det_at_many", perturbed)
    n_bad = math.comb(10 - sum(node) + 3, 3)
    # the random pre-check passes (it would report "of 40 sample points");
    # only the lattice sees the perturbation
    with pytest.raises(CertificateError,
                       match=f"block 0: .* fails at {n_bad} of 286 principal "
                             "lattice"):
        verify_implicitization(example_strand, example_oracle,
                               example_analysis.point_transform, field)
    assert sizes == [10]


@pytest.mark.parametrize("p", [3, 19])
def test_interpolate_refuses_primes_not_above_the_strand_size(
        p, example_analysis, example_strand, example_oracle):
    with pytest.raises(ValueError, match="needs p > 20"):
        verify_implicitization(example_strand, example_oracle,
                               example_analysis.point_transform,
                               FieldConfig(p))


def test_certificate_rejects_corrupted_syzygies(example_case,
                                                example_analysis,
                                                example_oracle, field):
    rng = random.Random(1234)
    bad = mutate_case(example_case, rng)
    strand = build_strand(bad)
    with pytest.raises(CertificateError):
        verify_implicitization(strand, example_oracle,
                               example_analysis.point_transform, field)


def test_certificate_rejects_wrong_transform(example_strand, example_oracle,
                                             field):
    # a random wrong coordinate change must not certify
    wrong = np.array([[1, 2, 3, 4], [0, 1, 5, 6], [0, 0, 1, 7], [0, 0, 0, 1]],
                     dtype=np.int64)
    with pytest.raises(CertificateError):
        verify_implicitization(example_strand, example_oracle, wrong, field)


# ---------------------------------------------------------------------------
# basepoint screen

RATIONAL_BASEPOINT_GENERATORS = ["s^2*u^2", "s*t*u^2", "t^2*u^2",
                                 "s^2*u*v + t^2*u*v"]


def extension_field_generators():
    """Bidegree (2, 3): a common irreducible quadratic factor u^2 - 3 v^2
    (3 is a non-residue)."""
    return [poly_to_str(parse_poly(cof, P) * parse_poly("u^2 - 3*v^2", P))
            for cof in ["s^2*u", "s^2*v", "s*t*u", "t^2*v"]]


def undetermined_generators():
    """Bidegree (2, 2): common zeros exist only at ((w : 1), (w' : 1)) with
    w^2 = w'^2 = 3, so the chart gcds are powers of irreducible quadratics
    with no F_p roots, and the basepoints lie over F_p(sqrt 3)."""
    gens = []
    for B, C in zip(["u^2", "u*v", "v^2", "u^2 + u*v"],
                    ["s^2", "s*t", "t^2", "t^2 + s*t"]):
        f = (parse_poly(B, P) * parse_poly("s^2 - 3*t^2", P)
             + parse_poly(C, P) * parse_poly("u^2 - 3*v^2", P))
        gens.append(poly_to_str(f))
    return gens


def test_basepoints_free_on_example(example_input):
    rep = basepoint_check(example_input)
    assert rep.status == "free"
    assert rep.g_uv.degree == 0 and rep.g_st.degree == 0


def test_basepoints_found_with_rational_witness(field):
    # all four generators vanish at (s, t, u, v) = (1, 0, 0, 1)
    inp = SurfaceInput.from_strings(2, 2, RATIONAL_BASEPOINT_GENERATORS,
                                    field)
    assert all(g.eval((1, 0, 0, 1)) == 0 for g in inp.gens)
    rep = basepoint_check(inp)
    assert rep.status == "basepoint"
    assert "do not span bidegree (5, 3)" in rep.detail


def test_basepoints_found_in_extension_field(field):
    assert pow(3, (P - 1) // 2, P) == P - 1
    inp = SurfaceInput.from_strings(2, 3, extension_field_generators(), field)
    rep = basepoint_check(inp)
    assert rep.status == "basepoint"
    assert "do not span bidegree (5, 5)" in rep.detail


def test_basepoints_undetermined(field):
    # its common zeros lie over F_p(sqrt 3) and not over F_p
    inp = SurfaceInput.from_strings(2, 2, undetermined_generators(), field)
    rep = basepoint_check(inp)
    assert rep.status == "basepoint"
    assert "do not span bidegree (5, 3)" in rep.detail
    assert rep.g_uv.degree == 4
    assert rep.g_st.degree == 4


# Bidegree (1, 2): at (s : t) = (1 : 0) the generators are (u - v)(u - 2v),
# (u - v)(u - 3v), (u - 2v)(u - 3v) and 0, so every pair shares a root, the
# uv-chart gcd has degree 1, and still no root is common to all four.
PAIRWISE_ROOT_GENERATORS = [
    "s*u^2 - 3*s*u*v + 2*s*v^2 + 5*t*u^2 + 7*t*u*v + 11*t*v^2",
    "s*u^2 - 4*s*u*v + 3*s*v^2 + 13*t*u^2 + 2*t*u*v + 3*t*v^2",
    "s*u^2 - 5*s*u*v + 6*s*v^2 + 17*t*u^2 + 19*t*u*v + 23*t*v^2",
    "29*t*u^2 + 31*t*u*v + 37*t*v^2",
]


def test_pairwise_shared_roots_without_a_common_one_are_free(field):
    inp = SurfaceInput.from_strings(1, 2, PAIRWISE_ROOT_GENERATORS, field)
    rep = basepoint_check(inp)
    assert rep.g_uv.degree == 1
    assert rep.status == "free"
    assert rep.detail == "the generators' multiples span bidegree (2, 3)"


def gcd_of_all_six_resultants(inp):
    acc = UniHomPoly.zero(P, 0)
    for i, j in combinations(range(4), 2):
        acc = uni_gcd(acc, oracle.resultant_uv(
            inp.gens[i], inp.gens[j], (inp.a, inp.b), (inp.a, inp.b), P))
    return acc


@pytest.fixture(scope="module")
def screen_inputs(field, example_input, segre_input):
    planted = generate(GenSpec("dim2", 2, 3, 2, None), index=0, seed=0).input
    return {
        "worked": example_input,
        "segre": segre_input,
        "rational-basepoint": SurfaceInput.from_strings(
            2, 2, RATIONAL_BASEPOINT_GENERATORS, field),
        "extension-field": SurfaceInput.from_strings(
            2, 3, extension_field_generators(), field),
        "undetermined": SurfaceInput.from_strings(
            2, 2, undetermined_generators(), field),
        "pairwise-roots": SurfaceInput.from_strings(
            1, 2, PAIRWISE_ROOT_GENERATORS, field),
        # the dim2 plant draws g0 = h1 * w and g1 = -h0 * w for one w of
        # bidegree (a, b - n), so Res(g0, g1) vanishes on both charts
        "planted-dim2": planted,
    }


@pytest.mark.parametrize("mirror", [False, True], ids=["uv", "st"])
def test_resultant_gcd_stops_at_the_gcd_of_all_six(screen_inputs, mirror):
    for name, inp in screen_inputs.items():
        if mirror:
            inp = inp.mirror()
        assert oracle._resultant_gcd(inp) == gcd_of_all_six_resultants(inp), \
            name


def _random_form(rng, p, c, d):
    return BiPoly(p, {(c - i, i, d - k, k): rng.randrange(p)
                      for i in range(c + 1) for k in range(d + 1)})


@st.composite
def screen_cases(draw):
    """(input, status): a planted rational basepoint, a planted basepoint
    over F_p(sqrt 3), or random generators whose resultant gcds prove them
    free.  Linearly dependent draws are skipped."""
    kind = draw(st.sampled_from(["rational", "extension", "random"]))
    a = draw(st.integers(1, 3))
    b = draw(st.integers(2 if kind == "extension" else 1, 3))
    # 3 is a non-residue mod 101 and mod 2^31 - 1, a residue mod 65521
    p = draw(st.sampled_from([101, P] if kind == "extension"
                             else [101, 65521, P]))
    rng = random.Random(draw(st.integers(0, 2 ** 32 - 1)))
    if kind == "rational":
        s0, t0, u0, v0 = (rng.randrange(p) for _ in range(4))
        assume((s0, t0) != (0, 0) and (u0, v0) != (0, 0))
        l1 = BiPoly(p, {(0, 1, 0, 0): s0, (1, 0, 0, 0): -t0})
        l2 = BiPoly(p, {(0, 0, 0, 1): u0, (0, 0, 1, 0): -v0})
        gens = [l1 * _random_form(rng, p, a - 1, b)
                + l2 * _random_form(rng, p, a, b - 1) for _ in range(4)]
    elif kind == "extension":
        quadric = parse_poly("u^2 - 3*v^2", p)
        gens = [_random_form(rng, p, a, b - 2) * quadric for _ in range(4)]
    else:
        gens = [_random_form(rng, p, a, b) for _ in range(4)]
    try:
        inp = SurfaceInput(a, b, tuple(gens), FieldConfig(p))
    except HypothesisError:   # a zero generator or a linear dependence
        assume(False)
    if kind != "random":
        return inp, "basepoint"
    # constant resultant gcds on both charts prove the input free
    assume(all(g.degree == 0 and not g.is_zero for g in
               (oracle._resultant_gcd(inp), oracle._resultant_gcd(inp.mirror()))))
    return inp, "free"


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(screen_cases())
def test_rank_test_agrees_with_planted_basepoints(case):
    inp, status = case
    for chart in (inp, inp.mirror()):
        assert oracle._spans_bidegree(chart) == (status == "free")
        assert basepoint_check(chart).status == status


def test_planted_dim2_pair_has_a_zero_resultant(screen_inputs):
    inp = screen_inputs["planted-dim2"]
    for chart in (inp, inp.mirror()):
        deg = (chart.a, chart.b)
        assert oracle.resultant_uv(chart.gens[0], chart.gens[1], deg, deg,
                                   P).is_zero
    assert basepoint_check(inp).status == "free"


def test_screen_takes_a_prefix_of_the_resultants_on_the_worked_surface(
        example_input, monkeypatch):
    calls = []
    resultant_uv = oracle.resultant_uv

    def counted(*args):
        calls.append(args)
        return resultant_uv(*args)

    monkeypatch.setattr(oracle, "resultant_uv", counted)
    assert oracle._resultant_gcd(example_input).coeffs == (1,)
    assert len(calls) == 3
    assert oracle._resultant_gcd(example_input.mirror()).coeffs == (1,)
    assert len(calls) == 3 + 5
    assert basepoint_check(example_input).status == "free"
    assert len(calls) == 2 * (3 + 5)


# ---------------------------------------------------------------------------
# end-to-end driver


def test_implicitize_full_pipeline(example_input):
    result = implicitize(example_input)
    assert result.basepoints is not None
    assert result.basepoints.status == "free"
    assert result.oracle.degree == 10
    assert result.certificate.exponent == 2
    assert set(result.timings) == {"basepoints", "analysis", "strand",
                                   "oracle", "certificate"}


def test_implicitize_rejects_basepoints(field):
    inp = SurfaceInput.from_strings(2, 2, RATIONAL_BASEPOINT_GENERATORS,
                                    field)
    with pytest.raises(HypothesisError):
        implicitize(inp)
    # past the screen, the stages defer detection to the certificate, which
    # sees that the strand determinant is not a power of the quadric the
    # image degenerates onto
    va = analyze(inp)
    strand = build_strand(run_case(va))
    with pytest.raises(CertificateError):
        verify_implicitization(strand, implicit_by_elimination(inp),
                               va.point_transform, field)


def test_implicitize_screens_before_analysis(field, monkeypatch):
    def analysis_reached(*args, **kwargs):
        raise AssertionError("analyze ran before the basepoint screen")

    monkeypatch.setattr(oracle, "analyze", analysis_reached)
    inp = SurfaceInput.from_strings(2, 2, RATIONAL_BASEPOINT_GENERATORS,
                                    field)
    with pytest.raises(HypothesisError, match="basepoint"):
        implicitize(inp)


def test_implicitize_checks_the_prime_floor_first(monkeypatch):
    # (2, 5) needs p >= 101; the screen never runs below the floor
    monkeypatch.setattr(oracle, "basepoint_check", None)
    inp = SurfaceInput.from_strings(2, 5, EXAMPLE_GENERATORS, FieldConfig(97))
    with pytest.raises(ValueError, match="below the floor 101"):
        implicitize(inp)
