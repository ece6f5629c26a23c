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
import planes_ref
from helpers import (bench_jobs, compose_quadratic, mutate_case, spy_blocks,
                     spy_det_points, spy_peel, spy_row_identity, spy_section,
                     spy_vanishes_at, with_transition)
from planes_ref import implicit_by_elimination as reference
from tensurf import linalg, oracle, planes
from tensurf.bipoly import (BiPoly, CertificateError, DEFAULT_PRIME,
                            FieldConfig, HypothesisError, parse_poly,
                            poly_to_str)
from tensurf.oracle import (DetCertificate, basepoint_check,
                            implicit_by_elimination, implicitize,
                            verify_implicitization)
from tensurf.bipoly import uni_gcd
from tensurf.cases import run_case
from tensurf.gen import GenSpec, generate
from tensurf.strand import Strand, build_strand, reconstruct_det
from tensurf.syzygy import SurfaceInput, analyze
from tensurf.xpoly import (XPoly, eval_matrix, lattice_form, lattice_values,
                           monomials_of_degree, parse_xpoly, principal_lattice)
from xpoly_ref import (coeff_vector, eval_rows, from_coeff_vector,
                       vanishes_on_map)

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
    orc = reference(segre_input)
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
        reference(inp)


# ---------------------------------------------------------------------------
# the plane sections, the degree they read off and the exact check there:
# the strandless reference oracle of planes_ref


def _unhinted(monkeypatch, inp):
    """The reference oracle with its plane section switched off: the plain
    scan."""
    with monkeypatch.context() as m:
        m.setattr(planes_ref, "section", lambda inp, gen_grids: None)
        return reference(inp)


def _count_kernels(monkeypatch) -> list:
    calls = []
    original = linalg.kernel_basis

    def counting(mat, p):
        calls.append(np.shape(mat))
        return original(mat, p)

    monkeypatch.setattr(linalg, "kernel_basis", counting)
    return calls


def _peeled_degree(inp):
    e = planes.section(inp, list(inp.grids))
    assert planes_ref.section(inp, list(inp.grids)).e == e
    return e


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
    got = reference(example_input)
    assert got == want
    assert got.grid_shape == (21, 51)
    # one kernel, on the C(12, 2) plane monomials of degree 10 at level 0,
    # instead of one kernel per degree; the other levels are solves
    assert calls == [(math.comb(12, 2) + 8, math.comb(12, 2))]


def test_hinted_oracle_matches_the_scan_on_segre(segre_input, monkeypatch):
    want = _unhinted(monkeypatch, segre_input)
    assert reference(segre_input) == want
    assert want.kernel_dims == ((1, 0), (2, 1))


def test_failed_grid_check_falls_back_to_the_scan(example_input,
                                                  monkeypatch):
    want = _unhinted(monkeypatch, example_input)
    original = planes_ref._vanishes_at
    seen = []

    def perturbed(degree, points, cube, p):
        bumped = cube.copy()   # the x3^degree coefficient
        bumped[0, 0, degree] = (bumped[0, 0, degree] + 1) % p
        seen.append(degree)
        return original(degree, points, bumped, p)

    monkeypatch.setattr(planes_ref, "_vanishes_at", perturbed)
    calls = _count_kernels(monkeypatch)
    assert reference(example_input) == want
    assert seen == [10]
    assert len(calls) == 1 + 10


# The reference's exact grid check evaluates the candidate with
# planes_ref.eval_form on its coefficient cube; the check here multiplies the
# dense monomial evaluation matrix by the coefficient vector.


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
    quadric = from_coeff_vector(p, 2, rng.integers(0, p, 10))
    forms = [through * parse_xpoly("x0^2 + 3*x3^2", p), through * quadric,
             from_coeff_vector(p, 4, rng.integers(0, p, 35))]
    zeros = []
    for f in forms:
        cube = f.coeff_cube(4)
        want = _grid_reference(4, pts, coeff_vector(f, 4), p) == 0
        got = [planes_ref._vanishes_at(4, pts[i:i + 1], cube, p)
               for i in range(len(pts))]
        assert got == want.tolist()
        assert planes_ref._vanishes_at(4, pts[want], cube, p)
        assert not planes_ref._vanishes_at(4, pts, cube, p)
        zeros.append(int(want.sum()))
    assert zeros[0] >= 8 and zeros[1] >= 8


@pytest.mark.parametrize("name", ["worked", "segre"])
def test_grid_check_accepts_the_equation_and_rejects_a_change(
        name, example_input, example_oracle, segre_input):
    # worked: F of degree 10; Segre: the sparse quadric x0*x3 - x1*x2
    if name == "worked":
        inp, orc = example_input, example_oracle
    else:
        inp, orc = segre_input, reference(segre_input)
    e = orc.degree
    pts = _oracle_grid(inp, e)
    vec = coeff_vector(orc.f, e)
    assert planes_ref._vanishes_at(e, pts, orc.f.coeff_cube(e), P)
    assert not _grid_reference(e, pts, vec, P).any()
    # change a nonzero coefficient, then add a term
    for pos in (int(np.flatnonzero(vec)[-1]), int(np.flatnonzero(vec == 0)[0])):
        bumped = vec.copy()
        bumped[pos] = (bumped[pos] + 1) % P
        cube = from_coeff_vector(P, e, bumped).coeff_cube(e)
        assert not planes_ref._vanishes_at(e, pts, cube, P)
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
        reference(inp)
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
        reference(inp)


ODD_A_SPECS = [GenSpec("dim2", 3, 2, 1), GenSpec("dim3", 1, 5, 3, (1,)),
               GenSpec("dim2", 3, 3, 2)]


@pytest.mark.parametrize("spec", ODD_A_SPECS, ids=str)
def test_generic_odd_a_instances(spec, monkeypatch):
    # odd a: generic surfaces with d = 1, which the corpus does not cover.
    # The scan takes seconds at (3, 3) (degree 18), so there the certificate
    # alone checks the equation
    for index in range(5):
        inst = generate(spec, index=index, seed=0)
        got = reference(inst.input)
        if spec.a * spec.b < 9:
            assert got == _unhinted(monkeypatch, inst.input)
        assert got.degree == 2 * spec.a * spec.b
        assert got.kernel_dims[-1] == (got.degree, 1)
        cert = verify_implicitization(build_strand(inst.case), got,
                                      inst.input.field)
        assert cert.exponent == 1
        # implicitize reads F off the strand: the same result and certificate
        result = implicitize(inst.input)
        assert result.oracle == got and result.oracle.block is not None
        assert result.certificate == cert


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
    levels = []

    def spy_points(module, planes_and_needs):
        original = module._section_points

        def spy(grids, plane_rows, need, *args):
            levels.append(planes_and_needs(plane_rows, need))
            return original(grids, plane_rows, need, *args)

        monkeypatch.setattr(module, "_section_points", spy)

    # the section draws on one plane, the peel on the planes of levels 1..e
    spy_points(planes, lambda plane, need: (1, [need]))
    spy_points(planes_ref, lambda rows, need: (len(rows), need.tolist()))
    calls = _count_kernels(monkeypatch)
    assert reference(inp) == want
    # draws gave two roots, t and 1/t, to be kept as one point
    cols = np.concatenate(draws)
    assert len(set(cols.tolist())) < len(cols)
    # d = 2: the level-0 kernel at e_max = 2ab = 8 is G_0 times the C(6, 2)
    # quartics; degrees 1 and 2 have none, and at e = 4 it is a line
    assert calls == [(math.comb(10, 2) + 8, math.comb(10, 2)),
                     (math.comb(3, 2) + 8, math.comb(3, 2)),
                     (math.comb(4, 2) + 8, math.comb(4, 2)),
                     (math.comb(6, 2) + 8, math.comb(6, 2))]
    # points for the level-0 plane first, for e_max; for the planes of
    # levels 1..e only once e = 4 is known
    assert levels == [(1, [math.comb(10, 2) + 8]),
                      (5, [0] + [math.comb(6 - k, 2) + 8
                                 for k in range(1, 5)])]


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
    assert reference(example_input) == example_oracle
    assert calls == [(74, 66)]


def test_peel_drops_a_level_on_an_earlier_plane_to_the_scan(
        example_input, monkeypatch):
    # H_2 = H_0: every level-2 point lies on an earlier plane, so the peel
    # gives up after the level-0 kernel and the scan answers
    want = _unhinted(monkeypatch, example_input)
    section_points = planes_ref._section_points

    def same_plane(grids, plane_rows, *args):   # the draw for levels 1..e
        plane_rows[2] = plane_rows[0] * 3 % P
        return section_points(grids, plane_rows, *args)

    monkeypatch.setattr(planes_ref, "_section_points", same_plane)
    calls = _count_kernels(monkeypatch)
    assert reference(example_input) == want
    assert len(calls) == 1 + 10


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

    vanishes_at = planes_ref._vanishes_at
    proofs = []

    def proof(*args):
        proofs.append(vanishes_at(*args))
        return proofs[-1]

    monkeypatch.setattr(linalg, "solve_particular", wrong_g)
    monkeypatch.setattr(planes_ref, "_vanishes_at", proof)
    calls = _count_kernels(monkeypatch)
    assert reference(example_input) == want
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
    got = reference(inp)
    assert hashlib.sha256(poly_to_str(got.f).encode()).hexdigest()[:12] == \
        digest
    assert got.kernel_dims == example_oracle.kernel_dims
    assert calls == [(74, 66)]
    if p > 401:
        # the integer equation, reduced: coefficients lifted from (-P/2, P/2)
        assert got.f == XPoly(p, {m: c - P if c > P // 2 else c
                                  for m, c in example_oracle.f.terms.items()})


# ---------------------------------------------------------------------------
# F read off the strand's own block determinant


def _prime_above(n: int) -> int:
    n += 1
    while any(n % q == 0 for q in range(2, math.isqrt(n) + 1)):
        n += 1
    return n


# The smallest prime above the floor 2ab*max(a, b) + 1 = 37 of bidegree
# (2, 3): k! stays invertible for every k <= 20 < 41.
@pytest.mark.parametrize("p", [P, _prime_above(37)])
@pytest.mark.parametrize("degree", [0, 1, 2, 6, 12, 20])
def test_lattice_form_round_trips_the_lattice_values(degree, p):
    rng = random.Random(degree * 1000 + p % 1000)
    mons = monomials_of_degree(degree)
    full = (degree,) * 3
    for n_terms in sorted({1, len(mons) // 3 + 1, len(mons)}):
        f = XPoly(p, {m: rng.randrange(1, p)
                      for m in rng.sample(mons, n_terms)})
        values = eval_rows(f, principal_lattice(degree, full))
        got = lattice_form(values, degree, p, full)
        assert got.tolist() == f.coeff_cube(degree).tolist()
    zeros = np.zeros(math.comb(degree + 3, 3), dtype=np.int64)
    assert not lattice_form(zeros, degree, p, full).any()


@st.composite
def boxed_forms(draw):
    """A degree n <= 12, a box (b1, b2, b3) in {0..n}^3 and the exponents
    (i, j, k) of a random support inside it, i + j + k <= n."""
    n = draw(st.integers(0, 12))
    box = tuple(draw(st.integers(0, n)) for _ in range(3))
    inside = [(i, j, k) for i in range(box[0] + 1) for j in range(box[1] + 1)
              for k in range(box[2] + 1) if i + j + k <= n]
    support = draw(st.lists(st.sampled_from(inside), max_size=len(inside),
                            unique=True))
    return n, box, support, draw(st.randoms(use_true_random=False))


@pytest.mark.parametrize("p", [P, _prime_above(37)])
@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(case=boxed_forms())
def test_sized_lattice_round_trips_forms_inside_the_box(p, case):
    n, box, support, rng = case
    f = XPoly(p, {(n - sum(m), *m): rng.randrange(1, p) for m in support})
    lattice = principal_lattice(n, box)
    values = eval_rows(f, lattice)
    cube = f.coeff_cube(n)
    assert lattice_values(cube, n, p, box).tolist() == values.tolist()
    assert lattice_form(values, n, p, box).tolist() == cube.tolist()


def _holds(inp, strand, cols) -> bool:
    """Whether the row identity holds on every column of ``cols``."""
    return bool(oracle._row_identity(inp, strand)[cols].all())


def _read_off(inp, strand, e):
    """The oracle's read-off at e, with the row-identity mask it takes."""
    return oracle._read_off(strand, e, oracle._row_identity(inp, strand), {})


def _rank_degree(inp, strand):
    """The oracle's rank step, with the row-identity mask it takes."""
    return oracle._rank_degree(inp, strand, oracle._row_identity(inp, strand))


@pytest.fixture(scope="module")
def generic_d1():
    """A generated odd-a (3, 2) surface: d = 1, one strand block of 12."""
    return generate(GenSpec("dim2", 3, 2, 1), index=0, seed=0)


def test_a_zero_block_determinant_raises_a_certificate_error(generic_d1,
                                                            monkeypatch):
    # two equal columns keep the strand one block of size e = 12 and make
    # its determinant zero: no block to read F off, so the oracle rejects
    # the strand, naming e and the block sizes
    strand = build_strand(generic_d1.case)
    tensor = strand.tensor.copy()
    tensor[:, 1] = tensor[:, 0]
    zero = dataclasses.replace(strand, tensor=tensor)
    assert [len(r) for r, _ in zero.blocks] == [12]
    assert _read_off(generic_d1.input, zero, 12) is None
    with pytest.raises(CertificateError,
                       match=r"e = 12 .*\(block sizes \[12\]\)"):
        implicit_by_elimination(generic_d1.input, zero)


def test_a_block_failing_the_row_identity_raises_a_certificate_error(
        generic_d1, monkeypatch):
    # one changed entry: the row identity rejects the block before any of
    # its determinants is taken, and with it the rank step; the section
    # finds e = 12 and no block keeps the identity
    inst = generic_d1
    tensor = build_strand(inst.case).tensor % P
    r, c, k = np.argwhere(tensor)[0]
    tensor[r, c, k] = (tensor[r, c, k] + 1) % P
    changed = dataclasses.replace(build_strand(inst.case), tensor=tensor)
    assert _read_off(inst.input, changed, 12) is None
    assert _rank_degree(inst.input, changed) is None
    sections = spy_section(monkeypatch)
    dets = spy_det_points(monkeypatch)
    with pytest.raises(CertificateError, match=r"e = 12 "):
        implicit_by_elimination(inst.input, changed)
    assert sections == [12] and dets == []


# The strand's row identity: the monomials of bidegree (2a - 1, b - 1)
# that index the strand's rows, times the strand at the generators, are
# zero, so its columns are syzygies of the generators.


@pytest.fixture(scope="module")
def moved_dim3():
    """A generated (2, 3) dim-3 surface whose change of generator basis is
    not the identity (blocks 6 + 6), with its strand built in the changed
    basis and in the input's."""
    inst = generate(GenSpec("dim3", 2, 3, 2, (1,)), index=0, seed=0)
    return (inst, build_strand(with_transition(inst.case, np.eye(4))),
            build_strand(inst.case))


def _identity_per_block(inp, case):
    strand = build_strand(case)
    return [_holds(inp, strand, cols) for _, cols in strand.blocks]


@pytest.mark.parametrize("workload", ["generic-d1", "exact-d2"])
def test_row_identity_holds_on_every_block_of_the_bench_jobs(workload,
                                                             tmp_path):
    jobs = bench_jobs(workload, tmp_path)
    for job in jobs:
        data = job.load()
        inp = SurfaceInput.from_strings(data["a"], data["b"],
                                        data["generators"],
                                        FieldConfig(data["prime"], seed=1))
        holds = _identity_per_block(inp, run_case(analyze(inp)))
        assert holds and all(holds), job.name
    assert len(jobs) == 4


def test_row_identity_holds_on_every_block_of_a_corpus_sample(corpus):
    for inst in corpus[::10]:
        holds = _identity_per_block(inst.input, inst.case)
        assert holds and all(holds)


def test_row_identity_fails_on_every_single_entry_change(moved_dim3):
    # any change of one coefficient inside B_0's columns, in B_0's rows or
    # not, on a zero or a nonzero entry: the stacked product changes by a
    # multiple of one generator times one monomial
    inst, _, moved = moved_dim3
    inp = inst.input
    (rows, cols), (other_rows, _) = moved.blocks
    assert _holds(inp, moved, cols)
    block = moved.tensor[np.ix_(rows, cols)]
    nonzero = [(rows[r], cols[c], k) for r, c, k in np.argwhere(block)[:3]]
    zero = [(rows[r], cols[c], k) for r, c, k in np.argwhere(block == 0)[:2]]
    changes = nonzero + zero + [(other_rows[0], cols[0], 0),
                                (other_rows[-1], cols[-1], 3)]
    for r, c, k in changes:
        tensor = moved.tensor.copy()
        tensor[r, c, k] = (tensor[r, c, k] + 1) % P
        changed = dataclasses.replace(moved, tensor=tensor)
        assert not _holds(inp, changed, cols), (r, c, k)


def test_row_identity_holds_in_f_coordinates_only(moved_dim3):
    # F's coordinates are the input generators': the cases' syzygies act on
    # the changed generators, so the strand built from them without the
    # transition breaks the identity with the input's generators, block by
    # block, and the strand built by build_strand keeps it
    inst, unmoved, strand = moved_dim3
    transition = inst.analysis.transition % P
    assert not np.array_equal(transition, np.eye(4, dtype=np.int64))
    assert [len(rows) for rows, _ in strand.blocks] == [6, 6]
    for _, cols in strand.blocks:
        assert _holds(inst.input, strand, cols)
        assert not _holds(inst.input, unmoved, cols)


def test_a_change_outside_the_read_off_block_keeps_the_read_off(
        moved_dim3, monkeypatch):
    # a changed entry of block 1 leaves B_0 and its row identity as they
    # are: the rank step, which needs the identity on every column, gives
    # way to the plane section, F is still read off B_0 at its degree, and
    # the certificate rejects block 1
    inst, _, strand = moved_dim3
    (_, cols0), (rows1, cols1) = strand.blocks
    tensor = strand.tensor % P
    block = tensor[np.ix_(rows1, cols1)]
    r, c, k = np.argwhere(block)[0]
    tensor[rows1[r], cols1[c], k] = (tensor[rows1[r], cols1[c], k] + 1) % P
    changed = dataclasses.replace(strand, tensor=tensor)
    assert _holds(inst.input, changed, cols0)
    assert not _holds(inst.input, changed, cols1)
    assert _rank_degree(inst.input, changed) is None
    sections = spy_section(monkeypatch)
    peels = spy_peel(monkeypatch)
    grid_proofs = spy_vanishes_at(monkeypatch)
    got = implicit_by_elimination(inst.input, changed)
    assert sections == [6] and peels == [] and grid_proofs == []
    assert got.block is not None
    assert got == reference(inst.input)
    with pytest.raises(CertificateError, match="block 1"):
        verify_implicitization(changed, got, inst.input.field)


def test_certificate_checks_the_read_off_block_on_coefficients(
        generic_d1, monkeypatch):
    # the block F was read off is not evaluated again: its interpolated
    # determinant must be c F coefficient by coefficient
    result = implicitize(generic_d1.input)
    args = (generic_d1.input.field,)
    original = Strand.det_at_many
    sizes = []

    def counted(self, points):
        sizes.append(self.size)
        return original(self, points)

    monkeypatch.setattr(Strand, "det_at_many", counted)
    assert verify_implicitization(result.strand, result.oracle,
                                  *args) == result.certificate
    assert sizes == []
    bumped = dataclasses.replace(
        result.oracle, f=result.oracle.f + XPoly(P, {(0, 0, 0, 12): 1}))
    with pytest.raises(CertificateError,
                       match=r"block 0: det = c \* F fails at 1 of 2197 "
                             "coefficients"):
        verify_implicitization(result.strand, bumped, *args)


def test_implicitize_reads_f_off_the_strand_without_peeling(
        generic_d1, example_input, monkeypatch):
    # d = 1 (one block of 12), the worked surface (d = 2, blocks 10 + 10)
    # and a d = 2 surface whose transition is not the identity: no
    # level beyond 0 is peeled, and the result is the one the peel gives
    inputs = [generic_d1.input, example_input,
              generate(GenSpec("dim3", 2, 3, 2, (1,)), index=0, seed=0).input]
    peels = spy_peel(monkeypatch)
    results = [implicitize(inp) for inp in inputs]
    assert peels == []
    assert [r.certificate.exponent for r in results] == [1, 2, 2]
    for inp, result in zip(inputs, results):
        assert result.oracle.block is not None
        assert result.oracle == reference(inp)
    assert peels == [12, 10, 6]


def test_implicitize_matches_the_oracle_on_a_corpus_sample(corpus,
                                                           monkeypatch):
    peels = spy_peel(monkeypatch)
    for inst in corpus[::10]:
        got = implicitize(inst.input)
        assert peels == []
        assert got.oracle == reference(inst.input)
        peels.clear()


def _spy_streams(monkeypatch):
    """(purpose, draws) for every random stream opened, in order; draws
    lists (population size, k) of each ``sample`` taken from it."""
    streams = []
    rng = FieldConfig.rng

    def spy(self, purpose):
        stream, draws = rng(self, purpose), []
        sample = stream.sample
        stream.sample = lambda population, k: (
            draws.append((len(population), k)) or sample(population, k))
        streams.append((purpose, draws))
        return stream

    monkeypatch.setattr(FieldConfig, "rng", spy)
    return streams


def test_the_read_off_draws_no_grid_node(generic_d1, example_input,
                                         monkeypatch):
    streams = _spy_streams(monkeypatch)
    for inp in (generic_d1.input, example_input):
        assert implicitize(inp).oracle.block is not None
    purposes = [purpose for purpose, _ in streams]
    assert "oracle-rank" in purposes and "oracle" not in purposes


def test_grid_nodes_are_drawn_on_first_use_as_before(corpus, monkeypatch):
    # the reference oracle (plane section, peel and grid proof) on
    # every fifth corpus instance: one "oracle" stream, sampled for the t
    # nodes and then the v nodes, as when both were drawn up front, and
    # the same F and kernel_dims: the sha256 prefix below was recorded
    # with the nodes drawn up front
    streams = _spy_streams(monkeypatch)
    digest = hashlib.sha256()
    for inst in corpus[::5]:
        inp, size = inst.input, 2 * inst.input.a * inst.input.b
        streams.clear()
        orc = reference(inp)
        p = inp.field.p
        assert [draws for purpose, draws in streams if purpose == "oracle"] \
            == [[(p, size * inp.a + 1), (p, size * inp.b + 1)]]
        digest.update(f"{poly_to_str(orc.f)}|{orc.kernel_dims}\n".encode())
    assert digest.hexdigest()[:12] == "b6ef14960c6c"


# ---------------------------------------------------------------------------
# the implicit degree from one exact rank of the strand


def _section_path(monkeypatch, inp):
    """``implicitize`` with the rank step forced to fail: the plane
    section finds e."""
    with monkeypatch.context() as m:
        m.setattr(oracle, "_rank_degree", lambda inp, strand, holds: None)
        return implicitize(inp)


def _assert_same_result(got, want):
    # F and kernel_dims (OracleResult equality) and the certificate's c
    assert got.oracle == want.oracle
    assert got.certificate.c == want.certificate.c


def _corank(inp, strand, point):
    """The corank of the strand at the image of one parameter point."""
    x = [g.eval(point) for g in inp.gens]
    return strand.size - linalg.rank(strand.eval_matrix_at(x), inp.field.p)


# the generated shapes of the perfbench workloads
BENCH_SPECS = [GenSpec("dim2", 3, 2, 1), GenSpec("dim2", 1, 5, 3),
               GenSpec("dim3", 1, 5, 3, (1,)), GenSpec("dim2", 2, 3, 2),
               GenSpec("dim3", 2, 5, 3, (1,)), GenSpec("dim4", 2, 5, 3, (1, 1))]


@pytest.mark.parametrize("spec", BENCH_SPECS + [None],
                         ids=[str(s) for s in BENCH_SPECS] + ["worked"])
def test_implicitize_takes_no_plane_section_on_the_bench_shapes(
        spec, example_input, monkeypatch):
    inp = (example_input if spec is None
           else generate(spec, index=0, seed=0).input)
    blocks = spy_blocks(monkeypatch)
    identities = spy_row_identity(monkeypatch)
    want = _section_path(monkeypatch, inp)
    sections = spy_section(monkeypatch)
    got = implicitize(inp)
    assert sections == []
    assert got.oracle.block is not None
    _assert_same_result(got, want)
    # the read-off and the certificate share one block decomposition, and
    # the rank step and the read-off one row-identity product, per run on
    # the section path and on the rank path alike
    assert blocks == identities == [got.strand.size] * 2


def test_the_rank_condition_holds_at_its_boundary(monkeypatch):
    # (2, 3), d = 2: corank r = 2 at a random image point, and r + 1 =
    # min(2a, b) = 3 is the largest r whose fibre points the forms of
    # bidegree (3, 2) still separate; so e = 12 / 2 comes from the rank
    inst = generate(GenSpec("dim2", 2, 3, 2), index=0, seed=0)
    strand = build_strand(inst.case)
    assert _corank(inst.input, strand, (1, 5, 1, 7)) == 2
    assert _rank_degree(inst.input, strand) == 6
    sections = spy_section(monkeypatch)
    assert implicit_by_elimination(inst.input, strand).degree == 6
    assert sections == []


# shapes whose rank condition fails, so the section finds e
SECTION_SPECS = [GenSpec("dim2", 2, 2, 1), GenSpec("dim2", 2, 1, 1),
                 GenSpec("dim2", 1, 1, 1)]


@pytest.mark.parametrize("spec", SECTION_SPECS, ids=str)
def test_small_shapes_beyond_the_rank_condition_take_the_section(
        spec, monkeypatch):
    # r + 1 > min(2a, b): the forms of bidegree (2a - 1, b - 1) need not
    # separate r + 1 fibre points, so the rank proves nothing
    inst = generate(spec, index=0, seed=0)
    strand = build_strand(inst.case)
    r = _corank(inst.input, strand, (1, 5, 1, 7))
    assert r + 1 > min(2 * spec.a, spec.b)
    assert _rank_degree(inst.input, strand) is None
    blocks = spy_blocks(monkeypatch)
    identities = spy_row_identity(monkeypatch)
    want = _section_path(monkeypatch, inst.input)
    sections = spy_section(monkeypatch)
    got = implicitize(inst.input)
    assert sections == [got.oracle.degree]
    _assert_same_result(got, want)
    assert blocks == identities == [got.strand.size] * 2


def _double_point_input(field):
    """A (2, 3) dim-2 input built as ``gen`` builds one, but with odd
    s-exponents, so d = 1, and in each form the coefficient of s^a u^b
    equal to that of t^a v^b: phi(1, 0, 1, 0) = phi(0, 1, 0, 1), a double
    point of the image."""
    rng = random.Random(3)

    def tied(c, d):
        terms = {(c - j, j, d - l, l): rng.randrange(1, P)
                 for j in range(c + 1) for l in range(d + 1)}
        terms[(0, c, 0, d)] = terms[(c, 0, d, 0)]
        return BiPoly(P, terms)

    g0, g1, h = tied(0, 2), tied(0, 2), tied(2, 1)
    return SurfaceInput(2, 3, (g1 * h, -(g0 * h), tied(2, 3), tied(2, 3)),
                        field)


class _Zeros(random.Random):
    def randrange(self, *args):
        return 0


def test_a_rank_drop_point_takes_the_section(field, monkeypatch):
    # at the double point the two preimages give corank 2 > d = 1: r
    # overstates d, no block has size 12 / 2 and the section finds e = 12
    inp = _double_point_input(field)
    assert ([g.eval((1, 0, 1, 0)) for g in inp.gens]
            == [g.eval((0, 1, 0, 1)) for g in inp.gens])
    want = _section_path(monkeypatch, inp)
    assert want.certificate.exponent == 1
    assert want.certificate.blocks == (12,)
    sections = spy_section(monkeypatch)
    _assert_same_result(implicitize(inp), want)
    assert sections == []
    rng = FieldConfig.rng
    monkeypatch.setattr(FieldConfig, "rng", lambda self, purpose: (
        _Zeros() if purpose == "oracle-rank" else rng(self, purpose)))
    assert _corank(inp, want.strand, (1, 0, 1, 0)) == 2
    assert _rank_degree(inp, want.strand) == 6
    # the one block has size 12 = 2 * 6, but det B = c F is no square:
    # its square root fails det B = c F^2 on the block's lattice
    assert _read_off(inp, want.strand, 6) is None
    dets = spy_det_points(monkeypatch)
    got = implicitize(inp)
    assert sections == [12] and got.oracle.block is not None
    _assert_same_result(got, want)
    # the section's read-off takes the block the rank's built, with its
    # lattice determinants, and the certificate checks it on coefficients:
    # one det_at_many per block
    assert len(dets) == len(got.strand.blocks) == 1


# ---------------------------------------------------------------------------
# the determinant certificate


def test_certificate_frozen(example_strand, example_oracle, field):
    cert = verify_implicitization(example_strand, example_oracle, field)
    assert cert == DetCertificate(c=P - 1, exponent=2, blocks=(10, 10))


def test_a_generic_d1_strand_is_one_block():
    inst = generate(GenSpec("dim2", 3, 2, 1), index=0, seed=0)
    cert = verify_implicitization(
        build_strand(inst.case), reference(inst.input),
        inst.input.field)
    assert cert.exponent == 1 and cert.blocks == (12,)


def test_swapping_rows_of_two_blocks_negates_c(example_strand,
                                               example_oracle, field):
    (rows0, _), (rows1, _) = example_strand.blocks
    tensor = example_strand.tensor.copy()
    tensor[[rows0[0], rows1[0]]] = tensor[[rows1[0], rows0[0]]]
    cert = verify_implicitization(
        dataclasses.replace(example_strand, tensor=tensor), example_oracle,
        field)
    assert cert.blocks == (10, 10)
    assert cert.c == P - (P - 1)


def test_certificate_rejects_a_zero_row(example_strand, example_oracle,
                                        field):
    tensor = example_strand.tensor.copy()
    tensor[3] = 0
    with pytest.raises(CertificateError,
                       match="component .* determinant is zero"):
        verify_implicitization(
            dataclasses.replace(example_strand, tensor=tensor),
            example_oracle, field)


def test_certificate_rejects_a_block_the_degree_does_not_divide(
        example_strand, example_oracle, field):
    # 4 divides the strand size 20 but not the block size 10
    quartic = dataclasses.replace(
        example_oracle, degree=4, f=XPoly(P, {(4, 0, 0, 0): 1}))
    with pytest.raises(CertificateError,
                       match="does not divide the block size 10"):
        verify_implicitization(example_strand, quartic, field)


def test_certificate_rejects_a_changed_coefficient_in_the_second_block(
        example_strand, example_oracle, field):
    _, (rows, cols) = example_strand.blocks
    tensor = example_strand.tensor % P
    block = tensor[np.ix_(rows, cols)]
    r, c, k = np.argwhere((block != 0) & (block != P - 1))[0]
    tensor[rows[r], cols[c], k] += 1
    with pytest.raises(CertificateError, match="block 1"):
        verify_implicitization(
            dataclasses.replace(example_strand, tensor=tensor),
            example_oracle, field)


def test_certificate_rejects_a_zero_determinant_outside_the_read_off_block(
        example_input, example_strand, field):
    # F is read off block 0; two equal columns inside block 1 keep the
    # blocks 10 + 10 and make det B_1 identically zero, which no nonzero
    # multiple of F matches on block 1's lattice
    orc = implicit_by_elimination(example_input, example_strand)
    assert orc.block is not None
    _, (_, cols1) = example_strand.blocks
    tensor = example_strand.tensor.copy()
    tensor[:, cols1[1]] = tensor[:, cols1[0]]
    changed = dataclasses.replace(example_strand, tensor=tensor)
    assert [len(r) for r, _ in changed.blocks] == [10, 10]
    with pytest.raises(CertificateError,
                       match=r"^block 1: det and F\^1 are never both nonzero"):
        verify_implicitization(changed, orc, field)


def test_a_zero_first_block_reads_f_off_the_next(example_input,
                                                 example_strand, field):
    # two equal columns inside block 0 make det B_0 identically zero: F is
    # read off block 1, the next block of a size e divides, and the
    # certificate then rejects block 0
    (_, cols0), (rows1, cols1) = example_strand.blocks
    tensor = example_strand.tensor.copy()
    tensor[:, cols0[1]] = tensor[:, cols0[0]]
    changed = dataclasses.replace(example_strand, tensor=tensor)
    assert [len(r) for r, _ in changed.blocks] == [10, 10]
    orc = implicit_by_elimination(example_input, changed)
    assert np.array_equal(orc.block[0], changed.block(rows1, cols1).tensor)
    assert orc == reference(example_input)
    with pytest.raises(CertificateError,
                       match=r"^block 0: det and F\^1 are never both nonzero"):
        verify_implicitization(changed, orc, field)


def _force_full_lattice(monkeypatch) -> None:
    """Every strand's det_box the whole simplex: the unsized lattices."""
    monkeypatch.setattr(Strand, "det_box", property(lambda s: (s.size,) * 3))


# The read-off's lattice points per bench shape: cut to the block's
# det_box, and on the full lattice, C(n + 3, 3).  dim4 blocks have every
# coordinate in every row and column, so they get no cut.  The (5, 7) job's
# full lattice takes about 3x as long as the sized one and is left out.
_READ_OFF_LATTICES = [
    (GenSpec("dim2", 3, 2, 1), 160, 455),
    (GenSpec("dim2", 1, 5, 3), 128, 286),
    (GenSpec("dim3", 1, 5, 3, (1,)), 202, 286),
    (GenSpec("dim2", 2, 3, 2), 45, 84),
    (GenSpec("dim3", 2, 5, 3, (1,)), 202, 286),
    (None, 284, 286),   # the worked (2, 5) surface
    (GenSpec("dim4", 2, 5, 3, (1, 1)), 286, 286),
    (GenSpec("dim3", 3, 5, 3, (1,)), 3685, 5456),
    (GenSpec("dim4", 4, 7, 4, (1, 1)), 4495, 4495),
    (GenSpec("dim3", 4, 9, 5, (2,)), 5863, 9139),
    (GenSpec("dim2", 5, 7, 4), 22491, None),
]


@pytest.mark.parametrize(
    "spec, sized, full", _READ_OFF_LATTICES,
    ids=[f"{s.kind}-{s.a}x{s.b}" if s else "worked-2x5"
         for s, _, _ in _READ_OFF_LATTICES])
def test_read_off_lattice_is_cut_to_the_determinant_box(spec, sized, full,
                                                        monkeypatch):
    inp = (SurfaceInput.from_strings(2, 5, EXAMPLE_GENERATORS,
                                     FieldConfig(seed=0)) if spec is None
           else generate(spec, index=0, seed=0).input)
    counts = spy_det_points(monkeypatch)
    res = implicitize(inp)
    # F is read off the first block; every block equals it, so the
    # certificate evaluates no further point
    assert res.oracle.block is not None and counts == [sized]
    if full is None:
        return
    _force_full_lattice(monkeypatch)
    counts.clear()
    unsized = implicitize(inp)
    assert counts == [full]
    # the same det B_0 cube, so the same F, kernel_dims, c and blocks
    assert np.array_equal(unsized.oracle.block[1], res.oracle.block[1])
    assert unsized.oracle == res.oracle
    assert unsized.certificate == res.certificate


# Compositions (helpers.compose_quadratic) have one block of size k deg F,
# k = 2 or 4, so F is the k-th root of its determinant, taken on the
# block's lattice cut to its det_box, which bounds F^k's degrees as well:
# the one determinant lattice of the run.  The certificate takes no
# second determinant of that block.
@pytest.mark.parametrize("spec, sized, full", [
    (GenSpec("dim2", 2, 7, 2), 3969, 32509),
    (GenSpec("dim3", 2, 5, 3, (1,)), 8281, 12341),
    (GenSpec("dim2", 1, 3, 1), 99, 455),
], ids=["dim2-2x7", "dim3-2x5", "dim2-1x3"])
def test_certificate_lattice_is_cut_to_both_sides_boxes(spec, sized, full,
                                                        monkeypatch):
    inp = compose_quadratic(generate(spec, index=0, seed=0).input)
    counts = spy_det_points(monkeypatch)
    sections = spy_section(monkeypatch)
    res = implicitize(inp)
    assert res.oracle.block is not None and counts == [sized]
    assert sections == []
    assert len(res.certificate.blocks) == 1
    counts.clear()
    assert verify_implicitization(res.strand, res.oracle,
                                  inp.field) == res.certificate
    assert counts == []
    _force_full_lattice(monkeypatch)
    unsized = implicitize(inp)
    assert counts == [full]
    assert unsized.oracle == res.oracle
    assert unsized.certificate == res.certificate


def test_the_root_shifts_to_a_lattice_point_where_det_b_is_nonzero(
        monkeypatch):
    # the generators moved projectively, g_i' = g0(P) g_i - g_i(P) g0, put
    # phi(P) = (g0(P), 0, 0, 0) on the image: F and det B vanish at
    # (1, 0, 0, 0), so h_0 = 0 there and the root is taken after a Taylor
    # shift to a lattice point where det B is not zero, and shifted back
    base = generate(GenSpec("dim2", 1, 3, 1), index=0, seed=0).input
    point = (1, 2, 1, 3)
    g0, *rest = base.gens
    assert g0.eval(point)
    moved = SurfaceInput(base.a, base.b, (g0, *(
        g.scale(g0.eval(point)) - g0.scale(g.eval(point)) for g in rest)),
        base.field)
    inp = compose_quadratic(moved)
    shifts = []
    shift_form = oracle.shift_form

    def spy(cube, z, p):
        shifts.append(tuple(int(x) for x in z))
        return shift_form(cube, z, p)

    monkeypatch.setattr(oracle, "shift_form", spy)
    res = implicitize(inp)
    assert res.oracle.f.eval((1, 0, 0, 0)) == 0
    assert res.oracle.block is not None and res.certificate.blocks == (12,)
    assert len(shifts) == 2 and any(shifts[0])
    assert shifts[1] == tuple(-x for x in shifts[0])
    want = reference(inp)
    assert res.oracle == want
    assert verify_implicitization(res.strand, want, inp.field) \
        == res.certificate


def test_certificate_draws_no_random_point(tmp_path, monkeypatch):
    # each block is proved on its own lattice or, the read-off block, on
    # its interpolated determinant: the "certificate" stream is never
    # drawn, neither on the bench jobs (every block is the read-off block)
    # nor on a composed job (one block of size 2 deg F, F its square root),
    # and with F read off a block no product-grid node is drawn either
    purposes = []
    original = FieldConfig.rng

    def spy(self, purpose):
        purposes.append(purpose)
        return original(self, purpose)

    monkeypatch.setattr(FieldConfig, "rng", spy)
    inputs = []
    for workload in ("generic-d1", "exact-d2"):
        for job in bench_jobs(workload, tmp_path / workload):
            data = job.load()
            inputs.append(SurfaceInput.from_strings(
                data["a"], data["b"], data["generators"],
                FieldConfig(data["prime"], seed=1)))
    base = generate(GenSpec("dim2", 1, 3, 1), index=0, seed=0).input
    inputs.append(compose_quadratic(base))
    results = [implicitize(inp) for inp in inputs]
    assert len(results) == 9
    assert results[-1].certificate.blocks == (12,)
    assert all(r.oracle.block is not None for r in results)
    assert "oracle-rank" in purposes
    assert "oracle" not in purposes and "certificate" not in purposes


def test_certificate_interpolate_mode(example_strand, example_oracle,
                                      field):
    cert = verify_implicitization(example_strand, example_oracle, field)
    assert cert.exponent == 2
    assert cert.c == P - 1
    # det = c * F^2 as polynomials
    f = example_oracle.f
    assert reconstruct_det(example_strand) == (f * f).scale(cert.c)


@pytest.mark.parametrize("degree", [2, 4, 12])
def test_principal_lattice_is_unisolvent(degree):
    # the full lattice, and cut to boxes: unisolvent for the forms whose
    # monomials lie in the box, in the same lexicographic order
    full = principal_lattice(degree, (degree,) * 3)
    assert full.shape == (math.comb(degree + 3, 3), 4)
    for box in [(degree,) * 3, (degree // 2, degree, 1),
                (0, degree, degree // 3), (1, 1, 1)]:
        pts = principal_lattice(degree, box)
        exps = [(i, j, k) for i in range(box[0] + 1)
                for j in range(min(box[1], degree - i) + 1)
                for k in range(min(box[2], degree - i - j) + 1)]
        assert pts[:, 1:].tolist() == [list(e) for e in exps]
        assert (pts[:, 0] == 1).all()
        vander = np.array([[pow(int(y1), i, P) * pow(int(y2), j, P)
                            * pow(int(y3), k, P) % P for i, j, k in exps]
                           for _, y1, y2, y3 in pts], dtype=np.int64)
        assert linalg.rank(vander, P) == len(exps)


@pytest.mark.parametrize("p", [P, 65521])
@pytest.mark.parametrize("degree, size", [(0, 3), (1, 4), (6, 6), (5, 12)])
def test_lattice_values_are_the_form_at_the_lattice_points(degree, size, p):
    rng = random.Random(degree * 100 + size)
    mons = monomials_of_degree(degree)
    for n_terms in sorted({1, len(mons) // 3 + 1, len(mons)}):
        f = XPoly(p, {m: rng.randrange(1, p)
                      for m in rng.sample(mons, n_terms)})
        lattice = principal_lattice(size, (size,) * 3)
        got = lattice_values(f.coeff_cube(degree), size, p, (size,) * 3)
        assert got.tolist() == eval_rows(f, lattice).tolist()


@pytest.fixture(scope="module")
def moved_instance():
    """A generated (2,3) surface whose change of generator basis is not the
    identity, with its strand and oracle equation."""
    inst = generate(GenSpec("dim3", 2, 3, 2, (1,)), index=0, seed=0)
    assert (inst.analysis.transition % P != np.eye(4, dtype=np.int64)).sum() > 4
    return (build_strand(inst.case), reference(inst.input),
            inst.input.field)


def test_certificate_in_moved_coordinates_is_the_original_identity(
        moved_instance):
    strand, orc, field = moved_instance
    cert = verify_implicitization(strand, orc, field)
    assert cert.exponent * orc.degree == strand.size
    # det M(x) = c F(x)^d at random points x: the strand is built in the
    # coordinates of the input's generators, with no change of coordinates
    rng = random.Random(8)
    for _ in range(5):
        x = [rng.randrange(P) for _ in range(4)]
        assert strand.det_at(x) == cert.c * pow(orc.f.eval(x), cert.exponent,
                                                P) % P


def test_certificate_in_moved_coordinates_rejects_a_changed_strand(
        moved_instance):
    strand, orc, field = moved_instance
    # one nonzero coefficient of one entry changed
    tensor = strand.tensor.copy()
    r, c, k = np.argwhere(tensor % P)[len(np.argwhere(tensor % P)) // 2]
    tensor[r, c, k] = (tensor[r, c, k] + 1) % P
    with pytest.raises(CertificateError):
        verify_implicitization(dataclasses.replace(strand, tensor=tensor),
                               orc, field)
    # two equal columns: the determinant is identically zero
    tensor = strand.tensor.copy()
    tensor[:, 1] = tensor[:, 0]
    with pytest.raises(CertificateError):
        verify_implicitization(dataclasses.replace(strand, tensor=tensor),
                               orc, field)


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


# Nodes inside the worked block's det_box (9, 10, 9): the perturbation by
# the node's Newton polynomial is a form the sized lattice determines.
@pytest.mark.parametrize("node", [(9, 0, 0), (0, 0, 9), (3, 4, 3),
                                  (2, 3, 4)])
def test_interpolate_catches_a_perturbation_at_lattice_points(
        node, example_strand, example_oracle, field,
        monkeypatch):
    # the worked strand is two blocks of size 10; only the first block's
    # determinant is perturbed, on its own degree-10 lattice cut to the box
    block = example_strand.block(*example_strand.blocks[0])
    assert block.det_box == (9, 10, 9)
    lattice = principal_lattice(10, block.det_box)
    assert len(lattice) == 284
    # the lattice points at or above the node, where the perturbation is
    # nonzero
    n_bad = int((lattice[:, 1:] >= node).all(axis=1).sum())
    assert n_bad == {(9, 0, 0): 3, (0, 0, 9): 3, (3, 4, 3): 1,
                     (2, 3, 4): 4}[node]
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
    # c_0 is fitted at a lattice point the perturbation leaves alone, so
    # exactly the perturbed lattice points fail
    with pytest.raises(CertificateError,
                       match=f"block 0: .* fails at {n_bad} of 284 principal "
                             "lattice"):
        verify_implicitization(example_strand, example_oracle, field)
    assert sizes == [10]


@pytest.mark.parametrize("p", [3, 19])
def test_interpolate_refuses_primes_not_above_the_strand_size(
        p, example_strand, example_oracle):
    with pytest.raises(ValueError, match="needs p > 20"):
        verify_implicitization(example_strand, example_oracle,
                               FieldConfig(p))


def test_certificate_rejects_corrupted_syzygies(example_case,
                                                example_oracle, field):
    rng = random.Random(1234)
    bad = mutate_case(example_case, rng)
    strand = build_strand(bad)
    with pytest.raises(CertificateError):
        verify_implicitization(strand, example_oracle, field)


def test_certificate_rejects_wrong_transform(example_case, example_oracle,
                                             field):
    # a strand built with a random wrong change of generator basis must not
    # certify
    wrong = np.array([[1, 2, 3, 4], [0, 1, 5, 6], [0, 0, 1, 7], [0, 0, 0, 1]],
                     dtype=np.int64)
    strand = build_strand(with_transition(example_case, wrong))
    with pytest.raises(CertificateError):
        verify_implicitization(strand, example_oracle, field)


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
    assert rep.g_uv.bidegree() == (0, 0) and rep.g_st.bidegree() == (0, 0)


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
    # the uv-chart gcd is a form in (s, t), the st-chart gcd one in (u, v)
    assert rep.g_uv.bidegree() == (4, 0)
    assert rep.g_st.bidegree() == (0, 4)


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
    assert rep.g_uv.bidegree() == (1, 0)
    assert rep.status == "free"
    assert rep.detail == "the generators' multiples span bidegree (2, 3)"


def gcd_of_all_six_resultants(inp):
    # one pair per call, so the batch of the screen is checked as well
    acc = BiPoly.zero(P)
    for pair in combinations(inp.gens, 2):
        [res] = oracle.resultant_uv([pair], inp.a, inp.b, P)
        acc = uni_gcd(acc, res)
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
    assume(all(g.bidegree() == (0, 0) for g in
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
        [res] = oracle.resultant_uv([chart.gens[:2]], chart.a, chart.b, P)
        assert res.is_zero
    assert basepoint_check(inp).status == "free"


def test_screen_takes_a_prefix_of_the_resultants_on_the_worked_surface(
        example_input, monkeypatch):
    # the three pairs with g0 come first and the other three only while the
    # gcd is not constant; the gcd loop stops after 3 resultants on the
    # uv-chart (one batch) and after 5 on the st-chart (two batches)
    calls, gcds = [], []
    resultant_uv, gcd = oracle.resultant_uv, oracle.uni_gcd

    def counted(*args):
        calls.append(args)
        return resultant_uv(*args)

    def counted_gcd(*args):
        gcds.append(args)
        return gcd(*args)

    monkeypatch.setattr(oracle, "resultant_uv", counted)
    monkeypatch.setattr(oracle, "uni_gcd", counted_gcd)
    assert oracle._resultant_gcd(example_input) == BiPoly.const(P, 1)
    assert (len(calls), len(gcds)) == (1, 3)
    assert len(calls[0][0]) == 3
    assert oracle._resultant_gcd(example_input.mirror()) == BiPoly.const(P, 1)
    assert (len(calls), len(gcds)) == (3, 3 + 5)
    assert [len(call[0]) for call in calls[1:]] == [3, 3]
    assert basepoint_check(example_input).status == "free"
    assert (len(calls), len(gcds)) == (6, 2 * (3 + 5))


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
        verify_implicitization(strand, reference(inp), field)


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
