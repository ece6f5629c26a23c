"""The square degree-strand matrix and its determinant."""

import hashlib
import random

import numpy as np
import pytest

from tensurf import linalg
from tensurf.bipoly import DEFAULT_PRIME
from tensurf.cases import run_case
from tensurf.gen import GenSpec, generate
from tensurf.strand import Strand, build_strand, reconstruct_det
from tensurf.syzygy import analyze
from tensurf.xpoly import parse_xpoly

P = DEFAULT_PRIME


def random_point(rng):
    return [rng.randrange(P) for _ in range(4)]


def test_example_strand_shape_and_labels(example_strand):
    s = example_strand
    assert s.size == 20
    assert s.tensor.shape == (20, 20, 4)
    counts = {}
    for label, _ in s.column_labels:
        counts[label] = counts.get(label, 0) + 1
    assert counts == {"S": 8, "S1": 4, "S2": 4, "S3": 4}


# sha256 prefixes of tensor.tobytes() + repr(column_labels): they pin the
# strand's row order, column order and labels entry for entry.  They are the
# digests of the strand once built in the changed generator basis and then
# moved into the input's coordinates, so the strand built there directly is
# that one entry for entry (the worked surface's basis is the input's)
STRAND_DIGESTS = {
    "worked": "ff83f6dbd4be77e6",
    "segre": "9b5d6b2b3ed239d3",
    "dim2-2x3": "486f393b3ffc6f7a",
    "dim3-2x5": "9332b3acda5e0e44",
}


def test_strand_digests_frozen(example_strand, segre_input):
    strands = {
        "worked": example_strand,
        "segre": build_strand(run_case(analyze(segre_input))),
        "dim2-2x3": build_strand(generate(GenSpec("dim2", 2, 3, 2)).case),
        "dim3-2x5": build_strand(
            generate(GenSpec("dim3", 2, 5, 3, (1,))).case),
    }
    got = {name: hashlib.sha256(
        s.tensor.tobytes() + repr(s.column_labels).encode()).hexdigest()[:16]
        for name, s in strands.items()}
    assert got == STRAND_DIGESTS


def test_matrix_entries_are_linear_in_the_point(example_strand):
    rng = random.Random(3)
    y = np.array(random_point(rng), dtype=np.int64)
    z = np.array(random_point(rng), dtype=np.int64)
    my = example_strand.eval_matrix_at(y)
    mz = example_strand.eval_matrix_at(z)
    myz = example_strand.eval_matrix_at((y + z) % P)
    assert np.array_equal((my + mz) % P, myz)


def test_det_is_homogeneous_of_degree_2ab(example_strand):
    rng = random.Random(11)
    d = 2 * example_strand.a * example_strand.b
    for _ in range(20):
        y = random_point(rng)
        lam = rng.randrange(1, P)
        scaled = [c * lam % P for c in y]
        assert example_strand.det_at(scaled) == \
            example_strand.det_at(y) * pow(lam, d, P) % P


def test_det_not_identically_zero(example_strand):
    rng = random.Random(17)
    assert any(example_strand.det_at(random_point(rng)) != 0
               for _ in range(10))


def test_det_at_many_matches_single_eval(example_strand):
    rng = random.Random(23)
    pts = np.array([random_point(rng) for _ in range(12)], dtype=np.int64)
    batch = example_strand.det_at_many(pts)
    for k in range(12):
        assert int(batch[k]) == example_strand.det_at(pts[k])


# det_at_many evaluates only the nonzero rows of the coefficient table, on
# balanced residues, with one reduction per entry; det_at builds each matrix
# entry by entry.  Coefficients and coordinates sit at h, h + 1 (which lifts
# to -h) and p - 1, where an unreduced or overflowing sum would show.


def _edge_strand(p, size, seed):
    """Sparse random strand, half of its nonzero coefficients at the edges."""
    rng = np.random.default_rng(seed)
    h = (p - 1) // 2
    tensor = rng.integers(0, p, size=(size, size, 4), dtype=np.int64)
    at_edge = rng.random(tensor.shape) < 0.5
    tensor[at_edge] = rng.choice([h, h + 1, p - 1], int(at_edge.sum()))
    tensor[rng.random(tensor.shape) < 0.4] = 0
    return Strand(p=p, a=1, b=size // 2, size=size, tensor=tensor,
                  column_labels=())


def _edge_points(p, count, seed):
    """Points with every coordinate at 0, 1, h, h + 1 or p - 1, plus random
    ones; the constant points (h, h, h, h) etc. come first."""
    rng = np.random.default_rng(seed)
    h = (p - 1) // 2
    edges = np.array([0, 1, h, h + 1, p - 1], dtype=np.int64)
    const = np.repeat(edges[2:, None], 4, axis=1)
    mixed = rng.choice(edges, size=(count, 4))
    plain = rng.integers(0, p, size=(count, 4), dtype=np.int64)
    return np.concatenate([const, mixed, plain])


def _assert_det_at_many_exact(strand, pts):
    batch = strand.det_at_many(pts)
    assert batch.shape == (len(pts),)
    assert [int(x) for x in batch] == [strand.det_at(y) for y in pts]


# P, a 16-bit prime, and 23, the first prime above the strand size 20
@pytest.mark.parametrize("p, size", [(P, 12), (65521, 12), (23, 20)])
def test_det_at_many_exact_at_residue_edges(p, size):
    strand = _edge_strand(p, size, seed=size + p % 1000)
    _assert_det_at_many_exact(strand, _edge_points(p, 12, seed=p % 97))


@pytest.mark.parametrize("p", [P, 65521])
def test_det_at_many_on_a_zero_row_and_a_zero_coordinate(p):
    pts = _edge_points(p, 8, seed=5)
    strand = _edge_strand(p, 10, seed=7)
    zero_row = strand.tensor.copy()
    zero_row[4] = 0
    singular = Strand(p=p, a=1, b=5, size=10, tensor=zero_row,
                      column_labels=())
    assert not singular.det_at_many(pts).any()
    _assert_det_at_many_exact(singular, pts)
    no_x2 = strand.tensor.copy()
    no_x2[:, :, 2] = 0
    _assert_det_at_many_exact(
        Strand(p=p, a=1, b=5, size=10, tensor=no_x2, column_labels=()), pts)


def test_det_at_many_across_chunk_boundaries(monkeypatch):
    # 11 points in chunks of 4 (the last one partial); random entries and
    # coordinates near p make every product of residues close to p^2, so a
    # sum of two unreduced products would overflow int64
    rng = random.Random(29)
    size = 6
    monkeypatch.setattr(linalg, "DET_BLOCK", 4 * size * size)
    tensor = np.array([[[P - 1 - rng.randrange(1000) for _ in range(4)]
                        for _ in range(size)] for _ in range(size)],
                      dtype=np.int64)
    strand = Strand(p=P, a=1, b=3, size=size, tensor=tensor,
                    column_labels=())
    pts = np.array([[P - 1 - rng.randrange(3) for _ in range(4)]
                    for _ in range(5)]
                   + [random_point(rng) for _ in range(6)], dtype=np.int64)
    _assert_det_at_many_exact(strand, pts)
    # 3 + 2 * 7 = 17 edge points in chunks of 2 on a size-8 edge strand
    _assert_det_at_many_exact(_edge_strand(P, 8, seed=41),
                              _edge_points(P, 7, seed=43))


def test_reconstruct_det_agrees_with_eval(example_strand):
    det_poly = reconstruct_det(example_strand)
    d = 2 * example_strand.a * example_strand.b
    assert det_poly.is_homogeneous(d)
    rng = random.Random(29)
    for _ in range(10):
        y = random_point(rng)
        assert det_poly.eval(y) == example_strand.det_at(y)


def test_reconstruct_det_has_no_size_cap():
    # size 30, above the 24 that once capped the product-grid interpolation
    strand = build_strand(generate(GenSpec("dim2", 3, 5, 3)).case)
    assert strand.size == 30
    det_poly = reconstruct_det(strand)
    assert det_poly.is_homogeneous(30) and not det_poly.is_zero
    rng = random.Random(31)
    for _ in range(5):
        y = random_point(rng)
        assert det_poly.eval(y) == strand.det_at(y)


def test_segre_strand_det_is_the_transformed_quadric(segre_input):
    # the Segre analysis changes the generator basis, and the strand is
    # built back in the input's: its determinant is c times the quadric
    # itself, with no change of coordinates
    from tensurf.oracle import implicit_by_elimination, verify_implicitization

    va = analyze(segre_input)
    assert not np.array_equal(va.transition % P, np.eye(4, dtype=np.int64))
    strand = build_strand(run_case(va))
    assert strand.size == 2
    orc = implicit_by_elimination(segre_input)
    assert orc.f == parse_xpoly("x0*x3 - x1*x2", P)
    cert = verify_implicitization(strand, orc, segre_input.field)
    assert cert.exponent == 1
    assert reconstruct_det(strand) == orc.f.scale(cert.c)


def test_strand_nonsingular_on_corpus_sample(corpus):
    rng = random.Random(31)
    for gi in corpus[::10]:
        strand = build_strand(gi.case)
        assert strand.size == 2 * gi.input.a * gi.input.b
        assert any(strand.det_at(random_point(rng)) != 0 for _ in range(5))
