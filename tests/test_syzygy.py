"""Minimal singly graded syzygies and the derived coefficient span."""

import random

import numpy as np
import pytest

from tensurf.bipoly import (BiPoly, DEFAULT_PRIME, FieldConfig,
                            HypothesisError, coeff_grid, monomial_basis,
                            parse_poly, poly_to_str)
from tensurf.gen import GenSpec, _build_planted_psi
from tensurf.syzygy import (SurfaceInput, analyze, build_f_family,
                            find_minimal_syzygy, syzygy_system)

P = DEFAULT_PRIME


def test_surface_input_validation():
    field = FieldConfig(seed=0)
    with pytest.raises(HypothesisError):
        SurfaceInput.from_strings(1, 1, ["s*u", "s*v", "t*u", "0"], field)
    with pytest.raises(HypothesisError):
        # wrong bidegree
        SurfaceInput.from_strings(2, 1, ["s*u", "s*v", "t*u", "t*v"], field)
    with pytest.raises(HypothesisError):
        # dependent generators
        SurfaceInput.from_strings(1, 1, ["s*u", "s*v", "t*u", "s*u + s*v"],
                                  field)


def test_mirror_round_trip(example_input):
    m = example_input.mirror()
    assert (m.a, m.b) == (5, 2)
    back = m.mirror()
    assert back.gens == example_input.gens


def test_grids_are_built_once_and_read_only(example_input):
    grids = example_input.grids
    assert grids is example_input.grids
    assert not grids.flags.writeable
    with pytest.raises(ValueError):
        grids[0, 0, 0] = 1
    want = np.stack([coeff_grid(g, 2, 5) for g in example_input.gens])
    assert np.array_equal(grids, want)
    # the mirror builds its own, of shape (4, b + 1, a + 1)
    m = example_input.mirror()
    assert m.grids.shape == (4, 6, 3) and not m.grids.flags.writeable
    assert np.array_equal(m.grids,
                          np.stack([coeff_grid(g, 5, 2) for g in m.gens]))


def test_segre_analysis_frozen(segre_input):
    va = analyze(segre_input)
    assert va.n == 1
    assert va.kernel_dim == 2
    assert va.dim_v == 2
    assert tuple(poly_to_str(g) for g in va.g) == ("u", "v")


def test_example_analysis_frozen(example_analysis):
    va = example_analysis
    assert va.n == 3
    assert va.kernel_dim == 1
    assert va.dim_v == 4
    assert tuple(poly_to_str(g) for g in va.g) == ("u^3", "u^2*v", "u*v^2",
                                                  "v^3")
    assert np.array_equal(va.transition % P, np.eye(4, dtype=np.int64))
    assert va.new_gens == va.input.gens


def test_syzygy_system_shape(example_input):
    M = syzygy_system(example_input, 3)
    # rows: bidegree (2, 8) monomials; cols: 4 * (n + 1) unknowns
    assert M.shape == (3 * 9, 16)


def test_find_minimal_syzygy_respects_cap(example_input):
    # the search stops at uv-degree b: a generic (3, 2) input has 4(n + 1)
    # unknowns against 4(n + 3) equations in every degree n, so no syzygy
    rng = random.Random(32)
    gens = tuple(BiPoly(P, {m: rng.randrange(1, P) for m in monomial_basis(3, 2)})
                 for _ in range(4))
    generic = SurfaceInput(3, 2, gens, FieldConfig(seed=0))
    with pytest.raises(HypothesisError, match="uv-degree <= 2$"):
        find_minimal_syzygy(generic)
    n, kern = find_minimal_syzygy(example_input)
    assert n == 3 and len(kern) == 1


def test_build_f_family_annihilates(example_input):
    n, kern = find_minimal_syzygy(example_input)
    A, fam = build_f_family(example_input, kern[0], n)
    assert A.shape == (4, n + 1)
    total = parse_poly("0", P)
    for j, f in enumerate(fam):
        total = total + f * BiPoly(P, {(0, 0, n - j, j): 1})
    assert total.is_zero


def test_build_f_family_matches_the_naive_sum():
    # residues near 2**31 in A and in the generators: a sum of four of their
    # products overflows int64 unless every product is reduced; an
    # unreduced numpy contraction gets a family wrong on some of these
    spec = GenSpec("dim4", 2, 5, 3, (1, 1))
    for seed in range(8):
        inp = _build_planted_psi(spec, random.Random(seed), FieldConfig())
        n, kern = find_minimal_syzygy(inp)
        for vec in kern:
            A, fam = build_f_family(inp, vec, n)
            for j, f in enumerate(fam):
                naive = BiPoly.zero(P)
                for i, g in enumerate(inp.gens):
                    naive = naive + g.scale(int(A[i, j]))
                assert f == naive, (seed, j)


def test_analysis_identity_on_corpus_sample(corpus):
    # g annihilates the reduced family on every tenth corpus instance
    for gi in corpus[::10]:
        va = gi.analysis
        acc = parse_poly("0", P)
        for gk, fk in zip(va.g, va.f_prime):
            acc = acc + gk * fk
        assert acc.is_zero
        assert len(va.g) == va.dim_v
