"""Random instance generator."""

import pytest

from tensurf.bipoly import DEFAULT_PRIME, poly_to_str
from tensurf.gen import GenSpec, generate
from tensurf.oracle import implicitize

P = DEFAULT_PRIME


# ---------------------------------------------------------------------------
# spec validation


def test_spec_accepts_known_shapes():
    GenSpec("dim2", 2, 3, 2)
    GenSpec("dim3", 2, 5, 3, (1,))
    GenSpec("dim4", 2, 5, 3, (1, 1))
    assert GenSpec("dim3", 2, 5, 3, (1,)).planted_mus == (1, 2)
    assert GenSpec("dim4", 2, 5, 3, (1, 1)).planted_mus == (1, 1, 1)
    assert GenSpec("dim2", 2, 3, 2).planted_mus is None
    assert GenSpec("dim4", 2, 5, 3, (1, 1)).dim_v == 4


def test_spec_rejects_bad_shapes():
    with pytest.raises(ValueError):
        GenSpec("dim5", 2, 3, 2)
    with pytest.raises(ValueError):
        GenSpec("dim2", 2, 3, 4)            # n > b
    with pytest.raises(ValueError):
        GenSpec("dim2", 2, 3, 3)            # b < 2n - 1
    with pytest.raises(ValueError):
        GenSpec("dim2", 2, 3, 2, (1,))      # dim2 takes no column degrees
    with pytest.raises(ValueError):
        GenSpec("dim3", 2, 5, 3, None)
    with pytest.raises(ValueError):
        GenSpec("dim3", 2, 5, 3, (2,))      # 2 > n - 2
    with pytest.raises(ValueError):
        GenSpec("dim4", 2, 5, 3, (1,))
    with pytest.raises(ValueError):
        GenSpec("dim4", 2, 5, 3, (2, 1))    # third degree 0 < max


def test_generate_is_deterministic():
    spec = GenSpec("dim2", 2, 3, 2)
    one = generate(spec, index=7, seed=0)
    two = generate(spec, index=7, seed=0)
    assert [poly_to_str(g) for g in one.input.gens] \
        == [poly_to_str(g) for g in two.input.gens]
    assert one.attempts == two.attempts
    other = generate(spec, index=8, seed=0)
    assert [poly_to_str(g) for g in other.input.gens] \
        != [poly_to_str(g) for g in one.input.gens]


def test_generated_profiles_match_spec(corpus):
    for inst in corpus:
        spec = inst.spec
        assert inst.analysis.n == spec.n
        assert inst.analysis.dim_v == spec.dim_v
        if spec.planted_mus is not None:
            assert tuple(inst.case.aux["mus"]) == tuple(sorted(spec.planted_mus))
        for g in inst.input.gens:
            assert g.bidegree() == (spec.a, spec.b)


def test_implicitize_recovers_the_planted_profile(corpus):
    # the full pipeline re-derives the planted profile from the generators
    inst = corpus[0]
    result = implicitize(inst.input)
    assert result.analysis.n == inst.spec.n
    assert result.analysis.dim_v == inst.spec.dim_v
    assert result.case.aux.get("mus") == inst.case.aux.get("mus")
    assert result.certificate.exponent * result.oracle.degree \
        == 2 * inst.spec.a * inst.spec.b
