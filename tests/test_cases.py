"""Case-by-case syzygy constructions with frozen worked instances."""

from dataclasses import replace

import pytest

from tensurf import cases
from tensurf.bipoly import (BiPoly, CertificateError, DEFAULT_PRIME,
                            FieldConfig, HypothesisError, poly_to_str)
from tensurf.cases import SyzygyColumn, expected_column_counts, run_case
from tensurf.syzygy import SurfaceInput, analyze

P = DEFAULT_PRIME


# ---------------------------------------------------------------------------
# the worked bidegree (2, 5) surface: dim V = 4


EXPECTED_ALPHAS = ("s^2*v^4 + t^2*u^4", "2*t^2*v^4", "s^2*u^4 + t^2*v^4")

EXPECTED_S1 = ("-2*t^2*u^2*v + t^2*u*v^2", "-2*t^2*u*v^2 + t^2*v^3",
               "-s^2*u^3 - 2*t^2*v^3", "-s^2*u^2*v")
EXPECTED_S2 = ("s^2*u^2*v - t^2*v^3", "s^2*u^3 + s^2*u*v^2",
               "s^2*u^2*v + s^2*v^3", "s^2*u*v^2 - t^2*u^3")
EXPECTED_S3 = ("-s^2*u*v^2 + 2*t^2*v^3", "-s^2*v^3", "t^2*u^3", "t^2*u^2*v")

EXPECTED_H = "s^4*u^2*v^2 - 2*s^2*t^2*u*v^3 + 2*t^4*u^3*v - t^4*u^2*v^2"

EXPECTED_PAIRS = {
    "a2": ("-s^2*v^2", "t^2*u^2"),
    "c2": ("-t^2*v^2", "s^2*u^2"),
    "a3": ("t^2*u^3", "-s^2*v"),
    "b3": ("0", "-2*t^2*v"),
    "b1": ("2*t^2*v^3", "0"),
    "c1": ("t^2*v^3", "s^2*u"),
}


def test_example_case_profile(example_case):
    case = example_case
    assert case.case_tag == "dim4"
    assert case.aux["mus"] == (1, 1, 1)
    assert all(case.checks.values())
    assert [c.label for c in case.syzygies] == ["S", "S1", "S2", "S3"]
    assert [c.bidegree for c in case.syzygies] == [(0, 3), (2, 3), (2, 3),
                                                   (2, 3)]
    assert case.aux["column_counts"] == [8, 4, 4, 4]


def test_example_alphas_frozen(example_case):
    got = tuple(poly_to_str(x) for x in example_case.aux["alphas"])
    assert got == EXPECTED_ALPHAS


def test_example_syzygies_entry_for_entry(example_case):
    cols = {c.label: tuple(poly_to_str(e) for e in c.entries)
            for c in example_case.syzygies}
    assert cols["S"] == ("u^3", "u^2*v", "u*v^2", "v^3")
    assert cols["S1"] == EXPECTED_S1
    assert cols["S2"] == EXPECTED_S2
    assert cols["S3"] == EXPECTED_S3


def test_example_membership_pairs_frozen(example_case):
    aux = example_case.aux
    for key, want in EXPECTED_PAIRS.items():
        got = tuple(poly_to_str(x) for x in aux[key])
        assert got == want, key
    assert poly_to_str(aux["H"]) == EXPECTED_H


def test_example_psi_is_the_power_basis_matrix(example_case):
    psi = example_case.aux["psi"]
    rows = [[poly_to_str(e) for e in row] for row in psi.entries]
    assert rows == [["-v", "0", "0"],
                    ["u", "-v", "0"],
                    ["0", "u", "-v"],
                    ["0", "0", "u"]]


def test_example_combination_identity(example_case):
    # H * S + alpha1 * S1 + alpha2 * S2 + alpha3 * S3 = 0, row by row
    case = example_case
    h = case.aux["H"]
    alphas = case.aux["alphas"]
    for i in range(4):
        acc = h * case.syzygies[0].entries[i]
        for alpha, col in zip(alphas, case.syzygies[1:]):
            acc = acc + alpha * col.entries[i]
        assert acc.is_zero


# ---------------------------------------------------------------------------
# a small dim V = 2 surface built from one common factor


DIM2_GENERATORS = ["s*u*v^2 + t*v^3", "-s*u^3 - t*u^2*v", "s*u^3", "t*v^3"]


@pytest.fixture(scope="module")
def dim2_case():
    inp = SurfaceInput.from_strings(1, 3, DIM2_GENERATORS, FieldConfig(seed=0))
    return run_case(analyze(inp))


def test_dim2_frozen(dim2_case):
    case = dim2_case
    assert case.case_tag == "dim2"
    assert tuple(poly_to_str(g) for g in case.aux["g"]) == ("u^2", "v^2")
    assert poly_to_str(case.aux["alpha"]) == "s*u + t*v"
    cols = {c.label: tuple(poly_to_str(e) for e in c.entries)
            for c in case.syzygies}
    assert cols["S"] == ("u^2", "v^2", "0", "0")
    assert cols["S1"] == ("0", "-s*u", "-s*u - t*v", "0")
    assert cols["S2"] == ("t*v", "0", "0", "-s*u - t*v")
    assert case.aux["column_counts"] == [2, 2, 2]
    assert all(case.checks.values())


# ---------------------------------------------------------------------------
# a dim V = 3 surface whose resolution matches the canonical 3 x 2 shape


DIM3_GENERATORS = [
    "-s^2*u^2*v - t^2*v^3",
    "s^2*u^3 - s^2*u*v^2 - s*t*u^2*v + t^2*u*v^2",
    "s^2*u^2*v + s*t*u^3",
    "s^2*u^3 + s*t*u^2*v + t^2*v^3",
]


@pytest.fixture(scope="module")
def dim3_case():
    inp = SurfaceInput.from_strings(2, 3, DIM3_GENERATORS, FieldConfig(seed=0))
    return run_case(analyze(inp))


def test_dim3_profile_and_displays(dim3_case):
    case = dim3_case
    assert case.case_tag == "dim3"
    assert case.aux["mus"] == (1, 1)
    va = case.analysis
    assert va.n == 2 and va.kernel_dim == 1 and va.dim_v == 3
    assert tuple(poly_to_str(g) for g in va.g) == ("u^2", "u*v", "v^2")
    psi = case.aux["psi"]
    assert [[poly_to_str(e) for e in row] for row in psi.entries] == \
        [["-v", "0"], ["u", "-v"], ["0", "u"]]
    phi1, phi2 = case.aux["phis"]
    assert [[poly_to_str(e) for e in row] for row in phi1.entries] == \
        [["0", "u"], ["0", "v"], ["1", "0"]]
    assert [[poly_to_str(e) for e in row] for row in phi2.entries] == \
        [["1", "0"], ["0", "u"], ["0", "v"]]


def test_dim3_transpose_products_frozen(dim3_case):
    from tensurf import hburch
    psi = dim3_case.aux["psi"]
    phi1, phi2 = dim3_case.aux["phis"]
    h_q, d_q = hburch.transpose_product(*psi.column(1), phi1)
    h_r, d_r = hburch.transpose_product(*psi.column(0), phi2)
    assert [poly_to_str(x) for x in h_q] == ["u", "-v^2"]
    assert [poly_to_str(x) for x in h_r] == ["-v", "u^2"]
    assert d_q == [1, 2] and d_r == [1, 2]


def test_dim3_alphas_recover_planted_coefficients(dim3_case):
    got = tuple(poly_to_str(x) for x in dim3_case.aux["alphas"])
    assert got == ("s^2*u^2 + t^2*v^2", "s^2*u*v + s*t*u^2")


def test_dim3_syzygies_frozen(dim3_case):
    cols = {c.label: (c.bidegree, tuple(poly_to_str(e) for e in c.entries))
            for c in dim3_case.syzygies}
    assert cols["S"] == ((0, 2), ("u^2", "u*v", "v^2", "0"))
    assert cols["S1"] == ((2, 1), ("s^2*u - t^2*u", "-s*t*u - t^2*v",
                                   "s^2*u - s*t*v", "0"))
    assert cols["S2"] == ((2, 2), ("-t^2*u*v", "-t^2*v^2",
                                   "s^2*u^2 + s*t*u*v", "-s^2*u*v - s*t*u^2"))
    assert cols["S3"] == ((2, 2), ("-s*t*u^2 - t^2*v^2", "s^2*u^2",
                                   "s^2*u*v", "-s^2*u^2 - t^2*v^2"))
    assert dim3_case.aux["column_counts"] == [4, 4, 2, 2]


def test_dim3_kernel_vector_identity(dim3_case):
    # the published 4-term relation among the strand columns
    case = dim3_case
    nvec = case.aux["N"]
    for i in range(4):
        acc = BiPoly.zero(P)
        for col, nv in zip(case.syzygies, nvec):
            if not col.entries[i].is_zero and not nv.is_zero:
                acc = acc + col.entries[i] * nv
        assert acc.is_zero


# ---------------------------------------------------------------------------
# shared machinery


def test_expected_column_counts_formula():
    from tensurf.cases import SyzygyColumn
    zero = BiPoly.zero(P)
    cols = [SyzygyColumn("S", (0, 3), (zero,) * 4),
            SyzygyColumn("S1", (2, 3), (zero,) * 4)]
    assert expected_column_counts(cols, 2, 5) == [8, 4]
    # columns of st-degree >= 2a contribute nothing
    cols = [SyzygyColumn("X", (4, 1), (zero,) * 4)]
    assert expected_column_counts(cols, 2, 5) == [0]


def test_run_case_rejects_low_b(field):
    # minimal syzygy degree n = 2 but b = 2 < 2n - 1 = 3
    gens = ["s*v^2", "-s*u^2", "t*u^2", "t*v^2"]
    inp = SurfaceInput.from_strings(1, 2, gens, field)
    va = analyze(inp)
    assert va.n == 2
    with pytest.raises(HypothesisError):
        run_case(va)


def test_dim2_rejects_f0_off_the_multiples_of_g1(dim2_case):
    # g_1 = v^2 does not divide s*u^3
    va = dim2_case.analysis
    f0p, f1p = va.f_prime
    bumped = replace(va, f_prime=(f0p + BiPoly(P, {(1, 0, 3, 0): 1}), f1p))
    with pytest.raises(CertificateError,
                       match="^f'_0 is not a multiple of g_1$"):
        run_case(bumped)


def test_every_construction_check_runs(dim2_case, dim3_case, example_case):
    final = {"annihilation", "homogeneity", "column_count"}
    assert set(dim2_case.checks) == final | {"alpha_consistent"}
    assert set(dim3_case.checks) == final | {
        "theta_minors", "kernel_vector", "alpha_coprime"}
    assert set(example_case.checks) == final | {
        "alpha_combination", "alpha12_coprime"}
    with pytest.raises(ValueError, match="'full'"):
        run_case(example_case.analysis, check_level="final")


def test_run_case_on_every_tenth_corpus_instance(corpus):
    for gi in corpus[::10]:
        case = gi.case
        assert all(case.checks.values())
        assert sum(case.aux["column_counts"]) == 2 * gi.input.a * gi.input.b


@pytest.mark.parametrize("fixture", ["dim2_case", "dim3_case", "example_case"])
@pytest.mark.parametrize("entry", range(4))
def test_finish_catches_one_bumped_coefficient_of_s1(fixture, entry, request):
    case = request.getfixturevalue(fixture)
    va, cols = case.analysis, list(case.syzygies)
    assert cases._finish(va, case.case_tag, cols, {}, {}).checks[
        "annihilation"]
    s1 = cols[1]
    assert s1.label == "S1"
    c, d = s1.bidegree
    entries = list(s1.entries)
    entries[entry] = entries[entry] + BiPoly(P, {(c, 0, 0, d): 1})
    cols[1] = SyzygyColumn("S1", (c, d), tuple(entries))
    with pytest.raises(CertificateError,
                       match=f"^{case.case_tag} verification failed: "
                             "annihilation$"):
        cases._finish(va, case.case_tag, cols, {}, {})


# Mutation tests of the construction checks: one coefficient of one factor
# that a check multiplies is changed where that factor is produced, and
# run_case must name the check.


def _spoil(monkeypatch, target, name: str, call: int, bump) -> list:
    """Make the ``call``-th call of ``target.name`` return ``bump`` of its
    result; the returned list records the calls."""
    original = getattr(target, name)
    calls = []

    def spoiled(*args, **kwargs):
        out = original(*args, **kwargs)
        calls.append(name)
        return bump(out) if len(calls) == call + 1 else out

    monkeypatch.setattr(target, name, spoiled)
    return calls


def _bump_first(polys: list) -> list:
    """``polys`` with one nonzero coefficient of the first nonzero one
    changed to another nonzero value."""
    out = list(polys)
    i = next(i for i, f in enumerate(out) if not f.is_zero)
    exp, c = min(out[i].terms.items())
    out[i] = BiPoly(P, {**out[i].terms, exp: c + 1 if c + 1 < P else 1})
    return out


@pytest.mark.parametrize("fixture, call, check", [
    ("dim3_case", 0, "theta_minors"),       # phi1 q, in Theta's column
    ("dim3_case", 2, "kernel_vector"),      # phi1 m, in S2
    ("example_case", 0, "alpha_combination"),   # comp12 b3, in S1
])
def test_a_changed_column_entry_fails_its_check(fixture, call, check,
                                                request, monkeypatch):
    case = request.getfixturevalue(fixture)
    calls = _spoil(monkeypatch, cases, "_mat_vec", call, _bump_first)
    with pytest.raises(CertificateError,
                       match=rf"^{case.case_tag} verification failed: "
                             rf"(.*, )?{check}(,|$)"):
        run_case(case.analysis)
    assert len(calls) > call


@pytest.mark.parametrize("fixture, call", [
    ("dim3_case", 0),       # aux["psi"]
    ("dim3_case", 2),       # aux["phis"][1]
    ("example_case", 0),    # aux["psi"]
    ("example_case", 3),    # aux["phis"][2]
    ("example_case", 6),    # aux["gammas"][(1, 2)]
])
def test_a_changed_minor_fails_the_hilbert_burch_check(fixture, call,
                                                       request, monkeypatch):
    # normalized_resolution is the one place the signed minors of psi, the
    # phis and the gammas are compared with the forms they resolve
    case = request.getfixturevalue(fixture)
    calls = _spoil(monkeypatch, cases.hburch, "signed_minors", call,
                   _bump_first)
    with pytest.raises(CertificateError, match="^signed minors do not "
                       "reproduce the generators after scaling$"):
        run_case(case.analysis)
    assert len(calls) == call + 1


def test_a_changed_alpha_fails_alpha_consistent(dim2_case, monkeypatch):
    # alpha = f'_0 / g_1 is the dim-2 case's first solve
    def bump(x):
        x = x.copy()
        x[0, 0] = (x[0, 0] + 1) % P
        return x

    calls = _spoil(monkeypatch, cases.linalg, "solve_particular", 0, bump)
    with pytest.raises(CertificateError,
                       match=r"^dim2 verification failed: alpha_consistent"):
        run_case(dim2_case.analysis)
    assert calls
