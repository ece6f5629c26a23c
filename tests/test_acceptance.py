"""Release gates: one test per end-to-end guarantee, one PASS line each.

Run with ``pytest tests/test_acceptance.py -v`` for the per-gate verdicts
(add ``-s`` to see the timing/count lines each gate prints).
"""

import random
import time

import numpy as np
import pytest

from conftest import EXAMPLE_GENERATORS, SEGRE_GENERATORS
from test_cases import (EXPECTED_ALPHAS, EXPECTED_S1, EXPECTED_S2,
                        EXPECTED_S3)
from tensurf import hburch, membership
from helpers import mutate_case, uv_form
from planes_ref import implicit_by_elimination
from tensurf.bipoly import (BiPoly, CertificateError, DEFAULT_PRIME,
                            FieldConfig, poly_to_str, uni_gcd)
from tensurf.cases import expected_column_counts, run_case
from tensurf.oracle import verify_implicitization
from tensurf.strand import build_strand, reconstruct_det
from tensurf.syzygy import SurfaceInput, analyze
from tensurf.xpoly import divide_with_remainder, parse_xpoly

P = DEFAULT_PRIME


def test_01_worked_surface_reproduced_end_to_end():
    """The bidegree (2, 5) worked surface: profile, syzygies, certificate."""
    start = time.perf_counter()
    field = FieldConfig(seed=0)
    inp = SurfaceInput.from_strings(2, 5, EXAMPLE_GENERATORS, field)
    va = analyze(inp)
    assert va.n == 3
    assert va.dim_v == 4
    case = run_case(va)
    assert case.aux["mus"] == (1, 1, 1)
    assert tuple(poly_to_str(x) for x in case.aux["alphas"]) == EXPECTED_ALPHAS
    cols = {c.label: tuple(poly_to_str(e) for e in c.entries)
            for c in case.syzygies}
    assert cols["S"] == ("u^3", "u^2*v", "u*v^2", "v^3")
    assert cols["S1"] == EXPECTED_S1
    assert cols["S2"] == EXPECTED_S2
    assert cols["S3"] == EXPECTED_S3
    strand = build_strand(case)
    assert strand.size == 20
    assert strand.tensor.shape == (20, 20, 4)
    oracle = implicit_by_elimination(inp)
    assert oracle.degree == 10
    cert = verify_implicitization(strand, oracle, field)
    assert cert.exponent == 2
    elapsed = time.perf_counter() - start
    assert elapsed < 10.0
    print(f"\nPASS gate 1: worked surface reproduced end to end "
          f"({elapsed:.2f}s)")


def test_02_determinant_equals_scaled_power_exactly():
    """det(strand) is interpolated and divided by F twice with no remainder."""
    start = time.perf_counter()
    field = FieldConfig(seed=0)
    inp = SurfaceInput.from_strings(2, 5, EXAMPLE_GENERATORS, field)
    strand = build_strand(run_case(analyze(inp)))
    oracle = implicit_by_elimination(inp)
    det_poly = reconstruct_det(strand)
    quotient, rem = divide_with_remainder(det_poly, oracle.f)
    assert rem.is_zero
    quotient, rem = divide_with_remainder(quotient, oracle.f)
    assert rem.is_zero
    assert quotient.degree() == 0
    assert quotient.terms.get((0, 0, 0, 0)) == P - 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nPASS gate 2: determinant = c * F^2 as polynomials "
          f"({elapsed:.2f}s)")


def test_03_corpus_strands_are_square_and_nonsingular(corpus):
    """Column counts fill the expected square; determinants are nonzero."""
    rng = random.Random(303)
    failures = []
    for idx, inst in enumerate(corpus):
        a, b = inst.spec.a, inst.spec.b
        counts = expected_column_counts(inst.case.syzygies, a, b)
        if sum(counts) != 2 * a * b:
            failures.append((idx, "count sum"))
        if counts != inst.case.aux["column_counts"]:
            failures.append((idx, "count mismatch"))
        strand = build_strand(inst.case)
        if strand.size != 2 * a * b:
            failures.append((idx, "not square"))
        point = np.array([rng.randrange(P) for _ in range(4)],
                         dtype=np.int64)
        if strand.det_at(point) == 0:
            failures.append((idx, "singular at random point"))
    assert failures == []
    print(f"\nPASS gate 3: {len(corpus)} strands square and nonsingular")


def test_04_corpus_certificates_match_degree_formula(corpus):
    """det = c * F^d proved exactly with d * deg F = 2ab, for every instance."""
    failures = []
    for idx, inst in enumerate(corpus):
        a, b = inst.spec.a, inst.spec.b
        strand = build_strand(inst.case)
        try:
            oracle = implicit_by_elimination(inst.input)
            cert = verify_implicitization(strand, oracle, inst.input.field)
        except CertificateError as exc:
            failures.append((idx, str(exc)))
            continue
        if cert.exponent * oracle.degree != 2 * a * b:
            failures.append((idx, "degree formula"))
    assert failures == []
    print(f"\nPASS gate 4: det = c * F^d proved exactly on {len(corpus)} "
          f"instances")


def test_05_exact_identities_across_corpus(corpus):
    """Annihilation, minor reconstruction, degree sums, case identities."""
    failures = []
    for idx, inst in enumerate(corpus):
        va, case = inst.analysis, inst.case
        p = inst.input.field.p
        for col in case.syzygies:
            acc = BiPoly.zero(p)
            for e, g in zip(col.entries, va.new_gens):
                acc = acc + e * g
            if not acc.is_zero:
                failures.append((idx, col.label, "annihilation"))
        resolutions = []
        if "psi" in case.aux:
            psi = case.aux["psi"]
            minors = hburch.signed_minors(psi)
            if not all((x - y).is_zero for x, y in zip(minors, va.g)):
                failures.append((idx, "psi", "minor reconstruction"))
            resolutions.append(psi)
            resolutions.extend(case.aux["phis"])
        for key, gamma in case.aux.get("gammas", {}).items():
            h, _ = hburch.transpose_product(
                *case.aux["psi"].column(key[0]), case.aux["phis"][key[1]])
            minors = hburch.signed_minors(gamma)
            if not all((x - y).is_zero for x, y in zip(minors, h)):
                failures.append((idx, key, "gamma minor reconstruction"))
            resolutions.append(gamma)
        for mat in resolutions:
            if sum(mat.row_degrees) != sum(mat.col_degrees):
                failures.append((idx, "degree sum"))
        if case.case_tag == "dim3":
            theta = [[case.aux["theta_col"][i], va.g[i]] for i in range(3)]
            for i in range(3):
                rows = [theta[r] for r in range(3) if r != i]
                minor = rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
                if i % 2 == 1:
                    minor = -minor
                if not (minor - va.f_prime[i]).is_zero:
                    failures.append((idx, i, "theta minor"))
            nvec = case.aux["N"]
            for i in range(4):
                acc = BiPoly.zero(p)
                for col, nv in zip(case.syzygies, nvec):
                    acc = acc + col.entries[i] * nv
                if not acc.is_zero:
                    failures.append((idx, i, "M N product"))
        if case.case_tag == "dim4":
            hh = case.aux["H"]
            alpha1, alpha2, alpha3 = case.aux["alphas"]
            weights = (hh, alpha1, alpha2, alpha3)
            for i in range(4):
                acc = BiPoly.zero(p)
                for col, w in zip(case.syzygies, weights):
                    acc = acc + col.entries[i] * w
                if not acc.is_zero:
                    failures.append((idx, i, "alpha combination"))
    assert failures == []
    print(f"\nPASS gate 5: exact identities hold on {len(corpus)} instances")


def test_06_coprime_pairs_generate_the_threshold_degree():
    """100 random coprime pairs: every threshold monomial is expressible."""
    rng = random.Random(606)
    solved = 0
    for _ in range(100):
        m = rng.randrange(1, 5)
        n = rng.randrange(1, 5)
        while True:
            h0 = uv_form([rng.randrange(P) for _ in range(m + 1)])
            h1 = uv_form([rng.randrange(P) for _ in range(n + 1)])
            if h0.is_zero or h1.is_zero:
                continue
            if uni_gcd(h0, h1).bidegree() == (0, 0):
                break
        for k in range(m + n):
            target = BiPoly(P, {(0, 0, m + n - 1 - k, k): 1})
            x0, x1 = membership.two_gen_solve(target, h0, h1)
            assert (x0 * h0 + x1 * h1 - target).is_zero
            solved += 1
    print(f"\nPASS gate 6: {solved} threshold monomials across 100 "
          f"coprime pairs")


def test_07_single_coefficient_mutations_are_caught(example_case,
                                                    example_oracle, field):
    """50 corrupted syzygy families all fail the certificate."""
    rng = random.Random(707)
    caught = 0
    for _ in range(50):
        bad = mutate_case(example_case, rng)
        strand = build_strand(bad)
        with pytest.raises(CertificateError):
            verify_implicitization(strand, example_oracle, field)
        caught += 1
    assert caught == 50
    print(f"\nPASS gate 7: {caught}/50 corrupted families rejected")


def test_08_trivial_anchors(field):
    """The Segre quadric and the linear syzygy pair come out exactly."""
    inp = SurfaceInput.from_strings(1, 1, SEGRE_GENERATORS, field)
    va = analyze(inp)
    assert va.n == 1
    assert tuple(poly_to_str(g) for g in va.g) == ("u", "v")
    case = run_case(va)
    strand = build_strand(case)
    oracle = implicit_by_elimination(inp)
    assert oracle.f == parse_xpoly("x0*x3 - x1*x2", P)
    cert = verify_implicitization(strand, oracle, field)
    assert cert.exponent == 1
    print("\nPASS gate 8: Segre quadric and linear pair anchored")
