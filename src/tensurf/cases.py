"""Construction of the certifying syzygy quadruple, split by dim V.

Each pipeline receives the singly graded analysis (minimal n, f', g, the
completed generator list) and produces four syzygies S, S1, S2, S3 on the
completed generators whose strand described in :mod:`tensurf.strand` is a
square matrix of size 2ab.  The verification battery re-checks every
construction identity exactly, then the annihilation, homogeneity and
column counts of the four syzygies.

All three pipelines require b >= 2n - 1 (membership threshold for the
two-generator solves).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import hburch, linalg, membership
from .bipoly import (BiPoly, CertificateError, HypothesisError, UniHomPoly,
                     coeff_vector, divide_by_uni, dot, multiplication_matrix)
from .hburch import GradedSyzMatrix, HBResolution
from .syzygy import VAnalysis


@dataclass(frozen=True)
class SyzygyColumn:
    label: str
    bidegree: tuple[int, int]
    entries: tuple[BiPoly, BiPoly, BiPoly, BiPoly]


@dataclass(frozen=True)
class CaseResult:
    analysis: VAnalysis
    case_tag: str
    syzygies: tuple[SyzygyColumn, ...]
    aux: dict
    checks: dict[str, bool]


def expected_column_counts(syzygies: Sequence[SyzygyColumn], a: int, b: int
                           ) -> list[int]:
    """Strand column count contributed by each syzygy."""
    out = []
    for col in syzygies:
        c, d = col.bidegree
        out.append(max(0, 2 * a - c) * max(0, b - d))
    return out


def _mat_vec(mat: GradedSyzMatrix, coeffs: Sequence[BiPoly]) -> list[BiPoly]:
    """Product of a graded matrix with a vector of bigraded polynomials."""
    return [dot([e.to_bipoly() for e in row], coeffs, BiPoly.zero(mat.p))
            for row in mat.entries]


def _check_annihilation(cols: Sequence[SyzygyColumn], gens: Sequence[BiPoly],
                        a: int, b: int, p: int) -> bool:
    """Whether each column S of bidegree (c, d) annihilates the generators
    of bidegree (a, b): [M(g0) | ... | M(g3)] vec(S) = 0, where M(g) is the
    multiplication matrix of g by bidegree (c, d)."""
    grids = [coeff_vector(g, a, b).reshape(a + 1, b + 1) for g in gens]
    for col in cols:
        c, d = col.bidegree
        M = np.hstack([multiplication_matrix(g, c, d) for g in grids])
        vec = np.concatenate([coeff_vector(e, c, d) for e in col.entries])
        if linalg.matmul_mod(M, vec[:, None], p).any():
            return False
    return True


def _finish(va: VAnalysis, tag: str, cols: list[SyzygyColumn], aux: dict,
            checks: dict[str, bool]) -> CaseResult:
    a, b = va.input.a, va.input.b
    # coefficient vectors exist only for homogeneous entries
    homogeneous = all(e.is_bihomogeneous(*col.bidegree)
                      for col in cols for e in col.entries)
    checks["annihilation"] = homogeneous and _check_annihilation(
        cols, va.new_gens, a, b, va.input.field.p)
    checks["homogeneity"] = homogeneous
    counts = expected_column_counts(cols, a, b)
    checks["column_count"] = sum(counts) == 2 * a * b
    aux = dict(aux)
    aux["column_counts"] = counts
    failed = [k for k, ok in checks.items() if not ok]
    if failed:
        raise CertificateError(f"{tag} verification failed: {', '.join(failed)}")
    return CaseResult(va, tag, tuple(cols), aux, checks)


def _combination_vanishes(cols: Sequence[SyzygyColumn],
                          coeffs: Sequence[BiPoly], p: int) -> bool:
    """Whether sum_k coeffs[k] * cols[k] is the zero column."""
    return all(dot([col.entries[i] for col in cols], coeffs,
                   BiPoly.zero(p)).is_zero for i in range(4))


def run_case(va: VAnalysis, check_level: str = "full") -> CaseResult:
    # every check always runs; check_level accepts only "full" and stays
    # because perfbench/run.py passes it, until the benchmark drops it
    if check_level != "full":
        raise ValueError("check_level must be 'full'")
    if va.input.b < 2 * va.n - 1:
        raise HypothesisError(
            f"b = {va.input.b} is below 2n - 1 = {2 * va.n - 1}")
    if va.dim_v == 2:
        return _run_dim2(va)
    if va.dim_v == 3:
        return _run_dim3(va)
    if va.dim_v == 4:
        return _run_dim4(va)
    raise CertificateError(f"unsupported dim V = {va.dim_v}")


# ---------------------------------------------------------------------------
# dim V = 2


def _run_dim2(va: VAnalysis) -> CaseResult:
    p = va.input.field.p
    a, b, n = va.input.a, va.input.b, va.n
    g0, g1 = va.g
    f0p, f1p = va.f_prime
    try:
        alpha = divide_by_uni(f0p, g1)
    except ValueError as exc:
        raise CertificateError(f"f'_0 is not a multiple of g_1: {exc}") from exc
    checks: dict[str, bool] = {}
    checks["alpha_consistent"] = (f1p + alpha * g0.to_bipoly()).is_zero
    p2, p3 = va.new_gens[2], va.new_gens[3]
    neg_g0 = -g0
    cert_q = membership.two_gen_solve(p2, g1, neg_g0)
    cert_r = membership.two_gen_solve(p3, g1, neg_g0)
    q1, q0 = cert_q.x0, cert_q.x1
    r1, r0 = cert_r.x0, cert_r.x1
    zero = BiPoly.zero(p)
    cols = [
        SyzygyColumn("S", (0, n), (g0.to_bipoly(), g1.to_bipoly(), zero, zero)),
        SyzygyColumn("S1", (a, b - n), (q1, q0, -alpha, zero)),
        SyzygyColumn("S2", (a, b - n), (r1, r0, zero, -alpha)),
    ]
    aux = {"alpha": alpha, "q": (q0, q1), "r": (r0, r1), "g": va.g}
    return _finish(va, "dim2", cols, aux, checks)


# ---------------------------------------------------------------------------
# dim V = 3 and 4: the Hilbert-Burch matrix psi of g


def _psi_prologue(va: VAnalysis, checks: dict[str, bool]
                  ) -> tuple[HBResolution, list[int], list[HBResolution],
                             list[BiPoly]]:
    """psi with signed minors g, its column degrees mu_j (summing to n), the
    resolutions phi_j of its columns, and the alphas with psi alpha = f'."""
    n = va.n
    psi = hburch.hilbert_burch_psi(va.g, va.input.field.p)
    mus = [cd - n for cd in psi.matrix.col_degrees]
    if sum(mus) != n:
        raise CertificateError("column degrees of psi do not sum to n")
    checks["psi_minors"] = all((x - y).is_zero
                               for x, y in zip(psi.minors, va.g))
    phis = hburch.column_resolutions(psi)
    alphas = membership.psi_solve(list(va.f_prime), psi, va.input.a,
                                  va.input.b)
    return psi, mus, phis, alphas


def _run_dim3(va: VAnalysis) -> CaseResult:
    p = va.input.field.p
    a, b, n = va.input.a, va.input.b, va.n
    checks: dict[str, bool] = {}
    psi, mus, phis, alphas = _psi_prologue(va, checks)
    phi1, phi2 = phis
    alpha1, alpha2 = alphas

    c1 = psi.matrix.column(0)
    c2 = psi.matrix.column(1)
    h_q = hburch.transpose_product(c2, phi1.matrix)
    h_r = hburch.transpose_product(c1, phi2.matrix)
    p3 = va.new_gens[3]
    cert_q = membership.two_gen_solve(alpha1, h_q[0], h_q[1],
                                      st_degree=a, uv_degree=b - mus[0])
    cert_r = membership.two_gen_solve(alpha2, h_r[0], h_r[1],
                                      st_degree=a, uv_degree=b - mus[1])
    cert_m = membership.two_gen_solve(p3, h_q[0], h_q[1])
    cert_n = membership.two_gen_solve(p3, h_r[0], h_r[1])
    q = (cert_q.x0, cert_q.x1)
    r = (cert_r.x0, cert_r.x1)
    mm = (cert_m.x0, cert_m.x1)
    nn = (cert_n.x0, cert_n.x1)

    phi1q = _mat_vec(phi1.matrix, list(q))
    phi2r = _mat_vec(phi2.matrix, list(r))
    phi1m = _mat_vec(phi1.matrix, list(mm))
    phi2n = _mat_vec(phi2.matrix, list(nn))
    theta_col = [x - y for x, y in zip(phi1q, phi2r)]

    zero = BiPoly.zero(p)
    cols = [
        SyzygyColumn("S", (0, n), (va.g[0].to_bipoly(), va.g[1].to_bipoly(),
                                   va.g[2].to_bipoly(), zero)),
        SyzygyColumn("S1", (a, b - n), (*theta_col, zero)),
        SyzygyColumn("S2", (a, b - mus[1]), (*phi1m, -alpha2)),
        SyzygyColumn("S3", (a, b - mus[0]), (*phi2n, -alpha1)),
    ]

    n0 = (q[0] * mm[1] - q[1] * mm[0]) + (r[0] * nn[1] - r[1] * nn[0])
    nvec = (n0, p3, -alpha1, alpha2)
    # signed 2x2 minors of Theta = [phi1 q - phi2 r | g] recover f': minor
    # i is the determinant of rows i + 1 and i + 2, cyclically
    theta = [(x, gk.to_bipoly()) for x, gk in zip(theta_col, va.g)]
    checks["theta_minors"] = all(
        (x0 * y1 - y0 * x1 - f).is_zero
        for ((x0, y0), (x1, y1)), f in zip(
            [(theta[1], theta[2]), (theta[2], theta[0]),
             (theta[0], theta[1])], va.f_prime))
    checks["kernel_vector"] = _combination_vanishes(cols, nvec, p)
    checks["alpha_coprime"] = membership.bihomog_coprime(alpha1, alpha2)
    aux = {"mu": mus[0], "mus": tuple(mus), "psi": psi, "phis": phis,
           "alphas": tuple(alphas), "q": q, "r": r, "m": mm, "n_pair": nn,
           "theta_col": tuple(theta_col), "N": nvec}
    return _finish(va, "dim3", cols, aux, checks)


def _run_dim4(va: VAnalysis) -> CaseResult:
    p = va.input.field.p
    a, b, n = va.input.a, va.input.b, va.n
    checks: dict[str, bool] = {}
    psi, mus, phis, alphas = _psi_prologue(va, checks)
    alpha1, alpha2, alpha3 = alphas
    gammas = hburch.gamma_matrices(psi, phis)

    comp12 = hburch.compose(phis[1].matrix, gammas[(0, 1)].matrix,
                            [mus[0]] * 4)
    comp13 = hburch.compose(phis[2].matrix, gammas[(0, 2)].matrix,
                            [mus[0]] * 4)
    comp23 = hburch.compose(phis[2].matrix, gammas[(1, 2)].matrix,
                            [mus[1]] * 4)

    c1 = psi.matrix.column(0)
    c2 = psi.matrix.column(1)
    c3 = psi.matrix.column(2)
    h_a = hburch.transpose_product(c2, comp13)  # targets alpha1, alpha3
    h_b = hburch.transpose_product(c3, comp12)  # targets alpha1, alpha2
    h_c = hburch.transpose_product(c1, comp23)  # targets alpha2, alpha3

    def solve(target: BiPoly, h: list[UniHomPoly], d: int) -> tuple[BiPoly, BiPoly]:
        cert = membership.two_gen_solve(target, h[0], h[1],
                                        st_degree=a, uv_degree=d)
        return cert.x0, cert.x1

    a2 = solve(alpha1, h_a, b - mus[0])
    a3 = solve(alpha1, h_b, b - mus[0])
    b3 = solve(alpha2, h_b, b - mus[1])
    b1 = solve(alpha2, h_c, b - mus[1])
    c2p = solve(alpha3, h_a, b - mus[2])
    c1p = solve(alpha3, h_c, b - mus[2])

    s1 = [x - y for x, y in zip(_mat_vec(comp12, list(b3)),
                                _mat_vec(comp13, list(c2p)))]
    s2 = [x - y for x, y in zip(_mat_vec(comp23, list(c1p)),
                                _mat_vec(comp12, list(a3)))]
    s3 = [x - y for x, y in zip(_mat_vec(comp13, list(a2)),
                                _mat_vec(comp23, list(b1)))]

    cols = [
        SyzygyColumn("S", (0, n), tuple(gk.to_bipoly() for gk in va.g)),
        SyzygyColumn("S1", (a, b - n + mus[0]), tuple(s1)),
        SyzygyColumn("S2", (a, b - n + mus[1]), tuple(s2)),
        SyzygyColumn("S3", (a, b - mus[0] - mus[1]), tuple(s3)),
    ]

    hh = (-(a2[0] * c2p[1] - a2[1] * c2p[0])
          - (b1[0] * c1p[1] - b1[1] * c1p[0])
          - (a3[0] * b3[1] - a3[1] * b3[0]))
    nvec = (hh, alpha1, alpha2, alpha3)
    checks["alpha_combination"] = _combination_vanishes(cols, nvec, p)
    checks["gamma_minors"] = all(
        (x - y).is_zero for (i, j), gamma in gammas.items()
        for x, y in zip(gamma.minors, hburch.transpose_product(
            psi.matrix.column(i), phis[j].matrix)))
    checks["alpha12_coprime"] = membership.bihomog_coprime(alpha1, alpha2)
    aux = {"mus": tuple(mus), "psi": psi, "phis": phis, "gammas": gammas,
           "alphas": tuple(alphas), "a2": a2, "a3": a3, "b3": b3, "b1": b1,
           "c2": c2p, "c1": c1p, "H": hh,
           "composites": {"12": comp12, "13": comp13, "23": comp23},
           "N": nvec}
    return _finish(va, "dim4", cols, aux, checks)
