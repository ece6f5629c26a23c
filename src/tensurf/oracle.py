"""Independent implicitization by exact point elimination.

The implicit equation F of the image surface is recovered from the
generators alone, without the syzygy pipeline.  Degree-e forms vanishing on
the image are exactly the kernel of evaluation at the image of an
(e*a + 1) x (e*b + 1) product grid of parameter values: a composed form
f(g0..g3) is bihomogeneous of bidegree (e*a, e*b), so vanishing on that grid
of distinct affine nodes forces it to vanish identically.

The degree of F is e = 2ab / d, where d is the degree of the map onto its
image.  The oracle peels a candidate off e + 1 random planes H_k =
{m_k = 0}: F = G_0 + m_0 (G_1 + m_1 (... + m_(e-1) G_e)), each G_k a form
of degree e - k in x1, x2, x3 found by a small exact solve on F_p-points
of the image X on H_k (see :mod:`tensurf.planes`).  The peel reads e off
the first plane section: e divides a known e_max, and G_0 spans the
level-0 kernel at e_max or, when that kernel is not a line, at the least
divisor of e_max with a nonzero one.  Two facts prove the candidate:

(a) it vanishes at the image of the product grid, so F(g0..g3) = 0;
(b') the degree-e forms in x1, x2, x3 vanishing at the level-0 samples,
    points of X checked exactly to lie on H_0, are the line of G_0.  So no
    nonzero form q of degree e - 1 vanishes there: x1 q, x2 q and x3 q
    would be three such forms.

Let G be the minimal equation of X.  By (a), G divides F.  F is G_0 on H_0,
and G_0 is not zero, so m_0 does not divide F, G is not m_0, and G on H_0
is a nonzero form of degree deg G vanishing at the samples; by (b'),
deg G >= e.  So F = c G: the kernel at degree e is a line and every lower
degree has a zero kernel.  Any other outcome (too few points, a level-0
kernel that is not a line, an inconsistent level solve, a failed or dead
grid) runs the degree scan, which computes the kernel of every degree 1,
2, ... on its grid up to the first nonzero one.  The result is the same
either way.

The module also proves that the strand-matrix determinant is a scalar
multiple of a power of the recovered equation.  That proof, in F's own
coordinates, goes block by block: the strand's zero pattern permutes it
into diagonal blocks B_i of sizes n_i, and each det B_i = c_i F^(n_i / deg F)
is proved by the same kind of argument: a form of degree n_i vanishing on
the principal lattice {(1, i, j, k) : i + j + k <= n_i}, nodes 0..n_i
distinct mod p, is zero (Chung & Yao, SIAM J. Numer. Anal. 14, 1977).

Last, it screens the input for basepoints exactly: pairwise resultants
with constant gcd prove the usual input free, and a rank test in bidegree
(3a - 1, 2b - 1) settles every other one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (CertificateError, FieldConfig, HypothesisError,
                     UniHomPoly, multiplication_matrix, uni_gcd)
from .cases import CaseResult, run_case
from .membership import resultant_uv
from .planes import peel
# reconstruct_det, divide_with_remainder and linear_substitute are unused
# here; perfbench/spans.py wraps them in this module's namespace.
from .strand import Strand, build_strand, reconstruct_det  # noqa: F401
from .syzygy import SurfaceInput, VAnalysis, analyze
from .xpoly import (XPoly, divide_with_remainder, eval_form,  # noqa: F401
                    eval_matrix, linear_substitute)

__all__ = [
    "check_prime_floor", "OracleResult", "implicit_by_elimination",
    "DetCertificate", "verify_implicitization",
    "BasepointReport", "basepoint_check",
    "ImplicitizationResult", "implicitize",
]


# ---------------------------------------------------------------------------
# elimination oracle


@dataclass(frozen=True)
class OracleResult:
    """Implicit equation recovered by point elimination.

    ``kernel_dims`` records, per scanned degree, the exact dimension of the
    space of forms of that degree vanishing on the image.  A final dimension
    of one identifies the unique minimal equation; a larger value signals
    that the image is not a hypersurface of that degree (the first canonical
    kernel vector is still returned, and downstream certification will
    reject it).  When the equation was peeled off plane sections, at the
    degree e the peel read off them, the dimension 1 at e and the zero
    dimensions below it are proved (facts (a) and (b') of the module
    docstring) rather than computed.
    """

    f: XPoly
    degree: int
    kernel_dims: tuple[tuple[int, int], ...]
    grid_shape: tuple[int, int]

    @property
    def kernel_dim(self) -> int:
        return self.kernel_dims[-1][1]


def _normalized(vec: NDArray[np.int64], p: int) -> NDArray[np.int64]:
    """The multiple of a nonzero vector whose first nonzero entry is 1."""
    vec = vec % p
    return vec * pow(int(vec[np.flatnonzero(vec)[0]]), -1, p) % p


def _vanishes_at(degree: int, points: NDArray[np.int64], vec: NDArray[np.int64],
                 p: int) -> bool:
    """Whether the form with coefficients ``vec`` is zero at every point."""
    f = XPoly.from_coeff_vector(p, degree, vec)
    return not eval_form(f.coeff_cube(degree), degree, points, p).any()


def check_prime_floor(a: int, b: int, p: int) -> None:
    """Raise ValueError when p is below the pipeline's floor 2ab*max(a, b) + 1.

    The oracle draws 2ab*a + 1 and 2ab*b + 1 distinct product-grid nodes
    from F_p.  The floor also covers the 2ab + 1 lattice nodes of the exact
    certificate and the 2ab + 1 resultant samples of the basepoint screen.
    """
    floor = 2 * a * b * max(a, b) + 1
    if p < floor:
        raise ValueError(
            f"prime {p} is below the floor {floor} = 2ab*max(a, b) + 1 "
            f"for bidegree ({a}, {b})")


def implicit_by_elimination(inp: SurfaceInput) -> OracleResult:
    """The minimal implicit equation of the image, normalized to a leading 1.

    :func:`tensurf.planes.peel` reads the degree e = 2ab / d off its first
    plane section and peels a candidate off e + 1 of them; it is checked
    exactly on the image of the (e*a + 1) x (e*b + 1) product grid.  With
    the level-0 kernel of the peel a line, passing proves it is the
    equation and that no lower degree has one (b' in the module
    docstring), so those degrees are reported with kernel dimension 0
    without being computed.  Any failure scans the degrees 1..2ab in order
    on product grids up to the first nonzero kernel.  Both paths return the
    same result.
    """
    p, a, b = inp.field.p, inp.a, inp.b
    check_prime_floor(a, b, p)
    size = 2 * a * b
    rng = inp.field.rng("oracle")
    t_nodes = rng.sample(range(p), size * a + 1)
    v_nodes = rng.sample(range(p), size * b + 1)
    gen_grids = list(inp.grids())

    def grid_points(e: int) -> NDArray[np.int64]:
        tv = linalg.vandermonde(t_nodes[:e * a + 1], a + 1, p)
        vv = linalg.vandermonde(v_nodes[:e * b + 1], b + 1, p)
        return np.stack(
            [linalg.matmul_mod(linalg.matmul_mod(tv, g, p), vv.T, p).reshape(-1)
             for g in gen_grids], axis=1)

    def result(e: int, vec: NDArray[np.int64],
               dims: list[tuple[int, int]]) -> OracleResult:
        return OracleResult(
            f=XPoly.from_coeff_vector(p, e, vec), degree=e,
            kernel_dims=tuple(dims), grid_shape=(e * a + 1, e * b + 1))

    peeled = peel(inp, gen_grids)
    if peeled is not None:
        e, vec = peeled
        vec = _normalized(vec, p)
        points = grid_points(e)
        # A dead grid point is left to the scan, which reports it.
        if points.any(axis=1).all() and _vanishes_at(e, points, vec, p):
            return result(e, vec, [(k, 0) for k in range(1, e)] + [(e, 1)])

    dims: list[tuple[int, int]] = []
    for e in range(1, size + 1):
        points = grid_points(e)
        dead = np.flatnonzero(~points.any(axis=1))
        if dead.size:
            r = int(dead[0])
            nv = e * b + 1
            raise HypothesisError(
                "all four generators vanish at parameter point "
                f"(1, {t_nodes[r // nv]}, 1, {v_nodes[r % nv]}); "
                "the input has a basepoint")
        kern = linalg.kernel_basis(eval_matrix(e, points, p), p)
        dims.append((e, len(kern)))
        if kern:
            return result(e, _normalized(kern[0], p), dims)
    raise HypothesisError(
        f"no implicit equation of degree <= {size} vanishes on the image; "
        "the input is degenerate")


# ---------------------------------------------------------------------------
# determinant certificate


# Random points of the pre-check that runs before each block's lattice proof.
PRECHECK_POINTS = 40


@dataclass(frozen=True)
class DetCertificate:
    """Proved relation det(strand) = c * F^exponent.

    ``blocks`` lists the sizes of the strand's diagonal blocks, each proved
    on its own lattice; ``n_points`` and ``mode`` name the random pre-check
    and the exact lattice proof that every certificate passes.
    """

    c: int
    exponent: int
    blocks: tuple[int, ...]
    n_points: int = PRECHECK_POINTS
    mode: str = "interpolate"


def _lattice_values(cube: NDArray[np.int64], size: int, p: int
                    ) -> NDArray[np.int64]:
    """The form with coefficients ``cube`` at x0 = 1 on the points of
    ``_principal_lattice(size)``: on {0..size}^3, ``cube`` contracted on each
    axis with the Vandermonde matrix of the nodes (three ``matmul_mod``
    products), then masked to i + j + k <= size."""
    nodes = np.arange(size + 1)
    vander = linalg.vandermonde(nodes, len(cube), p)
    for _ in range(3):   # contract the first axis; the new one goes last
        cube = np.moveaxis(linalg.matmul_mod(vander, cube.reshape(
            len(cube), -1), p).reshape(-1, *cube.shape[1:]), 0, -1)
    return cube[nodes[:, None, None] + nodes[:, None] + nodes <= size]


def _principal_lattice(degree: int) -> NDArray[np.int64]:
    """The C(degree + 3, 3) points (1, i, j, k) with i + j + k <= degree,
    in lexicographic order of (i, j, k)."""
    i, j, k = np.indices((degree + 1,) * 3, dtype=np.int64).reshape(3, -1)
    keep = i + j + k <= degree
    i, j, k = i[keep], j[keep], k[keep]
    return np.stack([np.ones_like(i), i, j, k], axis=1)


def _blocks(tensor: NDArray[np.int64]
            ) -> list[tuple[NDArray[np.int64], NDArray[np.int64]]]:
    """Rows and columns of each connected component of the nonzero pattern
    of a (size, size, 4) tensor, rows and columns taken as the two sides of
    a bipartite graph (union-find).  Components come in order of their
    first row; one without rows (a zero column) comes last."""
    n = len(tensor)
    root = list(range(2 * n))   # rows 0..n-1, columns n..2n-1

    def find(x: int) -> int:
        while root[x] != x:
            root[x] = x = root[root[x]]
        return x

    for r, c in np.argwhere(tensor.any(axis=2)).tolist():
        root[find(r)] = find(n + c)
    label = np.array([find(x) for x in range(2 * n)])
    return [(np.flatnonzero(label[:n] == g), np.flatnonzero(label[n:] == g))
            for g in dict.fromkeys(label.tolist())]


def _sign(perm: NDArray[np.int64]) -> int:
    """The sign of a permutation, from the parity of its inversions."""
    return -1 if np.triu(perm[:, None] > perm).sum() % 2 else 1


def verify_implicitization(strand: Strand, oracle: OracleResult,
                           point_transform: NDArray[np.int64],
                           field: FieldConfig) -> DetCertificate:
    """Prove det(strand) = c * F^d with d = size / deg F, block by block.

    M acts on the changed generator basis and F on the original one:
    det M(y) = c F(T y)^d, T = ``point_transform``.  For invertible T (else
    CertificateError) that is det M(T^-1 z) = c F(z)^d, checked in F's
    coordinates on M's linear forms moved once by T^-1, which keeps M's
    zero pattern.  Its connected components (``_blocks``) permute M into
    diagonal blocks B_i, so det M = sigma prod det B_i, sigma the sign of
    the two permutations.  A block of size n_i is proved on its own:
    det B_i = c_i F^(n_i / e), e = deg F, with c_i fitted at the first of
    ``PRECHECK_POINTS`` random points where both sides are nonzero
    (checking them all rejects most wrong inputs cheaply), then on the
    principal lattice {(1, i, j, k) : i + j + k <= n_i}, unisolvent for
    forms of degree n_i when p > n_i (p > size, else ValueError): both
    sides are such forms, so agreement proves it.  So det M = c F^d with
    c = sigma prod c_i.  A component that is not square (det M = 0) or
    whose size e does not divide fails.
    """
    p, e = field.p, oracle.degree
    if p <= strand.size:
        raise ValueError(
            f"the exact certificate needs p > {strand.size} so that the "
            f"lattice nodes 0..{strand.size} are distinct mod p")
    if linalg.rank(point_transform, p) < 4:
        raise CertificateError("the point transform is singular mod p")
    moved = linalg.matmul_mod(strand.tensor.reshape(-1, 4),
                              linalg.matrix_inverse(point_transform, p),
                              p).reshape(strand.tensor.shape)
    blocks = _blocks(moved)
    for rows, cols in blocks:
        if len(rows) != len(cols):
            raise CertificateError(
                f"the strand has a {len(rows)} x {len(cols)} component of "
                "nonzero entries, so its determinant is zero")
        if len(rows) % e:
            raise CertificateError(
                f"implicit degree {e} does not divide the block size "
                f"{len(rows)}")
    c = math.prod(_sign(np.concatenate(side)) for side in zip(*blocks)) % p
    cube = oracle.f.coeff_cube(e)
    rng = field.rng("certificate")
    pts = np.array([[rng.randrange(p) for _ in range(4)]
                    for _ in range(PRECHECK_POINTS)], dtype=np.int64)
    f_pts = eval_form(cube, e, pts, p)
    for index, (rows, cols) in enumerate(blocks):
        n, k = len(rows), len(rows) // e
        lattice = _principal_lattice(n)
        dets = replace(strand, size=n, tensor=moved[np.ix_(
            rows, cols)]).det_at_many(np.vstack([pts, lattice]))
        lhs, rhs = dets[:PRECHECK_POINTS], linalg.pow_mod_array(f_pts, k, p)
        fit = np.flatnonzero(lhs * rhs % p)
        if not fit.size:
            raise CertificateError(
                f"block {index}: no sample point has det and F both nonzero")
        c_i = int(lhs[fit[0]]) * pow(int(rhs[fit[0]]), -1, p) % p
        bad = np.count_nonzero(lhs != c_i * rhs % p)
        if bad:
            raise CertificateError(
                f"block {index}: det = c * F^{k} fails at {bad} of "
                f"{PRECHECK_POINTS} sample points")
        rhs = linalg.pow_mod_array(_lattice_values(cube, n, p), k, p)
        bad = np.count_nonzero(dets[PRECHECK_POINTS:] != c_i * rhs % p)
        if bad:
            raise CertificateError(
                f"block {index}: det = c * F^{k} fails at {bad} of "
                f"{len(lattice)} principal lattice points")
        c = c * c_i % p
    return DetCertificate(c=c, exponent=strand.size // e,
                          blocks=tuple(len(r) for r, _ in blocks))


# ---------------------------------------------------------------------------
# basepoint screening


@dataclass(frozen=True)
class BasepointReport:
    """Exact outcome of the basepoint screen.

    ``free`` proves there is no common zero on P^1 x P^1 even over the
    algebraic closure, and ``basepoint`` proves there is one; ``detail``
    names the test that settled it.  ``g_uv`` and ``g_st`` are the
    resultant gcds of the two charts (in (s, t) and (u, v) respectively).
    """

    status: str
    g_uv: UniHomPoly
    g_st: UniHomPoly
    detail: str


def _resultant_gcd(inp: SurfaceInput) -> UniHomPoly:
    """gcd in (s, t) of the pairwise uv-resultants of the generators.

    A common zero makes every pairwise resultant vanish at its (s : t), so
    once the gcd of a prefix of the six is the constant 1 the input is free
    on this chart and the gcd of all six, which divides it, is 1 as well;
    the loop stops there.
    """
    deg = (inp.a, inp.b)
    acc = UniHomPoly.zero(inp.field.p, 0)
    for i, j in combinations(range(4), 2):
        acc = uni_gcd(acc, resultant_uv(inp.gens[i], inp.gens[j], deg, deg,
                                        inp.field.p))
        if acc.degree == 0 and not acc.is_zero:
            break
    return acc


def _spans_bidegree(inp: SurfaceInput) -> bool:
    """Whether the generators times the forms of bidegree (2a - 1, b - 1)
    span every form of bidegree (3a - 1, 2b - 1): rank 6ab for the
    6ab x 8ab matrix of their four multiplication matrices by (2a - 1, b - 1).

    That holds exactly when the generators have no common zero on
    P^1 x P^1 over the algebraic closure.  Let I be the ideal they generate.

    * Rank 6ab puts every monomial of bidegree (3a - 1, 2b - 1) in I, and
      at any point one of s^(3a-1) u^(2b-1), s^(3a-1) v^(2b-1),
      t^(3a-1) u^(2b-1) or t^(3a-1) v^(2b-1) is nonzero.
    * With no common zero, three general combinations q1, q2, q3 of the
      generators have none either: their common zeros form the fibre of
      the map over a general point of P^3, which lies off the image.  So
      their Koszul complex of sheaves is exact, and twisted by
      O(3a - 1, 2b - 1) it reads 0 -> O(-1, -b - 1) -> O(a - 1, -1)^3 ->
      O(2a - 1, b - 1)^3 -> O(3a - 1, 2b - 1) -> 0.  On P^1 x P^1,
      H^1(O(a - 1, -1)) = 0 and H^2(O(-1, -b - 1)) = 0 (Kunneth), so the
      kernel of the last map has no H^1 and the q_i times forms of
      bidegree (2a - 1, b - 1) already span bidegree (3a - 1, 2b - 1).

    The matrix has entries in F_p, so its rank over F_p is its rank over
    the closure: the test is exact at every prime.
    """
    a, b = inp.a, inp.b
    M = np.hstack([multiplication_matrix(g, 2 * a - 1, b - 1)
                   for g in inp.grids()])
    return linalg.rank(M, inp.field.p) == 6 * a * b


def basepoint_check(inp: SurfaceInput) -> BasepointReport:
    """Screen the generators for common zeros on P^1 x P^1, exactly.

    On each chart the pairwise resultants are taken only until a prefix of
    them has constant gcd; constant gcds on both charts prove there is
    none.  Otherwise the rank test of :func:`_spans_bidegree` decides.
    """
    g_uv = _resultant_gcd(inp)
    g_st = _resultant_gcd(inp.mirror())
    if all(not g.is_zero and g.degree == 0 for g in (g_uv, g_st)):
        return BasepointReport(
            "free", g_uv, g_st,
            "pairwise resultants have constant gcd on both charts")
    target = f"bidegree ({3 * inp.a - 1}, {2 * inp.b - 1})"
    if _spans_bidegree(inp):
        return BasepointReport(
            "free", g_uv, g_st,
            f"the generators' multiples span {target}")
    return BasepointReport(
        "basepoint", g_uv, g_st,
        f"the generators' multiples do not span {target}, so they have a "
        "common zero")


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class ImplicitizationResult:
    """Everything produced by one full implicitization run."""

    basepoints: BasepointReport
    analysis: VAnalysis
    case: CaseResult
    strand: Strand
    oracle: OracleResult
    certificate: DetCertificate
    timings: dict


def implicitize(inp: SurfaceInput) -> ImplicitizationResult:
    """Run the whole chain: prime floor, basepoint screen, analysis, case
    construction, strand, oracle and certificate.

    A prime below :func:`check_prime_floor` raises ValueError and an input
    with a basepoint (:func:`basepoint_check`) raises HypothesisError.  The
    certificate proves det(strand) = c * F^d exactly (see
    :func:`verify_implicitization`).
    """
    check_prime_floor(inp.a, inp.b, inp.field.p)
    timings: dict = {}
    start = time.perf_counter()
    report = basepoint_check(inp)
    if report.status == "basepoint":
        raise HypothesisError(f"basepoint: {report.detail}")
    timings["basepoints"] = time.perf_counter() - start

    start = time.perf_counter()
    va = analyze(inp)
    case = run_case(va)
    timings["analysis"] = time.perf_counter() - start

    start = time.perf_counter()
    strand = build_strand(case)
    timings["strand"] = time.perf_counter() - start

    start = time.perf_counter()
    oracle = implicit_by_elimination(inp)
    timings["oracle"] = time.perf_counter() - start

    start = time.perf_counter()
    certificate = verify_implicitization(
        strand, oracle, va.point_transform, inp.field)
    timings["certificate"] = time.perf_counter() - start
    return ImplicitizationResult(
        basepoints=report, analysis=va, case=case, strand=strand,
        oracle=oracle, certificate=certificate, timings=timings)
