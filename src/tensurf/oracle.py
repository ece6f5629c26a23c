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
multiple of a power of the recovered equation, and screens the input for
basepoints via pairwise resultants.  That proof, in F's own coordinates,
goes block by block: the strand's zero pattern permutes it into diagonal
blocks B_i of sizes n_i, and each det B_i = c_i F^(n_i / deg F) is proved
by the same kind of argument: a form of degree n_i vanishing on the
principal lattice {(1, i, j, k) : i + j + k <= n_i}, nodes 0..n_i distinct
mod p, is zero (Chung & Yao, SIAM J. Numer. Anal. 14, 1977).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, replace
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (CertificateError, FieldConfig, HypothesisError,
                     UniHomPoly, _upoly_divide, _upoly_gcd, _upoly_mod,
                     _upoly_mul, _upoly_strip, uni_gcd)
from .cases import CaseResult, run_case
from .membership import resultant_uv
from .planes import peel
# reconstruct_det, divide_with_remainder and linear_substitute are unused
# here; perfbench/spans.py wraps them in this module's namespace.
from .strand import Strand, build_strand, reconstruct_det  # noqa: F401
from .syzygy import SurfaceInput, VAnalysis, analyze
from .xpoly import (XPoly, divide_with_remainder, eval_form,  # noqa: F401
                    eval_matrix, grid_from_bipoly, linear_substitute)

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
    gen_grids = [grid_from_bipoly(g, a, b) for g in inp.gens]

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
    """Outcome of the resultant-based basepoint screen.

    ``free`` certifies there is no common zero even over the algebraic
    closure: on each chart a prefix of the six pairwise resultants has
    constant gcd.
    ``basepoint`` means some specialization at a base-field root of a gcd
    left the four generators with a nonconstant common factor, which has a
    common zero over the closure; ``witness`` carries a verified base-field
    zero when one exists.  ``undetermined`` means a gcd is nonconstant but
    no base-field root confirmed a common zero; zeros may live in an
    extension field.  ``g_uv`` and ``g_st`` are the resultant gcds of the
    two charts (in (s, t) and (u, v) respectively); ``candidates`` lists
    the base-field roots that were examined.
    """

    status: str
    witness: Optional[tuple[int, int, int, int]]
    g_uv: UniHomPoly
    g_st: UniHomPoly
    candidates: tuple[tuple[int, int], ...]
    detail: str


def _pow_poly_mod(base: list[int], e: int, mod: list[int], p: int) -> list[int]:
    result = [1]
    acc = _upoly_mod(base[:], mod, p)
    while e:
        if e & 1:
            result = _upoly_mod(_upoly_mul(result, acc, p), mod, p)
        acc = _upoly_mod(_upoly_mul(acc, acc, p), mod, p)
        e >>= 1
    return result


def _poly_roots(coeffs: Sequence[int], p: int, rng) -> list[int]:
    """All roots in F_p of a univariate polynomial, ascending coefficients."""
    f = _upoly_strip([c % p for c in coeffs])
    if len(f) <= 1:
        return []
    # x^p - x mod f isolates the product of distinct linear factors
    h = _pow_poly_mod([0, 1], p, f, p)
    h = h + [0] * (2 - len(h))
    h[1] = (h[1] - 1) % p
    h = _upoly_strip(h)
    g = _upoly_gcd(f, h, p) if h else [c * pow(f[-1], -1, p) % p for c in f]

    def split(g: list[int]) -> list[int]:
        if len(g) <= 1:
            return []
        if len(g) == 2:
            return [-g[0] * pow(g[1], -1, p) % p]
        while True:
            r = rng.randrange(p)
            h = _pow_poly_mod([r, 1], (p - 1) // 2, g, p)
            h = h + [0] * (1 - len(h))
            h[0] = (h[0] - 1) % p
            h = _upoly_strip(h)
            if not h:
                continue
            w = _upoly_gcd(g, h, p)
            if 0 < len(w) - 1 < len(g) - 1:
                rest = _upoly_divide(g, w, p)
                return split(w) + split(rest)

    return sorted(split(g))


def _form_roots(form: UniHomPoly, rng) -> list[tuple[int, int]]:
    """Projective roots of a nonzero binary form that lie over F_p."""
    p = form.p
    roots = [(1, z) for z in _poly_roots(list(form.coeffs), p, rng)]
    if form.coeffs[form.degree] == 0:
        roots.append((0, 1))
    return roots


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


def _specialized_gcd(inp: SurfaceInput, s0: int, t0: int) -> UniHomPoly:
    acc: Optional[UniHomPoly] = None
    for g in inp.gens:
        h = g.substitute_st(s0, t0, inp.b)
        acc = h if acc is None else uni_gcd(acc, h)
    assert acc is not None
    return acc


def _probe_root(inp: SurfaceInput, s0: int, t0: int, rng
                ) -> Optional[tuple[Optional[tuple[int, int, int, int]], str]]:
    """(witness, detail) of a basepoint if the generators specialized at
    (s0 : t0) share a nonconstant factor, else None; the witness is a
    verified common zero over F_p, or None."""
    acc = _specialized_gcd(inp, s0, t0)
    if acc.is_zero or acc.degree == 0:
        return None
    witness = None
    for u0, v0 in _form_roots(acc, rng):
        if all(g.eval((s0, t0, u0, v0)) == 0 for g in inp.gens):
            witness = (s0, t0, u0, v0)
            break
    detail = ("verified common zero of all four generators" if witness
              else f"generators specialized at ({s0} : {t0}) share a factor "
                   f"of degree {acc.degree}; its zeros lie in an extension "
                   "field")
    return witness, detail


def basepoint_check(inp: SurfaceInput) -> BasepointReport:
    """Screen the generators for common zeros on P^1 x P^1.

    On each chart the pairwise resultants are taken only until a prefix of
    them has constant gcd; constant gcds on both charts prove there is
    none.  Otherwise base-field roots of the gcds, each over all six
    resultants of its chart, are probed for a confirmed common zero.
    """
    rng = inp.field.rng("basepoints")
    g_uv = _resultant_gcd(inp)
    mirror = inp.mirror()
    g_st = _resultant_gcd(mirror)
    uv_const = not g_uv.is_zero and g_uv.degree == 0
    st_const = not g_st.is_zero and g_st.degree == 0
    if uv_const and st_const:
        return BasepointReport(
            "free", None, g_uv, g_st, (),
            "pairwise resultants have constant gcd on both charts")

    def chart_candidates(g: UniHomPoly) -> list[tuple[int, int]]:
        if g.is_zero:
            return [(1, rng.randrange(inp.field.p)) for _ in range(5)]
        if g.degree == 0:
            return []
        return _form_roots(g, rng)

    uv_candidates = chart_candidates(g_uv)
    for s0, t0 in uv_candidates:
        hit = _probe_root(inp, s0, t0, rng)
        if hit is not None:
            return BasepointReport("basepoint", hit[0], g_uv, g_st,
                                   tuple(uv_candidates), hit[1])
    st_candidates = chart_candidates(g_st)
    for u0, v0 in st_candidates:
        hit = _probe_root(mirror, u0, v0, rng)
        if hit is not None:
            witness, detail = hit
            if witness is not None:
                # mirror coordinates come back as (u, v, s, t)
                witness = (witness[2], witness[3], witness[0], witness[1])
            return BasepointReport("basepoint", witness, g_uv, g_st,
                                   tuple(st_candidates), detail)
    parts = []
    if not uv_const:
        parts.append("uv-resultant gcd "
                     + ("vanishes identically" if g_uv.is_zero
                        else f"has degree {g_uv.degree}"))
    if not st_const:
        parts.append("st-resultant gcd "
                     + ("vanishes identically" if g_st.is_zero
                        else f"has degree {g_st.degree}"))
    return BasepointReport(
        "undetermined", None, g_uv, g_st,
        tuple(uv_candidates) + tuple(st_candidates),
        "; ".join(parts) + "; no base-field root confirmed a common zero")


# ---------------------------------------------------------------------------
# end-to-end pipeline


@dataclass(frozen=True)
class ImplicitizationResult:
    """Everything produced by one full implicitization run."""

    basepoints: Optional[BasepointReport]
    analysis: VAnalysis
    case: CaseResult
    strand: Strand
    oracle: OracleResult
    certificate: DetCertificate
    timings: dict


def implicitize(inp: SurfaceInput, basepoints: str = "check"
                ) -> ImplicitizationResult:
    """Run analysis, case construction, strand, oracle and certificate.

    The certificate proves det(strand) = c * F^d exactly (see
    :func:`verify_implicitization`).

    ``basepoints="check"`` refuses inputs with a verified basepoint and
    proceeds (recording the report) when the screen is inconclusive;
    ``"skip"`` bypasses the screen entirely.
    """
    if basepoints not in ("check", "skip"):
        raise ValueError(f"unknown basepoint mode {basepoints!r}")
    timings: dict = {}
    report: Optional[BasepointReport] = None
    start = time.perf_counter()
    if basepoints == "check":
        report = basepoint_check(inp)
        if report.status == "basepoint":
            raise HypothesisError(
                f"basepoint at {report.witness}; the construction requires "
                "a basepoint-free input")
        timings["basepoints"] = time.perf_counter() - start

    start = time.perf_counter()
    va = analyze(inp)
    case = run_case(va, check_level="full")
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
