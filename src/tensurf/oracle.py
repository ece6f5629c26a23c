"""Independent implicitization by exact point elimination.

The implicit equation F of the image surface is read off the strand's own
block determinants and proved from the generators.

The degree of F is e = 2ab / d, where d is the degree of the map onto its
image X.  With a strand, e = 2ab / r for one exact corank r (fact (b)
below).  Otherwise, or when that e gives no block to read F off, the
oracle reads e off the section of X by a random plane H_0 = {m_0 = 0}
(:func:`tensurf.planes.section`): e divides a known e_max, and the forms of
degree e in x1, x2, x3 vanishing at the section's samples, points of X
checked exactly to lie on H_0, must be one line, that of G_0.

The strand, built in the input generators' coordinates, F's own, has
determinant c F^d, so a diagonal block B (``Strand.blocks``) of size n = k e
has det B = c_B F^k, which its determinants on the principal lattice cut
to its degree box (below) interpolate exactly
(:meth:`tensurf.strand.Strand.det_cube`).  F is read off the first block,
smallest k first, that keeps the row identity and has det B != 0
(:func:`_read_off`): det B for k = 1, else its k-th root (:func:`_root`),
proved by det B = c_B F^k on the block's lattice.  The candidate's
coefficient cube (``XPoly.coeff_cube``) is normalized once, to a leading 1
at the first monomial of ``monomials_of_degree``.

Fact (a) and one of (b), (b') prove it:

(a) G divides F, for the minimal equation G of X.  The strand's rows are
    the monomials m of bidegree (2a - 1, b - 1) and its columns syzygies of
    g = (g0..g3), so m . M(g) = 0; the block B owns its rows R, so
    m[R] . B(g) = 0 with m[R] nonzero over F_p(s, t, u, v), and
    det B(g) = 0 (:func:`_row_identity` checks it exactly).  So G divides
    det B = c_B F^k and, being irreducible, F;
(b) d <= r for the corank r of M at one image point phi(P), when the row
    identity holds on every column and 1 <= r, r + 1 <= min(2a, b)
    (:func:`_rank_degree`).  phi is finite (:func:`implicitize` screens
    out basepoints) and separable (d <= 2ab < p): a general point of X
    has d preimages P_j, and m(P_j) . M(phi(P_j)) = 0.  Forms of bidegree
    (2a - 1, b - 1) separate r + 1 points (r forms of bidegree (1, 0) or
    (0, 1), each vanishing at another point, times one not vanishing at
    P_j), so d > r would make the corank > r on all of X, rank being
    lower semicontinuous.  A rank drop at phi(P) only weakens the bound;
(b') the level-0 kernel at e is a line.  So no nonzero form q of degree
    e - 1 vanishes at the samples: x1 q, x2 q and x3 q would be three
    forms of degree e that do.

By (b), deg G = 2ab / d >= e.  By (b'): each sample is a root of m_0
composed with the map on a line where that composition is not zero, so
m_0 does not vanish on X and G is not m_0, so G on H_0 is a nonzero form
of degree deg G vanishing at the samples, and deg G >= e.  With (a),
F = c G: the kernel at degree e is a line and every lower degree has a
zero kernel.  A valid strand always has such a block: det M =
+-prod det B_i = c F^d with F irreducible makes each det B_i =
c_i F^(n_i / e) nonzero, and (a) holds on every column.  So a section's e
with none fails the strand (CertificateError); the rank's e, which a rank
drop can understate, gives way to the section first.  Where the section
gives no e, the degree scan computes the kernel of evaluation on the
product grid of every degree 1, 2, ... up to the first nonzero one
(:func:`_scan`).  The result is the same either way.

The module also proves, with no random step, that the strand-matrix
determinant is a scalar multiple of a power of the recovered equation.
That proof, in the coordinates both share, goes block by block: the zero
pattern permutes M into diagonal blocks B_i of sizes n_i, and each
det B_i = c_i F^(n_i / deg F) is proved by the same kind of argument: a form
of degree n_i vanishing on {(1, i, j, k) : i + j + k <= n_i}, the
principal lattice, nodes 0..n_i distinct mod p, is zero (Chung & Yao, SIAM
J. Numer. Anal. 14, 1977), cut to the box both sides fit in: det B_i has
degree at most b_j in x_j, the smaller of the numbers of rows and of columns
of B_i with an x_j term (:attr:`tensurf.strand.Strand.det_box`), and F's
power n_i / deg F times F's.  The cut lattice, a lower set, is unisolvent
for the forms of degree n_i in the box (:func:`tensurf.xpoly.lattice_form`).
A block equal to the one F was read off has its determinant interpolated
already and takes no second determinant: its identity is checked on
coefficients for k = 1, and on the lattice values of that interpolated
determinant for k > 1.

Last, it screens the input for basepoints exactly: pairwise resultants,
three pairs at a time, with constant gcd prove the usual input free, and a
rank test in bidegree (3a - 1, 2b - 1) settles every other one.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field as dataclass_field
from itertools import combinations
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (BiPoly, CertificateError, FieldConfig, HypothesisError,
                     mirror_poly, multiplication_matrix, uni_gcd)
from .cases import CaseResult, run_case
from .membership import resultant_uv
from .planes import section
# reconstruct_det, divide_with_remainder and linear_substitute are unused
# here; perfbench/spans.py wraps them in this module's namespace.
from .strand import Strand, build_strand, reconstruct_det  # noqa: F401
from .syzygy import SurfaceInput, VAnalysis, analyze
from .xpoly import (XPoly, eval_matrix, lattice_form, lattice_values,
                    monomials_of_degree, principal_lattice, shift_form)
from .xpoly import divide_with_remainder, linear_substitute  # noqa: F401

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
    reject it).  When F was read off a strand block, the dimension 1 at e
    and the zero dimensions below it are proved (facts (a) with (b) or
    (b') of the module docstring), not computed.  ``grid_shape`` is the
    degree scan's grid.

    ``block`` is the (n, n, 4) strand block F was read off, n = k e, and
    the coefficient cube of its determinant c F^k, or None; it records
    where F came from, so it takes no part in comparisons.
    """

    f: XPoly
    degree: int
    kernel_dims: tuple[tuple[int, int], ...]
    grid_shape: tuple[int, int]
    block: Optional[tuple[NDArray[np.int64], NDArray[np.int64]]] = (
        dataclass_field(default=None, compare=False, repr=False))

    @property
    def kernel_dim(self) -> int:
        return self.kernel_dims[-1][1]


def check_prime_floor(a: int, b: int, p: int) -> None:
    """Raise ValueError when p is below the pipeline's floor 2ab*max(a, b) + 1.

    The degree scan draws 2ab*a + 1 and 2ab*b + 1 distinct product-grid
    nodes from F_p.  The floor also covers the 2ab + 1 lattice nodes of the
    exact certificate, the 2ab + 1 resultant samples of the basepoint
    screen and the inverses of k and of 1..e that the k-th root of a block
    determinant takes (k e <= 2ab).
    """
    floor = 2 * a * b * max(a, b) + 1
    if p < floor:
        raise ValueError(
            f"prime {p} is below the floor {floor} = 2ab*max(a, b) + 1 "
            f"for bidegree ({a}, {b})")


def _result(inp: SurfaceInput, e: int, cube: NDArray[np.int64],
            dims: Sequence = (), block: Optional[tuple] = None
            ) -> OracleResult:
    """The candidate with coefficient cube ``cube``, normalized to a leading
    1; without ``dims``, the kernel dimensions are the proved 0 below e and
    1 at e."""
    p = inp.field.p
    f = XPoly.from_cube(p, e, cube)
    return OracleResult(
        f=f.scale(pow(f.terms[max(f.terms)], -1, p)), degree=e,
        kernel_dims=tuple(dims) or tuple(
            (k, int(k == e)) for k in range(1, e + 1)),
        grid_shape=(e * inp.a + 1, e * inp.b + 1), block=block)


def _scan(inp: SurfaceInput) -> OracleResult:
    """The kernel of evaluation at every degree e = 1, 2, ... up to the
    first nonzero one, whose first vector is F, on the image of the
    (e*a + 1) x (e*b + 1) product grid of the first of 2ab*a + 1 and
    2ab*b + 1 random nodes in t and in v.  A grid point where every
    generator vanishes raises HypothesisError."""
    p, a, b, size = inp.field.p, inp.a, inp.b, 2 * inp.a * inp.b
    rng = inp.field.rng("oracle")
    t_nodes, v_nodes = (rng.sample(range(p), size * n + 1) for n in (a, b))
    dims: list[tuple[int, int]] = []
    for e in range(1, size + 1):
        tv = linalg.vandermonde(t_nodes[:e * a + 1], a + 1, p)
        vv = linalg.vandermonde(v_nodes[:e * b + 1], b + 1, p)
        points = np.stack([linalg.matmul_mod(linalg.matmul_mod(tv, g, p),
                                             vv.T, p).reshape(-1)
                           for g in inp.grids], axis=1)
        dead = np.flatnonzero(~points.any(axis=1))
        if dead.size:
            r, nv = int(dead[0]), e * b + 1
            raise HypothesisError(
                "all four generators vanish at parameter point "
                f"(1, {t_nodes[r // nv]}, 1, {v_nodes[r % nv]}); "
                "the input has a basepoint")
        kern = linalg.kernel_basis(eval_matrix(e, points, p), p)
        dims.append((e, len(kern)))
        if kern:
            cube = np.zeros((e + 1,) * 3, dtype=np.int64)
            cube[tuple(np.array(monomials_of_degree(e))[:, 1:].T)] = kern[0]
            return _result(inp, e, cube, dims)
    raise HypothesisError(
        f"no implicit equation of degree <= {size} vanishes on the image; "
        "the input is degenerate")


def implicit_by_elimination(inp: SurfaceInput,
                            strand: Strand) -> OracleResult:
    """The minimal implicit equation of the image, normalized to a leading 1.

    F is read off a block of ``strand`` (:func:`_read_off`) at the e of one
    rank of ``strand``, else at the plane section's, else the degree scan
    (:func:`_scan`) gives it.  A section's e with no block to read F off
    raises CertificateError.
    """
    check_prime_floor(inp.a, inp.b, inp.field.p)
    holds = _row_identity(inp, strand)
    built: dict[int, Strand] = {}   # blocks, each with its det_values
    e = _rank_degree(inp, strand, holds)
    read = e and _read_off(strand, e, holds, built)
    if not read:
        e = section(inp, list(inp.grids))
        if e is None:
            return _scan(inp)
        read = _read_off(strand, e, holds, built)
    if not read:
        raise CertificateError(
            f"no strand block of size a multiple of e = {e} keeps the row "
            "identity and has a determinant c F^k, F of degree e (block "
            f"sizes {[len(r) for r, _ in strand.blocks]})")
    return _result(inp, e, read[1], block=read[0])


# ---------------------------------------------------------------------------
# determinant certificate


@dataclass(frozen=True)
class DetCertificate:
    """Proved relation det(strand) = c * F^exponent.

    ``blocks`` lists the sizes of the strand's diagonal blocks, each proved
    on its own lattice, or on the interpolated determinant of the block F
    was read off.
    """

    c: int
    exponent: int
    blocks: tuple[int, ...]


def _sign(perm: NDArray[np.int64]) -> int:
    """The sign of a permutation, from the parity of its inversions."""
    return -1 if np.triu(perm[:, None] > perm).sum() % 2 else 1


def _rank_degree(inp: SurfaceInput, strand: Strand,
                 holds: NDArray[np.bool_]) -> Optional[int]:
    """e = 2ab / r when the corank r of ``strand`` at one random image
    point proves deg G >= e (fact (b), with the row identity ``holds`` on
    every column) and r divides 2ab, else None."""
    p, size, rng = strand.p, strand.size, inp.field.rng("oracle-rank")
    point = (1, rng.randrange(p), 1, rng.randrange(p))
    r = size - linalg.rank(
        strand.eval_matrix_at([g.eval(point) for g in inp.gens]), p)
    if (1 <= r and r + 1 <= min(2 * inp.a, inp.b) and size % r == 0
            and holds.all()):
        return size // r
    return None


def _read_off(strand: Strand, e: int, holds: NDArray[np.bool_],
              built: dict[int, Strand]
              ) -> Optional[tuple[tuple, NDArray[np.int64]]]:
    """The first diagonal block B of ``strand``, smallest k = n / e first,
    whose size n is a multiple of e, that keeps the row identity on its
    columns (``holds``) and has det B = c F^k != 0 for a form F of degree
    e: B with the coefficient cube of det B (``Strand.det_cube``), as
    ``OracleResult.block``, and F's coefficient cube; None when no block
    does.  For k = 1, F is det B; for k > 1, its k-th root (:func:`_root`).
    Block i is built once, into ``built[i]``, with its determinant lattice.
    """
    sized = sorted((len(r) // e, i) for i, (r, c) in enumerate(strand.blocks)
                   if len(r) == len(c) and len(r) % e == 0)
    for k, i in sized:
        rows, cols = strand.blocks[i]
        if not holds[cols].all():
            continue
        block = built[i] = built.get(i) or strand.block(rows, cols)
        cube = block.det_cube()
        if not cube.any():
            continue
        f = cube if k == 1 else _root(block, cube, e)
        if f is not None:
            return (block.tensor, cube), f
    return None


def _root(block: Strand, cube: NDArray[np.int64], e: int
          ) -> Optional[NDArray[np.int64]]:
    """F's coefficient cube from the cube of det B = c F^k, k = n / e > 1
    for the block's size n, or None when det B is no such power.

    The cube H of det B is first Taylor-shifted (``xpoly.shift_form``) to
    the first point z of ``det_values`` where det B != 0, z = 0 unless
    det B vanishes at (1, 0, 0, 0).  On the line lambda -> (1, z + lambda y),
    det B is h(lambda) = sum_d H_d(y) lambda^d, H_d the part of H of degree
    d in x1, x2, x3, and h = c f^k for f(lambda) = F(1, z + lambda y).
    Miller's recurrence (Knuth, TAOCP vol. 2, 4.7) gives the one power
    series g = (h / h_0)^(1/k) with g_0 = 1: g_m = m^-1 sum_(i=1..m)
    ((1/k + 1) i - m) (h_i / h_0) g_(m-i).  So g_0 + .. + g_e is
    F(1, z + y) / F(1, z), from H_d with d <= e only, one ``lattice_values``
    each, at the points y of F's lattice cut to min(e, det_box // k), a
    bound on F's degrees; ``lattice_form`` and a shift by -z give F.
    det B = c F^k on ``det_values`` proves it, both sides being forms of
    degree n inside ``det_box``.
    """
    p, n, box = block.p, block.size, block.det_box
    k = n // e
    values = block.det_values
    z = principal_lattice(n, box)[np.flatnonzero(values)[0], 1:]
    if z.any():
        cube = shift_form(cube, z, p)
    low = cube[:e + 1, :e + 1, :e + 1]
    degree = np.indices(low.shape).sum(axis=0)
    f_box = tuple(min(e, b // k) for b in box)
    h = np.array([lattice_values(np.where(degree == d, low, 0), e, p, f_box)
                  for d in range(e + 1)])
    h = h * pow(int(h[0, 0]), -1, p) % p   # h_0 = det B(1, z) everywhere
    alpha = (pow(k, -1, p) + 1) % p
    g = [np.ones(h.shape[1], dtype=np.int64)]
    for m in range(1, e + 1):
        i = np.arange(1, m + 1)
        terms = (alpha * i - m)[:, None] % p * h[1:m + 1] % p * g[::-1] % p
        g.append(terms.sum(axis=0) % p * pow(m, -1, p) % p)
    f = lattice_form(np.sum(g, axis=0) % p, e, p, f_box)
    if z.any():
        f = shift_form(f, -z, p)
    c, bad = _fit(values, linalg.pow_mod_array(
        lattice_values(f, n, p, box), k, p), p)
    return f if c is not None and not bad else None


def _fit(lhs: NDArray[np.int64], rhs: NDArray[np.int64], p: int
         ) -> tuple[Optional[int], int]:
    """c with lhs = c rhs at the first entry where both are nonzero, None
    when there is none, and the number of entries where lhs != c rhs."""
    fit = np.flatnonzero(lhs * rhs % p)
    if not fit.size:
        return None, lhs.size
    c = int(lhs[fit[0]]) * pow(int(rhs[fit[0]]), -1, p) % p
    return c, int(np.count_nonzero(lhs != c * rhs % p))


def _row_identity(inp: SurfaceInput, strand: Strand) -> NDArray[np.bool_]:
    """Per column c, whether m . M(g) = 0 there (fact (a)): column c maps
    to sum_k g_k h_ck, h_ck the form with coefficients M[:, c, k], so
    :func:`_generator_multiples` times the stacked columns is zero there."""
    stacked = strand.tensor.transpose(2, 0, 1).reshape(-1, strand.size)
    return ~linalg.matmul_mod(_generator_multiples(inp), stacked,
                              strand.p).any(axis=0)


def verify_implicitization(strand: Strand, oracle: OracleResult,
                           field: FieldConfig) -> DetCertificate:
    """Prove det(strand) = c * F^d with d = size / deg F, block by block.

    M and F share the input generators' coordinates (:func:`build_strand`).
    M's connected components (``Strand.blocks``) permute it into diagonal
    blocks B_i, so det M = sigma prod det B_i, sigma the sign of the two
    permutations.  A block of size n_i is proved on its own:
    det B_i = c_i F^(n_i / e), e = deg F, on the principal lattice
    {(1, i, j, k) : i + j + k <= n_i} cut to the larger of ``det_box`` and
    n_i / e times F's degrees, unisolvent for forms of degree n_i in that
    box when p > n_i (p > size, else ValueError).  A block equal entry for
    entry to the one F was read off (``oracle.block``) takes no second
    determinant: its known determinant is compared on coefficients when
    n_i = e, else by its values on that lattice.  c_i is fitted at the first
    value where both sides are nonzero, so det M = c F^d with
    c = sigma prod c_i.  A component that is not square (det M = 0), or
    whose size e does not divide, fails.
    """
    p, e = field.p, oracle.degree
    if p <= strand.size:
        raise ValueError(
            f"the exact certificate needs p > {strand.size} so that the "
            f"lattice nodes 0..{strand.size} are distinct mod p")
    blocks = strand.blocks
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
    f_degs = np.argwhere(cube).max(axis=0).tolist()   # in x1, x2, x3
    for index, (rows, cols) in enumerate(blocks):
        n, k = len(rows), len(rows) // e
        block = strand.block(rows, cols)
        read = (oracle.block is not None
                and np.array_equal(block.tensor, oracle.block[0]))
        if read and k == 1:
            lhs, rhs = oracle.block[1].ravel(), cube.ravel()
            power, unit = "", "coefficients"
        else:
            box = tuple(min(n, max(b, k * d))
                        for b, d in zip(block.det_box, f_degs))
            lhs = (lattice_values(oracle.block[1], n, p, box) if read
                   else block.det_at_many(principal_lattice(n, box)))
            rhs = linalg.pow_mod_array(lattice_values(cube, n, p, box), k, p)
            power, unit = f"^{k}", "principal lattice points"
        c_i, bad = _fit(lhs, rhs, p)
        if c_i is None:
            raise CertificateError(
                f"block {index}: det and F{power} are never both nonzero")
        if bad:
            raise CertificateError(
                f"block {index}: det = c * F{power} fails at {bad} of "
                f"{lhs.size} {unit}")
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
    resultant gcds of the two charts, in (s, t) and (u, v) respectively.
    """

    status: str
    g_uv: BiPoly
    g_st: BiPoly
    detail: str


def _resultant_gcd(inp: SurfaceInput) -> BiPoly:
    """gcd in (s, t) of the pairwise uv-resultants of the generators.

    A common zero makes every pairwise resultant vanish at its (s : t), so
    once the gcd of a prefix of the six is the constant 1 the input is free
    on this chart and the gcd of all six, which divides it, is 1 as well.
    So the three pairs with g0 go first, the other three only if needed.
    """
    p = inp.field.p
    g0, *rest = inp.gens
    acc = BiPoly.zero(p)
    for pairs in ([(g0, g) for g in rest], list(combinations(rest, 2))):
        for res in resultant_uv(pairs, inp.a, inp.b, p):
            acc = uni_gcd(acc, res)
            if acc.bidegree() == (0, 0):
                return acc
    return acc


def _generator_multiples(inp: SurfaceInput) -> NDArray[np.int64]:
    """The generators' multiplication matrices by (2a - 1, b - 1), hstacked."""
    return np.hstack([multiplication_matrix(g, 2 * inp.a - 1, inp.b - 1)
                      for g in inp.grids])


def _spans_bidegree(inp: SurfaceInput) -> bool:
    """Whether the generators times the forms of bidegree (2a - 1, b - 1)
    span every form of bidegree (3a - 1, 2b - 1): rank 6ab for
    :func:`_generator_multiples`.

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
    return (linalg.rank(_generator_multiples(inp), inp.field.p)
            == 6 * inp.a * inp.b)


def basepoint_check(inp: SurfaceInput) -> BasepointReport:
    """Screen the generators for common zeros on P^1 x P^1, exactly.

    On each chart the gcd of the six pairwise resultants, in batches of
    three, is taken only until a prefix of them has constant gcd; constant
    gcds on both charts prove there is none.  Otherwise
    :func:`_spans_bidegree` decides.
    """
    g_uv = _resultant_gcd(inp)
    g_st = mirror_poly(_resultant_gcd(inp.mirror()))
    if g_uv.bidegree() == g_st.bidegree() == (0, 0):
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
    construction, strand, oracle and certificate.  The oracle reads F off
    a block of the strand, in F's coordinates, and the certificate takes no
    second determinant of that block.

    A prime below :func:`check_prime_floor` raises ValueError, an input
    with a basepoint (:func:`basepoint_check`) raises HypothesisError and a
    strand with no block to read F off raises CertificateError.  The
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
    oracle = implicit_by_elimination(inp, strand)
    timings["oracle"] = time.perf_counter() - start

    start = time.perf_counter()
    certificate = verify_implicitization(strand, oracle, inp.field)
    timings["certificate"] = time.perf_counter() - start
    return ImplicitizationResult(
        basepoints=report, analysis=va, case=case, strand=strand,
        oracle=oracle, certificate=certificate, timings=timings)
