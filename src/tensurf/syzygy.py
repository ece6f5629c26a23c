"""Minimal singly graded syzygies of a tensor product surface.

A surface is given by four linearly independent forms p0..p3 of bidegree
(a, b).  A singly graded syzygy of uv-degree n is a relation

    sum_i c_i(u, v) * p_i = 0,   deg c_i = n,

encoded by the 4 x (n+1) coefficient matrix A with
c_i = sum_j A[i, j] * u^(n-j) * v^j.  Writing f_j = sum_i A[i, j] * p_i, the
relation becomes sum_j u^(n-j) * v^j * f_j = 0, and the span V of the f_j
determines which downstream construction applies (dim V in {2, 3, 4}).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (
    BiPoly,
    CertificateError,
    FieldConfig,
    HypothesisError,
    coeff_grid,
    dot,
    mirror_poly,
    multiplication_matrix,
    parse_poly,
    uni_gcd,
)


@dataclass(frozen=True)
class SurfaceInput:
    """Four generators of bidegree (a, b) over a fixed prime field."""

    a: int
    b: int
    gens: tuple[BiPoly, BiPoly, BiPoly, BiPoly]
    field: FieldConfig

    def __post_init__(self) -> None:
        if self.a < 1 or self.b < 1:
            raise ValueError("bidegree components must be positive")
        if len(self.gens) != 4:
            raise ValueError("exactly four generators are required")
        for i, g in enumerate(self.gens):
            if g.p != self.field.p:
                raise ValueError("generator prime differs from field prime")
            if g.is_zero or not g.is_bihomogeneous(self.a, self.b):
                raise HypothesisError(
                    f"generator {i} is not a nonzero form of bidegree "
                    f"({self.a}, {self.b})")
        if linalg.rank(self.grids.reshape(4, -1), self.field.p) < 4:
            raise HypothesisError("generators are linearly dependent")

    @classmethod
    def from_strings(cls, a: int, b: int, exprs: Sequence[str],
                     field: Optional[FieldConfig] = None) -> "SurfaceInput":
        field = field or FieldConfig()
        gens = tuple(parse_poly(e, field.p, a + b) for e in exprs)
        return cls(a, b, gens, field)

    @cached_property
    def grids(self) -> NDArray[np.int64]:
        """The generators' coefficient grids, (4, a + 1, b + 1), read-only."""
        grids = np.stack([coeff_grid(g, self.a, self.b) for g in self.gens])
        grids.flags.writeable = False
        return grids

    def mirror(self) -> "SurfaceInput":
        """Swap the roles of (s, t) and (u, v)."""
        return SurfaceInput(self.b, self.a,
                            tuple(mirror_poly(g) for g in self.gens), self.field)


def syzygy_system(inp: SurfaceInput, n: int) -> NDArray[np.int64]:
    """Coefficient matrix of the uv-degree-n syzygy equations.

    Unknowns are A[i, j] in generator-major order; the block of generator i
    is its multiplication matrix by bidegree (0, n), whose rows are the
    coefficients of the bidegree (a, b+n) monomials in the global order.
    """
    return np.hstack([multiplication_matrix(g, 0, n) for g in inp.grids])


def find_minimal_syzygy(inp: SurfaceInput
                        ) -> tuple[int, list[NDArray[np.int64]]]:
    """Smallest n <= b admitting a singly graded syzygy, with the kernel basis."""
    for n in range(1, inp.b + 1):
        kern = linalg.kernel_basis(syzygy_system(inp, n), inp.field.p)
        if kern:
            return n, kern
    raise HypothesisError(
        f"no singly graded syzygy of uv-degree <= {inp.b}")


def build_f_family(inp: SurfaceInput, vec: NDArray[np.int64], n: int
                   ) -> tuple[NDArray[np.int64], list[BiPoly]]:
    """Split a syzygy vector into A and the family f_0..f_n, by exact
    products: int64 sums of four products of residues near 2**31 overflow."""
    p = inp.field.p
    A = np.asarray(vec, dtype=np.int64).reshape(4, n + 1) % p
    if linalg.matmul_mod(syzygy_system(inp, n), A.reshape(-1, 1), p).any():
        raise CertificateError("syzygy vector does not annihilate the generators")
    # row r of the grid of f_j is sum_i A[i, j] times row r of the grid of g_i
    rows = [linalg.matmul_mod(A.T, g, p) for g in inp.grids.transpose(1, 0, 2)]
    return A, [BiPoly.from_grid(f, p) for f in np.stack(rows, axis=1)]


@dataclass(frozen=True)
class VAnalysis:
    """Everything derived from the minimal syzygy of a surface; new_gens[j]
    is sum_i transition[i, j] * input.gens[i]."""

    input: SurfaceInput
    n: int
    kernel_dim: int
    dim_v: int
    f_prime: tuple[BiPoly, ...]
    g: tuple[BiPoly, ...]
    new_gens: tuple[BiPoly, ...]
    transition: NDArray[np.int64]


def analyze(inp: SurfaceInput) -> VAnalysis:
    """Run the singly graded analysis: minimal n, f-family, V, g, new generators."""
    p = inp.field.p
    n, kern = find_minimal_syzygy(inp)
    A = fam = None
    for vec in kern:
        cand_A, cand_fam = build_f_family(inp, vec, n)
        if not cand_fam[0].is_zero and not cand_fam[n].is_zero:
            A, fam = cand_A, cand_fam
            break
    if A is None:
        # At the minimal n a vanishing end of the family would descend to a
        # syzygy of degree n-1, contradicting minimality.
        raise CertificateError("every kernel vector has a vanishing end family")

    res = linalg.rref(A, p)
    dim_v = res.rank
    if dim_v < 2:
        raise CertificateError(
            "span of the f-family has rank < 2; retry with a different prime")
    basis_idx = res.pivots
    B = res.matrix[:dim_v, :]
    f_prime = tuple(fam[j] for j in basis_idx)
    # row k of B holds the coefficients of u^(n-j) v^j in g_k
    g = tuple(BiPoly.from_grid(B[k:k + 1], p) for k in range(dim_v))

    common = g[0]
    for gk in g[1:]:
        common = uni_gcd(common, gk)
    if common.bidegree() != (0, 0):
        raise CertificateError(
            "entries of g share a common factor; the syzygy was not minimal")

    # Complete f_prime to four generators, greedily keeping original ones:
    # the leftmost pivots of [A's basis columns | identity], which has rank 4.
    cand = np.column_stack([A[:, j] for j in basis_idx]
                           + [np.eye(4, dtype=np.int64)])
    pivots = linalg.rref(cand, p).pivots
    transition = cand[:, pivots]
    new_gens = list(f_prime) + [inp.gens[j - dim_v] for j in pivots[dim_v:]]

    if not dot(g, f_prime).is_zero:
        raise CertificateError("g does not annihilate the reduced family")

    return VAnalysis(
        input=inp, n=n, kernel_dim=len(kern), dim_v=dim_v, f_prime=f_prime,
        g=g, new_gens=tuple(new_gens), transition=transition)
