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
from typing import Optional, Sequence

import numpy as np
from numpy.typing import NDArray

from . import linalg
from .bipoly import (
    BiPoly,
    CertificateError,
    FieldConfig,
    HypothesisError,
    UniHomPoly,
    coeff_vector,
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
        if linalg.rank(self.coeff_matrix(), self.field.p) < 4:
            raise HypothesisError("generators are linearly dependent")

    @classmethod
    def from_strings(cls, a: int, b: int, exprs: Sequence[str],
                     field: Optional[FieldConfig] = None) -> "SurfaceInput":
        field = field or FieldConfig()
        gens = tuple(parse_poly(e, field.p) for e in exprs)
        return cls(a, b, gens, field)

    def coeff_matrix(self) -> NDArray[np.int64]:
        return np.stack([coeff_vector(g, self.a, self.b) for g in self.gens])

    def grids(self) -> NDArray[np.int64]:
        """The generators' coefficient grids, shape (4, a + 1, b + 1)."""
        return self.coeff_matrix().reshape(4, self.a + 1, self.b + 1)

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
    return np.hstack([multiplication_matrix(g, 0, n) for g in inp.grids()])


def find_minimal_syzygy(inp: SurfaceInput, cap: Optional[int] = None
                        ) -> tuple[int, list[NDArray[np.int64]]]:
    """Smallest n >= 1 admitting a singly graded syzygy, with the kernel basis."""
    cap = cap if cap is not None else inp.b
    for n in range(1, cap + 1):
        kern = linalg.kernel_basis(syzygy_system(inp, n), inp.field.p)
        if kern:
            return n, kern
    raise HypothesisError(
        f"no singly graded syzygy of uv-degree <= {cap}")


def build_f_family(inp: SurfaceInput, vec: NDArray[np.int64], n: int
                   ) -> tuple[NDArray[np.int64], list[BiPoly]]:
    """Split a syzygy vector into A and the family f_0..f_n."""
    p = inp.field.p
    A = np.asarray(vec, dtype=np.int64).reshape(4, n + 1) % p
    fam = []
    for j in range(n + 1):
        f = BiPoly.zero(p)
        for i in range(4):
            if A[i, j]:
                f = f + inp.gens[i].scale(int(A[i, j]))
        fam.append(f)
    total = BiPoly.zero(p)
    for j, f in enumerate(fam):
        total = total + f.times_monomial(0, 0, n - j, j)
    if not total.is_zero:
        raise CertificateError("syzygy vector does not annihilate the generators")
    return A, fam


@dataclass(frozen=True)
class VAnalysis:
    """Everything derived from the minimal syzygy of a surface."""

    input: SurfaceInput
    n: int
    kernel_dim: int
    A: NDArray[np.int64]
    f_family: tuple[BiPoly, ...]
    dim_v: int
    basis_idx: tuple[int, ...]
    B: NDArray[np.int64]
    f_prime: tuple[BiPoly, ...]
    g: tuple[UniHomPoly, ...]
    new_gens: tuple[BiPoly, ...]
    transition: NDArray[np.int64]
    point_transform: NDArray[np.int64]


def analyze(inp: SurfaceInput, cap: Optional[int] = None) -> VAnalysis:
    """Run the singly graded analysis: minimal n, f-family, V, g, new generators."""
    p = inp.field.p
    n, kern = find_minimal_syzygy(inp, cap)
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
    g = tuple(UniHomPoly(p, n, tuple(int(c) for c in B[k])) for k in range(dim_v))

    common = g[0]
    for gk in g[1:]:
        common = uni_gcd(common, gk)
    if common.is_zero or common.degree > 0:
        raise CertificateError(
            "entries of g share a common factor; the syzygy was not minimal")

    # Complete f_prime to four generators, greedily keeping original ones:
    # the leftmost pivots of [A's basis columns | identity], which has rank 4.
    cand = np.column_stack([A[:, j] for j in basis_idx]
                           + [np.eye(4, dtype=np.int64)])
    pivots = linalg.rref(cand, p).pivots
    transition = cand[:, pivots]
    new_gens = list(f_prime) + [inp.gens[j - dim_v] for j in pivots[dim_v:]]
    point_transform = linalg.matrix_inverse(transition.T % p, p)

    if not dot([gk.to_bipoly() for gk in g], f_prime,
               BiPoly.zero(p)).is_zero:
        raise CertificateError("g does not annihilate the reduced family")

    return VAnalysis(
        input=inp, n=n, kernel_dim=len(kern), A=A, f_family=tuple(fam),
        dim_v=dim_v, basis_idx=basis_idx, B=B, f_prime=f_prime, g=g,
        new_gens=tuple(new_gens), transition=transition,
        point_transform=point_transform)
