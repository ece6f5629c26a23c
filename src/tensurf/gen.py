"""Random surface inputs with a planted minimal syzygy structure.

Each constructor builds four bidegree (a, b) generators whose minimal
singly graded syzygy is known in advance: the wanted syzygy degree n and
column-space dimension are planted algebraically, then verified by running
the full analysis pipeline and retrying on the rare degenerate draw.

For even a the (s, t)-coefficients are drawn with even exponents only, so
the parameterization factors through (s : t) -> (s^2 : t^2).  This keeps
the implicit degree at most a*b instead of 2*a*b, which makes the
independent elimination cross-check cheap, while exercising exactly the
same constructions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .bipoly import (BiPoly, CertificateError, FieldConfig, HypothesisError,
                     dot, uni_gcd)
from .cases import CaseResult, run_case
from .oracle import basepoint_check
from .syzygy import SurfaceInput, VAnalysis, analyze

__all__ = ["GenSpec", "GeneratedInstance", "generate"]

MAX_TRIES = 200  # draws per instance before generate gives up


@dataclass(frozen=True)
class GenSpec:
    """Target shape of a generated instance."""

    kind: str                 # "dim2" | "dim3" | "dim4"
    a: int
    b: int
    n: int
    mus: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in ("dim2", "dim3", "dim4"):
            raise ValueError(f"unknown instance kind {self.kind!r}")
        if not (1 <= self.n <= self.b):
            raise ValueError("need 1 <= n <= b")
        if self.b < 2 * self.n - 1:
            raise ValueError("need b >= 2n - 1")
        if self.kind == "dim2":
            if self.mus is not None:
                raise ValueError("dim2 instances take no column degrees")
        elif self.kind == "dim3":
            if self.mus is None or len(self.mus) != 1:
                raise ValueError("dim3 instances need one column degree")
            if not (1 <= self.mus[0] <= self.n - self.mus[0]):
                raise ValueError("column degree must satisfy 1 <= mu <= n - mu")
        else:
            if self.mus is None or len(self.mus) != 2:
                raise ValueError("dim4 instances need two column degrees")
            m3 = self.n - sum(self.mus)
            if min(self.mus) < 1 or m3 < max(self.mus):
                raise ValueError("column degrees must be ascending and sum "
                                 "with a third one to n")

    @property
    def dim_v(self) -> int:
        return {"dim2": 2, "dim3": 3, "dim4": 4}[self.kind]

    @property
    def planted_mus(self) -> Optional[tuple[int, ...]]:
        if self.kind == "dim2":
            return None
        if self.kind == "dim3":
            return (self.mus[0], self.n - self.mus[0])
        return (*self.mus, self.n - sum(self.mus))


@dataclass(frozen=True)
class GeneratedInstance:
    """A validated instance together with its analysis artifacts."""

    spec: GenSpec
    input: SurfaceInput
    analysis: VAnalysis
    case: CaseResult
    attempts: int


def _random_uni(rng: random.Random, p: int, degree: int) -> BiPoly:
    """A nonzero (0, degree)-form in (u, v)."""
    while True:
        coeffs = [rng.randrange(p) for _ in range(degree + 1)]
        if any(coeffs):
            return BiPoly.from_grid(np.array([coeffs]), p)


def _random_coprime_pair(rng: random.Random, p: int, degree: int
                         ) -> tuple[BiPoly, BiPoly]:
    while True:
        g0 = _random_uni(rng, p, degree)
        g1 = _random_uni(rng, p, degree)
        if uni_gcd(g0, g1).bidegree() == (0, 0):
            return g0, g1


def _random_bipoly(rng: random.Random, p: int, c: int, d: int) -> BiPoly:
    step = 2 if c % 2 == 0 else 1
    while True:
        terms = {}
        for j in range(0, c + 1, step):
            for l in range(d + 1):
                coeff = rng.randrange(p)
                if coeff:
                    terms[(c - j, j, d - l, l)] = coeff
        f = BiPoly(p, terms)
        if not f.is_zero:
            return f


def _build_dim2(spec: GenSpec, rng: random.Random, field: FieldConfig
                ) -> SurfaceInput:
    a, b, n, p = spec.a, spec.b, spec.n, field.p
    g0, g1 = _random_coprime_pair(rng, p, n)
    h = _random_bipoly(rng, p, a, b - n)
    f0 = g1 * h
    f1 = -(g0 * h)
    r2 = _random_bipoly(rng, p, a, b)
    r3 = _random_bipoly(rng, p, a, b)
    return SurfaceInput(a, b, (f0, f1, r2, r3), field)


def _build_planted_psi(spec: GenSpec, rng: random.Random, field: FieldConfig
                       ) -> SurfaceInput:
    a, b, p = spec.a, spec.b, field.p
    mus = spec.planted_mus
    assert mus is not None
    rows = spec.dim_v
    psi = [[_random_uni(rng, p, mus[k]) for k in range(rows - 1)]
           for _ in range(rows)]
    ws = [_random_bipoly(rng, p, a, b - mus[k]) for k in range(rows - 1)]
    f_prime = [dot(row, ws) for row in psi]
    if rows == 3:
        gens = (*f_prime, _random_bipoly(rng, p, a, b))
    else:
        gens = tuple(f_prime)
    return SurfaceInput(a, b, gens, field)


def generate(spec: GenSpec, index: int = 0, seed: int = 0,
             p: Optional[int] = None) -> GeneratedInstance:
    """Draw, validate and return one instance matching ``spec`` exactly.

    Deterministic in (spec, index, seed, p).  An instance is accepted only
    when the analysis recovers the planted syzygy degree, column-space
    dimension and resolution column degrees, and the basepoint screen
    certifies freeness; a draw that breaks a hypothesis is redrawn.  A
    failed structural check of the case construction is a fault, not a bad
    draw: its CertificateError propagates.
    """
    field = FieldConfig(seed=seed) if p is None else FieldConfig(p, seed=seed)
    rng = field.rng(f"gen:{spec.kind}:{spec.a}:{spec.b}:{spec.n}:"
                    f"{spec.mus}:{index}")
    for attempt in range(1, MAX_TRIES + 1):
        try:
            if spec.kind == "dim2":
                inp = _build_dim2(spec, rng, field)
            else:
                inp = _build_planted_psi(spec, rng, field)
            va = analyze(inp)
            if va.n != spec.n or va.dim_v != spec.dim_v:
                continue
            case = run_case(va)
        except HypothesisError:
            continue
        if spec.planted_mus is not None:
            if tuple(case.aux["mus"]) != tuple(sorted(spec.planted_mus)):
                continue
        if basepoint_check(inp).status != "free":
            continue
        return GeneratedInstance(spec, inp, va, case, attempt)
    raise CertificateError(
        f"could not generate a valid {spec.kind} instance in "
        f"{MAX_TRIES} attempts")
