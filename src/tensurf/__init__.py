"""Exact implicitization of tensor product surfaces via singly graded syzygies.

Given four bihomogeneous forms p0..p3 of bidegree (a, b) in K[s,t,u,v] with
empty base locus, defining a map P^1 x P^1 -> P^3, the package constructs an
explicit set of four syzygies whose degree-(2a-1, b-1) strand matrix is square
of size 2ab with determinant c * F^e, where F is the implicit equation of the
image surface and e is the degree of the parameterization onto its image.
An independent elimination oracle recovers F and cross-checks the certificate.
"""

from .bipoly import (
    BiPoly,
    CertificateError,
    FieldConfig,
    HypothesisError,
    parse_poly,
    poly_to_str,
)
from .cases import CaseResult, run_case
from .gen import GenSpec, GeneratedInstance, generate
from .oracle import (
    BasepointReport,
    DetCertificate,
    ImplicitizationResult,
    OracleResult,
    basepoint_check,
    implicit_by_elimination,
    implicitize,
    verify_implicitization,
)
from .strand import Strand, build_strand, reconstruct_det
from .syzygy import SurfaceInput, VAnalysis, analyze
from .xpoly import XPoly, parse_xpoly

__all__ = [
    "BasepointReport",
    "BiPoly",
    "CaseResult",
    "CertificateError",
    "DetCertificate",
    "FieldConfig",
    "GenSpec",
    "GeneratedInstance",
    "HypothesisError",
    "ImplicitizationResult",
    "OracleResult",
    "Strand",
    "SurfaceInput",
    "VAnalysis",
    "XPoly",
    "analyze",
    "basepoint_check",
    "build_strand",
    "generate",
    "implicit_by_elimination",
    "implicitize",
    "parse_poly",
    "parse_xpoly",
    "poly_to_str",
    "reconstruct_det",
    "run_case",
    "verify_implicitization",
]

__version__ = "0.1.0"
