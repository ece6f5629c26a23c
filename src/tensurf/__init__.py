"""Exact implicitization of tensor product surfaces via singly graded syzygies.

Given four bihomogeneous forms p0..p3 of bidegree (a, b) in K[s,t,u,v] with
empty base locus, defining a map P^1 x P^1 -> P^3, the package constructs an
explicit set of four syzygies whose degree-(2a-1, b-1) strand matrix is square
of size 2ab with determinant c * F^d, where F is the implicit equation of the
image surface, of degree e, and d is the degree of the parameterization onto
its image, so 2ab = d * e.
An independent elimination oracle recovers F and cross-checks the certificate.

The package namespace re-exports nothing: import from the modules, for
example ``from tensurf.oracle import implicitize``.
"""

__version__ = "0.1.0"
