"""Smallest possible run: the Segre quadric.

The four bilinear generators s*u, s*v, t*u, t*v embed P^1 x P^1 as the
quadric x0*x3 - x1*x2 = 0 in P^3.  Every stage of the pipeline is tiny
here, which makes it a good first look at the moving parts: the syzygy
profile, the 2 x 2 strand matrix, the elimination oracle, and the
determinant certificate with exponent 1 (the map is birational onto its
image, so det(strand) is a scalar multiple of F itself).

Run:  python3 demos/01_segre.py
"""

from tensurf.bipoly import FieldConfig, poly_to_str
from tensurf.cases import run_case
from tensurf.oracle import implicit_by_elimination, verify_implicitization
from tensurf.strand import build_strand, reconstruct_det
from tensurf.syzygy import SurfaceInput, analyze
from tensurf.xpoly import linear_substitute, xpoly_to_str

GENERATORS = ["s*u", "s*v", "t*u", "t*v"]


def main() -> None:
    field = FieldConfig(seed=0)
    inp = SurfaceInput.from_strings(1, 1, GENERATORS, field)
    print("generators:", ", ".join(GENERATORS))

    va = analyze(inp)
    print(f"minimal syzygy degree n = {va.n}, dim V = {va.dim_v}")
    print("uv-form pair g =", tuple(poly_to_str(g) for g in va.g))

    case = run_case(va)
    for col in case.syzygies:
        entries = ", ".join(poly_to_str(e) for e in col.entries)
        print(f"syzygy {col.label} of bidegree {col.bidegree}: ({entries})")

    strand = build_strand(case)
    print(f"strand matrix: {strand.size} x {strand.size}")

    oracle = implicit_by_elimination(inp)
    print(f"oracle: deg F = {oracle.degree}, F = {xpoly_to_str(oracle.f)}")

    cert = verify_implicitization(strand, oracle, va.point_transform, field)
    print(f"certificate: det(strand) = c * F^{cert.exponent} with "
          f"c = {cert.c}, proved on the principal lattice")

    # the strand acts on a changed generator basis, so its determinant is
    # F composed with the basis change -- reconstruct it and show both
    det_poly = reconstruct_det(strand)
    f_t = linear_substitute(oracle.f, va.point_transform).scale(cert.c)
    print(f"det(strand) = {xpoly_to_str(det_poly)}")
    print(f"c * F(transformed) = {xpoly_to_str(f_t)}")
    print("polynomial identity holds:", det_poly == f_t)


if __name__ == "__main__":
    main()
