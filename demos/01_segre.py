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
from tensurf.oracle import implicitize
from tensurf.strand import reconstruct_det
from tensurf.syzygy import SurfaceInput

GENERATORS = ["s*u", "s*v", "t*u", "t*v"]


def main() -> None:
    field = FieldConfig(seed=0)
    inp = SurfaceInput.from_strings(1, 1, GENERATORS, field)
    print("generators:", ", ".join(GENERATORS))

    result = implicitize(inp)
    va, strand, oracle = result.analysis, result.strand, result.oracle
    print(f"minimal syzygy degree n = {va.n}, dim V = {va.dim_v}")
    print("uv-form pair g =", tuple(poly_to_str(g) for g in va.g))

    for col in result.case.syzygies:
        entries = ", ".join(poly_to_str(e) for e in col.entries)
        print(f"syzygy {col.label} of bidegree {col.bidegree}: ({entries})")

    print(f"strand matrix: {strand.size} x {strand.size}")
    print(f"oracle: deg F = {oracle.degree}, F = {poly_to_str(oracle.f)}")

    cert = result.certificate
    print(f"certificate: det(strand) = c * F^{cert.exponent} with "
          f"c = {cert.c}, proved on the principal lattice")

    # the strand is built in the coordinates of the input's generators, the
    # ones F is written in, so its determinant is c * F itself
    det_poly = reconstruct_det(strand)
    f_c = oracle.f.scale(cert.c)
    print(f"det(strand) = {poly_to_str(det_poly)}")
    print(f"c * F = {poly_to_str(f_c)}")
    print("polynomial identity holds:", det_poly == f_c)


if __name__ == "__main__":
    main()
