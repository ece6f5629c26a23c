"""A full-size run: a bidegree (2, 5) surface with a degree-2 cover.

Four (2, 5)-forms map P^1 x P^1 onto a degree-10 surface in P^3, with
each image point hit twice.  The syzygy analysis lands in the richest
case (dim V = 4): a Hilbert-Burch matrix for the uv-form vector g, three
membership certificates, and a syzygy family S, S1, S2, S3 whose spread
over monomial multipliers fills a 20 x 20 strand matrix.  Its
determinant equals c * F^2 for the implicit equation F found
independently by the elimination oracle -- proved by the certificate on
a unisolvent lattice, and shown again here as an exact polynomial
division.

Run:  python3 demos/02_worked_surface.py
"""

import time

from tensurf.bipoly import FieldConfig, poly_to_str
from tensurf.oracle import implicitize
from tensurf.syzygy import SurfaceInput
from tensurf.strand import reconstruct_det
from tensurf.xpoly import divide_with_remainder

GENERATORS = [
    "-t^2*u^4*v - s^2*v^5",
    "t^2*u^5 + s^2*u*v^4 - 2*t^2*v^5",
    "-s^2*u^4*v + 2*t^2*u*v^4 - t^2*v^5",
    "s^2*u^5 + t^2*u*v^4",
]


def main() -> None:
    field = FieldConfig(seed=0)
    inp = SurfaceInput.from_strings(2, 5, GENERATORS, field)
    print("generators:")
    for g in GENERATORS:
        print("   ", g)

    start = time.perf_counter()
    result = implicitize(inp)
    elapsed = time.perf_counter() - start

    va, case = result.analysis, result.case
    print(f"\nprofile: n = {va.n}, dim V = {va.dim_v}, case {case.case_tag}, "
          f"column degrees {case.aux['mus']}")
    print("alphas:")
    for alpha in case.aux["alphas"]:
        print("   ", poly_to_str(alpha))
    print("H =", poly_to_str(case.aux["H"]))

    print("\nsyzygy family:")
    for col, count in zip(case.syzygies, case.aux["column_counts"]):
        print(f"  {col.label}: bidegree {col.bidegree}, "
              f"{count} strand columns")
        for entry in col.entries:
            print("     ", poly_to_str(entry))

    oracle = result.oracle
    print(f"\nstrand: {result.strand.size} x {result.strand.size}")
    print(f"oracle: deg F = {oracle.degree} "
          f"({len(oracle.f.terms)} terms), scanned degrees "
          f"{[e for e, _ in oracle.kernel_dims]}")
    cert = result.certificate
    print(f"certificate: det = c * F^{cert.exponent}, c = {cert.c}, "
          f"proved on the principal lattice, {elapsed:.2f}s total")

    # the same identity, by dividing the interpolated determinant by F
    print("\ninterpolating det(strand) as a degree-20 polynomial ...")
    det_poly = reconstruct_det(result.strand)
    quotient, rem1 = divide_with_remainder(det_poly, oracle.f)
    quotient, rem2 = divide_with_remainder(quotient, oracle.f)
    print("det / F has zero remainder:  ", rem1.is_zero)
    print("det / F^2 has zero remainder:", rem2.is_zero)
    print("final quotient is the constant c:",
          quotient.terms.get((0, 0, 0, 0)) == cert.c
          and quotient.degree() == 0)


if __name__ == "__main__":
    main()
