"""Batch run: random surfaces of every syzygy shape.

The generator draws basepoint-free inputs with a planted syzygy profile
(column-space dimension 2, 3 or 4, chosen syzygy degree n and resolution
column degrees).  One ``implicitize`` run per instance then re-derives
everything from the generators alone (basepoint screen, profile, case
construction, strand, oracle) and certifies det(strand) = c * F^d.  The
table below shows one row per instance: the planted shape, the recovered
profile, the implicit degree, the cover degree d, and whether the
recovered profile matches the planted one.

Run:  python3 demos/03_random_surfaces.py
"""

import time

from tensurf.gen import GenSpec, generate
from tensurf.oracle import implicitize

SPECS = [
    GenSpec("dim2", 2, 3, 2),
    GenSpec("dim2", 1, 1, 1),
    GenSpec("dim3", 2, 5, 3, (1,)),
    GenSpec("dim4", 2, 5, 3, (1, 1)),
]
PER_SPEC = 3


def main() -> None:
    header = (f"{'kind':6} {'(a,b)':7} {'n':>2} {'mus':9} "
              f"{'deg F':>5} {'d':>2} {'verdict':8} {'secs':>5}")
    print(header)
    print("-" * len(header))
    for spec in SPECS:
        for index in range(PER_SPEC):
            inst = generate(spec, index=index, seed=0)
            start = time.perf_counter()
            result = implicitize(inst.input)
            elapsed = time.perf_counter() - start
            va, mus = result.analysis, result.case.aux.get("mus")
            planted = spec.planted_mus
            ok = ((va.n, va.dim_v) == (spec.n, spec.dim_v)
                  and (planted is None or mus == tuple(sorted(planted))))
            mus_str = str(tuple(mus)) if mus else "-"
            print(f"{spec.kind:6} ({spec.a},{spec.b})  {va.n:>2} "
                  f"{mus_str:9} {result.oracle.degree:>5} "
                  f"{result.certificate.exponent:>2} "
                  f"{'ok' if ok else 'FAIL':8} {elapsed:>5.2f}")


if __name__ == "__main__":
    main()
