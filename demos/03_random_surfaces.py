"""Batch run: random surfaces of every syzygy shape.

The generator draws basepoint-free inputs with a planted syzygy profile
(column-space dimension 2, 3 or 4, chosen syzygy degree n and resolution
column degrees), then the full pipeline re-derives everything from
scratch and certifies det(strand) = c * F^d.  The table below shows one
row per instance: the planted shape, the recovered profile, the implicit
degree, the cover degree d, and the certificate outcome.

Run:  python3 demos/03_random_surfaces.py
"""

import time

from tensurf.gen import GenSpec, generate, validate_instance
from tensurf.oracle import implicit_by_elimination

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
            report = validate_instance(inst.input, spec)
            elapsed = time.perf_counter() - start
            mus = inst.case.aux.get("mus")
            mus_str = str(tuple(mus)) if mus else "-"
            size = 2 * spec.a * spec.b
            verdict = "ok" if report.ok else "FAIL"
            # d * deg F = 2ab, so the implicit degree determines the cover
            oracle = implicit_by_elimination(inst.input)
            d = size // oracle.degree
            print(f"{spec.kind:6} ({spec.a},{spec.b})  {inst.analysis.n:>2} "
                  f"{mus_str:9} {oracle.degree:>5} {d:>2} {verdict:8} "
                  f"{elapsed:>5.2f}")
            if not report.ok:
                for reason in report.reasons:
                    print("      reason:", reason)


if __name__ == "__main__":
    main()
