"""Command-line front end: jobs in, reports out.

Job files are JSON objects with keys ``a``, ``b``, optional ``prime``,
``generators`` (four expression strings) and optional ``options`` (key
``side``, the default of ``--side``; other keys are ignored).  Every
``implicitize`` and ``verify`` run proves det(strand) = c * F^d exactly on
the principal lattice.  Results go to standard output, all diagnostics and
timings to standard error; identical invocations with identical seeds
produce byte-identical standard output.

Exit codes: 0 success, 2 hypothesis violation (basepoints, no singly
graded syzygy, b < 2n - 1, degenerate input), 3 certificate failure,
1 usage or I/O error.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import lru_cache
from typing import Optional

from .bipoly import (DEFAULT_PRIME, CertificateError, FieldConfig,
                     HypothesisError, ParseError, format_monomials,
                     format_terms, poly_to_str, print_terms)
from .cases import run_case
from .gen import GenSpec, generate
from .oracle import basepoint_check, check_prime_floor, implicitize
from .syzygy import SurfaceInput, analyze
from .xpoly import parse_xpoly

__all__ = ["main"]


class _Parser(argparse.ArgumentParser):
    """Argument parser whose usage errors exit with code 1, not 2."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


@lru_cache(maxsize=1)
def _build_parser() -> _Parser:
    """The parser, built once per process: parsing leaves it unchanged."""
    parser = _Parser(prog="tensurf", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: _Parser) -> None:
        p.add_argument("job", help="path to a JSON job file, or - for stdin")
        p.add_argument("--seed", type=int, default=0,
                       help="master seed for all randomized steps")
        p.add_argument("--json", action="store_true",
                       help="emit a machine-readable JSON report")

    p_an = sub.add_parser("analyze", parents=[], help="syzygy profile only")
    add_common(p_an)
    p_an.set_defaults(func=_cmd_analyze)

    def add_pipeline_flags(p: _Parser) -> None:
        p.add_argument("--det-mode", choices=["interpolate"], default=None,
                       help="certificate mode; interpolate, the exact "
                            "lattice proof, is the only one")
        p.add_argument("--side", choices=["uv", "st"], default=None,
                       help="strand side; st mirrors the input first")

    p_im = sub.add_parser("implicitize", help="full pipeline with report")
    add_common(p_im)
    add_pipeline_flags(p_im)
    p_im.set_defaults(func=_cmd_implicitize)

    p_ve = sub.add_parser("verify", help="certificate outcome only")
    add_common(p_ve)
    add_pipeline_flags(p_ve)
    p_ve.set_defaults(func=_cmd_verify)

    p_ge = sub.add_parser("generate", help="emit a random valid job file")
    p_ge.add_argument("--a", type=int, required=True)
    p_ge.add_argument("--b", type=int, required=True)
    p_ge.add_argument("--n", type=int, required=True)
    p_ge.add_argument("--dimv", type=int, required=True, choices=[2, 3, 4],
                      help="target column-space dimension")
    p_ge.add_argument("--mu", type=int, nargs="*", default=None,
                      help="resolution column degrees (one value for "
                           "dimv 3, two for dimv 4)")
    p_ge.add_argument("--seed", type=int, default=0)
    p_ge.add_argument("--index", type=int, default=0,
                      help="instance index within the seed's stream")
    p_ge.add_argument("--prime", type=int, default=DEFAULT_PRIME)
    p_ge.add_argument("--out", default="-",
                      help="output path (default stdout)")
    p_ge.set_defaults(func=_cmd_generate)

    p_se = sub.add_parser("selftest", help="golden end-to-end suite")
    p_se.add_argument("--json", action="store_true")
    p_se.set_defaults(func=_cmd_selftest)
    return parser


# ---------------------------------------------------------------------------
# job handling


def _load_job(args) -> tuple[SurfaceInput, dict]:
    if args.job == "-":
        data = json.load(sys.stdin)
    else:
        with open(args.job, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    if not isinstance(data, dict):
        raise ValueError("job file must contain a JSON object")
    for key in ("a", "b", "generators"):
        if key not in data:
            raise ValueError(f"job file is missing the key {key!r}")
    data.setdefault("prime", DEFAULT_PRIME)
    for key in ("a", "b", "prime"):
        if type(data[key]) is not int:
            raise ValueError(f"{key!r} must be an integer, not {data[key]!r}")
    gens = data["generators"]
    if not (isinstance(gens, list) and len(gens) == 4
            and all(isinstance(g, str) for g in gens)):
        raise ValueError("'generators' must be a list of four strings")
    options = {} if data.get("options") is None else data["options"]
    if not isinstance(options, dict):
        raise ValueError("'options' must be an object")
    field = FieldConfig(data["prime"], seed=args.seed)
    inp = SurfaceInput.from_strings(data["a"], data["b"], gens, field)
    return inp, options


def _side(args, options: dict) -> str:
    """The strand side: the flag, else the job option, else uv."""
    side = args.side or options.get("side", "uv")
    if side not in ("uv", "st"):
        raise ValueError(f"unknown side {side!r}")
    return side


# one f_coefficients row as json.dumps(..., indent=2) lays it out
_ROW = ('    {\n      "coeff": %d,\n      "exponents": [\n        %d,\n'
        '        %d,\n        %d,\n        %d\n      ]\n    }')


def _print_json(payload: dict) -> None:
    """Write ``json.dumps(payload, sort_keys=True, indent=2)`` and a
    newline in one write, the ``f_coefficients`` rows (an int and four
    ints each) laid out by one template where json.dumps puts that key."""
    rows = payload.get("f_coefficients")
    text = json.dumps({**payload, "f_coefficients": []} if rows else payload,
                      sort_keys=True, indent=2)
    if rows:
        table = ",\n".join([_ROW] * len(rows)) % tuple(
            x for row in rows for x in (row["coeff"], *row["exponents"]))
        # only a top-level key starts a line with 2 spaces and a quote
        text = text.replace('\n  "f_coefficients": []',
                            '\n  "f_coefficients": [\n' + table + "\n  ]", 1)
    sys.stdout.write(text + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _cmd_analyze(args) -> int:
    inp, _ = _load_job(args)
    try:
        va = analyze(inp)
        case = run_case(va)
    except CertificateError:
        # the construction's identities hold only on basepoint-free inputs
        report = basepoint_check(inp)
        if report.status == "basepoint":
            raise HypothesisError(f"basepoint: {report.detail}")
        raise
    counts = case.aux["column_counts"]
    mus = case.aux.get("mus", ())
    payload = {
        "a": inp.a, "b": inp.b, "prime": inp.field.p,
        "n": va.n, "kernel_dim": va.kernel_dim, "dim_v": va.dim_v,
        "case": case.case_tag,
        "mus": list(mus),
        "syzygies": [{"label": s.label, "bidegree": list(s.bidegree),
                      "columns": int(cnt)}
                     for s, cnt in zip(case.syzygies, counts)],
        "strand_size": 2 * inp.a * inp.b,
    }
    if args.json:
        _print_json(payload)
        return 0
    print(f"a = {inp.a}, b = {inp.b}, prime = {inp.field.p}")
    print(f"n = {va.n}, dim V = {va.dim_v}, case {case.case_tag}")
    if mus:
        print("column degrees:", ", ".join(str(m) for m in mus))
    for s, cnt in zip(case.syzygies, counts):
        print(f"syzygy {s.label}: bidegree {s.bidegree}, {cnt} strand "
              "columns")
    print(f"strand size = {2 * inp.a * inp.b}")
    return 0


def _run_pipeline(args) -> tuple:
    inp, options = _load_job(args)
    side = _side(args, options)
    if side == "st":
        inp = inp.mirror()
    result = implicitize(inp)
    for name, secs in sorted(result.timings.items()):
        print(f"[time] {name}: {secs:.3f}s", file=sys.stderr)
    print("[certificate] blocks "
          f"{'+'.join(map(str, result.certificate.blocks))}", file=sys.stderr)
    return inp, side, result


def _result_payload(inp, side, result) -> tuple[dict, list]:
    """The --json fields of both commands and F's terms in print order."""
    case = result.case
    counts = case.aux["column_counts"]
    bp = result.basepoints
    f = result.oracle.f
    # F is a form, so descending exponent tuples are its terms by degree,
    # then x0, x1 and x2 powers, descending
    terms = print_terms(f)
    return {
        "a": inp.a, "b": inp.b, "prime": inp.field.p,
        "side": side,
        "n": result.analysis.n, "dim_v": result.analysis.dim_v,
        "case": case.case_tag,
        "mus": list(case.aux["mus"]) if "mus" in case.aux else [],
        "strand_size": result.strand.size,
        "column_counts": {s.label: int(c)
                          for s, c in zip(case.syzygies, counts)},
        "deg_f": result.oracle.degree,
        "deg_phi": result.certificate.exponent,
        "c": result.certificate.c,
        "f": format_terms(f, terms),
        "oracle": {"scan": "full",
                   "kernel_dims": [list(kd)
                                   for kd in result.oracle.kernel_dims]},
        # frozen wording (ROADMAP not-item "the stale --json fields")
        "certificate": {"mode": "interpolate", "n_points": 40,
                        "passed": True},
        "basepoints": {"status": bp.status, "detail": bp.detail,
                       "g_uv": poly_to_str(bp.g_uv),
                       "g_st": poly_to_str(bp.g_st)},
    }, terms


def _cmd_implicitize(args) -> int:
    inp, side, result = _run_pipeline(args)
    payload, terms = _result_payload(inp, side, result)
    if args.json:
        payload["f_coefficients"] = [{"exponents": list(e), "coeff": c}
                                     for e, c in terms]
        _print_json(payload)
        return 0
    print(f"a = {inp.a}, b = {inp.b}, prime = {inp.field.p}")
    print(f"n = {result.analysis.n}, dim V = {result.analysis.dim_v}, "
          f"case {result.case.case_tag}")
    counts = ", ".join(f"{s.label}={c}" for s, c in
                       zip(result.case.syzygies,
                           result.case.aux["column_counts"]))
    print(f"strand: {result.strand.size} x {result.strand.size} "
          f"(columns: {counts})")
    print(f"deg F = {result.oracle.degree}, "
          f"deg phi = {result.certificate.exponent}, "
          f"c = {result.certificate.c}")
    print(f"F = {payload['f']}")
    print(f"coefficients ({len(terms)} terms):")
    monos = format_monomials(result.oracle.f, [e for e, _ in terms])
    for mono, (_, c) in zip(monos, terms):
        print(f"  {mono or '1'}  {c}")
    print(f"certificate: det = c * F^{result.certificate.exponent} "
          "verified at 40 random points (mode interpolate)")
    bp = result.basepoints
    print(f"basepoints: {bp.status} ({bp.detail})")
    return 0


def _cmd_verify(args) -> int:
    inp, side, result = _run_pipeline(args)
    if args.json:
        _print_json(_result_payload(inp, side, result)[0])
        return 0
    print(f"deg F = {result.oracle.degree}, "
          f"deg phi = {result.certificate.exponent}, "
          f"c = {result.certificate.c}")
    print(f"PASS det = c * F^{result.certificate.exponent} at "
          "40 random points (mode interpolate)")
    return 0


def _cmd_generate(args) -> int:
    check_prime_floor(args.a, args.b, args.prime)
    kind = {2: "dim2", 3: "dim3", 4: "dim4"}[args.dimv]
    mus = tuple(args.mu) if args.mu else None
    spec = GenSpec(kind, args.a, args.b, args.n, mus)
    gi = generate(spec, index=args.index, seed=args.seed, p=args.prime)
    job = {
        "a": spec.a, "b": spec.b, "prime": args.prime,
        "generators": [poly_to_str(g) for g in gi.input.gens],
        "options": {},
    }
    text = json.dumps(job, sort_keys=True, indent=2) + "\n"
    if args.out == "-":
        sys.stdout.write(text)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"wrote {args.out} ({kind}, attempt {gi.attempts})",
              file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# selftest


_GOLDEN_GENERATORS = (
    "-t^2*u^4*v - s^2*v^5",
    "t^2*u^5 + s^2*u*v^4 - 2*t^2*v^5",
    "-s^2*u^4*v + 2*t^2*u*v^4 - t^2*v^5",
    "s^2*u^5 + t^2*u*v^4",
)

_GOLDEN_ALPHAS = ("s^2*v^4 + t^2*u^4", "2*t^2*v^4", "s^2*u^4 + t^2*v^4")


def _selftest_checks() -> list[tuple[str, bool]]:
    field = FieldConfig(seed=0)
    worked = implicitize(SurfaceInput.from_strings(
        2, 5, list(_GOLDEN_GENERATORS), field))
    segre = implicitize(SurfaceInput.from_strings(
        1, 1, ["s*u", "s*v", "t*u", "t*v"], field))
    va, case, orc = worked.analysis, worked.case, worked.oracle
    counts: dict[str, int] = {}
    for label, _ in worked.strand.column_labels:
        counts[label] = counts.get(label, 0) + 1
    sva = segre.analysis
    return [
        ("profile n=3 dimV=4", va.n == 3 and va.dim_v == 4),
        ("case dim4 with unit column degrees",
         case.case_tag == "dim4" and tuple(case.aux["mus"]) == (1, 1, 1)),
        ("alpha values", tuple(poly_to_str(x) for x in case.aux["alphas"])
         == _GOLDEN_ALPHAS),
        ("strand 20x20 with column counts 8+4+4+4",
         worked.strand.size == 20
         and counts == {"S": 8, "S1": 4, "S2": 4, "S3": 4}),
        ("implicit degree 10, unique up to scalar",
         orc.degree == 10 and orc.kernel_dim == 1),
        ("det = c * F^2 exactly", worked.certificate.exponent == 2),
        ("Segre n=1 dimV=2", sva.n == 1 and sva.dim_v == 2),
        ("Segre g = (u, v)",
         tuple(poly_to_str(g) for g in sva.g) == ("u", "v")),
        ("Segre equation x0*x3 - x1*x2",
         segre.oracle.f == parse_xpoly("x0*x3 - x1*x2", field.p)),
        ("Segre certificate d = 1", segre.certificate.exponent == 1),
    ]


def _cmd_selftest(args) -> int:
    checks = _selftest_checks()
    ok = all(passed for _, passed in checks)
    if args.json:
        _print_json({"ok": ok,
                     "checks": [{"name": n, "ok": p} for n, p in checks]})
    else:
        for name, passed in checks:
            print(("PASS" if passed else "FAIL") + f" {name}")
    return 0 if ok else 3


# ---------------------------------------------------------------------------
# entry point


def main(argv: Optional[list] = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HypothesisError as exc:
        print(f"hypothesis violation: {exc}", file=sys.stderr)
        return 2
    except CertificateError as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except (ParseError, OSError, ValueError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
