"""Utilities shared between test modules."""

import dataclasses
import functools
import importlib.util
import sys
from pathlib import Path

import numpy as np

from tensurf import oracle
from tensurf.bipoly import BiPoly, DEFAULT_PRIME, coeff_grid, parse_poly
from tensurf.cases import CaseResult, SyzygyColumn
from tensurf.strand import Strand
from tensurf.syzygy import SurfaceInput

P = DEFAULT_PRIME
ROOT = Path(__file__).resolve().parent.parent


def uv_form(coeffs, p: int = P) -> BiPoly:
    """The (0, d)-form sum_k coeffs[k] u^(d-k) v^k, d = len(coeffs) - 1."""
    return BiPoly.from_grid(np.array([[c % p for c in coeffs]]), p)


def form_coeffs(f: BiPoly) -> list[int]:
    """The coefficients of a nonzero binary form in coeff_grid order."""
    return coeff_grid(f, *f.bidegree()).ravel().tolist()


def mutate_case(case: CaseResult, rng) -> CaseResult:
    """Copy of ``case`` with a single random coefficient of a single syzygy
    entry changed by a nonzero amount (bidegrees preserved)."""
    cols = list(case.syzygies)
    ci = rng.randrange(len(cols))
    col = cols[ci]
    entries = list(col.entries)
    ei = rng.randrange(len(entries))
    c, d = col.bidegree
    j = rng.randrange(c + 1)
    l = rng.randrange(d + 1)
    exp = (c - j, j, d - l, l)
    delta = rng.randrange(1, P)
    terms = dict(entries[ei].terms)
    value = (terms.get(exp, 0) + delta) % P
    if value:
        terms[exp] = value
    else:
        del terms[exp]
    entries[ei] = BiPoly(P, terms)
    cols[ci] = SyzygyColumn(col.label, col.bidegree, tuple(entries))
    return CaseResult(case.analysis, case.case_tag, tuple(cols), case.aux,
                      case.checks)


def with_transition(case: CaseResult, transition) -> CaseResult:
    """Copy of ``case`` whose analysis claims ``transition`` as its change of
    generator basis; the identity builds the strand in the changed basis."""
    analysis = dataclasses.replace(
        case.analysis, transition=np.asarray(transition, dtype=np.int64))
    return dataclasses.replace(case, analysis=analysis)


def spy_peel(monkeypatch) -> list:
    """Record the degree e of every plane peel (levels 1..e) that the oracle
    runs."""
    degrees = []
    original = oracle.peel

    def spy(sec):
        degrees.append(sec.e)
        return original(sec)

    monkeypatch.setattr(oracle, "peel", spy)
    return degrees


def spy_section(monkeypatch) -> list:
    """Record the degree e of every level-0 plane section that the oracle
    takes (None when it gives none)."""
    degrees = []
    original = oracle.section

    def spy(inp, gen_grids):
        sec = original(inp, gen_grids)
        degrees.append(None if sec is None else sec.e)
        return sec

    monkeypatch.setattr(oracle, "section", spy)
    return degrees


def bench_jobs(workload: str, directory: Path) -> list:
    """The seed-1 job files of a perfbench workload, written to
    ``directory``."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_jobs", ROOT / "perfbench" / "jobs.py")
    jobs = importlib.util.module_from_spec(spec)
    # its dataclasses look their module up in sys.modules
    sys.modules.setdefault(spec.name, jobs)
    spec.loader.exec_module(jobs)
    return jobs.make_jobs(workload, 1, "full", directory)


def spy_blocks(monkeypatch) -> list:
    """Record the size of every strand whose block decomposition
    (``Strand.blocks``, cached per strand) is computed."""
    sizes = []
    original = Strand.blocks.func

    def spy(strand):
        sizes.append(strand.size)
        return original(strand)

    cached = functools.cached_property(spy)
    cached.__set_name__(Strand, "blocks")
    monkeypatch.setattr(Strand, "blocks", cached)
    return sizes


def spy_det_points(monkeypatch) -> list:
    """Record the number of points of every ``Strand.det_at_many`` call."""
    counts = []
    original = Strand.det_at_many

    def spy(self, points):
        counts.append(len(points))
        return original(self, points)

    monkeypatch.setattr(Strand, "det_at_many", spy)
    return counts


def spy_row_identity(monkeypatch) -> list:
    """Record the size of every strand whose row identity the oracle
    evaluates."""
    sizes = []
    original = oracle._row_identity

    def spy(inp, strand):
        sizes.append(strand.size)
        return original(inp, strand)

    monkeypatch.setattr(oracle, "_row_identity", spy)
    return sizes


def spy_vanishes_at(monkeypatch) -> list:
    """Record the degree of every product-grid proof that the oracle
    runs."""
    degrees = []
    original = oracle._vanishes_at

    def spy(degree, points, cube, p):
        degrees.append(degree)
        return original(degree, points, cube, p)

    monkeypatch.setattr(oracle, "_vanishes_at", spy)
    return degrees


def compose_quadratic(inp: SurfaceInput) -> SurfaceInput:
    """``inp`` composed with the basepoint-free map (s : t) -> (s^2 + st :
    t^2 + 3st): bidegree (2a, b), and a strand that does not split into
    blocks of size deg F."""
    p = inp.field.p
    q1, q2 = parse_poly("s^2 + s*t", p), parse_poly("t^2 + 3*s*t", p)
    u, v = parse_poly("u", p), parse_poly("v", p)
    gens = []
    for g in inp.gens:
        acc = BiPoly.zero(p)
        for (i, j, k, l), c in g.terms.items():
            acc = acc + (q1 ** i * q2 ** j * u ** k * v ** l).scale(c)
        gens.append(acc)
    return SurfaceInput(2 * inp.a, inp.b, tuple(gens), inp.field)


def multiplication_matrix_ref(grid, c: int, d: int) -> np.ndarray:
    """``bipoly.multiplication_matrix`` by fancy indexing: the grid entry
    t^x v^y times the monomial t^j v^l lands at [j + x, l + y, j, l]."""
    a1, b1 = grid.shape
    j = np.arange(c + 1)[:, None, None, None]
    l = np.arange(d + 1)[:, None, None]
    x, y = np.arange(a1)[:, None], np.arange(b1)
    out = np.zeros((a1 + c, b1 + d, c + 1, d + 1), dtype=np.int64)
    out[j + x, l + y, j, l] = grid
    return out.reshape((a1 + c) * (b1 + d), (c + 1) * (d + 1))
