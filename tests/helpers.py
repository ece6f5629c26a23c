"""Utilities shared between test modules."""

from tensurf import oracle
from tensurf.bipoly import BiPoly, DEFAULT_PRIME
from tensurf.cases import CaseResult, SyzygyColumn

P = DEFAULT_PRIME


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
