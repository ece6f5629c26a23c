"""Seeded job sets for the benchmark and the checks that judge their outputs.

The planted constructions below are a standalone copy of the dim2/dim3/dim4
recipes (a syzygy of uv-degree n planted through coprime forms, or through a
Hilbert-Burch matrix with column degrees mu), so a change to the program's
own generator cannot change what the benchmark measures.  Every check here
is pure Python over the job file's own generator strings: nothing from the
program under test is trusted to decide whether its output is right.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from dataclasses import dataclass
from pathlib import Path

P = 2147483647
VARS = "stuv"

WORKED_GENERATORS = (
    "-t^2*u^4*v - s^2*v^5",
    "t^2*u^5 + s^2*u*v^4 - 2*t^2*v^5",
    "-s^2*u^4*v + 2*t^2*u*v^4 - t^2*v^5",
    "s^2*u^5 + t^2*u*v^4",
)


@dataclass(frozen=True)
class Shape:
    """A planted profile: case kind, bidegree, syzygy degree n, column degrees."""

    kind: str
    a: int
    b: int
    n: int
    mus: tuple[int, ...] = ()

    @property
    def dim_v(self) -> int:
        return {"dim2": 2, "dim3": 3, "dim4": 4}[self.kind]

    @property
    def planted_mus(self) -> list[int]:
        """Resolution column degrees as the analysis reports them, sorted."""
        if self.kind == "dim2":
            return []
        return sorted([*self.mus, self.n - sum(self.mus)])

    @property
    def label(self) -> str:
        mus = "".join(f"-mu{m}" for m in self.mus)
        return f"{self.kind}-{self.a}x{self.b}-n{self.n}{mus}"


WORKED = Shape("dim4", 2, 5, 3, (1, 1))

# (shape, index) pairs per workload and size; n is the largest b >= 2n - 1
# allows wherever the workload definition leaves it open.
JOB_SETS = {
    ("generic-d1", "full"): [(Shape("dim2", 3, 2, 1), 0),
                             (Shape("dim2", 3, 2, 1), 1),
                             (Shape("dim2", 1, 5, 3), 0),
                             (Shape("dim3", 1, 5, 3, (1,)), 0)],
    ("exact-d2", "full"): [(WORKED, None),
                           (Shape("dim2", 2, 3, 2), 0),
                           (Shape("dim3", 2, 5, 3, (1,)), 0),
                           (Shape("dim4", 2, 5, 3, (1, 1)), 0)],
    ("screen", "full"): [(shape, index)
                         for shape in (Shape("dim3", 3, 5, 3, (1,)),
                                       Shape("dim4", 4, 7, 4, (1, 1)),
                                       Shape("dim3", 4, 9, 5, (2,)),
                                       Shape("dim2", 5, 7, 4))
                         for index in (0, 1)],
    ("generic-d1", "tiny"): [(Shape("dim2", 1, 3, 2), 0),
                             (Shape("dim3", 1, 3, 2, (1,)), 0)],
    ("exact-d2", "tiny"): [(WORKED, None), (Shape("dim2", 2, 1, 1), 0)],
    ("screen", "tiny"): [(Shape("dim3", 2, 3, 2, (1,)), 0)],
}

WORKLOADS = ("generic-d1", "exact-d2", "screen")


@dataclass(frozen=True)
class Job:
    """One job file, the profile planted in it and its generators as parsed
    back from the file."""

    name: str
    shape: Shape
    worked: bool
    path: Path
    gens: tuple[dict, ...]

    def load(self) -> dict:
        with open(self.path, encoding="utf-8") as fh:
            return json.load(fh)


# ---------------------------------------------------------------------------
# sparse polynomials over F_p: dicts from (s, t, u, v) exponents to residues


def _mul(f: dict, g: dict) -> dict:
    out: dict = {}
    for (i, j, k, l), c in f.items():
        for (i2, j2, k2, l2), c2 in g.items():
            key = (i + i2, j + j2, k + k2, l + l2)
            out[key] = (out.get(key, 0) + c * c2) % P
    return {e: c for e, c in out.items() if c}


def _add(f: dict, g: dict) -> dict:
    out = dict(f)
    for e, c in g.items():
        out[e] = (out.get(e, 0) + c) % P
    return {e: c for e, c in out.items() if c}


def _neg(f: dict) -> dict:
    return {e: -c % P for e, c in f.items()}


def _random_form(rng: random.Random, degree: int) -> dict:
    """Nonzero (u, v)-form of the given degree."""
    while True:
        f = {(0, 0, degree - k, k): rng.randrange(P) for k in range(degree + 1)}
        f = {e: c for e, c in f.items() if c}
        if f:
            return f


def _random_bipoly(rng: random.Random, c: int, d: int) -> dict:
    """Nonzero bidegree (c, d) form; even c gets even (s, t) exponents only,
    so an even-a surface factors through (s : t) -> (s^2 : t^2) and has d = 2."""
    step = 2 if c % 2 == 0 else 1
    while True:
        f = {(c - j, j, d - l, l): rng.randrange(P)
             for j in range(0, c + 1, step) for l in range(d + 1)}
        f = {e: v for e, v in f.items() if v}
        if f:
            return f


def planted_generators(shape: Shape, rng: random.Random) -> tuple[dict, ...]:
    """Four generators of bidegree (a, b) with the shape's profile planted.

    With p = 2^31 - 1 a random draw misses the planted profile or has a
    basepoint with negligible probability; the output checks catch it if so.
    """
    a, b = shape.a, shape.b
    if shape.kind == "dim2":
        g0, g1 = _random_form(rng, shape.n), _random_form(rng, shape.n)
        h = _random_bipoly(rng, a, b - shape.n)
        return (_mul(g1, h), _neg(_mul(g0, h)),
                _random_bipoly(rng, a, b), _random_bipoly(rng, a, b))
    mus = [*shape.mus, shape.n - sum(shape.mus)]
    rows = shape.dim_v
    psi = [[_random_form(rng, mus[k]) for k in range(rows - 1)]
           for _ in range(rows)]
    ws = [_random_bipoly(rng, a, b - mus[k]) for k in range(rows - 1)]
    f_prime = []
    for i in range(rows):
        acc: dict = {}
        for k in range(rows - 1):
            acc = _add(acc, _mul(psi[i][k], ws[k]))
        f_prime.append(acc)
    if rows == 3:
        f_prime.append(_random_bipoly(rng, a, b))
    return tuple(f_prime)


def poly_to_str(f: dict) -> str:
    terms = []
    for exp, c in sorted(f.items(), reverse=True):
        mono = [v if e == 1 else f"{v}^{e}" for v, e in zip(VARS, exp) if e]
        terms.append("*".join([str(c), *mono]))
    return " + ".join(terms)


def parse_poly(text: str) -> dict:
    """Parse the job-file grammar (integer coefficients, s t u v, ^ and *)."""
    out: dict = {}
    for sign, body in re.findall(r"([+-]?)\s*([^+-]+)", text):
        coeff, exp = 1, [0, 0, 0, 0]
        for factor in body.replace(" ", "").split("*"):
            if factor.isdigit():
                coeff *= int(factor)
            else:
                name, _, power = factor.partition("^")
                exp[VARS.index(name)] += int(power or 1)
        key = tuple(exp)
        out[key] = (out.get(key, 0) + (-coeff if sign == "-" else coeff)) % P
    return {e: c for e, c in out.items() if c}


def eval_poly(f: dict, point) -> int:
    acc = 0
    for exp, c in f.items():
        term = c
        for x, e in zip(point, exp):
            term = term * pow(x, e, P) % P
        acc += term
    return acc % P


# ---------------------------------------------------------------------------
# job sets


def make_jobs(workload: str, seed: int, size: str, directory: Path
              ) -> list[Job]:
    """Write the workload's job files for ``seed`` and return them in order."""
    directory.mkdir(parents=True, exist_ok=True)
    jobs = []
    for pos, (shape, index) in enumerate(JOB_SETS[(workload, size)]):
        if index is None:
            name = "worked-2x5"
            texts = list(WORKED_GENERATORS)
        else:
            name = f"{shape.label}-i{index}"
            rng = random.Random(f"perfbench:{seed}:{shape.label}:{index}")
            texts = [poly_to_str(g) for g in planted_generators(shape, rng)]
        path = directory / f"{pos:02d}-{name}.json"
        body = {"a": shape.a, "b": shape.b, "prime": P, "generators": texts,
                "options": {}}
        path.write_text(json.dumps(body, indent=2, sort_keys=True) + "\n",
                        encoding="utf-8")
        gens = tuple(parse_poly(t) for t in texts)
        jobs.append(Job(name, shape, index is None, path, gens))
    return jobs


def digest(jobs: list[Job]) -> str:
    h = hashlib.sha256()
    for job in jobs:
        h.update(job.path.name.encode())
        h.update(job.path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# output checks: each returns the list of problems found, empty when correct


def _random_points(rng: random.Random, count: int) -> list[tuple[int, ...]]:
    return [tuple(rng.randrange(1, P) for _ in range(4)) for _ in range(count)]


def check_implicitize(job: Job, payload: dict, rng: random.Random
                      ) -> list[str]:
    """Judge an ``implicitize --json`` report against the job it came from."""
    shape, problems = job.shape, []
    if not payload.get("certificate", {}).get("passed"):
        problems.append("certificate not passed")
    if (payload.get("a"), payload.get("b")) != (shape.a, shape.b):
        problems.append("bidegree not echoed")
    deg_f, deg_phi = payload.get("deg_f", 0), payload.get("deg_phi", 0)
    if deg_f * deg_phi != 2 * shape.a * shape.b:
        problems.append(f"deg F * deg phi = {deg_f} * {deg_phi} != 2ab")
    got = (payload.get("n"), payload.get("dim_v"), payload.get("mus"))
    want = (shape.n, shape.dim_v, shape.planted_mus)
    if got != want:
        problems.append(f"profile (n, dim V, mus) = {got}, planted {want}")
    f = {}
    for row in payload.get("f_coefficients", []):
        exp, c = tuple(row["exponents"]), row["coeff"] % P
        if sum(exp) != deg_f:
            problems.append(f"F term {exp} is not of degree {deg_f}")
        if c:
            f[exp] = c
    if not f:
        problems.append("F is zero")
    for point in _random_points(rng, 4):
        image = [eval_poly(g, point) for g in job.gens]
        if eval_poly(f, image):
            problems.append(f"F does not vanish at the image of {point}")
            break
    if job.worked and (deg_f, deg_phi, payload.get("c")) != (10, 2, P - 1):
        problems.append(f"worked surface gave deg F = {deg_f}, d = {deg_phi}, "
                        f"c = {payload.get('c')}; want 10, 2, p - 1")
    return problems


def check_screen(job: Job, report, va, case, strand, rng: random.Random
                 ) -> list[str]:
    """Judge the pre-oracle stages: screen verdict, profile, syzygies, strand."""
    shape, problems = job.shape, []
    if report.status != "free":
        problems.append(f"basepoint screen says {report.status}")
    mus = case.aux.get("mus")
    got = (va.n, va.dim_v, sorted(mus) if mus is not None else [])
    want = (shape.n, shape.dim_v, shape.planted_mus)
    if got != want:
        problems.append(f"profile (n, dim V, mus) = {got}, planted {want}")
    size = 2 * shape.a * shape.b
    if strand.size != size or strand.tensor.shape[:2] != (size, size):
        problems.append(f"strand is not {size} x {size}")
    # The syzygies act on the changed basis new_j = sum_i T[i, j] * gen_i.
    transition = [[int(x) for x in row] for row in va.transition]
    for point in _random_points(rng, 2):
        g_vals = [eval_poly(g, point) for g in job.gens]
        new = [sum(transition[i][j] * g_vals[i] for i in range(4)) % P
               for j in range(4)]
        for col in case.syzygies:
            if sum(eval_poly(e.terms, point) * x
                   for e, x in zip(col.entries, new)) % P:
                problems.append(f"syzygy {col.label} does not annihilate "
                                "the generators")
                return problems
    return problems
