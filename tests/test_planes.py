"""Plane sections: batched root finding, section points on one plane and,
in the reference peel, on several, and the peel's Horner assembly."""

import math
import random

import numpy as np
import pytest

import planes_ref
from tensurf import planes
from tensurf.bipoly import DEFAULT_PRIME
from tensurf.gen import GenSpec, generate
from tensurf.xpoly import XPoly, eval_matrix, monomials_of_degree

P = DEFAULT_PRIME

# Segre, (1 : t : 1 : z) -> (1, z, t, t z): generator grids with rows indexed
# by the fixed z and columns by the solved t
SEGRE_GRIDS = [np.array(g) for g in ([[1, 0], [0, 0]], [[0, 0], [1, 0]],
                                     [[0, 1], [0, 0]], [[0, 0], [0, 1]])]


def _chi(x, p):
    return pow(x % p, (p - 1) // 2, p)


@pytest.mark.parametrize("p", [P, 65521, 23])
@pytest.mark.parametrize("K", range(1, 8))
def test_split_roots_returns_only_roots(K, p):
    rng = np.random.default_rng(K)
    f = rng.integers(0, p, (K + 1, 300))
    f[K, :40] = 0     # a zero leading coefficient gives nothing
    f[K, 40:45] = 1
    cols, roots = planes._split_roots(f, rng.integers(0, p, 300), p)
    assert len(cols) and (cols >= 40).all()
    pairs = set(zip(cols.tolist(), roots.tolist()))
    assert len(pairs) == len(cols)
    for c, r in pairs:
        assert sum(int(a) * pow(r, k, p) for k, a in enumerate(f[:, c])) % p == 0


@pytest.mark.parametrize("p", [P, 65521, 23])
@pytest.mark.parametrize("K", range(1, 8))
def test_split_roots_finds_every_isolated_root(K, p):
    # f = c (x - r_1) ... (x - r_K), distinct roots: gcd(f, w - 1) is the
    # product over the r with r + delta a nonzero square and gcd(f, w + 1)
    # over those with a non-square, so a root is found exactly when it is
    # alone in its class.  A linear f is solved directly, so its root is
    # found even when r + delta = 0
    rng = random.Random(K)
    f = np.zeros((K + 1, 60), dtype=np.int64)
    delta = [rng.randrange(p) for _ in range(60)]
    want = set()
    for j in range(60):
        roots = rng.sample(range(p), K)
        poly = [rng.randrange(1, p)]
        for z in roots:
            poly = [(lo - z * hi) % p for lo, hi in zip([0] + poly, poly + [0])]
        f[:, j] = poly
        for sign in (1, p - 1):
            alone = [z for z in roots if _chi(z + delta[j], p) == sign]
            if len(alone) == 1:
                want.add((j, alone[0]))
        if K == 1:
            want.add((j, roots[0]))
    cols, roots = planes._split_roots(f, np.array(delta), p)
    assert set(zip(cols.tolist(), roots.tolist())) == want
    assert len(cols) == len(want)


def test_section_points_drop_points_on_an_earlier_plane():
    # the reference peel's drawer, on the planes of two levels.  Segre,
    # (1 : t : 1 : z) -> (1, z, t, t z), over F_7: m1 agrees with m0 on the
    # draws with z = 3, whose point y* lies on both planes; level 1 drops it
    # there and fills up from the other draws
    p = 7
    grids = SEGRE_GRIDS
    m0 = np.array([1, 2, 3, 4])
    m1 = m0 + np.array([-3, 1, 0, 0])
    t_star = -(m0[0] + 3 * m0[1]) * pow(int(m0[2] + 3 * m0[3]), -1, p) % p
    y_star = (1, 3, t_star, 3 * t_star % p)
    seen = []
    split_roots = planes._split_roots

    def spy(f, delta, p):
        cols, roots = split_roots(f, delta, p)
        seen.extend(roots.tolist())
        return cols, roots

    with pytest.MonkeyPatch.context() as m:
        m.setattr(planes, "_split_roots", spy)
        level0, level1 = planes_ref._section_points(
            grids, np.array([m0, m1]) % p, np.array([0, 5]), 1,
            np.random.default_rng(3), p)
    assert len(level0) == 0 and len(level1) == 5
    assert t_star in seen
    assert y_star not in set(map(tuple, level1.tolist()))
    assert not (level1 @ m1 % p).any() and (level1 @ m0 % p).all()


def test_section_points_are_distinct_across_draw_rounds(monkeypatch):
    # Segre over F_7 has at most seven draw points on a plane, one per z;
    # rounds of three draws repeat them, and only distinct ones are kept
    p = 7
    grids = SEGRE_GRIDS
    monkeypatch.setattr(planes, "_ROUNDS", 40)
    sizes = []
    split_roots = planes._split_roots

    def spy(f, delta, p):
        sizes.append(f.shape[1])
        return split_roots(f, delta, p)

    monkeypatch.setattr(planes, "_split_roots", spy)
    plane = np.array([1, 2, 3, 4])
    points = planes._section_points(grids, plane, 5, 0.2,
                                    np.random.default_rng(5), p)
    assert len(sizes) >= 2 and sum(sizes) > 7
    assert len(points) == len(set(map(tuple, points.tolist()))) == 5
    assert not (points @ plane % p).any()


@pytest.mark.parametrize("spec", [GenSpec("dim2", 2, 3, 2),
                                  GenSpec("dim2", 3, 2, 1)], ids=str)
@pytest.mark.parametrize("need", [1, 12, 60])
def test_section_points_are_the_references_level_zero(spec, need):
    # the one-plane drawer takes the draws of the reference's drawer for
    # one level, so a section's points are those the reference peel starts
    # from
    inp = generate(spec, index=0, seed=0).input
    grids = [g if spec.a > spec.b else g.T for g in inp.grids]
    plane = np.array([5, 1, P - 2, 7])
    got = planes._section_points(grids, plane, need, 2,
                                 np.random.default_rng(need), P)
    (want,) = planes_ref._section_points(grids, plane[None], np.array([need]),
                                         2, np.random.default_rng(need), P)
    assert len(got) == need and got.tolist() == want.tolist()


@pytest.mark.parametrize("e", [0, 1, 2, 5])
def test_assemble_is_horner_over_the_planes(e):
    p = 65521
    rng = random.Random(e)
    forms = np.array([[rng.randrange(1, p)] + [rng.randrange(p)
                                               for _ in range(3)]
                      for _ in range(e + 1)], dtype=np.int64)
    gs = [np.array([rng.randrange(p) for _ in range(math.comb(e - k + 2, 2))],
                   dtype=np.int64) for k in range(e + 1)]

    points = np.array([[rng.randrange(p) for _ in range(4)]
                       for _ in range(12)], dtype=np.int64)

    def plane_form(k):
        # the monomials in x1, x2, x3 are the x0-free tail of those in x0..x3
        mons = monomials_of_degree(e - k)
        tail = [i for i, m in enumerate(mons) if m[0] == 0]
        assert np.array_equal(eval_matrix(e - k, points[:, 1:], p),
                              eval_matrix(e - k, points, p)[:, tail])
        return XPoly(p, {mons[i]: int(c) for i, c in zip(tail, gs[k])})

    acc = plane_form(e)
    for k in range(e - 1, -1, -1):
        m_k = XPoly(p, {tuple(int(i == j) for j in range(4)): int(forms[k, i])
                        for i in range(4)})
        acc = plane_form(k) + m_k * acc
    got = planes_ref._assemble(gs, forms, p)
    assert XPoly.from_cube(p, e, got) == acc
