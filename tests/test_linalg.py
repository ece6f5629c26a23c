"""Exact dense linear algebra over F_p."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import gauss_ref
from tensurf import linalg
from tensurf.bipoly import DEFAULT_PRIME, _is_prime, multiplication_matrix

P = DEFAULT_PRIME
PRIMES = [DEFAULT_PRIME, 65521, 3]


def random_matrix(rng, rows, cols, p=P):
    return np.array([[rng.randrange(p) for _ in range(cols)]
                     for _ in range(rows)], dtype=np.int64)


def mat_vec(M, v, p=P):
    return linalg.matmul_mod(M, np.reshape(v, (-1, 1)), p)[:, 0]


def test_rref_frozen():
    M = [[2, 4, 6], [1, 2, 4], [0, 0, 1]]
    res = linalg.rref(M, 7)
    assert res.rank == 2
    assert res.pivots == (0, 2)
    assert res.matrix.tolist() == [[1, 2, 0], [0, 0, 1], [0, 0, 0]]


def test_rref_idempotent_random():
    rng = random.Random(3)
    for _ in range(10):
        M = random_matrix(rng, rng.randrange(1, 6), rng.randrange(1, 6))
        res = linalg.rref(M, P)
        again = linalg.rref(res.matrix, P)
        assert np.array_equal(res.matrix, again.matrix)
        assert res.pivots == again.pivots


def test_kernel_basis_canonical_frozen():
    # x0 + 2 x2 = 0, x1 + 3 x2 = 0 with x3 free as well
    M = [[1, 0, 2, 0], [0, 1, 3, 0]]
    kern = linalg.kernel_basis(M, P)
    assert len(kern) == 2
    assert kern[0].tolist() == [P - 2, P - 3, 1, 0]
    assert kern[1].tolist() == [0, 0, 0, 1]


def test_kernel_vectors_annihilate_random():
    rng = random.Random(9)
    for _ in range(15):
        M = random_matrix(rng, rng.randrange(1, 7), rng.randrange(1, 7))
        kern = linalg.kernel_basis(M, P)
        assert len(kern) == M.shape[1] - linalg.rank(M, P)
        for v in kern:
            assert not np.any(mat_vec(M, v))


def test_solve_particular_random_and_inconsistent():
    rng = random.Random(17)
    for _ in range(15):
        M = random_matrix(rng, 5, 4)
        x = np.array([rng.randrange(P) for _ in range(4)], dtype=np.int64)
        b = mat_vec(M, x)
        sol = linalg.solve_particular(M, b, P)
        assert sol is not None
        assert np.array_equal(mat_vec(M, sol), b)
    assert linalg.solve_particular([[1, 0], [1, 0]], [1, 2], P) is None


@pytest.mark.parametrize("p", PRIMES)
def test_solve_particular_solves_every_column_at_once(p):
    # a rank-deficient system (free variables set to 0) with six
    # right-hand sides: each column is the solution of its own solve; one
    # inconsistent column makes the whole solve None
    rng = np.random.default_rng(p % 991)
    A = rng.integers(0, p, size=(9, 5), dtype=np.int64)
    M = np.hstack([A, A[:, :2] * 3 % p])
    B = np.stack([mat_vec(M, rng.integers(0, p, size=7, dtype=np.int64), p)
                  for _ in range(6)], axis=1)
    X = linalg.solve_particular(M, B, p)
    assert X.shape == (7, 6)
    for k in range(6):
        assert X[:, k].tolist() == linalg.solve_particular(M, B[:, k], p).tolist()
    B[4, 2] = (B[4, 2] + 1) % p
    assert linalg.solve_particular(M, B[:, 2], p) is None
    assert linalg.solve_particular(M, B, p) is None


def test_det_field_frozen_and_multiplicative():
    assert linalg.det_field([[1, 2], [3, 4]], P) == P - 2
    assert linalg.det_field([[1, 2], [2, 4]], P) == 0
    assert linalg.det_field([[0, 1], [1, 0]], P) == P - 1
    rng = random.Random(29)
    for _ in range(10):
        A = random_matrix(rng, 4, 4)
        B = random_matrix(rng, 4, 4)
        lhs = linalg.det_field(linalg.matmul_mod(A, B, P), P)
        rhs = linalg.det_field(A, P) * linalg.det_field(B, P) % P
        assert lhs == rhs


def test_batch_det_agrees_with_scalar_det():
    rng = random.Random(43)
    mats = np.stack([random_matrix(rng, 5, 5) for _ in range(30)])
    mats[3] = mats[4]  # duplicate rows later to force zeros
    mats[7, 2] = mats[7, 1]
    batch = linalg.batch_det(mats, P)
    for k in range(mats.shape[0]):
        assert batch[k] == linalg.det_field(mats[k], P)
        assert batch[k] == gauss_ref.det(mats[k].tolist(), P)
    assert batch[7] == 0


# Batched determinants.  Each stack mixes the cases the elimination treats
# separately: pivots that need row swaps, singular matrices that drop out,
# structurally sparse matrices whose all-zero rows and columns are skipped,
# and entries at the top of the residue range.


def _det_stack(p, n, seed):
    """Matrices of size n over F_p, one of each kind."""
    rng = np.random.default_rng(seed)

    def rand():
        return rng.integers(0, p, size=(n, n), dtype=np.int64)

    mats = [rand(), np.full((n, n), p - 1, dtype=np.int64),
            np.full((n, n), p - 1, dtype=np.int64) + np.eye(n, dtype=np.int64)]
    swaps = rand()
    swaps[:n // 2, :n // 2] = 0   # zero leading columns down to row n/2
    mats.append(swaps)
    sparse = rand() * (rng.random((n, n)) < 0.2)
    mats.append(sparse + np.diag(rng.integers(1, p, n))[rng.permutation(n)])
    if n > 1:
        dup = rand()
        dup[n - 1] = dup[0]
        mats.append(dup)
        late = rand()
        late[:, n - 1] = late[:, n - 2]
        mats.append(late)
    return np.stack(mats) % p


def _lu_stack(p, n, skip_rows):
    """L @ U with every rank-one term of the elimination equal to h**2.

    L is unit lower triangular with multipliers h = (p - 1) // 2 (zero in
    the rows of ``skip_rows``), U upper triangular with entries h above a
    diagonal 1..n, so the determinant is n! and entry (i, j) takes up to
    min(i, j) updates of the same sign: more than K without a reduction
    would overflow int64.
    """
    h = (p - 1) // 2
    L = np.eye(n, dtype=np.int64) + np.tril(np.full((n, n), h), -1)
    L[skip_rows, :] = np.eye(n, dtype=np.int64)[skip_rows]
    U = np.triu(np.full((n, n), h), 1) + np.diag(np.arange(1, n + 1))
    return linalg.matmul_mod(L, U, p)


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 20, 33])
def test_batch_det_matches_references(p, n):
    mats = _det_stack(p, n, seed=n + p % 1000)
    batch = linalg.batch_det(mats, p)
    assert batch.shape == (len(mats),)
    for k, M in enumerate(mats):
        assert int(batch[k]) == gauss_ref.det(M.tolist(), p), k
    if n > 1:
        assert batch[1] == 0 and batch[-2] == 0 and batch[-1] == 0
    assert int(batch[2]) == (1 - n) % p   # (p - 1) * ones + identity


@pytest.mark.parametrize("p", PRIMES)
def test_batch_det_equal_signed_updates_stay_exact(p):
    n = 20
    factorial = 1
    for k in range(2, n + 1):
        factorial = factorial * k % p
    mats = np.stack([_lu_stack(p, n, []), _lu_stack(p, n, [3, 7, 8, 15])])
    assert linalg.batch_det(mats, p).tolist() == [factorial, factorial]


def test_batch_det_all_matrices_die_early():
    rng = random.Random(61)
    mats = np.stack([random_matrix(rng, 6, 6) for _ in range(9)])
    mats[:, :, 1] = (3 * mats[:, :, 0]) % P
    assert linalg.batch_det(mats, P).tolist() == [0] * 9
    mats[:, :, 0] = 0
    assert linalg.batch_det(mats, P).tolist() == [0] * 9


def test_batch_det_across_block_boundaries(monkeypatch):
    # 11 matrices of size 5 in blocks of 3: the last block is partial
    monkeypatch.setattr(linalg, "DET_BLOCK", 3 * 25)
    mats = np.concatenate([_det_stack(P, 5, seed=71), _det_stack(P, 5, seed=72)])
    assert len(mats) % 3 != 0
    batch = linalg.batch_det(mats, P)
    assert batch.tolist() == [gauss_ref.det(M.tolist(), P) for M in mats]


@pytest.mark.parametrize("p", PRIMES)
@pytest.mark.parametrize("n", [1, 2, 20, 33])
def test_det_block_matches_batch_det_and_det_field(p, n):
    # the reference families, plus two stacks whose equal-signed updates
    # force reductions; the block is split across two in-place calls
    mats = _det_stack(p, n, seed=n + p % 1000)
    if n > 2:
        mats = np.concatenate([mats, np.stack(
            [_lu_stack(p, n, []), _lu_stack(p, n, [1, n // 2])])])
    want = [gauss_ref.det(M.tolist(), p) for M in mats]
    assert [linalg.det_field(M, p) for M in mats] == want
    assert linalg.batch_det(mats, p).tolist() == want
    block = np.ascontiguousarray(np.moveaxis(mats, 0, -1))
    cut = len(mats) // 2
    got = np.concatenate([linalg.det_block(block[:, :, :cut], p),
                          linalg.det_block(block[:, :, cut:], p)])
    assert got.tolist() == want


def _mixed_block(p, n, swap_col, seed):
    """An (n, n, m) block of three kinds of matrix L @ W, L unit lower
    triangular with multipliers h = (p - 1) // 2 and W with entries h above
    a nonzero diagonal, so that every rank-one term is h**2 in magnitude:

    * W upper triangular: every pivot is nonzero;
    * W upper triangular in its first ``swap_col`` columns, random below,
      with the first k = 1, 2, 3 entries of its column ``swap_col`` zero
      from the diagonal down: a row swap at that column, k rows down;
    * one matrix with a repeated row: singular.
    """
    rng = np.random.default_rng(seed)
    h = (p - 1) // 2
    L = np.eye(n, dtype=np.int64) + np.tril(np.full((n, n), h), -1)

    def upper():
        return (np.triu(np.full((n, n), h), 1)
                + np.diag(rng.integers(1, p, size=n)))

    mats = [linalg.matmul_mod(L, upper(), p) for _ in range(3)]
    for k in (1, 2, 3):
        W = upper()
        W[swap_col:, swap_col:] = rng.integers(0, p, size=(n - swap_col,) * 2)
        W[swap_col:swap_col + k, swap_col] = 0
        W[swap_col + k, swap_col] = rng.integers(1, p)
        mats.append(linalg.matmul_mod(L, W, p))
    singular = linalg.matmul_mod(L, upper(), p)
    singular[n - 2] = singular[3]
    mats.append(singular)
    return np.ascontiguousarray(np.moveaxis(np.stack(mats), 0, -1))


@pytest.mark.parametrize("p", [P, min(PRIMES)])
def test_det_block_on_a_mixed_block_with_lazy_reductions(p):
    # n = 2K + 3 at P: the last rows are reduced twice before their last
    # update, K from _reduction_period(P)
    n = 2 * linalg._reduction_period(P) + 3
    block = _mixed_block(p, n, swap_col=n // 2, seed=p % 1000)
    want = [gauss_ref.det(block[:, :, k].tolist(), p)
            for k in range(block.shape[2])]
    assert linalg.det_block(block.copy(), p).tolist() == want
    assert want[-1] == 0
    if p == P:
        assert all(want[:-1])
    # a sparse block, block upper triangular with diagonal blocks 10, 5
    # and 4: nothing lies below the pivots of columns 9 and 14 in any
    # matrix, the columns left of them update only the rows above, and row
    # 5 is zero off the diagonal, so no column right of its pivot takes an
    # update
    rng = np.random.default_rng(p % 1000 + 1)
    mats = rng.integers(0, p, size=(6, n, n)) * (rng.random((6, n, n)) < 0.3)
    mats[:, 10:, :10] = mats[:, 15:, :15] = mats[:, 5] = 0
    mats = (mats + np.diag(rng.integers(1, p, size=n))) % p
    sparse = np.ascontiguousarray(np.moveaxis(mats, 0, -1))
    assert linalg.det_block(sparse, p).tolist() == [
        gauss_ref.det(M.tolist(), p) for M in mats]


@pytest.mark.parametrize("p", PRIMES)
def test_reduction_period_is_the_largest_safe_one(p):
    K = linalg._reduction_period(p)
    h = (p - 1) // 2
    assert K * h * h + p < 2 ** 63 <= (K + 1) * h * h + p
    if p == P:
        assert K == 8


@pytest.mark.parametrize("p", PRIMES)
def test_balanced_lifts_in_place_to_the_symmetric_range(p):
    h = (p - 1) // 2
    x = np.array([0, 1, h, h + 1, p - 1], dtype=np.int64)
    assert linalg.balanced(x, p) is x
    assert x.tolist() == [0, 1, h, -h, -1]


@pytest.mark.parametrize("size", [1, 2, 3, 5, 8, 100])
def test_inverse_many_matches_python_pow(size):
    rng = random.Random(size)
    x = np.array([rng.randrange(1, P) for _ in range(size)], dtype=np.int64)
    inv = linalg.inverse_many(x, P)
    assert inv.tolist() == [pow(int(v), -1, P) for v in x]


def test_matmul_mod_matches_python_ints():
    rng = random.Random(51)
    A = random_matrix(rng, 3, 4)
    B = random_matrix(rng, 4, 2)
    C = linalg.matmul_mod(A, B, P)
    for i in range(3):
        for j in range(2):
            want = sum(int(A[i, k]) * int(B[k, j]) for k in range(4)) % P
            assert int(C[i, j]) == want


def test_pow_mod_array_matches_python_pow():
    rng = random.Random(57)
    for p in PRIMES:
        x = np.array([rng.randrange(p) for _ in range(20)], dtype=np.int64)
        for e in (0, 1, 2, 7, p - 2):
            got = linalg.pow_mod_array(x, e, p)
            assert got.tolist() == [pow(int(v), e, p) for v in x]


# Blocked paths.  The matrices are wider than one elimination panel, so the
# recursive halving, the triangular solves and the Schur updates all run;
# the row chunk is shrunk so that every product spans several chunks.


def _blocked_cases(p, seed):
    """Rectangular and square matrices over F_p exercising the blocked paths.

    Planted rank deficiency (a product through a thin middle), zero columns,
    and zero leading rows that force row swaps for the early pivots.
    """
    rng = np.random.default_rng(seed)

    def rand(m, n):
        return rng.integers(0, p, size=(m, n), dtype=np.int64)

    deficient = linalg.matmul_mod(rand(90, 48), rand(48, 75), p)
    deficient[:, [3, 40, 41]] = 0
    deficient[:7, :50] = 0
    wide = rand(70, 110)
    wide[:, [0, 33, 34, 35, 90]] = 0
    wide[:4] = 0
    square = rand(72, 72)
    square[:5, :40] = 0
    singular = square.copy()
    singular[:, 60] = (2 * singular[:, 10] + singular[:, 50]) % p
    odd_swaps = square[[5] + list(range(5)) + list(range(6, 72))]
    return [deficient, wide, square, singular, odd_swaps]


@pytest.fixture
def small_chunks(monkeypatch):
    monkeypatch.setattr(linalg, "_CHUNK", 300)


@pytest.mark.parametrize("p", PRIMES)
def test_blocked_elimination_matches_reference(p, small_chunks):
    for k, M in enumerate(_blocked_cases(p, seed=p % 1000)):
        rows = M.tolist()
        ref_R, ref_piv = gauss_ref.rref(rows, p)
        res = linalg.rref(M, p)
        assert res.pivots == tuple(ref_piv)
        assert res.rank == len(ref_piv) == linalg.rank(M, p)
        assert res.matrix.tolist() == ref_R
        kern = linalg.kernel_basis(M, p)
        assert [v.tolist() for v in kern] == gauss_ref.kernel(rows, p)
        for v in kern:
            assert not np.any(mat_vec(M, v, p))
        if M.shape[0] == M.shape[1]:
            assert linalg.det_field(M, p) == gauss_ref.det(rows, p)
            # the inverse is the solution of M X = I, None when singular
            inv = linalg.solve_particular(M, np.eye(len(M), dtype=np.int64), p)
            ref_inv = gauss_ref.inverse(rows, p)
            assert (inv if inv is None else inv.tolist()) == ref_inv


@pytest.mark.parametrize("p", PRIMES)
def test_blocked_solve_matches_reference(p, small_chunks):
    rng = np.random.default_rng(p % 997)
    inconsistent = 0
    for M in _blocked_cases(p, seed=p % 1000):
        rows = M.tolist()
        x = rng.integers(0, p, size=M.shape[1], dtype=np.int64)
        b = mat_vec(M, x, p)
        sol = linalg.solve_particular(M, b, p)
        assert sol.tolist() == gauss_ref.solve(rows, b.tolist(), p)
        assert np.array_equal(mat_vec(M, sol, p), b)
        b = b.copy()
        b[0] = (b[0] + 1) % p  # row 0 of `wide` is zero: inconsistent
        ref = gauss_ref.solve(rows, b.tolist(), p)
        got = linalg.solve_particular(M, b, p)
        if ref is None:
            inconsistent += 1
            assert got is None
        else:
            assert got.tolist() == ref
    assert inconsistent


def _worst_entries(p):
    """p - 1 and, when p > 2**16, the largest residue whose low 16-bit limb
    is all ones: the entries that maximize the limb products."""
    values = [p - 1]
    if p - 1 >= 0xFFFF:
        values.append(p - 1 - (p - 1 - 0xFFFF) % 0x10000)
    return values


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_mod_worst_case_entries(p):
    inner = 5000
    for v in _worst_entries(p):
        A = np.full((30, inner), v, dtype=np.int64)
        B = np.full((inner, 3), v, dtype=np.int64)
        B[0, 1] = 0
        C = linalg.matmul_mod(A, B, p)
        want = inner * v * v % p
        assert C[:, 0].tolist() == [want] * 30
        assert C[:, 1].tolist() == [(inner - 1) * v * v % p] * 30
    # High limbs all ones over a long inner dimension: without the reduction
    # before the 2**16 scaling, the int64 accumulator would overflow.
    v = p - 1
    long_inner = 1 << 18
    C = linalg.matmul_mod(np.full((1, long_inner), v, dtype=np.int64),
                          np.full((long_inner, 1), v, dtype=np.int64), p)
    assert int(C[0, 0]) == long_inner * v * v % p
    rng = np.random.default_rng(5)
    A = rng.integers(0, p, size=(6, inner), dtype=np.int64)
    B = rng.integers(0, p, size=(inner, 4), dtype=np.int64)
    assert linalg.matmul_mod(A, B, p).tolist() == gauss_ref.matmul(
        A.tolist(), B.tolist(), p)


@pytest.mark.parametrize("p", PRIMES)
def test_matmul_mod_is_exact_at_the_limb_split_boundaries(p):
    # 64 is the widest inner dimension whose products keep the left operand
    # whole for every p < 2**31, 65 the narrowest that splits both, and
    # MAX_INNER the widest that matmul_mod accepts
    rng = np.random.default_rng(p % 1009)
    for inner in (64, 65):
        for v in _worst_entries(p):
            A = np.full((3, inner), v, dtype=np.int64)
            B = np.full((inner, 4), v, dtype=np.int64)
            A[1] = rng.integers(0, p, size=inner)
            B[:, 2] = rng.integers(0, p, size=inner)
            B[inner // 2, 3] = 0
            assert linalg.matmul_mod(A, B, p).tolist() == gauss_ref.matmul(
                A.tolist(), B.tolist(), p)
    # at MAX_INNER the reference's Python sum takes seconds per entry, so
    # the constant operands are checked against its closed form
    k = linalg.MAX_INNER
    for v in _worst_entries(p):
        A = np.full((2, k), v, dtype=np.int64)
        B = np.full((k, 2), v, dtype=np.int64)
        B[k // 2, 1] = 0
        want = [k * v * v % p, (k - 1) * v * v % p]
        assert linalg.matmul_mod(A, B, p).tolist() == [want, want]


def test_matmul_mod_rejects_inexact_inner_dimension():
    k = linalg.MAX_INNER
    assert linalg.matmul_mod(np.zeros((0, k), dtype=np.int64),
                             np.zeros((k, 0), dtype=np.int64), P).shape == (0, 0)
    with pytest.raises(ValueError):
        linalg.matmul_mod(np.zeros((0, k + 1), dtype=np.int64),
                          np.zeros((k + 1, 0), dtype=np.int64), P)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 80), st.sampled_from(["least", 65521, P]))
@example(0, "least")
@example(80, "least")
@example(80, P)
def test_newton_operators_invert_the_vandermonde_matrix(degree, prime):
    # newton @ diff = V^-1 for the nodes 0..degree, in exact integers
    p = prime if prime != "least" else next(
        q for q in range(degree + 1, 2 * degree + 3) if _is_prime(q))
    diff, newton = linalg.newton_operators(degree, p)
    assert diff.shape == newton.shape == (degree + 1, degree + 1)
    vander = np.array([[pow(i, j, p) for j in range(degree + 1)]
                       for i in range(degree + 1)], dtype=object)
    product = newton.astype(object) @ diff.astype(object) @ vander % p
    assert (product == np.eye(degree + 1, dtype=int)).all()


def test_newton_operators_are_cached_and_read_only():
    diff, newton = linalg.newton_operators(12, 65521)
    for mat in (diff, newton):
        with pytest.raises(ValueError):
            mat[0, 0] = 2
        with pytest.raises(ValueError):
            mat += 1
    again = linalg.newton_operators(12, 65521)
    assert again[0] is diff and again[1] is newton


# Properties on generated systems.  Multiplication matrices of sparse forms
# are banded, and many of their columns have nothing below the pivot; the
# determinant blocks share one random zero pattern, so whole rows and
# columns of a block drop out of the elimination.


def _coefficients(p):
    """Coefficients that are mostly zero, else 1, p - 1 or any residue."""
    return st.one_of(st.just(0), st.just(0), st.sampled_from([1, p - 1]),
                     st.integers(0, p - 1))


@st.composite
def _banded_systems(draw):
    p = draw(st.sampled_from(PRIMES))
    d = draw(st.integers(0, 8))
    forms = draw(st.lists(st.lists(_coefficients(p), min_size=1, max_size=5),
                          min_size=1, max_size=3))
    width = max(len(f) for f in forms) + d
    blocks = [multiplication_matrix(np.array([f]), 0, width - len(f))
              for f in forms]
    return p, np.hstack(blocks) % p, draw(st.randoms(use_true_random=False))


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(_banded_systems())
def test_banded_systems_match_the_reference(system):
    p, M, rnd = system
    rows = M.tolist()
    _, pivots = gauss_ref.rref(rows, p)
    assert linalg.rank(M, p) == len(pivots)
    assert [v.tolist() for v in linalg.kernel_basis(M, p)] == \
        gauss_ref.kernel(rows, p)
    x = [rnd.randrange(p) for _ in range(M.shape[1])]
    b = gauss_ref.matmul(rows, [[v] for v in x], p)
    for rhs in ([v for v, in b], [rnd.randrange(p) for _ in b]):
        got = linalg.solve_particular(M, rhs, p)
        assert (got if got is None else got.tolist()) == \
            gauss_ref.solve(rows, rhs, p)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(st.sampled_from(PRIMES), st.integers(1, 12), st.integers(1, 5),
       st.floats(0.1, 1.0), st.integers(0, 2 ** 32 - 1))
def test_det_block_on_random_zero_patterns(p, n, m, density, seed):
    rng = np.random.default_rng(seed)
    mask = rng.random((n, n)) < density
    mats = rng.integers(0, p, size=(m, n, n)) * mask
    mats[:, mask & (rng.random((n, n)) < 0.3)] = p - 1
    want = [gauss_ref.det(M.tolist(), p) for M in mats]
    block = np.moveaxis(mats, 0, -1).copy()
    assert linalg.det_block(block, p).tolist() == want
