"""Reference Gauss-Jordan elimination over F_p on lists of Python ints.

Deliberately unblocked and unvectorized: the tests compare the exact numpy
routines of ``tensurf.linalg`` against it.
"""


def rref(rows, p):
    """(reduced rows, pivot columns) with leftmost pivots."""
    M = [[int(x) % p for x in row] for row in rows]
    n_rows = len(M)
    n_cols = len(M[0]) if M else 0
    pivots = []
    for c in range(n_cols):
        r = len(pivots)
        if r == n_rows:
            break
        pr = next((i for i in range(r, n_rows) if M[i][c]), None)
        if pr is None:
            continue
        M[r], M[pr] = M[pr], M[r]
        inv = pow(M[r][c], -1, p)
        M[r] = [x * inv % p for x in M[r]]
        for i in range(n_rows):
            f = M[i][c]
            if i != r and f:
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[r])]
        pivots.append(c)
    return M, pivots


def kernel(rows, p):
    """Canonical kernel basis: one vector per free column, ascending."""
    R, pivots = rref(rows, p)
    n_cols = len(R[0])
    out = []
    for f in (c for c in range(n_cols) if c not in pivots):
        v = [0] * n_cols
        v[f] = 1
        for i, c in enumerate(pivots):
            v[c] = -R[i][f] % p
        out.append(v)
    return out


def solve(rows, rhs, p):
    """Solution with free variables 0, or None when inconsistent."""
    n_cols = len(rows[0])
    R, pivots = rref([list(row) + [b] for row, b in zip(rows, rhs)], p)
    if pivots and pivots[-1] == n_cols:
        return None
    x = [0] * n_cols
    for i, c in enumerate(pivots):
        x[c] = R[i][n_cols]
    return x


def det(rows, p):
    M = [[int(x) % p for x in row] for row in rows]
    n = len(M)
    out = 1
    for c in range(n):
        pr = next((i for i in range(c, n) if M[i][c]), None)
        if pr is None:
            return 0
        if pr != c:
            M[c], M[pr] = M[pr], M[c]
            out = -out % p
        out = out * M[c][c] % p
        inv = pow(M[c][c], -1, p)
        for i in range(c + 1, n):
            f = M[i][c] * inv % p
            if f:
                M[i] = [(x - f * y) % p for x, y in zip(M[i], M[c])]
    return out


def inverse(rows, p):
    """Inverse matrix, or None when singular."""
    n = len(rows)
    aug = [list(row) + [int(i == j) for j in range(n)]
           for i, row in enumerate(rows)]
    R, pivots = rref(aug, p)
    if pivots[:n] != list(range(n)):
        return None
    return [row[n:] for row in R]


def matmul(A, B, p):
    B_cols = list(zip(*B))
    return [[sum(int(a) * int(b) for a, b in zip(row, col)) % p
             for col in B_cols] for row in A]
