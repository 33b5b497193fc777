"""Exact integer matrix helpers for small (rank <= 8) problems."""

from __future__ import annotations

Matrix = list[list[int]]


def mat_mul(a, b) -> Matrix:
    rows, inner, cols = len(a), len(b), len(b[0])
    return [
        [sum(a[i][t] * b[t][j] for t in range(inner)) for j in range(cols)]
        for i in range(rows)
    ]


def transpose(a) -> Matrix:
    return [list(col) for col in zip(*a)]


def conjugate(h, u) -> Matrix:
    """U^T H U for column-vector basis matrix U."""
    return mat_mul(transpose(u), mat_mul(h, u))


def identity(n: int) -> Matrix:
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def column_echelon(m) -> tuple[Matrix, Matrix]:
    """Bring m to column echelon form by unimodular column operations.

    Returns (echelon, u) with echelon = m @ u and u unimodular.
    """
    rows = len(m)
    cols = len(m[0])
    a = [[int(x) for x in row] for row in m]
    u = identity(cols)

    def col_op_sub(dst, src, q):
        for i in range(rows):
            a[i][dst] -= q * a[i][src]
        for i in range(cols):
            u[i][dst] -= q * u[i][src]

    def col_swap(c1, c2):
        for i in range(rows):
            a[i][c1], a[i][c2] = a[i][c2], a[i][c1]
        for i in range(cols):
            u[i][c1], u[i][c2] = u[i][c2], u[i][c1]

    pivot_col = 0
    for row in range(rows):
        if pivot_col >= cols:
            break
        # euclidean reduction across columns pivot_col..cols-1 on this row
        while True:
            nz = [c for c in range(pivot_col, cols) if a[row][c] != 0]
            if not nz:
                break
            best = min(nz, key=lambda c: abs(a[row][c]))
            col_swap(pivot_col, best)
            done = True
            for c in range(pivot_col + 1, cols):
                if a[row][c] != 0:
                    q = a[row][c] // a[row][pivot_col]
                    col_op_sub(c, pivot_col, q)
                    if a[row][c] != 0:
                        done = False
            if done:
                break
        if a[row][pivot_col] != 0:
            pivot_col += 1
    return a, u


def integer_kernel(m) -> list[list[int]]:
    """Basis (as list of column vectors) of {x integral : m @ x = 0}."""
    rows = len(m)
    ech, u = column_echelon(m)
    cols = len(m[0])
    kernel = []
    for c in range(cols):
        if all(ech[r][c] == 0 for r in range(rows)):
            kernel.append([u[r][c] for r in range(cols)])
    return kernel


def hnf_basis(vectors) -> Matrix:
    """Square basis matrix (columns) of the lattice spanned by the given
    full-rank set of column vectors, in triangular normal form."""
    dim = len(vectors[0])
    m = [[v[i] for v in vectors] for i in range(dim)]
    ech, _ = column_echelon(m)
    basis = [[ech[r][c] for r in range(dim)] for c in range(dim)]
    if any(all(x == 0 for x in col) for col in basis):
        raise ValueError("vectors do not span a full-rank lattice")
    # normalize signs so the triangular diagonal is positive
    out = []
    for col in basis:
        lead = next(x for x in col if x != 0)
        out.append([x if lead > 0 else -x for x in col])
    return [[out[c][r] for c in range(dim)] for r in range(dim)]


def extends_to_basis(vectors, dim: int) -> bool:
    """True if the set of integer vectors spans a primitive sublattice,
    i.e. can be completed to a basis of Z^dim."""
    if not vectors:
        return True
    if len(vectors) > dim:
        return False
    # unimodular column operations keep the gcd of the maximal minors,
    # which for the echelon is the product of its pivots; a dependent
    # vector leaves a 0 pivot
    ech, _ = column_echelon(vectors)
    return all(abs(ech[i][i]) == 1 for i in range(len(vectors)))
