"""Slow exact references that the fast int64 kernels are checked against."""

from itertools import combinations
from math import gcd

from qflab._matrix import conjugate, extends_to_basis, identity, mat_mul
from qflab.forms import QuadForm
from qflab.theta import _tails, short_vectors


def int_det(m) -> int:
    """Exact determinant by fraction-free (Bareiss) elimination."""
    n = len(m)
    a = [[int(x) for x in row] for row in m]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if a[i][i] == 0:
            for j in range(i + 1, n):
                if a[j][i] != 0:
                    a[i], a[j] = a[j], a[i]
                    sign = -sign
                    break
            else:
                return 0
        for r in range(i + 1, n):
            for c in range(i + 1, n):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        prev = a[i][i]
    return sign * a[-1][-1]


def bareiss_rows(h) -> list[list[int]]:
    """The rows a form keeps: fraction-free (Bareiss) elimination of the
    hessian h without pivoting, so the pivot a[i][i] is the leading minor
    D_{i+1}.  Every entry is left as the generic loop leaves it, for any
    h, diagonal or not."""
    a = [[int(x) for x in row] for row in h]
    k = len(a)
    for i in range(k):
        prev = a[i - 1][i - 1] if i else 1
        for r in range(i + 1, k):
            for c in range(i + 1, k):
                a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
    return a


def orthogonal_components(h) -> list[tuple[tuple[int, ...], ...]]:
    """The hessians of the connected components of the graph with an edge
    i - j wherever h[i][j] is nonzero, in order of their first index."""
    k = len(h)
    label = list(range(k))
    for i in range(k):
        for j in range(i):
            if h[i][j]:
                old, new = label[i], label[j]
                label = [new if x == old else x for x in label]
    comps = {}
    for i in range(k):
        comps.setdefault(label[i], []).append(i)
    return [tuple(tuple(h[i][j] for j in idx) for i in idx)
            for idx in sorted(comps.values())]


def spans_primitive(vectors, dim: int) -> bool:
    """The definition: the vectors extend to a basis of Z^dim exactly when
    the gcd of their maximal minors is 1."""
    g = 0
    for rows in combinations(range(dim), len(vectors)):
        g = gcd(g, int_det([[v[r] for v in vectors] for r in rows]))
    return g == 1


def mul_trunc(a, b, n: int) -> list[int]:
    """Exact truncated product: out[m] = sum_{i+j=m} a_i b_j for m <= n,
    over sequences of Python ints, looping over nonzero pairs only."""
    items_a = [(i, v) for i, v in enumerate(a[:n + 1]) if v]
    items_b = [(j, v) for j, v in enumerate(b[:n + 1]) if v]
    if len(items_a) > len(items_b):
        items_a, items_b = items_b, items_a
    out = [0] * (n + 1)
    for i, av in items_a:
        for j, bv in items_b:
            if i + j > n:
                break
            out[i + j] += av * bv
    return out


def eta_product(exponents, n: int) -> list[int]:
    """prod over (delta, r) of prod_{m>=1} (1 - q^(delta m))^r through
    q^n, one q^j at a time in Python ints: |r| in-place passes per factor
    over the pentagonal terms g of Euler's product, a multiplying pass
    running j downward (every out[j - g] it reads is still old) and a
    dividing pass upward (every out[j - g] it reads is already divided)."""
    if n < 0:
        raise ValueError("precision below the leading exponent")
    out = [1] + [0] * n
    for delta, r in exponents:
        plus, minus = [], []  # the g of each sign, ascending
        k = 1
        while delta * k * (3 * k - 1) // 2 <= n:
            (minus if k % 2 else plus).extend(
                g for g in (delta * k * (3 * k - 1) // 2,
                            delta * k * (3 * k + 1) // 2) if g <= n)
            k += 1
        order = range(n, 0, -1) if r > 0 else range(1, n + 1)
        for _ in range(abs(r)):
            for j in order:
                acc = 0
                for g in plus:
                    if g > j:
                        break
                    acc += out[j - g]
                for g in minus:
                    if g > j:
                        break
                    acc -= out[j - g]
                out[j] += acc if r > 0 else -acc
    return out


def tails_theta(form, prec: int) -> list[int]:
    """Theta coefficients through q^prec on the form's own basis: one walk
    of theta._tails, every first coordinate of every row of every batch
    counted in Python.  No reduction, no split into blocks, and no numpy
    past reading the batches."""
    a2 = form.hessian[0][0] // 2
    out = [0] * (prec + 1)
    for _, *arrays in _tails(form, prec):
        for lo, hi, a1, a0 in zip(*(arr.tolist() for arr in arrays)):
            for t in range(lo, hi):
                out[(a2 * t + a1) * t + a0] += 1
    return out


def pair_reduce(form: QuadForm) -> tuple[QuadForm, list[list[int]]]:
    """Cheap exact size reduction: shear each basis vector against the
    others while that strictly shortens it.  Keeps the diagonal small so
    the short-vector pool of pool_minkowski_reduce stays cheap on skewed
    inputs (but not on all of them)."""
    k = form.rank
    h = [list(row) for row in form.hessian]
    u = identity(k)

    def shear(dst, src, t):
        for r in range(k):
            u[r][dst] -= t * u[r][src]
        for r in range(k):
            h[r][dst] -= t * h[r][src]
        for c in range(k):
            h[dst][c] -= t * h[src][c]

    changed = True
    while changed:
        changed = False
        for i in range(k):
            for j in range(k):
                if i == j or 2 * abs(h[i][j]) <= h[i][i]:
                    continue
                t = (2 * h[i][j] + h[i][i]) // (2 * h[i][i])
                if t and 2 * abs(h[i][j] - t * h[i][i]) <= h[i][i]:
                    shear(j, i, t)
                    changed = True
    return QuadForm(tuple(tuple(row) for row in h)), u


def pool_minkowski_reduce(form: QuadForm) -> tuple[QuadForm, list[list[int]]]:
    """Minkowski reduction by enumeration: after pair_reduce, list every
    vector up to the largest diagonal entry and pick, slot by slot, the
    shortest one that keeps the chosen set extendable to a basis; for
    rank at most 4 that basis attains the successive minima.  Returns
    the reduced form and U with U^T H U = H_reduced."""
    k = form.rank
    original = form
    form, pre_u = pair_reduce(form)
    pool = short_vectors(form, max(form.diag_q))
    chosen: list[tuple[int, ...]] = []
    for _ in range(k):
        chosen.append(next(vec for val in sorted(pool) for vec in pool[val]
                           if extends_to_basis(chosen + [vec], k)))
    total = mat_mul(pre_u, [[chosen[c][r] for c in range(k)]
                            for r in range(k)])
    reduced = QuadForm(
        tuple(tuple(row) for row in conjugate(original.hessian, total)))
    return reduced, total


def decide_isometric(a: QuadForm, b: QuadForm) -> bool:
    """Isometry by a decision search: after the rank, discriminant and
    reduced-diagonal checks, backtrack over bases of b's reduced form,
    slot by slot from its short vectors, for one whose Gram equals a's
    reduced Gram."""
    if a.rank != b.rank or a.discriminant != b.discriminant:
        return False
    ra, _ = pool_minkowski_reduce(a)
    rb, _ = pool_minkowski_reduce(b)
    if ra.diag_q != rb.diag_q:
        return False
    target = ra.hessian
    k = len(target)
    hs = rb.hessian
    need = [target[i][i] // 2 for i in range(k)]
    pool = short_vectors(rb, max(need))
    if any(value not in pool for value in need):
        return False
    candidates = {v: [vec for base in pool[v]
                      for vec in (base, tuple(-c for c in base))]
                  for v in set(need)}

    def pairing(x, y) -> int:
        return sum(x[i] * hs[i][j] * y[j] for i in range(k) for j in range(k))

    chosen: list[tuple[int, ...]] = []

    def decide(slot: int) -> bool:
        if slot == k:
            return True
        for vec in candidates[need[slot]]:
            if all(pairing(vec, chosen[i]) == target[i][slot]
                   for i in range(slot)):
                if not extends_to_basis(chosen + [vec], k):
                    continue
                chosen.append(vec)
                if decide(slot + 1):
                    return True
                chosen.pop()
        return False

    return decide(0)
