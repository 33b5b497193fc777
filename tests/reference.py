"""Slow exact references that the fast int64 kernels are checked against."""

from fractions import Fraction
from itertools import combinations
from math import gcd, isqrt

from qflab._matrix import conjugate, extends_to_basis, identity, mat_mul
from qflab.forms import QuadForm
from qflab.theta import _tails


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
    return sign * a[-1][-1] if n else 1


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
    counted in Python, a nonzero vector twice (for v and -v, which the
    walker lists once) and the zero vector once.  No reduction, no split
    into blocks, and no numpy past reading the batches."""
    a2 = form.hessian[0][0] // 2
    out = [0] * (prec + 1)
    for xs, *arrays in _tails(form, prec):
        for tail, lo, hi, a1, a0 in zip(xs.tolist(),
                                        *(arr.tolist() for arr in arrays)):
            for t in range(lo, hi):
                out[(a2 * t + a1) * t + a0] += 2 if t or any(tail) else 1
    return out


def fraction_tails(h, bound: int):
    """Reference walker: an exact rational LDL square completion whose
    ranges are widened by one, the extra points filtered out again.
    Yields (x, a2, a1, a0) with Q(t, x[1:]) = a2 t^2 + a1 t + a0 for
    every tail with some real x[0] giving Q(x) <= bound."""
    k = len(h)
    b = [[Fraction(h[i][j], 2) for j in range(k)] for i in range(k)]
    d = [Fraction(0)] * k
    u = [[Fraction(0)] * k for _ in range(k)]
    for i in range(k):
        d[i] = b[i][i]
        for j in range(i + 1, k):
            u[i][j] = b[i][j] / d[i]
        for r in range(i + 1, k):
            for c in range(r, k):
                b[r][c] -= d[i] * u[i][r] * u[i][c]
    x = [0] * k

    def row_coefficients():
        a1 = sum(h[0][j] * x[j] for j in range(1, k))
        a0 = sum(h[i][j] * x[i] * x[j]
                 for i in range(1, k) for j in range(1, k))
        return (x, h[0][0] // 2, a1, a0 // 2)

    def descend(level: int, budget: Fraction):
        center = sum((u[level][j] * x[j] for j in range(level + 1, k)),
                     Fraction(0))
        ratio = budget / d[level]
        radius = isqrt(ratio.numerator * ratio.denominator) // ratio.denominator
        lo = (-center).numerator // (-center).denominator - radius - 1
        hi = -(center.numerator // center.denominator) + radius + 1
        for t in range(lo, hi + 1):
            shift = t + center
            rem = budget - d[level] * shift * shift
            if rem >= 0:
                x[level] = t
                if level == 1:
                    yield row_coefficients()
                else:
                    yield from descend(level - 1, rem)
        x[level] = 0

    if k == 1:
        yield row_coefficients()
    else:
        yield from descend(k - 1, Fraction(bound))


def fraction_t_range(a2, a1, a0, bound):
    """Every t with a2 t^2 + a1 t + a0 <= bound, widened by one each side."""
    disc = a1 * a1 - 4 * a2 * (a0 - bound)
    if disc < 0:
        return range(0)
    s = isqrt(disc)
    return range((-a1 - s) // (2 * a2) - 1, (-a1 + s) // (2 * a2) + 2)


def fraction_theta(form: QuadForm, prec: int) -> list[int]:
    """r(0..prec) from fraction_tails."""
    counts = [0] * (prec + 1)
    for _, a2, a1, a0 in fraction_tails(form.hessian, prec):
        for t in fraction_t_range(a2, a1, a0, prec):
            q = (a2 * t + a1) * t + a0
            if q <= prec:
                counts[q] += 1
    return counts


def fraction_count(form: QuadForm, n: int) -> int:
    """r(n) from fraction_tails: the integer roots of each row's
    quadratic equal to n."""
    if n == 0:
        return 1
    total = 0
    for _, a2, a1, a0 in fraction_tails(form.hessian, n):
        disc = a1 * a1 - 4 * a2 * (a0 - n)
        s = isqrt(max(disc, 0))
        if s * s == disc:
            total += sum(1 for root in {-a1 - s, -a1 + s}
                         if root % (2 * a2) == 0)
    return total


def fraction_short_vectors(form: QuadForm, cap: int):
    """Sign-canonical vectors with 0 < Q(v) <= cap, grouped by value and
    sorted, from fraction_tails: the first nonzero coordinate of each
    listed vector is positive."""
    out: dict[int, list] = {}
    for x, a2, a1, a0 in fraction_tails(form.hessian, cap):
        tail = tuple(x[1:])
        lead = next((c for c in tail if c), 0)
        for t in fraction_t_range(a2, a1, a0, cap):
            q = (a2 * t + a1) * t + a0
            if 0 < q <= cap and (t > 0 or (t == 0 and lead > 0)):
                out.setdefault(q, []).append((t, *tail))
    for vecs in out.values():
        vecs.sort()
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
    pool = fraction_short_vectors(form, max(form.diag_q))
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
    pool = fraction_short_vectors(rb, max(need))
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
