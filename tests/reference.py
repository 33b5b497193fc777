"""Slow exact references that the fast int64 kernels are checked against."""

from itertools import combinations
from math import gcd

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
    return sign * a[-1][-1]


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
    of theta._tails, every first coordinate of every tail of every batch
    counted in Python.  No reduction, no split into blocks, and no numpy
    past reading the batches."""
    a2 = form.hessian[0][0] // 2
    out = [0] * (prec + 1)
    for _, _, *arrays in _tails(form, prec):
        for lo, hi, a1, a0 in zip(*(arr.tolist() for arr in arrays)):
            for t in range(lo, hi):
                out[(a2 * t + a1) * t + a0] += 1
    return out
