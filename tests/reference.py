"""Slow exact references that the fast int64 kernels are checked against."""

from qflab.theta import _tails


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


def tails_theta(form, prec: int) -> list[int]:
    """Theta coefficients through q^prec on the form's own basis: one walk
    of theta._tails, every first coordinate of every tail counted in
    Python.  No reduction, no split into blocks, no numpy."""
    a2 = form.hessian[0][0] // 2
    out = [0] * (prec + 1)
    for _, lo, hi, a1, a0 in _tails(form, prec):
        for t in range(lo, hi):
            out[(a2 * t + a1) * t + a0] += 1
    return out
