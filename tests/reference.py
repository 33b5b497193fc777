"""Slow exact references that the fast int64 kernels are checked against."""


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
