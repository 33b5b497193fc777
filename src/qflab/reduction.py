"""Minkowski reduction, isometry testing and canonical forms, rank <= 4.

Reduction is Nguyen and Stehle's greedy algorithm (ANTS 2004): reduce
the first d - 1 basis vectors recursively, replace the last by its
difference from the closest vector of their span, sort, and repeat
until the last vector stops getting shorter.  For rank at most 4 the
result attains the successive minima, with the classical reduction
inequalities (sorted diagonal, |H_ij| <= H_ii / 2 for i < j).  The
closest vector is exact: the LDL^T of the Gram, kept in integers by
its fraction-free elimination, is walked outward from the rational
centre, nearest coordinate first, cutting a branch once its partial sum
reaches the best leaf so far.  Nothing is enumerated.

Canonical forms and isometry both read one search: the smallest Gram
over the bases that attain the successive minima.  Its candidates for a
basis vector of norm m are the vectors with Q(v) = m exactly, one walk
of the reduced form per distinct successive minimum.
"""

from __future__ import annotations

from itertools import count
from math import prod
from operator import mul

from ._matrix import conjugate, extends_to_basis
from .forms import QuadForm
from .theta import _vectors_of_norm


def _closest(g) -> list[int]:
    """Integer x minimising |b_n - sum_i x_i b_i| for the Gram g of the
    independent b_0, .., b_n."""
    n = len(g) - 1
    # with the fraction-free rows r of g and its leading minors D_i,
    # |z|^2 = sum_i l_i(z)^2 / (D_i D_{i+1}), l_i(z) = sum_{j >= i} r[i][j] z_j;
    # here z = (x, -1), and each term is scaled to an integer by weight[i]
    r = QuadForm(tuple(map(tuple, g)))._rows
    dets = [1] + [r[i][i] for i in range(n)]
    scale = prod(dets[i] * dets[i + 1] for i in range(n))
    weight = [scale // (dets[i] * dets[i + 1]) for i in range(n)]
    x = [0] * n
    best: list = [None, None]

    def walk(i: int, partial: int):
        if i < 0:
            best[:] = [partial, list(x)]
            return
        d = dets[i + 1]
        s = sum(r[i][j] * x[j] for j in range(i + 1, n)) - r[i][n]
        # l_i = d t + s: t runs outward from the nearest integer to the
        # centre -s / d, so |l_i| never decreases
        near = (d - 2 * s) // (2 * d)
        side = 1 if d * near + s <= 0 else -1
        for step in count():
            t = near + side * ((step + 1) // 2) * (1 if step % 2 else -1)
            total = partial + weight[i] * (d * t + s) ** 2
            if best[0] is not None and total >= best[0]:
                return
            x[i] = t
            walk(i - 1, total)

    walk(n - 1, 0)
    return best[1]


def minkowski_reduce(form: QuadForm) -> tuple[QuadForm, list[list[int]]]:
    """Reduced form and the unimodular U with U^T H U = H_reduced."""
    h = form.hessian
    k = form.rank

    def dot(u, v) -> int:
        return sum(a * sum(map(mul, row, v)) for a, row in zip(u, h))

    def greedy(basis):
        if len(basis) <= 1:
            return basis
        while True:
            basis.sort(key=lambda v: dot(v, v))
            head = greedy(basis[:-1])
            last = basis[-1]
            x = _closest([[dot(u, v) for v in head + [last]]
                          for u in head + [last]])
            last = [c - sum(xi * u[r] for xi, u in zip(x, head))
                    for r, c in enumerate(last)]
            basis = head + [last]
            if dot(last, last) >= dot(head[-1], head[-1]):
                return basis

    basis = greedy([[int(r == c) for r in range(k)] for c in range(k)])
    u = [[basis[c][r] for c in range(k)] for r in range(k)]
    return QuadForm(tuple(tuple(row) for row in conjugate(h, u))), u


def _least_gram(reduced: QuadForm) -> tuple[tuple[int, ...], ...]:
    """The Gram of a basis attaining the successive minima of a reduced
    form, least in its entries above the diagonal, column by column.

    Slot j takes a vector of norm H_jj / 2 and adds row j of the Gram's
    lower triangle: the vector's pairings with the j vectors before it,
    read as dot products with their images under H, then H_jj.  Prefixes
    of equal length compare as their entries do, so a prefix above the
    best one's is cut."""
    k = reduced.rank
    hs = reduced.hessian
    candidates = {n: [tuple(vec) for batch in _vectors_of_norm(reduced, n)
                      for vec in batch.tolist()]
                  for n in {hs[i][i] // 2 for i in range(k)}}
    best = None

    def search(basis, images, gram):
        nonlocal best
        slot = len(basis)
        if slot == k:
            # the cuts below let no Gram above the best reach a leaf
            best = gram
            return
        for row, vec in sorted(
                (tuple(sum(map(mul, vec, image)) for image in images)
                 + (hs[slot][slot],), vec)
                for vec in candidates[hs[slot][slot] // 2]):
            prefix = gram + (row,)
            if best is not None and prefix > best[:slot + 1]:
                continue
            if extends_to_basis(basis + (vec,), k):
                search(basis + (vec,),
                       images + (tuple(sum(map(mul, h, vec)) for h in hs),),
                       prefix)

    search((), (), ())
    return tuple(tuple(best[max(i, j)][min(i, j)] for j in range(k))
                 for i in range(k))


def is_isometric(a: QuadForm, b: QuadForm) -> bool:
    """True iff an integral unimodular change of basis maps a to b."""
    if a.rank != b.rank or a.discriminant != b.discriminant:
        return False
    ra, _ = minkowski_reduce(a)
    rb, _ = minkowski_reduce(b)
    if ra.diag_q != rb.diag_q:
        return False
    return ra.hessian == rb.hessian or _least_gram(ra) == _least_gram(rb)


def canonical_form(form: QuadForm) -> QuadForm:
    """Deterministic representative of the isometry class: the
    lexicographically smallest Gram matrix over all bases attaining the
    successive minima on the diagonal."""
    return QuadForm(_least_gram(minkowski_reduce(form)[0]))
