"""Exact lattice-point counting and exact truncated series products.

One walker, `_tails`, completes the square of the form in integers, on
the rows of the Bareiss elimination the form keeps, so every bound is
an integer square root and no boundary case is ever lost to rounding.
It yields each feasible tail with the exact range of the first
coordinate and the integer quadratic on it: `_theta_sweep` evaluates
that range in numpy, `represent_count` tests its two ends and
`short_vectors` lists its sign-canonical part.  Theta is an isometry
invariant, so `_theta_sweep` walks a block of rank >= 3 on its reduced
basis (`_reduced_blocks`, once per block) and multiplies the parts' sweeps
where that basis splits: a skewed basis of a split lattice is never walked
whole.  `represent_count` and `short_vectors` walk the basis they are given.

`_theta_unary` is the one square-series kernel: the theta of <a>, or
its twist by a Kronecker character and s^weight, which the q-series
lattice sums use.  `_product` is the one way to multiply theta arrays:
`theta_coeffs`, both halves of `RepQuery`, the search filters' theta of
<1,a> and those lattice sums fold their factors with it, through the
int64 `_convolve_trunc`.  Partial `RepQuery` halves are memoised in
`_half` and shared, read-only, by every query that builds them; a query
is one float64 BLAS dot, exact under a 2^53 guard.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt

import numpy as np

from .arith import kronecker
from .forms import QuadForm

_FLUSH = 1 << 21
_INT64_GUARD = 1 << 62
_QUERY_GUARD = 1 << 53  # integers below it are exact in float64
# _convolve_trunc path choice and chunk size, see its docstring
_SPARSE_MIN_WORK = 1 << 20
_SPARSE_DENSITY = 16
_PAIR_CHUNK = 1 << 17
_PARTIAL_MAX = 4096  # RepQuery builds past this go straight to prec


def _tails(form: QuadForm, bound: int):
    """Every tail x[1:] of a vector x with Q(x) <= bound, as
    (x, lo, hi, a1, a0): Q(t, x[1:]) = a2 t^2 + a1 t + a0, a2 = H[0][0]/2,
    is at most bound exactly for lo <= t < hi.

    With the Bareiss rows m the form keeps, D_i = m[i-1][i-1] (D_0 = 1)
    and l_i(x) = sum_{j>=i} m[i][j] x_j, 2 Q(x) = sum_i l_i^2 / (D_i D_{i+1}).
    x[k-1], .., x[0] are taken in turn under the integer budget
    e = D_{i+1} (2 bound - sum_{j>i} l_j^2 / (D_j D_{j+1})): x[i] takes
    exactly the t with l_i^2 <= D_i e and leaves the exact quotient
    (D_i e - l_i^2) / D_{i+1} to x[i-1].  x is one list, reused between
    tails (x[0] stays 0).
    """
    m = form._rows
    k = len(m)
    h00 = m[0][0]
    x = [0] * k

    def leaf(e: int):
        a1 = sum(m[0][j] * x[j] for j in range(1, k))
        r = isqrt(e)
        # a0 in Python ints: e reaches 2 bound H[0][0], past int64
        return (x, -((r + a1) // h00), (r - a1) // h00 + 1, a1,
                bound - (e - a1 * a1) // (2 * h00))

    def descend(i: int, e: int):
        row, piv, prev = m[i], m[i][i], m[i - 1][i - 1]
        n = sum(row[j] * x[j] for j in range(i + 1, k))
        r = isqrt(prev * e)
        for t in range(-((r + n) // piv), (r - n) // piv + 1):
            x[i] = t
            ell = piv * t + n
            rest = (prev * e - ell * ell) // piv
            # a leaf level of its own would cost a generator per tail
            if i == 1:
                yield leaf(rest)
            else:
                yield from descend(i - 1, rest)
        x[i] = 0

    top = 2 * bound * m[-1][-1]
    yield from descend(k - 1, top) if k > 1 else [leaf(top)]


def _theta_unary(a: int, prec: int, char: int = 1,
                 weight: int = 0) -> np.ndarray:
    """Coefficients through q^prec of the twisted unary theta
    sum over s in Z of kronecker(char, s) s^weight q^(a s^2); the
    default is the theta series of <a>."""
    out = np.zeros(prec + 1, dtype=np.int64)
    top = isqrt(prec // a)
    if char == 1 and weight == 0:
        out[a * np.arange(1, top + 1) ** 2] = 2
        out[0] = 1
        return out
    out[0] = kronecker(char, 0) * 0 ** weight
    # the term of s = -t is (char|-1) (-1)^weight times that of s = t,
    # so the two double or cancel
    if (-1 if char < 0 else 1) * (-1) ** weight == 1:
        for t in range(1, top + 1):
            out[a * t * t] = 2 * kronecker(char, t) * t ** weight
    return out


@lru_cache(maxsize=256)
def _reduced_blocks(form: QuadForm) -> tuple[QuadForm, ...]:
    """The orthogonal blocks of a Minkowski-reduced basis of form."""
    # imported here: reduction imports short_vectors from this module
    from .reduction import minkowski_reduce
    reduced, _ = minkowski_reduce(form)
    return tuple(reduced.orthogonal_blocks())


def _theta_sweep(form: QuadForm, prec: int) -> np.ndarray:
    """Counts of Q(v) = n for all n <= prec.  A form of rank >= 3 is
    swept on its reduced basis, as the _product of its blocks' sweeps
    when that basis splits; a lower rank is one enumeration sweep."""
    if form.rank >= 3:
        parts = _reduced_blocks(form)
        if len(parts) > 1:
            return _product([_theta_sweep(sub, prec) for sub in parts], prec)
        form = parts[0]
    a2 = form.hessian[0][0] // 2
    if form.rank == 1:
        return _theta_unary(a2, prec)
    counts = np.zeros(prec + 1, dtype=np.int64)
    pending: list[np.ndarray] = []
    pending_size = 0
    for _, lo, hi, a1, a0 in _tails(form, prec):
        ts = np.arange(lo, hi, dtype=np.int64)
        pending.append((a2 * ts + a1) * ts + a0)
        # rows kept alive into the next tail fragment the heap: peak RSS
        # of repeated sweeps grew by about 9 MB
        del ts
        pending_size += pending[-1].size
        if pending_size >= _FLUSH:
            counts += np.bincount(np.concatenate(pending), minlength=prec + 1)
            pending, pending_size = [], 0
    if pending:
        counts += np.bincount(np.concatenate(pending), minlength=prec + 1)
    return counts


def _convolve_trunc(a: np.ndarray, b: np.ndarray, prec: int) -> np.ndarray:
    """Truncated product of two coefficient arrays, exact.

    With a the longer factor and top = min(len(a) - 1, prec), one of two
    int64 paths gives the result:

    - shift-add: out[i:] += b_i * a once per nonzero b_i, about
      nnz(b) * (top + 1) element operations;
    - sparse product: every pair of nonzeros a_j, b_i is scattered into
      out[i + j], nnz(a) * nnz(b) pairs (see _convolve_sparse).

    The sparse product is taken when the shift-add work
    nnz(b) * (top + 1) is at least _SPARSE_MIN_WORK and at most one
    entry in _SPARSE_DENSITY of a[:top + 1] is nonzero.  The work test
    uses sizes already at hand, so the many small products (search
    halves at precision 2,500) stay on the loop and never pay for the
    nonzero scan of a, nor for the fixed cost of np.add.at.  For two
    unary thetas the nonzero pairs are the lattice points of the binary
    form up to sign, so a two-unary half costs O(N) instead of
    O(N^1.5).  A product whose coefficients could reach _INT64_GUARD
    raises OverflowError before either path.
    """
    if len(a) < len(b):
        a, b = b, a
    idx = np.flatnonzero(b)
    vals = b[idx]
    bound = (int(np.abs(a).max(initial=0))
             * sum(abs(v) for v in vals.tolist()))
    if bound >= _INT64_GUARD:
        raise OverflowError("theta convolution would exceed int64")
    top = min(len(a) - 1, prec)
    if len(idx) * (top + 1) >= _SPARSE_MIN_WORK:
        nz = np.flatnonzero(a[:top + 1])
        if len(nz) * _SPARSE_DENSITY <= top + 1:
            keep = idx <= prec
            return _convolve_sparse(nz, a[nz], idx[keep], vals[keep], prec)
    out = np.zeros(prec + 1, dtype=np.int64)
    for i, val in zip(idx.tolist(), vals.tolist()):
        if i > prec:
            break
        stop = min(top, prec - i)
        out[i:i + stop + 1] += val * a[:stop + 1]
    return out


def _convolve_sparse(ia, va, ib, vb, prec):
    """Truncated product of two sparse series given by sorted nonzero
    indices and values: out[i + j] += vb * va over all pairs.

    Rows of b are taken in chunks of about _PAIR_CHUNK pairs, so no
    temporary holds more than that many int64s.  Columns past
    prec - (first row index) are dropped; the remaining sums past prec
    land in a spill slot out[prec + 1], cut off at the end.
    """
    out = np.zeros(prec + 2, dtype=np.int64)
    if len(ia) == 0:
        return out[:-1]
    rows = max(1, _PAIR_CHUNK // len(ia))
    for lo in range(0, len(ib), rows):
        cols = int(np.searchsorted(ia, prec - ib[lo], side="right"))
        pos = np.add.outer(ib[lo:lo + rows], ia[:cols])
        np.minimum(pos, prec + 1, out=pos)
        np.add.at(out, pos.ravel(),
                  np.multiply.outer(vb[lo:lo + rows], va[:cols]).ravel())
    return out[:-1]


def _product(arrays, prec: int) -> np.ndarray:
    """Truncated product through prec of theta arrays, sparsest factors
    first, by _convolve_trunc; [1] for no factors."""
    arrays = sorted(arrays, key=np.count_nonzero)
    if not arrays:
        return np.ones(1, dtype=np.int64)
    acc = arrays[0]
    for arr in arrays[1:]:
        acc = _convolve_trunc(arr, acc, prec)
    return acc


# partial builds stop at _PARTIAL_MAX: at most about 16 MB of float64 arrays
@lru_cache(maxsize=256)
def _half(blocks: tuple[QuadForm, ...], n: int) -> np.ndarray:
    """The theta product through n of a RepQuery half and then the same
    reversed, as float64: a query takes a from the front of one half and
    b from the back of the other.  Shared read-only by every query that
    builds the same half partially."""
    arr = _product([_theta_sweep(blk, n) for blk in blocks], n)
    arr = np.concatenate((arr, arr[::-1]), dtype=np.float64)
    arr.flags.writeable = False
    return arr


def _theta_array(form: QuadForm, n_max: int) -> np.ndarray:
    """r(0..n_max) as a read-only int64 array, in one enumeration sweep
    per orthogonal block, blocks combined by exact convolution; a block
    of rank >= 3 is swept as the parts of its reduced basis."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    arr = _product([_theta_sweep(sub, n_max)
                    for sub in form.orthogonal_blocks()], n_max)
    arr.flags.writeable = False
    return arr


def theta_coeffs(form: QuadForm, n_max: int) -> list[int]:
    """Representation numbers r(0..n_max), as Python ints."""
    return _theta_array(form, n_max).tolist()


def represent_count(form: QuadForm, n: int) -> int:
    """Exact number of integer vectors with Q(v) = n."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    a2 = form.hessian[0][0] // 2
    total = 0
    for _, lo, hi, a1, a0 in _tails(form, n):
        # Q <= n exactly on [lo, hi), so Q = n can only hold at its ends
        total += sum(1 for t in {lo, hi - 1} if (a2 * t + a1) * t + a0 == n)
    return total


def short_vectors(form: QuadForm, cap: int) -> dict[int, list[tuple[int, ...]]]:
    """Sign-canonical vectors with 0 < Q(v) <= cap, grouped by value: the
    first nonzero coordinate of each listed vector is positive."""
    a2 = form.hessian[0][0] // 2
    out: dict[int, list[tuple[int, ...]]] = {}
    for x, lo, hi, a1, a0 in _tails(form, cap):
        tail = tuple(x[1:])
        lead = next((c for c in tail if c), 0)
        for t in range(max(lo, 0 if lead > 0 else 1), hi):
            out.setdefault((a2 * t + a1) * t + a0, []).append((t, *tail))
    for vecs in out.values():
        vecs.sort()
    return out


class RepQuery:
    """Point queries r(m) for m <= prec.

    The orthogonal blocks of the form are split into two halves of
    nearly equal rank; a query is one dot product of the halves' theta
    vectors, each the _product of its block thetas.  Halves of blocks of
    rank <= 2 grow on demand: a query past the built precision rebuilds
    both at max(m, 4 x built, 64), or at prec once that passes
    _PARTIAL_MAX, so a failing check stops at a small sweep.  Partial
    halves come from the memo `_half`, so checks of forms that share a
    half (as the diagonal search's do) sweep it once per precision; the
    build at prec is never memoised.  A single block (queried by array
    lookup) or a block of rank >= 3 (a walker step per tail) is built at
    prec at once.  Halves follow the form's own blocks, so a one-block
    form stays one array, a lookup, even when its sweep splits.  Only
    the build at prec asks `cache`, one lookup per block.  A query is
    one float64 BLAS dot, exact in any summation order: every build
    raises OverflowError unless max(a) max(b) (n + 1), which bounds each
    term and partial sum, is below 2^53.  b is kept reversed and
    contiguous, since a reversed view gets no BLAS and is slower than an
    int64 dot.  No int64 dot is kept: that bound reaches 2^53 only for
    halves far larger than memory.  Answers are not remembered: a query
    is recomputed each time, so a caller that reuses a count keeps it.
    """

    def __init__(self, form: QuadForm, prec: int, cache=None):
        self.prec = prec
        blocks = form.orthogonal_blocks()
        blocks.sort(key=lambda b: b.rank, reverse=True)
        halves = [[blocks[0]], []]
        for blk in blocks[1:]:
            halves.sort(key=lambda part: sum(b.rank for b in part))
            halves[0].append(blk)
        self._halves = [tuple(half) for half in halves]
        self._cache = cache
        self._built = -1
        if not halves[1] or blocks[0].rank > 2:
            self._build(prec)

    def _build(self, n: int) -> None:
        # free the old halves first, so old and new never coexist in memory
        self._a, self._b, self._built = None, None, -1
        if n < self.prec:
            a = _half(self._halves[0], n)[:n + 1]
            b = _half(self._halves[1], n)[n + 1:]
        else:
            theta = _theta_sweep if self._cache is None else self._cache
            a, b = (_product([np.asarray(theta(blk, n), dtype=np.int64)
                              for blk in half], n)
                    for half in self._halves)
            if len(b) > 1:
                # converted one at a time, so at most three halves coexist
                a = a.astype(np.float64)
                b = np.ascontiguousarray(b[::-1], dtype=np.float64)
                a.flags.writeable = b.flags.writeable = False
        # float64 maxima are exact below 2^53, and at least 2^53 past it
        if len(b) > 1 and int(a.max()) * int(b.max()) * (n + 1) >= _QUERY_GUARD:
            raise OverflowError("theta dot query could reach 2^53")
        self._a, self._b, self._built = a, b, n

    def count(self, m: int) -> int:
        if m < 0:
            raise ValueError("m must be nonnegative")
        if m > self.prec:
            raise ValueError(f"query {m} beyond precision {self.prec}")
        if m > self._built:
            n = max(m, 4 * self._built, 64)
            self._build(self.prec if n > _PARTIAL_MAX else min(n, self.prec))
        if len(self._b) == 1:
            return int(self._a[m])
        return int(np.dot(self._a[:m + 1], self._b[len(self._b) - 1 - m:]))
