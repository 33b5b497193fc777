"""Exact lattice-point counting and exact truncated series products.

One walker, `_tails`, completes the square of the form in integers, on
the rows of the Bareiss elimination the form keeps, so every bound is
an integer square root and no boundary case is ever lost to rounding.
Its outer coordinates walk in Python; for each outer tail it yields one
batch of numpy arrays over every second coordinate: the exact range of
the first coordinate and the integer quadratic on it.  `_theta_sweep`
lays those ranges end to end and counts their values a chunk at a time,
`represent_count` tests all range ends at once and `short_vectors` lists
the sign-canonical part of each row.  Theta is an isometry invariant, so
`_theta_sweep` walks a block of rank >= 3 on its reduced basis
(`_reduced_blocks`, once per block) and multiplies the parts' sweeps
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

_FLUSH = 1 << 16
_INT64_GUARD = 1 << 62
_QUERY_GUARD = 1 << 53  # integers below it are exact in float64
# _convolve_trunc path choice and chunk size, see its docstring
_SPARSE_MIN_WORK = 1 << 20
_SPARSE_DENSITY = 16
_PAIR_CHUNK = 1 << 17
_PARTIAL_MAX = 4096  # RepQuery builds past this go straight to prec


def _isqrt(v: np.ndarray) -> np.ndarray:
    """floor(sqrt(v)) of every entry of a nonnegative integer array.  An
    int64 array takes a float estimate corrected once each way, exact
    below 2^62; Python ints (dtype=object) go through math.isqrt."""
    if v.dtype == object:
        return np.frompyfunc(isqrt, 1, 1)(v)
    r = np.sqrt(v).astype(np.int64)
    r -= r * r > v
    r += (r + 1) ** 2 <= v
    return r


def _wide(form: QuadForm, bound: int) -> bool:
    """Whether a walk of form to bound could meet a value of 2^62 or more
    in its arrays or in a consumer's (a2 t + a1) t + a0.

    With w = 2 bound, the level-1 budgets D_1 e stay below w D_1 D_2.  The
    rest grows with the coordinates: every real x with x^T H x <= w has
    x_j^2 <= w (H^-1)_jj <= w trace^(k-1) / det = span (each eigenvalue of
    H is at most its trace), and a1 = -H[0][0] x0 at the real centre of a
    row, so |a1| <= H[0][0] sqrt(span) and every other value is a small
    multiple of H[0][0]^2 span.  A skewed binary such as (x + c y)^2 + y^2
    has small D_1 D_2 and yet a0 = c^2 + 1, so the span term is needed.
    """
    m = form._rows
    k = len(m)
    h00, d2 = m[0][0], (m[1][1] if k > 1 else 1)
    w = 2 * bound
    trace = sum(form.hessian[i][i] for i in range(k))
    span = w * trace ** (k - 1) // m[-1][-1] + 1
    return max(w * h00 * d2, d2, 8 * h00 * h00 * span) >= _INT64_GUARD


def _tails(form: QuadForm, bound: int):
    """Every tail x[1:] of a vector x with Q(x) <= bound, one batch per
    outer tail x[2:], as (x, x1, lo, hi, a1, a0): row i of the arrays is
    the tail (x1[i], *x[2:]), and Q(t, x1[i], *x[2:]) =
    a2 t^2 + a1[i] t + a0[i], a2 = H[0][0]/2, is at most bound exactly for
    lo[i] <= t < hi[i].  A rank-2 form is one batch; rank 1 is one batch
    of one row, whose x1 = [0] stands for no coordinate.

    With the Bareiss rows m the form keeps, D_i = m[i-1][i-1] (D_0 = 1)
    and l_i(x) = sum_{j>=i} m[i][j] x_j, 2 Q(x) = sum_i l_i^2 / (D_i D_{i+1}).
    x[k-1], .., x[0] are taken in turn under the integer budget
    e = D_{i+1} (2 bound - sum_{j>i} l_j^2 / (D_j D_{j+1})): x[i] takes
    exactly the t with l_i^2 <= D_i e and leaves the exact quotient
    (D_i e - l_i^2) / D_{i+1} to x[i-1].  x[k-1], .., x[2] walk in Python
    ints; x[1] and x[0] are numpy arrays over every x[1] at once, level 0
    taking its bounds by the array square root `_isqrt`.  The arrays are
    int64, or Python ints (dtype=object) when `_wide` says a value could
    pass int64.  x is one list, reused between batches (x[0] and x[1]
    stay 0).
    """
    m = form._rows
    k = len(m)
    h00 = m[0][0]
    dtype = object if _wide(form, bound) else np.int64
    x = [0] * k

    def leaf(x1, rest, a1):
        # rest is each row's budget for x[0]: l_0^2 <= rest
        r = _isqrt(rest)
        return (x, x1, -((r + a1) // h00), (r - a1) // h00 + 1, a1,
                bound - (rest - a1 * a1) // (2 * h00))

    def batch(e: int):
        # e is the budget of x[1]; yields nothing when no x[1] fits
        d2, m01 = m[1][1], m[0][1]
        n = sum(m[1][j] * x[j] for j in range(2, k))
        c0 = sum(m[0][j] * x[j] for j in range(2, k))
        p = h00 * e
        r = isqrt(p)
        t0 = -((r + n) // d2)
        size = (r - n) // d2 + 1 - t0
        if size > 0:
            # offsets from the first x[1]: no array holds n or c0 alone
            i = np.arange(size, dtype=dtype)
            ell = d2 * i
            ell += d2 * t0 + n
            yield leaf(i + t0, (p - ell * ell) // d2,
                       m01 * i + (m01 * t0 + c0))

    def descend(i: int, e: int):
        row, piv, prev = m[i], m[i][i], m[i - 1][i - 1]
        n = sum(row[j] * x[j] for j in range(i + 1, k))
        r = isqrt(prev * e)
        for t in range(-((r + n) // piv), (r - n) // piv + 1):
            x[i] = t
            ell = piv * t + n
            rest = (prev * e - ell * ell) // piv
            if i > 2:
                yield from descend(i - 1, rest)
            else:
                yield from batch(rest)
        x[i] = 0

    top = 2 * bound * m[-1][-1]
    if k == 1:
        zero = np.zeros(1, dtype=dtype)
        yield leaf(zero, np.full(1, top, dtype=dtype), zero)
    elif k == 2:
        yield from batch(top)
    else:
        yield from descend(k - 1, top)


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
    # batches are pooled up to _FLUSH / 8 rows, so that the numpy calls
    # of one chunk serve many small batches
    pending: list[list[np.ndarray]] = []
    rows = 0
    for _, _, *arrays in _tails(form, prec):
        pending.append(arrays)
        rows += len(arrays[0])
        if rows >= _FLUSH >> 3:
            _count_ranges(counts, a2, *map(np.concatenate, zip(*pending)))
            pending, rows = [], 0
    if pending:
        _count_ranges(counts, a2, *map(np.concatenate, zip(*pending)))
    return counts


def _count_ranges(counts, a2, lo, hi, a1, a0) -> None:
    """Add to counts one for each value (a2 t + a1) t + a0, over every t
    in [lo, hi) of every row: the ragged ranges are laid end to end and
    taken _FLUSH values at a time, so a chunk may start or end inside a
    row and no temporary holds more than _FLUSH values."""
    size = (hi - lo).astype(np.int64)
    ends = np.cumsum(size)
    starts = ends - size
    shift = lo - starts  # t is a value's place in the layout plus this
    total = int(ends[-1])
    for s in range(0, total, _FLUSH):
        e = min(s + _FLUSH, total)
        # the rows that overlap [s, e), and how much of each does
        rows = slice(np.searchsorted(ends, s, side="right"),
                     np.searchsorted(starts, e))
        c = np.minimum(ends[rows], e) - np.maximum(starts[rows], s)
        t = np.repeat(shift[rows], c)
        t += np.arange(s, e)
        q = a2 * t
        q += np.repeat(a1[rows], c)
        q *= t
        del t
        q += np.repeat(a0[rows], c)
        np.add.at(counts, q.astype(np.int64, copy=False), 1)


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
    for _, _, lo, hi, a1, a0 in _tails(form, n):
        # Q <= n exactly on [lo, hi), so Q = n can only hold at its ends
        last = hi - 1
        total += (np.count_nonzero(((a2 * lo + a1) * lo + a0 == n)
                                   & (lo <= last))
                  + np.count_nonzero(((a2 * last + a1) * last + a0 == n)
                                     & (lo < last)))
    return int(total)


def short_vectors(form: QuadForm, cap: int) -> dict[int, list[tuple[int, ...]]]:
    """Sign-canonical vectors with 0 < Q(v) <= cap, grouped by value: the
    first nonzero coordinate of each listed vector is positive."""
    k = form.rank
    a2 = form.hessian[0][0] // 2
    out: dict[int, list[tuple[int, ...]]] = {}
    for x, *arrays in _tails(form, cap):
        outer = x[2:]
        for x1, lo, hi, a1, a0 in zip(*(arr.tolist() for arr in arrays)):
            tail = (x1, *outer)[:k - 1]  # rank 1 has no x[1]
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
    lookup) or a block of rank >= 3 (a walker step per outer tail) is
    built at prec at once.  Halves follow the form's own blocks, so a
    one-block form stays one array, a lookup, even when its sweep splits.
    Only the build at prec asks `cache`, one lookup per block.  A query is
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
