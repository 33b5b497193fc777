"""Exact lattice-point counting and exact truncated series products.

One walker, `_tails`, completes the square of the form in integers, on
the rows of the Bareiss elimination the form keeps, so every bound is
an integer square root and no boundary case is ever lost to rounding.
Every coordinate is one step on numpy arrays over the rows of a chunk,
and the walker yields batches of rows: the tails x[1:], the exact range
of the first coordinate and the integer quadratic on it.  `_spread` lays
ragged ranges end to end and hands them out a chunk at a time, to each
walker level that expands its rows and to `_theta_sweep`, which counts
the values; `represent_count` tests all range ends at once and
`short_vectors` lists the sign-canonical part of each row.  All three
walk the basis they are given.

`_theta` is the one builder of block thetas: `theta_coeffs`, both
`RepQuery` halves and their memo `_half` take the theta of an orthogonal
sum of blocks from it.  Theta is an isometry invariant, so a block of
rank >= 3 is taken as the blocks of its reduced basis (`_reduced_blocks`,
once per block) and a skewed basis of a split lattice is never walked
whole; a unary part gives its nonzero terms, any other part one
`_theta_sweep`.  `_unary_terms` is the one square-series kernel: the
terms (positions a t^2 and their values) of the theta of <a>, or of its
twist by a Kronecker character and s^weight, which the q-series lattice
sums use.  `_product` is the one way to multiply thetas: `_theta`, the
search filters' theta of <1,a> and those lattice sums fold their factors
with it, through the int64 `_convolve_trunc`.  Every factor holds
r(0..prec), as an array of length prec + 1 or as its `_Terms`, so a
product of unary thetas, as in every Table 1 half, reads only their
nonzero terms, and an array is scanned once for its own.  A `RepQuery`
of one half is an int64 lookup array built at once; two halves grow on
demand, their partial builds memoised in `_half` and shared, read-only,
by every query that builds them.  Each of two halves is a `_float_half`,
float32 below 2^24, and a query is one BLAS dot, certified exact when a
float32 result is below 2^24 and else recomputed in float64, which a
2^53 guard keeps exact.
"""

from __future__ import annotations

from functools import lru_cache
from math import isqrt
from operator import attrgetter
from typing import NamedTuple

import numpy as np

from .arith import kronecker
from .forms import QuadForm

_FLUSH = 1 << 16
_INT64_GUARD = 1 << 62
_QUERY_GUARD = 1 << 53  # integers below it are exact in float64
_F32_EXACT = 1 << 24  # integers below it are exact in float32
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

    With w = 2 bound, level i computes D_i e < w D_i D_{i+1}.  The rest
    grows with the coordinates: every real x with x^T H x <= w has
    x_j^2 <= w (H^-1)_jj <= w trace^(k-1) / det = span (each eigenvalue of
    H is at most its trace).  So every Bareiss entry times a coordinate
    stays below entry sqrt(span), and so does a row's offset at level i,
    which is -D_{i+1} times the real centre of x[i].  At level 0 the
    offset is a1, and every other value there is a small multiple of
    H[0][0]^2 span.  A skewed binary such as (x + c y)^2 + y^2 has small
    D_1 D_2 and yet a0 = c^2 + 1, so the span terms are needed.
    """
    m = form._rows
    k = len(m)
    d = [1, *(m[i][i] for i in range(k))]  # D_0, .., D_k
    w = 2 * bound
    trace = sum(form.hessian[i][i] for i in range(k))
    span = w * trace ** (k - 1) // d[k] + 1
    entry = max(abs(v) for row in m for v in row)
    return max(w * max(a * b for a, b in zip(d, d[1:])),
               entry * (isqrt(span) + 1),
               8 * d[1] * d[1] * span) >= _INT64_GUARD


def _spread(lo: np.ndarray, hi: np.ndarray):
    """Lay the ranges [lo, hi) of the rows end to end and hand them out
    _FLUSH values at a time, as (rows, c, t): the slice of rows that the
    chunk overlaps, how many values c of each, and the values t in order.
    A chunk may start or end inside a row, and no temporary holds more
    than _FLUSH values.  A caller spreads a row array over the chunk with
    arr[rows].repeat(c), which is faster than a gather by fancy index."""
    size = (hi - lo).astype(np.int64)
    ends = np.cumsum(size)
    starts = ends - size
    shift = lo - starts  # t is a value's place in the layout plus this
    total = int(ends[-1])
    for s in range(0, total, _FLUSH):
        e = min(s + _FLUSH, total)
        # the rows that overlap [s, e): from the first that ends past s
        # to the first that reaches e
        first, last = ends.searchsorted((s + 1, e))
        rows = slice(first, last + 1)
        c = np.minimum(ends[rows], e) - np.maximum(starts[rows], s)
        t = shift[rows].repeat(c)
        t += np.arange(s, e)
        yield rows, c, t


def _tails(form: QuadForm, bound: int):
    """Every tail x[1:] of a vector x with Q(x) <= bound, in batches
    (xs, lo, hi, a1, a0) of arrays over rows: row r of the 2-D array xs
    is a tail, and Q(t, *xs[r]) = a2 t^2 + a1[r] t + a0[r], a2 = H[0][0]/2,
    is at most bound exactly for lo[r] <= t < hi[r].

    With the Bareiss rows m the form keeps, D_i = m[i-1][i-1] (D_0 = 1)
    and l_i(x) = sum_{j>=i} m[i][j] x_j, 2 Q(x) = sum_i l_i^2 / (D_i D_{i+1}).
    x[k-1], .., x[0] are taken in turn under the integer budget
    e = D_{i+1} (2 bound - sum_{j>i} l_j^2 / (D_j D_{j+1})): x[i] takes
    exactly the t with l_i^2 <= D_i e and leaves the exact quotient
    (D_i e - l_i^2) / D_{i+1} to x[i-1].  Each level is one step on
    arrays over all rows of a chunk, its bounds from the array square root
    `_isqrt`; levels >= 1 expand their rows' ranges with `_spread`, so a
    chunk may start or end inside a row, and level 0 yields them.  The
    arrays are int64, or Python ints (dtype=object) when `_wide` says a
    value could pass int64.
    """
    m = form._rows
    k = len(m)
    dtype = object if _wide(form, bound) else np.int64
    coeffs = [np.array(row[i + 1:], dtype=dtype) for i, row in enumerate(m)]

    def level(i: int, xs: np.ndarray, e: np.ndarray):
        # xs holds the rows' x[i+1:], e their budgets for x[i]
        piv = m[i][i]
        n = xs @ coeffs[i]  # l_i without its x[i] term
        p = e * m[i - 1][i - 1] if i else e
        r = _isqrt(p)
        lo, hi = -((r + n) // piv), (r - n) // piv + 1
        if i == 0:
            yield xs, lo, hi, n, bound - (p - n * n) // (2 * piv)
            return
        for rows, c, t in _spread(lo, hi):
            ell = piv * t
            ell += n[rows].repeat(c)
            sub = np.empty((len(t), k - i), dtype=dtype)
            sub[:, 0] = t
            sub[:, 1:] = xs[rows].repeat(c, axis=0)
            yield from level(i - 1, sub,
                             (p[rows].repeat(c) - ell * ell) // piv)

    yield from level(k - 1, np.zeros((1, 0), dtype=dtype),
                     np.full(1, 2 * bound * m[-1][-1], dtype=dtype))


class _Terms(NamedTuple):
    """A coefficient array r(0..prec) by its nonzero terms: positions idx
    in increasing order, all at most prec, and their values vals; dense
    is the array itself when there is one."""
    idx: np.ndarray
    vals: np.ndarray
    dense: np.ndarray | None = None


def _terms(factor) -> _Terms:
    """A _product factor, a coefficient array or its _Terms, as _Terms:
    an array costs one scan, terms nothing."""
    if isinstance(factor, _Terms):
        return factor
    idx = np.flatnonzero(factor)
    return _Terms(idx, factor[idx], factor)


def _dense(factor, prec: int) -> np.ndarray:
    """A _product factor through prec as its coefficient array: terms
    without one are scattered into prec + 1 zeros."""
    if not isinstance(factor, _Terms):
        return factor
    if factor.dense is not None:
        return factor.dense
    out = np.zeros(prec + 1, dtype=np.int64)
    out[factor.idx] = factor.vals
    return out


def _unary_terms(a: int, prec: int, char: int = 1, weight: int = 0) -> _Terms:
    """The nonzero terms through q^prec of the twisted unary theta
    sum over s in Z of kronecker(char, s) s^weight q^(a s^2), at the
    positions a t^2, t >= 0; the default is the theta series of <a>."""
    t = np.arange(isqrt(prec // a) + 1)
    if char == 1 and weight == 0:
        vals = np.empty(len(t), dtype=np.int64)
        vals.fill(2)
        vals[0] = 1
        t *= t
        t *= a
        return _Terms(t, vals)
    if (-1 if char < 0 else 1) * (-1) ** weight == 1:
        # the term of s = -t is (char|-1) (-1)^weight times that of s = t,
        # so the two double or cancel
        vals = np.array([2 * kronecker(char, s) * s ** weight
                         for s in t.tolist()], dtype=np.int64)
    else:
        vals = np.zeros(len(t), dtype=np.int64)
    vals[0] = kronecker(char, 0) * 0 ** weight  # s = 0 is counted once
    keep = np.flatnonzero(vals)
    return _Terms(a * t[keep] ** 2, vals[keep])


@lru_cache(maxsize=256)
def _reduced_blocks(form: QuadForm) -> tuple[QuadForm, ...]:
    """The orthogonal blocks of a Minkowski-reduced basis of form."""
    # imported here: reduction imports short_vectors from this module
    from .reduction import minkowski_reduce
    reduced, _ = minkowski_reduce(form)
    return tuple(reduced.orthogonal_blocks())


def _theta_sweep(form: QuadForm, prec: int) -> np.ndarray:
    """Counts of Q(v) = n for all n <= prec, in one walk of the basis
    form is given in."""
    a2 = form.hessian[0][0] // 2
    counts = np.zeros(prec + 1, dtype=np.int64)
    for _, lo, hi, a1, a0 in _tails(form, prec):
        for rows, c, t in _spread(lo, hi):
            q = a2 * t
            q += a1[rows].repeat(c)
            q *= t
            del t
            q += a0[rows].repeat(c)
            np.add.at(counts, q.astype(np.int64, copy=False), 1)
    return counts


def _convolve_trunc(a, b, prec: int) -> np.ndarray:
    """Truncated product through prec of two factors, exact: each holds
    r(0..prec), as an array of length prec + 1 or as its _Terms.  An array
    costs one scan for its nonzero terms, and terms cost none; the terms
    serve the guard, the path test and the sparse product.

    One of two int64 paths gives the result:

    - shift-add: out[i:] += b_i * a[:prec + 1 - i] once per nonzero b_i,
      about nnz(b) * (prec + 1) element operations, on a's array (terms
      of a are scattered into one);
    - sparse product: every pair of nonzeros a_j, b_i is scattered into
      out[i + j], nnz(a) * nnz(b) pairs (see _convolve_sparse).

    The sparse product is taken when the shift-add work
    nnz(b) * (prec + 1) is at least _SPARSE_MIN_WORK and at most one
    entry in _SPARSE_DENSITY of a is nonzero, so the many small products
    (search halves at precision 2,500) stay on the loop and never pay
    for the fixed cost of np.add.at.  For two unary thetas the nonzero
    pairs are the lattice points of the binary form up to sign, so a
    two-unary half costs O(N) instead of O(N^1.5).  A product whose
    coefficients could reach _INT64_GUARD, by the terms' values, raises
    OverflowError before either path.
    """
    a, b = _terms(a), _terms(b)
    bound = (int(np.abs(a.vals).max(initial=0))
             * sum(abs(v) for v in b.vals.tolist()))
    if bound >= _INT64_GUARD:
        raise OverflowError("theta convolution would exceed int64")
    if (len(b.idx) * (prec + 1) >= _SPARSE_MIN_WORK
            and len(a.idx) * _SPARSE_DENSITY <= prec + 1):
        return _convolve_sparse(a.idx, a.vals, b.idx, b.vals, prec)
    arr = _dense(a, prec)
    out = np.zeros(prec + 1, dtype=np.int64)
    for i, val in zip(b.idx.tolist(), b.vals.tolist()):
        out[i:] += val * arr[:prec + 1 - i]
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


def _product(factors, prec: int) -> np.ndarray:
    """Truncated product through prec of one or more theta factors, each
    r(0..prec) as an array of length prec + 1 or as its _Terms, as an
    array of that length: sparsest factors first, by _convolve_trunc, and
    a lone factor as its array.  Every array, a factor or a partial
    product, is scanned once for its terms."""
    if len(factors) == 1:
        return _dense(factors[0], prec)
    factors = sorted(map(_terms, factors), key=lambda f: len(f.idx))
    acc = factors[0]
    for factor in factors[1:]:
        acc = _convolve_trunc(factor, acc, prec)
    return acc


def _theta(blocks, prec: int) -> np.ndarray:
    """The theta through prec of the orthogonal sum of one or more
    blocks, as the _product of their parts' thetas.  The parts of a
    block of rank >= 3 are the blocks of its reduced basis, of a lower
    rank the block itself; a unary part gives its terms, any other part
    its _theta_sweep."""
    parts = [part for blk in blocks
             for part in (_reduced_blocks(blk) if blk.rank >= 3 else (blk,))]
    return _product([_unary_terms(part.hessian[0][0] // 2, prec)
                     if part.rank == 1 else _theta_sweep(part, prec)
                     for part in parts], prec)


def _float_half(arr: np.ndarray, *pieces) -> tuple[np.ndarray, int]:
    """The pieces, views of the theta arr, as one read-only array, with
    max(arr): float32 when that maximum is below 2^24, else float64."""
    top = int(arr.max())
    out = np.concatenate(pieces,
                         dtype=np.float32 if top < _F32_EXACT else np.float64)
    out.flags.writeable = False
    return out, top


# partial builds stop at _PARTIAL_MAX: at most about 8 MB of float32 arrays
@lru_cache(maxsize=256)
def _half(blocks: tuple[QuadForm, ...], n: int) -> tuple[np.ndarray, int]:
    """The _float_half of the _theta through n of a RepQuery half, then
    the same reversed: a query takes a from the front of one half and b
    from the back of the other, and the maxima give its 2^53 guard
    without a rescan.  Shared read-only by every query that builds the
    same half partially."""
    arr = _theta(blocks, n)
    return _float_half(arr, arr, arr[::-1])


def _theta_array(form: QuadForm, n_max: int) -> np.ndarray:
    """r(0..n_max) as a read-only int64 array: the _theta of the form's
    orthogonal blocks."""
    if n_max < 0:
        raise ValueError("n_max must be nonnegative")
    arr = _theta(form.orthogonal_blocks(), n_max)
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
        last = hi - 1
        total += (np.count_nonzero(((a2 * lo + a1) * lo + a0 == n)
                                   & (lo <= last))
                  + np.count_nonzero(((a2 * last + a1) * last + a0 == n)
                                     & (lo < last)))
    return int(total)


def short_vectors(form: QuadForm, cap: int) -> dict[int, list[tuple[int, ...]]]:
    """Sign-canonical vectors with 0 < Q(v) <= cap, grouped by value: the
    first nonzero coordinate of each listed vector is positive."""
    a2 = form.hessian[0][0] // 2
    out: dict[int, list[tuple[int, ...]]] = {}
    for xs, *arrays in _tails(form, cap):
        for tail, lo, hi, a1, a0 in zip(map(tuple, xs.tolist()),
                                        *(arr.tolist() for arr in arrays)):
            lead = next((c for c in tail if c), 0)
            for t in range(max(lo, 0 if lead > 0 else 1), hi):
                out.setdefault((a2 * t + a1) * t + a0, []).append((t, *tail))
    for vecs in out.values():
        vecs.sort()
    return out


class RepQuery:
    """Point queries r(m) for m <= prec.

    The orthogonal blocks of the form are split into two halves of
    nearly equal rank: largest blocks first, each joins the half of lower
    rank (the first on a tie), so <1,2,3,10> gives (<1>,<10>) and
    (<2>,<3>).  Halves follow the form's own blocks, so a one-block form
    is one half even when its reduced basis splits.  A half's theta is
    the _theta of its blocks.

    One half is built at prec at construction, as an int64 array, and a
    query is a lookup.  Two halves grow on demand, and a query is one
    dot product of their thetas: a query past the built precision
    rebuilds both at max(m, 4 x built, 64), or at prec once that passes
    _PARTIAL_MAX, so a failing check stops at a small sweep.  Partial
    halves come from the memo `_half`, so checks of forms that share a
    half (as the diagonal search's do) sweep it once per precision; the
    build at prec is never memoised: an unbounded memo of the int64
    builds at prec raised the peak RSS of run_table1(600) from 42 to
    95 MB, and only 21 of a pass's 68 builds at prec are distinct.  Only
    the build at prec asks `cache`, one lookup per block, for r(0..n) as
    integers: a longer result is cut to n + 1 entries, and a shorter or
    non-integer one raises ValueError.

    Each of the two halves is a `_float_half`, float32 when its maximum
    is below 2^24 (every half that fits in memory), else float64.  A dot
    of two float32 halves whose result is below 2^24 is certified exact:
    the terms are nonnegative, so in any summation order, with or without
    FMA, each step's exact value lies between 0 and the true total.
    Rounding is monotone and 2^24 is a float32, so once a step reaches
    2^24 the result stays there; a result below it means every step was
    an integer below 2^24, which float32 holds exactly.  Any other
    float32 result is recomputed once as a float64 dot of the same
    slices, and a dot with a float64 half is float64.  float64 is exact
    in any summation order: every build raises OverflowError unless
    max(a) max(b) (n + 1), which bounds each term and partial sum, is
    below 2^53.  A query within the built precision is answered before
    any other test; m < 0 and m > prec raise.  b is kept reversed and
    contiguous, since a reversed view gets no BLAS and is slower than an
    int64 dot.  Answers are not remembered: a query is recomputed each
    time, so a caller that reuses a count keeps it.
    """

    def __init__(self, form: QuadForm, prec: int, cache=None):
        self.prec = prec
        blocks = form.orthogonal_blocks()
        blocks.sort(key=attrgetter("rank"), reverse=True)
        # each block joins the half of lower rank, the first on a tie
        take, other = [blocks[0]], []
        r_take, r_other = blocks[0].rank, 0
        for blk in blocks[1:]:
            if r_other < r_take:
                take, other, r_take, r_other = other, take, r_other, r_take
            take.append(blk)
            r_take += blk.rank
        self._halves = (tuple(take), tuple(other))
        self._cache = cache
        self._a, self._b, self._built = None, None, -1
        if not other:
            self._a, self._built = self._whole(self._halves[0]), prec

    def _whole(self, half: tuple[QuadForm, ...]) -> np.ndarray:
        """The int64 theta of half at prec: its _theta, or with a cache
        the _product of its blocks' cached thetas."""
        if self._cache is None:
            return _theta(half, self.prec)
        return _product([self._cached(blk, self.prec) for blk in half],
                        self.prec)

    def _build(self, n: int) -> None:
        # free the old halves first, so old and new never coexist in memory
        self._a, self._b, self._built = None, None, -1
        if n < self.prec:
            (a, top_a), (b, top_b) = (_half(half, n) for half in self._halves)
        else:
            # one half at a time, so no two int64 halves coexist
            arr = self._whole(self._halves[0])
            a, top_a = _float_half(arr, arr)
            del arr
            arr = self._whole(self._halves[1])
            b, top_b = _float_half(arr, arr[::-1])
        if top_a * top_b * (n + 1) >= _QUERY_GUARD:
            raise OverflowError("theta dot query could reach 2^53")
        self._a, self._b, self._built = a, b, n

    def _cached(self, blk: QuadForm, n: int) -> np.ndarray:
        """r(0..n) of blk from the cache, cut to n + 1 entries; anything
        but an integer array of at least n + 1 entries raises ValueError."""
        arr = np.asarray(self._cache(blk, n))
        if arr.ndim != 1 or arr.dtype.kind not in "iu" or len(arr) <= n:
            raise ValueError(f"cache gave no integer r(0..{n}) "
                             f"for block {blk.describe()}")
        return arr[:n + 1].astype(np.int64, copy=False)

    def count(self, m: int) -> int:
        if not 0 <= m <= self._built:
            if m < 0:
                raise ValueError("m must be nonnegative")
            if m > self.prec:
                raise ValueError(f"query {m} beyond precision {self.prec}")
            n = max(m, 4 * self._built, 64)
            self._build(self.prec if n > _PARTIAL_MAX else min(n, self.prec))
        if self._b is None:
            return int(self._a[m])
        a, b = self._a[:m + 1], self._b[len(self._b) - 1 - m:]
        dot = np.dot(a, b)
        if dot >= _F32_EXACT and dot.dtype == np.float32:
            dot = np.dot(a.astype(np.float64), b.astype(np.float64))
        return int(dot)
