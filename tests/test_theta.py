import random
from fractions import Fraction
from itertools import product
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab import reduction, theta
from qflab.arith import kronecker
from qflab.forms import QuadForm
from qflab.lattices import (CLASSIFICATION_TABLE, GENUS_PAIRS,
                            all_bundled_forms)
from qflab.regularity import check_indistinguishable, is_strongly_s_regular
from qflab.search import SearchConfig, search_diagonal
from qflab.theta import (RepQuery, _convolve_trunc, _tails, _theta_unary,
                         represent_count, short_vectors, theta_coeffs)
from reference import int_det, mul_trunc, tails_theta


def box(form: QuadForm, n: int):
    """(v, Q(v)) over a box provably holding every v with Q(v) <= n: the
    dual bound v_i^2 <= 2 n (H^{-1})_ii = 2 n cof_ii / det H."""
    h = [list(r) for r in form.hessian]
    k = form.rank
    det = int_det(h)
    bounds = []
    for i in range(k):
        minor = [[h[r][c] for c in range(k) if c != i]
                 for r in range(k) if r != i]
        cof = int_det(minor)
        bounds.append(isqrt((2 * n * cof) // det + 1) + 1)
    for v in product(*(range(-b, b + 1) for b in bounds)):
        yield v, form.evaluate(v)


def box_count_oracle(form: QuadForm, n: int) -> int:
    """Independent brute force for r(n) over the box of `box`."""
    if n == 0:
        return 1
    return sum(1 for _, q in box(form, n) if q == n)


def random_unimodular(rng: random.Random, k: int):
    u = [[1 if i == j else 0 for j in range(k)] for i in range(k)]
    for _ in range(6):
        i, j = rng.sample(range(k), 2)
        c = rng.choice((-2, -1, 1, 2))
        for r in range(k):
            u[r][j] += c * u[r][i]
    if rng.random() < 0.5:
        i, j = rng.sample(range(k), 2)
        for r in range(k):
            u[r][i], u[r][j] = u[r][j], u[r][i]
    return u


def conjugated(form: QuadForm, u):
    k = form.rank
    h = form.hessian
    out = [[sum(u[a][i] * h[a][b] * u[b][j] for a in range(k)
                for b in range(k))
            for j in range(k)] for i in range(k)]
    return QuadForm(tuple(tuple(r) for r in out))


class TestRepresentCount:
    def test_examples(self):
        assert represent_count(QuadForm.diagonal((1, 1, 1, 1)), 1) == 8
        assert represent_count(QuadForm.diagonal((1, 1, 1, 1)), 2) == 24
        assert represent_count(QuadForm.diagonal((1, 2, 3, 10)), 3) == 6
        assert represent_count(QuadForm.diagonal((1, 2, 3, 10)), 0) == 1

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            represent_count(QuadForm.diagonal((1, 1)), -1)

    @pytest.mark.parametrize("diag", [(1, 2), (1, 1, 3), (2, 3, 5)])
    def test_against_box_oracle_small(self, diag):
        form = QuadForm.diagonal(diag)
        for n in range(0, 40):
            assert represent_count(form, n) == box_count_oracle(form, n)

    def test_against_box_oracle_nondiagonal(self):
        form = QuadForm(((2, 1, 0), (1, 4, -1), (0, -1, 6)))
        for n in range(0, 30):
            assert represent_count(form, n) == box_count_oracle(form, n)

    def test_box_oracle_rank3_to_200(self):
        form = QuadForm.diagonal((1, 2, 3))
        theta = theta_coeffs(form, 200)
        for n in random.Random(3).sample(range(201), 12):
            assert theta[n] == box_count_oracle(form, n)


class TestThetaCoeffs:
    def test_examples(self):
        assert theta_coeffs(QuadForm.diagonal((1, 2, 3, 10)), 3) == [1, 2, 2, 6]
        assert theta_coeffs(QuadForm.diagonal((1, 2, 3, 10)), 0) == [1]
        assert theta_coeffs(QuadForm.diagonal((1, 1, 3, 5)), 2) == [1, 4, 4]
        assert all(type(c) is int
                   for c in theta_coeffs(QuadForm.diagonal((1, 2)), 50))

    @pytest.mark.parametrize("diag", [(1, 1, 1, 1), (1, 2, 3, 10), (1, 1, 3)])
    def test_matches_point_counts(self, diag):
        form = QuadForm.diagonal(diag)
        coeffs = theta_coeffs(form, 30)
        for n in range(31):
            assert coeffs[n] == represent_count(form, n)

    def test_nondiagonal_block_form(self):
        form = QuadForm.block_diag(3, [[6, 3], [3, 9]], 9)
        coeffs = theta_coeffs(form, 40)
        for n in range(41):
            assert coeffs[n] == represent_count(form, n)

    def test_isometry_invariance_random_conjugates(self):
        rng = random.Random(12)
        base_forms = [QuadForm.diagonal((1, 2, 3, 10)),
                      QuadForm.diagonal((1, 1, 3, 5)),
                      QuadForm(((2, 1, 0), (1, 4, -1), (0, -1, 6)))]
        for _ in range(25):
            form = rng.choice(base_forms)
            u = random_unimodular(rng, form.rank)
            other = conjugated(form, u)
            assert theta_coeffs(other, 50) == theta_coeffs(form, 50)

    @given(st.lists(st.integers(1, 9), min_size=2, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_zeroth_coefficient_and_parity(self, diag):
        form = QuadForm.diagonal(diag)
        coeffs = theta_coeffs(form, 25)
        assert coeffs[0] == 1
        assert all(c % 2 == 0 for c in coeffs[1:])


NONDIAGONAL_BASES = [
    QuadForm(((2, 1), (1, 4))),
    QuadForm(((4, -3), (-3, 6))),
    QuadForm(((2, 1, 0), (1, 4, -1), (0, -1, 6))),
    QuadForm(((2, 1, 1), (1, 2, 1), (1, 1, 4))),
    QuadForm(((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1), (1, 1, 1, 4))),
    QuadForm.from_gram([[1, 0, 0, 0], [0, 6, 2, -2], [0, 2, 6, 2],
                        [0, -2, 2, 8]]),
]


def random_conjugates(seed: int, count: int):
    rng = random.Random(seed)
    for _ in range(count):
        form = rng.choice(NONDIAGONAL_BASES)
        yield conjugated(form, random_unimodular(rng, form.rank))


def one_block_conjugate(rng: random.Random, form: QuadForm) -> QuadForm:
    """A random unimodular conjugate whose basis has one orthogonal block,
    with entries of at most 1000 so that a sweep to 400 stays quick."""
    while True:
        other = conjugated(form, random_unimodular(rng, form.rank))
        if (len(other.orthogonal_blocks()) == 1
                and max(abs(x) for row in other.hessian for x in row) <= 1000):
            return other


class TestWalkerAgainstBox:
    """The three leaf loops over the one lattice walker against brute
    force over the dual-bound box, on random unimodular conjugates."""

    @pytest.mark.parametrize("seed", range(6))
    def test_short_vectors(self, seed):
        for form in random_conjugates(seed, 3):
            cap = 6 if form.rank == 4 else 12
            expected: dict[int, list] = {}
            for v, q in box(form, cap):
                if 0 < q <= cap and next(c for c in v if c) > 0:
                    expected.setdefault(q, []).append(v)
            assert short_vectors(form, cap) == expected, form.hessian

    @pytest.mark.parametrize("seed", range(6))
    def test_represent_count_and_theta_coeffs(self, seed):
        for form in random_conjugates(100 + seed, 3):
            top = 6 if form.rank == 4 else 12
            counts = [0] * (top + 1)
            for _, q in box(form, top):
                if q <= top:
                    counts[q] += 1
            assert theta_coeffs(form, top) == counts, form.hessian
            assert [represent_count(form, n)
                    for n in range(top + 1)] == counts, form.hessian


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
    counts = [0] * (prec + 1)
    for _, a2, a1, a0 in fraction_tails(form.hessian, prec):
        for t in fraction_t_range(a2, a1, a0, prec):
            q = (a2 * t + a1) * t + a0
            if q <= prec:
                counts[q] += 1
    return counts


def fraction_count(form: QuadForm, n: int) -> int:
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


def random_definite(rng: random.Random, k: int) -> QuadForm:
    """A diagonally dominant form with odd and even cross terms, then a
    random unimodular conjugate of it."""
    h = [[0] * k for _ in range(k)]
    for i in range(k):
        for j in range(i):
            h[i][j] = h[j][i] = rng.randint(-5, 5)
    for i in range(k):
        h[i][i] = 2 * (sum(abs(c) for c in h[i]) // 2 + rng.randint(1, 6))
    form = QuadForm(tuple(map(tuple, h)))
    return form if k == 1 else conjugated(form, random_unimodular(rng, k))


def skewed_conjugate(rng: random.Random, form: QuadForm) -> QuadForm:
    """U^T H U for a unit upper-triangular U, entries of the result at
    most 1000: the flag of the basis is kept, only its skew is random."""
    k = form.rank
    while True:
        u = [[1 if r == c else (rng.randint(-9, 9) if r < c else 0)
              for c in range(k)] for r in range(k)]
        other = conjugated(form, u)
        if max(abs(x) for row in other.hessian for x in row) <= 1000:
            return other


class TestWalkerAgainstFractionReference:
    """The integer walker and its three leaf loops against the rational
    walker they replaced, at bounds past what the box oracle reaches."""

    @pytest.mark.parametrize("seed", range(8))
    def test_random_definite_forms(self, seed):
        rng = random.Random(8100 + seed)
        for k, prec in ((1, 400), (2, 400), (3, 150), (4, 50)):
            form = random_definite(rng, k)
            self._check(rng, form, prec, prec // 2)

    @pytest.mark.parametrize("seed", range(4))
    def test_skewed_conjugates(self, seed):
        rng = random.Random(8200 + seed)
        bases = [*NONDIAGONAL_BASES, *all_bundled_forms().values()]
        for base in rng.sample(bases, 3):
            prec = 400 if base.discriminant >= 960 or base.rank < 4 else 150
            self._check(rng, skewed_conjugate(rng, base), prec, 60)

    @staticmethod
    def _check(rng, form, prec, cap):
        expected = fraction_theta(form, prec)
        assert theta_coeffs(form, prec) == expected, form.hessian
        # the numpy leaf on the skewed basis itself, not a reduced one
        with mock.patch.object(theta, "_reduced_blocks", lambda f: (f,)):
            assert theta._theta_sweep(form, prec).tolist() == expected, \
                form.hessian
        for n in (0, 1, prec, *rng.sample(range(prec + 1), 4)):
            assert represent_count(form, n) == fraction_count(form, n), \
                (form.hessian, n)
        assert short_vectors(form, cap) == fraction_short_vectors(form, cap), \
            form.hessian


A4 = QuadForm(((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 1), (0, 0, 1, 2)))
BRIDGE_MATE_TERNARY = QuadForm(((12, 12, 20), (12, 42, 70), (20, 70, 150)))


def with_unary(form: QuadForm, q: int) -> QuadForm:
    """The orthogonal sum of form and <q>."""
    k = form.rank
    return QuadForm(tuple((*row, 0) for row in form.hessian)
                    + ((0,) * k + (2 * q,),))


def spy_reduce():
    return mock.patch.object(reduction, "minkowski_reduce",
                             wraps=reduction.minkowski_reduce)


class TestReducedSweep:
    """Blocks of rank >= 3 are swept on a Minkowski-reduced basis, as the
    product of its blocks where that basis splits.  theta_coeffs and
    every RepQuery count must equal a walk of the form's own basis
    (reference.tails_theta), and the reduction runs only for blocks of
    rank >= 3, once per distinct block."""

    @staticmethod
    def _check(form: QuadForm, prec: int):
        expected = tails_theta(form, prec)
        assert theta_coeffs(form, prec) == expected, form.hessian
        query = RepQuery(form, prec)
        assert [query.count(m) for m in range(prec + 1)] == expected, \
            form.hessian

    @pytest.mark.parametrize("name", sorted(all_bundled_forms()))
    def test_nonsplit_conjugates_of_bundled_forms(self, name):
        """A one-block conjugate of each bundled form splits again as the
        form itself does."""
        base = all_bundled_forms()[name]
        form = one_block_conjugate(random.Random(name), base)
        assert len(form.orthogonal_blocks()) == 1
        assert len(theta._reduced_blocks(form)) == \
            len(base.orthogonal_blocks())
        self._check(form, 150)

    @pytest.mark.parametrize("seed", range(6))
    def test_random_nondiagonal_forms(self, seed):
        rng = random.Random(9300 + seed)
        for k, prec in ((3, 300), (4, 80)):
            self._check(random_definite(rng, k), prec)
        # a skewed ternary beside a unary: two halves, the ternary reduced
        ternary = random_definite(rng, 3)
        self._check(with_unary(ternary, rng.randint(1, 9)), 150)

    @pytest.mark.parametrize("base, prec", [(A4, 60),
                                            (BRIDGE_MATE_TERNARY, 400)],
                             ids=["A4", "bridge-mate ternary"])
    def test_forms_that_stay_one_block(self, base, prec):
        rng = random.Random(9400)
        for form in (base, one_block_conjugate(rng, base),
                     skewed_conjugate(rng, base)):
            assert len(theta._reduced_blocks(form)) == 1
            self._check(form, prec)

    def test_no_reduction_for_split_forms(self):
        """Diagonal and already split forms never reach minkowski_reduce:
        their blocks have rank <= 2."""
        with spy_reduce() as reduce:
            for entry in CLASSIFICATION_TABLE:
                is_strongly_s_regular(entry.form, 30)
            result = search_diagonal(SearchConfig(15, 1))
        assert result.survivors and not reduce.called

    def test_reduction_once_per_distinct_block(self):
        """Repeated sweeps, dense and through RepQuery, reduce each block
        of rank >= 3 once: the conjugate, the ternary of a 3 + 1 form and
        the ternary part that a reduced rank-4 block splits off."""
        rng = random.Random(9500)
        pair = GENUS_PAIRS["1,2,3,10"]
        forms = [one_block_conjugate(rng, pair.mate),
                 with_unary(skewed_conjugate(rng, BRIDGE_MATE_TERNARY), 7),
                 A4]
        with spy_reduce() as reduce:
            for _ in range(3):
                for form in forms:
                    theta_coeffs(form, 40)
                    RepQuery(form, 40).count(40)
        reduced = [call.args[0] for call in reduce.call_args_list]
        assert len(reduced) == len(set(reduced))
        assert {blk for form in forms for blk in form.orthogonal_blocks()
                if blk.rank >= 3} < set(reduced)

    def test_one_block_failing_form_is_swept_split(self):
        """A one-block conjugate of <1,2,3,3> fails as the diagonal form
        does (n = 10, expected 210, actual 146), and the only rank-4 walks
        are the reduction's short-vector pool, never a sweep to
        bound^2."""
        diagonal = QuadForm.diagonal((1, 2, 3, 3))
        form = one_block_conjugate(random.Random(9600), diagonal)
        walks = []
        real = theta._tails

        def spy(f, bound):
            walks.append((f.rank, bound))
            return real(f, bound)

        with mock.patch.object(theta, "_tails", spy):
            report = is_strongly_s_regular(form, 60).to_dict()
        expected = is_strongly_s_regular(diagonal, 60).to_dict()
        assert report.pop("form") != expected.pop("form")
        assert report == expected
        assert report["counterexample"] == {"n": 10, "expected": 210,
                                            "actual": 146}
        assert walks and all(bound <= max(form.diag_q)
                             for rank, bound in walks if rank == 4)


class TestTails:
    @given(st.integers(1, 4), st.integers(0, 2**32), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_ranges_are_exact(self, k, seed, bound):
        """Each t in [lo, hi) of each row of each batch gives Q <= bound
        with the yielded quadratic; lo - 1 and hi give Q > bound."""
        form = random_definite(random.Random(seed), k)
        a2 = form.hessian[0][0] // 2
        for x, *arrays in _tails(form, bound):
            for x1, lo, hi, a1, a0 in zip(*(arr.tolist() for arr in arrays)):
                tail = (x1, *x[2:])[:k - 1]
                for t in range(lo, hi):
                    q = form.evaluate((t, *tail))
                    assert q <= bound and q == (a2 * t + a1) * t + a0
                assert form.evaluate((lo - 1, *tail)) > bound
                assert form.evaluate((hi, *tail)) > bound

    def test_leaf_constant_beyond_int64(self):
        """The leaf budget reaches 2 bound H[0][0] = 4e19 here, past int64;
        only the quadratic itself is evaluated in numpy."""
        form = QuadForm(((2 * 10**17, 1), (1, 2 * 10**17)))
        assert theta_coeffs(form, 100) == [1] + [0] * 100
        assert represent_count(form, 100) == 0
        assert short_vectors(form, 100) == {}


class TestBatchedLevels:
    """The numpy levels of the walker: the chunks of _theta_sweep, the
    int64 widening and the array square root."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("flush", [1, 3, 16, 64])
    def test_chunk_seams(self, seed, flush):
        """With _FLUSH a few values, chunks start and end inside batches
        and inside rows, and pending batches are joined before a chunk."""
        rng = random.Random(8300 + seed)
        with mock.patch.object(theta, "_FLUSH", flush):
            for k, prec in ((2, 150), (3, 60), (4, 25)):
                base = random_definite(rng, k)
                reduced, _ = reduction.minkowski_reduce(base)
                for form in (base, skewed_conjugate(rng, reduced)):
                    self._check_against_fractions(form, prec)

    def test_widened_walk(self):
        """Level-1 budgets past int64 widen the arrays to Python ints, and
        the points are still found; so does a skewed binary whose
        coordinates and a0 = c^2 + 1 pass int64 while D_1 D_2 stays small."""
        c = 2**40
        skewed = QuadForm(((2, 2 * c), (2 * c, 2 * c * c + 2)))
        for form, bound in ((QuadForm(((2, 1), (1, 2 * 10**17))), 100),
                            (skewed, 50)):
            assert theta._wide(form, bound)
            self._check_against_fractions(form, bound)
        assert theta_coeffs(skewed, 50) == \
            theta_coeffs(QuadForm.diagonal((1, 1)), 50)

    def test_bundled_blocks_stay_int64(self):
        """The sweeps the suites and the cache make stay on int64."""
        for form in all_bundled_forms().values():
            for blk in form.orthogonal_blocks():
                assert not theta._wide(blk, 20000), blk.hessian
        assert not theta._wide(A4, 10**4)

    def test_array_isqrt_at_square_edges(self):
        rng = np.random.default_rng(8400)
        ks = np.concatenate((np.arange(1, 5000),
                             rng.integers(1, 2**31 - 1, 10**5),
                             2**np.arange(16, 31) + np.arange(-2, 3)[:, None],
                             [2**31 - 1]), axis=None).astype(np.int64)
        squares = ks * ks
        assert (theta._isqrt(squares) == ks).all()
        assert (theta._isqrt(squares - 1) == ks - 1).all()
        assert (theta._isqrt(squares + 1) == ks).all()
        assert theta._isqrt(np.zeros(1, dtype=np.int64)).tolist() == [0]
        big = [0, 1, 2**62, 2**64 - 1, 10**40, 10**40 - 1]
        assert theta._isqrt(np.array(big, dtype=object)).tolist() == \
            [isqrt(v) for v in big]

    @pytest.mark.parametrize("shift", [-1, 1])
    def test_array_isqrt_corrects_an_estimate_off_by_one(self, shift):
        """IEEE sqrt never misses by one below 2^62 here; an estimate that
        did, either way, would still be corrected."""
        ks = np.arange(2, 5000, dtype=np.int64)
        real_sqrt = np.sqrt
        with mock.patch.object(np, "sqrt", lambda v: real_sqrt(v) + shift):
            for v, root in ((ks * ks - 1, ks - 1), (ks * ks, ks),
                            (ks * ks + 1, ks)):
                assert (theta._isqrt(v) == root).all()

    @staticmethod
    def _check_against_fractions(form: QuadForm, prec: int):
        with mock.patch.object(theta, "_reduced_blocks", lambda f: (f,)):
            assert theta._theta_sweep(form, prec).tolist() == \
                fraction_theta(form, prec), form.hessian
        for n in range(prec + 1):
            assert represent_count(form, n) == fraction_count(form, n), \
                (form.hessian, n)
        assert short_vectors(form, prec) == \
            fraction_short_vectors(form, prec), form.hessian


class TestVectors:
    def test_short_vectors_groups(self):
        form = QuadForm.diagonal((1, 2))
        pool = short_vectors(form, 9)
        # sign-canonical: half of each represent count
        assert len(pool[1]) == 1 and len(pool[2]) == 1
        assert len(pool[9]) == represent_count(form, 9) // 2
        for value, vecs in pool.items():
            assert all(form.evaluate(v) == value for v in vecs)


class TestRepQuery:
    @pytest.mark.parametrize("gram", [
        None,  # diagonal quaternary
        [[1, 0, 0, 0], [0, 6, 2, -2], [0, 2, 6, 2], [0, -2, 2, 8]],
    ])
    def test_matches_theta(self, gram):
        form = (QuadForm.diagonal((1, 2, 6, 16)) if gram is None
                else QuadForm.from_gram(gram))
        query = RepQuery(form, 150)
        coeffs = theta_coeffs(form, 150)
        for m in range(151):
            assert query.count(m) == coeffs[m]

    def test_point_fallback_for_dense_rank4(self):
        form = QuadForm(((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1),
                         (1, 1, 1, 4)))
        assert len(form.orthogonal_blocks()) == 1
        query = RepQuery(form, 40)
        for m in range(20):
            assert query.count(m) == represent_count(form, m)

    @pytest.mark.parametrize("seed", range(6))
    def test_one_block_conjugates_match_references(self, seed):
        """A form with one orthogonal block takes the one-half path (one
        dense sweep, then array lookups, never a represent_count walk).
        Its counts must equal theta_coeffs of the unconjugated base form
        everywhere, and represent_count of the conjugate on samples."""
        rng = random.Random(4400 + seed)
        bases = {2: [*NONDIAGONAL_BASES[:2], QuadForm.diagonal((1, 3))],
                 3: [*NONDIAGONAL_BASES[2:4], QuadForm.diagonal((1, 2, 3))],
                 4: [NONDIAGONAL_BASES[5], *all_bundled_forms().values()]}
        prec = 400
        for rank in (2, 3, 4, 4):
            base = rng.choice(bases[rank])
            form = one_block_conjugate(rng, base)
            with mock.patch.object(theta, "represent_count") as walk:
                query = RepQuery(form, prec)
                got = [query.count(m) for m in range(prec + 1)]
            assert not walk.called
            assert got == theta_coeffs(base, prec), form.hessian
            for m in rng.sample(range(101), 4):
                assert got[m] == represent_count(form, m), (form.hessian, m)

    def test_cache_gets_the_whole_one_block_form(self):
        form = QuadForm(((2, 1, 1, 1), (1, 2, 1, 1), (1, 1, 2, 1),
                         (1, 1, 1, 4)))
        calls = []

        def cache(block, prec):
            calls.append((block, prec))
            return theta_coeffs(block, prec)

        query = RepQuery(form, 60, cache=cache)
        assert calls == [(form, 60)]
        assert [query.count(m) for m in range(61)] == theta_coeffs(form, 60)

    @pytest.mark.parametrize("form", [
        QuadForm.diagonal((1, 2, 3, 10)),
        QuadForm.block_diag(1, 2, [[2, 1], [1, 5]]),
        QuadForm.block_diag([[2, 1], [1, 3]], [[2, -1], [-1, 4]]),
        QuadForm.block_diag([[1, 1, 0], [1, 3, 1], [0, 1, 4]], 7),
        QuadForm(((2, 1, 0, 0), (1, 2, 1, 0), (0, 1, 2, 0), (0, 0, 0, 2))),
    ], ids=["1+1+1+1", "1+1+2", "2+2", "3+1", "3+1 odd cross terms"])
    def test_two_halves_in_any_query_order(self, form):
        """Two-half forms give theta_coeffs whatever the order of the
        queries."""
        prec = 5000
        coeffs = theta_coeffs(form, prec)
        ascending = list(range(prec + 1))
        shuffled = ascending[:]
        random.Random(7).shuffle(shuffled)
        for order in (ascending, ascending[::-1], shuffled):
            query = RepQuery(form, prec)
            assert [query.count(m) for m in order] == \
                [coeffs[m] for m in order]

    @pytest.mark.parametrize("form", [
        QuadForm.diagonal((1, 2, 3, 10)),
        QuadForm.block_diag([[2, 1], [1, 3]], [[2, -1], [-1, 4]]),
        QuadForm.block_diag([[1, 1, 0], [1, 3, 1], [0, 1, 4]], 7),
        QuadForm(((2, 1, 0), (1, 2, 1), (0, 1, 2))),
    ], ids=["1+1+1+1", "2+2", "3+1", "one block"])
    def test_repeated_queries_across_rebuilds(self, form):
        """Asking one RepQuery for the same m again, before and after each
        rebuild of its halves (64, 256, 1024, 4096, prec), gives
        theta_coeffs every time."""
        prec = 5000
        coeffs = theta_coeffs(form, prec)
        rising = [7, 7, 70, 7, 300, 70, 1100, 300, 4097, 7, 4097, 5000, 7]
        rng = random.Random(11)
        seeded = rng.choices(rising + rng.sample(range(prec + 1), 20), k=80)
        for order in (rising, [7, 7, 5000, 7, 70, 300, 70, 4097, 7], seeded):
            query = RepQuery(form, prec)
            assert [query.count(m) for m in order] == \
                [coeffs[m] for m in order]

    def test_halves_grow_4x_then_jump_to_prec(self):
        """Rising queries build halves of binary blocks at 64, 256, 1024,
        4096, then at prec, dropping the old halves before each sweep;
        a form with a ternary block builds at prec at construction (its
        ternary splits into <1> + binary once reduced, so the sweeps are
        the ternary's, its two parts' and <7>'s)."""
        prec = 20000
        sweep = theta._theta_sweep
        builds = []

        def recording_sweep(h, n):
            builds.append((n, getattr(query, "_a", None) is None))
            return sweep(h, n)

        form = QuadForm.block_diag([[2, 1], [1, 3]], [[2, -1], [-1, 4]])
        coeffs = theta_coeffs(form, prec)
        with mock.patch.object(theta, "_theta_sweep", recording_sweep):
            query = RepQuery(form, prec)
            for m in range(0, prec + 1, 7):
                assert query.count(m) == coeffs[m]
        assert builds == [(n, True) for n in (64, 256, 1024, 4096, prec)
                          for _ in range(2)]
        builds.clear()
        form = QuadForm.block_diag([[1, 1, 0], [1, 3, 1], [0, 1, 4]], 7)
        coeffs = theta_coeffs(form, 12)
        with mock.patch.object(theta, "_theta_sweep", recording_sweep):
            query = RepQuery(form, prec)
            built = len(builds)
            assert query.count(12) == coeffs[12]
        assert len(builds) == built == 4
        assert [n for n, _ in builds] == [prec] * 4

    def test_cache_only_for_the_build_at_prec(self):
        calls = []

        def cache(block, prec):
            calls.append((block, prec))
            return theta_coeffs(block, prec)

        report = is_strongly_s_regular(QuadForm.diagonal((1, 2, 3, 10)), 20,
                                       cache=cache)
        assert report.passed
        assert calls == [(QuadForm.diagonal((q,)), 400)
                         for q in (1, 10, 2, 3)]
        calls.clear()
        report = is_strongly_s_regular(QuadForm.diagonal((1, 2, 3, 3)), 600,
                                       cache=cache)
        assert report.counterexample[0] == 10
        assert calls == []

    def test_int64_guard_checked_at_every_build(self):
        """A build whose dot products could pass the query guard raises,
        and leaves no halves behind to answer a later query from."""
        form = QuadForm.diagonal((1, 2, 3, 10))
        with mock.patch.object(theta, "_QUERY_GUARD", 1):
            query = RepQuery(form, 5000)
            for m in (0, 4000, 100, 5000, 100):
                with pytest.raises(OverflowError):
                    query.count(m)
        # the build at 64 passes (peak 3,120), the one at prec does not
        with mock.patch.object(theta, "_QUERY_GUARD", 10**4):
            query = RepQuery(form, 5000)
            assert query.count(10) == theta_coeffs(form, 10)[10]
            with pytest.raises(OverflowError):
                query.count(5000)
            with pytest.raises(OverflowError):
                query.count(4000)

    @pytest.mark.parametrize("prec, a_max, b_max, fits", [
        (127, 1 << 23, 1 << 23, False),  # 2^46 (127 + 1) = 2^53
        (6360, 69431, 20394401, True),  # 6361 69431 20394401 = 2^53 - 1
    ])
    def test_query_guard_edge(self, prec, a_max, b_max, fits):
        """Halves whose dot bound max(a) max(b) (n + 1) is exactly 2^53
        are refused; at 2^53 - 1 they build, and every dot, 2^53 - 1
        itself at prec, equals the Python-int sum."""
        assert a_max * b_max * (prec + 1) == theta._QUERY_GUARD - fits
        built = []

        def flat_half(arrays, n):
            # the half of <1> has r(1) = 2, the half of <2> r(1) = 0
            built.append(np.full(n + 1, a_max if arrays[0][1] else b_max,
                                 dtype=np.int64))
            return built[-1]

        with mock.patch.object(theta, "_product", flat_half):
            query = RepQuery(QuadForm.diagonal((1, 2)), prec)
            if not fits:
                with pytest.raises(OverflowError, match=r"2\^53"):
                    query.count(prec)
                return
            got = {m: query.count(m) for m in (prec, 0, 1, 4097)}
        assert not (query._a.flags.writeable or query._b.flags.writeable)
        a, b = (arr.tolist() for arr in built)
        assert got[prec] == theta._QUERY_GUARD - 1
        for m, val in got.items():
            assert val == sum(a[i] * b[m - i] for i in range(m + 1))

    def test_bounds(self):
        query = RepQuery(QuadForm.diagonal((1, 2)), 10)
        with pytest.raises(ValueError):
            query.count(11)
        with pytest.raises(ValueError):
            query.count(-1)


class TestFloatDotQueries:
    """Every dot query that is_strongly_s_regular asks equals the int64
    dot of int64 halves that _product makes afresh, not RepQuery's
    float64 ones: the Table 1 forms at bound 600 and the genus pairs'
    forms at bound 200 (their ternary blocks make 600 slow)."""

    @staticmethod
    def _check(form: QuadForm, bound: int, passes: bool):
        asked = []
        real = RepQuery.count

        def recording(query, m):
            asked.append((query, m, real(query, m)))
            return asked[-1][2]

        with mock.patch.object(RepQuery, "count", recording):
            assert is_strongly_s_regular(form, bound).passed == passes
        (query,) = {q for q, _, _ in asked}
        assert query._b.dtype == np.float64 and len(query._b) > 1
        top = max(m for _, m, _ in asked)
        a_int, b_int = (theta._product([theta._theta_sweep(blk, top)
                                        for blk in half], top)
                        for half in query._halves)
        assert a_int.dtype == b_int.dtype == np.int64
        for _, m, val in asked:
            assert val == int(np.dot(a_int[:m + 1], b_int[m::-1])), m

    @pytest.mark.parametrize("entry", CLASSIFICATION_TABLE,
                             ids=lambda e: ",".join(map(str, e.diagonal)))
    def test_classification_table_at_600(self, entry):
        self._check(QuadForm.diagonal(entry.diagonal), 600,
                    entry.expected_pass)

    @pytest.mark.parametrize("name", GENUS_PAIRS)
    @pytest.mark.parametrize("side", ["primary", "mate"])
    def test_genus_pair_forms(self, name, side):
        self._check(getattr(GENUS_PAIRS[name], side), 200, True)


def _memo_test_forms(rng: random.Random, count: int) -> list[QuadForm]:
    """Diagonal forms <1,a,b,c> and orthogonal sums of two binary forms
    (odd cross terms included), half of each."""
    forms = []
    for i in range(count):
        if i % 2:
            forms.append(QuadForm.diagonal(
                (1, *sorted(rng.randint(1, 24) for _ in range(3)))))
            continue
        blocks = []
        for _ in range(2):
            a, c = sorted((rng.randint(1, 6), rng.randint(1, 6)))
            b = rng.choice([b for b in range(-a, a + 1) if b * b < 4 * a * c])
            blocks.append(((2 * a, b), (b, 2 * c)))
        (a1, b1), (_, c1) = blocks[0]
        (a2, b2), (_, c2) = blocks[1]
        forms.append(QuadForm(((a1, b1, 0, 0), (b1, c1, 0, 0),
                               (0, 0, a2, b2), (0, 0, b2, c2))))
    return forms


class TestHalfMemo:
    """Partial RepQuery halves are shared between queries through
    theta._half; every test starts with it empty (tests/conftest.py)."""

    def test_memoised_halves_are_read_only(self):
        form = QuadForm.diagonal((1, 2, 3, 10))
        query = RepQuery(form, 2500)
        assert query.count(10) == theta_coeffs(form, 10)[10]
        assert query._built == 64
        for half in (query._a, query._b):
            with pytest.raises(ValueError):
                half[0] = 5
        with pytest.raises(ValueError):
            theta._half(query._halves[0], 64)[1] += 1
        assert theta._half.cache_info().hits == 1

    def test_keys_are_partial_and_the_memo_bounded(self):
        seen = []
        real = theta._half

        def recording(blocks, n):
            seen.append((blocks, n))
            return real(blocks, n)

        form = QuadForm.diagonal((1, 2, 3, 10))
        pair = GENUS_PAIRS["1,1,3,5"]
        with mock.patch.object(theta, "_half", recording):
            assert is_strongly_s_regular(form, 60).passed
            runs = [(seen[:], 3600, form)]
            seen.clear()
            assert check_indistinguishable(pair, 60).passed
            runs.append((seen[:], 3600, pair.primary, pair.mate))
        for keys, prec, *checked in runs:
            assert keys
            blocks = {sub for f in checked for sub in f.orthogonal_blocks()}
            for half, n in keys:
                assert n < prec
                assert set(half) <= blocks
        assert {n for keys, *_ in runs for _, n in keys} == {64, 256, 1024}
        info = real.cache_info()
        assert 0 < info.currsize <= 256 and info.maxsize == 256

    def test_cold_and_warm_reports_agree(self):
        """200 forms checked in shuffled order, on a cold and then on a
        warm memo: equal reports, and counts equal to represent_count."""
        rng = random.Random(1010)
        forms = _memo_test_forms(rng, 200)
        order = forms[:]
        rng.shuffle(order)
        cold = {f: is_strongly_s_regular(f, 30).to_dict() for f in order}
        warm_before = theta._half.cache_info()
        assert warm_before.currsize > 0
        rng.shuffle(order)
        warm = {f: is_strongly_s_regular(f, 30).to_dict() for f in order}
        assert warm == cold
        assert theta._half.cache_info().hits > warm_before.hits
        assert {r["verdict"] for r in cold.values()} == {"pass", "fail"}
        for form in forms[::4]:
            query = RepQuery(form, 900)
            for n in rng.sample(range(1, 31), 2):
                assert query.count(n * n) == represent_count(form, n * n)
            witness = cold[form].get("counterexample")
            if witness:
                n = witness["n"]
                assert witness["actual"] == represent_count(form, n * n)

    def test_cache_calls_unchanged_by_a_warm_memo(self):
        """A cache provider is asked for exactly the (block, prec) calls it
        got before halves were memoised, on a cold and a warm memo."""
        a2, b14 = ((2, 1), (1, 2)), ((2, 1), (1, 4))
        checks = [
            ((1, 2, 3, 10), 20, [(((2,),), 400), (((20,),), 400),
                                 (((4,),), 400), (((6,),), 400)]),
            ((1, 2, 3, 3), 600, []),
            (((2, 1, 0, 0), (1, 4, 0, 0), (0, 0, 4, 1), (0, 0, 1, 6)), 30, []),
            (((2, 1, 0, 0), (1, 2, 0, 0), (0, 0, 2, 1), (0, 0, 1, 4)), 30,
             [(b14, 900), (a2, 900)]),
            ((1, 1, 1, 1), 10, [(((2,),), 100)] * 4),
        ]
        calls = []

        def cache(block, prec):
            calls.append((block.hessian, prec))
            return theta_coeffs(block, prec)

        for _ in range(2):
            for spec, bound, expected in checks:
                form = (QuadForm.diagonal(spec) if isinstance(spec[0], int)
                        else QuadForm(spec))
                is_strongly_s_regular(form, bound, cache=cache)
                assert calls == expected, spec
                calls.clear()
        assert theta._half.cache_info().hits > 0


_dense_arrays = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=60)
_sparse_arrays = st.lists(st.sampled_from((0,) * 8 + (1, 2, -1, -7, 10**6)),
                          min_size=1, max_size=120)
_coefficient_arrays = _dense_arrays | _sparse_arrays


def _always_sparse():
    """Lower both thresholds of the path choice so every product within
    the int64 guard takes the sparse x sparse path."""
    return mock.patch.multiple(theta, _SPARSE_MIN_WORK=0, _SPARSE_DENSITY=0)


def _never_sparse():
    return mock.patch.object(theta, "_SPARSE_MIN_WORK", 1 << 62)


def _spy_sparse():
    return mock.patch.object(theta, "_convolve_sparse",
                             wraps=theta._convolve_sparse)


class TestConvolveTrunc:
    @settings(max_examples=150, deadline=None)
    @given(_coefficient_arrays, _coefficient_arrays, st.integers(0, 200),
           st.booleans())
    def test_both_paths_match_object_reference(self, a, b, prec, sparse):
        a = np.array(a, dtype=np.int64)
        b = np.array(b, dtype=np.int64)
        expected = mul_trunc(a.tolist(), b.tolist(), prec)
        with (_always_sparse() if sparse else _never_sparse()), \
                _spy_sparse() as spy:
            got = _convolve_trunc(a, b, prec)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert spy.called == sparse

    @pytest.mark.parametrize("x, y, prec", [
        (1, 1, 40000), (2, 7, 40000), (5, 3, 90001), (1, 50, 360000),
    ])
    def test_unary_pairs_take_sparse_path_at_default_rule(self, x, y, prec):
        a, b = _theta_unary(x, prec), _theta_unary(y, prec)
        with _spy_sparse() as spy:
            got = _convolve_trunc(a, b, prec)
        assert spy.called
        with _never_sparse():
            assert np.array_equal(got, _convolve_trunc(a, b, prec))

    def test_small_and_dense_products_stay_on_the_loop(self):
        small = _theta_unary(1, 2500)
        dense = _convolve_trunc(_theta_unary(1, 40000),
                                _theta_unary(1, 40000), 40000)
        with _spy_sparse() as spy:
            _convolve_trunc(small, small, 2500)
            _convolve_trunc(dense, _theta_unary(3, 40000), 40000)
        assert not spy.called

    def test_guard_refuses_products_past_int64(self):
        a = np.array([1 << 62, 0, 1 << 62], dtype=np.int64)
        b = np.array([1, 1, 0, 1], dtype=np.int64)
        with _always_sparse(), _spy_sparse() as spy:
            with pytest.raises(OverflowError, match="exceed int64"):
                _convolve_trunc(a, b, 5)
        assert not spy.called

    def test_rep_query_on_sparse_path_matches_enumeration(self):
        rng = random.Random(20190306)
        prec = 40000
        for _ in range(4):
            diag = (1,) + tuple(sorted(rng.randint(1, 12) for _ in range(3)))
            form = QuadForm.diagonal(diag)
            # a query at prec builds the halves at prec in one step
            with _spy_sparse() as spy:
                query = RepQuery(form, prec)
                query.count(prec)
            assert spy.call_count == 2, diag
            for m in rng.sample(range(800), 4):
                assert query.count(m) == represent_count(form, m), (diag, m)
            with _never_sparse():
                loop = RepQuery(form, prec)
                loop.count(prec)
            for m in rng.sample(range(prec + 1), 50):
                assert query.count(m) == loop.count(m), (diag, m)


_series = st.lists(st.integers(-50, 50), min_size=1, max_size=40) | \
    st.lists(st.sampled_from((0,) * 10 + (1, -1, 3, -10**20)),
             min_size=1, max_size=80)


def _naive_product(a, b, n):
    return [sum(a[i] * b[m - i] for i in range(m + 1)
                if i < len(a) and m - i < len(b))
            for m in range(n + 1)]


class TestSeriesKernels:
    @settings(max_examples=150, deadline=None)
    @given(_series, _series, st.integers(0, 100))
    def test_mul_trunc_matches_double_sum(self, a, b, n):
        assert mul_trunc(a, b, n) == _naive_product(a, b, n)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 50), st.integers(0, 3000),
           st.sampled_from((1, 4, -4, 12, -3, 5, 8)), st.integers(0, 1))
    def test_twisted_unary_matches_definition(self, a, prec, char, weight):
        expected = [0] * (prec + 1)
        for s in range(-isqrt(prec), isqrt(prec) + 1):
            if a * s * s <= prec:
                expected[a * s * s] += kronecker(char, s) * s ** weight
        got = _theta_unary(a, prec, char, weight)
        assert got.dtype == np.int64
        assert got.tolist() == expected
