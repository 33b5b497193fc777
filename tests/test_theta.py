import random
import re
from itertools import product
from math import isqrt
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab import reduction, theta
from qflab.arith import factorize, kronecker
from qflab.cache import make_cache
from qflab.forms import QuadForm
from qflab.lattices import (CLASSIFICATION_TABLE, GENUS_PAIRS,
                            all_bundled_forms)
from qflab.regularity import check_indistinguishable, is_strongly_s_regular
from qflab.search import SearchConfig, search_diagonal
from qflab.theta import (RepQuery, _convolve_trunc, _tails, represent_count,
                         theta_coeffs)
from qflab.verify import run_lemma54, run_props, run_table1
from reference import (fraction_count, fraction_short_vectors, fraction_theta,
                       int_det, mul_trunc, tails_theta)


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


def norm_vectors(form: QuadForm, n: int) -> list[tuple[int, ...]]:
    """The vectors theta._vectors_of_norm yields for n, sorted."""
    return sorted(tuple(v) for batch in theta._vectors_of_norm(form, n)
                  for v in batch.tolist())


def fraction_norm_vectors(form: QuadForm, cap: int) -> list[list]:
    """The vectors with Q(v) = n for each n <= cap, both signs, sorted,
    from the Fraction reference's sign-canonical listing."""
    pool = fraction_short_vectors(form, cap)
    return [[(0,) * form.rank]] + [
        sorted(vec for base in pool.get(n, ())
               for vec in (base, tuple(-c for c in base)))
        for n in range(1, cap + 1)]


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
    """The readers of the one lattice walker against brute force over the
    dual-bound box, on random unimodular conjugates."""

    @pytest.mark.parametrize("seed", range(6))
    def test_short_vectors(self, seed):
        """The exact-norm reader gives every vector of each norm <= cap."""
        for form in random_conjugates(seed, 3):
            cap = 6 if form.rank == 4 else 12
            expected = [[] for _ in range(cap + 1)]
            for v, q in box(form, cap):
                if q <= cap:
                    expected[q].append(v)
            assert [norm_vectors(form, n) for n in range(cap + 1)] == \
                expected, form.hessian

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
    most 1000: the flag of the basis is kept, only its skew is random.
    After 1000 draws with no such U (a form whose entries are already in
    the hundreds may have none) it raises ValueError."""
    k = form.rank
    for _ in range(1000):
        u = [[1 if r == c else (rng.randint(-9, 9) if r < c else 0)
              for c in range(k)] for r in range(k)]
        other = conjugated(form, u)
        if max(abs(x) for row in other.hessian for x in row) <= 1000:
            return other
    raise ValueError(f"no skewed conjugate of {form.hessian} with entries "
                     "at most 1000 in 1000 draws")


def test_skewed_conjugate_gives_up():
    """The eighth random binary of seed 2400 has no skewed conjugate
    within the entry limit; the helper raises instead of looping, after
    returning the first seven."""
    rng = random.Random(2400)
    for _ in range(7):
        skewed_conjugate(rng, random_definite(rng, 2))
    form = random_definite(rng, 2)
    with pytest.raises(ValueError, match=re.escape(str(form.hessian))):
        skewed_conjugate(rng, form)


class TestWalkerAgainstFractionReference:
    """The integer walker and its readers against the rational walker
    they replaced, at bounds past what the box oracle reaches."""

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
        # the numpy sweep walks the skewed basis itself, not a reduced one
        assert theta._theta_sweep(form, prec).tolist() == expected, \
            form.hessian
        for n in (0, 1, prec, *rng.sample(range(prec + 1), 4)):
            assert represent_count(form, n) == fraction_count(form, n), \
                (form.hessian, n)
        assert [norm_vectors(form, n) for n in range(cap + 1)] == \
            fraction_norm_vectors(form, cap), form.hessian


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
        of rank >= 3 once, and nothing else: the conjugate, the ternary of
        a 3 + 1 form and A4, but not the ternary part that a reduced
        rank-4 block splits off, which is walked as it comes."""
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
                if blk.rank >= 3} == set(reduced)

    def test_one_block_failing_form_is_swept_split(self):
        """A one-block conjugate of <1,2,3,3> fails as the diagonal form
        does (n = 10, expected 210, actual 146), with no rank-4 walk at
        all: the reduction enumerates nothing, and the sweep is of the
        reduced basis's blocks."""
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
        assert [walk for walk in walks if walk[0] == 4] == []


class TestTails:
    @given(st.integers(1, 4), st.integers(0, 2**32), st.integers(0, 40))
    @settings(max_examples=60, deadline=None)
    def test_ranges_are_exact(self, k, seed, bound):
        """Each t in [lo, hi) of each row of each batch gives Q <= bound
        with the yielded quadratic; lo - 1 and hi give Q > bound."""
        form = random_definite(random.Random(seed), k)
        a2 = form.hessian[0][0] // 2
        for xs, *arrays in _tails(form, bound):
            for tail, lo, hi, a1, a0 in zip(map(tuple, xs.tolist()),
                                            *(arr.tolist() for arr in arrays)):
                assert len(tail) == k - 1
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
        assert norm_vectors(form, 100) == []


class TestBatchedLevels:
    """The array levels of the walker: the chunks of _spread in the
    walker and in _theta_sweep, the int64 widening and the array square
    root."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("flush", [1, 3, 16, 64])
    def test_chunk_seams(self, seed, flush):
        """With _FLUSH a few values, chunks start and end inside rows,
        both where _theta_sweep counts a batch's ranges and where each
        walker level >= 1 expands its rows into the next level's."""
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

    @pytest.mark.parametrize("diag", [(1, 2**28, 1), (1, 2**20, 2**20, 1)],
                             ids=["rank-3", "rank-4"])
    def test_widened_outer_levels(self, diag):
        """A budget past int64 only at a level >= 2 widens the arrays
        too: D_i e passes 2^67 at every level i >= 2, while level 1's
        stays below 2^38 and the coordinates and a0 below 2^6.  The
        basis is skewed by the all-ones upper triangle, so that the outer
        levels have nonzero offsets.  Reduction would split these forms;
        the walk is of the skewed basis itself."""
        k = len(diag)
        skew = [[int(r <= c) for c in range(k)] for r in range(k)]
        form = conjugated(QuadForm.diagonal(diag), skew)
        assert theta._wide(form, 50)
        self._check_against_fractions(form, 50)

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
        assert theta._theta_sweep(form, prec).tolist() == \
            fraction_theta(form, prec), form.hessian
        for n in range(prec + 1):
            assert represent_count(form, n) == fraction_count(form, n), \
                (form.hessian, n)
        assert [norm_vectors(form, n) for n in range(prec + 1)] == \
            fraction_norm_vectors(form, prec), form.hessian


class TestVectors:
    """theta._vectors_of_norm, the exact-norm reader of the walker."""

    def test_short_vectors_groups(self):
        form = QuadForm.diagonal((1, 2))
        assert norm_vectors(form, 0) == [(0, 0)]
        assert norm_vectors(form, 1) == [(-1, 0), (1, 0)]
        assert norm_vectors(form, 2) == [(0, -1), (0, 1)]
        assert norm_vectors(form, 9) == [(-3, 0), (-1, -2), (-1, 2), (1, -2),
                                         (1, 2), (3, 0)]
        for n in range(30):
            assert all(form.evaluate(v) == n for v in norm_vectors(form, n))

    @pytest.mark.parametrize("k, cap", [(1, 200), (2, 120), (3, 50), (4, 20)])
    def test_against_fraction_reference(self, k, cap):
        """Every vector of each norm n <= cap, both signs, on random
        conjugates with odd and even cross terms; its count is
        represent_count."""
        rng = random.Random(8600 + k)
        for _ in range(3):
            form = random_definite(rng, k)
            vectors = [norm_vectors(form, n) for n in range(cap + 1)]
            assert vectors == fraction_norm_vectors(form, cap), form.hessian
            assert [len(vecs) for vecs in vectors] == \
                [represent_count(form, n) for n in range(cap + 1)]

    def test_object_dtype(self):
        """A walk that _wide sends to Python ints yields object arrays of
        the same vectors."""
        c = 2**40
        form = QuadForm(((2, 2 * c + 1), (2 * c + 1, 2 * c * c + 2 * c + 2)))
        assert theta._wide(form, 1)
        batches = [batch for n in range(1, 31)
                   for batch in theta._vectors_of_norm(form, n)]
        assert batches and all(b.dtype == object for b in batches)
        vectors = [norm_vectors(form, n) for n in range(31)]
        assert vectors == fraction_norm_vectors(form, 30)
        assert [len(vecs) for vecs in vectors] == \
            [represent_count(form, n) for n in range(31)]


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
        """Rising queries build the halves at 64, 256, 1024, 4096, then at
        prec, dropping the old halves before each sweep, and nothing at
        construction, for binary blocks and for a ternary block alike
        (the ternary splits into <1> + binary once reduced, so each build
        of the ternary + <7> form is one walk of the binary and the unary
        terms of <1> and <7>)."""
        prec = 20000
        walk, unary = theta._tails, theta._unary_terms
        builds = []

        def recording_walk(h, n):
            builds.append((n, getattr(query, "_a", None) is None))
            return walk(h, n)

        def recording_unary(a, n):
            builds.append((n, getattr(query, "_a", None) is None))
            return unary(a, n)

        for form, per_build in (
                (QuadForm.block_diag([[2, 1], [1, 3]], [[2, -1], [-1, 4]]), 2),
                (QuadForm.block_diag([[1, 1, 0], [1, 3, 1], [0, 1, 4]], 7), 3)):
            coeffs = theta_coeffs(form, prec)
            builds.clear()
            with mock.patch.multiple(theta, _tails=recording_walk,
                                     _unary_terms=recording_unary):
                query = RepQuery(form, prec)
                assert builds == []
                for m in range(0, prec + 1, 7):
                    assert query.count(m) == coeffs[m]
            assert builds == [(n, True) for n in (64, 256, 1024, 4096, prec)
                              for _ in range(per_build)], form.hessian

    def test_failing_ternary_form_stops_at_a_small_sweep(self):
        """<1> + a ternary block that fails at n = 3 (expected 56, actual
        50) reports so at bound 600 with no walk past 64, and its cache
        is never asked, since only the build at 360,000 would ask it."""
        form = QuadForm(((2, 0, 0, 0), (0, 2, 1, 0), (0, 1, 2, 1),
                         (0, 0, 1, 8)))
        walk, walked, asked = theta._tails, [], []

        def recording_walk(h, n):
            walked.append(n)
            return walk(h, n)

        def cache(block, n):
            asked.append(block)
            return theta_coeffs(block, n)

        with mock.patch.object(theta, "_tails", recording_walk):
            report = is_strongly_s_regular(form, 600, cache=cache)
        assert (report.ms_value, report.counterexample) == (1, (3, 56, 50))
        assert walked and max(walked) <= 64
        assert asked == []

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

    def test_short_cache_result_raises(self):
        """A provider that returns r(0..n / 2) was trusted before, and
        <1,2,3,10>, which passes, failed at n = 17 (expected 614, actual
        464); now the build at prec names the block and raises."""
        with pytest.raises(ValueError, match=r"r\(0\.\.400\) for block 1$"):
            is_strongly_s_regular(QuadForm.diagonal((1, 2, 3, 10)), 20,
                                  cache=lambda b, p: theta_coeffs(b, p // 2))

    @pytest.mark.parametrize("provide", [
        lambda b, p: np.ones(p + 1),
        lambda b, p: np.ones((1, p + 1), dtype=np.int64),
        lambda b, p: [1.5] * (p + 1),
        lambda b, p: np.ones(p + 1, dtype=bool),
    ], ids=["float", "2-D", "float list", "bool"])
    def test_non_integer_cache_result_raises(self, provide):
        with pytest.raises(ValueError, match="for block 1$"):
            RepQuery(QuadForm.diagonal((1, 2, 3, 10)), 400,
                     cache=provide).count(400)

    def test_longer_cache_results_are_cut(self):
        """A provider that returns r(0..2 n) gives the same reports as no
        cache, for the Table 1 forms and the genus pairs' forms."""
        def longer(block, prec):
            return theta_coeffs(block, 2 * prec)

        forms = [QuadForm.diagonal(e.diagonal) for e in CLASSIFICATION_TABLE]
        forms += [getattr(pair, side) for pair in GENUS_PAIRS.values()
                  for side in ("primary", "mate")]
        for form in forms:
            assert is_strongly_s_regular(form, 20, cache=longer).to_dict() \
                == is_strongly_s_regular(form, 20).to_dict(), form.hessian

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

    def test_query_guard_edge_at_a_partial_build(self):
        """A partial build guards with both halves' maxima, read from the
        memo: at exactly max(a) max(b) (n + 1) the build at 64 is refused,
        one above it answers, on a cold and on a warm memo."""
        form = QuadForm.diagonal((1, 2, 3, 10))
        a_max, b_max = (
            int(theta._product([theta._theta_sweep(blk, 64) for blk in half],
                               64).max())
            for half in RepQuery(form, 2500)._halves)
        edge = a_max * b_max * 65
        assert a_max > 1 and b_max > 1
        for _ in range(2):
            with mock.patch.object(theta, "_QUERY_GUARD", edge):
                with pytest.raises(OverflowError):
                    RepQuery(form, 2500).count(10)
            with mock.patch.object(theta, "_QUERY_GUARD", edge + 1):
                query = RepQuery(form, 2500)
                assert query.count(10) == theta_coeffs(form, 10)[10]
                assert query._built == 64

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
            r1 = theta._dense(arrays[0], n)[1]
            built.append(np.full(n + 1, a_max if r1 else b_max,
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
        # each half takes its own dtype from its own maximum
        assert {int(h.max()): h.dtype for h in (query._a, query._b)} == \
            {a_max: np.float32, b_max: np.float64}
        a, b = (arr.tolist() for arr in built)
        assert got[prec] == theta._QUERY_GUARD - 1
        for m, val in got.items():
            assert val == sum(a[i] * b[m - i] for i in range(m + 1))

    def test_bounds(self):
        """m < 0 and m > prec raise before any build, after a partial and
        after the full build, and leave the built halves answering."""
        query = RepQuery(QuadForm.diagonal((1, 2)), 10)
        with pytest.raises(ValueError):
            query.count(11)
        with pytest.raises(ValueError):
            query.count(-1)
        form = QuadForm.diagonal((1, 2))
        prec = 5000
        coeffs = theta_coeffs(form, prec)
        query = RepQuery(form, prec)
        for m, built in ((10, 64), (prec, prec)):
            assert query.count(m) == coeffs[m]
            assert query._built == built
            for bad in (-1, prec + 1):
                with pytest.raises(ValueError):
                    query.count(bad)
            assert query._built == built
            assert query.count(37) == coeffs[37]
            assert query.count(built) == coeffs[built]

    @pytest.mark.parametrize("form, halves", [
        (QuadForm.diagonal((1, 2, 3, 10)),
         ((((2,),), ((20,),)), (((4,),), ((6,),)))),
        (QuadForm.diagonal((1, 1, 1, 1)),
         ((((2,),), ((2,),)), (((2,),), ((2,),)))),
        (QuadForm.block_diag(3, [[6, 3], [3, 9]], 9),
         ((((6,),), ((18,),)), (((12, 6), (6, 18)),))),
        (GENUS_PAIRS["1,1,3,5"].mate,
         ((((2,),), ((2,),)), (((4, 2), (2, 16)),))),
        (GENUS_PAIRS["1,2,3,10"].mate,
         ((((2,),),), (((6, -2, 2), (-2, 10, 2), (2, 2, 10)),))),
        (QuadForm.diagonal((1, 2, 5)),
         ((((4,),), ((10,),)), (((2,),),))),
    ], ids=["1,2,3,10", "1,1,1,1", "3+2+9", "1,1,3,5 mate",
            "1,2,3,10 mate", "1,2,5"])
    def test_halves_are_pinned(self, form, halves):
        """The split of the blocks into halves, which decides which
        partial halves the search shares through _half: blocks by rank,
        largest first, each joining the half of lower rank (the first on
        a tie)."""
        seen = []
        real = theta._half

        def recording(blocks, n):
            seen.append((blocks, n))
            return real(blocks, n)

        with mock.patch.object(theta, "_half", recording):
            query = RepQuery(form, 2500)
            assert query.count(10) == theta_coeffs(form, 10)[10]
        got = tuple(tuple(blk.hessian for blk in half)
                    for half in query._halves)
        assert got == halves
        if query._built < query.prec:
            assert seen == [(query._halves[0], 64), (query._halves[1], 64)]


def _int64_dot(query: RepQuery, top: int):
    """r(m) for m <= top as the int64 dot of int64 halves that _product
    makes afresh for query, not of the query's own float halves."""
    a_int, b_int = (theta._product([theta._theta_sweep(blk, top)
                                    for blk in half], top)
                    for half in query._halves)
    assert a_int.dtype == b_int.dtype == np.int64
    return lambda m: int(np.dot(a_int[:m + 1], b_int[m::-1]))


def _dot_dtypes(spy) -> list:
    """The dtype of the first argument of every call an np.dot spy saw."""
    return [call.args[0].dtype for call in spy.call_args_list]


class TestFloatDotQueries:
    """Every dot query that is_strongly_s_regular asks equals the int64
    dot of int64 halves that _product makes afresh, not RepQuery's
    float32 ones: the Table 1 forms at bound 600 and the genus pairs'
    forms at bound 200 (their ternary blocks make 600 slow)."""

    @staticmethod
    def _asked(form: QuadForm, bound: int, passes: bool):
        asked = []
        real = RepQuery.count

        def recording(query, m):
            asked.append((query, m, real(query, m)))
            return asked[-1][2]

        with mock.patch.object(RepQuery, "count", recording):
            assert is_strongly_s_regular(form, bound).passed == passes
        (query,) = {q for q, _, _ in asked}
        assert query._b.dtype == np.float32 and len(query._b) > 1
        return query, [(m, val) for _, m, val in asked]

    def _check(self, form: QuadForm, bound: int, passes: bool):
        query, asked = self._asked(form, bound, passes)
        expect = _int64_dot(query, max(m for m, _ in asked))
        for m, val in asked:
            assert val == expect(m), m

    @pytest.mark.parametrize("entry", CLASSIFICATION_TABLE,
                             ids=lambda e: ",".join(map(str, e.diagonal)))
    def test_classification_table_at_600(self, entry):
        self._check(QuadForm.diagonal(entry.diagonal), 600,
                    entry.expected_pass)

    @pytest.mark.parametrize("name", GENUS_PAIRS)
    @pytest.mark.parametrize("side", ["primary", "mate"])
    def test_genus_pair_forms(self, name, side):
        self._check(getattr(GENUS_PAIRS[name], side), 200, True)

    def test_recompute_past_2_24(self):
        """r_4(3,243,240) = 24 sigma(3^4 5 7 11 13) = 23,417,856 (Jacobi)
        is past 2^24, so the float32 dot is recomputed in float64."""
        m = 3_243_240
        query = RepQuery(QuadForm.diagonal((1, 1, 1, 1)), m)
        with mock.patch.object(np, "dot", wraps=np.dot) as spy:
            assert query.count(m) == 23_417_856
        assert query._a.dtype == query._b.dtype == np.float32
        assert _dot_dtypes(spy) == [np.float32, np.float64]

    def test_recompute_mends_a_rounded_dot(self):
        """Flat odd halves 4097 and 4099 are float32, and their dot at
        prec rounds in float32; the recompute returns the exact sum."""
        prec = 6360

        def flat_half(arrays, n):
            # the half of <1> has r(1) = 2, the half of <2> r(1) = 0
            r1 = theta._dense(arrays[0], n)[1]
            return np.full(n + 1, 4097 if r1 else 4099, dtype=np.int64)

        with mock.patch.object(theta, "_product", flat_half):
            query = RepQuery(QuadForm.diagonal((1, 2)), prec)
            assert query.count(prec) == 4097 * 4099 * (prec + 1)
        assert query._a.dtype == query._b.dtype == np.float32
        assert int(np.dot(query._a, query._b)) != 4097 * 4099 * (prec + 1)

    @pytest.mark.parametrize("entry", CLASSIFICATION_TABLE,
                             ids=lambda e: ",".join(map(str, e.diagonal)))
    def test_every_dot_recomputed(self, entry):
        """With the certificate's threshold at 0, every query of the
        halves a check at bound 200 left behind (partial for a failing
        form, at prec for a passing one) takes the float64 recompute and
        still equals the int64 dot."""
        query, asked = self._asked(QuadForm.diagonal(entry.diagonal), 200,
                                   entry.expected_pass)
        expect = _int64_dot(query, max(m for m, _ in asked))
        expected = [(m, val, expect(m)) for m, val in asked]
        with mock.patch.object(theta, "_F32_EXACT", 0), \
                mock.patch.object(np, "dot", wraps=np.dot) as spy:
            for m, val, ref in expected:
                assert query.count(m) == val == ref, m
        assert _dot_dtypes(spy) == [np.float32, np.float64] * len(asked)


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
            theta._half(query._halves[0], 64)[0][1] += 1
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

    def test_float32_answers_on_random_forms(self):
        """Sums of two binary forms, odd cross terms included: at each
        partial build and at the build at prec, the halves are float32
        and every answer equals the int64 dot of _product halves."""
        prec = 5000
        forms = _memo_test_forms(random.Random(2202), 24)[::2]
        for form in forms:
            query = RepQuery(form, prec)
            expect = _int64_dot(query, prec)
            for built in (64, 256, 1024, 4096, prec):
                query.count(built)
                assert query._built == built
                assert query._a.dtype == query._b.dtype == np.float32
                for m in range(built + 1):
                    assert query.count(m) == expect(m), (form, m)


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


def _unary_array(a, prec):
    """The theta of <a> through prec as an array, from its terms."""
    return theta._dense(theta._unary_terms(a, prec), prec)


def _unary_reference(a, prec, char=1, weight=0) -> list[int]:
    """The twisted unary theta through q^prec from its definition:
    kronecker(char, s) s^weight at a s^2, summed over s in Z."""
    out = [0] * (prec + 1)
    for s in range(-isqrt(prec), isqrt(prec) + 1):
        if a * s * s <= prec:
            out[a * s * s] += kronecker(char, s) * s ** weight
    return out


_unary_specs = st.tuples(st.integers(1, 50),
                         st.sampled_from((1, 4, -4, 12, -3, 5, 8, -1)),
                         st.integers(0, 1))
_SWEPT_BINARIES = (((2, 1), (1, 2)), ((2, 0), (0, 6)), ((4, -3), (-3, 10)))


class TestConvolveTrunc:
    @settings(max_examples=150, deadline=None)
    @given(_coefficient_arrays, _coefficient_arrays, st.integers(0, 200),
           st.booleans())
    def test_both_paths_match_object_reference(self, a, b, prec, sparse):
        """Factors padded with zeros or cut to prec + 1 entries, as every
        factor is, multiply to mul_trunc of the lists as drawn."""
        expected = mul_trunc(a, b, prec)
        a, b = (np.array((c + [0] * prec)[:prec + 1], dtype=np.int64)
                for c in (a, b))
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
        a, b = _unary_array(x, prec), _unary_array(y, prec)
        with _spy_sparse() as spy:
            got = _convolve_trunc(a, b, prec)
        assert spy.called
        with _never_sparse():
            assert np.array_equal(got, _convolve_trunc(a, b, prec))

    def test_small_and_dense_products_stay_on_the_loop(self):
        small = _unary_array(1, 2500)
        dense = _convolve_trunc(_unary_array(1, 40000),
                                _unary_array(1, 40000), 40000)
        with _spy_sparse() as spy:
            _convolve_trunc(small, small, 2500)
            _convolve_trunc(dense, _unary_array(3, 40000), 40000)
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

    @settings(max_examples=150, deadline=None)
    @given(st.lists(_unary_specs, min_size=1, max_size=3),
           st.lists(st.sampled_from(_SWEPT_BINARIES), max_size=2),
           st.integers(0, 300), st.booleans())
    def test_term_factors_match_object_reference(self, unary, binaries,
                                                 prec, sparse):
        """_product of unary terms, alone or with dense sweeps of binary
        forms, equals the exact product of the factors' definitions."""
        factors = [theta._unary_terms(a, prec, char, weight)
                   for a, char, weight in unary]
        factors += [theta._theta_sweep(QuadForm(h), prec) for h in binaries]
        expected = [1]
        for a, char, weight in unary:
            expected = mul_trunc(expected,
                                 _unary_reference(a, prec, char, weight), prec)
        for h in binaries:
            expected = mul_trunc(expected, tails_theta(QuadForm(h), prec),
                                 prec)
        with (_always_sparse() if sparse else _never_sparse()), \
                _spy_sparse() as spy:
            got = theta._product(factors, prec)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert spy.called == (sparse and len(factors) > 1)

    @pytest.mark.parametrize("v, fits", [(1 << 60, False),
                                         ((1 << 60) - 1, True)])
    def test_guard_on_term_factors(self, v, fits):
        """The guard reads every term's value: max |a| sum |b| is
        2 (1 + 2 v), past 2^62 at v = 2^60, whether <1> comes as terms or
        as an array; one below, both paths multiply exactly."""
        big = theta._Terms(np.array([0, 1, 3]), np.array([1, v, -v]))
        expected = mul_trunc([1, v, 0, -v, 0, 0], [1, 2, 0, 0, 2, 0], 5)
        for unary in (theta._unary_terms(1, 5), _unary_array(1, 5)):
            for paths in (_always_sparse, _never_sparse):
                with paths(), _spy_sparse() as spy:
                    if fits:
                        got = theta._product([big, unary], 5)
                        assert got.tolist() == expected
                        continue
                    with pytest.raises(OverflowError, match="exceed int64"):
                        theta._product([big, unary], 5)
                assert not spy.called

    def test_table1_halves_need_no_dense_unary(self):
        """RepQuery of <1,2,3,10> to 360,000 (the Table 1 check at bound
        600) builds its partial halves and its halves at prec from unary
        terms alone: no walk happens, every factor of the builds at 64,
        256 and prec (six products) reaches _product as terms with no
        array, and every count equals the int64 dot of _product halves
        of dense sweeps."""
        form = QuadForm.diagonal((1, 2, 3, 10))
        prec = 360000
        rng = random.Random(3600)
        asked = [10, 100, 5000, prec, 0, *rng.sample(range(prec + 1), 30)]
        factors = []
        real = theta._product

        def recording(fs, n):
            factors.extend(fs)
            return real(fs, n)

        with mock.patch.object(theta, "_tails",
                               side_effect=AssertionError("walk")), \
                mock.patch.object(theta, "_product", recording):
            query = RepQuery(form, prec)
            got = [query.count(m) for m in asked]
        assert query._built == prec
        assert len(factors) == 12
        assert all(isinstance(f, theta._Terms) and f.dense is None
                   for f in factors)
        expect = _int64_dot(query, prec)
        assert got == [expect(m) for m in asked]


def _holds_r_through(factor, prec: int) -> bool:
    """Whether a _product factor holds r(0..prec): an array of length
    prec + 1, or terms at positions <= prec with no array or one of that
    length."""
    if isinstance(factor, theta._Terms):
        return (int(factor.idx.max(initial=0)) <= prec
                and (factor.dense is None or len(factor.dense) == prec + 1))
    return len(factor) == prec + 1


def _cache_queries(cache_dir):
    """Queries at prec of a diagonal form and a 3 + 1 form with a
    make_cache provider: the first pass writes every entry, the second
    reads them."""
    cache = make_cache(cache_dir)
    for _ in range(2):
        for form in (QuadForm.diagonal((1, 2, 3, 10)),
                     GENUS_PAIRS["1,2,3,10"].mate):
            RepQuery(form, 400, cache=cache).count(400)
    assert len(list(cache_dir.iterdir())) == 5


def _nonsplit_queries(_):
    """theta_coeffs and a query at prec of a one-block conjugate of each
    base form of the benchmark's nonsplit workload."""
    for name in ("1,2,3,10", "1,2,3,10/mate", "1,1,3,5"):
        form = one_block_conjugate(random.Random(name),
                                   all_bundled_forms()[name])
        theta_coeffs(form, 400)
        RepQuery(form, 400).count(400)


class TestFactorContract:
    """Every factor that reaches _convolve_trunc holds r(0..prec), so the
    shift-add needs no trims, and _theta_sweep never gets a unary form,
    whose theta comes as terms: checked on the traffic of the verify
    suites, the search, cached queries and one-block conjugates."""

    @pytest.mark.parametrize("run", [
        lambda _: run_table1(60),
        lambda _: search_diagonal(SearchConfig(15, 20)),
        lambda _: run_props(40),
        lambda _: run_lemma54(60),
        _cache_queries,
        _nonsplit_queries,
    ], ids=["table1", "search", "props", "lemma54", "cache", "nonsplit"])
    def test_every_factor_holds_r_through_prec(self, run, tmp_path):
        products, ranks = [], set()
        convolve, sweep = theta._convolve_trunc, theta._theta_sweep

        def checked_convolve(a, b, prec):
            assert _holds_r_through(a, prec) and _holds_r_through(b, prec)
            products.append(prec)
            return convolve(a, b, prec)

        def checked_sweep(form, prec):
            ranks.add(form.rank)
            return sweep(form, prec)

        with mock.patch.multiple(theta, _convolve_trunc=checked_convolve,
                                 _theta_sweep=checked_sweep):
            run(tmp_path)
        assert products
        assert 1 not in ranks


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
        expected = _unary_reference(a, prec, char, weight)
        terms = theta._unary_terms(a, prec, char, weight)
        got = theta._dense(terms, prec)
        assert got.dtype == np.int64
        assert got.tolist() == expected
        assert terms.idx.tolist() == [i for i, v in enumerate(expected) if v]
        assert terms.vals.tolist() == [v for v in expected if v]


def _hurwitz_r3_squares(n: int) -> int:
    """r(n^2) of <1,1,1> by Hurwitz's formula: 6 times the product over
    p^a || n, p odd, of sigma(p^a) - (-1/p) sigma(p^(a-1))."""
    count = 6
    for p, a in factorize(n):
        if p > 2:
            count *= ((p ** (a + 1) - 1) // (p - 1)
                      - (-1) ** (p // 2) * (p ** a - 1) // (p - 1))
    return count


def test_ternary_squares_match_hurwitz():
    """r(n^2) for n <= 300 of <1,1,1>, from theta_coeffs and RepQuery, and
    of a one-block conjugate whose reduced basis splits into three unary
    blocks, so that _theta takes its reduced-basis path."""
    expected = [_hurwitz_r3_squares(n) for n in range(1, 301)]
    diagonal = QuadForm.diagonal((1, 1, 1))
    conjugate = one_block_conjugate(random.Random(3), diagonal)
    assert len(theta._reduced_blocks(conjugate)) == 3
    for form in (diagonal, conjugate):
        coeffs = theta_coeffs(form, 90000)
        count = RepQuery(form, 90000).count
        assert [coeffs[n * n] for n in range(1, 301)] == expected
        assert [count(n * n) for n in range(1, 301)] == expected
