import hashlib
import importlib.util
import random
from pathlib import Path
from unittest import mock

import pytest

from qflab import reduction, theta
from qflab._matrix import conjugate, extends_to_basis
from qflab.forms import QuadForm
from qflab.lattices import CLASSIFICATION_TABLE, all_bundled_forms
from qflab.reduction import (_closest, canonical_form, is_isometric,
                             minkowski_reduce)
from qflab.theta import theta_coeffs

from reference import (decide_isometric, fraction_short_vectors,
                       pool_minkowski_reduce, spans_primitive)
from test_theta import A4, conjugated, random_definite, random_unimodular

ROOT = Path(__file__).resolve().parents[1]
PINNED_CANON = ("daed4509ee865d6eb69e71a4e212e0b1"
                "1a3fea29a112a22a2633d801b8632637")
D4 = QuadForm(((2, -1, 0, 0), (-1, 2, -1, -1), (0, -1, 2, 0), (0, -1, 0, 2)))


def bench_workloads():
    """perfbench/workloads.py, for the seeded unit upper-triangular
    conjugates that the benchmark's workloads reduce."""
    spec = importlib.util.spec_from_file_location(
        "_bench_workloads", ROOT / "perfbench" / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def differential_forms() -> list[QuadForm]:
    """Random unimodular conjugates of ranks 2-4, the bundled forms with
    two seeded unit upper-triangular conjugates of each, A4, D4 and
    <1,1,1,1>."""
    unitriangular_conjugate = bench_workloads().unitriangular_conjugate
    rng = random.Random(2300)
    forms = [A4, D4, QuadForm.diagonal((1, 1, 1, 1))]
    for k in (2, 3, 4):
        for _ in range(10):
            diag = QuadForm.diagonal([rng.randint(1, 9) for _ in range(k)])
            forms.append(conjugated(diag, random_unimodular(rng, k)))
            forms.append(random_definite(rng, k))
    for name, base in sorted(all_bundled_forms().items()):
        forms.append(base)
        for seed in range(2):
            forms.append(unitriangular_conjugate(
                base, random.Random(f"{name}/{seed}"), 2))
    return forms


def assert_reduced(form: QuadForm, red: QuadForm, u) -> None:
    """U^T H U is the returned form, U is unimodular, and the reduction
    inequalities hold: sorted diagonal, |H_ij| <= H_ii / 2 for i < j."""
    h = red.hessian
    k = red.rank
    assert tuple(tuple(r) for r in conjugate(form.hessian, u)) == h
    assert red.discriminant == form.discriminant
    diag = [h[i][i] for i in range(k)]
    assert diag == sorted(diag)
    for i in range(k):
        for j in range(i + 1, k):
            assert 2 * abs(h[i][j]) <= h[i][i], h


class TestExtendsToBasis:
    def test_examples(self):
        assert extends_to_basis([], 3)
        assert extends_to_basis([[1, 2, 3]], 3)
        assert not extends_to_basis([[2, 4, 6]], 3)
        assert extends_to_basis([[1, 0, 0], [0, 1, 0]], 3)
        assert not extends_to_basis([[1, 1, 0], [1, -1, 0]], 3)
        assert not extends_to_basis([[1, 0], [0, 1], [1, 1]], 2)

    def test_matches_gcd_of_maximal_minors(self):
        rng = random.Random(16)
        for _ in range(3000):
            dim = rng.randint(1, 4)
            vectors = [[rng.randint(-3, 3) for _ in range(dim)]
                       for _ in range(rng.randint(1, dim + 1))]
            if rng.random() < 0.3:
                # a dependent set: one vector an integer combination of others
                a, b = rng.randint(-2, 2), rng.randint(-2, 2)
                u, v = rng.choice(vectors), rng.choice(vectors)
                vectors.append([a * x + b * y for x, y in zip(u, v)])
                rng.shuffle(vectors)
            assert extends_to_basis(vectors, dim) == spans_primitive(vectors, dim), vectors


class TestClosestVector:
    @pytest.mark.parametrize("seed", range(4))
    def test_against_the_walker(self, seed):
        """For the basis b_0, .., b_n of a form, b_n minus its closest
        vector in the span of the others is a shortest lattice vector
        whose last coordinate is +-1; the Fraction reference walker lists
        them all.  On these unreduced bases the first leaf (Babai's
        nearest plane) is often not the closest."""
        rng = random.Random(2400 + seed)
        for k in (2, 3, 4):
            for _ in range(8):
                form = random_definite(rng, k)
                x = _closest(form.hessian)
                q = form.evaluate((*(-c for c in x), 1))
                pool = fraction_short_vectors(form, q)
                assert q == min(value for value, vecs in pool.items()
                                if any(abs(v[-1]) == 1 for v in vecs)), \
                    form.hessian


class TestMinkowskiReduce:
    def test_examples(self):
        red, u = minkowski_reduce(QuadForm(((2, 2), (2, 4))))
        assert red.hessian == ((2, 0), (0, 2))
        red, _ = minkowski_reduce(QuadForm(((2, 2), (2, 6))))
        assert red.hessian == ((2, 0), (0, 4))
        red, _ = minkowski_reduce(QuadForm.diagonal((1, 2)))
        assert red.hessian == ((2, 0), (0, 4))

    def test_transform_matches(self):
        form = QuadForm(((4, 2, 0), (2, 6, 1), (0, 1, 8)))
        red, u = minkowski_reduce(form)
        assert tuple(tuple(r) for r in conjugate(form.hessian, u)) == red.hessian

    def test_reduction_inequalities(self):
        rng = random.Random(5)
        seeds = [QuadForm.diagonal((1, 2, 3)), QuadForm.diagonal((2, 3, 5, 7)),
                 QuadForm.diagonal((1, 1, 3, 5))]
        for _ in range(30):
            seed = rng.choice(seeds)
            form = conjugated(seed, random_unimodular(rng, seed.rank))
            red, u = minkowski_reduce(form)
            assert_reduced(form, red, u)

    @pytest.mark.parametrize("e", [20, 28])
    def test_skewed_split_form_needs_no_walk(self, e):
        """The conjugate of <1, 2^e, 2^e, 1> by the all-ones upper
        triangle reduces with no lattice walk (enumerating up to its
        largest diagonal entry, about 2^(e+1), took 71 s at e = 20), to
        the diagonal form, whose theta it then has."""
        skew = [[int(r <= c) for c in range(4)] for r in range(4)]
        form = conjugated(QuadForm.diagonal((1, 2**e, 2**e, 1)), skew)
        with mock.patch.object(theta, "_tails",
                               side_effect=AssertionError("lattice walk")):
            red, u = minkowski_reduce(form)
        assert red.diag_q == (1, 1, 2**e, 2**e)
        assert_reduced(form, red, u)
        assert theta_coeffs(form, 10) == \
            theta_coeffs(QuadForm.diagonal((1, 1, 2**e, 2**e)), 10)


class TestCanonicalFormWork:
    def test_skewed_split_form_reads_only_its_minima(self):
        """The conjugate of <1, 2^20, 2^20, 1> by the all-ones upper
        triangle: the basis search walks its reduced form once per
        distinct successive minimum, 1 and 2^20, and gets the 12 vectors
        of those two norms, where a listing of every vector up to 2^20
        would hold about 1.6 million."""
        e = 20
        skew = [[int(r <= c) for c in range(4)] for r in range(4)]
        form = conjugated(QuadForm.diagonal((1, 2**e, 2**e, 1)), skew)
        bounds, vectors = [], []
        walk, read = theta._tails, reduction._vectors_of_norm

        def recording_walk(f, bound):
            bounds.append(bound)
            return walk(f, bound)

        def recording_read(f, n):
            for batch in read(f, n):
                vectors.extend(map(tuple, batch.tolist()))
                yield batch

        with mock.patch.object(theta, "_tails", recording_walk), \
                mock.patch.object(reduction, "_vectors_of_norm",
                                  recording_read):
            canon = canonical_form(form)
        assert canon == QuadForm.diagonal((1, 1, 2**e, 2**e))
        assert sorted(bounds) == [1, 2**e]
        assert len(vectors) == 12

    def test_table1_search_work(self):
        """The basis search's work, not its time: canonical_form of the 36
        Table 1 forms tests 8,406 prefixes for primitivity, one per node it
        explores.  Pruning the search lowers this on purpose; a change that
        only restructures it keeps it."""
        dims = []

        def counting(vectors, dim):
            dims.append(dim)
            return extends_to_basis(vectors, dim)

        with mock.patch.object(reduction, "extends_to_basis", counting):
            for entry in CLASSIFICATION_TABLE:
                canonical_form(entry.form)
        assert len(CLASSIFICATION_TABLE) == 36
        assert len(dims) == 8406


class TestAgainstReference:
    """The greedy reduction and the one basis search against the
    enumeration-based reduction and the decision search they replaced
    (tests/reference.py)."""

    FORMS = differential_forms()

    def test_successive_minima_without_a_walk(self):
        for form in self.FORMS:
            with mock.patch.object(theta, "_tails",
                                   side_effect=AssertionError("lattice walk")):
                red, u = minkowski_reduce(form)
            assert red.diag_q == pool_minkowski_reduce(form)[0].diag_q, \
                form.hessian
            assert_reduced(form, red, u)

    def test_canonical_forms_are_pinned(self):
        """canonical_form is byte-identical to the enumeration-based
        reduction's on every form (the digest was taken with it), so
        form_hash and cached theta entries keep their names."""
        canon = repr([canonical_form(form).hessian for form in self.FORMS])
        assert hashlib.sha256(canon.encode()).hexdigest() == PINNED_CANON

    def test_is_isometric_agrees_with_decision_search(self):
        pairs = 0
        for i, a in enumerate(self.FORMS):
            for b in self.FORMS[i + 1:]:
                if a.rank == b.rank and a.discriminant == b.discriminant:
                    pairs += 1
                    assert is_isometric(a, b) == decide_isometric(a, b), \
                        (a.hessian, b.hessian)
        assert pairs > 100


class TestIsIsometric:
    def test_examples(self):
        assert is_isometric(QuadForm.diagonal((1, 2)),
                            QuadForm(((2, 2), (2, 6))))
        assert not is_isometric(QuadForm.diagonal((1, 1)),
                                QuadForm.diagonal((1, 2)))
        assert is_isometric(QuadForm.diagonal((1, 2, 3, 10)),
                            QuadForm.diagonal((3, 10, 1, 2)))

    def test_conjugates_are_isometric(self):
        rng = random.Random(9)
        for diag in [(1, 1, 2), (1, 2, 3, 10), (2, 3)]:
            form = QuadForm.diagonal(diag)
            other = conjugated(form, random_unimodular(rng, form.rank))
            assert is_isometric(form, other)

    def test_same_discriminant_not_isometric(self):
        # <1,4> and <2,2> share discriminant 16 but not minima
        assert not is_isometric(QuadForm.diagonal((1, 4)),
                                QuadForm.diagonal((2, 2)))
        # <1,1,16> vs <1,2,8> share discriminant but differ
        assert not is_isometric(QuadForm.diagonal((1, 1, 16)),
                                QuadForm.diagonal((1, 2, 8)))

    def test_rank_mismatch(self):
        assert not is_isometric(QuadForm.diagonal((1, 2)),
                                QuadForm.diagonal((1, 2, 3)))


class TestCanonicalForm:
    def test_stable_across_conjugation(self):
        rng = random.Random(21)
        for diag in [(1, 1, 1, 1), (1, 2, 3, 10), (1, 1, 3)]:
            form = QuadForm.diagonal(diag)
            canon = canonical_form(form)
            for _ in range(5):
                other = conjugated(form, random_unimodular(rng, form.rank))
                assert canonical_form(other) == canon

    def test_distinguishes_classes(self):
        assert canonical_form(QuadForm.diagonal((1, 4))) != \
            canonical_form(QuadForm.diagonal((2, 2)))

    def test_agrees_with_isometry_on_random_pool(self):
        rng = random.Random(4242)

        def random_posdef(k):
            diag = QuadForm.diagonal([rng.randrange(1, 7) for _ in range(k)])
            u = random_unimodular(rng, k)
            return conjugated(diag, u)

        pool = [random_posdef(rng.choice((2, 3, 4))) for _ in range(40)]
        for i, a in enumerate(pool):
            for b in pool[i + 1:]:
                if a.rank != b.rank or a.discriminant != b.discriminant:
                    continue
                same = canonical_form(a) == canonical_form(b)
                assert decide_isometric(a, b) == same
                assert is_isometric(a, b) == same

    def test_handles_badly_sheared_input(self):
        rng = random.Random(7)
        form = QuadForm.diagonal((2, 3, 5, 11))
        sheared = form
        for _ in range(5):
            sheared = conjugated(sheared, random_unimodular(rng, 4))
        assert max(abs(x) for row in sheared.hessian for x in row) > 10**4
        red, u = minkowski_reduce(sheared)
        assert red.diag_q == minkowski_reduce(form)[0].diag_q
        assert is_isometric(sheared, form)
