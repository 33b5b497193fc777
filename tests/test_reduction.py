import random

from qflab._matrix import conjugate, extends_to_basis
from qflab.forms import QuadForm
from qflab.reduction import canonical_form, is_isometric, minkowski_reduce

from reference import spans_primitive
from test_theta import conjugated, random_unimodular


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
            h = red.hessian
            k = red.rank
            assert tuple(tuple(r) for r in conjugate(form.hessian, u)) == h
            diag = [h[i][i] for i in range(k)]
            assert diag == sorted(diag)
            for i in range(k):
                for j in range(i + 1, k):
                    assert 2 * abs(h[i][j]) <= h[i][i]


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
                assert is_isometric(a, b) == \
                    (canonical_form(a) == canonical_form(b))

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
