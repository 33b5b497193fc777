import json
import random
from itertools import permutations

import pytest

from qflab.forms import QuadForm, congruence_sublattice, parse_form
from qflab.lattices import CLASSIFICATION_TABLE, all_bundled_forms
from qflab.reduction import is_isometric
from reference import bareiss_rows, orthogonal_components


class TestQuadForm:
    def test_evaluate_examples(self):
        f = QuadForm.diagonal((1, 2, 3, 10))
        assert f.evaluate((1, 1, 0, 0)) == 3
        assert f.evaluate((0, 0, 0, 0)) == 0
        assert QuadForm.diagonal((1, 1, 3, 5)).evaluate((1, 1, 1, 1)) == 10

    def test_evaluate_dimension_mismatch(self):
        with pytest.raises(ValueError):
            QuadForm.diagonal((1, 2)).evaluate((1, 2, 3))

    def test_discriminant_examples(self):
        assert QuadForm.diagonal((1, 2, 3, 10)).discriminant == 960
        assert QuadForm.diagonal((1, 1, 1, 1)).discriminant == 16
        assert QuadForm.diagonal((1, 2, 6, 16)).discriminant == 3072

    def test_validation(self):
        with pytest.raises(ValueError):
            QuadForm(((2, 1), (2, 2)))  # not symmetric
        with pytest.raises(ValueError):
            QuadForm(((1, 0), (0, 2)))  # odd diagonal
        with pytest.raises(ValueError):
            QuadForm(((2, 0), (0, -2)))  # not positive definite
        with pytest.raises(ValueError):
            QuadForm.diagonal((1,) * 5)  # rank too large

    def test_validation_and_discriminant_match_leading_minors(self):
        """Sylvester's criterion and det H from the Leibniz formula
        against the one elimination of the constructor."""
        def det(m):
            total = 0
            for perm in permutations(range(len(m))):
                inversions = sum(perm[i] > perm[j] for j in range(len(m))
                                 for i in range(j))
                term = (-1) ** inversions
                for i, j in enumerate(perm):
                    term *= m[i][j]
                total += term
            return total

        rng = random.Random(2019)
        for _ in range(3000):
            k = rng.randint(1, 4)
            h = [[0] * k for _ in range(k)]
            for i in range(k):
                h[i][i] = 2 * rng.randint(-1, 5)
                for j in range(i):
                    h[i][j] = h[j][i] = rng.randint(-4, 4)
            definite = all(det([row[:n] for row in h[:n]]) > 0
                           for n in range(1, k + 1))
            if definite:
                assert QuadForm(h).discriminant == det(h), h
            else:
                with pytest.raises(ValueError):
                    QuadForm(h)

    @pytest.mark.parametrize("hessian", [
        ((2.9, 0), (0, 2)),  # would truncate to 2
        ((2.0, 0), (0, 2)),
        ((2, "0"), (0, 2)),
        (1, 2),  # rows are not sequences
        5,
    ])
    def test_entries_must_be_integers(self, hessian):
        with pytest.raises(ValueError):
            QuadForm(hessian)

    def test_odd_cross_coefficients_allowed(self):
        # x^2 + xy + y^2 has H = [[2,1],[1,2]]
        f = QuadForm(((2, 1), (1, 2)))
        assert f.evaluate((1, -1)) == 1
        assert f.discriminant == 3

    def test_norm_ideal(self):
        assert QuadForm.diagonal((1, 2, 3, 10)).norm_ideal == 1
        f = QuadForm.diagonal((4, 8))
        assert f.norm_ideal == 4
        assert f.divided_by(4).diag_q == (1, 2)
        with pytest.raises(ValueError):
            f.divided_by(3)

    def test_orthogonal_blocks(self):
        f = QuadForm.block_diag(3, [[6, 3], [3, 9]], 9)
        assert f.orthogonal_blocks() == [
            QuadForm.from_gram([[3]]), QuadForm.from_gram([[6, 3], [3, 9]]),
            QuadForm.from_gram([[9]])]
        # a block structure hidden by interleaving
        g = QuadForm.from_gram([[3, 0, 5], [0, 10, 0], [5, 0, 25]])
        assert g.orthogonal_blocks() == [
            QuadForm.from_gram([[3, 5], [5, 25]]), QuadForm.from_gram([[10]])]

    def test_parse_roundtrip(self):
        f = parse_form("1,2,3,10")
        assert f == QuadForm.diagonal((1, 2, 3, 10))
        g = parse_form(f.to_json())
        assert g == f
        blob = json.dumps({"rank": 2, "hessian": [[2, 1], [1, 2]]})
        assert parse_form(blob).evaluate((1, 0)) == 1
        with pytest.raises(ValueError):
            parse_form("1,2,x")
        with pytest.raises(ValueError):
            parse_form(json.dumps({"rank": 3, "hessian": [[2, 0], [0, 2]]}))
        for rank in (2.0, True, "2"):
            with pytest.raises(ValueError, match="rank field"):
                parse_form(json.dumps({"rank": rank, "hessian": [[2, 1], [1, 2]]}))


def _bundled_diagonals():
    diagonals = {entry.diagonal for entry in CLASSIFICATION_TABLE}
    for form in all_bundled_forms().values():
        for blk in form.orthogonal_blocks():
            h = blk.hessian
            if all(h[i][j] == 0 for i in range(len(h)) for j in range(i)):
                diagonals.add(tuple(h[i][i] // 2 for i in range(len(h))))
    return sorted(diagonals)


class TestDiagonalClosedForm:
    """A hessian with no off-diagonal entries is eliminated in closed form
    (its pivots are running products) and split into unary blocks with no
    search.  Both must equal the generic elimination and the components
    of the hessian, however the form is given."""

    @staticmethod
    def _constructions(qs):
        k = len(qs)
        hessian = [[2 * qs[i] if i == j else 0 for j in range(k)]
                   for i in range(k)]
        gram = [[qs[i] if i == j else 0 for j in range(k)] for i in range(k)]
        return hessian, [
            QuadForm(tuple(map(tuple, hessian))),
            QuadForm(hessian),
            QuadForm.diagonal(qs),
            QuadForm.from_gram(gram),
            QuadForm.block_diag(*qs),
            parse_form(",".join(map(str, qs))),
            parse_form(json.dumps({"rank": k, "hessian": hessian})),
        ]

    @staticmethod
    def _assert_matches_reference(form, hessian):
        rows = bareiss_rows(hessian)
        assert form._rows == rows, hessian
        assert form.discriminant == rows[-1][-1]
        blocks = form.orthogonal_blocks()
        assert [blk.hessian for blk in blocks] == \
            orthogonal_components(hessian)
        for blk in blocks:
            assert blk._rows == bareiss_rows(blk.hessian)

    def test_random_diagonals_match_the_generic_elimination(self):
        rng = random.Random(2110)
        for _ in range(400):
            qs = tuple(rng.randint(1, 10**6)
                       for _ in range(rng.randint(1, 4)))
            hessian, forms = self._constructions(qs)
            for form in forms:
                assert form == forms[0]
                assert form.is_diagonal() and form.diag_q == qs
                self._assert_matches_reference(form, hessian)

    @pytest.mark.parametrize("qs", _bundled_diagonals())
    def test_bundled_diagonals_match_the_generic_elimination(self, qs):
        hessian, forms = self._constructions(qs)
        for form in forms:
            self._assert_matches_reference(form, hessian)

    def test_forms_with_cross_terms_keep_the_generic_elimination(self):
        """Hessians one cross entry away from diagonal, and random ones
        with zero entries, are not taken for diagonal."""
        rng = random.Random(2111)
        checked = 0
        while checked < 300:
            k = rng.randint(2, 4)
            h = [[0] * k for _ in range(k)]
            for i in range(k):
                h[i][i] = 2 * rng.randint(1, 9)
            pairs = [(i, j) for i in range(k) for j in range(i)]
            for i, j in rng.sample(pairs, rng.randint(1, len(pairs))):
                h[i][j] = h[j][i] = rng.choice((-2, -1, 1, 3))
            try:
                form = QuadForm(h)
            except ValueError:
                continue
            assert not form.is_diagonal()
            self._assert_matches_reference(form, h)
            checked += 1

    @pytest.mark.parametrize("qs", [(1, 0), (1, -3), (1, 2.5), (0,),
                                    (-1, 1, 1, 1), (2, 2, 2, 2, 2)])
    def test_invalid_diagonals_still_raise(self, qs):
        with pytest.raises(ValueError):
            QuadForm.diagonal(qs)
        k = len(qs)
        with pytest.raises(ValueError):
            QuadForm([[2 * qs[i] if i == j else 0 for j in range(k)]
                      for i in range(k)])

    def test_odd_diagonal_hessian_is_refused(self):
        with pytest.raises(ValueError, match="even"):
            QuadForm(((2, 0), (0, 3)))
        with pytest.raises(ValueError, match="even"):
            QuadForm(((-2, 0), (0, 3)))


class TestCongruenceSublattice:
    def test_parity_sublattice_of_1_2_6_16(self):
        base = QuadForm.diagonal((1, 2, 6, 16))
        sub = congruence_sublattice(base, [(1, 0, 0, 0), (0, 1, -1, 0)], 2)
        expected = QuadForm.block_diag(4, [[8, 4], [4, 8]], 16)
        assert sub.discriminant == expected.discriminant
        assert is_isometric(sub, expected)
        assert sub.discriminant == 4**2 * base.discriminant

    def test_empty_system_is_identity(self):
        base = QuadForm.diagonal((1, 1, 3, 5))
        assert congruence_sublattice(base, [], 2) == base
        assert congruence_sublattice(base, [(0, 0, 0, 0)], 2) == base
        # a relation that vanishes mod the modulus cuts nothing
        assert congruence_sublattice(base, [(2, 0, 4, 0)], 2) == base

    def test_mod3_sublattice_of_1_1_3_5(self):
        base = QuadForm.diagonal((1, 1, 3, 5))
        sub = congruence_sublattice(base, [(1, 0, 0, 0), (0, 1, 0, 0)], 3)
        assert is_isometric(sub, QuadForm.diagonal((3, 5, 9, 9)))
        assert sub.discriminant == 9**2 * base.discriminant

    def test_index_squares_discriminant(self):
        base = QuadForm.diagonal((1, 2, 3, 10))
        # r relations independent mod p cut out index p^r
        for modulus, rels, index in [
            (2, ((1, 1, 0, 0),), 2),
            (3, ((1, 0, 2, 0), (0, 1, 1, 1)), 9),
            (5, ((1, 2, 3, 4),), 5),
        ]:
            sub = congruence_sublattice(base, rels, modulus)
            assert sub.discriminant == index**2 * base.discriminant

    def test_modulus_validation(self):
        base = QuadForm.diagonal((1, 2))
        for modulus in (1, 0, -3):
            with pytest.raises(ValueError, match="modulus"):
                congruence_sublattice(base, [(1, 0)], modulus)
        with pytest.raises(ValueError, match="relation length"):
            congruence_sublattice(base, [(1, 0, 0)], 2)
