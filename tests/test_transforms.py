import pytest

from qflab.forms import QuadForm
from qflab.reduction import is_isometric
from qflab.theta import theta_coeffs
from qflab.transforms import (gamma_sublattices, jordan_symbol_odd,
                              lambda_composite, lambda_transform,
                              watson_sublattice)


class TestJordanSymbolOdd:
    def test_examples(self):
        sym = jordan_symbol_odd(QuadForm.diagonal((1, 3, 3, 9)), 3)
        assert sym.blocks == ((0, (1,)), (1, (1, 1)), (2, (1,)))
        assert sym.unimodular_part_anisotropic  # rank-1 unimodular part

        sym = jordan_symbol_odd(QuadForm.diagonal((1, 2)), 3)
        assert sym.blocks == ((0, (1, -1)),)
        assert not sym.unimodular_part_anisotropic  # -2 = 1 is a square

        sym = jordan_symbol_odd(QuadForm.diagonal((1, 1, 3)), 3)
        assert sym.unimodular_units == (1, 1)
        assert sym.unimodular_part_anisotropic  # -1 nonresidue mod 3

    def test_rank_sum(self):
        sym = jordan_symbol_odd(QuadForm.diagonal((2, 9, 9, 27)), 3)
        assert sum(len(units) for _, units in sym.blocks) == 4
        assert sym.unimodular_units == (-1,)

    def test_nondiagonal(self):
        form = QuadForm.from_gram([[3, -1, 1], [-1, 5, 1], [1, 1, 5]])
        sym = jordan_symbol_odd(form, 5)
        scales = dict(sym.blocks)
        assert sum(len(u) for u in scales.values()) == 3

    def test_rejects_two(self):
        for p in (2, -3, 0, 1, 4, 9, 15):
            with pytest.raises(ValueError, match="not an odd prime"):
                jordan_symbol_odd(QuadForm.diagonal((1, 2)), p)


class TestWatson:
    def test_scaled_examples(self):
        lam = lambda_transform(QuadForm.diagonal((1, 3, 3, 9)), 3)
        assert is_isometric(lam, QuadForm.diagonal((1, 1, 3, 3)))
        lam = lambda_transform(QuadForm.diagonal((1, 1, 1, 1)), 3)
        assert lam == QuadForm.diagonal((1, 1, 1, 1))

    def test_composite_identity(self):
        form = QuadForm.diagonal((1, 2, 3, 10))
        assert lambda_composite(form, 1) == form

    def test_composite_iterates(self):
        form = QuadForm.diagonal((1, 3, 3, 9))
        twice = lambda_transform(lambda_transform(form, 3), 3)
        assert is_isometric(lambda_composite(form, 9), twice)

    def test_commutation(self):
        for diag, p, q in [((1, 2, 6, 16), 2, 3), ((1, 3, 3, 9), 2, 3),
                           ((1, 1, 3, 5), 3, 5)]:
            form = QuadForm.diagonal(diag)
            ab = lambda_transform(lambda_transform(form, p), q)
            ba = lambda_transform(lambda_transform(form, q), p)
            assert is_isometric(ab, ba), (diag, p, q)

    def test_unscaled_identity_anisotropic(self):
        # r(pn, L) = r(pn, watson) when the unimodular part is anisotropic
        cases = [((1, 1, 3, 3), 3), ((1, 1, 3, 6), 3), ((1, 2, 5, 5), 5)]
        for diag, p in cases:
            form = QuadForm.diagonal(diag)
            assert jordan_symbol_odd(form, p).unimodular_part_anisotropic
            sub = watson_sublattice(form, p)
            bound = 500
            ta = theta_coeffs(form, p * bound)
            tb = theta_coeffs(sub, p * bound)
            assert all(ta[p * n] == tb[p * n] for n in range(bound + 1))

    @pytest.mark.parametrize("p", [4, 9, 15, 1, 0, -3])
    def test_rejects_non_prime(self, p):
        """lambda_transform(<1,3,3,9>, 4) returned the form itself and
        (.., 9) a reordering of it, neither of them lambda_composite's."""
        form = QuadForm.diagonal((1, 3, 3, 9))
        for transform in (watson_sublattice, lambda_transform):
            with pytest.raises(ValueError, match="not a prime"):
                transform(form, p)

    def test_watson_at_two(self):
        form = QuadForm.diagonal((1, 1, 1, 1))
        sub = watson_sublattice(form, 2)
        # norm of the sublattice lies in 2Z
        assert sub.norm_ideal % 2 == 0
        assert all(q % 2 == 0 for q in sub.diag_q)
        scaled = lambda_transform(form, 2)
        assert scaled.norm_ideal == 1


class TestGamma:
    def test_build_and_identity(self):
        cases = [((1, 2, 3), 3), ((1, 2, 6), 3), ((1, 3, 5), 3),
                 ((1, 4, 5), 5)]
        for diag, p in cases:
            form = QuadForm.diagonal(diag)
            g1, g2 = gamma_sublattices(form, p)
            assert g1.discriminant == p * p * form.discriminant
            assert g2.discriminant == p * p * form.discriminant
            assert g1.norm_ideal % p == 0 and g2.norm_ideal % p == 0
            lam = watson_sublattice(form, p)
            bound = 500
            t = theta_coeffs(form, p * bound)
            t1 = theta_coeffs(g1, p * bound)
            t2 = theta_coeffs(g2, p * bound)
            tl = theta_coeffs(lam, p * bound)
            assert all(t[p * n] == t1[p * n] + t2[p * n] - tl[p * n]
                       for n in range(bound + 1)), (diag, p)

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            gamma_sublattices(QuadForm.diagonal((1, 1, 3)), 3)  # anisotropic
        with pytest.raises(ValueError):
            gamma_sublattices(QuadForm.diagonal((1, 2, 3)), 5)  # 5 coprime
        with pytest.raises(ValueError):
            gamma_sublattices(QuadForm.diagonal((1, 2, 3, 10)), 3)  # rank 4

    def test_deterministic(self):
        form = QuadForm.diagonal((1, 2, 3))
        assert gamma_sublattices(form, 3) == gamma_sublattices(form, 3)
