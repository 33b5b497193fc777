from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qflab import qseries
from qflab.arith import kronecker
from qflab.forms import QuadForm
from qflab.qseries import (EtaQuotient, LEVEL120_QUOTIENTS, QSeries,
                           cusp_orders, divisor_character_sum, eta_expansion,
                           eta_quotient_expansion, quotient_coefficient,
                           newman_check, series_one, sturm_bound,
                           theta_qseries, unary_theta_identities)

series_strategy = st.builds(
    QSeries,
    st.just(1),
    st.integers(0, 3),
    st.lists(st.integers(-9, 9), min_size=1, max_size=8),
)


class TestQSeries:
    def test_mul_examples(self):
        one_plus = QSeries(1, 0, (1, 1, 0))
        one_minus = QSeries(1, 0, (1, -1, 0))
        prod = one_plus * one_minus
        assert [prod.coeff(i) for i in range(3)] == [1, 0, -1]
        # grading adds: q^(1/24) * q^(23/24) = q
        a = QSeries(24, 1, (1,))
        b = QSeries(24, 23, (1,))
        assert (a * b).nonzero() == [(24, 1)]

    def test_truncation_rule(self):
        a = QSeries(1, 0, (1, 2, 3))   # known through q^2
        b = QSeries(1, 1, (5, 6))      # known through q^2, low 1
        prod = a * b
        # b.prec + a.low limits: the q^3 term needs the unknown b_3
        assert prod.low == 1 and prod.prec == 2
        assert [prod.coeff(i) for i in (1, 2)] == [5, 16]

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=120)
    def test_mul_associative_commutative(self, a, b, c):
        left = (a * b) * c
        right = a * (b * c)
        assert left.grading == right.grading
        for idx in range(max(left.low, right.low),
                         min(left.prec, right.prec) + 1):
            assert left.coeff(idx) == right.coeff(idx)
        ab, ba = a * b, b * a
        assert ab.low == ba.low and ab.coeffs == ba.coeffs

    @given(series_strategy, series_strategy, series_strategy)
    @settings(max_examples=120)
    def test_mul_distributes(self, a, b, c):
        lhs = a * (b + c)
        rhs = a * b + a * c
        for idx in range(lhs.low, min(lhs.prec, rhs.prec) + 1):
            assert lhs.coeff(idx) == rhs.coeff(idx)

    def test_inverse_roundtrip(self):
        eta = eta_expansion(1, 1, 240)
        inv = eta.inverse(200)
        prod = eta * inv
        assert prod.coeff(0) == 1
        assert all(prod.coeff(i) == 0 for i in range(1, prod.prec + 1))

    def test_inverse_uses_known_coefficients_only(self):
        # 1 + q is known through q^1 only, so its reciprocal is too
        short = QSeries(1, 0, (1, 1))
        assert short.inverse(1).coeffs == (1, -1)
        with pytest.raises(ValueError):
            short.inverse(5)
        # the same known prefix continued by q^2 + 5 q^3
        assert QSeries(1, 0, (1, 1, 1, 5)).inverse(3).coeffs == (1, -1, 0, -4)
        # a leading q^2 costs two known indices at each end
        shifted = QSeries(1, 2, (1, 1, 1, 5))
        assert shifted.inverse(1).coeffs == (1, -1, 0, -4)
        with pytest.raises(ValueError):
            shifted.inverse(2)
        with pytest.raises(ValueError):
            QSeries(1, 0, (0, 0, 0)).inverse(0)

    def test_json_schema(self):
        s = QSeries(1, 0, (1, 2, 2, 6))
        assert s.to_json() == '{"D": 1, "prec": 3, "coeffs": [1, 2, 2, 6]}'
        with pytest.raises(ValueError):
            QSeries(24, -1, (1, 0)).to_json()


class TestEtaExpansion:
    def test_pentagonal_pattern(self):
        series = eta_expansion(1, 1, 30 * 24)
        expected = {}
        k = 1
        expected[1] = 1
        while k * (3 * k - 1) // 2 <= 29:
            sign = -1 if k % 2 else 1
            expected[24 * (k * (3 * k - 1) // 2) + 1] = sign
            g2 = k * (3 * k + 1) // 2
            if g2 <= 29:
                expected[24 * g2 + 1] = sign
            k += 1
        assert dict(series.nonzero()) == expected

    def test_cube_identity(self):
        series = eta_expansion(1, 3, 20 * 24)
        for idx, coeff in series.nonzero():
            # indices 3 n^2 with coefficient kron(-4, n) n
            n = round((idx / 3) ** 0.5)
            assert 3 * n * n == idx
            assert coeff == kronecker(-4, n) * n

    def test_inverse_times_forward(self):
        prod = eta_expansion(1, -1, 240) * eta_expansion(1, 1, 240)
        assert prod.nonzero() == [(0, 1)]

    def test_unary_identity_suite(self):
        for check in unary_theta_identities(60):
            assert check.passed, check


class TestEtaQuotient:
    def test_validation(self):
        with pytest.raises(ValueError):
            EtaQuotient(120, ((7, 1),))
        with pytest.raises(ValueError):
            EtaQuotient(120, ((2, 0),))
        with pytest.raises(ValueError):
            EtaQuotient(120, ((2, 1), (2, 1)))

    def test_parse(self):
        eq = EtaQuotient.parse("2:2,15:3,1:-1", 120)
        assert eq == LEVEL120_QUOTIENTS[1]

    def test_printed_expansions(self):
        prefixes = {
            1: {2: 1, 3: 1, 5: 1, 8: 1, 12: 1, 17: -2, 18: -3},
            2: {3: 1, 5: -1, 7: -1, 8: 1, 10: -1, 12: -1, 15: 1},
            3: {7: 1, 8: 1, 10: 1, 12: -1, 15: -1, 18: -2, 20: -1},
        }
        tops = {1: 18, 2: 15, 3: 20}
        for i in (1, 2, 3):
            series = eta_quotient_expansion(LEVEL120_QUOTIENTS[i], 25)
            for n in range(1, tops[i] + 1):
                assert series.coeff(n) == prefixes[i].get(n, 0), (i, n)

    def test_fractional_grading_output(self):
        series = eta_quotient_expansion(EtaQuotient(2, ((1, 1),)), 3)
        assert series.grading == 24
        assert series.nonzero()[0] == (1, 1)

    def test_newman_examples(self):
        report = newman_check(LEVEL120_QUOTIENTS[1])
        assert report.weight == 2
        assert report.cond24a and report.cond24b and report.holds
        # eta(z) alone at level 1: scale sum is 1, fails
        assert not newman_check(EtaQuotient(1, ((1, 1),))).cond24a
        # trivial quotient: weight 0, both congruences hold
        trivial = newman_check(EtaQuotient(1, ()))
        assert trivial.weight == 0 and trivial.holds

    def test_character_matches_60(self):
        # ((-1)^k s | m) agrees with (60 | m) for m coprime to 120
        for i in (1, 2, 3):
            report = newman_check(LEVEL120_QUOTIENTS[i])
            disc = report.character_discriminant
            for m in range(1, 1001):
                if m % 2 and m % 3 and m % 5:
                    assert kronecker(disc, m) == kronecker(60, m), (i, m)

    def test_cusp_orders_examples(self):
        report = cusp_orders(LEVEL120_QUOTIENTS[1])
        assert report.order_at(120) == 2
        assert report.order_at(1) == 1
        assert report.is_cusp_form and report.is_holomorphic
        with pytest.raises(ValueError):
            report.order_at(7)

    def test_cusp_order_at_level_is_q_valuation(self):
        quotients = list(LEVEL120_QUOTIENTS.values()) + [
            EtaQuotient(6, ((1, 1), (2, 1), (3, 1), (6, 1))),
            EtaQuotient(4, ((2, 12),)),
        ]
        for eq in quotients:
            series = eta_quotient_expansion(eq, 30)
            lead = series.nonzero()[0][0]
            order = cusp_orders(eq).order_at(eq.level)
            assert Fraction(lead, series.grading) == order, eq


class TestSturm:
    def test_examples(self):
        assert sturm_bound(120, 2) == 48
        assert sturm_bound(1, 12) == 1
        assert sturm_bound(11, 2) == 2

    def test_rejects(self):
        with pytest.raises(ValueError):
            sturm_bound(0, 2)


class TestLemma54Coefficients:
    def test_examples(self):
        assert quotient_coefficient(1, 2) == 1
        assert quotient_coefficient(2, 3) == 1
        assert quotient_coefficient(1, 17) == -2

    def test_match_expansions_to_300(self, monkeypatch):
        # a fresh memo per order: descending builds each table once,
        # ascending grows it past its end again and again
        for order in (range(300, 0, -1), range(1, 301)):
            monkeypatch.setattr(qseries, "_QUOTIENT_TABLES", {})
            for i in (1, 2, 3):
                series = eta_quotient_expansion(LEVEL120_QUOTIENTS[i], 300)
                for n in order:
                    assert quotient_coefficient(i, n) == series.coeff(n), (i, n)

    def test_vanishing_classes(self):
        for i in (1, 2, 3):
            for n in range(1, 301):
                if n % 5 in (1, 4):
                    assert quotient_coefficient(i, n) == 0

    @pytest.mark.parametrize("i, n", [(0, 5), (4, 5), (1, 0), (2, 0)])
    def test_rejects_unknown_quotient_and_index(self, i, n):
        with pytest.raises(ValueError):
            quotient_coefficient(i, n)

    def test_divisor_character_sum(self):
        assert divisor_character_sum(1) == 1
        assert divisor_character_sum(3) == 1  # d = 1, 3 -> 1 + 0
        assert divisor_character_sum(4) == kronecker(1, 3) + kronecker(2, 3) \
            + kronecker(4, 3)


class TestThetaQSeries:
    def test_wraps_counts(self):
        series = theta_qseries(QuadForm.diagonal((1, 2, 3, 10)), 3)
        assert series.grading == 1
        assert list(series.coeffs) == [1, 2, 2, 6]
        assert theta_qseries(QuadForm.diagonal((1, 1)), 0).coeffs == (1,)

    def test_series_one(self):
        one = series_one(1, 4)
        assert one.coeff(0) == 1 and one.prec == 4
