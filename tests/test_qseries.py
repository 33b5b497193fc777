import random
import time
from fractions import Fraction

import pytest

from qflab import qseries
from qflab.arith import kronecker
from qflab.qseries import (EtaQuotient, LEVEL120_QUOTIENTS, QSeries,
                           _eta_product, cusp_orders, divisor_character_sum,
                           eta_expansion, eta_quotient_expansion,
                           quotient_coefficient, newman_check, sturm_bound,
                           unary_theta_identities)
from reference import eta_product, mul_trunc


# -- a frozen copy of the earlier expansion path: dense eta powers at
# D = 24 from the Euler product, a series inverse for negative powers,
# and pairwise truncated products with headroom for the negative powers

def _frozen_euler_product(n_terms):
    coeffs = [0] * (n_terms + 1)
    coeffs[0] = 1
    k = 1
    while k * (3 * k - 1) // 2 <= n_terms:
        sign = -1 if k % 2 else 1
        coeffs[k * (3 * k - 1) // 2] += sign
        if k * (3 * k + 1) // 2 <= n_terms:
            coeffs[k * (3 * k + 1) // 2] += sign
        k += 1
    return coeffs


def _frozen_inverse(a, n):
    items = [(t, v) for t, v in enumerate(a[1:n + 1], 1) if v]
    inv = [0] * (n + 1)
    inv[0] = a[0]
    for j in range(1, n + 1):
        acc = 0
        for t, v in items:
            if t > j:
                break
            acc += v * inv[j - t]
        inv[j] = -a[0] * acc
    return inv


def _frozen_eta_expansion(scale, power, prec):
    if scale < 1:
        raise ValueError("scale must be positive")
    if power == 0:
        return QSeries(24, 0, tuple([1] + [0] * prec))
    low = scale * power
    n_terms = max(0, (prec - low) // (24 * scale))
    base = _frozen_euler_product(n_terms)
    acc = [1]
    for _ in range(abs(power)):
        acc = mul_trunc(acc, base, n_terms)
    if power < 0:
        acc = _frozen_inverse(acc, n_terms)
    coeffs = [0] * (prec - low + 1)
    for j, c in enumerate(acc):
        if 24 * scale * j <= prec - low:
            coeffs[24 * scale * j] = c
    return QSeries(24, low, tuple(coeffs))


def _frozen_quotient_expansion(eq, prec):
    """The earlier path, for a prec at or above the leading exponent."""
    prec24 = 24 * prec + sum(-delta * r for delta, r in eq.exponents if r < 0)
    low, coeffs = 0, [1] + [0] * prec24
    for delta, r in eq.exponents:
        factor = _frozen_eta_expansion(delta, r, prec24)
        n = min(len(coeffs) - 1, len(factor.coeffs) - 1)
        coeffs = mul_trunc(coeffs, factor.coeffs, n)
        low += factor.low
    coeffs = coeffs[:24 * prec - low + 1]
    if low % 24:
        return QSeries(24, low, tuple(coeffs))
    assert all(c == 0 for j, c in enumerate(coeffs) if j % 24)
    return QSeries(1, low // 24, tuple(coeffs[::24]))


def _factorwise(exponents, n):
    """Independent reference: multiply or divide by one (1 - q^(delta m))
    at a time."""
    out = [1] + [0] * n
    for delta, r in exponents:
        for step in range(delta, n + 1, delta):
            for _ in range(abs(r)):
                if r > 0:
                    for j in range(n, step - 1, -1):
                        out[j] -= out[j - step]
                else:
                    for j in range(step, n + 1):
                        out[j] += out[j - step]
    return out


def _partitions(n):
    """Partition numbers by the coin-change recurrence."""
    p = [1] + [0] * n
    for coin in range(1, n + 1):
        for j in range(coin, n + 1):
            p[j] += p[j - coin]
    return p


def _leading(eq):
    """The least positive prec at or above the leading exponent."""
    return max(1, -(-sum(delta * r for delta, r in eq.exponents) // 24))


class TestQSeries:
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
        assert {series.low + j: c for j, c in enumerate(series.coeffs)
                if c} == expected

    def test_cube_identity(self):
        series = eta_expansion(1, 3, 20 * 24)
        for j, coeff in enumerate(series.coeffs):
            if not coeff:
                continue
            idx = series.low + j
            # indices 3 n^2 with coefficient kron(-4, n) n
            n = round((idx / 3) ** 0.5)
            assert 3 * n * n == idx
            assert coeff == kronecker(-4, n) * n

    def test_inverse_times_forward(self):
        # a dividing pass undoes a multiplying pass, in either order
        for exponents in (((1, -1), (1, 1)),
                          ((3, 2), (3, -2), (1, 1), (1, -1))):
            assert _eta_product(exponents, 240) == [1] + [0] * 240

    def test_unary_identity_suite(self):
        for check in unary_theta_identities(60):
            assert check.passed, check
            assert check.detail == ""

    def test_unary_identity_names_its_first_mismatch(self, monkeypatch):
        """With the divisor series off by one at q^(16/24) (where it is 0:
        the divisor-character sum of 2 is 1 - 1), only the last identity
        fails, and its detail names that coefficient."""
        real = qseries._divisor_series

        def off_by_one(step, prec):
            out = real(step, prec)
            out[16] += 1
            return out

        monkeypatch.setattr(qseries, "_divisor_series", off_by_one)
        checks = unary_theta_identities(60)
        assert [check.passed for check in checks] == [True, True, True, False]
        assert checks[-1].detail == (
            "first mismatch at q^(16/24): expected 1, actual 0")

    def test_matches_earlier_path(self):
        for scale in range(1, 7):
            for power in range(-4, 5):
                for prec in range(401):
                    try:
                        expected = _frozen_eta_expansion(scale, power, prec)
                    except ValueError:
                        with pytest.raises(ValueError):
                            eta_expansion(scale, power, prec)
                        continue
                    assert eta_expansion(scale, power, prec) == expected, \
                        (scale, power, prec)


class TestEtaProduct:
    def test_matches_one_factor_at_a_time(self):
        rng = random.Random(7)
        cases = [((1, -1),), ((1, 24),), ((1, -1), (2, 2), (15, 3)),
                 ((2, 1), (5, -1), (10, 3), (15, -1), (30, 2))]
        for _ in range(20):
            deltas = rng.sample(range(1, 13), rng.randint(1, 3))
            cases.append(tuple((d, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
                               for d in deltas))
        for exponents in cases:
            assert _eta_product(exponents, 300) == \
                _factorwise(exponents, 300), exponents

    def test_reciprocal_of_eta_counts_partitions(self):
        p = _partitions(300)
        assert p[100] == 190569292
        assert _eta_product(((1, -1),), 300) == p

    def test_refuses_negative_length(self):
        assert _eta_product(((1, 5),), 0) == [1]
        with pytest.raises(ValueError):
            _eta_product(((1, 5),), -1)

    def test_matches_reference(self):
        """Random factors (delta <= 60, |r| <= 6) at lengths around the
        block edges, products past int64 (in a dividing and in a
        multiplying pass), and the level-120 quotients."""
        rng = random.Random(17)
        cases = [(((1, -1),), 500), (((1, -4),), 300), (((1, 60),), 300)]
        cases += [(eq.exponents, 2000) for eq in LEVEL120_QUOTIENTS.values()]
        for n in (0, 1, 2, 63, 64, 65, 127, 128, 129, 300, 1000):
            for _ in range(4):
                deltas = rng.sample(range(1, 61), rng.randint(1, 4))
                cases.append((tuple(
                    (d, rng.choice([r for r in range(-6, 7) if r]))
                    for d in deltas), n))
        for exponents, n in cases:
            assert _eta_product(exponents, n) == eta_product(exponents, n), \
                (exponents, n)

    def test_widens_only_past_int64(self, monkeypatch):
        widened, widen = [], qseries._widen

        def spy(*arrays):
            widened.append(len(arrays))
            return widen(*arrays)

        monkeypatch.setattr(qseries, "_widen", spy)
        for eq in LEVEL120_QUOTIENTS.values():
            eta_quotient_expansion(eq, 6000)
        assert widened == []
        got = _eta_product(((1, -1),), 500)
        assert widened and got == eta_product(((1, -1),), 500)
        assert got[500] > 2 ** 63 and all(type(c) is int for c in got)


class TestEtaQuotient:
    def test_validation(self):
        with pytest.raises(ValueError):
            EtaQuotient(120, ((7, 1),))
        with pytest.raises(ValueError):
            EtaQuotient(120, ((2, 0),))
        with pytest.raises(ValueError):
            EtaQuotient(120, ((2, 1), (2, 1)))
        # 4 % -2 == 0, so a negative delta used to pass as a divisor
        for delta in (-2, 0):
            with pytest.raises(ValueError, match="delta must be positive"):
                EtaQuotient(4, ((delta, 1),))

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
        assert (series.low, series.coeffs[0]) == (1, 1)

    def test_below_leading_exponent_is_refused(self):
        # q^2, q^3 and q^7 lead; D = 24 series lead at q^(a/24)
        for i, lead in ((1, 2), (2, 3), (3, 7)):
            for prec in range(1, lead):
                with pytest.raises(ValueError, match="leading exponent"):
                    eta_quotient_expansion(LEVEL120_QUOTIENTS[i], prec)
            assert eta_quotient_expansion(LEVEL120_QUOTIENTS[i], lead).coeffs \
                == (1,)
        with pytest.raises(ValueError, match="leading exponent"):
            eta_quotient_expansion(EtaQuotient(1, ((1, 25),)), 1)
        with pytest.raises(ValueError, match="leading exponent"):
            eta_expansion(2, 3, 5)

    def test_level120_match_earlier_path(self):
        for i in (1, 2, 3):
            eq = LEVEL120_QUOTIENTS[i]
            for prec in list(range(_leading(eq), 301)) + [6000]:
                assert eta_quotient_expansion(eq, prec) == \
                    _frozen_quotient_expansion(eq, prec), (i, prec)

    def test_random_quotients_match_earlier_path(self):
        rng = random.Random(120)
        for _ in range(400):
            level = rng.randint(1, 60)
            divisors = [d for d in range(1, level + 1) if level % d == 0]
            deltas = rng.sample(divisors, rng.randint(1, min(4, len(divisors))))
            eq = EtaQuotient(level, tuple(
                (d, rng.choice((-4, -3, -2, -1, 1, 2, 3, 4, 8, 24)))
                for d in deltas))
            prec = rng.randint(_leading(eq), 200)
            assert eta_quotient_expansion(eq, prec) == \
                _frozen_quotient_expansion(eq, prec), (eq, prec)

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
        orders = dict(report.orders)
        assert orders[120] == 2
        assert orders[1] == 1
        assert 7 not in orders
        assert report.is_cusp_form

    def test_cusp_classes_come_from_the_factorization(self):
        """The cusp classes are the divisors of the level, built from its
        factorization: the trial-division list for every level <= 300, and
        a level of 2^40 answers at once (scanning every integer up to it
        would not finish)."""
        for level in range(1, 301):
            report = cusp_orders(EtaQuotient(level, ((1, 24),)))
            assert [d for d, _ in report.orders] == \
                [d for d in range(1, level + 1) if level % d == 0], level
        start = time.perf_counter()
        report = cusp_orders(EtaQuotient(2**40, ((1, 24),)))
        assert time.perf_counter() - start < 5
        # Delta = eta^24 vanishes to order N / (gcd(d, N/d) d) at cusp d
        assert report.orders == tuple(
            (2**j, Fraction(2**40, 2**min(j, 40 - j) * 2**j))
            for j in range(41))

    def test_cusp_order_at_level_is_q_valuation(self):
        quotients = list(LEVEL120_QUOTIENTS.values()) + [
            EtaQuotient(6, ((1, 1), (2, 1), (3, 1), (6, 1))),
            EtaQuotient(4, ((2, 12),)),
        ]
        for eq in quotients:
            series = eta_quotient_expansion(eq, 30)
            lead = series.low + next(
                j for j, c in enumerate(series.coeffs) if c)
            order = dict(cusp_orders(eq).orders)[eq.level]
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
