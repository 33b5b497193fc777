import dataclasses
import json
from types import SimpleNamespace
from unittest import mock

import pytest

from qflab.arith import kronecker
from qflab.forms import QuadForm
from qflab.lattices import (EXPECTED_DISCRIMINANTS, GENUS_PAIRS, CLASSIFICATION_TABLE,
                            GenusPair, all_bundled_forms, classification_passing)
from qflab.regularity import (check_indistinguishable,
                              hecke_square_recursion_check,
                              is_strongly_s_regular, m_s,
                              genus_pair_identity_check,
                              theta_difference_vs_quotients)
from qflab.theta import RepQuery, represent_count, theta_coeffs
from qflab.transforms import jordan_symbol_odd, lambda_transform

# first witnesses found by the checker itself, frozen as golden values
KNOWN_WITNESSES = {
    (1, 2, 3, 3): (10, 210, 146),
    (1, 3, 3, 18): (10, 210, 146),
}


def count_calls(check, *args):
    """check(*args) and the number of RepQuery.count calls it made."""
    original = RepQuery.count
    calls = []

    def spy(query, m):
        calls.append(m)
        return original(query, m)

    with mock.patch.object(RepQuery, "count", spy):
        result = check(*args)
    return result, len(calls)


class TestMs:
    def test_examples(self):
        assert m_s(QuadForm.diagonal((1, 1, 1, 1))) == 1
        assert m_s(QuadForm.diagonal((2, 2, 3, 10))) == 2
        assert m_s(QuadForm.diagonal((2, 9, 9, 27))) == 3

    def test_table_forms_represent_one(self):
        for entry in classification_passing():
            assert m_s(entry.form, cap=5) == 1

    def test_cap_exhausted(self):
        with pytest.raises(ValueError):
            m_s(QuadForm.diagonal((2, 9, 9, 27)), cap=2)


class TestStronglySRegular:
    def test_pass_examples(self):
        assert is_strongly_s_regular(QuadForm.diagonal((1, 1, 1, 1)), 50).passed
        assert is_strongly_s_regular(QuadForm.diagonal((1, 2, 3, 10)), 50).passed

    @pytest.mark.parametrize("diag", sorted(KNOWN_WITNESSES))
    def test_fail_examples_with_frozen_witness(self, diag):
        report = is_strongly_s_regular(QuadForm.diagonal(diag), 50)
        assert not report.passed
        assert report.counterexample == KNOWN_WITNESSES[diag]

    def test_report_shape(self):
        report = is_strongly_s_regular(QuadForm.diagonal((1, 2, 3, 3)), 50)
        data = json.loads(report.to_json())
        assert data["verdict"] == "fail"
        assert data["dF"] == 288
        assert data["counterexample"]["n"] == 10
        row = report.csv_row()
        assert row[0] == "1,2,3,3" and row[3] == "fail" and row[4] == 10
        ok = is_strongly_s_regular(QuadForm.diagonal((1, 1, 1, 1)), 50)
        assert "verified up to bound 50" in ok.verdict

    def test_ternary_variant(self):
        for diag in [(1, 1, 1), (1, 1, 2), (1, 1, 3), (1, 2, 3)]:
            assert is_strongly_s_regular(QuadForm.diagonal(diag), 80).passed

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            is_strongly_s_regular(QuadForm.diagonal((1, 1)), 50)
        with pytest.raises(ValueError):
            is_strongly_s_regular(QuadForm.diagonal((1, 1, 1, 1)), 0)

    def test_ms_unknown_past_the_fallback_cap(self):
        """No square up to the cap of the m_s fallback: the equation still
        holds (both sides are 0), and ms is reported as unknown."""
        form = QuadForm.diagonal((101, 101, 101, 101))
        report = is_strongly_s_regular(form, 20)
        assert report.passed and report.ms_value is None
        assert report.to_dict()["ms"] is None
        assert report.csv_row()[2] is None
        assert is_strongly_s_regular(form, 101).ms_value == 101

    @pytest.mark.parametrize("bound, ms", [(20, None), (100, None), (101, 101)])
    def test_ms_fallback_scans_only_past_the_bound(self, bound, ms):
        """The fallback asks represent_count only for bound < n <= 100:
        the check's own counts are 0 for every n <= bound."""
        asked = []

        def spy(form, m):
            asked.append(m)
            return represent_count(form, m)

        with mock.patch("qflab.regularity.represent_count", spy):
            report = is_strongly_s_regular(
                QuadForm.diagonal((101, 101, 101, 101)), bound)
        assert report.passed and report.ms_value == ms
        assert asked == [n * n for n in range(bound + 1, 101)]

    def test_ms_found_past_the_bound(self):
        report = is_strongly_s_regular(QuadForm.diagonal((2, 9, 9, 27)), 2)
        assert report.passed and report.ms_value == 3

    def test_deterministic(self):
        form = QuadForm.diagonal((1, 3, 3, 18))
        assert (is_strongly_s_regular(form, 60).to_dict()
                == is_strongly_s_regular(form, 60).to_dict())


class TestCountsAskedOncePerUse:
    """Each check asks RepQuery for a count once per distinct argument:
    r(n1^2) comes from the regularity check's own records, and the
    identity checks read one memoised count per lattice, so a count
    shared by two identities, or met again as another argument, is asked
    once."""

    def test_strong_regularity_one_query_per_square(self):
        report, calls = count_calls(
            is_strongly_s_regular, QuadForm.diagonal((1, 2, 3, 10)), 100)
        assert report.passed and calls == 100

    def test_hecke_recursion_one_query_per_argument(self):
        # r(9n^2) and r(n^2) for n <= 30; the 10 squares (3k)^2 with
        # k <= 10 are also some 9k^2, asked already
        report, calls = count_calls(
            hecke_square_recursion_check, QuadForm.diagonal((1, 1, 1, 1)),
            3, 30)
        assert report.passed and calls == 60 - 10

    @pytest.mark.parametrize("which, calls_expected", [
        # r_A, r_B at n^2 and 25n^2 (two of them meet: n = 5, 10),
        # r_M, r_N at 5n^2, both bridges at 25n^2
        ("1,2,3,10", 2 * (20 - 2) + 4 * 10),
        # r_A, r_B at n^2 and 9n^2 (three meet: n = 3, 6, 9) and at the
        # 11 m = 3n + 1 <= 31 but the squares 1, 4, 16, 25; the square
        # core at 9n^2; the unit core at the 11 m
        ("1,1,3,5", 2 * (20 - 3 + 11 - 4) + 10 + 11),
    ])
    def test_genus_pair_identities(self, which, calls_expected):
        report, calls = count_calls(genus_pair_identity_check, which, 10)
        assert report.passed and calls == calls_expected


class TestBundledLattices:
    def test_discriminant_checksums(self):
        forms = all_bundled_forms()
        assert set(forms) == set(EXPECTED_DISCRIMINANTS)
        for name, form in forms.items():
            assert form.discriminant == EXPECTED_DISCRIMINANTS[name], name

    def test_table_shape(self):
        assert len(CLASSIFICATION_TABLE) == 36
        assert len(classification_passing()) == 34
        assert {e.diagonal for e in CLASSIFICATION_TABLE
                if not e.expected_pass} == set(KNOWN_WITNESSES)
        groups = {}
        for e in classification_passing():
            groups[e.group] = groups.get(e.group, 0) + 1
        assert sorted(groups.values(), reverse=True) == [18, 14, 2]

    def test_group_divisibility_labels(self):
        for entry in classification_passing():
            d = entry.form.discriminant
            if entry.group == "3-coprime":
                assert d % 3
            elif entry.group == "3-divides-5-coprime":
                assert d % 3 == 0 and d % 5
            else:
                assert d % 15 == 0 and d % 7

    def test_pair_invariants(self):
        for pair in GENUS_PAIRS.values():
            assert pair.primary.rank == pair.mate.rank
            assert pair.primary.discriminant == pair.mate.discriminant
        with pytest.raises(ValueError):
            GenusPair("bad", QuadForm.diagonal((1, 1, 1, 1)),
                      QuadForm.diagonal((1, 1, 1, 2)))


class TestIndistinguishable:
    @pytest.mark.parametrize("name", sorted(GENUS_PAIRS))
    def test_bundled_pair_passes(self, name):
        assert check_indistinguishable(GENUS_PAIRS[name], 100).passed

    def test_self_pair(self):
        form = QuadForm.diagonal((1, 2, 3, 3))
        pair = GenusPair("self", form, form)
        assert check_indistinguishable(pair, 50).passed

    def test_report_fields(self):
        report = check_indistinguishable(GENUS_PAIRS["1,1,3,5"], 30)
        assert report.passed
        assert report.name == "[pair 1,1,3,5] r(n^2) agreement, n<=30"
        assert report.detail == ""

    def test_failure_names_its_witness(self):
        """<1,1,3,5> and <1,1,1,15> share a discriminant but not r(1):
        4 against 6, so the check fails at n = 1 and says so."""
        pair = GenusPair("x", QuadForm.diagonal((1, 1, 3, 5)),
                         QuadForm.diagonal((1, 1, 1, 15)))
        report = check_indistinguishable(pair, 10)
        assert not report.passed
        assert report.name == "[pair x] r(n^2) agreement, n<=10"
        assert report.detail == "witness n=1: 4 != 6"
        assert (represent_count(pair.primary, 1),
                represent_count(pair.mate, 1)) == (4, 6)


class TestHeckeRecursion:
    @pytest.mark.parametrize("diag,p", [
        ((1, 1, 1, 1), 3), ((1, 1, 1, 2), 5), ((1, 2, 3, 10), 7),
        ((1, 1, 2, 2), 3), ((1, 1, 2, 3), 5),
    ])
    def test_passes(self, diag, p):
        report = hecke_square_recursion_check(QuadForm.diagonal(diag), p, 30)
        assert report.passed

    def test_failure_names_its_witness(self):
        """<1,2,3,3> fails the square-regularity check, and its square
        recursion at p = 5 fails too; the witness is the first n at which
        the walker's counts break the recursion."""
        form = QuadForm.diagonal((1, 2, 3, 3))
        report = hecke_square_recursion_check(form, 5, 30)
        assert not report.passed
        assert report.name == "square recursion at p=5 for 1,2,3,3, n<=30"
        chi = kronecker(form.discriminant, 5)
        r1, r4, r25, r100 = (represent_count(form, m) for m in (1, 4, 25, 100))
        assert r25 == (25 + 5 * chi + 1) * r1
        assert r100 != (25 + 5 * chi + 1) * r4
        assert report.detail == "witness n=2"

    def test_rejects_dividing_prime(self):
        with pytest.raises(ValueError):
            hecke_square_recursion_check(QuadForm.diagonal((1, 1, 1, 1)), 2, 10)

    @pytest.mark.parametrize("p", [9, 15, -3, 1, 0])
    def test_rejects_non_prime(self, p):
        with pytest.raises(ValueError, match="not a prime"):
            hecke_square_recursion_check(QuadForm.diagonal((1, 1, 1, 1)), p, 5)

    def test_rejects_empty_bound(self):
        with pytest.raises(ValueError, match="bound must be positive"):
            hecke_square_recursion_check(QuadForm.diagonal((1, 1, 1, 1)), 3, 0)

    @pytest.mark.parametrize("diag", [(1, 1, 1), (1, 1), (1,)])
    def test_rejects_rank_other_than_4(self, diag):
        """The recursion is a weight-2 identity; <1,1,1> and <1,1> at
        p = 3 reported a failed recursion instead."""
        with pytest.raises(ValueError, match="rank 4 required"):
            hecke_square_recursion_check(QuadForm.diagonal(diag), 3, 5)


class TestGenusPairIdentities:
    def test_parity_split_pair(self):
        assert genus_pair_identity_check("1,2,6,16", 200).passed

    @pytest.mark.parametrize("mate, even, odd", [
        (GENUS_PAIRS["1,2,6,16"].mate, True, True),
        (QuadForm.diagonal((2, 4, 6, 16)), True, False),
        (QuadForm.diagonal((1, 2, 6, 24)), False, False),
    ], ids=["mate", "2,4,6,16", "1,2,6,24"])
    def test_parity_split_verdicts(self, mate, even, odd):
        """Each check of the parity-split pair reads its own residue
        class: <2,4,6,16> agrees with <1,2,6,16> on r(4n) and not on
        r(4n+1), and both verdicts match the walker's counts."""
        primary = GENUS_PAIRS["1,2,6,16"].primary
        pair = SimpleNamespace(primary=primary, mate=mate)
        with mock.patch.dict(GENUS_PAIRS, {"1,2,6,16": pair}):
            report = genus_pair_identity_check("1,2,6,16", 30)
        assert [check.passed for check in report.lines] == [even, odd]
        assert all(check.name.startswith("[pair 1,2,6,16] ")
                   for check in report.lines)
        for r, ok in ((0, even), (1, odd)):
            assert ok == all(represent_count(primary, 4 * n + r)
                             == represent_count(mate, 4 * n + r)
                             for n in range(31))

    @pytest.mark.parametrize("which, key, stand_in", [
        ("1,1,3,5", "square-core", "primary"),
        ("1,1,3,5", "unit-core", "square-core"),
        ("1,2,3,10", "step-even", "step-diag"),
        ("1,2,3,10", "bridge", "step-diag"),
        ("1,2,3,10", "bridge-mate", "step-even"),
    ])
    def test_false_verdicts(self, which, key, stand_in):
        """With one auxiliary lattice replaced by another, some identity
        fails, and every verdict matches one computed from theta arrays.
        (The two cores of 1,1,3,5 agree at 9n^2, and so do the two bridges
        of 1,2,3,10 at 25n^2, so neither stands in for the other.)"""
        pair = GENUS_PAIRS[which]
        lattices = dict(pair.auxiliaries, primary=pair.primary)
        aux = dict(pair.auxiliaries, **{key: lattices[stand_in]})
        patched = dataclasses.replace(pair, auxiliaries=aux)
        with mock.patch.dict(GENUS_PAIRS, {which: patched}):
            report = genus_pair_identity_check(which, 6, mod5_bound=40)
        verdicts = [check.passed for check in report.lines]
        assert verdicts == _identity_verdicts(patched, 6, 40)
        assert not all(verdicts)

    def test_mod3_pair(self):
        assert genus_pair_identity_check("1,1,3,5", 50).passed

    def test_mod5_pair(self):
        assert genus_pair_identity_check("1,2,3,10", 30).passed

    def test_sturm_comparison(self):
        assert theta_difference_vs_quotients(48)

    def test_rejects_unknown(self):
        with pytest.raises(ValueError):
            genus_pair_identity_check("1,1,1,1", 10)

    @pytest.mark.parametrize("mod5_bound", [0, -7])
    def test_rejects_empty_mod5_bound(self, mod5_bound):
        with pytest.raises(ValueError, match="mod5_bound must be positive"):
            genus_pair_identity_check("1,2,3,10", 5, mod5_bound=mod5_bound)


def _identity_verdicts(pair, n_max, mod5_bound):
    """The verdicts of the 1,1,3,5 or 1,2,3,10 identities, read off
    theta arrays."""
    aux = pair.auxiliaries
    ns = range(1, n_max + 1)
    if pair.name == "1,1,3,5":
        a, b, t, k = (theta_coeffs(f, 9 * n_max * n_max) for f in (
            pair.primary, pair.mate, aux["square-core"], aux["unit-core"]))
        return [
            all(a[9 * n * n] == 4 * t[9 * n * n] - 3 * a[n * n] for n in ns),
            all(b[9 * n * n] == 4 * t[9 * n * n] - 3 * b[n * n] for n in ns),
            all(a[m] == b[m] == 2 * k[m] for m in range(1, 3 * n_max + 2, 3)),
            all(a[n * n] == b[n * n] for n in ns),
        ]
    a, b, m, e, k1, k2 = (theta_coeffs(f, 25 * n_max * n_max) for f in (
        pair.primary, pair.mate, aux["step-diag"], aux["step-even"],
        aux["bridge"], aux["bridge-mate"]))
    step = {n: 2 * m[5 * n * n] + 4 * e[5 * n * n] for n in ns}
    return [
        all(a[25 * n * n] == step[n] - 5 * a[n * n] for n in ns),
        all(b[25 * n * n] == step[n] - 5 * b[n * n] for n in ns),
        all(k1[25 * n * n] == 2 * e[5 * n * n] - a[n * n] for n in ns),
        all(k2[25 * n * n] == 2 * e[5 * n * n] - b[n * n] for n in ns),
        all(a[n] == b[n] for n in range(1, mod5_bound + 1) if n % 5 in (1, 4)),
    ]


def _prop32_eligible(form, q):
    """Jordan profile <nonresidue unit, q^a e1, q^b e2, q^c e3> with
    2 <= a <= b <= c, not all equal to 2."""
    symbol = jordan_symbol_odd(form, q)
    if symbol.unimodular_units != (-1,):
        return False
    exps = sorted(scale for scale, units in symbol.blocks
                  for _ in units if scale > 0)
    return (len(exps) == 3 and exps[0] >= 2 and exps != [2, 2, 2])


class TestLambdaDescent:
    def test_descent_pair_passes(self):
        base = QuadForm.diagonal((2, 9, 9, 27))
        assert _prop32_eligible(base, 3)
        image = lambda_transform(base, 3)
        assert m_s(base) == 3 * m_s(image)
        assert is_strongly_s_regular(base, 54).passed
        assert is_strongly_s_regular(image, 54).passed
        assert is_strongly_s_regular(image, 6).passed

    def test_descent_pair_fails_together(self):
        base = QuadForm.diagonal((2, 9, 27, 27))
        assert _prop32_eligible(base, 3)
        image = lambda_transform(base, 3)
        assert not is_strongly_s_regular(base, 60).passed
        assert not is_strongly_s_regular(image, 60).passed

    def test_square_scaling_relation(self):
        base = QuadForm.diagonal((2, 9, 9, 27))
        image = lambda_transform(base, 3)
        qa = RepQuery(base, 9 * 500)
        qb = RepQuery(image, 500)
        assert all(qa.count(9 * n) == qb.count(n) for n in range(501))

    def test_ms_divisibility(self):
        for form, cap in [(QuadForm.diagonal((2, 9, 9, 27)), 50),
                          (QuadForm.diagonal((1, 1, 1, 1)), 30)]:
            base = m_s(form)
            query = RepQuery(form, cap * cap)
            for m in range(1, cap + 1):
                if query.count(m * m):
                    assert m % base == 0
