import json
from types import SimpleNamespace
from unittest import mock

import pytest

from qflab.forms import QuadForm
from qflab.lattices import (EXPECTED_DISCRIMINANTS, GENUS_PAIRS, CLASSIFICATION_TABLE,
                            GenusPair, all_bundled_forms, classification_passing)
from qflab.regularity import (check_indistinguishable,
                              hecke_square_recursion_check,
                              is_strongly_s_regular, m_s,
                              genus_pair_identity_check,
                              theta_difference_vs_quotients)
from qflab.theta import RepQuery, represent_count
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
    """Each check asks RepQuery for a count once per use: r(n1^2), r(n^2)
    for the Hecke step and the counts shared by two identities come from
    the check's own records."""

    def test_strong_regularity_one_query_per_square(self):
        report, calls = count_calls(
            is_strongly_s_regular, QuadForm.diagonal((1, 2, 3, 10)), 100)
        assert report.passed and calls == 100

    def test_hecke_recursion_two_queries_per_n(self):
        report, calls = count_calls(
            hecke_square_recursion_check, QuadForm.diagonal((1, 1, 1, 1)),
            3, 30)
        assert report.passed and calls == 60

    @pytest.mark.parametrize("which, calls_expected", [
        ("1,2,3,10", 80),  # 8 per n
        # 5 per n, 3 per m = 3n + 1 for 0 <= n <= 10; the r(n^2)
        # agreement reuses the loop's r_A(n^2) and r_B(n^2)
        ("1,1,3,5", 5 * 10 + 3 * 11),
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
        assert report.passed and report.bound == 30
        assert report.name == "1,1,3,5"
        assert report.counterexample is None


class TestHeckeRecursion:
    @pytest.mark.parametrize("diag,p", [
        ((1, 1, 1, 1), 3), ((1, 1, 1, 2), 5), ((1, 2, 3, 10), 7),
        ((1, 1, 2, 2), 3), ((1, 1, 2, 3), 5),
    ])
    def test_passes(self, diag, p):
        report = hecke_square_recursion_check(QuadForm.diagonal(diag), p, 30)
        assert report.passed

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
        assert [ok for _, ok in report.checks] == [even, odd]
        for r, ok in ((0, even), (1, odd)):
            assert ok == all(represent_count(primary, 4 * n + r)
                             == represent_count(mate, 4 * n + r)
                             for n in range(31))

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
