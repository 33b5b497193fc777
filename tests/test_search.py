from itertools import combinations

import pytest

from qflab.arith import h_factor
from qflab.forms import QuadForm
from qflab.lattices import classification_passing
from qflab.reduction import is_isometric
from qflab.search import (SearchConfig, SearchFilters, _filter_pass,
                          search_diagonal)
from qflab.theta import represent_count


class TestSearchDiagonal:
    def test_cmax3_membership(self):
        result = search_diagonal(SearchConfig(3, 50))
        expected = {(1, 1, 1, 1), (1, 1, 1, 2), (1, 1, 2, 2), (1, 2, 2, 2),
                    (1, 1, 1, 3), (1, 1, 2, 3), (1, 1, 3, 3), (1, 2, 2, 3),
                    (1, 3, 3, 3)}
        survivors = set(result.survivors)
        assert expected <= survivors
        assert (1, 2, 3, 3) not in survivors
        assert survivors == expected

    def test_cmax9_contains_coprime3_group(self):
        result = search_diagonal(SearchConfig(9, 50))
        group = {e.diagonal for e in classification_passing()
                 if e.group == "3-coprime"}
        assert group <= set(result.survivors)

    def test_filters_do_not_change_survivors(self):
        on = search_diagonal(SearchConfig(12, 50))
        off = search_diagonal(
            SearchConfig(12, 50, SearchFilters(False, False, False)))
        assert on.survivors == off.survivors
        assert on.filtered_out > 0 and off.filtered_out == 0

    def test_individual_filters_sound(self):
        baseline = search_diagonal(
            SearchConfig(8, 50, SearchFilters(False, False, False)))
        for filters in (SearchFilters(True, False, False),
                        SearchFilters(False, True, False),
                        SearchFilters(False, False, True)):
            result = search_diagonal(SearchConfig(8, 50, filters))
            assert result.survivors == baseline.survivors, filters

    def test_report_shape(self):
        result = search_diagonal(SearchConfig(3, 50))
        data = result.to_dict()
        assert data["cMax"] == 3 and data["bound"] == 50
        assert data["examined"] == 10
        assert "1,1,1,1" in data["survivors"]
        assert set(result.reports) == set(result.survivors)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SearchConfig(0, 50)
        with pytest.raises(ValueError):
            SearchConfig(3, 0)


    @pytest.mark.parametrize("filters, filtered_out", [
        (SearchFilters(True, False, False), 9102),
        (SearchFilters(False, True, False), 3631),
        (SearchFilters(False, False, True), 5951),
        (SearchFilters(), 10880),
        (SearchFilters(False, False, False), 0),
    ])
    def test_cmax40_counts(self, filters, filtered_out):
        """examined, filteredOut and the 34 survivors of cmax 40 at
        bound 50, as the per-form filters gave them."""
        result = search_diagonal(SearchConfig(40, 50, filters))
        assert result.examined == 11480
        assert result.filtered_out == filtered_out
        assert result.survivors == sorted(
            e.diagonal for e in classification_passing())


@pytest.mark.parametrize("bound", range(1, 13))
def test_filters_sound_below_the_filter_primes(bound):
    """A filter prime above the bound is not an instance of the check, so
    it must not run: survivors match the unfiltered search at every
    bound, and no filter runs below 3."""
    on = search_diagonal(SearchConfig(15, bound))
    off = search_diagonal(
        SearchConfig(15, bound, SearchFilters(False, False, False)))
    assert on.survivors == off.survivors
    assert (on.filtered_out == 0) == (bound < 3)


@pytest.mark.parametrize("p", [3, 5, 11])
def test_filter_pass_matches_point_counts(p):
    """Each batched filter against the equation r(p^2) = r(1) h_p(dF, 1)
    evaluated with the lattice walker, form by form."""
    for a in range(1, 31):
        bs, cs, keep = _filter_pass(a, 30, [p])
        pairs = [(b, c) for b in range(a, 31) for c in range(b, 31)]
        assert list(zip(bs.tolist(), cs.tolist())) == pairs
        for (b, c), kept in zip(pairs, keep.tolist()):
            if a * b * c % p == 0:
                assert kept
                continue
            r1 = 2 * (1 + (a == 1) + (b == 1) + (c == 1))
            form = QuadForm.diagonal((1, a, b, c))
            assert kept == (represent_count(form, p * p)
                            == r1 * h_factor(16 * a * b * c, p, 1, 4)), (a, b, c)


@pytest.mark.parametrize("c_max, bound", [(15, 1), (40, 50)])
def test_survivors_are_pairwise_non_isometric(c_max, bound):
    """Survivors are distinct sorted diagonals (1, a, b, c), a <= b <= c,
    so by Eichler's unique decomposition no two are isometric, and the
    search needs no isometry dedupe: every pair of survivors with equal
    discriminant is checked."""
    survivors = search_diagonal(SearchConfig(c_max, bound)).survivors
    assert survivors == sorted(set(survivors))
    assert all(d[0] == 1 and d[1] <= d[2] <= d[3] for d in survivors)
    groups = {}
    for diag in survivors:
        form = QuadForm.diagonal(diag)
        groups.setdefault(form.discriminant, []).append(form)
    pairs = [pair for group in groups.values()
             for pair in combinations(group, 2)]
    assert pairs
    assert not any(is_isometric(f, g) for f, g in pairs)
