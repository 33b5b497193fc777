import numpy as np
import pytest

from qflab.lattices import classification_passing
from qflab.search import (SearchConfig, SearchFilters, _pair_theta,
                          search_diagonal)
from qflab.theta import _theta_unary


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


def test_filter_pairs_match_numpy_convolve():
    for a in range(1, 31):
        for b in range(a, 31):
            expected = np.convolve(_theta_unary(a, 121),
                                   _theta_unary(b, 121))[:122]
            got = _pair_theta(a, b)
            assert got.dtype == np.int64, (a, b)
            assert np.array_equal(got, expected), (a, b)
