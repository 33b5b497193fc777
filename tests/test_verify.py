import json
import re

import pytest

from qflab.verify import (run_lemma54, run_props, run_table1,
                          table1_markdown)


class TestRunTable1:
    def test_quick_bound_passes(self):
        report = run_table1(50)
        assert report.passed
        assert len(report.lines) == 37

    def test_idempotent_and_stable_json(self):
        first = run_table1(50)
        second = run_table1(50)
        assert first.to_json() == second.to_json()

    def test_markdown_mirrors_groups(self):
        report = run_table1(50)
        md = table1_markdown(report)
        rows = md.splitlines()[2:]
        assert len(rows) == 36
        assert sum("3-coprime" in r for r in rows) == 18
        assert sum("| fail |" in r for r in rows) == 2
        assert "| 10 |" in next(r for r in rows if "1,2,3,3" in r)

    def test_rejects_small_bound(self):
        with pytest.raises(ValueError):
            run_table1(10)

    def test_csv_rows(self):
        report = run_table1(50)
        rows = report.csv_rows()
        assert len(rows) == len(report.lines)
        assert all(row[2] == "pass" for row in rows)


class TestRunProps:
    def test_passes_and_shape(self):
        report = run_props(50)
        assert report.passed
        names = [line.name for line in report.lines]
        assert any("1,2,6,16" in n for n in names)
        assert any("1,1,3,5" in n for n in names)
        assert any("1,2,3,10" in n for n in names)
        assert any("48" in n for n in names)


class TestRunLemma54:
    def test_passes(self):
        report = run_lemma54(60)
        assert report.passed
        assert len(report.lines) == 15

    def test_rejects_small_precision(self):
        with pytest.raises(ValueError):
            run_lemma54(30)

    def test_scope_labels_within_precision(self):
        """Every "n<=K" a check names is a range it checked: at prec 60
        the vanishing classes are checked through 60, not 200."""
        names = [line.name for line in run_lemma54(60).lines]
        bounds = [int(m) for n in names for m in re.findall(r"n<=(\d+)", n)]
        assert len(bounds) == 6 and max(bounds) <= 60

    def test_json_schema(self):
        data = json.loads(run_lemma54(60).to_json())
        assert data["verdict"] == "pass"
        assert all(c["verdict"] == "pass" for c in data["checks"])
