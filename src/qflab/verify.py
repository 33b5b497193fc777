"""Verification suites reproducing the headline computational claims:
the 34-form classification table, the genus-pair counting identities,
and the level-120 eta-quotient data."""

from __future__ import annotations

import json
from dataclasses import dataclass

from .lattices import (CLASSIFICATION_TABLE, GENUS_PAIRS, GROUP_15,
                       GROUP_COPRIME3, GROUP_ONLY3)
from .qseries import (LEVEL120_QUOTIENTS, cusp_orders, eta_quotient_expansion,
                      quotient_coefficient, newman_check, sturm_bound)
from .regularity import (check_indistinguishable, is_strongly_s_regular,
                         genus_pair_identity_check, theta_difference_vs_quotients)

GROUP_ORDER = (GROUP_COPRIME3, GROUP_ONLY3, GROUP_15)


@dataclass(frozen=True)
class CheckLine:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class SuiteReport:
    name: str
    lines: list[CheckLine]
    data: dict | None = None

    @property
    def passed(self) -> bool:
        return all(line.passed for line in self.lines)

    def to_text(self) -> str:
        rows = [f"== {self.name} =="]
        for line in self.lines:
            mark = "PASS" if line.passed else "FAIL"
            detail = f"  {line.detail}" if line.detail else ""
            rows.append(f"[{mark}] {line.name}{detail}")
        rows.append(f"result: {'PASS' if self.passed else 'FAIL'}")
        return "\n".join(rows)

    def to_json(self) -> str:
        return json.dumps({
            "suite": self.name,
            "verdict": "pass" if self.passed else "fail",
            "checks": [{"name": l.name,
                        "verdict": "pass" if l.passed else "fail",
                        "detail": l.detail} for l in self.lines],
        }, indent=2)

    def csv_rows(self) -> list[list]:
        return [[self.name, l.name, "pass" if l.passed else "fail", l.detail]
                for l in self.lines]


def run_table1(bound: int = 300, cache=None) -> SuiteReport:
    """Re-verify every table entry: the 34 listed forms pass to the bound,
    the two excluded forms fail with a recorded witness.

    Every table form is diagonal, so its blocks are unary and sweeping
    them is faster than reading them from a cache; `cache` stays only for
    perfbench's `cache` workload, which times cache I/O through
    `run_table1(200, cache=make_cache(dir))`."""
    if bound < 50:
        raise ValueError("bound must be at least 50")
    lines = []
    rows = []
    by_group = {g: [] for g in GROUP_ORDER}
    for entry in CLASSIFICATION_TABLE:
        report = is_strongly_s_regular(entry.form, bound, cache=cache)
        ok = report.passed == entry.expected_pass
        if entry.expected_pass:
            detail = report.verdict
        else:
            witness = report.counterexample
            detail = (f"fails with witness n={witness[0]} "
                      f"(expected {witness[1]}, actual {witness[2]})"
                      if witness else "unexpectedly passed")
        label = "pass" if entry.expected_pass else "fail"
        name = f"<{','.join(map(str, entry.diagonal))}> expected {label}"
        lines.append(CheckLine(name, ok, detail))
        rows.append(report.to_dict() | {"group": entry.group,
                                        "expected": label})
        if entry.expected_pass and report.passed:
            by_group[entry.group].append(entry.diagonal)
    counts = {g: len(v) for g, v in by_group.items()}
    expected_counts = {GROUP_COPRIME3: 18, GROUP_ONLY3: 14, GROUP_15: 2}
    lines.append(CheckLine(
        "group sizes 18/14/2",
        counts == expected_counts,
        f"observed {counts[GROUP_COPRIME3]}/{counts[GROUP_ONLY3]}/{counts[GROUP_15]}"))
    return SuiteReport(f"classification table (bound {bound})", lines,
                       data={"rows": rows})


def table1_markdown(report: SuiteReport) -> str:
    """Markdown rendition of a run_table1 report, in the table's groups."""
    out = ["| group | form | dF | ms | verdict | witness |", "|---|---|---|---|---|---|"]
    for row in (report.data or {}).get("rows", []):
        witness = row.get("counterexample", {}).get("n", "")
        out.append(f"| {row['group']} | <{row['form']}> | {row['dF']} "
                   f"| {row['ms']} | {row['verdict']} | {witness} |")
    return "\n".join(out)


def run_props(n_max: int = 500) -> SuiteReport:
    """All displayed genus-pair identities, plus the theta-difference
    comparison against the level-120 quotients through the Sturm bound."""
    lines = []
    rep = genus_pair_identity_check("1,2,6,16", n_max)
    lines += [CheckLine(f"[pair 1,2,6,16] {n}", ok) for n, ok in rep.checks]
    rep = genus_pair_identity_check("1,1,3,5", min(n_max, 50))
    lines += [CheckLine(f"[pair 1,1,3,5] {n}", ok) for n, ok in rep.checks]
    consequence = check_indistinguishable(GENUS_PAIRS["1,1,3,5"],
                                          min(n_max, 100))
    lines.append(CheckLine(
        f"[pair 1,1,3,5] r(n^2) agreement, n<={consequence.bound}",
        consequence.passed))
    rep = genus_pair_identity_check("1,2,3,10", min(n_max, 30), mod5_bound=n_max)
    lines += [CheckLine(f"[pair 1,2,3,10] {n}", ok) for n, ok in rep.checks]
    sturm = sturm_bound(120, 2)
    lines.append(CheckLine(
        f"theta difference matches quotient combination through {sturm} coefficients",
        sturm == 48 and theta_difference_vs_quotients(sturm)))
    return SuiteReport(f"genus-pair identities (n_max {n_max})", lines)


def run_lemma54(prec: int = 200) -> SuiteReport:
    """Expansions, coefficient lattice sums, vanishing classes, the
    modularity congruences and cusp orders of the level-120 quotients."""
    if prec < 60:
        raise ValueError("precision must be at least 60")
    printed = {
        1: {2: 1, 3: 1, 5: 1, 8: 1, 12: 1, 17: -2, 18: -3},
        2: {3: 1, 5: -1, 7: -1, 8: 1, 10: -1, 12: -1, 15: 1},
        3: {7: 1, 8: 1, 10: 1, 12: -1, 15: -1, 18: -2, 20: -1},
    }
    leading_zero_windows = {1: range(1, 19), 2: range(1, 16), 3: range(1, 21)}
    lines = []
    for i in (1, 2, 3):
        eq = LEVEL120_QUOTIENTS[i]
        series = eta_quotient_expansion(eq, prec)
        window_ok = all(
            series.coeff(n) == printed[i].get(n, 0)
            for n in leading_zero_windows[i])
        lines.append(CheckLine(f"quotient {i}: printed expansion prefix",
                               window_ok))
        sums_ok = all(series.coeff(n) == quotient_coefficient(i, n)
                      for n in range(1, min(prec, 60) + 1))
        lines.append(CheckLine(
            f"quotient {i}: lattice sums match expansion, n<=60", sums_ok))
        vanish_ok = all(series.coeff(n) == 0 and quotient_coefficient(i, n) == 0
                        for n in range(1, min(prec, 200) + 1)
                        if n % 5 in (1, 4))
        lines.append(CheckLine(
            f"quotient {i}: coefficients vanish for n = 1, 4 mod 5, n<=200",
            vanish_ok))
        newman = newman_check(eq)
        lines.append(CheckLine(
            f"quotient {i}: weight 2 and both mod-24 congruences",
            newman.holds and newman.weight == 2))
        cusps = cusp_orders(eq)
        lines.append(CheckLine(
            f"quotient {i}: strictly positive cusp orders", cusps.is_cusp_form))
    return SuiteReport(f"level-120 quotient data (prec {prec})", lines)
