"""Record the reference outputs the benchmark checks against.

    PYTHONPATH=src python3 perfbench/record_refs.py

Every reference comes from plain calls: no cache, no tracing, no
conjugated inputs.  Rerun only when a workload's size changes; the
outputs themselves are exact and must not change.
"""

from __future__ import annotations

import json

import qflab.qseries
import qflab.search
from qflab import (CLASSIFICATION_TABLE, LEVEL120_QUOTIENTS, QuadForm,
                   SearchConfig, all_bundled_forms, eta_quotient_expansion,
                   is_strongly_s_regular, run_lemma54, run_props, run_table1,
                   search_diagonal, theta_coeffs)

import workloads as w


def record() -> dict:
    table = {",".join(map(str, e.diagonal)):
             is_strongly_s_regular(e.form, w.TABLE1_BOUND).to_dict()
             for e in CLASSIFICATION_TABLE}

    passing = []
    check = qflab.search.is_strongly_s_regular

    def collect(form, *args, **kwargs):
        report = check(form, *args, **kwargs)
        if report.passed:
            passing.append(list(form.diag_q))
        return report

    qflab.search.is_strongly_s_regular = collect
    try:
        result = search_diagonal(SearchConfig(w.SEARCH_CMAX, w.SEARCH_BOUND))
    finally:
        qflab.search.is_strongly_s_regular = check
    search = {"examined": result.examined, "filtered": result.filtered_out,
              "survivors": [list(d) for d in result.survivors],
              "passing": passing}

    bundled = all_bundled_forms()
    theta = {name: {str(w.CACHE_THETA_PREC): w.digest(theta_coeffs(f, w.CACHE_THETA_PREC))}
             for name, f in bundled.items()}
    for name in w.NONSPLIT_BASES:
        theta[name][str(w.NONSPLIT_PREC)] = w.digest(
            theta_coeffs(bundled[name], w.NONSPLIT_PREC))

    prec = w.CACHE_TABLE1_BOUND * w.CACHE_TABLE1_BOUND
    unary = sorted({a for e in CLASSIFICATION_TABLE for a in e.diagonal})
    cache = {"table1": w.text_digest(run_table1(w.CACHE_TABLE1_BOUND).to_json()),
             "unary": {str(a): w.digest(theta_coeffs(QuadForm.diagonal((a,)), prec))
                       for a in unary}}

    expansions = {}
    for i in (1, 2, 3):
        eq = LEVEL120_QUOTIENTS[i]
        s = eta_quotient_expansion(eq, w.ETA_LEMMA54_PREC)
        expansions[str(eq.exponents)] = w.digest([s.grading, s.low, *s.coeffs])

    # every eta-power expansion the eta workload makes, in call order
    powers = []
    expand = qflab.qseries.eta_expansion

    def record_power(scale, exponent, prec):
        s = expand(scale, exponent, prec)
        powers.append([scale, exponent, prec,
                       w.digest([s.grading, s.low, *s.coeffs])])
        return s

    qflab.qseries.eta_expansion = record_power
    try:
        run_props(w.ETA_PROPS_NMAX)
        run_lemma54(w.ETA_LEMMA54_PREC)
    finally:
        qflab.qseries.eta_expansion = expand

    return {"table1-600": table, "search-121": search, "theta": theta,
            "cache": cache,
            "eta": {"expansions": expansions, "eta_expansion": powers}}


if __name__ == "__main__":
    w.REFS_PATH.write_text(json.dumps(record(), indent=1, sort_keys=True) + "\n")
    print(f"wrote {w.REFS_PATH}")
