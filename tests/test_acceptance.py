"""Acceptance suite: one test per criterion, each printing a PASS/FAIL
line (run with -s or -v to see them as they complete)."""

import random
import time

from qflab.arith import factorize, h_factor, kronecker
from qflab.forms import QuadForm
from qflab.lattices import (CLASSIFICATION_TABLE, GENUS_PAIRS,
                            classification_passing)
from qflab.qseries import (LEVEL120_QUOTIENTS, cusp_orders,
                           eta_quotient_expansion, quotient_coefficient,
                           newman_check, unary_theta_identities)
from qflab.regularity import (check_indistinguishable,
                              hecke_square_recursion_check,
                              is_strongly_s_regular, genus_pair_identity_check,
                              theta_difference_vs_quotients)
from qflab.search import SearchConfig, search_diagonal
from qflab.theta import theta_coeffs
from qflab.transforms import (gamma_sublattices, jordan_symbol_odd,
                              watson_sublattice)

from test_theta import conjugated, random_unimodular


def report(criterion: str, passed: bool, detail: str = ""):
    mark = "PASS" if passed else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {criterion}: {mark}{suffix}", flush=True)
    assert passed, f"{criterion} failed {suffix}"


def test_criterion_1_classification_table():
    start = time.monotonic()
    ok = True
    for entry in classification_passing():
        result = is_strongly_s_regular(entry.form, 300)
        ok = ok and result.passed
    witnesses = {}
    for entry in (e for e in CLASSIFICATION_TABLE if not e.expected_pass):
        result = is_strongly_s_regular(entry.form, 300)
        ok = ok and not result.passed and result.counterexample[0] <= 300
        witnesses[entry.diagonal] = result.counterexample[0]
    elapsed = time.monotonic() - start
    ok = ok and elapsed < 120
    report("1 (table of 34 at bound 300)", ok,
           f"witnesses {witnesses}, {elapsed:.1f}s cold")


def test_criterion_2_pair_1_2_6_16():
    result = genus_pair_identity_check("1,2,6,16", 500)
    report("2 (r(4n), r(4n+1) agreement to 500)", result.passed)


def test_criterion_3_pair_1_1_3_5():
    identity = genus_pair_identity_check("1,1,3,5", 50)
    consequence = check_indistinguishable(GENUS_PAIRS["1,1,3,5"], 100)
    report("3 (9n^2 identity to 50, squares agree to 100)",
           identity.passed and consequence.passed)


def test_criterion_4_pair_1_2_3_10():
    sturm = theta_difference_vs_quotients(48)
    identity = genus_pair_identity_check("1,2,3,10", 30, mod5_bound=500)
    report("4 (Sturm-48 match, 25n^2 identity to 30, mod-5 classes to 500)",
           sturm and identity.passed)


def test_criterion_5_quotient_data():
    printed = {
        1: {2: 1, 3: 1, 5: 1, 8: 1, 12: 1, 17: -2, 18: -3},
        2: {3: 1, 5: -1, 7: -1, 8: 1, 10: -1, 12: -1, 15: 1},
        3: {7: 1, 8: 1, 10: 1, 12: -1, 15: -1, 18: -2, 20: -1},
    }
    tops = {1: 18, 2: 15, 3: 20}
    ok = True
    for i in (1, 2, 3):
        eq = LEVEL120_QUOTIENTS[i]
        series = eta_quotient_expansion(eq, 200)
        ok = ok and all(series.coeff(n) == printed[i].get(n, 0)
                        for n in range(1, tops[i] + 1))
        ok = ok and all(series.coeff(n) == quotient_coefficient(i, n)
                        for n in range(1, 61))
        ok = ok and all(quotient_coefficient(i, n) == 0
                        for n in range(1, 201) if n % 5 in (1, 4))
        newman = newman_check(eq)
        ok = ok and newman.holds and newman.weight == 2
        ok = ok and cusp_orders(eq).is_cusp_form
    report("5 (quotient expansions, lattice sums, vanishing, modularity)", ok)


def _lambda_identity_cases():
    return [((1, 1, 3, 3), 3), ((1, 1, 3, 6), 3), ((1, 2, 5, 5), 5)]


def _gamma_identity_cases():
    return [((1, 2, 3), 3), ((1, 2, 6), 3), ((1, 3, 5), 3)]


def test_criterion_6a_lambda_identity():
    ok = True
    for diag, p in _lambda_identity_cases():
        form = QuadForm.diagonal(diag)
        assert jordan_symbol_odd(form, p).unimodular_part_anisotropic
        sub = watson_sublattice(form, p)
        ta = theta_coeffs(form, 500 * p)
        tb = theta_coeffs(sub, 500 * p)
        ok = ok and all(ta[p * n] == tb[p * n] for n in range(501))
    report("6a (anisotropic transform identity, 3 lattices, n<=500)", ok)


def test_criterion_6b_gamma_identity():
    ok = True
    for diag, p in _gamma_identity_cases():
        form = QuadForm.diagonal(diag)
        g1, g2 = gamma_sublattices(form, p)
        lam = watson_sublattice(form, p)
        t = theta_coeffs(form, 500 * p)
        t1 = theta_coeffs(g1, 500 * p)
        t2 = theta_coeffs(g2, 500 * p)
        tl = theta_coeffs(lam, 500 * p)
        ok = ok and all(t[p * n] == t1[p * n] + t2[p * n] - tl[p * n]
                        for n in range(501))
    report("6b (isotropic two-sublattice identity, 3 lattices, n<=500)", ok)


def test_criterion_6c_hecke_recursion():
    cases = [((1, 1, 1, 1), (3, 5)), ((1, 1, 1, 2), (3, 5)),
             ((1, 1, 2, 2), (3, 5)), ((1, 1, 2, 3), (5, 7)),
             ((1, 2, 2, 2), (3, 5))]
    ok = True
    for diag, primes in cases:
        form = QuadForm.diagonal(diag)
        for p in primes:
            ok = ok and hecke_square_recursion_check(form, p, 30).passed
    report("6c (square recursion, 5 class-number-one forms, 2 primes each)",
           ok)


def test_criterion_6d_h_factor_random_tuples():
    rng = random.Random(2024)
    ok = True
    checked = 0
    while checked < 1000:
        d_f = rng.randrange(1, 10**7)
        p = rng.choice([3, 5, 7, 11, 13, 17, 19, 23])
        if (2 * d_f) % p == 0:
            continue
        mu = rng.randrange(0, 7)
        k = rng.choice((3, 4))
        if k == 4:
            chi = kronecker(d_f, p)
            expected = sum(chi**t * p**t for t in range(2 * mu + 1))
        else:
            chi = kronecker(-d_f, p)
            expected = p**mu + (1 - chi) * sum(p**t for t in range(mu))
        ok = ok and h_factor(d_f, p, mu, k) == expected
        checked += 1
    report("6d (good-prime factor closed form vs term sum, 1000 tuples)", ok)


def test_criterion_6e_kronecker_oracle_sweep():
    primes = [p for p in range(3, 2001)
              if all(p % d for d in range(2, int(p**0.5) + 1))]
    rows = {}
    for p in primes:
        row = [0] * p
        for a in range(1, p):
            row[a] = 1 if pow(a, (p - 1) // 2, p) == 1 else -1
        rows[p] = row
    facts = {n: factorize(n) for n in range(1, 2001)}

    def oracle(a, n):
        if n == 0:
            return 1 if a in (1, -1) else 0
        result = 1
        for p, e in facts[n]:
            if p == 2:
                if a % 2 == 0:
                    return 0
                part = 1 if a % 8 in (1, 7) else -1
            else:
                part = rows[p][a % p]
                if part == 0:
                    return 0
            if e % 2:
                result *= part
        return result

    def oracle_full(a, n):
        if n < 0:
            return (-1 if a < 0 else 1) * oracle(a, -n)
        return oracle(a, n)

    mismatches = sum(
        1 for n in range(0, 2001) for a in range(-2000, 2001)
        if kronecker(a, n) != oracle(a, n))
    # negative bottoms over a smaller exhaustive window
    mismatches += sum(
        1 for n in range(-200, 0) for a in range(-200, 201)
        if kronecker(a, n) != oracle_full(a, n))
    report("6e (symbol vs slow Euler/Jacobi oracle, |a|, n <= 2000)",
           mismatches == 0, f"{mismatches} mismatches")


def test_criterion_6f_theta_isometry_invariance():
    rng = random.Random(77)
    seeds = [QuadForm.diagonal((1, 2, 3, 10)),
             QuadForm.diagonal((1, 1, 3, 5)),
             QuadForm.diagonal((1, 2, 6, 16)),
             QuadForm.diagonal((1, 1, 2))]
    ok = True
    for _ in range(100):
        base = rng.choice(seeds)
        other = conjugated(base, random_unimodular(rng, base.rank))
        ok = ok and theta_coeffs(other, 50) == theta_coeffs(base, 50)
    report("6f (theta invariance on 100 unimodular conjugates)", ok)


def test_criterion_6g_unary_identities_600():
    checks = unary_theta_identities(600)
    report("6g (classical expansions to precision 600)",
           all(c.passed for c in checks))


def test_criterion_7_search():
    start = time.monotonic()
    result = search_diagonal(SearchConfig(121, 50))
    table = sorted(e.diagonal for e in classification_passing())
    exact = sorted(result.survivors) == table
    on = search_diagonal(SearchConfig(20, 50))
    off = search_diagonal(SearchConfig(20, 50, filters=False))
    report("7 (search to 121 returns the 34; filters sound to 20)",
           exact and on.survivors == off.survivors,
           f"{time.monotonic() - start:.1f}s")
