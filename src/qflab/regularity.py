"""The square-regularity predicate and the genus-pair identity suites.

A quaternary form is strongly s-regular when r on squares factors through
the explicit good-prime product: writing n = n1 n2 with the primes of n1
dividing 2 dF and n2 coprime to 2 dF,

    r(n1^2 n2^2) = r(n1^2) * prod_{p | n2} h_p(dF, ord_p n)

must hold for every positive n.  The checker verifies this for all
n <= bound; finite-bound verdicts are always labeled as such.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache

from .arith import factorize, h_factor, kronecker, square_split
from .forms import QuadForm
from .lattices import GENUS_PAIRS, GenusPair
from .qseries import LEVEL120_QUOTIENTS, eta_quotient_expansion
from .report import Check, SuiteReport
from .theta import RepQuery, represent_count, theta_coeffs


_MS_CAP = 100  # m_s's default cap, also the end of the check's fallback


def m_s(form: QuadForm, cap: int = _MS_CAP) -> int:
    """Least positive n with n^2 represented by the form."""
    if cap < 1:
        raise ValueError("cap must be positive")
    for n in range(1, cap + 1):
        if represent_count(form, n * n):
            return n
    raise ValueError(f"no represented square with root <= {cap}")


@dataclass(frozen=True)
class RegularityReport:
    form: QuadForm
    bound: int
    ms_value: int | None  # None: no represented square within m_s's cap
    passed: bool
    counterexample: tuple[int, int, int] | None  # n, expected, actual

    def __post_init__(self):
        if self.passed != (self.counterexample is None):
            raise ValueError("verdict must match counterexample presence")

    @property
    def verdict(self) -> str:
        return (f"pass (verified up to bound {self.bound})"
                if self.passed else "fail")

    def to_dict(self) -> dict:
        data = {
            "form": self.form.describe(),
            "dF": self.form.discriminant,
            "ms": self.ms_value,
            "bound": self.bound,
            "verdict": "pass" if self.passed else "fail",
        }
        if self.counterexample is not None:
            n, expected, actual = self.counterexample
            data["counterexample"] = {
                "n": n, "expected": expected, "actual": actual}
        return data

    def to_json(self) -> str:
        return json.dumps(self.to_dict())

    def csv_row(self) -> list:
        witness = self.counterexample or ("", "", "")
        return [self.form.describe(), self.form.discriminant, self.ms_value,
                "pass" if self.passed else "fail",
                witness[0], witness[1], witness[2]]


def is_strongly_s_regular(form: QuadForm, bound: int = 300,
                          cache=None) -> RegularityReport:
    """Check the square-regularity equation for every n <= bound.

    One RepQuery to precision bound^2 answers every r(n^2); its halves
    grow on demand, so a form that fails early builds only small ones.
    Each n is one point query, r(n1^2) from an earlier n, and a product
    of good-prime factors.
    """
    if bound < 1:
        raise ValueError("bound must be positive")
    if form.rank not in (3, 4):
        raise ValueError("rank 3 or 4 required")
    # odd rank uses the half-discriminant convention: det(H)/2 carries the
    # character of the odd-rank good-prime factor (det H itself has an odd
    # power of 2 and gives the wrong quadratic character)
    d_f = form.discriminant if form.rank == 4 else form.discriminant // 2
    count = RepQuery(form, bound * bound, cache=cache).count
    two_d_f, rank = 2 * d_f, form.rank
    r_sq = [1]  # r(n^2) for n = 0, 1, ...
    counterexample = None
    for n in range(1, bound + 1):
        actual = count(n * n)
        r_sq.append(actual)
        n1, good = square_split(n, two_d_f)
        if not good:
            continue
        expected = r_sq[n1]
        if expected:
            for p, mu in good:
                expected *= h_factor(d_f, p, mu, rank)
        if expected != actual:
            counterexample = (n, expected, actual)
            break
    # with no r(n^2) > 0 every expected value was 0: no counterexample
    ms_value = next((n for n in range(1, len(r_sq)) if r_sq[n]), None)
    if ms_value is None:
        # r_sq is 0 through the bound, so only bound < n <= _MS_CAP is
        # left; None means ms is unknown
        ms_value = next((n for n in range(bound + 1, _MS_CAP + 1)
                         if represent_count(form, n * n)), None)
    return RegularityReport(form, bound, ms_value,
                            counterexample is None, counterexample)


def check_indistinguishable(pair: GenusPair, bound: int) -> Check:
    """r(n^2) agreement between the two classes for n <= bound; a failure
    names the first n and its two counts."""
    if bound < 1:
        raise ValueError("bound must be positive")
    ra = cache(RepQuery(pair.primary, bound * bound).count)
    rb = cache(RepQuery(pair.mate, bound * bound).count)
    witness = next((f"witness n={n}: {ra(n * n)} != {rb(n * n)}"
                    for n in range(1, bound + 1) if ra(n * n) != rb(n * n)), "")
    return Check(f"[pair {pair.name}] r(n^2) agreement, n<={bound}",
                 not witness, witness)


def hecke_square_recursion_check(form: QuadForm, p: int, bound: int) -> Check:
    """Square-argument recursion at a prime coprime to the discriminant,
    for lattices whose genus is indistinguishable by squares:

        r(p^2 n^2) = (p^2 + 1) r(n^2) - p^2 r(n^2 / p^2)   if p | n,
        r(p^2 n^2) = (p^2 + chi p + 1) r(n^2)              if p !| n,

    with chi = kronecker(dF, p), for 1 <= n <= bound.  (The p !| n case
    is where the middle Hecke term survives; collapsing it into the
    two-term recursion with r(n^2/p^2) = 0 fails already for the sum of
    four squares at n = 1.)  The recursion is the weight-2 one, so a form
    of rank other than 4, a p that is not a prime coprime to dF, or a
    bound below 1, raises ValueError.  A failed check names its first n.
    """
    if form.rank != 4:
        raise ValueError("rank 4 required")
    if p < 2 or factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not a prime")
    if form.discriminant % p == 0:
        raise ValueError(f"{p} divides the discriminant")
    if bound < 1:
        raise ValueError("bound must be positive")
    chi = kronecker(form.discriminant, p)
    r = cache(RepQuery(form, p * p * bound * bound).count)
    bad = next((n for n in range(1, bound + 1) if r(p * p * n * n) != (
        (p * p + 1) * r(n * n) - p * p * r((n // p) ** 2) if n % p == 0
        else (p * p + chi * p + 1) * r(n * n))), None)
    return Check(f"square recursion at p={p} for {form.describe()}, n<={bound}",
                 bad is None, f"witness n={bad}" if bad else "")


def genus_pair_identity_check(which: str, n_max: int,
                              mod5_bound: int | None = None) -> SuiteReport:
    """Verify the displayed counting identities of the three bundled
    genus pairs ("1,2,6,16", "1,1,3,5", "1,2,3,10"), as checks named
    "[pair <which>] ...".  n_max and mod5_bound, when given, must be
    positive.  Each lattice's r is one memoised RepQuery count, so each
    identity reads as one statement over n and shares its counts."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if mod5_bound is not None and mod5_bound < 1:
        raise ValueError("mod5_bound must be positive")
    which = str(which)
    if which not in ("1,2,6,16", "1,1,3,5", "1,2,3,10"):
        raise ValueError(f"unknown genus pair {which!r}")
    pair = GENUS_PAIRS[which]

    def report(*checks):  # the one place the pair's prefix goes on
        return SuiteReport(f"genus pair {which} (n_max {n_max})", [
            Check(f"[pair {which}] {label}", ok) for label, ok in checks])

    if which == "1,2,6,16":
        ta = theta_coeffs(pair.primary, 4 * n_max + 1)
        tb = theta_coeffs(pair.mate, 4 * n_max + 1)
        return report(
            (f"r(4n) agreement, n<={n_max}", ta[0::4] == tb[0::4]),
            (f"r(4n+1) agreement, n<={n_max}", ta[1::4] == tb[1::4]))
    aux = pair.auxiliaries
    squares = [n * n for n in range(1, n_max + 1)]
    if which == "1,1,3,5":
        prec = 9 * n_max * n_max
        ra = cache(RepQuery(pair.primary, prec).count)
        rb = cache(RepQuery(pair.mate, prec).count)
        rt = cache(RepQuery(aux["square-core"], prec).count)
        rk = cache(RepQuery(aux["unit-core"], max(3 * n_max + 1, 4)).count)
        return report(
            (f"r(9n^2) = 4 r(9n^2, aux) - 3 r(n^2), n<={n_max}",
             all(ra(9 * s) == 4 * rt(9 * s) - 3 * ra(s) for s in squares)),
            (f"mate analogue, n<={n_max}",
             all(rb(9 * s) == 4 * rt(9 * s) - 3 * rb(s) for s in squares)),
            (f"r(3n+1) = 2 r(3n+1, unit-core), n<={n_max}",
             all(ra(m) == rb(m) == 2 * rk(m)
                 for m in range(1, 3 * n_max + 2, 3))),
            (f"r(n^2) agreement, n<={n_max}",
             all(ra(s) == rb(s) for s in squares)))
    prec = 25 * n_max * n_max
    ra = cache(RepQuery(pair.primary, prec).count)
    rb = cache(RepQuery(pair.mate, prec).count)
    rm = cache(RepQuery(aux["step-diag"], 5 * n_max * n_max).count)
    rn = cache(RepQuery(aux["step-even"], 5 * n_max * n_max).count)
    r1 = cache(RepQuery(aux["bridge"], prec).count)
    r2 = cache(RepQuery(aux["bridge-mate"], prec).count)

    def step(s):  # 2 r_M(5n^2) + 4 r_N(5n^2), shared by both classes
        return 2 * rm(5 * s) + 4 * rn(5 * s)

    if mod5_bound is None:
        mod5_bound = max(n_max, 200)
    ta = theta_coeffs(pair.primary, mod5_bound)
    tb = theta_coeffs(pair.mate, mod5_bound)
    return report(
        (f"r(25n^2) five-term identity, n<={n_max}",
         all(ra(25 * s) == step(s) - 5 * ra(s) for s in squares)),
        (f"mate analogue, n<={n_max}",
         all(rb(25 * s) == step(s) - 5 * rb(s) for s in squares)),
        (f"bridge step identity, n<={n_max}",
         all(r1(25 * s) == 2 * rn(5 * s) - ra(s) for s in squares)),
        (f"bridge-mate step identity, n<={n_max}",
         all(r2(25 * s) == 2 * rn(5 * s) - rb(s) for s in squares)),
        (f"r(n) agreement for n = 1, 4 mod 5, n<={mod5_bound}",
         all(ta[n] == tb[n] for n in range(1, mod5_bound + 1)
             if n % 5 in (1, 4))))


def theta_difference_vs_quotients(prec: int = 48) -> bool:
    """Half the theta difference of the 1,2,3,10 pair equals
    (quotient 1) + (quotient 2) - 4 (quotient 3) through q^prec."""
    pair = GENUS_PAIRS["1,2,3,10"]
    ta = theta_coeffs(pair.primary, prec)
    tb = theta_coeffs(pair.mate, prec)
    f1 = eta_quotient_expansion(LEVEL120_QUOTIENTS[1], prec)
    f2 = eta_quotient_expansion(LEVEL120_QUOTIENTS[2], prec)
    f3 = eta_quotient_expansion(LEVEL120_QUOTIENTS[3], prec)
    for n in range(1, prec + 1):
        diff = ta[n] - tb[n]
        rhs = f1.coeff(n) + f2.coeff(n) - 4 * f3.coeff(n)
        if diff % 2 or diff // 2 != rhs:
            return False
    return True
