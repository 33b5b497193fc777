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

from .arith import factorize, h_factor, kronecker, square_split
from .forms import QuadForm
from .lattices import GENUS_PAIRS, GenusPair
from .qseries import LEVEL120_QUOTIENTS, eta_quotient_expansion
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

    Theta data to precision bound^2 is prepared once; each n is then one
    point query, r(n1^2) from an earlier n, and a product of good-prime
    factors.
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


@dataclass(frozen=True)
class PairCheck:
    name: str
    bound: int
    passed: bool
    counterexample: tuple[int, int, int] | None


def check_indistinguishable(pair: GenusPair, bound: int) -> PairCheck:
    """r(n^2) agreement between the two classes for n <= bound."""
    if bound < 1:
        raise ValueError("bound must be positive")
    qa = RepQuery(pair.primary, bound * bound)
    qb = RepQuery(pair.mate, bound * bound)
    for n in range(1, bound + 1):
        a, b = qa.count(n * n), qb.count(n * n)
        if a != b:
            return PairCheck(pair.name, bound, False, (n, a, b))
    return PairCheck(pair.name, bound, True, None)


@dataclass(frozen=True)
class IdentityReport:
    checks: tuple[tuple[str, bool], ...]

    @property
    def passed(self) -> bool:
        return all(ok for _, ok in self.checks)


def hecke_square_recursion_check(form: QuadForm, p: int,
                                 bound: int) -> IdentityReport:
    """Square-argument recursion at a prime coprime to the discriminant,
    for lattices whose genus is indistinguishable by squares:

        r(p^2 n^2) = (p^2 + 1) r(n^2) - p^2 r(n^2 / p^2)   if p | n,
        r(p^2 n^2) = (p^2 + chi p + 1) r(n^2)              if p !| n,

    with chi = kronecker(dF, p), for 1 <= n <= bound.  (The p !| n case
    is where the middle Hecke term survives; collapsing it into the
    two-term recursion with r(n^2/p^2) = 0 fails already for the sum of
    four squares at n = 1.)  The recursion is the weight-2 one, so a form
    of rank other than 4, a p that is not a prime coprime to dF, or a
    bound below 1, raises ValueError.
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
    query = RepQuery(form, p * p * bound * bound)
    ok = True
    r_sq = [1]  # r(n^2) for n = 0, 1, ...
    for n in range(1, bound + 1):
        lhs = query.count(p * p * n * n)
        r_sq.append(query.count(n * n))
        if n % p == 0:
            rhs = (p * p + 1) * r_sq[n] - p * p * r_sq[n // p]
        else:
            rhs = (p * p + chi * p + 1) * r_sq[n]
        if lhs != rhs:
            ok = False
            break
    return IdentityReport(
        ((f"square recursion at p={p} for {form.describe()}, n<={bound}", ok),))


def genus_pair_identity_check(which: str, n_max: int,
                              mod5_bound: int | None = None) -> IdentityReport:
    """Verify the displayed counting identities of the three bundled
    genus pairs ("1,2,6,16", "1,1,3,5", "1,2,3,10").  n_max and
    mod5_bound, when given, must be positive."""
    if n_max < 1:
        raise ValueError("n_max must be positive")
    if mod5_bound is not None and mod5_bound < 1:
        raise ValueError("mod5_bound must be positive")
    which = str(which)
    if which == "1,2,6,16":
        pair = GENUS_PAIRS["1,2,6,16"]
        ta = theta_coeffs(pair.primary, 4 * n_max + 1)
        tb = theta_coeffs(pair.mate, 4 * n_max + 1)
        return IdentityReport((
            (f"r(4n) agreement, n<={n_max}", ta[0::4] == tb[0::4]),
            (f"r(4n+1) agreement, n<={n_max}", ta[1::4] == tb[1::4]),
        ))
    if which == "1,1,3,5":
        pair = GENUS_PAIRS["1,1,3,5"]
        t = pair.auxiliaries["square-core"]
        k = pair.auxiliaries["unit-core"]
        prec = 9 * n_max * n_max
        qa = RepQuery(pair.primary, prec)
        qb = RepQuery(pair.mate, prec)
        qt = RepQuery(t, prec)
        qk = RepQuery(k, max(3 * n_max + 1, 4))
        ok_a = ok_b = consequence = True
        for n in range(1, n_max + 1):
            aux = 4 * qt.count(9 * n * n)
            ra, rb = qa.count(n * n), qb.count(n * n)
            ok_a = ok_a and qa.count(9 * n * n) == aux - 3 * ra
            ok_b = ok_b and qb.count(9 * n * n) == aux - 3 * rb
            consequence = consequence and ra == rb
        unit = all(qa.count(m) == qb.count(m) == 2 * qk.count(m)
                   for m in range(1, 3 * n_max + 2, 3))
        return IdentityReport((
            (f"r(9n^2) = 4 r(9n^2, aux) - 3 r(n^2), n<={n_max}", ok_a),
            (f"mate analogue, n<={n_max}", ok_b),
            (f"r(3n+1) = 2 r(3n+1, unit-core), n<={n_max}", unit),
            (f"r(n^2) agreement, n<={n_max}", consequence),
        ))
    if which == "1,2,3,10":
        pair = GENUS_PAIRS["1,2,3,10"]
        m = pair.auxiliaries["step-diag"]
        nn = pair.auxiliaries["step-even"]
        k1 = pair.auxiliaries["bridge"]
        k2 = pair.auxiliaries["bridge-mate"]
        prec = 25 * n_max * n_max
        qa = RepQuery(pair.primary, prec)
        qb = RepQuery(pair.mate, prec)
        qm = RepQuery(m, 5 * n_max * n_max)
        qn = RepQuery(nn, 5 * n_max * n_max)
        q1 = RepQuery(k1, prec)
        q2 = RepQuery(k2, prec)
        ok_a = ok_b = ok_k1 = ok_k2 = True
        for n in range(1, n_max + 1):
            sq = n * n
            ra, rb, rn = qa.count(sq), qb.count(sq), qn.count(5 * sq)
            step = 2 * qm.count(5 * sq) + 4 * rn
            ok_a = ok_a and qa.count(25 * sq) == step - 5 * ra
            ok_b = ok_b and qb.count(25 * sq) == step - 5 * rb
            ok_k1 = ok_k1 and q1.count(25 * sq) == 2 * rn - ra
            ok_k2 = ok_k2 and q2.count(25 * sq) == 2 * rn - rb
        if mod5_bound is None:
            mod5_bound = max(n_max, 200)
        ta = theta_coeffs(pair.primary, mod5_bound)
        tb = theta_coeffs(pair.mate, mod5_bound)
        mod5 = all(ta[n] == tb[n] for n in range(1, mod5_bound + 1)
                   if n % 5 in (1, 4))
        return IdentityReport((
            (f"r(25n^2) five-term identity, n<={n_max}", ok_a),
            (f"mate analogue, n<={n_max}", ok_b),
            (f"bridge step identity, n<={n_max}", ok_k1),
            (f"bridge-mate step identity, n<={n_max}", ok_k2),
            (f"r(n) agreement for n = 1, 4 mod 5, n<={mod5_bound}", mod5),
        ))
    raise ValueError(f"unknown genus pair {which!r}")


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
