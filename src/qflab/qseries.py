"""Exact q-series arithmetic and Dedekind eta quotients.

Series carry a grading denominator D: index j holds the coefficient of
q^(j/D).  Eta factors live at D = 24 (for the q^(1/24) prefactor); theta
series and integral-weight quotients at D = 1.  All coefficients are
exact Python integers.

Expansions come from the Euler product through `_mul_trunc`.  The
closed forms they are checked against (the classical unary identities
and the level-120 quotient coefficients) are `_product`s of theta.py's
twisted unary thetas `_theta_unary`, so the two sides share no kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .arith import factorize, kronecker
from .forms import QuadForm
from .theta import (_inverse_trunc, _mul_trunc, _product, _theta_unary,
                     theta_coeffs)


@dataclass(frozen=True)
class QSeries:
    grading: int
    low: int
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if self.grading < 1:
            raise ValueError("grading denominator must be positive")
        if not self.coeffs:
            raise ValueError("series needs at least one known coefficient")
        object.__setattr__(self, "coeffs", tuple(map(int, self.coeffs)))

    @property
    def prec(self) -> int:
        """Highest index (in 1/grading units) with a known coefficient."""
        return self.low + len(self.coeffs) - 1

    def coeff(self, index: int) -> int:
        """Coefficient of q^(index/grading); indices below `low` are zero."""
        if index > self.prec:
            raise ValueError(f"index {index} beyond precision {self.prec}")
        if index < self.low:
            return 0
        return self.coeffs[index - self.low]

    def nonzero(self):
        return [(self.low + j, c) for j, c in enumerate(self.coeffs) if c]

    def regraded(self, new_grading: int) -> "QSeries":
        if new_grading % self.grading:
            raise ValueError("can only refine the grading")
        f = new_grading // self.grading
        if f == 1:
            return self
        coeffs = [0] * ((len(self.coeffs) - 1) * f + 1)
        for j, c in enumerate(self.coeffs):
            coeffs[j * f] = c
        return QSeries(new_grading, self.low * f, tuple(coeffs))

    def to_integral_grading(self) -> "QSeries":
        """Convert to D = 1 if every nonzero index is a multiple of D."""
        d = self.grading
        if d == 1:
            return self
        if any(idx % d for idx, _ in self.nonzero()):
            raise ValueError("series has genuinely fractional exponents")
        lo = -(-self.low // d)
        hi = self.prec // d
        return QSeries(1, lo, tuple(self.coeff(i * d) for i in range(lo, hi + 1)))

    def __add__(self, other: "QSeries") -> "QSeries":
        d = self.grading * other.grading // gcd(self.grading, other.grading)
        a, b = self.regraded(d), other.regraded(d)
        low = min(a.low, b.low)
        prec = min(a.prec, b.prec)
        coeffs = [0] * (prec - low + 1)
        for src in (a, b):
            for idx, c in src.nonzero():
                if idx <= prec:
                    coeffs[idx - low] += c
        return QSeries(d, low, tuple(coeffs))

    def __neg__(self) -> "QSeries":
        return QSeries(self.grading, self.low, tuple(-c for c in self.coeffs))

    def __sub__(self, other: "QSeries") -> "QSeries":
        return self + (-other)

    def scaled(self, factor: int) -> "QSeries":
        return QSeries(self.grading, self.low,
                       tuple(factor * c for c in self.coeffs))

    def __mul__(self, other: "QSeries") -> "QSeries":
        d = self.grading * other.grading // gcd(self.grading, other.grading)
        a, b = self.regraded(d), other.regraded(d)
        n = min(a.prec - a.low, b.prec - b.low)
        return QSeries(d, a.low + b.low, tuple(_mul_trunc(a.coeffs, b.coeffs, n)))

    def inverse(self, prec: int) -> "QSeries":
        """Reciprocal series to the given index precision; the lowest
        coefficient must be a unit.  Index prec of the reciprocal needs
        the coefficients through prec + 2 * (leading index), so a larger
        prec than the known ones allow is refused."""
        nonzero = self.nonzero()
        if not nonzero:
            raise ValueError("a zero series has no reciprocal")
        lead_idx = nonzero[0][0]
        low = -lead_idx
        if prec < low:
            raise ValueError("requested precision below the leading term")
        if prec > self.prec - 2 * lead_idx:
            raise ValueError(f"precision {prec} needs coefficients past "
                             f"the known index {self.prec}")
        known = self.coeffs[lead_idx - self.low:]
        return QSeries(self.grading, low, tuple(_inverse_trunc(known, prec - low)))

    def truncated(self, prec: int) -> "QSeries":
        """Drop knowledge above the given index."""
        if prec > self.prec:
            raise ValueError("cannot extend precision by truncation")
        if prec < self.low:
            return QSeries(self.grading, prec, (0,))
        return QSeries(self.grading, self.low,
                       self.coeffs[:prec - self.low + 1])

    def to_json(self) -> str:
        if self.low < 0:
            raise ValueError("cannot serialize a series with negative exponents")
        coeffs = [0] * self.low + list(self.coeffs)
        return json.dumps({"D": self.grading, "prec": self.prec, "coeffs": coeffs})


def series_one(grading: int = 1, prec: int = 0) -> QSeries:
    return QSeries(grading, 0, tuple([1] + [0] * prec))


def _euler_product(n_terms: int) -> list[int]:
    """Coefficients of prod_{n>=1} (1 - x^n) to x^n_terms (pentagonal)."""
    coeffs = [0] * (n_terms + 1)
    coeffs[0] = 1
    k = 1
    while True:
        g1 = k * (3 * k - 1) // 2
        g2 = k * (3 * k + 1) // 2
        if g1 > n_terms:
            break
        sign = -1 if k % 2 else 1
        coeffs[g1] += sign
        if g2 <= n_terms:
            coeffs[g2] += sign
        k += 1
    return coeffs


def eta_expansion(scale: int, power: int, prec: int) -> QSeries:
    """eta(scale*z)^power as a D = 24 series through index `prec`
    (i.e. through q^(prec/24)).  Negative powers go through exact series
    inversion of the Euler product."""
    if scale < 1:
        raise ValueError("scale must be positive")
    if power == 0:
        return series_one(24, prec)
    low = scale * power
    n_terms = max(0, (prec - low) // (24 * scale))
    base = _euler_product(n_terms)
    acc = [1]
    for _ in range(abs(power)):
        acc = _mul_trunc(acc, base, n_terms)
    if power < 0:
        acc = _inverse_trunc(acc, n_terms)
    coeffs = [0] * (prec - low + 1)
    for j, c in enumerate(acc):
        pos = 24 * scale * j
        if pos <= prec - low:
            coeffs[pos] = c
    return QSeries(24, low, tuple(coeffs))


@dataclass(frozen=True)
class EtaQuotient:
    """Finite product prod eta(delta z)^(r_delta) at a given level."""

    level: int
    exponents: tuple[tuple[int, int], ...]

    def __post_init__(self):
        if self.level < 1:
            raise ValueError("level must be positive")
        seen = set()
        norm = []
        for delta, r in self.exponents:
            delta, r = int(delta), int(r)
            if self.level % delta:
                raise ValueError(f"{delta} does not divide level {self.level}")
            if r == 0 or delta in seen:
                raise ValueError("exponent list must have distinct deltas, r != 0")
            seen.add(delta)
            norm.append((delta, r))
        object.__setattr__(self, "exponents", tuple(sorted(norm)))

    @property
    def weight(self) -> Fraction:
        return Fraction(sum(r for _, r in self.exponents), 2)

    @property
    def character_scale(self) -> int:
        """s = prod delta^|r_delta| (character is ((-1)^k s | .))."""
        s = 1
        for delta, r in self.exponents:
            s *= delta ** abs(r)
        return s

    @classmethod
    def parse(cls, text: str, level: int) -> "EtaQuotient":
        """Parse the CLI string form "delta:r,delta:r,..."."""
        pairs = []
        for chunk in text.split(","):
            delta, _, r = chunk.partition(":")
            pairs.append((int(delta), int(r)))
        return cls(level, tuple(pairs))


def eta_quotient_expansion(eq: EtaQuotient, prec: int) -> QSeries:
    """Expansion through q^prec; D = 1 when the grading is integral,
    else the raw D = 24 series."""
    if prec <= 0:
        raise ValueError("precision must be positive")
    # negative-power factors lower the truncation point of a product, so
    # expand every factor with enough headroom first
    margin = sum(-delta * r for delta, r in eq.exponents if r < 0)
    prec24 = 24 * prec + margin
    acc = series_one(24, prec24)
    for delta, r in eq.exponents:
        acc = acc * eta_expansion(delta, r, prec24)
    acc = acc.truncated(24 * prec)
    if sum(delta * r for delta, r in eq.exponents) % 24 == 0:
        return acc.to_integral_grading()
    return acc


@dataclass(frozen=True)
class NewmanReport:
    weight: Fraction
    character_discriminant: int
    cond24a: bool
    cond24b: bool

    @property
    def holds(self) -> bool:
        return self.cond24a and self.cond24b and self.weight.denominator == 1


def newman_check(eq: EtaQuotient) -> NewmanReport:
    """The two mod-24 congruences guaranteeing modularity on Gamma0(N)."""
    a = sum(delta * r for delta, r in eq.exponents)
    b = sum((eq.level // delta) * r for delta, r in eq.exponents)
    k = eq.weight
    sign = -1 if (k.denominator == 1 and k.numerator % 2) else 1
    return NewmanReport(
        weight=k,
        character_discriminant=sign * eq.character_scale,
        cond24a=a % 24 == 0,
        cond24b=b % 24 == 0,
    )


@dataclass(frozen=True)
class CuspReport:
    orders: tuple[tuple[int, Fraction], ...]

    @property
    def is_holomorphic(self) -> bool:
        return all(order >= 0 for _, order in self.orders)

    @property
    def is_cusp_form(self) -> bool:
        return all(order > 0 for _, order in self.orders)

    def order_at(self, d: int) -> Fraction:
        for cusp, order in self.orders:
            if cusp == d:
                return order
        raise ValueError(f"{d} is not a cusp divisor")


def cusp_orders(eq: EtaQuotient) -> CuspReport:
    """Vanishing order at each cusp class d | N (Ligozat's formula)."""
    n = eq.level
    divisors = sorted(d for d in range(1, n + 1) if n % d == 0)
    orders = []
    for d in divisors:
        total = Fraction(0)
        for delta, r in eq.exponents:
            g = gcd(d, delta)
            total += Fraction(g * g * r, gcd(d, n // d) * d * delta)
        orders.append((d, Fraction(n, 24) * total))
    return CuspReport(tuple(orders))


def sturm_bound(level: int, weight: int) -> int:
    """ceil((weight/12) * [SL2(Z) : Gamma0(level)])."""
    if level < 1 or weight < 1:
        raise ValueError("level and weight must be positive")
    index = level
    for p, _ in factorize(level).factors:
        index = index // p * (p + 1)
    return -(-weight * index // 12)


# -- classical single-variable expansions -------------------------------

def divisor_character_sum(n: int, char_bottom: int = 3) -> int:
    """sum over d | n of kronecker(d, char_bottom)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += kronecker(d, char_bottom)
    return total


def _divisor_series(step: int, prec: int) -> np.ndarray:
    """sum over c >= 1, 3 !| c of divisor_character_sum(c) q^(step c),
    through q^prec."""
    out = np.zeros(prec + 1, dtype=np.int64)
    for c in range(1, prec // step + 1):
        if c % 3:
            out[step * c] = divisor_character_sum(c)
    return out


@dataclass(frozen=True)
class IdentityCheck:
    name: str
    passed: bool
    first_mismatch: tuple[int, int, int] | None  # index, expected, actual


def unary_theta_identities(prec: int) -> list[IdentityCheck]:
    """Verify the classical eta expansions coefficientwise through q^prec:
    eta, eta(2z)^2/eta(z), eta(z)^3 as character sums over squares, and
    eta(3z)^3/eta(z) as a divisor-character sum."""
    if prec < 24:
        raise ValueError("precision must be at least 24")
    target = 24 * prec
    prec24 = target + 72
    checks = []

    def compare(name, lhs: QSeries, rhs: QSeries):
        top = min(lhs.prec, rhs.prec, target)
        for idx in range(top + 1):
            le, ri = lhs.coeff(idx), rhs.coeff(idx)
            if le != ri:
                checks.append(IdentityCheck(name, False, (idx, ri, le)))
                return
        checks.append(IdentityCheck(name, True, None))

    def squares(ratio, char, weight=0):
        """(1/2) sum_{n in Z} (char|n) n^weight q^(ratio n^2 / 24)."""
        half = _theta_unary(ratio, prec24, char, weight) // 2
        return QSeries(24, 0, tuple(half.tolist()))

    eta1 = eta_expansion(1, 1, prec24)
    compare("eta(z) = (1/2) sum (12|n) q^(n^2/24)", eta1, squares(1, 12))

    lhs = eta_expansion(2, 2, prec24) * eta_expansion(1, -1, prec24)
    compare("eta(2z)^2/eta(z) = (1/2) sum (4|n) q^(n^2/8)",
            lhs, squares(3, 4))

    compare("eta(z)^3 = (1/2) sum (-4|n) n q^(n^2/8)",
            eta_expansion(1, 3, prec24), squares(3, -4, 1))

    lhs = eta_expansion(3, 3, prec24) * eta_expansion(1, -1, prec24)
    compare("eta(3z)^3/eta(z) = sum_{3 !| n} (sum_{d|n} (d|3)) q^(n/3)",
            lhs, QSeries(24, 0, tuple(_divisor_series(8, prec24).tolist())))
    return checks


# -- the three weight-2 level-120 cusp quotients -------------------------

LEVEL120_QUOTIENTS: dict[int, EtaQuotient] = {
    1: EtaQuotient(120, ((1, -1), (2, 2), (15, 3))),
    2: EtaQuotient(120, ((2, 1), (5, -1), (10, 3), (15, -1), (30, 2))),
    3: EtaQuotient(120, ((1, -1), (2, 2), (5, 1), (20, -1), (60, 3))),
}


def _exact_div(value: int, divisor: int) -> int:
    if value % divisor:
        raise ArithmeticError(
            f"lattice sum {value} not divisible by {divisor}")
    return value // divisor


# (scale, divisor, twisted unary factors (a, char, weight)): q^n has
# entry scale * n of the factors' product over the divisor as its
# coefficient; quotient 3 also takes the divisor series of step 160
_QUOTIENT_SUMS = {
    1: (8, 4, ((1, 4, 0), (15, -4, 1))),
    2: (24, 16, ((2, 12, 0), (10, 12, 0), (15, 4, 0), (45, 4, 0))),
    3: (24, 4, ((3, 4, 0), (5, 12, 0))),
}
_QUOTIENT_TABLES: dict[int, np.ndarray] = {}


def quotient_coefficient(i: int, n: int) -> int:
    """Coefficient of q^n of the i-th level-120 quotient as a finite
    lattice sum (all divisions exact).  The product of each quotient is
    kept and grown geometrically when a query passes its end."""
    if n < 1:
        raise ValueError("n must be positive")
    if i not in _QUOTIENT_SUMS:
        raise ValueError("i must be 1, 2 or 3")
    scale, divisor, factors = _QUOTIENT_SUMS[i]
    m = scale * n
    table = _QUOTIENT_TABLES.get(i)
    if table is None or len(table) <= m:
        prec = max(2 * m, 1024)
        arrays = [_theta_unary(a, prec, char, weight)
                  for a, char, weight in factors]
        if i == 3:
            arrays.append(_divisor_series(160, prec))
        table = _QUOTIENT_TABLES[i] = _product(arrays, prec)
    return _exact_div(int(table[m]), divisor)


def theta_qseries(form: QuadForm, prec: int) -> QSeries:
    """Theta series of a form as a D = 1 series."""
    return QSeries(1, 0, tuple(theta_coeffs(form, prec)))
