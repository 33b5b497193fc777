"""Exact q-series and Dedekind eta quotients.

A QSeries records coefficients with a grading denominator D: index j
holds the coefficient of q^(j/D).  Eta factors live at D = 24 (for the
q^(1/24) prefactor); theta series and integral-weight quotients at
D = 1.  All coefficients are exact Python integers.

Every eta product is expanded by one kernel, `_eta_product`, in place
over the sparse pentagonal terms of Euler's product.  The closed forms
it is checked against (the classical unary identities and the
level-120 quotient coefficients) are `_product`s of theta.py's twisted
unary thetas `_theta_unary`, so the two sides share no kernel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from math import gcd

import numpy as np

from .arith import factorize, kronecker
from .theta import _product, _theta_unary


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

    def to_json(self) -> str:
        if self.low < 0:
            raise ValueError("cannot serialize a series with negative exponents")
        coeffs = [0] * self.low + list(self.coeffs)
        return json.dumps({"D": self.grading, "prec": self.prec, "coeffs": coeffs})


def _eta_product(exponents, n: int) -> list[int]:
    """prod over (delta, r) of prod_{m>=1} (1 - q^(delta m))^r through
    q^n, in exact Python ints; n < 0 (a precision below the leading
    exponent of the caller's quotient) is refused.

    By Euler's pentagonal number theorem prod (1 - q^(delta m)) is
    1 + sum_k (-1)^k (q^(delta k(3k-1)/2) + q^(delta k(3k+1)/2)), about
    2 sqrt(2n / 3 delta) terms through q^n.  Each factor costs |r|
    in-place passes over them: a multiplying pass runs j downward, so
    every out[j - g] it reads is still old, and a dividing pass runs j
    upward, so every out[j - g] it reads is already divided.
    """
    if n < 0:
        raise ValueError("precision below the leading exponent")
    out = [1] + [0] * n
    for delta, r in exponents:
        plus, minus = [], []  # the g of each sign, ascending
        k = 1
        while delta * k * (3 * k - 1) // 2 <= n:
            (minus if k % 2 else plus).extend(
                g for g in (delta * k * (3 * k - 1) // 2,
                            delta * k * (3 * k + 1) // 2) if g <= n)
            k += 1
        order = range(n, 0, -1) if r > 0 else range(1, n + 1)
        for _ in range(abs(r)):
            for j in order:
                acc = 0
                for g in plus:
                    if g > j:
                        break
                    acc += out[j - g]
                for g in minus:
                    if g > j:
                        break
                    acc -= out[j - g]
                out[j] += acc if r > 0 else -acc
    return out


def _series24(exponents, top: int) -> QSeries:
    """prod eta(delta z)^r as a D = 24 series from its leading index
    a = sum delta r through index top."""
    a = sum(delta * r for delta, r in exponents)
    coeffs = [0] * (top - a + 1)
    coeffs[::24] = _eta_product(exponents, (top - a) // 24)
    return QSeries(24, a, tuple(coeffs))


def eta_expansion(scale: int, power: int, prec: int) -> QSeries:
    """eta(scale*z)^power as a D = 24 series through index `prec`
    (i.e. through q^(prec/24)); a prec below scale * power is refused."""
    if scale < 1:
        raise ValueError("scale must be positive")
    return _series24(((scale, power),), prec)


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
            if delta < 1:
                raise ValueError(f"delta must be positive, got {delta}")
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
    """Expansion through q^prec: D = 1 when 24 divides the leading index
    a = sum delta r, else the D = 24 series.  A prec below the leading
    exponent a / 24 raises ValueError."""
    if prec <= 0:
        raise ValueError("precision must be positive")
    a = sum(delta * r for delta, r in eq.exponents)
    if a % 24:
        return _series24(eq.exponents, 24 * prec)
    return QSeries(1, a // 24, tuple(_eta_product(eq.exponents, prec - a // 24)))


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
    def is_cusp_form(self) -> bool:
        return all(order > 0 for _, order in self.orders)


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
    for p, _ in factorize(level):
        index = index // p * (p + 1)
    return -(-weight * index // 12)


# -- classical single-variable expansions -------------------------------

def divisor_character_sum(n: int) -> int:
    """sum over d | n of kronecker(d, 3)."""
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += kronecker(d, 3)
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
    checks = []

    def compare(name, exponents, rhs):
        lhs = _series24(exponents, target)
        for idx, ri in enumerate(rhs.tolist()):
            le = lhs.coeff(idx)
            if le != ri:
                checks.append(IdentityCheck(name, False, (idx, ri, le)))
                return
        checks.append(IdentityCheck(name, True, None))

    def squares(ratio, char, weight=0):
        """(1/2) sum_{n in Z} (char|n) n^weight q^(ratio n^2 / 24)."""
        return _theta_unary(ratio, target, char, weight) // 2

    compare("eta(z) = (1/2) sum (12|n) q^(n^2/24)",
            ((1, 1),), squares(1, 12))
    compare("eta(2z)^2/eta(z) = (1/2) sum (4|n) q^(n^2/8)",
            ((1, -1), (2, 2)), squares(3, 4))
    compare("eta(z)^3 = (1/2) sum (-4|n) n q^(n^2/8)",
            ((1, 3),), squares(3, -4, 1))
    compare("eta(3z)^3/eta(z) = sum_{3 !| n} (sum_{d|n} (d|3)) q^(n/3)",
            ((1, -1), (3, 3)), _divisor_series(8, target))
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
