"""Elementary number-theoretic kernels.

Kronecker symbols, trial-division factorization, p-adic valuations, the
splitting of an integer into its "bad" part (primes dividing a context
modulus) and coprime part, and the multiplicativity factors that govern
representation numbers of squares at good primes.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache


def kronecker(a: int, n: int) -> int:
    """Kronecker symbol (a|n), defined for all integers n."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    result = 1
    if n < 0:
        n = -n
        if a < 0:
            result = -result
    if n % 2 == 0:
        if a % 2 == 0:
            return 0
        while n % 2 == 0:
            n //= 2
            if a % 8 in (3, 5):
                result = -result
    # n is now odd and positive: Jacobi loop
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def valuation(n: int, p: int) -> int:
    """Largest e with p^e dividing n (n nonzero, p >= 2)."""
    if n == 0:
        raise ValueError("valuation of zero is undefined")
    if p < 2:
        raise ValueError(f"valuation needs a base p >= 2, got {p}")
    e = 0
    n = abs(n)
    while n % p == 0:
        n //= p
        e += 1
    return e


def factorize(n: int) -> tuple[tuple[int, int], ...]:
    """The (prime, exponent) pairs of a positive integer, primes
    ascending, by trial division."""
    if n < 1:
        raise ValueError(f"cannot factor {n}")
    m = n
    factors = []
    d = 2
    while d * d <= m:
        if m % d == 0:
            e = 0
            while m % d == 0:
                m //= d
                e += 1
            factors.append((d, e))
        d += 1 if d == 2 else 2
    if m > 1:
        factors.append((m, 1))
    return tuple(factors)


@dataclass(frozen=True)
class SquareSplit:
    """n = n1 * n2 with every prime of n1 dividing the context modulus
    and n2 coprime to it; mu maps each prime of n2 to its exponent."""

    n: int
    n1: int
    n2: int
    mu: tuple[tuple[int, int], ...]


@lru_cache(maxsize=1024)
def _factors(n: int) -> tuple[tuple[int, int], ...]:
    # the n <= bound of a search or a verify suite repeat from check to
    # check, while each check brings its own modulus
    return factorize(n)


def square_split(n: int, two_dl: int) -> SquareSplit:
    """Split n into its part supported on primes of two_dl and the rest."""
    if n < 1 or two_dl < 1:
        raise ValueError("square_split needs positive arguments")
    n1 = 1
    mu = []
    for p, e in _factors(n):
        if two_dl % p:
            mu.append((p, e))
        else:
            n1 *= p**e
    return SquareSplit(n, n1, n // n1, tuple(mu))


def h_factor(d_f: int, p: int, mu: int, k: int) -> int:
    """Good-prime multiplicativity factor for r on squares, rank k in {3, 4}.

    For even k this is sum_{t=0}^{2 mu} chi^t p^{(k-2)t/2} with
    chi = kronecker((-1)^(k/2) d_f, p); for k = 3 it is the two-term
    geometric expression with character kronecker(-d_f, p).
    """
    if k not in (3, 4):
        raise ValueError("rank must be 3 or 4")
    if mu < 0:
        raise ValueError("mu must be nonnegative")
    if p < 2 or (2 * d_f) % p == 0:
        raise ValueError(f"{p} divides 2*dF = {2 * d_f}")
    if k == 4:
        chi = kronecker(d_f, p)
        x = chi * p
        # closed form of sum_{t=0}^{2 mu} (chi p)^t; x != 1 since p >= 3
        return (x ** (2 * mu + 1) - 1) // (x - 1)
    chi = kronecker(-d_f, p)
    head = (p ** (mu + 1) - 1) // (p - 1)
    tail = (p**mu - 1) // (p - 1)
    return head - chi * tail


def local_density_good(d_f: int, p: int, mu: int) -> Fraction:
    """Local representation density alpha_p(n, L) at a good prime for a
    quaternary lattice, where mu = ord_p(n): the closed rational form
    (p - chi^(mu+1) p^-mu)(1 - chi p^-2)/(p - chi)."""
    if p < 2 or (2 * d_f) % p == 0:
        raise ValueError(f"{p} divides 2*dF = {2 * d_f}")
    chi = kronecker(d_f, p)
    num = (p - Fraction(chi ** (mu + 1), p**mu)) * (1 - Fraction(chi, p * p))
    return num / (p - chi)
