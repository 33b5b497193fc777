"""Watson-type transformations and local (p-adic) structure at odd primes."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .arith import factorize, kronecker, valuation
from .forms import QuadForm, congruence_sublattice


def watson_sublattice(form: QuadForm, p: int) -> QuadForm:
    """Unscaled transform: the sublattice of vectors x with H x = 0 (mod p),
    together with Q(x) even when p = 2.  A p that is not a prime raises
    ValueError."""
    if p < 2 or factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not a prime")
    sub = congruence_sublattice(form, form.hessian, p)
    if p == 2:
        # Q is linear modulo 2 on the kernel, so one more congruence cut
        sub = congruence_sublattice(sub, [[q % 2 for q in sub.diag_q]], 2)
    return sub


def lambda_transform(form: QuadForm, p: int) -> QuadForm:
    """Scaled transform: the Watson sublattice with the p-part of its norm
    ideal divided out, so the result is non-classic integral again."""
    sub = watson_sublattice(form, p)
    scale = p ** valuation(sub.norm_ideal, p)
    return sub.divided_by(scale)


def lambda_composite(form: QuadForm, n: int) -> QuadForm:
    """Iterate the scaled transform over the prime factorization of n."""
    if n < 1:
        raise ValueError("n must be positive")
    out = form
    for p, e in factorize(n):
        for _ in range(e):
            out = lambda_transform(out, p)
    return out


@dataclass(frozen=True)
class JordanSymbolOdd:
    """Block data of a diagonalization over the p-adic integers, p odd:
    (scale exponent, tuple of Legendre classes of the unit diagonal)."""

    prime: int
    blocks: tuple[tuple[int, tuple[int, ...]], ...]

    @property
    def unimodular_units(self) -> tuple[int, ...]:
        for scale, units in self.blocks:
            if scale == 0:
                return units
        return ()

    @property
    def unimodular_part_anisotropic(self) -> bool:
        units = self.unimodular_units
        if len(units) <= 1:
            return True
        if len(units) == 2:
            # <e1, e2> is anisotropic iff -e1*e2 is a nonresidue
            return kronecker(-1, self.prime) * units[0] * units[1] == -1
        return False


def _vp(f: Fraction, p: int) -> int:
    return valuation(f.numerator, p) - valuation(f.denominator, p)


def _unit_class(f: Fraction, p: int) -> int:
    num = f.numerator // p ** valuation(f.numerator, p)
    den = f.denominator // p ** valuation(f.denominator, p)
    return kronecker(num * den, p)


def _require_odd_prime(p: int) -> None:
    if p < 3 or factorize(p) != ((p, 1),):
        raise ValueError(f"{p} is not an odd prime")


def jordan_symbol_odd(form: QuadForm, p: int) -> JordanSymbolOdd:
    """Diagonalize Q over Z_p by symmetric elimination, pivoting on entries
    of minimal p-valuation."""
    _require_odd_prime(p)
    k = form.rank
    g = [[Fraction(form.hessian[i][j], 2) for j in range(k)] for i in range(k)]
    active = list(range(k))
    diag: list[Fraction] = []
    while active:
        best_diag = min(
            (i for i in active if g[i][i] != 0),
            key=lambda i: _vp(g[i][i], p), default=None)
        pairs = [(i, j) for i in active for j in active if i < j and g[i][j] != 0]
        best_off = min(pairs, key=lambda ij: _vp(g[ij[0]][ij[1]], p),
                       default=None)
        if best_diag is None and best_off is None:
            raise RuntimeError("degenerate form in p-adic diagonalization")
        if best_off is not None and (
                best_diag is None
                or _vp(g[best_off[0]][best_off[1]], p) < _vp(g[best_diag][best_diag], p)):
            # fold the dominant cross term onto the diagonal: e_i += e_j
            i, j = best_off
            for t in range(k):
                g[t][i] += g[t][j]
            for t in range(k):
                g[i][t] += g[j][t]
            best_diag = i
        piv = best_diag
        d = g[piv][piv]
        diag.append(d)
        active.remove(piv)
        for i in active:
            if g[i][piv] != 0:
                factor = g[i][piv] / d
                for t in range(k):
                    g[i][t] -= factor * g[piv][t]
                for t in range(k):
                    g[t][i] -= factor * g[t][piv]
    grouped: dict[int, list[int]] = {}
    for d in diag:
        grouped.setdefault(_vp(d, p), []).append(_unit_class(d, p))
    blocks = tuple((scale, tuple(grouped[scale])) for scale in sorted(grouped))
    return JordanSymbolOdd(p, blocks)


def gamma_sublattices(form: QuadForm, p: int) -> tuple[QuadForm, QuadForm]:
    """The two index-p sublattices of a ternary form whose norm lies in pZ.

    Requires p odd dividing the discriminant, with the unimodular part of
    the p-adic splitting nonzero isotropic; the sublattices are found by
    scanning the p^2 + p + 1 index-p subgroups of L/pL directly.
    """
    if form.rank != 3:
        raise ValueError("rank 3 required")
    _require_odd_prime(p)
    if form.discriminant % p:
        raise ValueError(f"{p} does not divide the discriminant")
    symbol = jordan_symbol_odd(form, p)
    if not symbol.unimodular_units or symbol.unimodular_part_anisotropic:
        raise ValueError(
            "unimodular p-adic component must be nonzero isotropic")
    h = form.hessian

    def norm_in_pz(functional) -> bool:
        # hyperplane basis of ker(functional) over F_p, lifted to ints
        idx = next(i for i, c in enumerate(functional) if c % p)
        inv = pow(functional[idx], -1, p)
        basis = []
        for j in range(3):
            if j == idx:
                continue
            vec = [0, 0, 0]
            vec[j] = 1
            vec[idx] = (-functional[j] * inv) % p
            basis.append(vec)
        v1, v2 = basis
        q1 = form.evaluate(v1)
        q2 = form.evaluate(v2)
        cross = sum(v1[i] * h[i][j] * v2[j] for i in range(3) for j in range(3))
        return q1 % p == 0 and q2 % p == 0 and cross % p == 0

    functionals = [(1, a, b) for a in range(p) for b in range(p)]
    functionals += [(0, 1, b) for b in range(p)]
    functionals.append((0, 0, 1))
    hits = [f for f in functionals if norm_in_pz(f)]
    if len(hits) != 2:
        raise RuntimeError(
            f"expected 2 norm-p sublattices, found {len(hits)}")
    pair = [congruence_sublattice(form, [f], p) for f in sorted(hits)]
    return pair[0], pair[1]
