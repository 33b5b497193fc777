"""Positive definite integral quadratic forms of rank 1-4.

A form is stored through the integer matrix H = 2B (B the bilinear form),
so Q(v) = v^T H v / 2.  Diagonal entries of H are even, off-diagonal
entries may be odd: this keeps all data integral for forms whose cross
coefficients are half-integral in B while Q stays integer valued.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from operator import index

from ._matrix import conjugate, hnf_basis, integer_kernel


@dataclass(frozen=True)
class QuadForm:
    hessian: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        try:
            h = tuple(tuple(map(index, row)) for row in self.hessian)
        except TypeError as exc:
            raise ValueError("hessian must be a matrix of integers") from exc
        object.__setattr__(self, "hessian", h)
        k = len(h)
        if not 1 <= k <= 4:
            raise ValueError(f"rank {k} not supported (want 1..4)")
        if any(len(row) != k for row in h):
            raise ValueError("hessian must be square")
        for i in range(k):
            if h[i][i] % 2:
                raise ValueError("diagonal entries of the hessian must be even")
            for j in range(i):
                if h[i][j] != h[j][i]:
                    raise ValueError("hessian must be symmetric")
        # Fraction-free (Bareiss) elimination: the pivot a[i][i] is the leading
        # minor D_{i+1}, the last det H.  theta._tails walks the kept rows.
        a = [list(row) for row in h]
        for i in range(k):
            if a[i][i] <= 0:
                raise ValueError("form is not positive definite")
            prev = a[i - 1][i - 1] if i else 1
            for r in range(i + 1, k):
                for c in range(i + 1, k):
                    a[r][c] = (a[r][c] * a[i][i] - a[r][i] * a[i][c]) // prev
        object.__setattr__(self, "_rows", a)

    # -- constructors -------------------------------------------------

    @classmethod
    def diagonal(cls, q_values) -> "QuadForm":
        """Form sum a_i x_i^2 from its coefficient list."""
        vals = list(q_values)
        return cls(tuple(
            tuple(2 * vals[i] if i == j else 0 for j in range(len(vals)))
            for i in range(len(vals))
        ))

    @classmethod
    def from_gram(cls, gram) -> "QuadForm":
        """Form from an integer matrix presentation of B (doubled into H)."""
        return cls(tuple(tuple(2 * x for x in row) for row in gram))

    @classmethod
    def block_diag(cls, *blocks) -> "QuadForm":
        """Orthogonal sum of integer B-matrix blocks (ints = 1x1 blocks)."""
        mats = []
        for b in blocks:
            if isinstance(b, int):
                mats.append([[b]])
            else:
                mats.append([list(row) for row in b])
        k = sum(len(m) for m in mats)
        gram = [[0] * k for _ in range(k)]
        off = 0
        for m in mats:
            for i, row in enumerate(m):
                for j, x in enumerate(row):
                    gram[off + i][off + j] = x
            off += len(m)
        return cls.from_gram(gram)

    # -- basic data ----------------------------------------------------

    @property
    def rank(self) -> int:
        return len(self.hessian)

    @property
    def discriminant(self) -> int:
        return self._rows[-1][-1]

    @property
    def diag_q(self) -> tuple[int, ...]:
        """Q values of the basis vectors."""
        return tuple(self.hessian[i][i] // 2 for i in range(self.rank))

    @property
    def norm_ideal(self) -> int:
        """Generator of the ideal of represented values."""
        g = 0
        for i in range(self.rank):
            g = gcd(g, self.hessian[i][i] // 2)
            for j in range(i):
                g = gcd(g, self.hessian[i][j])
        return g

    def evaluate(self, v) -> int:
        """Q(v) = v^T H v / 2."""
        vec = list(v)
        if len(vec) != self.rank:
            raise ValueError(
                f"vector has length {len(vec)}, form has rank {self.rank}")
        h = self.hessian
        total = 0
        for i, vi in enumerate(vec):
            if vi == 0:
                continue
            total += h[i][i] * vi * vi
            for j in range(i):
                total += 2 * h[i][j] * vi * vec[j]
        return total // 2

    def is_diagonal(self) -> bool:
        return all(self.hessian[i][j] == 0
                   for i in range(self.rank) for j in range(i))

    def divided_by(self, e: int) -> "QuadForm":
        """Scale Q by 1/e (e must divide the norm ideal)."""
        if e < 1 or self.norm_ideal % e:
            raise ValueError(f"{e} does not divide the norm ideal")
        return QuadForm(tuple(tuple(x // e for x in row) for row in self.hessian))

    def orthogonal_blocks(self) -> list["QuadForm"]:
        """Split into orthogonal components, in order of their first
        basis index."""
        k = self.rank
        seen = [False] * k
        blocks = []
        for start in range(k):
            if seen[start]:
                continue
            comp = {start}
            frontier = [start]
            while frontier:
                i = frontier.pop()
                seen[i] = True
                for j in range(k):
                    if j not in comp and self.hessian[i][j] != 0:
                        comp.add(j)
                        frontier.append(j)
            idx = tuple(sorted(comp))
            sub = tuple(tuple(self.hessian[i][j] for j in idx) for i in idx)
            blocks.append(_block_form(sub))
        return blocks

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        return json.dumps({"rank": self.rank,
                           "hessian": [list(r) for r in self.hessian]})

    def describe(self) -> str:
        if self.is_diagonal():
            return ",".join(str(q) for q in self.diag_q)
        return self.to_json()

    def __str__(self) -> str:
        return self.describe()


@lru_cache(maxsize=256)
def _block_form(hessian: tuple[tuple[int, ...], ...]) -> QuadForm:
    # forms are immutable, so one instance serves every form with this block
    return QuadForm(hessian)


def parse_form(text: str) -> QuadForm:
    """Parse a form literal: diagonal shorthand "1,2,3,10" or JSON
    {"rank": k, "hessian": [[...], ...]}."""
    text = text.strip()
    if text.startswith("{"):
        data = json.loads(text)
        if "hessian" not in data:
            raise ValueError('form literal has no "hessian" entry')
        form = QuadForm(data["hessian"])
        # JSON true and false would pass QuadForm's integer check as 1 and 0
        if any(isinstance(x, bool) for x in sum(data["hessian"], [])):
            raise ValueError("form literal entries must be integers")
        rank = data.get("rank", form.rank)
        # a JSON 2.0 or true compares equal to the integer rank
        if type(rank) is not int:
            raise ValueError("rank field must be an integer")
        if rank != form.rank:
            raise ValueError("rank field disagrees with hessian size")
        return form
    try:
        values = [int(part) for part in text.split(",")]
    except ValueError as exc:
        raise ValueError(f"cannot parse form literal {text!r}") from exc
    return QuadForm.diagonal(values)


def congruence_sublattice(form: QuadForm, relations, modulus: int) -> QuadForm:
    """The form on a Hermite normal form basis of the sublattice
    {x : w . x = 0 (mod modulus) for each relation w}.  The result may be
    non-normalized."""
    if modulus < 2:
        raise ValueError("modulus must be at least 2")
    rels = [row for row in relations if any(c % modulus for c in row)]
    if any(len(row) != form.rank for row in rels):
        raise ValueError("relation length must equal the rank")
    if not rels:
        return form
    r = len(rels)
    # solutions of W x = m y, as projections of an integer kernel
    stacked = [list(rels[i]) + [-modulus if j == i else 0 for j in range(r)]
               for i in range(r)]
    basis = hnf_basis([vec[:form.rank] for vec in integer_kernel(stacked)])
    return QuadForm(tuple(tuple(x) for x in conjugate(form.hessian, basis)))
